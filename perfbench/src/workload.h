#ifndef KBT_PERFBENCH_WORKLOAD_H_
#define KBT_PERFBENCH_WORKLOAD_H_

/// \file
/// The benchmark's workloads: a seeded knowledgebase, a seeded read pool and
/// a seeded apply stream (for the call ladder's apply rungs). The program
/// under test only ever sees the generated inputs; everything here is a pure
/// function of the seed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/kbt.h"
#include "serve/server.h"

namespace kbt::perfbench {

enum class Kind { kHotRead, kWorldsetRead };

/// One read as it goes on the wire: insert the antecedents left to right,
/// then check the consequent in every world (necessarily) or in some.
struct ReadSpec {
  std::vector<std::string> antecedents;
  std::string consequent;
  bool necessarily = true;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kHotRead;
  uint64_t seed = 0;
  /// The initial state every server of the run starts from.
  Knowledgebase kb;
  std::vector<ReadSpec> pool;
  /// Closed-loop read connections.
  int read_connections = 1;
  /// Untimed pass before the window: reads per connection.
  size_t warmup_reads = 0;
  /// Relations the apply stream writes; never the ones that tell worlds
  /// apart, so the world count and the active domain stay fixed.
  std::vector<std::pair<std::string, int>> apply_relations;
  /// Set-ups in each of a run's rounds; setup_s is the median over all of
  /// them. Fixed per workload, because set-ups raise peak_rss_mb a little
  /// (thread arenas of the servers they start).
  size_t setups_per_round = 1;
  /// Parameters for the provenance record, as name/value pairs.
  std::vector<std::pair<std::string, std::string>> params;
};

/// Builds workload `name` for `seed`. `nproc` bounds the client connections
/// (at most nproc/2, so client and server threads fit the host).
StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                unsigned nproc);

/// The i-th apply of the workload's seeded stream: τ of a conjunction of one
/// to three ground literals over `apply_relations` and the kb's constants.
std::string ApplyExpr(const Workload& w, uint64_t i);

/// The in-process form of a read.
serve::ReadRequest ToRequest(const ReadSpec& r);

/// Deterministic 64-bit mixer (splitmix64) used for every seeded choice.
uint64_t Mix(uint64_t x);

}  // namespace kbt::perfbench

#endif  // KBT_PERFBENCH_WORKLOAD_H_
