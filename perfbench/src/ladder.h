#ifndef KBT_PERFBENCH_LADDER_H_
#define KBT_PERFBENCH_LADDER_H_

/// \file
/// The call ladder: the traced pass that gives the per-layer numbers. For a
/// seeded sample of the workload's requests, the same request is replayed at
/// each layer's public entry point and every call is timed as a span:
///
///   read:  logic.parse → logic.ground → core.mu → core.tau → serve.query
///          → net.read
///   apply: serve.apply → serve.durable_apply → net.apply
///          → repl.semisync_apply
///
/// A layer's self time is the difference between adjacent rungs (serve =
/// serve.query − core.tau, net = net.read − serve.query, store =
/// serve.durable_apply − serve.apply, replication = repl.semisync_apply −
/// net.apply). For the subtraction to hold, the read rungs all start cold:
/// per-call caches in core, and a server with its cache bank off under serve
/// and net. Every rung's answer is checked against the others.

#include <string>
#include <vector>

#include "loop.h"
#include "stack.h"
#include "workload.h"

namespace kbt::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LadderResult {
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  uint64_t attempted = 0;  ///< Ladder requests whose answers were checked.
  uint64_t failed = 0;     ///< Rungs that failed or disagreed.
};

/// Runs the ladder on fresh stacks started from the workload's kb: the read
/// rungs' bank-off server in memory, the apply rungs' stacks under `dir`.
/// `expected` holds the answer per pool index.
StatusOr<LadderResult> RunLadder(const Workload& w,
                                 const std::vector<char>& expected,
                                 const std::string& dir,
                                 Clock::time_point epoch);

}  // namespace kbt::perfbench

#endif  // KBT_PERFBENCH_LADDER_H_
