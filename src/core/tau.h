#ifndef KBT_CORE_TAU_H_
#define KBT_CORE_TAU_H_

/// \file
/// τ_φ(kb) — eq. (10): the update operator. "Inserts" the sentence φ into a
/// knowledgebase by replacing each member db with the φ-models closest to it,
/// μ(φ, db), and unioning the results. Theorem 2.1 shows τ satisfies the
/// Katsuno–Mendelzon update postulates; tests/tau_postulates_test.cc re-verifies
/// them on randomized inputs against this implementation.
///
/// The member updates are independent, so τ runs on the exec/ subsystem: worlds
/// are partitioned into stealable chunks over a work-stealing thread pool, each
/// worker owns a reusable Solver, and worlds with identical active domains share
/// one grounded circuit through a domain-keyed cache — and, on the SAT path of
/// a kb with two or more worlds, one frozen Tseitin-encoded CNF prefix that
/// per-world solvers fork from instead of replaying AddClause
/// (exec/cnf_cache.h). threads = 1 (the default) is the plain sequential loop;
/// every thread count produces the same canonical Knowledgebase bit for bit,
/// equal to the union of plain per-world μ calls (tests/tau_parallel_test.cc).

#include <functional>
#include <utility>
#include <vector>

#include "base/status.h"
#include "core/mu.h"
#include "logic/analysis.h"
#include "rel/knowledgebase.h"

namespace kbt::exec {
class CnfCache;
class GroundingCache;
class ThreadPool;
struct WorldScratch;
}  // namespace kbt::exec

namespace kbt::sat {
class Solver;
}  // namespace kbt::sat

namespace kbt {

struct TauOptions {
  /// Options for the per-world μ calls. Cancellation rides here too: set
  /// `mu.cancel` (and optionally `mu.sat_conflict_budget`) and every world's
  /// μ honors it — an expired token fails the τ call with kDeadlineExceeded
  /// before the next world starts and mid-search inside the SAT descent.
  MuOptions mu;
  /// Worker threads for the world fan-out. 1 = sequential in the calling
  /// thread; 0 = one per hardware thread.
  size_t threads = 1;
  /// Borrowed persistent worker pool. When set (and the resolved thread count
  /// is > 1), τ fans out on this pool instead of spawning one per call — the
  /// serving-loop configuration Engine sets up; see EngineOptions. Must outlive
  /// the call; per-call worker state is still τ's own.
  exec::ThreadPool* pool = nullptr;
  /// Borrowed external caches (serve/cache_bank.h). When set, τ reads and
  /// fills these instead of its per-call locals, so *consecutive calls* with
  /// the same sentence share groundings and frozen CNF prefixes — the serving
  /// batcher's ride on the caches. Both key by active domain alone: a cache
  /// must only ever see one sentence (a split's core, for TauExec), which the
  /// cache bank enforces by keying entries on canonical sentence text. With an
  /// external cnf_cache the prefix/fork path is taken even for singleton kbs (amortized across calls
  /// rather than across worlds). TauStats report this call's delta only.
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
  /// Borrowed session-pinned solver + scratch, used by the sequential path
  /// (resolved thread count 1, the serving read shape): consecutive τ calls
  /// keep the solver's arena capacity and the enumerator's buffers warm
  /// instead of reallocating per call. Ignored by the parallel path, whose
  /// workers own pooled solvers. Must outlive the call; a solver/scratch pair
  /// belongs to one session thread at a time.
  sat::Solver* solver = nullptr;
  exec::WorldScratch* scratch = nullptr;
};

struct TauStats {
  /// Sizes before and after.
  size_t input_databases = 0;
  size_t output_databases = 0;
  /// Aggregated μ counters (merged in world order, independent of execution
  /// interleaving).
  MuStats mu;
  /// Worker threads actually used (1 for the sequential path).
  size_t threads_used = 1;
  /// Domain-keyed grounding cache counters (0/0 when no world took a
  /// grounding strategy).
  uint64_t ground_cache_hits = 0;
  uint64_t ground_cache_misses = 0;
  /// Frozen-CNF-prefix cache counters (0/0 for a singleton kb without an
  /// external cnf_cache, or when no world took the SAT strategy). A hit is one
  /// world's Tseitin encoding replaced by a bulk solver fork.
  uint64_t cnf_cache_hits = 0;
  uint64_t cnf_cache_misses = 0;
};

/// Computes τ_φ(kb). All members of `kb` share a schema, so every μ call works over
/// the same extended schema s = σ(kb) ∪ σ(φ) and the union is well-formed. An empty
/// kb stays empty (over s).
StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const TauOptions& options, TauStats* stats = nullptr);

/// Sequential-default convenience overload (μ options only).
StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const MuOptions& options = MuOptions(),
                            TauStats* stats = nullptr);

namespace internal {

/// Tau with `split` (nullable) = `sentence` read as core ∧ ground literals
/// (SplitGroundLiterals): the SAT strategy grounds and encodes only the core
/// — through options.ground_cache/cnf_cache, which must then hold the core —
/// and adds the literals on top; all else comes from `sentence`, and the
/// result equals Tau(sentence, kb). A world where a literal names a constant
/// outside adom(world) ∪ consts(core) uses per-call caches instead, so the
/// options' caches only hold domains a read of the core alone would add.
StatusOr<Knowledgebase> TauExec(const Formula& sentence,
                                const GroundLiteralSplit* split,
                                const Knowledgebase& kb,
                                const TauOptions& options, TauStats* stats);

/// The value occurrences of a τ call's shared input base, counted once per
/// call. A world's active domain follows from them and its overlay alone:
/// adds are disjoint from the base and dels contained in it, so a value's
/// occurrences in the world are its base count plus its occurrences in the
/// adds minus those in the dels. O(delta + |adom|) per world instead of a
/// scan of the materialized world.
class BaseValueCounts {
 public:
  explicit BaseValueCounts(const Database& base);

  /// Writes the active domain of the world `overlay` denotes over the
  /// counted base to `out` (sorted, distinct), equal to
  /// overlay.ApplyTo(base).ActiveDomain(). `changes` is scratch.
  void WorldDomain(const WorldOverlay& overlay,
                   std::vector<std::pair<Value, int>>* changes,
                   std::vector<Value>* out) const;

 private:
  std::vector<Value> values_;     ///< Distinct base values, sorted.
  std::vector<uint32_t> counts_;  ///< Occurrences of values_[i] in the base.
};

/// τ's per-world loop without the merge: hands μ(φ, db) for each member db
/// of `kb` (by world index, over σ(kb) ∪ σ(φ)) to `visit` on the thread that
/// computed it. A visit returning true stops the loop — no world starts after
/// it; worlds already running finish and are visited — and the call returns
/// whether one did, or the lowest-indexed world's error. `stats` is filled as
/// by Tau, except output_databases, for exactly the worlds that ran. `split`
/// is as for TauExec.
using TauVisit = std::function<StatusOr<bool>(size_t world, Knowledgebase mu)>;
StatusOr<bool> ForEachTauWorld(const Formula& sentence,
                               const GroundLiteralSplit* split,
                               const Knowledgebase& kb,
                               const TauOptions& options, TauStats* stats,
                               const TauVisit& visit);

}  // namespace internal

}  // namespace kbt

#endif  // KBT_CORE_TAU_H_
