#include "core/tau.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/mu_internal.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/analysis.h"
#include "rel/overlay.h"
#include "sat/solver.h"

namespace kbt {

namespace {

/// Whether φ = core ∧ literals has the core's own domain on a world with
/// active domain `adom`: every constant the literals name lies in
/// adom ∪ consts(core).
bool LiteralsInCoreDomain(const GroundLiteralSplit& split,
                          const std::vector<Value>& adom) {
  if (split.literal_only_constants.empty()) return true;
  return std::includes(adom.begin(), adom.end(),
                       split.literal_only_constants.begin(),
                       split.literal_only_constants.end());
}

/// Merges the per-world μ results into the final kb.
///
/// The merge never flattens: every output world becomes an overlay of one
/// shared base — the input base extended to σ(kb) ∪ σ(φ) — and a single
/// canonicalization over those overlays, O(worlds × delta), replaces a flat
/// union. A delta-step result is anchored at that base already. Any other
/// μ result is anchored at its own input world extended, which is the input
/// overlay applied to the shared extended base (schema union appends
/// declarations, so input overlay positions survive extension unchanged), so
/// its overlays compose with the input overlay in O(delta); any other anchor
/// falls back to an explicit diff.
StatusOr<Knowledgebase> MergeTauResults(
    const Knowledgebase& kb, const std::shared_ptr<const Database>& ext_base,
    std::vector<Knowledgebase> results, const Knowledgebase::ParallelMap* pmap,
    TauStats* out) {
  size_t total = 0;
  for (const Knowledgebase& r : results) total += r.size();
  std::vector<WorldOverlay> merged;
  merged.reserve(total);
  for (size_t i = 0; i < results.size(); ++i) {
    const Knowledgebase& r = results[i];
    if (r.empty()) continue;
    if (r.schema() != ext_base->schema()) {
      return Status::InvalidArgument("knowledgebase union: schema mismatch");
    }
    if (r.base() == ext_base) {
      merged.insert(merged.end(), r.overlays().begin(), r.overlays().end());
      continue;
    }
    const WorldOverlay& input_ov = kb.overlays()[i];
    bool rebased = r.base() != nullptr &&
                   input_ov.ApplyEquals(*ext_base, *r.base());
    for (size_t j = 0; j < r.size(); ++j) {
      merged.push_back(rebased
                           ? WorldOverlay::Compose(input_ov, r.overlays()[j])
                           : WorldOverlay::FromDiff(*ext_base, r.World(j)));
    }
  }
  if (merged.empty()) {
    out->output_databases = 0;
    return Knowledgebase(ext_base->schema());
  }
  KBT_ASSIGN_OR_RETURN(
      Knowledgebase out_kb,
      Knowledgebase::FromBaseAndOverlays(ext_base, std::move(merged), pmap));
  out->output_databases = out_kb.size();
  return out_kb;
}

/// kb's base extended to `schema`: the base every output world of τ is an
/// overlay of.
StatusOr<std::shared_ptr<const Database>> ExtendedBase(const Knowledgebase& kb,
                                                       const Schema& schema) {
  KBT_ASSIGN_OR_RETURN(Database extended, kb.base()->ExtendTo(schema));
  return std::make_shared<const Database>(std::move(extended));
}

/// What Tau's merge needs from the per-world loop: the extended schema and the
/// pool the worlds ran on (borrowed, or spawned for the call and owned here).
struct WorldLoop {
  Schema extended_schema;
  /// The input base extended to extended_schema, when the delta step built
  /// it (null otherwise).
  std::shared_ptr<const Database> ext_base;
  exec::ThreadPool* pool = nullptr;
  std::unique_ptr<exec::ThreadPool> own_pool;
};

/// The per-world loop behind Tau and internal::ForEachTauWorld (see tau.h).
/// On failure the lowest-indexed recorded error wins; with threads=1 that is
/// exactly the sequential first-failure behavior, with threads>1 it is the
/// first failure the executor observed (later worlds are skipped, not
/// run-and-discarded).
StatusOr<bool> RunWorldLoop(const Formula& sentence,
                            const GroundLiteralSplit* split,
                            const Knowledgebase& kb, const TauOptions& options,
                            TauStats* out, const internal::TauVisit& visit,
                            WorldLoop* loop) {
  out->input_databases = kb.size();

  // The extended schema σ(kb) ∪ σ(φ) depends only on the shared input schema,
  // so one probe context resolves it up front (an empty kb keeps it too).
  Database probe(kb.schema());
  {
    KBT_ASSIGN_OR_RETURN(UpdateContext ctx, MakeUpdateContext(sentence, probe));
    loop->extended_schema = std::move(ctx.schema);
  }
  if (kb.empty()) return false;

  // One cache pair per τ call — or the caller's persistent pair (a serving
  // loop re-querying one sentence across snapshots): the sentence is fixed, so
  // the key is the active domain alone. Worlds with equal domains ground once
  // (GroundingCache) and, on the SAT path, Tseitin-encode once (CnfCache —
  // per-world solvers fork from the frozen prefix).
  exec::GroundingCache local_ground_cache;
  exec::CnfCache local_cnf_cache;
  exec::GroundingCache* cache = options.ground_cache != nullptr
                                    ? options.ground_cache
                                    : &local_ground_cache;
  exec::CnfCache* cnf_cache =
      options.cnf_cache != nullptr ? options.cnf_cache : &local_cnf_cache;
  // Stats report this call's contribution: an external grounding cache
  // arrives warm (and may be advanced concurrently by sibling calls), so
  // snapshot and diff. CNF lookups are counted exactly, per worker, in the
  // scratches' entry slots.
  exec::GroundingCache::Stats ground_stats_before = cache->stats();
  internal::MuExecContext base_exec;
  base_exec.call_entry = true;
  // The probe context above validated (φ, schema); per-world update contexts
  // reuse its schema and φ's constants instead of re-deriving both per world.
  std::vector<Value> formula_constants = ConstantsOf(sentence);
  base_exec.extended_schema = &loop->extended_schema;
  base_exec.formula_constants = &formula_constants;
  base_exec.split = split;
  base_exec.ground_cache = cache;
  // A singleton kb's one world cannot share the entry with another world, so
  // it leaves τ's cache (and its hit/miss counts) alone and builds its
  // prefixes in μ's call-local cache — unless the cache outlives this call.
  if (kb.size() > 1 || options.cnf_cache != nullptr) {
    base_exec.cnf_cache = cnf_cache;
  }

  // Strategy planning depends only on (φ, schema) and all worlds share one
  // schema: resolve the kAuto dispatch once here instead of once per world.
  internal::TauStrategyPlan plan;
  if (options.mu.strategy == MuStrategy::kAuto) {
    KBT_ASSIGN_OR_RETURN(plan, internal::PlanTauStrategies(sentence, probe));
    base_exec.plan = &plan;
  }
  // Worlds on the SAT strategy take the delta step: μ/SAT reads each world
  // as its overlay of the shared base and never materializes it. The other
  // strategies read the whole database, so they get the materialized world.
  const bool delta_step =
      options.mu.strategy == MuStrategy::kSat ||
      (options.mu.strategy == MuStrategy::kAuto && !plan.sentence_is_ground &&
       plan.datalog == nullptr && plan.definitional == nullptr);
  std::optional<internal::WorldDeltaBase> delta;
  if (delta_step) {
    KBT_ASSIGN_OR_RETURN(loop->ext_base,
                         ExtendedBase(kb, loop->extended_schema));
    base_exec.delta = &delta.emplace(loop->ext_base, kb.schema().size());
  }
  // Each world's active domain comes from the base's value counts and its
  // overlay.
  const internal::BaseValueCounts counts(*kb.base());

  std::vector<Status> statuses(kb.size());
  std::vector<MuStats> world_stats(kb.size());
  std::vector<char> ran(kb.size(), 0);

  // After the first failure, or a visit that asks to stop, no further world
  // starts a μ computation — its result would be discarded.
  std::atomic<bool> stop{false};
  auto run_world = [&](size_t i, internal::MuExecContext exec) {
    if (stop.load(std::memory_order_relaxed)) return;
    ran[i] = 1;
    // Graceful degradation: one world failing — by Status or by throwing —
    // lands in its own result slot and fails the call, never the process.
    // Sibling worlds already running complete normally.
    Status s = [&]() -> Status {
      try {
        const WorldOverlay& overlay = kb.overlays()[i];
        // One active domain per world serves the split check and μ.
        std::vector<Value>& adom = exec.scratch->active_domain;
        counts.WorldDomain(overlay, &exec.scratch->value_changes, &adom);
        exec.active_domain = &adom;
        // Keeps the caller's caches to the core's own domains (TauExec).
        if (exec.split != nullptr && !LiteralsInCoreDomain(*exec.split, adom)) {
          exec.ground_cache = &local_ground_cache;
          exec.cnf_cache = exec.cnf_cache ? &local_cnf_cache : nullptr;
        }
        // Otherwise the world is materialized transiently from the shared
        // base — a copy-on-write overlay application, never a stored copy.
        KBT_ASSIGN_OR_RETURN(
            Knowledgebase r,
            delta_step ? internal::MuSatWorld(sentence, overlay, options.mu,
                                              &world_stats[i], exec)
                       : internal::MuExec(sentence, kb.World(i), options.mu,
                                          &world_stats[i], exec));
        KBT_ASSIGN_OR_RETURN(bool done, visit(i, std::move(r)));
        if (done) stop.store(true, std::memory_order_relaxed);
        return Status::OK();
      } catch (const std::exception& e) {
        return Status::Internal(std::string("world task threw: ") + e.what());
      } catch (...) {
        return Status::Internal("world task threw a non-standard exception");
      }
    }();
    if (!s.ok()) {
      statuses[i] = std::move(s);
      stop.store(true, std::memory_order_relaxed);
    }
  };

  size_t threads = options.threads != 0
                       ? options.threads
                       : std::max<size_t>(1, std::thread::hardware_concurrency());
  threads = std::min(threads, kb.size());

  if (threads <= 1) {
    // Sequential path: same per-world calls, same merge — the parallel path is
    // bit-identical because results land in per-world slots either way. A
    // session-pinned solver/scratch (serving reads) replaces the per-call
    // locals, which are built only when missing, so arena capacity and
    // enumerator buffers stay warm across calls.
    std::optional<sat::Solver> local_solver;
    std::optional<exec::WorldScratch> local_scratch;
    internal::MuExecContext exec = base_exec;
    exec.solver = options.solver != nullptr ? options.solver
                                            : &local_solver.emplace();
    exec.scratch = options.scratch != nullptr ? options.scratch
                                              : &local_scratch.emplace();
    exec.scratch->ForgetEntry();
    for (size_t i = 0; i < kb.size() && !stop.load(std::memory_order_relaxed);
         ++i) {
      run_world(i, exec);
    }
    out->cnf_cache_hits = exec.scratch->entry_hits;
    out->cnf_cache_misses = exec.scratch->entry_misses;
    out->threads_used = 1;
  } else {
    // Each worker owns a Solver reused (via Reset or a frozen-prefix fork)
    // across every world it executes — the PR 2 incremental machinery
    // instantiated per thread — plus a WorldScratch holding the enumerator's
    // per-world tables, so small worlds stop paying per-world allocation. The
    // pool is the caller's persistent one when provided (a serving loop
    // re-entering Pipeline::Apply should not respawn threads per call),
    // otherwise spawned for this call.
    loop->pool = options.pool;
    if (loop->pool == nullptr) {
      loop->own_pool = std::make_unique<exec::ThreadPool>(threads);
      loop->pool = loop->own_pool.get();
    }
    size_t workers = loop->pool->workers();
    std::vector<std::unique_ptr<sat::Solver>> solvers;
    std::vector<std::unique_ptr<exec::WorldScratch>> scratches;
    solvers.reserve(workers);
    scratches.reserve(workers);
    for (size_t t = 0; t < workers; ++t) {
      solvers.push_back(std::make_unique<sat::Solver>());
      scratches.push_back(std::make_unique<exec::WorldScratch>());
    }
    Status pool_status =
        loop->pool->ParallelFor(kb.size(), [&](size_t i, size_t worker) {
          internal::MuExecContext exec = base_exec;
          exec.solver = solvers[worker].get();
          exec.scratch = scratches[worker].get();
          run_world(i, exec);
        });
    // run_world contains exceptions in per-world slots, so a pool-level error
    // means the dispatch machinery itself failed; surface it unless a world
    // already recorded a more specific one.
    if (!pool_status.ok() &&
        std::all_of(statuses.begin(), statuses.end(),
                    [](const Status& s) { return s.ok(); })) {
      return pool_status;
    }
    out->cnf_cache_hits = 0;
    out->cnf_cache_misses = 0;
    for (const std::unique_ptr<exec::WorldScratch>& scratch : scratches) {
      out->cnf_cache_hits += scratch->entry_hits;
      out->cnf_cache_misses += scratch->entry_misses;
    }
    out->threads_used = std::min(workers, kb.size());
  }

  exec::GroundingCache::Stats cache_stats = cache->stats();
  out->ground_cache_hits = cache_stats.hits - ground_stats_before.hits;
  out->ground_cache_misses = cache_stats.misses - ground_stats_before.misses;
  // Split worlds moved onto the local cache above (unused otherwise).
  if (cache != &local_ground_cache) {
    out->ground_cache_hits += local_ground_cache.stats().hits;
    out->ground_cache_misses += local_ground_cache.stats().misses;
  }

  for (const Status& s : statuses) KBT_RETURN_IF_ERROR(s);
  // μ counters merge in world order, independent of execution interleaving.
  for (size_t i = 0; i < kb.size(); ++i) {
    if (ran[i]) out->mu.MergeFrom(world_stats[i]);
  }
  return stop.load(std::memory_order_relaxed);
}

}  // namespace

internal::BaseValueCounts::BaseValueCounts(const Database& base) {
  std::vector<Value> all;
  for (const Relation& r : base.relations()) r.CollectValues(&all);
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size();) {
    size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    values_.push_back(all[i]);
    counts_.push_back(static_cast<uint32_t>(j - i));
    i = j;
  }
}

void internal::BaseValueCounts::WorldDomain(
    const WorldOverlay& overlay, std::vector<std::pair<Value, int>>* changes,
    std::vector<Value>* out) const {
  changes->clear();
  for (const RelationDelta& d : overlay.deltas()) {
    for (Value v : d.adds.flat()) changes->emplace_back(v, 1);
    for (Value v : d.dels.flat()) changes->emplace_back(v, -1);
  }
  std::sort(changes->begin(), changes->end());
  out->clear();
  size_t b = 0;
  for (size_t c = 0; c < changes->size();) {
    const Value v = (*changes)[c].first;
    int net = 0;
    for (; c < changes->size() && (*changes)[c].first == v; ++c) {
      net += (*changes)[c].second;
    }
    for (; b < values_.size() && values_[b] < v; ++b) {
      out->push_back(values_[b]);
    }
    const bool in_base = b < values_.size() && values_[b] == v;
    const int64_t count = (in_base ? int64_t{counts_[b]} : 0) + net;
    if (in_base) ++b;
    if (count > 0) out->push_back(v);
  }
  out->insert(out->end(), values_.begin() + static_cast<std::ptrdiff_t>(b),
              values_.end());
}

StatusOr<bool> internal::ForEachTauWorld(const Formula& sentence,
                                         const GroundLiteralSplit* split,
                                         const Knowledgebase& kb,
                                         const TauOptions& options,
                                         TauStats* stats, const TauVisit& visit) {
  TauStats local;
  WorldLoop loop;
  return RunWorldLoop(sentence, split, kb, options,
                      stats != nullptr ? stats : &local, visit, &loop);
}

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const TauOptions& options, TauStats* stats) {
  return internal::TauExec(sentence, nullptr, kb, options, stats);
}

StatusOr<Knowledgebase> internal::TauExec(const Formula& sentence,
                                          const GroundLiteralSplit* split,
                                          const Knowledgebase& kb,
                                          const TauOptions& options,
                                          TauStats* stats) {
  TauStats local;
  TauStats* out = stats != nullptr ? stats : &local;
  std::vector<Knowledgebase> results(kb.size());
  WorldLoop loop;
  auto collect = [&](size_t i, Knowledgebase r) -> StatusOr<bool> {
    results[i] = std::move(r);
    return false;
  };
  KBT_RETURN_IF_ERROR(
      RunWorldLoop(sentence, split, kb, options, out, collect, &loop).status());
  if (kb.empty()) {
    out->output_databases = 0;
    return Knowledgebase(loop.extended_schema);
  }
  // The merge reuses the loop's pool to hash result overlays in parallel
  // during canonicalization.
  Knowledgebase::ParallelMap pmap;
  if (loop.pool != nullptr) {
    pmap = [pool = loop.pool](size_t n, const std::function<void(size_t)>& fn) {
      return pool->ParallelFor(n, [&fn](size_t i, size_t) { fn(i); });
    };
  }
  if (loop.ext_base == nullptr) {
    KBT_ASSIGN_OR_RETURN(loop.ext_base,
                         ExtendedBase(kb, loop.extended_schema));
  }
  return MergeTauResults(kb, loop.ext_base, std::move(results),
                         loop.pool != nullptr ? &pmap : nullptr, out);
}

StatusOr<Knowledgebase> Tau(const Formula& sentence, const Knowledgebase& kb,
                            const MuOptions& options, TauStats* stats) {
  TauOptions tau_options;
  tau_options.mu = options;
  return Tau(sentence, kb, tau_options, stats);
}

}  // namespace kbt
