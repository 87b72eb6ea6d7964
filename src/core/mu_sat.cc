#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>

#include "core/mu_internal.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/scratch.h"
#include "logic/grounder.h"
#include "sat/solver.h"

namespace kbt::internal {

namespace {

using sat::Lit;
using sat::MkLit;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

/// One enumerated minimal model of a component, as its deviations from the
/// default world. Later descent fixpoints are re-validated against these
/// (blocked models are invisible to the solver).
struct FoundModel {
  std::vector<int> flipped_old;  ///< Component old atoms deviating from db.
  std::vector<int> true_new;     ///< Component new atoms set to true.
};

/// m <_db c (Definition 2.1) for two models of one component that agree
/// everywhere else: stage 1 compares the old-atom flip sets by inclusion,
/// stage 2 — on equal flip sets — the new-atom true sets. Both lists are
/// sorted by atom id.
bool StrictlyCloser(const FoundModel& m, const FoundModel& c) {
  auto strict_subset = [](const std::vector<int>& a, const std::vector<int>& b) {
    return a.size() < b.size() &&
           std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  if (m.flipped_old != c.flipped_old) {
    return strict_subset(m.flipped_old, c.flipped_old);
  }
  return strict_subset(m.true_new, c.true_new);
}

/// Per-atom memo-key byte (exec::ModelMemo): the atom's old/new flag and
/// default value, and the ground-literal unit on it, if any.
constexpr int8_t kOld = 1;
constexpr int8_t kDefaultTrue = 2;
constexpr int8_t kUnit = 4;
constexpr int8_t kUnitTrue = 8;

/// The μ/SAT enumerator parks its materializer — and thereby the group/merge
/// buffers inside it — in the per-worker WorldScratch between worlds.
struct MaterializerSlot : exec::WorldScratch::Attachment {
  ModelMaterializer materializer;
};

/// The CDCL enumeration engine. μ of a conjunction of atom-disjoint
/// components is the product of the components' minimal-model sets
/// (exec/cnf_cache.h), so the enumerator answers a component the default
/// world satisfies at once, every other one from the memo, and runs the
/// search only on a miss: it forks the component's frozen
/// prefix into one solver, where the minimization descent pushes
/// activation-guarded constraints and the enumeration pushes blocking
/// clauses into the same clause arena, and nothing is ground or encoded
/// twice. Per-world tables and loop scratch live in a WorldScratch — the
/// executor's per-worker pool when provided, a local one otherwise — so
/// consecutive worlds on one worker reuse warm buffers instead of
/// reallocating ~15 vectors per world.
class SatEnumerator {
 public:
  SatEnumerator(const Database& db, const UpdateContext& ctx,
                const MuOptions& options, MuStats* stats,
                const MuExecContext& exec)
      : db_(db),
        ctx_(ctx),
        options_(options),
        stats_(stats),
        exec_(exec),
        s_(exec.scratch != nullptr ? *exec.scratch : own_scratch_) {}

  /// Enumerates μ(sentence ∧ literals, db); `literals` are ground literals
  /// (logic/analysis.h), empty unless τ split its sentence.
  StatusOr<Knowledgebase> Run(const Formula& sentence,
                              const std::vector<Formula>& literals) {
    GrounderOptions gopts;
    gopts.max_nodes = options_.max_ground_nodes;
    // The grounding and its Tseitin encoding are a pure function of
    // (φ, domain): worlds sharing an active domain reuse one immutable
    // circuit (and its mentioned-var set, borrowed below), one frozen prefix
    // per component and the model memo; only the per-world defaults are
    // recomputed. A plain Mu() call brings no cache and builds its prefixes
    // in one that lives for the call.
    exec::CnfCache call_cache;
    exec::CnfCache* cnf_cache =
        exec_.cnf_cache != nullptr ? exec_.cnf_cache : &call_cache;
    KBT_ASSIGN_OR_RETURN(
        std::shared_ptr<const exec::FrozenCnf> frozen,
        cnf_cache->GetOrBuild(sentence, ctx_.domain, gopts, exec_.ground_cache));
    frozen_ = frozen.get();
    grounding_ = &frozen->grounding;
    const Grounding* g = &frozen->grounding->grounding;
    mentioned_ = &frozen->grounding->mentioned;
    stats_->ground_nodes = g->circuit.size();
    atoms_ = &g->atoms;
    if (frozen->components.empty()) {
      return Knowledgebase(ctx_.schema);  // Root ⊥: no models at all.
    }

    // A worker-pool solver is reused across worlds: the frozen-fork overwrite
    // keeps its allocated arena and watcher capacity but restores the exact
    // target state, so each enumeration is bit-identical to one over a new
    // Solver.
    solver_ = exec_.solver != nullptr ? exec_.solver : &own_solver_;
    stats_->ground_atoms = mentioned_->size();
    s_.atom_state.assign(g->atoms.size(), 0);
    // A literal on an atom the grounding mentions is a unit of that atom's
    // component. Any other atom is independent of the sentence, so every
    // minimal model takes the literal's value there — the same flip in every
    // candidate, which leaves the Winslett order alone — and it is written
    // into each model's overlay after the enumeration.
    AtomIndex free_atoms;
    std::vector<char> free_value;
    s_.unit_atoms.clear();
    for (const Formula& literal : literals) {
      const bool positive = literal->kind() == FormulaKind::kAtom;
      const Formula& atom = positive ? literal : literal->children()[0];
      std::vector<Value> args;
      for (const Term& t : atom->terms()) args.push_back(t.symbol);
      GroundAtom ground{atom->relation(), Tuple(std::move(args))};
      int id = g->atoms.Find(ground);
      if (id >= 0 && frozen->atom_component[static_cast<size_t>(id)] >= 0) {
        int8_t& state = s_.atom_state[static_cast<size_t>(id)];
        const int8_t unit = positive ? kUnit | kUnitTrue : kUnit;
        if (state != 0 && state != unit) return Knowledgebase(ctx_.schema);
        state = unit;
        s_.unit_atoms.push_back(id);
        continue;
      }
      size_t free_id = static_cast<size_t>(free_atoms.IdOf(ground));
      if (free_id == free_value.size()) free_value.push_back(positive);
      if (free_value[free_id] != positive) return Knowledgebase(ctx_.schema);
    }
    stats_->ground_atoms += free_atoms.size();
    // Per-request limits are armed on each fork (InitFromFrozen clears them)
    // and disarmed when Run unwinds: the solver may be a session solver that
    // outlives this request's (stack-allocated) token.
    struct LimitsGuard {
      Solver* s;
      ~LimitsGuard() { s->ClearLimits(); }
    } limits_guard{solver_};
    s_.default_value.assign(g->atoms.size(), 0);
    s_.value.assign(g->atoms.size(), 0);
    for (int atom_id : *mentioned_) {
      const GroundAtom& atom = g->atoms.AtomOf(atom_id);
      bool is_old = IsOldAtom(atom, db_);
      const Relation* r = ctx_.extended_base.FindRelation(atom.relation);
      if (r == nullptr) {
        return Status::NotFound("relation not in schema: " +
                                NameOf(atom.relation));
      }
      const bool default_true = is_old && r->Contains(atom.tuple);
      s_.default_value[static_cast<size_t>(atom_id)] = default_true;
      s_.atom_state[static_cast<size_t>(atom_id)] |=
          static_cast<int8_t>((is_old ? kOld : 0) |
                              (default_true ? kDefaultTrue : 0));
    }

    // The default world's circuit values seed a search's gate phases and
    // show which components the default world already satisfies. Such a
    // component — unless a literal unit moves one of its atoms off its
    // default — has the default as its one minimal model (it deviates on
    // nothing, so it is ≤_db every model), and contributes no deviation.
    EvaluateDefaults();
    const size_t k = frozen->components.size();
    s_.component_moved.assign(k, 0);
    for (int a : s_.unit_atoms) {
      const int8_t state = s_.atom_state[static_cast<size_t>(a)];
      if (((state & kUnitTrue) != 0) != ((state & kDefaultTrue) != 0)) {
        s_.component_moved[static_cast<size_t>(
            frozen->atom_component[static_cast<size_t>(a)])] = 1;
      }
    }
    // Every other component's models: from the memo, or enumerated and
    // stored. A component without models empties μ at once. One that
    // overflows max_models fails the call unless a later component has no
    // models.
    std::vector<std::shared_ptr<const exec::ComponentModels>> models;
    Status overflow;
    for (size_t c = 0; c < k; ++c) {
      const exec::CnfComponent& component = frozen->components[c];
      if (s_.component_moved[c] == 0 &&
          std::all_of(component.conjuncts.begin(), component.conjuncts.end(),
                      [&](int node) {
                        return s_.node_value[static_cast<size_t>(node)] == 2;
                      })) {
        continue;
      }
      // Key: the component's index, then one state byte per atom.
      std::string& key = s_.memo_key;
      const uint32_t index = static_cast<uint32_t>(c);
      key.assign(reinterpret_cast<const char*>(&index), sizeof(index));
      for (int a : component.atoms) {
        key.push_back(static_cast<char>(s_.atom_state[static_cast<size_t>(a)]));
      }
      std::shared_ptr<const exec::ComponentModels> found =
          frozen->memo.Find(key);
      if (found == nullptr) {
        StatusOr<std::shared_ptr<const exec::ComponentModels>> enumerated =
            Enumerate(static_cast<int>(c));
        if (!enumerated.ok()) {
          if (enumerated.status().code() != StatusCode::kResourceExhausted) {
            return enumerated.status();
          }
          overflow = enumerated.status();
          continue;
        }
        found = *std::move(enumerated);
        frozen->memo.Insert(key, found);
      }
      if (found->size() == 0) return Knowledgebase(ctx_.schema);
      models.push_back(std::move(found));
    }
    KBT_RETURN_IF_ERROR(overflow);
    size_t total = 1;
    for (const auto& m : models) {
      if (m->size() > options_.max_models / total) {
        return Status::ResourceExhausted("μ produced more than " +
                                         std::to_string(options_.max_models) +
                                         " minimal models");
      }
      total *= m->size();
    }
    stats_->minimal_models = total;

    WorldOverlay free_overlay;
    if (free_atoms.size() > 0) {
      std::vector<int> free_ids(free_atoms.size());
      std::iota(free_ids.begin(), free_ids.end(), 0);
      KBT_ASSIGN_OR_RETURN(
          free_overlay,
          MaterializeOverlayModel(ctx_, free_atoms, free_ids, [&](int id) {
            return free_value[static_cast<size_t>(id)] != 0;
          }));
    }
    // The product, odometer order: model n picks pick[c] in the c-th searched
    // component and deviates from the default world on the union of the
    // picks' deviations.
    s_.value = s_.default_value;
    std::function<bool(int)> value_fn = [&](int a) {
      return s_.value[static_cast<size_t>(a)] != 0;
    };
    const size_t parts = models.size();
    auto toggle = [&](const std::vector<uint32_t>& pick) {
      for (size_t c = 0; c < parts; ++c) {
        auto [begin, end] = models[c]->Model(pick[c]);
        for (const int* a = begin; a != end; ++a) {
          s_.value[static_cast<size_t>(*a)] ^= 1;
        }
      }
    };
    std::vector<uint32_t> pick(parts, 0);
    std::vector<WorldOverlay> overlays;
    overlays.reserve(total);
    for (size_t n = 0; n < total; ++n) {
      toggle(pick);
      StatusOr<WorldOverlay> overlay = MaterializeProductModel(n, value_fn);
      toggle(pick);
      KBT_RETURN_IF_ERROR(overlay.status());
      overlays.push_back(free_overlay.identity()
                             ? *std::move(overlay)
                             : WorldOverlay::Compose(*overlay, free_overlay));
      for (size_t c = 0; c < parts && ++pick[c] == models[c]->size(); ++c) {
        pick[c] = 0;
      }
    }
    return Knowledgebase::FromBaseAndOverlays(
        std::make_shared<const Database>(ctx_.extended_base),
        std::move(overlays));
  }

 private:
  /// Enumerates component `c`'s minimal models under this world's defaults
  /// and units on a fork of its frozen prefix. Only a complete enumeration
  /// returns; a deadline, budget or max_models trip returns its status.
  StatusOr<std::shared_ptr<const exec::ComponentModels>> Enumerate(int c) {
    const exec::CnfComponent& component =
        frozen_->components[static_cast<size_t>(c)];
    solver_->InitFromFrozen(component.prefix);
    fork_stats_ = solver_->stats();
    struct ChargeGuard {
      SatEnumerator* e;
      ~ChargeGuard() { e->ChargeFork(); }
    } charge_guard{this};
    component_atoms_ = &component.atoms;
    auto out = std::make_shared<exec::ComponentModels>();

    s_.clause_lits.clear();
    for (int a : s_.unit_atoms) {
      if (frozen_->atom_component[static_cast<size_t>(a)] != c) continue;
      s_.clause_lits.push_back(ValueLit(
          a, (s_.atom_state[static_cast<size_t>(a)] & kUnitTrue) != 0));
    }
    if (!s_.clause_lits.empty() &&
        !solver_->AssertUnitsAtRoot(s_.clause_lits)) {
      return std::shared_ptr<const exec::ComponentModels>(std::move(out));
    }
    if (options_.cancel != nullptr || options_.sat_conflict_budget != 0) {
      solver_->SetInterrupt(options_.cancel);
      if (options_.sat_conflict_budget != 0) {
        // The budget covers the whole μ call, across components.
        if (conflicts_spent_ >= options_.sat_conflict_budget) {
          return DeadlineStatus();
        }
        solver_->SetBudget(options_.sat_conflict_budget - conflicts_spent_, 0);
      }
    }
    s_.old_atoms.clear();
    s_.new_atoms.clear();
    s_.retired_acts.clear();
    for (int a : component.atoms) {
      const bool is_old = (s_.atom_state[static_cast<size_t>(a)] & kOld) != 0;
      (is_old ? s_.old_atoms : s_.new_atoms).push_back(a);
    }

    // Branch toward the default world first — atoms *and* Tseitin gates. The
    // gate phases are each node's value under the default assignment (Run's
    // EvaluateDefaults), so the first probe's decisions on gate variables
    // steer the same direction as the atoms below them instead of forcing
    // arbitrary subcircuit values; first models start near the Winslett
    // minimum and descents are short. Later solves re-seed only the atoms
    // (SeedDefaultPhases), gates then following their saved model phases.
    for (const auto& [node, lit] : component.node_lits) {
      int8_t value = s_.node_value[static_cast<size_t>(node)];
      if (value == 0) continue;
      solver_->SetPhase(sat::VarOf(lit), (value == 2) != sat::IsNegated(lit));
    }

    std::vector<FoundModel> minimal;
    while (true) {
      // Each enumeration probe starts from the default phases too: the next
      // unblocked model found is near-minimal, keeping its descent short.
      SeedDefaultPhases();
      FlushRetiredGuards();
      SolveResult probe = Solve(no_assumptions_);
      if (probe == SolveResult::kUnknown) return DeadlineStatus();
      if (probe == SolveResult::kUnsat) break;
      KBT_ASSIGN_OR_RETURN(FoundModel candidate, Descend());
      // The descent fixpoint is minimal unless a previously reported minimal
      // model (now blocked, hence invisible) lies strictly below it.
      bool dominated = std::any_of(
          minimal.begin(), minimal.end(),
          [&](const FoundModel& m) { return StrictlyCloser(m, candidate); });
      bool exhausted = BlockAbove(candidate);
      if (!dominated) minimal.push_back(std::move(candidate));
      if (exhausted) break;
      if (minimal.size() > options_.max_models) {
        return Status::ResourceExhausted("μ produced more than " +
                                         std::to_string(options_.max_models) +
                                         " minimal models");
      }
    }
    for (const FoundModel& m : minimal) {
      out->deviations.insert(out->deviations.end(), m.flipped_old.begin(),
                             m.flipped_old.end());
      out->deviations.insert(out->deviations.end(), m.true_new.begin(),
                             m.true_new.end());
      out->ends.push_back(static_cast<uint32_t>(out->deviations.size()));
    }
    return std::shared_ptr<const exec::ComponentModels>(std::move(out));
  }

  /// Adds the SAT work done on the current fork since the last charge to
  /// stats_: forks restart the solver's counters, so μ sums them.
  void ChargeFork() {
    const Solver::Stats& now = solver_->stats();
    stats_->sat_solve_calls += now.solve_calls - fork_stats_.solve_calls;
    stats_->sat_conflicts += now.conflicts - fork_stats_.conflicts;
    stats_->sat_decisions += now.decisions - fork_stats_.decisions;
    stats_->sat_reused_levels +=
        now.reused_assumption_levels - fork_stats_.reused_assumption_levels;
    stats_->sat_saved_propagations +=
        now.saved_propagations - fork_stats_.saved_propagations;
    stats_->sat_interrupt_checks +=
        now.interrupt_checks - fork_stats_.interrupt_checks;
    stats_->sat_budget_trips += now.budget_trips - fork_stats_.budget_trips;
    conflicts_spent_ += now.conflicts - fork_stats_.conflicts;
    fork_stats_ = now;
  }

  /// Evaluates the circuit under this world's defaults into s_.node_value.
  /// Incremental when the previous evaluation on this worker was of the same
  /// grounding (patching the changed-default cone is bit-identical to the
  /// full walk).
  void EvaluateDefaults() {
    const Grounding& g = (*grounding_)->grounding;
    auto default_of = [&](int atom_id) {
      return s_.default_value[static_cast<size_t>(atom_id)] != 0;
    };
    const bool warm_eval = s_.eval_owner.get() == grounding_->get() &&
                           s_.prev_default.size() == g.atoms.size() &&
                           s_.node_value.size() == g.circuit.size();
    if (warm_eval) {
      s_.dirty_atoms.clear();
      for (int atom_id : *mentioned_) {
        size_t a = static_cast<size_t>(atom_id);
        if (s_.default_value[a] != s_.prev_default[a]) {
          s_.dirty_atoms.push_back(atom_id);
        }
      }
      g.circuit.ReevaluateInto(s_.dirty_atoms, default_of, (*grounding_)->users,
                               &s_.node_value, &s_.eval_heap);
    } else {
      g.circuit.EvaluateAllInto(g.root, default_of, &s_.node_value);
    }
    s_.prev_default = s_.default_value;
    s_.eval_owner = *grounding_;
  }

  /// Materializes product model number `n` (the assignment `value_fn`) as an
  /// overlay against ctx.extended_base. Lazy: the first model goes through
  /// the specification-shaped MaterializeOverlayModel, and the group/tuple-
  /// order precomputation is only paid once a second model proves the run is
  /// a real enumeration — rebuilt in the scratch-parked materializer with
  /// warm buffers. Both paths are O(delta), no base copy.
  StatusOr<WorldOverlay> MaterializeProductModel(
      size_t n, const std::function<bool(int)>& value_fn) {
    if (n == 0) {
      return MaterializeOverlayModel(ctx_, *atoms_, *mentioned_, value_fn);
    }
    auto* slot = dynamic_cast<MaterializerSlot*>(s_.attachment.get());
    if (slot == nullptr) {
      s_.attachment = std::make_unique<MaterializerSlot>();
      slot = static_cast<MaterializerSlot*>(s_.attachment.get());
    }
    if (n == 1) {
      KBT_RETURN_IF_ERROR(slot->materializer.Rebuild(ctx_, *atoms_, *mentioned_));
    }
    return slot->materializer.MaterializeOverlay(value_fn);
  }

  /// Blocks the candidate and everything ≥_db it. Since the candidate is strictly
  /// above some reported minimal model whenever it is not itself minimal, every
  /// member of its up-set is safely non-minimal (or the candidate itself), so this
  /// is sound for dominated fixpoints too. Two constructs:
  ///
  ///  (a) flips(M) ⊋ flips(c) ⟹ c <_db M by stage 1, regardless of new atoms:
  ///      one clause per old atom b ∉ flips(c):  (⋁_{a∈flips(c)} keep(a)) ∨ keep(b);
  ///  (b) flips(M) ⊇ flips(c) ∧ newtrue(M) ⊇ newtrue(c) ⟹ c ≤_db M:
  ///      the cone clause (⋁_{a∈flips(c)} keep(a)) ∨ (⋁_{n∈newtrue(c)} ¬n).
  ///
  /// Returns true when the whole space is now blocked (the candidate was the
  /// global minimum), letting the caller stop immediately.
  bool BlockAbove(const FoundModel& candidate) {
    std::vector<Lit>& clause = s_.clause_lits;
    std::vector<Lit>& core = s_.core_lits;
    core.clear();
    for (int a : candidate.flipped_old) core.push_back(KeepLit(a));
    // (a) Forbid strict flip supersets.
    if (core.empty()) {
      // flips(c) = ∅: every construct-(a) clause degenerates to the unit
      // keep(b), so assert them as one batch of root facts — one propagation
      // round instead of |old_atoms| clause insertions. Same fixpoint, ~20%
      // of the delta-workload runtime on PR 7's profile.
      clause.clear();
      for (int b : s_.old_atoms) clause.push_back(KeepLit(b));
      solver_->AssertUnitsAtRoot(clause);
    } else {
      for (int b : s_.old_atoms) {
        if (std::binary_search(candidate.flipped_old.begin(),
                               candidate.flipped_old.end(), b)) {
          continue;
        }
        clause.assign(core.begin(), core.end());
        clause.push_back(KeepLit(b));
        solver_->AddClause(clause);
      }
    }
    // (b) The cone clause.
    clause.assign(core.begin(), core.end());
    for (int n : candidate.true_new) {
      clause.push_back(MkLit(AtomVar(n), /*negated=*/true));
    }
    if (clause.empty()) return true;  // Candidate is the global minimum.
    solver_->AddClause(clause);
    return false;
  }

  Var AtomVar(int a) { return frozen_->atom_var[static_cast<size_t>(a)]; }
  bool DefaultOf(int a) { return s_.default_value[static_cast<size_t>(a)] != 0; }

  /// Literal asserting atom `a` has its default value.
  Lit KeepLit(int a) { return MkLit(AtomVar(a), /*negated=*/!DefaultOf(a)); }
  /// Literal asserting atom `a` equals `value`.
  Lit ValueLit(int a, bool value) { return MkLit(AtomVar(a), !value); }

  bool ModelValueOf(int a) { return solver_->ModelValue(AtomVar(a)); }

  SolveResult Solve(const std::vector<Lit>& assumptions) {
    SolveResult r = solver_->Solve(assumptions);
    if (r == SolveResult::kSat) ++stats_->candidates_examined;
    return r;
  }

  /// The kUnknown unwind: the solver already backtracked to a usable root
  /// (AbortSolve); μ reports the abandoned request as a deadline error.
  Status DeadlineStatus() const {
    return Status::DeadlineExceeded(
        options_.cancel != nullptr && options_.cancel->Expired()
            ? "μ cancelled during SAT search"
            : "μ SAT conflict budget exhausted");
  }

  void SnapshotModel() {
    for (int a : *component_atoms_) {
      s_.value[static_cast<size_t>(a)] = ModelValueOf(a) ? 1 : 0;
    }
  }

  /// Re-seeds every component atom's branching phase toward its default value.
  /// Phase saving drags later solves toward the previous model; before each
  /// descent/enumeration solve we point the search back at the Winslett
  /// minimum instead, so one refinement step reverts many deviations at once
  /// rather than one per solve. Gate variables keep their saved phases — after
  /// the first model those are consistent gate values, and re-biasing them
  /// toward the (φ-violating) default world was measured to lengthen probes.
  /// Which fixpoint a descent reaches may differ, but μ enumerates *all*
  /// minimal models either way — the result set (and hence τ) is unchanged,
  /// only the number of solver calls drops. (Phases of atoms assigned at
  /// retained assumption levels are dead until those levels are undone.)
  void SeedDefaultPhases() {
    for (int a : *component_atoms_) {
      solver_->SetPhase(AtomVar(a), DefaultOf(a));
    }
  }

  /// Retires a descent guard. Asserting ¬act right away would add a unit — a
  /// root fact that surrenders the whole retained assumption trail — so the
  /// unit is deferred until the next enumeration probe (which starts from
  /// level 0 regardless); meanwhile the activation variable is biased false so
  /// the dead guard cannot force its keeps.
  void RetireGuard(Var act) {
    s_.retired_acts.push_back(act);
    solver_->SetPhase(act, false);
  }

  /// Flushes deferred guard retirements.
  void FlushRetiredGuards() {
    for (Var act : s_.retired_acts) {
      solver_->AddClause({MkLit(act, true)});
    }
    s_.retired_acts.clear();
  }

  /// Two-stage greedy descent from the solver's current model to a ≤_db fixpoint.
  /// Each refinement step adds one activation-guarded clause (retired afterwards
  /// by asserting ¬act, see RetireGuard) to the live solver — no re-grounding,
  /// no re-encoding, and no per-step containers beyond the reused scratch
  /// buffers.
  ///
  /// The per-step assumption vectors are ordered canonically — atom pins in
  /// the stable old_atoms/new_atoms order first, the (always-fresh) activation
  /// literal last — so consecutive solves share a maximal assumption prefix
  /// and the solver's trail saving re-enqueues only the delta: stage 2
  /// re-propagates its |old| pins exactly once across all its steps.
  StatusOr<FoundModel> Descend() {
    SnapshotModel();
    auto val = [&](int a) { return s_.value[static_cast<size_t>(a)] != 0; };

    std::vector<int>& deviating = s_.deviating;
    std::vector<Lit>& guard = s_.clause_lits;
    std::vector<Lit>& assumptions = s_.assumption_lits;

    // Stage 1: shrink the old-atom flip set until no model has a strictly smaller
    // one. Pinning every unflipped atom keeps Δ(M') ⊆ Δ(M) componentwise; the
    // activation-guarded clause forces at least one flip to revert.
    while (true) {
      deviating.clear();
      for (int a : s_.old_atoms) {
        if (val(a) != DefaultOf(a)) deviating.push_back(a);
      }
      if (deviating.empty()) break;
      Var act = solver_->NewVar();
      guard.clear();
      guard.push_back(MkLit(act, true));
      for (int a : deviating) guard.push_back(KeepLit(a));
      solver_->AddClause(guard);
      assumptions.clear();
      for (int a : s_.old_atoms) {
        if (val(a) == DefaultOf(a)) assumptions.push_back(KeepLit(a));
      }
      assumptions.push_back(MkLit(act));
      SeedDefaultPhases();
      SolveResult r = Solve(assumptions);
      RetireGuard(act);
      if (r == SolveResult::kUnknown) return DeadlineStatus();
      if (r == SolveResult::kUnsat) break;
      SnapshotModel();
    }

    // Stage 2: with the Δ-vector fixed (old atoms fully pinned), shrink the
    // true set of new atoms.
    while (true) {
      deviating.clear();
      for (int a : s_.new_atoms) {
        if (val(a)) deviating.push_back(a);
      }
      if (deviating.empty()) break;
      Var act = solver_->NewVar();
      guard.clear();
      guard.push_back(MkLit(act, true));
      for (int a : deviating) guard.push_back(ValueLit(a, false));
      solver_->AddClause(guard);
      assumptions.clear();
      for (int a : s_.old_atoms) assumptions.push_back(ValueLit(a, val(a)));
      for (int a : s_.new_atoms) {
        if (!val(a)) assumptions.push_back(ValueLit(a, false));
      }
      assumptions.push_back(MkLit(act));
      SeedDefaultPhases();
      SolveResult r = Solve(assumptions);
      RetireGuard(act);
      if (r == SolveResult::kUnknown) return DeadlineStatus();
      if (r == SolveResult::kUnsat) break;
      SnapshotModel();
    }

    // The descent is over: the retained assumption trail has no next solve to
    // serve (what follows is BlockAbove's clause burst and an assumption-free
    // probe), so surrender it now and let those AddClauses take the level-0
    // fast path instead of trail-aware placement.
    solver_->BacktrackToRoot();

    FoundModel out;
    for (int a : s_.old_atoms) {
      if (val(a) != DefaultOf(a)) out.flipped_old.push_back(a);
    }
    for (int a : s_.new_atoms) {
      if (val(a)) out.true_new.push_back(a);
    }
    return out;
  }

  const Database& db_;
  const UpdateContext& ctx_;
  const MuOptions& options_;
  MuStats* stats_;
  const MuExecContext& exec_;

  /// Fallback solver when the executor supplies none.
  Solver own_solver_;
  /// The solver in use: exec_.solver (forked per component) or &own_solver_.
  Solver* solver_ = nullptr;
  /// The encoded grounding, held alive by Run.
  const exec::FrozenCnf* frozen_ = nullptr;
  const std::shared_ptr<const exec::CachedGrounding>* grounding_ = nullptr;
  const AtomIndex* atoms_ = nullptr;
  /// Borrowed from the CachedGrounding.
  const std::vector<int>* mentioned_ = nullptr;
  /// Atoms of the component being enumerated.
  const std::vector<int>* component_atoms_ = nullptr;
  /// Fallback scratch when the executor supplies none (plain Mu() calls).
  exec::WorldScratch own_scratch_;
  /// Per-world tables and loop scratch: exec_.scratch (worker-pooled) or
  /// own_scratch_.
  exec::WorldScratch& s_;
  /// Solver counters at the last ChargeFork (or fork).
  Solver::Stats fork_stats_;
  /// Conflicts spent by this call's forks so far (the conflict budget's
  /// meter).
  uint64_t conflicts_spent_ = 0;
  const std::vector<Lit> no_assumptions_;
};

}  // namespace

StatusOr<Knowledgebase> MuSat(const Formula& sentence, const Database& db,
                              const UpdateContext& ctx, const MuOptions& options,
                              MuStats* stats, const MuExecContext& exec) {
  SatEnumerator enumerator(db, ctx, options, stats, exec);
  if (exec.split != nullptr) {
    return enumerator.Run(exec.split->core, exec.split->literals);
  }
  return enumerator.Run(sentence, {});
}

}  // namespace kbt::internal
