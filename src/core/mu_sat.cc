#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
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

constexpr int8_t kOld = kAtomOld;
constexpr int8_t kDefaultTrue = kAtomDefaultTrue;
constexpr int8_t kUnit = kAtomUnit;
constexpr int8_t kUnitTrue = kAtomUnitTrue;

/// The CDCL enumeration engine. μ of a conjunction of atom-disjoint
/// components is the product of the components' minimal-model sets
/// (exec/cnf_cache.h), so the enumerator answers a component the default
/// world satisfies at once, every other one from the memo, and runs the
/// search only on a miss: it forks the component's frozen
/// prefix into one solver, where the minimization descent pushes
/// activation-guarded constraints and the enumeration pushes blocking
/// clauses into the same clause arena, and nothing is ground or encoded
/// twice.
///
/// The world is an overlay of the delta base's extended base (for a plain
/// call, the identity overlay of the extended db), and everything the
/// enumerator reads of it comes from that delta: its default bytes are the
/// base's (EntryDefaults, once per call and entry) patched at the atoms the
/// delta names, the circuit is re-evaluated on the cone of those atoms, and
/// each product model's overlay is the world's overlay edited at the model's
/// deviations. Per-world tables and loop scratch live in a WorldScratch — the
/// executor's per-worker pool when provided, a local one otherwise — so
/// consecutive worlds on one worker reuse warm buffers. A provided scratch
/// also holds the worker's τ-call entry and its private memo view, so a world
/// whose entry and component models the worker has seen takes no lock and
/// writes no reference count that a concurrent session reading the same
/// bank entry also writes.
class SatEnumerator {
 public:
  SatEnumerator(WorldDeltaBase& delta, const WorldOverlay& world,
                const std::vector<Value>& domain, const MuOptions& options,
                MuStats* stats, const MuExecContext& exec)
      : delta_(delta),
        world_(world),
        domain_(domain),
        options_(options),
        stats_(stats),
        exec_(exec),
        s_(exec.scratch != nullptr ? *exec.scratch : own_scratch_.emplace()) {}

  /// Enumerates μ(sentence ∧ literals, world); `literals` are ground literals
  /// (logic/analysis.h), empty unless τ split its sentence.
  StatusOr<Knowledgebase> Run(const Formula& sentence,
                              const std::vector<Formula>& literals) {
    const Database& base = *delta_.ext_base();
    GrounderOptions gopts;
    gopts.max_nodes = options_.max_ground_nodes;
    // The grounding and its Tseitin encoding are a pure function of
    // (φ, domain): worlds sharing an active domain reuse one immutable
    // circuit (and its mentioned-var set, borrowed below), one frozen prefix
    // per component and the model memo. A plain Mu() call brings no cache and
    // builds its prefixes in one that lives for the call — whose memo no
    // later call can read, so that call neither keys nor stores models.
    std::optional<exec::CnfCache> call_cache;
    exec::CnfCache* cnf_cache = exec_.cnf_cache;
    if (cnf_cache == nullptr) cnf_cache = &call_cache.emplace();
    const bool memoize = exec_.cnf_cache != nullptr;
    std::shared_ptr<const exec::FrozenCnf> looked_up;
    const std::shared_ptr<const exec::FrozenCnf>* entry = &looked_up;
    if (memoize && exec_.call_entry) {
      // One lookup per run of worlds with this domain and cache in the τ
      // call; each later world reuses the entry and counts as the hit its
      // own lookup would have been.
      if (s_.entry != nullptr && s_.entry_cache == cnf_cache &&
          s_.entry_domain == domain_) {
        ++s_.entry_hits;
      } else {
        s_.entry.reset();
        bool hit = false;
        StatusOr<std::shared_ptr<const exec::FrozenCnf>> got =
            cnf_cache->GetOrBuild(sentence, domain_, gopts, exec_.ground_cache,
                                  &hit);
        ++(hit ? s_.entry_hits : s_.entry_misses);
        KBT_RETURN_IF_ERROR(got.status());
        s_.entry_cache = cnf_cache;
        s_.entry_domain = domain_;
        s_.entry = *std::move(got);
      }
      entry = &s_.entry;
    } else {
      KBT_ASSIGN_OR_RETURN(
          looked_up,
          cnf_cache->GetOrBuild(sentence, domain_, gopts, exec_.ground_cache));
    }
    const std::shared_ptr<const exec::FrozenCnf>& frozen = *entry;
    frozen_ = frozen.get();
    grounding_ = &frozen->grounding;
    mentioned_ = &frozen->grounding->mentioned;
    stats_->ground_nodes = frozen->grounding->grounding.circuit.size();
    if (frozen->components.empty()) {
      return Knowledgebase(base.schema());  // Root ⊥: no models at all.
    }

    // A worker-pool solver is reused across worlds: the frozen-fork overwrite
    // keeps its allocated arena and watcher capacity but restores the exact
    // target state, so each enumeration is bit-identical to one over a new
    // Solver.
    solver_ = exec_.solver != nullptr ? exec_.solver : &own_solver_.emplace();
    stats_->ground_atoms = mentioned_->size();
    // A literal on an atom the grounding mentions is a unit of that atom's
    // component. Any other atom is independent of the sentence, so every
    // minimal model takes the literal's value there — the same flip in every
    // candidate, which leaves the Winslett order alone — and it is written
    // into each model's overlay below.
    KBT_ASSIGN_OR_RETURN(std::shared_ptr<const EntryDefaults> defaults,
                         delta_.Defaults(frozen, literals));
    if (defaults->contradictory) return Knowledgebase(base.schema());
    stats_->ground_atoms += defaults->free_atoms.size();
    // Per-request limits are armed on each fork (InitFromFrozen clears them)
    // and disarmed when Run unwinds: the solver may be a session solver that
    // outlives this request's (stack-allocated) token.
    struct LimitsGuard {
      Solver* s;
      ~LimitsGuard() { s->ClearLimits(); }
    } limits_guard{solver_};
    unit_atoms_ = &defaults->unit_atoms;

    // The default world's circuit values seed a search's gate phases and
    // show which components the default world already satisfies. Such a
    // component — unless a literal unit moves one of its atoms off its
    // default — has the default as its one minimal model (it deviates on
    // nothing, so it is ≤_db every model), and contributes no deviation.
    LoadDefaults(defaults);
    s_.value.resize(s_.atom_state.size());
    const size_t k = frozen->components.size();
    s_.component_moved.assign(k, 0);
    for (int a : *unit_atoms_) {
      const int8_t state = s_.atom_state[static_cast<size_t>(a)];
      if (((state & kUnitTrue) != 0) != ((state & kDefaultTrue) != 0)) {
        s_.component_moved[static_cast<size_t>(
            frozen->atom_component[static_cast<size_t>(a)])] = 1;
      }
    }
    // Every other component's models: from the worker's memo view, the
    // entry's shared memo, or enumerated and stored in both. A component
    // without models empties μ at once. One that overflows max_models fails
    // the call unless a later component has no models. A view needs a
    // scratch that outlives this world; a hit in it takes no lock and no
    // shared reference count.
    exec::MemoView* view =
        memoize && exec_.scratch != nullptr ? &s_.memo_view : nullptr;
    if (view != nullptr) view->Open(frozen);
    s_.held_models.clear();
    auto keep = [&](std::shared_ptr<const exec::ComponentModels> found) {
      const exec::ComponentModels* models = found.get();
      if (view != nullptr) view->Insert(s_.memo_key, found);
      s_.held_models.push_back(std::move(found));
      return models;
    };
    std::vector<const exec::ComponentModels*>& models = s_.models;
    models.clear();
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
      const exec::ComponentModels* found = nullptr;
      if (memoize) {
        // Key: the component's index, then one state byte per atom.
        std::string& key = s_.memo_key;
        const uint32_t index = static_cast<uint32_t>(c);
        key.assign(reinterpret_cast<const char*>(&index), sizeof(index));
        for (int a : component.atoms) {
          key.push_back(
              static_cast<char>(s_.atom_state[static_cast<size_t>(a)]));
        }
        if (view != nullptr) found = view->Find(key);
        if (found == nullptr) {
          std::shared_ptr<const exec::ComponentModels> shared =
              frozen->memo.Find(key);
          if (shared != nullptr) found = keep(std::move(shared));
        }
      }
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
        if (memoize) frozen->memo.Insert(s_.memo_key, *enumerated);
        found = keep(*std::move(enumerated));
      }
      if (found->size() == 0) return Knowledgebase(base.schema());
      models.push_back(found);
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

    // The product, odometer order: model n picks pick[c] in the c-th searched
    // component and deviates from the default world on the union of the
    // picks' deviations — each one the atom's default flipped — and on the
    // free literals the world disagrees with. Its overlay is the world's,
    // edited there.
    std::vector<TupleEdit>& free_edits = s_.free_edits;
    free_edits.clear();
    for (const EntryDefaults::FreeAtom& atom : defaults->free_atoms) {
      TupleView t(atom.tuple);
      if (world_.Holds(base, atom.pos, t) != atom.value) {
        free_edits.push_back({atom.pos, t, atom.value});
      }
    }
    const size_t parts = models.size();
    std::vector<uint32_t>& pick = s_.pick;
    pick.assign(parts, 0);
    std::vector<TupleEdit>& edits = s_.edits;
    std::vector<WorldOverlay> overlays;
    overlays.reserve(total);
    for (size_t n = 0; n < total; ++n) {
      edits.assign(free_edits.begin(), free_edits.end());
      for (size_t c = 0; c < parts; ++c) {
        auto [begin, end] = models[c]->Model(pick[c]);
        for (const int* a = begin; a != end; ++a) {
          const exec::FrozenCnf::AtomSlot& slot =
              frozen->atom_slots[static_cast<size_t>(*a)];
          edits.push_back({defaults->relation_pos[slot.relation], slot.tuple,
                           !DefaultOf(*a)});
        }
      }
      std::sort(edits.begin(), edits.end(),
                [](const TupleEdit& x, const TupleEdit& y) {
                  return x.pos != y.pos ? x.pos < y.pos : x.tuple < y.tuple;
                });
      overlays.push_back(world_.WithEdits(base, edits));
      for (size_t c = 0; c < parts && ++pick[c] == models[c]->size(); ++c) {
        pick[c] = 0;
      }
    }
    return Knowledgebase::FromBaseAndOverlays(delta_.ext_base(),
                                              std::move(overlays));
  }

 private:
  /// Loads the world's default bytes into s_.atom_state and evaluates the
  /// circuit under them into s_.node_value. When the scratch already holds
  /// this base's bytes (the previous world on this worker was of the same
  /// call and entry), only the previous and the current world's patches
  /// change, and only their cone is re-evaluated; bit-identical to the full
  /// walk.
  void LoadDefaults(const std::shared_ptr<const EntryDefaults>& defaults) {
    const Grounding& g = (*grounding_)->grounding;
    std::vector<int8_t>& state = s_.atom_state;
    std::vector<int>& dirty = s_.dirty_atoms;
    const bool evaluated = s_.defaults_valid &&
                           s_.eval_owner.get() == grounding_->get() &&
                           state.size() == g.atoms.size() &&
                           s_.node_value.size() == g.circuit.size();
    const bool same_base = evaluated && s_.state_owner == defaults;
    // Invalid until both are consistent again.
    s_.defaults_valid = false;
    dirty.clear();
    if (same_base) {
      for (int a : s_.patched) {
        state[static_cast<size_t>(a)] =
            defaults->atom_state[static_cast<size_t>(a)];
        dirty.push_back(a);
      }
    } else {
      if (evaluated) {
        for (int a : *mentioned_) {
          const size_t i = static_cast<size_t>(a);
          if (((state[i] ^ defaults->atom_state[i]) & kDefaultTrue) != 0) {
            dirty.push_back(a);
          }
        }
      }
      state = defaults->atom_state;
    }
    s_.patched.clear();
    PatchWorldDefaults(*frozen_, *delta_.ext_base(), world_, &state,
                       &s_.patched);
    dirty.insert(dirty.end(), s_.patched.begin(), s_.patched.end());
    auto default_of = [&](int atom_id) {
      return (state[static_cast<size_t>(atom_id)] & kDefaultTrue) != 0;
    };
    if (evaluated) {
      g.circuit.ReevaluateInto(dirty, default_of, (*grounding_)->users,
                               &s_.node_value, &s_.eval_heap);
    } else {
      g.circuit.EvaluateAllInto(g.root, default_of, &s_.node_value);
    }
    // Reassigned only on a change: the grounding is shared with every other
    // session reading the entry, and its reference count with them.
    if (s_.eval_owner != *grounding_) s_.eval_owner = *grounding_;
    if (s_.state_owner != defaults) s_.state_owner = defaults;
    s_.defaults_valid = true;
  }

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
    for (int a : *unit_atoms_) {
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
    // LoadDefaults), so the first probe's decisions on gate variables
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
  bool DefaultOf(int a) {
    return (s_.atom_state[static_cast<size_t>(a)] & kDefaultTrue) != 0;
  }

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

  WorldDeltaBase& delta_;
  const WorldOverlay& world_;
  const std::vector<Value>& domain_;
  const MuOptions& options_;
  MuStats* stats_;
  const MuExecContext& exec_;

  /// Fallback solver, built only when the executor supplies none.
  std::optional<Solver> own_solver_;
  /// The solver in use: exec_.solver (forked per component) or own_solver_.
  Solver* solver_ = nullptr;
  /// The encoded grounding, held alive by Run.
  const exec::FrozenCnf* frozen_ = nullptr;
  const std::shared_ptr<const exec::CachedGrounding>* grounding_ = nullptr;
  /// Borrowed from the CachedGrounding.
  const std::vector<int>* mentioned_ = nullptr;
  /// Borrowed from the EntryDefaults.
  const std::vector<int>* unit_atoms_ = nullptr;
  /// Atoms of the component being enumerated.
  const std::vector<int>* component_atoms_ = nullptr;
  /// Fallback scratch, built only when the executor supplies none (plain
  /// Mu() calls).
  std::optional<exec::WorldScratch> own_scratch_;
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

/// Runs the enumerator on the split core when τ split the sentence.
StatusOr<Knowledgebase> RunSat(const Formula& sentence, WorldDeltaBase& delta,
                               const WorldOverlay& world,
                               const std::vector<Value>& domain,
                               const MuOptions& options, MuStats* stats,
                               const MuExecContext& exec) {
  SatEnumerator enumerator(delta, world, domain, options, stats, exec);
  if (exec.split != nullptr) {
    return enumerator.Run(exec.split->core, exec.split->literals);
  }
  static const std::vector<Formula> kNoLiterals;
  return enumerator.Run(sentence, kNoLiterals);
}

}  // namespace

StatusOr<std::shared_ptr<const EntryDefaults>> MakeEntryDefaults(
    std::shared_ptr<const exec::FrozenCnf> entry, const Database& ext_base,
    size_t old_relations, const std::vector<Formula>& literals) {
  auto out = std::make_shared<EntryDefaults>();
  const exec::FrozenCnf& frozen = *entry;
  const Grounding& g = frozen.grounding->grounding;
  const Schema& schema = ext_base.schema();
  out->entry = std::move(entry);
  out->atom_state.assign(g.atoms.size(), 0);
  std::vector<Value> args;
  for (const Formula& literal : literals) {
    const bool positive = literal->kind() == FormulaKind::kAtom;
    const Formula& atom = positive ? literal : literal->children()[0];
    args.clear();
    for (const Term& t : atom->terms()) args.push_back(t.symbol);
    TupleView tuple(args.data(), args.size());
    const int id = g.atoms.Find(atom->relation(), tuple);
    if (id >= 0 && frozen.atom_component[static_cast<size_t>(id)] >= 0) {
      int8_t& state = out->atom_state[static_cast<size_t>(id)];
      const int8_t unit = positive ? kUnit | kUnitTrue : kUnit;
      if (state != 0 && state != unit) {
        out->contradictory = true;
        return std::shared_ptr<const EntryDefaults>(std::move(out));
      }
      state = unit;
      out->unit_atoms.push_back(id);
      continue;
    }
    std::optional<size_t> pos = schema.PositionOf(atom->relation());
    if (!pos) {
      return Status::NotFound("relation not in schema: " +
                              NameOf(atom->relation()));
    }
    auto same = std::find_if(
        out->free_atoms.begin(), out->free_atoms.end(),
        [&](const EntryDefaults::FreeAtom& f) {
          return f.pos == *pos && TupleView(f.tuple) == tuple;
        });
    if (same == out->free_atoms.end()) {
      out->free_atoms.push_back(
          {static_cast<uint32_t>(*pos), tuple.ToTuple(), positive});
    } else if (same->value != positive) {
      out->contradictory = true;
      return std::shared_ptr<const EntryDefaults>(std::move(out));
    }
  }
  std::sort(out->free_atoms.begin(), out->free_atoms.end(),
            [](const EntryDefaults::FreeAtom& x, const EntryDefaults::FreeAtom& y) {
              return x.pos != y.pos ? x.pos < y.pos
                                    : TupleView(x.tuple) < TupleView(y.tuple);
            });
  for (Symbol relation : frozen.relations) {
    std::optional<size_t> pos = schema.PositionOf(relation);
    if (!pos) {
      return Status::NotFound("relation not in schema: " + NameOf(relation));
    }
    out->relation_pos.push_back(static_cast<uint32_t>(*pos));
  }
  for (int atom_id : frozen.grounding->mentioned) {
    const exec::FrozenCnf::AtomSlot& slot =
        frozen.atom_slots[static_cast<size_t>(atom_id)];
    const size_t pos = out->relation_pos[slot.relation];
    const bool is_old = pos < old_relations;
    const bool default_true =
        is_old && ext_base.relation_at(pos).Contains(slot.tuple);
    out->atom_state[static_cast<size_t>(atom_id)] |= static_cast<int8_t>(
        (is_old ? kOld : 0) | (default_true ? kDefaultTrue : 0));
  }
  return std::shared_ptr<const EntryDefaults>(std::move(out));
}

void PatchWorldDefaults(const exec::FrozenCnf& entry, const Database& ext_base,
                        const WorldOverlay& overlay,
                        std::vector<int8_t>* atom_state,
                        std::vector<int>* patched) {
  const AtomIndex& atoms = entry.grounding->grounding.atoms;
  auto set = [&](Symbol relation, TupleView t, bool value) {
    const int id = atoms.Find(relation, t);
    if (id < 0 || static_cast<size_t>(id) >= entry.atom_component.size() ||
        entry.atom_component[static_cast<size_t>(id)] < 0) {
      return;
    }
    int8_t& state = (*atom_state)[static_cast<size_t>(id)];
    state = static_cast<int8_t>(value ? state | kDefaultTrue
                                      : state & ~kDefaultTrue);
    patched->push_back(id);
  };
  for (const RelationDelta& d : overlay.deltas()) {
    const Symbol relation = ext_base.schema().decl(d.pos).symbol;
    for (TupleView t : d.adds) set(relation, t, true);
    for (TupleView t : d.dels) set(relation, t, false);
  }
}

StatusOr<std::shared_ptr<const EntryDefaults>> WorldDeltaBase::Defaults(
    const std::shared_ptr<const exec::FrozenCnf>& entry,
    const std::vector<Formula>& literals) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::shared_ptr<const EntryDefaults>& d : built_) {
    if (d->entry == entry) return d;
  }
  KBT_ASSIGN_OR_RETURN(
      std::shared_ptr<const EntryDefaults> d,
      MakeEntryDefaults(entry, *ext_base_, old_relations_, literals));
  built_.push_back(d);
  return d;
}

StatusOr<Knowledgebase> MuSat(const Formula& sentence, const Database& db,
                              const UpdateContext& ctx, const MuOptions& options,
                              MuStats* stats, const MuExecContext& exec) {
  // A materialized world is the whole base of a one-world delta step: its
  // overlay is the identity and its defaults are built for this call.
  WorldDeltaBase delta(std::make_shared<const Database>(ctx.extended_base),
                       db.schema().size());
  return RunSat(sentence, delta, WorldOverlay(), ctx.domain, options, stats,
                exec);
}

StatusOr<Knowledgebase> MuSatWorld(const Formula& sentence,
                                   const WorldOverlay& world,
                                   const MuOptions& options, MuStats* stats,
                                   const MuExecContext& exec) {
  if (options.cancel != nullptr && options.cancel->Expired()) {
    return Status::DeadlineExceeded("μ cancelled before evaluation");
  }
  MuStats local;
  MuStats* out = stats != nullptr ? stats : &local;
  out->used = MuStrategy::kSat;
  std::vector<Value> own_domain;
  std::vector<Value>& domain =
      exec.scratch != nullptr ? exec.scratch->domain : own_domain;
  domain.clear();
  std::set_union(exec.active_domain->begin(), exec.active_domain->end(),
                 exec.formula_constants->begin(),
                 exec.formula_constants->end(), std::back_inserter(domain));
  return RunSat(sentence, *exec.delta, world, domain, options, out, exec);
}

}  // namespace kbt::internal
