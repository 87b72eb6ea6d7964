#ifndef KBT_CORE_MU_INTERNAL_H_
#define KBT_CORE_MU_INTERNAL_H_

/// \file
/// Internal interfaces between the μ dispatcher and its strategies. Not part of the
/// public API.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/mu.h"
#include "core/universe.h"
#include "datalog/ast.h"
#include "logic/analysis.h"
#include "logic/circuit.h"
#include "logic/ground_atom.h"
#include "logic/grounder.h"
#include "rel/overlay.h"

namespace kbt::exec {
struct CachedGrounding;
struct FrozenCnf;
class CnfCache;
class GroundingCache;
struct WorldScratch;
}  // namespace kbt::exec

namespace kbt::sat {
class Solver;
}  // namespace kbt::sat

namespace kbt::internal {

struct DatalogPlan;
struct DefinitionalPlan;
class WorldDeltaBase;

/// kAuto strategy dispatch, resolved once per τ call. PlanDatalog and
/// PlanDefinitional read the database only through its schema, and all members
/// of a knowledgebase share one schema — so τ plans against any one world and
/// every other world reuses the result instead of re-deriving it (the per-world
/// re-planning PR 3 left behind). Built by PlanTauStrategies; only consulted
/// when MuOptions::strategy == kAuto.
struct TauStrategyPlan {
  /// IsGround(φ): try the Theorem 4.7 reference path first (its
  /// kResourceExhausted fallback to SAT stays per-world — it depends on the
  /// grounding size, not on the plan).
  bool sentence_is_ground = false;
  /// Engaged when the Datalog fast path applies to (φ, schema).
  std::shared_ptr<const DatalogPlan> datalog;
  /// Engaged when the definitional fast path applies to (φ, schema).
  std::shared_ptr<const DefinitionalPlan> definitional;
};

/// Resources the τ executor threads through μ: caches shared by all worlds of
/// one τ call (grounding and frozen-CNF-prefix, both keyed by active domain),
/// a per-worker solver that is Reset/forked and reused across worlds instead
/// of constructed per call, a per-worker WorldScratch holding the enumerator's
/// buffers, and the once-per-call strategy plan. All are optional; plain Mu()
/// passes none. The struct is copied freely — it only borrows.
struct MuExecContext {
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
  sat::Solver* solver = nullptr;
  exec::WorldScratch* scratch = nullptr;
  const TauStrategyPlan* plan = nullptr;
  /// Sentence-derived UpdateContext pieces hoisted out of the per-world loop:
  /// σ(kb) ∪ σ(φ) and the constants of φ are fixed across a τ call (one shared
  /// input schema), so each world's MakeUpdateContext reduces to its
  /// db-dependent parts. Both set, or both null. The τ executor's probe
  /// context performs the validation these skip.
  const Schema* extended_schema = nullptr;
  const std::vector<Value>* formula_constants = nullptr;
  /// db.ActiveDomain() of the world being updated, when the τ executor has
  /// already derived it (from its overlay, for the split check too); null →
  /// μ computes it. Only read alongside the two fields above.
  const std::vector<Value>* active_domain = nullptr;
  /// φ split as core ∧ ground literals (logic/analysis.h), with the caches
  /// above holding the *core*: the SAT strategy grounds and encodes the core
  /// and adds the literals on top; every other strategy evaluates φ without
  /// the caches. Schema, constants and plan still come from φ (see TauExec).
  const GroundLiteralSplit* split = nullptr;
  /// The τ call's delta base: its shared input base extended to
  /// σ(kb) ∪ σ(φ), of which every world is an overlay. MuSatWorld updates a
  /// world through it without materializing the world; null outside τ.
  WorldDeltaBase* delta = nullptr;
  /// Set by τ's world loop, which empties scratch's entry slot at the start
  /// of the call (WorldScratch::ForgetEntry): μ/SAT then looks its CNF entry
  /// up once per run of worlds with one domain and cache, reuses it for the
  /// rest, and counts every world's lookup (reuses as hits) in the slot.
  bool call_entry = false;
};

/// Resolves the kAuto dispatch of `sentence` against the schema of `probe`
/// (any member of the τ call's knowledgebase — the planners only read the
/// schema).
StatusOr<TauStrategyPlan> PlanTauStrategies(const Formula& sentence,
                                            const Database& probe);

/// The strategy dispatcher behind Mu(), with executor resources. Mu() forwards
/// here with an empty context; the τ executor calls it directly.
StatusOr<Knowledgebase> MuExec(const Formula& sentence, const Database& db,
                               const MuOptions& options, MuStats* stats,
                               const MuExecContext& exec);

/// Reference (specification) enumeration. Fails with kResourceExhausted when more
/// than options.max_reference_atoms ground atoms are mentioned.
StatusOr<Knowledgebase> MuReference(const Formula& sentence, const Database& db,
                                    const UpdateContext& ctx, const MuOptions& options,
                                    MuStats* stats,
                                    const MuExecContext& exec = MuExecContext());

/// CDCL-based minimal-model enumeration.
StatusOr<Knowledgebase> MuSat(const Formula& sentence, const Database& db,
                              const UpdateContext& ctx, const MuOptions& options,
                              MuStats* stats,
                              const MuExecContext& exec = MuExecContext());

/// μ/SAT of the world `world` of exec.delta's base — τ's delta world step.
/// The world is never materialized: its domain is *exec.active_domain ∪
/// *exec.formula_constants, its default bytes are the base's with the atoms
/// its delta names patched (PatchWorldDefaults), and each minimal model's
/// overlay is written from the model's deviations. The result is anchored
/// at the delta base's extended base and equals MuSat over the materialized
/// world (property-tested in tests/world_delta_test.cc).
StatusOr<Knowledgebase> MuSatWorld(const Formula& sentence,
                                   const WorldOverlay& world,
                                   const MuOptions& options, MuStats* stats,
                                   const MuExecContext& exec);

/// Per-atom memo-key byte of μ/SAT (exec::ModelMemo): the atom's old/new flag
/// and default value, and the ground-literal unit on it, if any.
inline constexpr int8_t kAtomOld = 1;
inline constexpr int8_t kAtomDefaultTrue = 2;
inline constexpr int8_t kAtomUnit = 4;
inline constexpr int8_t kAtomUnitTrue = 8;

/// What μ/SAT derives once per (τ call, CNF entry) from the call's shared
/// base and ground literals. Every world of the call starts from these bytes
/// and patches only the atoms its delta names.
struct EntryDefaults {
  /// The entry (held so its address keys WorldDeltaBase for the call).
  std::shared_ptr<const exec::FrozenCnf> entry;
  /// entry->relations[i] → its position in the extended schema.
  std::vector<uint32_t> relation_pos;
  /// Atom id → memo-key byte in the base world: kAtomOld and
  /// kAtomDefaultTrue for mentioned atoms, the unit bits for literal atoms.
  std::vector<int8_t> atom_state;
  /// Mentioned atoms a literal fixes, one entry per literal, in order.
  std::vector<int> unit_atoms;
  /// A literal on an atom the grounding does not mention: every minimal
  /// model takes its value there.
  struct FreeAtom {
    uint32_t pos = 0;
    Tuple tuple;
    bool value = false;
  };
  /// Distinct free atoms, sorted by (pos, tuple).
  std::vector<FreeAtom> free_atoms;
  /// Two literals disagree on one atom: μ has no models.
  bool contradictory = false;
};

/// Builds `entry`'s EntryDefaults against `ext_base`, whose first
/// `old_relations` schema positions are σ(db). Fails with kNotFound when an
/// atom's relation is not in ext_base's schema.
StatusOr<std::shared_ptr<const EntryDefaults>> MakeEntryDefaults(
    std::shared_ptr<const exec::FrozenCnf> entry, const Database& ext_base,
    size_t old_relations, const std::vector<Formula>& literals);

/// Sets kAtomDefaultTrue in `atom_state` (an EntryDefaults' base bytes) to
/// the world's value for every mentioned atom of `entry` that the world
/// `overlay` of `ext_base` adds or deletes, appending those atoms to
/// `patched`. Afterwards the default bits equal a full sweep of the
/// materialized world. O(delta).
void PatchWorldDefaults(const exec::FrozenCnf& entry, const Database& ext_base,
                        const WorldOverlay& overlay,
                        std::vector<int8_t>* atom_state,
                        std::vector<int>* patched);

/// The base every world of one τ call is an overlay of, extended to
/// σ(kb) ∪ σ(φ), plus the EntryDefaults built against it. Shared by the
/// call's workers; Defaults is thread-safe.
class WorldDeltaBase {
 public:
  /// `ext_base`'s first `old_relations` positions are σ(kb).
  WorldDeltaBase(std::shared_ptr<const Database> ext_base, size_t old_relations)
      : ext_base_(std::move(ext_base)), old_relations_(old_relations) {}

  const std::shared_ptr<const Database>& ext_base() const { return ext_base_; }

  /// `entry`'s defaults under `literals` (the same on every call of one
  /// base), built on first use.
  StatusOr<std::shared_ptr<const EntryDefaults>> Defaults(
      const std::shared_ptr<const exec::FrozenCnf>& entry,
      const std::vector<Formula>& literals);

 private:
  std::shared_ptr<const Database> ext_base_;
  size_t old_relations_;
  std::mutex mu_;
  std::vector<std::shared_ptr<const EntryDefaults>> built_;
};

/// Datalog fast path plan: the extracted program (all head predicates new w.r.t.
/// σ(db)). nullopt when φ is not of this shape.
struct DatalogPlan {
  datalog::Program program;
};
StatusOr<std::optional<DatalogPlan>> PlanDatalog(const Formula& sentence,
                                                 const Database& db);
StatusOr<Knowledgebase> MuDatalog(const DatalogPlan& plan, const Database& db,
                                  const UpdateContext& ctx, MuStats* stats);

/// Definitional fast path plan: conjuncts ∀x̄ (ψ → H(x̄')) / ∀x̄ (ψ ↔ H(x̄)), H new,
/// bodies over σ(db). nullopt when φ is not of this shape.
struct DefinitionalPlan {
  struct Definition {
    Symbol head;
    std::vector<Symbol> head_vars;  ///< Distinct head argument variables.
    std::vector<Symbol> all_vars;   ///< Universally quantified variables, in order.
    Formula body;
    bool iff = false;
  };
  std::vector<Definition> definitions;
};
StatusOr<std::optional<DefinitionalPlan>> PlanDefinitional(const Formula& sentence,
                                                           const Database& db);
StatusOr<Knowledgebase> MuDefinitional(const DefinitionalPlan& plan,
                                       const Database& db, const UpdateContext& ctx,
                                       const MuOptions& options, MuStats* stats);

/// Shared helper: true when the ground atom's relation belongs to σ(db) ("old").
inline bool IsOldAtom(const GroundAtom& atom, const Database& db) {
  return db.schema().Contains(atom.relation);
}

/// Shared helper: turns an (atom id → truth value) assignment into a database over
/// ctx.schema, starting from ctx.extended_base and deviating only on the listed
/// atoms. The specification-shaped path: per call it groups deviations in a map
/// and rebuilds each touched relation through Union/Difference. Kept as the
/// reference ModelMaterializer is property-tested against; MuReference uses
/// the materializer.
StatusOr<Database> MaterializeModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value);

/// MaterializeModel's overlay twin: the same assignment expressed as a
/// canonical WorldOverlay against ctx.extended_base (adds = atoms wanted true
/// but absent, dels = atoms wanted false but present) instead of a flattened
/// database. ApplyTo(ctx.extended_base) equals MaterializeModel's result, and
/// the μ/SAT enumerator's deviation overlays equal it (both property-tested).
StatusOr<WorldOverlay> MaterializeOverlayModel(
    const UpdateContext& ctx, const AtomIndex& atoms,
    const std::vector<int>& mentioned_atom_ids,
    const std::function<bool(int)>& atom_value);

/// Delta-encoded model materialization for enumeration loops that build many
/// databases against one base (MuReference). Construction (once per μ call)
/// groups the mentioned atoms by relation, sorts each group in tuple order and
/// precomputes each atom's presence in ctx.extended_base; Materialize (once
/// per enumerated model) then applies the per-model deltas with a single
/// three-way merge per touched relation — no per-model map, no membership
/// probes, and no Union+Difference double rebuild. All storage is flat, so
/// one materializer can be Rebuilt in place with warm buffers. Borrows the
/// ctx and atoms passed to Rebuild; both must outlive the next Rebuild.
class ModelMaterializer {
 public:
  ModelMaterializer() = default;

  /// (Re)builds the precomputation for a new (ctx, atoms, mentioned) triple,
  /// reusing this object's buffers. Fails with kNotFound when a mentioned
  /// atom's relation is not in ctx.schema (the same check MaterializeModel
  /// performs per call); the materializer is unusable until the next
  /// successful Rebuild.
  Status Rebuild(const UpdateContext& ctx, const AtomIndex& atoms,
                 const std::vector<int>& mentioned_atom_ids);

  /// Fresh-object convenience (tests and one-shot callers).
  static StatusOr<ModelMaterializer> Make(
      const UpdateContext& ctx, const AtomIndex& atoms,
      const std::vector<int>& mentioned_atom_ids);

  /// Builds the database in which every mentioned atom id holds iff
  /// `atom_value(id)`, all other facts matching ctx.extended_base. Equivalent
  /// to MaterializeModel over the same inputs (property-tested).
  StatusOr<Database> Materialize(const std::function<bool(int)>& atom_value) const;

  /// The same model as a canonical overlay against ctx.extended_base: one
  /// RelationDelta per deviating relation, add/delete lists emitted directly
  /// from the precomputed sorted groups (no base merge at all, so the
  /// per-model cost drops from O(base + delta) to O(delta)). Equivalent to
  /// MaterializeOverlayModel over the same inputs (property-tested).
  StatusOr<WorldOverlay> MaterializeOverlay(
      const std::function<bool(int)>& atom_value) const;

 private:
  /// One mentioned atom: its id, a view of its ground tuple (borrowed from the
  /// AtomIndex) and whether the base relation already contains it.
  struct AtomEntry {
    int id;
    TupleView tuple;
    bool present;
  };
  /// All mentioned atoms of one relation: entries_[begin, end), sorted by
  /// tuple so the per-model add/remove lists come out sorted for free.
  struct Group {
    size_t schema_pos;
    uint32_t begin;
    uint32_t end;
  };

  const UpdateContext* ctx_ = nullptr;
  /// Flat entry store + group runs over it (flat so Rebuild reuses capacity).
  std::vector<AtomEntry> entries_;
  std::vector<Group> groups_;
  /// Scratch for Rebuild's (schema position, entry) sort.
  std::vector<std::pair<size_t, AtomEntry>> keyed_;
  /// Scratch for Materialize (adds/removes of the group being merged); mutable
  /// so Materialize stays const for callers — a materializer is used by one
  /// world's enumeration thread, never shared.
  mutable std::vector<TupleView> adds_;
  mutable std::vector<TupleView> removes_;
};

}  // namespace kbt::internal

#endif  // KBT_CORE_MU_INTERNAL_H_
