#ifndef KBT_EXEC_SCRATCH_H_
#define KBT_EXEC_SCRATCH_H_

/// \file
/// Per-worker world scratch for the τ fan-out.
///
/// The μ/SAT enumerator used to allocate ~15 member vectors per world; on
/// small worlds that constant factor dominated the actual solving. A
/// WorldScratch owns those buffers and is pooled per worker id — exactly like
/// the per-worker sat::Solver pools of exec/pool — so one world's
/// enumeration borrows warm, already-sized storage and the next world on the
/// same worker reuses it. A scratch is owned by one worker at a time; nothing
/// here is thread-safe or meant to be shared.
///
/// The element types are plain values (atom ids, sat::Var and sat::Lit are
/// all int typedefs; domain values and tuple edits come from rel/), keeping
/// exec/ free of core/ and sat/ dependencies.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/model_memo.h"
#include "rel/overlay.h"

namespace kbt::exec {

class CnfCache;

/// Reusable per-world buffers, keyed by worker id by the τ executor. μ borrows
/// one exclusively for the duration of a world's update (MuExecContext).
struct WorldScratch {
  // --- Delta world step: the world's domain, derived from its overlay. ---
  std::vector<Value> active_domain;    ///< adom of the world being updated.
  std::vector<std::pair<Value, int>> value_changes;  ///< Its delta's occurrences.
  std::vector<Value> domain;           ///< adom ∪ consts(φ): the CNF key.

  // --- The τ call's CNF entry: the one the worker's last world looked up,
  // reused by its later worlds with the same domain and cache. Valid only
  // while MuExecContext::call_entry is set: τ's world loop empties the slot
  // at the start of each call (ForgetEntry), so a cache freed after one call
  // can never answer through its address in the next. ---
  const CnfCache* entry_cache = nullptr;  ///< Cache `entry` came from.
  std::vector<Value> entry_domain;     ///< Domain `entry` was looked up for.
  std::shared_ptr<const FrozenCnf> entry;
  uint64_t entry_hits = 0;             ///< This call's worlds served by an
                                       ///< existing entry (reuses included).
  uint64_t entry_misses = 0;           ///< This call's entry builds.

  /// Empties the entry slot and its counters.
  void ForgetEntry() {
    entry.reset();
    entry_cache = nullptr;
    entry_hits = 0;
    entry_misses = 0;
  }

  // --- μ/SAT enumerator per-world tables (sized per grounding). ---
  std::vector<int> old_atoms;          ///< Component atom ids over σ(db).
  std::vector<int> new_atoms;          ///< Component atom ids outside σ(db).
  std::vector<int8_t> atom_state;      ///< Atom id → memo-key byte (flags).
  std::string memo_key;                ///< Component memo key under construction.
  std::vector<int8_t> component_moved; ///< Component → a unit leaves a default.
  std::vector<int8_t> value;           ///< Atom id → current model snapshot.
  std::vector<int8_t> node_value;      ///< Circuit-evaluation scratch.

  // --- The world's defaults as a patch of the base's (core/mu_sat.cc):
  // while defaults_valid, atom_state holds state_owner's base bytes with the
  // `patched` atoms set from the last world's delta, and node_value is the
  // circuit evaluated under those defaults for the grounding eval_owner. The
  // next world of the same base reverts the patch and applies its own, and
  // re-evaluates only the cone of both patches. The owners are reassigned
  // only when they change, so consecutive worlds touch no shared count. ---
  std::vector<int> patched;            ///< Atoms the last world's delta set.
  std::vector<int> dirty_atoms;        ///< Atoms whose default may have changed.
  std::vector<int> eval_heap;          ///< ReevaluateInto worklist scratch.
  std::shared_ptr<const void> state_owner;  ///< Base bytes atom_state holds.
  std::shared_ptr<const void> eval_owner;   ///< Grounding node_value belongs to.
  bool defaults_valid = false;         ///< The tables above match the owners.

  // --- Component models. memo_view serves the memo hits this worker has
  // seen (pinned to its entry; exec/model_memo.h); held_models keeps the
  // current world's results that the view did not take alive. ---
  MemoView memo_view;
  std::vector<std::shared_ptr<const ComponentModels>> held_models;

  // --- Product models: the picked components and each model's edits. ---
  std::vector<const ComponentModels*> models;
  std::vector<uint32_t> pick;          ///< Odometer over `models`.
  std::vector<TupleEdit> free_edits;   ///< Free literals the world disagrees with.
  std::vector<TupleEdit> edits;        ///< One product model's deviations.

  // --- μ/SAT descend-and-block loop scratch. ---
  std::vector<int> deviating;          ///< Atoms deviating from the default.
  std::vector<int> clause_lits;        ///< Clause under construction (sat::Lit).
  std::vector<int> core_lits;          ///< Blocking-core literals (sat::Lit).
  std::vector<int> assumption_lits;    ///< Assumption vector (sat::Lit).
  std::vector<int> retired_acts;       ///< Activation vars awaiting retirement.
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_SCRATCH_H_
