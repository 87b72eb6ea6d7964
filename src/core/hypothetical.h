#ifndef KBT_CORE_HYPOTHETICAL_H_
#define KBT_CORE_HYPOTHETICAL_H_

/// \file
/// Hypothetical and counterfactual queries (§1, Example 4, [GM95]).
///
/// A counterfactual A > B asks: "if A were inserted, would B hold?" — evaluated
/// by updating with A and checking B over the resulting worlds, either in all of
/// them (necessity, the ⊓-flavored reading) or in some (possibility, ⊔-flavored).
/// Right-nested chains A1 > (A2 > (... > B)) are sequential updates
/// τ_{A1}, τ_{A2}, ... followed by the check, exactly as the paper's note after
/// Example 4 describes.

#include <vector>

#include "base/status.h"
#include "core/mu.h"
#include "core/tau.h"
#include "logic/formula.h"
#include "rel/knowledgebase.h"

namespace kbt {

enum class Modality {
  /// B must hold in every world of the updated knowledgebase (vacuously true
  /// when the update is inconsistent).
  kNecessarily,
  /// B must hold in at least one world.
  kPossibly,
};

/// Evaluates the counterfactual `antecedent > consequent` over `kb`.
StatusOr<bool> Counterfactual(const Knowledgebase& kb, const Formula& antecedent,
                              const Formula& consequent,
                              Modality modality = Modality::kNecessarily,
                              const MuOptions& options = MuOptions());

/// Right-nested chain: antecedents are inserted left to right, then the
/// consequent is checked. An empty chain degenerates to a plain modal query.
StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<Formula>& antecedents,
                                    const Formula& consequent,
                                    Modality modality = Modality::kNecessarily,
                                    const MuOptions& options = MuOptions());

/// One antecedent of a serving-path chain, with the executor caches for its τ
/// step (either may be null; see TauOptions::ground_cache/cnf_cache — a cache
/// must only ever see this step's sentence, or its split's core when `split`
/// is set; see internal::TauExec). The formulas are borrowed and must outlive
/// the call; the serving layer points the cached one at the cache bank's
/// canonical parse so every borrower of one cache evaluates the identical
/// formula.
struct ChainStep {
  const Formula* antecedent = nullptr;
  exec::GroundingCache* ground_cache = nullptr;
  exec::CnfCache* cnf_cache = nullptr;
  const GroundLiteralSplit* split = nullptr;
};

/// The serving-path chain evaluation: like NestedCounterfactual, but each τ
/// step runs with `options` (the engine's persistent pool, the session-pinned
/// solver and scratch, μ options) plus its step's per-sentence caches — no
/// per-call executor state is constructed beyond what the options leave null.
/// The last step never builds its τ result: it checks the consequent on each
/// world's μ result inside τ's loop and stops at the first counterexample
/// (necessarily) or witness (possibly). Whenever NestedCounterfactual succeeds
/// over the same formulas, this succeeds with the same answer
/// (property-tested in tests/hypothetical_test.cc); it may still answer when
/// a world it never visited would have failed.
/// `stats` (nullable) accumulates the per-step τ statistics — each step's μ
/// counters merge into stats->mu, so a serving layer can surface solver
/// budget/interrupt activity per request.
StatusOr<bool> NestedCounterfactualExec(const Knowledgebase& kb,
                                        const std::vector<ChainStep>& steps,
                                        const Formula& consequent,
                                        Modality modality,
                                        const TauOptions& options,
                                        TauStats* stats = nullptr);

namespace internal {

/// Whether the quantifier-free ground sentence `f` holds in the world `overlay`
/// denotes over `base`, decided from base-relation membership plus the
/// overlay, with no materialized world and no active domain: a relation
/// outside the base's schema is empty. Equal to Satisfies on the
/// materialized world extended to σ(f) (property-tested).
bool GroundHolds(const Formula& f, const Database& base,
                 const WorldOverlay& overlay);

}  // namespace internal

}  // namespace kbt

#endif  // KBT_CORE_HYPOTHETICAL_H_
