#include "core/hypothetical.h"

#include "core/tau.h"
#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt {

namespace {

/// Shared tail of both chain evaluators: extend the schema so the consequent's
/// satisfaction is defined, then fold the modality over the worlds. `cancel`
/// (nullable) is polled per world — a chain may yield many worlds and each
/// Satisfies is a full model check.
StatusOr<bool> CheckConsequent(Knowledgebase current, const Formula& consequent,
                               Modality modality, const CancelToken* cancel) {
  // The consequent may mention relations the updates introduced; extend the
  // schema so satisfaction is defined (new relations are empty under CWA).
  KBT_ASSIGN_OR_RETURN(Schema consequent_schema, SchemaOf(consequent));
  if (!current.schema().Includes(consequent_schema)) {
    KBT_ASSIGN_OR_RETURN(Schema extended,
                         current.schema().Union(consequent_schema));
    KBT_ASSIGN_OR_RETURN(current, current.ExtendTo(extended));
  }
  bool all = true;
  bool some = false;
  for (size_t i = 0; i < current.size(); ++i) {
    if (cancel != nullptr && cancel->Expired()) {
      return Status::DeadlineExceeded("query cancelled during consequent check");
    }
    Database db = current.World(i);  // Transient copy-on-write materialization.
    KBT_ASSIGN_OR_RETURN(bool holds, Satisfies(db, consequent));
    all = all && holds;
    some = some || holds;
  }
  return modality == Modality::kNecessarily ? all : some;
}

}  // namespace

StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<Formula>& antecedents,
                                    const Formula& consequent, Modality modality,
                                    const MuOptions& options) {
  Knowledgebase current = kb;
  for (const Formula& a : antecedents) {
    KBT_ASSIGN_OR_RETURN(current, Tau(a, current, options));
  }
  return CheckConsequent(std::move(current), consequent, modality,
                         options.cancel);
}

StatusOr<bool> NestedCounterfactualExec(const Knowledgebase& kb,
                                        const std::vector<ChainStep>& steps,
                                        const Formula& consequent,
                                        Modality modality,
                                        const TauOptions& options,
                                        TauStats* stats) {
  Knowledgebase current = kb;
  for (const ChainStep& step : steps) {
    // Between chain steps is the coarsest useful cancellation boundary: each
    // τ may fan a world-set out by orders of magnitude. (τ itself re-checks
    // per world and inside the SAT search via options.mu.cancel.)
    if (options.mu.cancel != nullptr && options.mu.cancel->Expired()) {
      return Status::DeadlineExceeded("query cancelled between chain steps");
    }
    // The base options carry the session-wide resources (pool, pinned solver,
    // scratch, μ options); only the per-sentence caches vary per step.
    TauOptions step_options = options;
    step_options.ground_cache = step.ground_cache;
    step_options.cnf_cache = step.cnf_cache;
    // Tau merges μ counters into whatever stats object arrives, so passing
    // the same one per step accumulates across the chain.
    if (&step != &steps.back()) {
      KBT_ASSIGN_OR_RETURN(current,
                           internal::TauExec(*step.antecedent, step.split,
                                             current, step_options, stats));
      continue;
    }
    // The last step is never merged: τ distributes over the input worlds (KM
    // postulate (viii)), so the answer is the ∧ (necessarily) or ∨ (possibly)
    // of the per-world answers, and the first world that is not neutral decides.
    const bool neutral = modality == Modality::kNecessarily;
    KBT_ASSIGN_OR_RETURN(
        bool decided,
        internal::ForEachTauWorld(
            *step.antecedent, step.split, current, step_options, stats,
            [&](size_t, Knowledgebase mu) -> StatusOr<bool> {
              KBT_ASSIGN_OR_RETURN(bool holds,
                                   CheckConsequent(std::move(mu), consequent,
                                                   modality, options.mu.cancel));
              return holds != neutral;
            }));
    return decided != neutral;
  }
  // Only an empty chain gets here: a plain modal query.
  return CheckConsequent(std::move(current), consequent, modality,
                         options.mu.cancel);
}

StatusOr<bool> Counterfactual(const Knowledgebase& kb, const Formula& antecedent,
                              const Formula& consequent, Modality modality,
                              const MuOptions& options) {
  return NestedCounterfactual(kb, {antecedent}, consequent, modality, options);
}

}  // namespace kbt
