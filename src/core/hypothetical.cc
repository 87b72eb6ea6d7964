#include "core/hypothetical.h"

#include <cassert>
#include <optional>

#include "core/tau.h"
#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt {

namespace {

/// The consequent, analysed once per read: its schema, whether it is ground
/// (quantifier-free with constant terms only — a quantifier over no
/// variable occurrence still ranges over the domain), and its constants. Immutable after construction, so the τ workers of a
/// counterfactual's last step check their worlds against one instance.
class ConsequentCheck {
 public:
  explicit ConsequentCheck(const Formula& consequent)
      : consequent_(consequent),
        schema_(SchemaOf(consequent)),
        ground_(IsQuantifierFree(consequent) && IsGround(consequent)) {
    if (!ground_) constants_ = ConstantsOf(consequent);
  }

  /// Folds the modality over the worlds of `worlds`, which is borrowed (a
  /// serving read's snapshot is shared with every concurrent read of it).
  /// `cancel` (nullable) is polled per world — a chain may yield many worlds.
  StatusOr<bool> Holds(const Knowledgebase& worlds, Modality modality,
                       const CancelToken* cancel) const {
    if (!schema_.ok()) return schema_.status();
    const Schema& consequent_schema = *schema_;
    const Knowledgebase* checked = &worlds;
    std::optional<Knowledgebase> extended_kb;
    // The consequent may mention relations the updates introduced; those are
    // empty in every world (closed world), and one at another arity than
    // the kb's is an error.
    if (!worlds.schema().Includes(consequent_schema)) {
      if (ground_) {
        // A ground consequent reads only the tuples it names, so it checks
        // each world's overlay as it is and needs no extended kb.
        for (const RelationDecl& decl : consequent_schema.decls()) {
          std::optional<size_t> arity = worlds.schema().ArityOf(decl.symbol);
          if (arity && *arity != decl.arity) {
            return worlds.schema().Union(consequent_schema).status();
          }
        }
      } else {
        KBT_ASSIGN_OR_RETURN(Schema extended,
                             worlds.schema().Union(consequent_schema));
        KBT_ASSIGN_OR_RETURN(Knowledgebase kb, worlds.ExtendTo(extended));
        checked = &extended_kb.emplace(std::move(kb));
      }
    }
    const Knowledgebase& kb = *checked;
    bool all = true;
    bool some = false;
    for (size_t i = 0; i < kb.size(); ++i) {
      if (cancel != nullptr && cancel->Expired()) {
        return Status::DeadlineExceeded(
            "query cancelled during consequent check");
      }
      bool holds = false;
      if (ground_) {
        holds = internal::GroundHolds(consequent_, *kb.base(),
                                      kb.overlays()[i]);
      } else {
        // Transient copy-on-write materialization.
        Database db = kb.World(i);
        KBT_ASSIGN_OR_RETURN(
            holds, Satisfies(db, consequent_,
                             ActiveDomain(db.ActiveDomain(), constants_)));
      }
      all = all && holds;
      some = some || holds;
    }
    return modality == Modality::kNecessarily ? all : some;
  }

 private:
  const Formula& consequent_;
  StatusOr<Schema> schema_;
  bool ground_;
  std::vector<Value> constants_;
};

}  // namespace

bool internal::GroundHolds(const Formula& f, const Database& base,
                           const WorldOverlay& overlay) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kAtom: {
      std::optional<size_t> pos = base.schema().PositionOf(f->relation());
      if (!pos) return false;  // A relation the worlds lack is empty.
      constexpr size_t kInline = 8;
      Value inline_args[kInline] = {};
      std::vector<Value> heap_args;
      Value* args = inline_args;
      if (f->terms().size() > kInline) {
        heap_args.resize(f->terms().size());
        args = heap_args.data();
      }
      for (size_t k = 0; k < f->terms().size(); ++k) {
        args[k] = f->terms()[k].symbol;
      }
      return overlay.Holds(base, *pos, TupleView(args, f->terms().size()));
    }
    case FormulaKind::kEquals:
      return f->terms()[0].symbol == f->terms()[1].symbol;
    case FormulaKind::kNot:
      return !GroundHolds(f->children()[0], base, overlay);
    case FormulaKind::kAnd:
      for (const Formula& c : f->children()) {
        if (!GroundHolds(c, base, overlay)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& c : f->children()) {
        if (GroundHolds(c, base, overlay)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !GroundHolds(f->children()[0], base, overlay) ||
             GroundHolds(f->children()[1], base, overlay);
    case FormulaKind::kIff:
      return GroundHolds(f->children()[0], base, overlay) ==
             GroundHolds(f->children()[1], base, overlay);
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      break;
  }
  assert(false && "GroundHolds needs a ground formula");
  return false;
}

StatusOr<bool> NestedCounterfactual(const Knowledgebase& kb,
                                    const std::vector<Formula>& antecedents,
                                    const Formula& consequent, Modality modality,
                                    const MuOptions& options) {
  // The input is borrowed; each step owns only the kb it produces.
  const Knowledgebase* current = &kb;
  Knowledgebase produced;
  for (const Formula& a : antecedents) {
    KBT_ASSIGN_OR_RETURN(produced, Tau(a, *current, options));
    current = &produced;
  }
  return ConsequentCheck(consequent).Holds(*current, modality, options.cancel);
}

StatusOr<bool> NestedCounterfactualExec(const Knowledgebase& kb,
                                        const std::vector<ChainStep>& steps,
                                        const Formula& consequent,
                                        Modality modality,
                                        const TauOptions& options,
                                        TauStats* stats) {
  const ConsequentCheck check(consequent);
  // The snapshot is borrowed, never copied: a copy would write its shared
  // reference counts, which every concurrent read of it writes too. Each
  // step owns only the kb it produces.
  const Knowledgebase* current = &kb;
  Knowledgebase produced;
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
      KBT_ASSIGN_OR_RETURN(produced,
                           internal::TauExec(*step.antecedent, step.split,
                                             *current, step_options, stats));
      current = &produced;
      continue;
    }
    // The last step is never merged: τ distributes over the input worlds (KM
    // postulate (viii)), so the answer is the ∧ (necessarily) or ∨ (possibly)
    // of the per-world answers, and the first world that is not neutral decides.
    const bool neutral = modality == Modality::kNecessarily;
    KBT_ASSIGN_OR_RETURN(
        bool decided,
        internal::ForEachTauWorld(
            *step.antecedent, step.split, *current, step_options, stats,
            [&](size_t, Knowledgebase mu) -> StatusOr<bool> {
              KBT_ASSIGN_OR_RETURN(
                  bool holds, check.Holds(mu, modality, options.mu.cancel));
              return holds != neutral;
            }));
    return decided != neutral;
  }
  // Only an empty chain gets here: a plain modal query.
  return check.Holds(*current, modality, options.mu.cancel);
}

StatusOr<bool> Counterfactual(const Knowledgebase& kb, const Formula& antecedent,
                              const Formula& consequent, Modality modality,
                              const MuOptions& options) {
  return NestedCounterfactual(kb, {antecedent}, consequent, modality, options);
}

}  // namespace kbt
