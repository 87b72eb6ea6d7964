#include "core/mu.h"

#include "core/mu_internal.h"
#include "logic/analysis.h"

namespace kbt {

const char* MuStrategyName(MuStrategy strategy) {
  switch (strategy) {
    case MuStrategy::kAuto:
      return "auto";
    case MuStrategy::kReference:
      return "reference";
    case MuStrategy::kSat:
      return "sat";
    case MuStrategy::kDatalog:
      return "datalog";
    case MuStrategy::kDefinitional:
      return "definitional";
  }
  return "unknown";
}

void MuStats::MergeFrom(const MuStats& other) {
  minimal_models += other.minimal_models;
  candidates_examined += other.candidates_examined;
  ground_nodes += other.ground_nodes;
  ground_atoms += other.ground_atoms;
  sat_solve_calls += other.sat_solve_calls;
  sat_conflicts += other.sat_conflicts;
  sat_decisions += other.sat_decisions;
  sat_reused_levels += other.sat_reused_levels;
  sat_saved_propagations += other.sat_saved_propagations;
  sat_interrupt_checks += other.sat_interrupt_checks;
  sat_budget_trips += other.sat_budget_trips;
  datalog_rounds += other.datalog_rounds;
  datalog_derived_tuples += other.datalog_derived_tuples;
  used = other.used;  // Last strategy wins; τ reports per-call anyway.
}

StatusOr<Knowledgebase> Mu(const Formula& sentence, const Database& db,
                           const MuOptions& options, MuStats* stats) {
  return internal::MuExec(sentence, db, options, stats, internal::MuExecContext());
}

namespace internal {

StatusOr<TauStrategyPlan> PlanTauStrategies(const Formula& sentence,
                                            const Database& probe) {
  TauStrategyPlan plan;
  plan.sentence_is_ground = IsGround(sentence);
  KBT_ASSIGN_OR_RETURN(auto datalog, PlanDatalog(sentence, probe));
  if (datalog) {
    plan.datalog = std::make_shared<const DatalogPlan>(std::move(*datalog));
    return plan;  // Mirrors kAuto: Datalog wins before definitional is tried.
  }
  KBT_ASSIGN_OR_RETURN(auto definitional, PlanDefinitional(sentence, probe));
  if (definitional) {
    plan.definitional =
        std::make_shared<const DefinitionalPlan>(std::move(*definitional));
  }
  return plan;
}

StatusOr<Knowledgebase> MuExec(const Formula& sentence, const Database& db,
                               const MuOptions& options, MuStats* stats,
                               const MuExecContext& exec) {
  // Cheapest place to honor an already-expired request: before grounding.
  // The SAT strategy additionally polls the token inside the search.
  if (options.cancel != nullptr && options.cancel->Expired()) {
    return Status::DeadlineExceeded("μ cancelled before evaluation");
  }
  UpdateContext ctx;
  if (exec.extended_schema != nullptr && exec.formula_constants != nullptr) {
    std::vector<Value> own_adom;
    const std::vector<Value>* adom = exec.active_domain;
    if (adom == nullptr) {
      own_adom = db.ActiveDomain();
      adom = &own_adom;
    }
    KBT_ASSIGN_OR_RETURN(
        ctx, MakeUpdateContextOnSchema(*exec.extended_schema,
                                       *exec.formula_constants, db, *adom));
  } else {
    KBT_ASSIGN_OR_RETURN(ctx, MakeUpdateContext(sentence, db));
  }
  MuStats local;
  MuStats* out = stats != nullptr ? stats : &local;
  // With a split the caches hold the core, so reference enumeration — which
  // evaluates φ itself — grounds without them.
  const MuExecContext reference_exec =
      exec.split != nullptr ? MuExecContext() : exec;

  switch (options.strategy) {
    case MuStrategy::kReference:
      out->used = MuStrategy::kReference;
      return internal::MuReference(sentence, db, ctx, options, out,
                                   reference_exec);
    case MuStrategy::kSat:
      out->used = MuStrategy::kSat;
      return internal::MuSat(sentence, db, ctx, options, out, exec);
    case MuStrategy::kDatalog: {
      KBT_ASSIGN_OR_RETURN(auto plan, internal::PlanDatalog(sentence, db));
      if (!plan) {
        return Status::Unsupported(
            "sentence is not Datalog-restricted with new head predicates");
      }
      out->used = MuStrategy::kDatalog;
      return internal::MuDatalog(*plan, db, ctx, out);
    }
    case MuStrategy::kDefinitional: {
      KBT_ASSIGN_OR_RETURN(auto plan, internal::PlanDefinitional(sentence, db));
      if (!plan) {
        return Status::Unsupported("sentence is not definitional over σ(db)");
      }
      out->used = MuStrategy::kDefinitional;
      return internal::MuDefinitional(*plan, db, ctx, options, out);
    }
    case MuStrategy::kAuto:
      break;
  }

  // Automatic dispatch, cheapest applicable first. With a τ-provided plan the
  // shape analysis (ground check, Datalog extraction, definitional parse) was
  // resolved once per τ call — it depends only on (φ, schema), and all worlds
  // share a schema — so each world goes straight to its strategy.
  if (exec.plan != nullptr) {
    const TauStrategyPlan& plan = *exec.plan;
    if (plan.sentence_is_ground) {
      StatusOr<Knowledgebase> result =
          internal::MuReference(sentence, db, ctx, options, out,
                                reference_exec);
      if (result.ok() ||
          result.status().code() != StatusCode::kResourceExhausted) {
        out->used = MuStrategy::kReference;
        return result;
      }
    }
    if (plan.datalog != nullptr) {
      out->used = MuStrategy::kDatalog;
      return internal::MuDatalog(*plan.datalog, db, ctx, out);
    }
    if (plan.definitional != nullptr) {
      out->used = MuStrategy::kDefinitional;
      return internal::MuDefinitional(*plan.definitional, db, ctx, options, out);
    }
    out->used = MuStrategy::kSat;
    return internal::MuSat(sentence, db, ctx, options, out, exec);
  }
  if (IsGround(sentence)) {
    // Theorem 4.7: ground updates touch at most |φ| atoms — reference enumeration
    // is polynomial in the database. Very wide ground sentences still go to SAT.
    StatusOr<Knowledgebase> result =
        internal::MuReference(sentence, db, ctx, options, out, reference_exec);
    if (result.ok() || result.status().code() != StatusCode::kResourceExhausted) {
      out->used = MuStrategy::kReference;
      return result;
    }
  }
  {
    KBT_ASSIGN_OR_RETURN(auto plan, internal::PlanDatalog(sentence, db));
    if (plan) {
      out->used = MuStrategy::kDatalog;
      return internal::MuDatalog(*plan, db, ctx, out);
    }
  }
  {
    KBT_ASSIGN_OR_RETURN(auto plan, internal::PlanDefinitional(sentence, db));
    if (plan) {
      out->used = MuStrategy::kDefinitional;
      return internal::MuDefinitional(*plan, db, ctx, options, out);
    }
  }
  out->used = MuStrategy::kSat;
  return internal::MuSat(sentence, db, ctx, options, out, exec);
}

}  // namespace internal

}  // namespace kbt
