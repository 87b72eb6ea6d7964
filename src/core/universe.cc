#include "core/universe.h"

#include "eval/model_check.h"
#include "logic/analysis.h"

namespace kbt {

StatusOr<UpdateContext> MakeUpdateContext(const Formula& sentence,
                                          const Database& db) {
  if (!IsSentence(sentence)) {
    return Status::InvalidArgument("update requires a sentence (no free variables)");
  }
  KBT_ASSIGN_OR_RETURN(Schema formula_schema, SchemaOf(sentence));
  KBT_ASSIGN_OR_RETURN(Schema schema, db.schema().Union(formula_schema));
  return MakeUpdateContextOnSchema(schema, ConstantsOf(sentence), db,
                                   db.ActiveDomain());
}

StatusOr<UpdateContext> MakeUpdateContextOnSchema(
    const Schema& schema, const std::vector<Value>& constants,
    const Database& db, const std::vector<Value>& adom) {
  UpdateContext ctx;
  ctx.schema = schema;
  ctx.domain = ActiveDomain(adom, constants);
  KBT_ASSIGN_OR_RETURN(ctx.extended_base, db.ExtendTo(ctx.schema));
  return ctx;
}

}  // namespace kbt
