#include "datalog/from_fo.h"

#include <set>

#include "logic/analysis.h"

namespace kbt::datalog {

using kbt::Formula;
using kbt::FormulaKind;
using kbt::StatusOr;

namespace {

/// Collects disjuncts of a (possibly nested) disjunction.
void FlattenOr(const Formula& f, std::vector<Formula>* out) {
  if (f->kind() == FormulaKind::kOr) {
    for (const Formula& c : f->children()) FlattenOr(c, out);
  } else {
    out->push_back(f);
  }
}

/// Translates one conjunctive body into literals/constraints. Returns false when
/// a conjunct is outside the fragment.
bool TranslateBody(const Formula& body, Rule* rule) {
  std::vector<Formula> parts;
  FlattenAnd(body, &parts);
  for (const Formula& p : parts) {
    switch (p->kind()) {
      case FormulaKind::kAtom:
        rule->body.push_back(
            Literal{DlAtom{p->relation(), p->terms()}, /*negated=*/false});
        break;
      case FormulaKind::kEquals:
        rule->constraints.push_back(
            Constraint{p->terms()[0], p->terms()[1], /*negated=*/false});
        break;
      case FormulaKind::kNot: {
        const Formula& inner = p->children()[0];
        if (inner->kind() != FormulaKind::kEquals) return false;  // ¬R(x): not Horn.
        rule->constraints.push_back(
            Constraint{inner->terms()[0], inner->terms()[1], /*negated=*/true});
        break;
      }
      case FormulaKind::kTrue:
        break;  // Neutral.
      default:
        return false;
    }
  }
  return true;
}

/// Translates one universally closed conjunct into rules; false if out of fragment.
bool TranslateClause(Formula f, Program* program) {
  while (f->kind() == FormulaKind::kForall) f = f->children()[0];
  if (f->kind() == FormulaKind::kAtom) {
    program->rules.push_back(Rule{DlAtom{f->relation(), f->terms()}, {}, {}});
    return true;
  }
  if (f->kind() != FormulaKind::kImplies) return false;
  const Formula& head = f->children()[1];
  if (head->kind() != FormulaKind::kAtom) return false;
  DlAtom head_atom{head->relation(), head->terms()};
  // The body may be a disjunction of conjunctions: distribute.
  std::vector<Formula> disjuncts;
  FlattenOr(f->children()[0], &disjuncts);
  for (const Formula& d : disjuncts) {
    Rule rule;
    rule.head = head_atom;
    if (!TranslateBody(d, &rule)) return false;
    program->rules.push_back(std::move(rule));
  }
  return true;
}

}  // namespace

StatusOr<std::optional<Program>> FromFirstOrder(const kbt::Formula& sentence) {
  if (!kbt::IsSentence(sentence)) {
    return kbt::Status::InvalidArgument("FromFirstOrder requires a sentence");
  }
  std::vector<Formula> conjuncts;
  FlattenAnd(sentence, &conjuncts);
  Program program;
  for (const Formula& c : conjuncts) {
    if (!TranslateClause(c, &program)) return std::optional<Program>{};
  }
  return std::optional<Program>{std::move(program)};
}

}  // namespace kbt::datalog
