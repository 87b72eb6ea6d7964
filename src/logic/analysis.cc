#include "logic/analysis.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace kbt {

namespace {

void CollectFree(const Formula& f, std::set<Symbol>* bound, std::set<Symbol>* free) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return;
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      for (const Term& t : f->terms()) {
        if (t.is_variable() && bound->count(t.symbol) == 0) free->insert(t.symbol);
      }
      return;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      bool was_bound = bound->count(f->variable()) > 0;
      bound->insert(f->variable());
      CollectFree(f->children()[0], bound, free);
      if (!was_bound) bound->erase(f->variable());
      return;
    }
    default:
      for (const Formula& c : f->children()) CollectFree(c, bound, free);
      return;
  }
}

void CollectConstants(const Formula& f, std::vector<Value>* out) {
  for (const Term& t : f->terms()) {
    if (t.is_constant()) out->push_back(t.symbol);
  }
  for (const Formula& c : f->children()) CollectConstants(c, out);
}

Status CollectSchema(const Formula& f, Schema* schema) {
  if (f->kind() == FormulaKind::kAtom) {
    std::optional<size_t> arity = schema->ArityOf(f->relation());
    if (arity) {
      if (*arity != f->terms().size()) {
        return Status::InvalidArgument("relation " + NameOf(f->relation()) +
                                       " used at arities " + std::to_string(*arity) +
                                       " and " + std::to_string(f->terms().size()));
      }
    } else {
      KBT_RETURN_IF_ERROR(
          schema->Append(RelationDecl{f->relation(), f->terms().size()}));
    }
  }
  for (const Formula& c : f->children()) {
    KBT_RETURN_IF_ERROR(CollectSchema(c, schema));
  }
  return Status::OK();
}

bool IsGroundLiteral(const Formula& f) {
  const Formula& atom = f->kind() == FormulaKind::kNot ? f->children()[0] : f;
  return atom->kind() == FormulaKind::kAtom &&
         std::all_of(atom->terms().begin(), atom->terms().end(),
                     [](const Term& t) { return t.is_constant(); });
}

}  // namespace

std::set<Symbol> FreeVariables(const Formula& f) {
  std::set<Symbol> bound, free;
  CollectFree(f, &bound, &free);
  return free;
}

bool IsSentence(const Formula& f) { return FreeVariables(f).empty(); }

std::vector<Value> ConstantsOf(const Formula& f) {
  std::vector<Value> out;
  CollectConstants(f, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

StatusOr<Schema> SchemaOf(const Formula& f) {
  Schema schema;
  KBT_RETURN_IF_ERROR(CollectSchema(f, &schema));
  return schema;
}

Formula Substitute(const Formula& f, Symbol var, Value value) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return f;
    case FormulaKind::kAtom:
    case FormulaKind::kEquals: {
      bool hit = false;
      for (const Term& t : f->terms()) {
        if (t.is_variable() && t.symbol == var) hit = true;
      }
      if (!hit) return f;
      std::vector<Term> terms = f->terms();
      for (Term& t : terms) {
        if (t.is_variable() && t.symbol == var) t = Term::Const(value);
      }
      if (f->kind() == FormulaKind::kAtom) return Atom(f->relation(), std::move(terms));
      return Equals(terms[0], terms[1]);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      if (f->variable() == var) return f;  // Occurrences below are bound.
      Formula body = Substitute(f->children()[0], var, value);
      if (body == f->children()[0]) return f;
      return f->kind() == FormulaKind::kExists ? Exists(f->variable(), std::move(body))
                                               : Forall(f->variable(), std::move(body));
    }
    default: {
      std::vector<Formula> children;
      children.reserve(f->children().size());
      bool changed = false;
      for (const Formula& c : f->children()) {
        Formula nc = Substitute(c, var, value);
        changed |= (nc != c);
        children.push_back(std::move(nc));
      }
      if (!changed) return f;
      switch (f->kind()) {
        case FormulaKind::kNot:
          return Not(children[0]);
        case FormulaKind::kAnd:
          return And(std::move(children));
        case FormulaKind::kOr:
          return Or(std::move(children));
        case FormulaKind::kImplies:
          return Implies(children[0], children[1]);
        case FormulaKind::kIff:
          return Iff(children[0], children[1]);
        default:
          assert(false && "unreachable");
          return f;
      }
    }
  }
}

bool IsQuantifierFree(const Formula& f) {
  if (f->kind() == FormulaKind::kExists || f->kind() == FormulaKind::kForall) {
    return false;
  }
  for (const Formula& c : f->children()) {
    if (!IsQuantifierFree(c)) return false;
  }
  return true;
}

bool IsGround(const Formula& f) {
  for (const Term& t : f->terms()) {
    if (t.is_variable()) return false;
  }
  for (const Formula& c : f->children()) {
    if (!IsGround(c)) return false;
  }
  return true;
}

void FlattenAnd(const Formula& f, std::vector<Formula>* out) {
  if (f->kind() != FormulaKind::kAnd) {
    out->push_back(f);
    return;
  }
  for (const Formula& c : f->children()) FlattenAnd(c, out);
}

std::optional<GroundLiteralSplit> SplitGroundLiterals(const Formula& f) {
  std::vector<Formula> conjuncts;
  FlattenAnd(f, &conjuncts);
  GroundLiteralSplit split;
  std::vector<Formula> core;
  for (Formula& c : conjuncts) {
    (IsGroundLiteral(c) ? split.literals : core).push_back(std::move(c));
  }
  if (split.literals.empty() || core.empty()) return std::nullopt;
  split.core = And(std::move(core));
  if (IsGround(split.core)) return std::nullopt;
  std::vector<Value> all = ConstantsOf(f);
  std::vector<Value> in_core = ConstantsOf(split.core);
  std::set_difference(all.begin(), all.end(), in_core.begin(), in_core.end(),
                      std::back_inserter(split.literal_only_constants));
  return split;
}

size_t FormulaSize(const Formula& f) {
  size_t n = 1;
  for (const Formula& c : f->children()) n += FormulaSize(c);
  return n;
}

size_t QuantifierDepth(const Formula& f) {
  size_t child_max = 0;
  for (const Formula& c : f->children()) {
    child_max = std::max(child_max, QuantifierDepth(c));
  }
  if (f->kind() == FormulaKind::kExists || f->kind() == FormulaKind::kForall) {
    return child_max + 1;
  }
  return child_max;
}

}  // namespace kbt
