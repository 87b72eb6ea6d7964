#include "eval/model_check.h"

#include <algorithm>
#include <utility>

#include "logic/analysis.h"

namespace kbt {

namespace {

class Checker {
 public:
  Checker(const Database& db, const std::vector<Value>& domain)
      : db_(db), domain_(domain) {}

  StatusOr<bool> Check(const Formula& f) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kAtom: {
        std::optional<size_t> pos = db_.schema().PositionOf(f->relation());
        if (!pos) {
          return Status::InvalidArgument(
              "σ(db) does not dominate σ(φ): unknown relation " +
              NameOf(f->relation()));
        }
        const Relation& r = db_.relation_at(*pos);
        if (r.arity() != f->terms().size()) {
          return Status::InvalidArgument("arity mismatch for relation " +
                                         NameOf(f->relation()));
        }
        scratch_.clear();
        scratch_.reserve(f->terms().size());
        for (const Term& t : f->terms()) {
          KBT_ASSIGN_OR_RETURN(Value v, Resolve(t));
          scratch_.push_back(v);
        }
        return r.Contains(TupleView(scratch_.data(), scratch_.size()));
      }
      case FormulaKind::kEquals: {
        KBT_ASSIGN_OR_RETURN(Value lhs, Resolve(f->terms()[0]));
        KBT_ASSIGN_OR_RETURN(Value rhs, Resolve(f->terms()[1]));
        return lhs == rhs;
      }
      case FormulaKind::kNot: {
        KBT_ASSIGN_OR_RETURN(bool inner, Check(f->children()[0]));
        return !inner;
      }
      case FormulaKind::kAnd: {
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(bool v, Check(c));
          if (!v) return false;
        }
        return true;
      }
      case FormulaKind::kOr: {
        for (const Formula& c : f->children()) {
          KBT_ASSIGN_OR_RETURN(bool v, Check(c));
          if (v) return true;
        }
        return false;
      }
      case FormulaKind::kImplies: {
        KBT_ASSIGN_OR_RETURN(bool a, Check(f->children()[0]));
        if (!a) return true;
        return Check(f->children()[1]);
      }
      case FormulaKind::kIff: {
        KBT_ASSIGN_OR_RETURN(bool a, Check(f->children()[0]));
        KBT_ASSIGN_OR_RETURN(bool b, Check(f->children()[1]));
        return a == b;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        bool universal = f->kind() == FormulaKind::kForall;
        Symbol var = f->variable();
        // Push a binding frame; Resolve scans from the back, so the new frame
        // shadows any outer binding of the same name until popped.
        env_.emplace_back(var, Value{});
        size_t frame = env_.size() - 1;
        StatusOr<bool> result = universal;
        for (Value v : domain_) {
          env_[frame].second = v;
          result = Check(f->children()[0]);
          if (!result.ok()) break;
          if (*result != universal) break;  // Short-circuit.
        }
        env_.pop_back();
        return result;
      }
    }
    return Status::Internal("unknown formula kind");
  }

  void Bind(Symbol var, Value value) {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == var) {
        it->second = value;
        return;
      }
    }
    env_.emplace_back(var, value);
  }

 private:
  StatusOr<Value> Resolve(const Term& t) {
    if (t.is_constant()) return t.symbol;
    // Reverse linear scan of the binding stack: the environment is only ever a
    // handful of quantifier frames deep, and the flat layout beats hashing on
    // the per-atom hot path. The innermost (latest) binding wins.
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == t.symbol) return it->second;
    }
    return Status::InvalidArgument("unbound variable: " + NameOf(t.symbol));
  }

  const Database& db_;
  const std::vector<Value>& domain_;
  std::vector<std::pair<Symbol, Value>> env_;  ///< Flat binding stack.
  std::vector<Value> scratch_;  // Atom-argument buffer; no alloc per atom check.
};

}  // namespace

std::vector<Value> ActiveDomain(const Database& db, const Formula& f) {
  return ActiveDomain(db.ActiveDomain(), ConstantsOf(f));
}

std::vector<Value> ActiveDomain(const std::vector<Value>& adom,
                                const std::vector<Value>& constants) {
  std::vector<Value> domain;
  domain.reserve(adom.size() + constants.size());
  domain.insert(domain.end(), adom.begin(), adom.end());
  domain.insert(domain.end(), constants.begin(), constants.end());
  std::sort(domain.begin(), domain.end());
  domain.erase(std::unique(domain.begin(), domain.end()), domain.end());
  return domain;
}

StatusOr<bool> Satisfies(const Database& db, const Formula& f,
                         const std::vector<Value>& domain) {
  if (!IsSentence(f)) {
    return Status::InvalidArgument("Satisfies requires a sentence");
  }
  Checker checker(db, domain);
  return checker.Check(f);
}

StatusOr<bool> Satisfies(const Database& db, const Formula& f) {
  return Satisfies(db, f, ActiveDomain(db, f));
}

StatusOr<bool> KbSatisfies(const Knowledgebase& kb, const Formula& f) {
  // Worlds are materialized one at a time (copy-on-write against the shared
  // base) instead of flattening the whole kb into its cache.
  for (size_t i = 0; i < kb.size(); ++i) {
    Database db = kb.World(i);
    KBT_ASSIGN_OR_RETURN(bool v, Satisfies(db, f));
    if (!v) return false;
  }
  return true;
}

StatusOr<Relation> EvaluateQuery(const Database& db, const Formula& f,
                                 const std::vector<Symbol>& vars,
                                 const std::vector<Value>& domain) {
  std::set<Symbol> free = FreeVariables(f);
  for (Symbol v : vars) free.erase(v);
  if (!free.empty()) {
    return Status::InvalidArgument("EvaluateQuery: free variables not covered");
  }
  Relation::Builder rows(vars.size());
  // Enumerate |domain|^|vars| assignments; fine for the moderate arities the
  // examples and Theorem 5.1 benchmarks use. (An empty variable list checks the
  // sentence itself: the 0-ary answer is {()} or {}.)
  std::vector<size_t> idx(vars.size(), 0);
  std::vector<Value> values(vars.size());
  bool empty_domain = domain.empty() && !vars.empty();
  if (empty_domain) return Relation(vars.size());
  // One checker for the whole enumeration: Bind overwrites the previous
  // assignment and quantifier cases save/restore their variable, so no state
  // leaks between iterations.
  Checker checker(db, domain);
  while (true) {
    for (size_t i = 0; i < vars.size(); ++i) {
      values[i] = domain[idx[i]];
      checker.Bind(vars[i], values[i]);
    }
    KBT_ASSIGN_OR_RETURN(bool v, checker.Check(f));
    if (v) rows.Append(TupleView(values.data(), values.size()));
    // Advance the odometer.
    size_t k = 0;
    while (k < idx.size()) {
      if (++idx[k] < domain.size()) break;
      idx[k] = 0;
      ++k;
    }
    if (k == idx.size()) break;
    if (vars.empty()) break;
  }
  return rows.Build();
}

}  // namespace kbt
