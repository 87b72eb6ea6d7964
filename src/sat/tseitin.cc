#include "sat/tseitin.h"

#include <cassert>

namespace kbt::sat {

Var TseitinEncoder::VarForAtom(int var_id) {
  size_t idx = static_cast<size_t>(var_id);
  if (idx >= var_of_atom_.size()) var_of_atom_.resize(idx + 1, kNoVar);
  if (var_of_atom_[idx] != kNoVar) return var_of_atom_[idx];
  Var v = solver_->NewVar();
  var_of_atom_[idx] = v;
  mapped_atoms_.push_back(var_id);
  return v;
}

void TseitinEncoder::Restart(Solver* solver) {
  for (int id : encoded_) lit_of_[static_cast<size_t>(id)] = kUnencoded;
  for (int a : mapped_atoms_) var_of_atom_[static_cast<size_t>(a)] = kNoVar;
  encoded_.clear();
  mapped_atoms_.clear();
  const_true_ = kNoVar;
  solver_ = solver;
}

Lit TseitinEncoder::LitFor(int node_id) {
  if (lit_of_.size() < circuit_->size()) {
    lit_of_.resize(circuit_->size(), kUnencoded);  // Pick up circuit growth.
  }
  if (lit_of_[static_cast<size_t>(node_id)] != kUnencoded) {
    return lit_of_[static_cast<size_t>(node_id)];
  }

  // Iterative post-order: a node is encoded once all its children are. Children
  // may be pushed more than once; the cached-literal check skips repeats.
  dfs_.clear();
  dfs_.push_back(node_id);
  while (!dfs_.empty()) {
    int id = dfs_.back();
    size_t idx = static_cast<size_t>(id);
    if (lit_of_[idx] != kUnencoded) {
      dfs_.pop_back();
      continue;
    }
    const Circuit::Node n = circuit_->node(id);
    switch (n.kind) {
      case Circuit::NodeKind::kConst: {
        if (const_true_ == kNoVar) {
          const_true_ = solver_->NewVar();
          solver_->AddClause({MkLit(const_true_)});
        }
        lit_of_[idx] = n.var == 1 ? MkLit(const_true_) : MkLit(const_true_, true);
        encoded_.push_back(id);
        dfs_.pop_back();
        break;
      }
      case Circuit::NodeKind::kVar:
        lit_of_[idx] = MkLit(VarForAtom(n.var));
        encoded_.push_back(id);
        dfs_.pop_back();
        break;
      case Circuit::NodeKind::kNot: {
        Lit c = lit_of_[static_cast<size_t>(n.children[0])];
        if (c == kUnencoded) {
          dfs_.push_back(n.children[0]);
          break;
        }
        lit_of_[idx] = Negate(c);
        encoded_.push_back(id);
        dfs_.pop_back();
        break;
      }
      case Circuit::NodeKind::kAnd:
      case Circuit::NodeKind::kOr: {
        // Push unencoded children in reverse so they encode left-to-right —
        // solver variables are then created in the same order as a recursive
        // descent, keeping decision heuristics (and thus enumeration order)
        // stable.
        bool ready = true;
        for (size_t i = n.children.size(); i-- > 0;) {
          int c = n.children[i];
          if (lit_of_[static_cast<size_t>(c)] == kUnencoded) {
            dfs_.push_back(c);
            ready = false;
          }
        }
        if (!ready) break;
        Var g = solver_->NewVar();
        Lit lit = MkLit(g);
        clause_tmp_.clear();
        if (n.kind == Circuit::NodeKind::kAnd) {
          // g → c_i for each i; (⋀ c_i) → g.
          clause_tmp_.push_back(lit);
          for (int c : n.children) {
            Lit cl = lit_of_[static_cast<size_t>(c)];
            solver_->AddClause({Negate(lit), cl});
            clause_tmp_.push_back(Negate(cl));
          }
        } else {
          // c_i → g for each i; g → (⋁ c_i).
          clause_tmp_.push_back(Negate(lit));
          for (int c : n.children) {
            Lit cl = lit_of_[static_cast<size_t>(c)];
            solver_->AddClause({lit, Negate(cl)});
            clause_tmp_.push_back(cl);
          }
        }
        solver_->AddClause(clause_tmp_);
        lit_of_[idx] = lit;
        encoded_.push_back(id);
        dfs_.pop_back();
        break;
      }
    }
  }
  return lit_of_[static_cast<size_t>(node_id)];
}

void TseitinEncoder::Assert(int node_id) {
  solver_->AddClause({LitFor(node_id)});
}

}  // namespace kbt::sat
