#include "exec/cnf_cache.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "sat/tseitin.h"

namespace kbt::exec {

namespace {

/// Groups the root's top-level conjuncts into atom-disjoint components. One
/// walk over the circuit: every node remembers the first conjunct that reached
/// it, and a conjunct that reaches a node another one owns is merged with it
/// (union-find), so two conjuncts end up together iff they share a subcircuit,
/// hence iff they share an atom (variable nodes are hash-consed). Returns the
/// component of each conjunct, numbered by first conjunct, and sets
/// `atom_owner` (atom id → owning conjunct) for the mentioned atoms.
std::vector<int> GroupConjuncts(const Circuit& circuit,
                                std::span<const int> conjuncts,
                                std::vector<int>* atom_owner) {
  std::vector<int> parent(conjuncts.size());
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int i) {
    while (parent[static_cast<size_t>(i)] != i) {
      int& p = parent[static_cast<size_t>(i)];
      p = parent[static_cast<size_t>(p)];
      i = p;
    }
    return i;
  };
  std::vector<int> owner(circuit.size(), -1);
  std::vector<int> stack;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    stack.assign(1, conjuncts[i]);
    while (!stack.empty()) {
      int id = stack.back();
      stack.pop_back();
      int& o = owner[static_cast<size_t>(id)];
      if (o >= 0) {
        int a = find(o);
        int b = find(static_cast<int>(i));
        if (a != b) parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
        continue;
      }
      o = static_cast<int>(i);
      Circuit::Node n = circuit.node(id);
      if (n.kind == Circuit::NodeKind::kVar) {
        (*atom_owner)[static_cast<size_t>(n.var)] = static_cast<int>(i);
      }
      stack.insert(stack.end(), n.children.begin(), n.children.end());
    }
  }
  std::vector<int> component(conjuncts.size());
  std::vector<int> number(conjuncts.size(), -1);
  int next = 0;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    int& c = number[static_cast<size_t>(find(static_cast<int>(i)))];
    if (c < 0) c = next++;
    component[i] = c;
  }
  return component;
}

}  // namespace

StatusOr<std::shared_ptr<const FrozenCnf>> MakeFrozenCnf(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options, GroundingCache* ground_cache) {
  auto cnf = std::make_shared<FrozenCnf>();
  if (ground_cache != nullptr) {
    KBT_ASSIGN_OR_RETURN(cnf->grounding,
                         ground_cache->GetOrGround(sentence, domain, options));
  } else {
    KBT_ASSIGN_OR_RETURN(cnf->grounding,
                         MakeCachedGrounding(sentence, domain, options));
  }
  const Grounding& g = cnf->grounding->grounding;
  // A root of ⊥ has no models: the enumerator bails out before touching a
  // solver, so there is no component to encode.
  if (g.root == g.circuit.FalseNode()) {
    return std::shared_ptr<const FrozenCnf>(std::move(cnf));
  }
  const std::vector<int>& mentioned = cnf->grounding->mentioned;
  cnf->atom_component.assign(g.atoms.size(), -1);
  cnf->atom_var.assign(g.atoms.size(), -1);

  // A root AND splits by shared atoms; anything else is one component.
  Circuit::Node root = g.circuit.node(g.root);
  std::vector<int> conjunct_component;
  std::vector<int> atom_owner(g.atoms.size(), -1);
  if (root.kind == Circuit::NodeKind::kAnd) {
    conjunct_component = GroupConjuncts(g.circuit, root.children, &atom_owner);
  }
  const int groups =
      conjunct_component.empty()
          ? 1
          : *std::max_element(conjunct_component.begin(),
                              conjunct_component.end()) + 1;
  cnf->components = std::vector<CnfComponent>(static_cast<size_t>(groups));
  cnf->atom_slots.assign(g.atoms.size(), {});
  for (int atom_id : mentioned) {
    const GroundAtom& atom = g.atoms.AtomOf(atom_id);
    auto known = std::find(cnf->relations.begin(), cnf->relations.end(),
                           atom.relation);
    cnf->atom_slots[static_cast<size_t>(atom_id)] = {
        static_cast<uint32_t>(known - cnf->relations.begin()),
        TupleView(atom.tuple)};
    if (known == cnf->relations.end()) cnf->relations.push_back(atom.relation);
  }
  for (int atom_id : mentioned) {
    int c = groups == 1 ? 0
                        : conjunct_component[static_cast<size_t>(
                              atom_owner[static_cast<size_t>(atom_id)])];
    cnf->atom_component[static_cast<size_t>(atom_id)] = c;
    cnf->components[static_cast<size_t>(c)].atoms.push_back(atom_id);
  }

  // Encode each component into a scratch solver exactly as a fresh per-world
  // encoder would, then freeze. A single component asserts the root itself,
  // so its snapshot is the whole grounding's encoding; a split one asserts
  // its conjuncts in root order. Reset and Restart keep the scratch solver's
  // and encoder's buffers across components and behave like new ones, so
  // thousands of small components cost their own size, not the circuit's.
  sat::Solver solver;
  sat::TseitinEncoder encoder(&g.circuit, &solver);
  for (int c = 0; c < groups; ++c) {
    CnfComponent& component = cnf->components[static_cast<size_t>(c)];
    solver.Reset();
    encoder.Restart(&solver);
    if (groups == 1) {
      component.conjuncts.push_back(g.root);
    } else {
      for (size_t i = 0; i < root.children.size(); ++i) {
        if (conjunct_component[i] == c) {
          component.conjuncts.push_back(root.children[i]);
        }
      }
    }
    for (int conjunct : component.conjuncts) encoder.Assert(conjunct);
    for (int atom_id : component.atoms) {
      cnf->atom_var[static_cast<size_t>(atom_id)] = encoder.VarForAtom(atom_id);
    }
    const std::vector<sat::Lit>& lits = encoder.node_lits();
    for (int id : encoder.encoded_node_ids()) {
      component.node_lits.emplace_back(id, lits[static_cast<size_t>(id)]);
    }
    std::sort(component.node_lits.begin(), component.node_lits.end());
    solver.Freeze(&component.prefix);
  }
  return std::shared_ptr<const FrozenCnf>(std::move(cnf));
}

}  // namespace kbt::exec
