#ifndef KBT_SAT_TSEITIN_H_
#define KBT_SAT_TSEITIN_H_

/// \file
/// Tseitin transformation: boolean circuits to CNF, incrementally.
///
/// Every circuit node gets a solver literal; gate semantics are encoded with full
/// (both-direction) clauses, so the CNF models restricted to the atom variables are
/// exactly the circuit's satisfying assignments — a bijection the minimal-model
/// enumeration in core/mu_sat.cc relies on (auxiliary gate variables are functionally
/// determined by the atom variables).
///
/// The encoder is incremental: node → literal and atom → variable maps are dense
/// tables that persist across calls, so encoding a root, growing the circuit, and
/// encoding again only emits clauses for the nodes not seen before. The μ engine
/// keeps one encoder and one solver alive for an entire minimization descent and
/// model enumeration; nothing is ever re-encoded.

#include <vector>

#include "logic/circuit.h"
#include "sat/solver.h"

namespace kbt::sat {

/// Encodes circuit nodes into a Solver. The circuit's external variables (ground
/// atom ids) map to dedicated solver variables, created on demand.
class TseitinEncoder {
 public:
  /// Both `circuit` and `solver` must outlive the encoder. The circuit may keep
  /// growing after construction; the encoder picks up new nodes on the next
  /// LitFor/Assert call.
  TseitinEncoder(const Circuit* circuit, Solver* solver)
      : circuit_(circuit), solver_(solver) {}

  /// Returns a literal equivalent to circuit node `node_id`, adding gate clauses
  /// as needed. Idempotent per node across calls: already-encoded subcircuits
  /// contribute no new clauses.
  Lit LitFor(int node_id);

  /// Solver variable for circuit/external variable `var_id` (a ground-atom id),
  /// created on first use.
  Var VarForAtom(int var_id);

  /// Asserts that node `node_id` is true (adds its literal as a unit clause).
  void Assert(int node_id);

  /// Number of circuit nodes encoded so far.
  size_t encoded_nodes() const { return encoded_.size(); }
  /// Ids of the nodes encoded so far, in encoding order.
  const std::vector<int>& encoded_node_ids() const { return encoded_; }

  /// Starts over on `solver` exactly as a new encoder over the same circuit
  /// would, but resets only the table entries this encoder set, so encoding
  /// many small subcircuits of one large circuit in turn costs their size,
  /// not the circuit's.
  void Restart(Solver* solver);

  /// The dense node-id → literal table (kUnencoded = -1 for nodes not yet
  /// encoded). Borrowed; valid until the next LitFor/Assert call. The μ
  /// enumerator reads it to seed gate-variable phases from a model candidate.
  const std::vector<Lit>& node_lits() const { return lit_of_; }

  static constexpr Lit kUnencoded = -1;

 private:
  static constexpr Var kNoVar = -1;

  const Circuit* circuit_;
  Solver* solver_;
  /// Dense node-id → literal table (kUnencoded until encoded). Grown lazily to
  /// the circuit's current size, preserving earlier entries — the incremental
  /// core.
  std::vector<Lit> lit_of_;
  /// Dense atom-id → solver-var table (kNoVar until created).
  std::vector<Var> var_of_atom_;
  /// Nodes with a literal and atoms with a variable, for Restart.
  std::vector<int> encoded_;
  std::vector<int> mapped_atoms_;
  Var const_true_ = kNoVar;

  std::vector<int> dfs_;          ///< Explicit DFS stack (no recursion).
  std::vector<Lit> clause_tmp_;   ///< Gate-clause scratch buffer.
};

}  // namespace kbt::sat

#endif  // KBT_SAT_TSEITIN_H_
