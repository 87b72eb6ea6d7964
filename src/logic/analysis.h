#ifndef KBT_LOGIC_ANALYSIS_H_
#define KBT_LOGIC_ANALYSIS_H_

/// \file
/// Static analyses over formulas: free variables, constants, the schema σ(φ),
/// substitution φ(x/a), and the syntactic classifications the complexity results of
/// §4.3 key on (quantifier-free, ground).

#include <optional>
#include <set>
#include <vector>

#include "base/status.h"
#include "logic/formula.h"
#include "rel/schema.h"

namespace kbt {

/// The set of variables occurring free in φ.
std::set<Symbol> FreeVariables(const Formula& f);

/// True iff φ has no free variables (φ ∈ 8, a sentence).
bool IsSentence(const Formula& f);

/// All constants (domain elements) occurring in φ, sorted and deduplicated. These
/// join the values of db to form the active domain B of eq. (9).
std::vector<Value> ConstantsOf(const Formula& f);

/// The schema σ(φ): every relation symbol of φ with its arity. Fails with
/// kInvalidArgument if a symbol is used at two different arities.
StatusOr<Schema> SchemaOf(const Formula& f);

/// φ with every *free* occurrence of `var` replaced by the constant `value` —
/// the paper's φ(x_i / a_j). Substituting a constant cannot capture.
Formula Substitute(const Formula& f, Symbol var, Value value);

/// True iff φ contains no quantifiers (the Θ0 fragment of §4.3).
bool IsQuantifierFree(const Formula& f);

/// True iff φ contains no variables at all: a boolean combination of ground atoms
/// ("quantifier-free transformations" in Theorem 4.7 are over these).
bool IsGround(const Formula& f);

/// Appends the conjuncts of a (possibly nested) conjunction, left to right; a
/// non-conjunction is its own single conjunct.
void FlattenAnd(const Formula& f, std::vector<Formula>* out);

/// φ read as ψ ∧ λ1 ∧ … ∧ λk, where the λi are its top-level *ground literal*
/// conjuncts — an atom whose terms are all constants, or the negation of one —
/// and the core ψ is the conjunction of the remaining conjuncts in their
/// original order. Nested top-level ∧ is flattened.
struct GroundLiteralSplit {
  Formula core;
  std::vector<Formula> literals;
  /// Constants the literals name and the core does not, sorted.
  std::vector<Value> literal_only_constants;
};

/// Splits φ as above, or nullopt when there is nothing to split: no ground
/// literal conjunct, no other conjunct, or a ground core. Tseitin-encoding
/// ψ ∧ λ is CNF(ψ) plus one unit clause per literal, so every antecedent with
/// core ψ can fork one frozen encoding of ψ (serve/cache_bank.h).
std::optional<GroundLiteralSplit> SplitGroundLiterals(const Formula& f);

/// Counts nodes of the formula tree (|φ| up to constants; used by expression
/// complexity benchmarks and resource guards).
size_t FormulaSize(const Formula& f);

/// Maximum quantifier nesting depth (drives grounding size O(|φ|·|B|^depth)).
size_t QuantifierDepth(const Formula& f);

}  // namespace kbt

#endif  // KBT_LOGIC_ANALYSIS_H_
