#ifndef KBT_EVAL_MODEL_CHECK_H_
#define KBT_EVAL_MODEL_CHECK_H_

/// \file
/// Satisfaction db ⊨ φ, the interpretation of equations (4)–(8) in §2, and
/// first-order query evaluation (answer sets of formulas with free variables).
///
/// Quantifiers range over a finite domain supplied by the caller. When omitted, the
/// active domain — the values of db plus the constants of φ — is used, matching the
/// proof of Theorem 4.1. The interpretation is defined only when σ(db) dominates
/// σ(φ); undeclared relations are an error, not false.

#include <vector>

#include "base/status.h"
#include "logic/formula.h"
#include "rel/database.h"
#include "rel/knowledgebase.h"

namespace kbt {

/// db ⊨ φ with quantifiers ranging over `domain`. φ must be a sentence.
StatusOr<bool> Satisfies(const Database& db, const Formula& f,
                         const std::vector<Value>& domain);

/// db ⊨ φ over the active domain (values of db ∪ constants of φ).
StatusOr<bool> Satisfies(const Database& db, const Formula& f);

/// kb ⊨ φ: every member database satisfies φ (each over its own active domain).
/// True for the empty kb. Used by KM postulate (ii).
StatusOr<bool> KbSatisfies(const Knowledgebase& kb, const Formula& f);

/// The answer set of φ under db: the tuples (v_1, ..., v_k) over `domain` such that
/// db ⊨ φ[x_1/v_1, ..., x_k/v_k], where `vars` = (x_1, ..., x_k) must cover all free
/// variables of φ. Variables beyond the free ones are allowed (cartesian padding).
StatusOr<Relation> EvaluateQuery(const Database& db, const Formula& f,
                                 const std::vector<Symbol>& vars,
                                 const std::vector<Value>& domain);

/// Computes the active domain for (db, φ): values of db ∪ constants of φ, sorted.
std::vector<Value> ActiveDomain(const Database& db, const Formula& f);

/// The same recipe with both parts already collected: `adom` =
/// db.ActiveDomain() and `constants` = ConstantsOf(φ); their union, sorted
/// and deduplicated.
std::vector<Value> ActiveDomain(const std::vector<Value>& adom,
                                const std::vector<Value>& constants);

}  // namespace kbt

#endif  // KBT_EVAL_MODEL_CHECK_H_
