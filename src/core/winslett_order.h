#ifndef KBT_CORE_WINSLETT_ORDER_H_
#define KBT_CORE_WINSLETT_ORDER_H_

/// \file
/// Definition 2.1: the partial order ≤_db ranking candidate databases by closeness
/// to a base database, following Winslett's possible-models approach.
///
/// For candidates db1, db2 over a common schema s that dominates σ(db):
///
///   db1 ≤_db db2  iff  (stage 1)  Δ(db1, r) ⊆ Δ(db2, r) for every r ∈ σ(db), with
///                                 at least one inclusion strict, or
///            (stage 2)  Δ(db1, r) = Δ(db2, r) for every r ∈ σ(db) and
///                                 db1.r ⊆ db2.r for every r ∈ s \ σ(db),
///
/// where Δ(d, r) = d.r Δ db.r (componentwise symmetric difference). Stage 2 with
/// all-equal components gives reflexivity. As written in the paper, condition (1)
/// uses non-strict inclusion and overlaps conditions (2)+(3); we adopt this strict
/// lexicographic reading, which the paper's prose ("ordered in two stages") and the
/// disjointness arguments of Examples 5 and 6 require, and which property tests
/// confirm is a partial order.

#include "base/status.h"
#include "rel/database.h"

namespace kbt {

/// Outcome of comparing two candidates' closeness to a base.
enum class Closeness {
  kCloser,        ///< db1 <_db db2 (strictly)
  kEqual,         ///< db1 = db2 as databases over s
  kFarther,       ///< db2 <_db db1 (strictly)
  kIncomparable,  ///< neither ≤ holds
};

/// Compares db1 and db2 (same schema s) by closeness to `base` (σ(base) ⊆ s).
StatusOr<Closeness> CompareCloseness(const Database& db1, const Database& db2,
                                     const Database& base);

/// db1 ≤_base db2.
StatusOr<bool> CloserOrEqual(const Database& db1, const Database& db2,
                             const Database& base);

/// db1 <_base db2 (strict).
StatusOr<bool> StrictlyCloser(const Database& db1, const Database& db2,
                              const Database& base);

/// The db-minimal elements of `candidates` (pairwise comparison): every candidate
/// with no strictly closer candidate in the list. Duplicates are collapsed first.
StatusOr<std::vector<Database>> MinimalElements(std::vector<Database> candidates,
                                                const Database& base);

}  // namespace kbt

#endif  // KBT_CORE_WINSLETT_ORDER_H_
