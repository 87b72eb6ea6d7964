#include "core/winslett_order.h"

#include <algorithm>

namespace kbt {

namespace {

/// Three-way comparison of two sets under inclusion.
enum class SetCmp { kSubset, kEqual, kSuperset, kIncomparable };

SetCmp CompareSets(const Relation& a, const Relation& b) {
  bool ab = a.IsSubsetOf(b);
  bool ba = b.IsSubsetOf(a);
  if (ab && ba) return SetCmp::kEqual;
  if (ab) return SetCmp::kSubset;
  if (ba) return SetCmp::kSuperset;
  return SetCmp::kIncomparable;
}

/// Componentwise combination: tracks whether a vector of sets is ⊆, =, ⊇ or
/// incomparable overall.
class VectorCmp {
 public:
  void Add(SetCmp c) {
    switch (c) {
      case SetCmp::kEqual:
        return;
      case SetCmp::kSubset:
        has_subset_ = true;
        return;
      case SetCmp::kSuperset:
        has_superset_ = true;
        return;
      case SetCmp::kIncomparable:
        incomparable_ = true;
        return;
    }
  }

  Closeness Result() const {
    if (incomparable_ || (has_subset_ && has_superset_)) {
      return Closeness::kIncomparable;
    }
    if (has_subset_) return Closeness::kCloser;
    if (has_superset_) return Closeness::kFarther;
    return Closeness::kEqual;
  }

 private:
  bool has_subset_ = false;
  bool has_superset_ = false;
  bool incomparable_ = false;
};

}  // namespace

StatusOr<Closeness> CompareCloseness(const Database& db1, const Database& db2,
                                     const Database& base) {
  if (db1.schema() != db2.schema()) {
    return Status::InvalidArgument("CompareCloseness: candidates differ in schema");
  }
  if (!db1.schema().Includes(base.schema())) {
    return Status::InvalidArgument(
        "CompareCloseness: candidate schema does not dominate σ(base)");
  }

  // Stage 1: symmetric differences on the base's ("old") relations.
  VectorCmp old_cmp;
  for (size_t i = 0; i < base.schema().size(); ++i) {
    Symbol sym = base.schema().decl(i).symbol;
    const Relation& base_rel = base.relation_at(i);
    size_t pos = *db1.schema().PositionOf(sym);
    Relation d1 = db1.relation_at(pos).SymmetricDifference(base_rel);
    Relation d2 = db2.relation_at(pos).SymmetricDifference(base_rel);
    old_cmp.Add(CompareSets(d1, d2));
  }
  Closeness stage1 = old_cmp.Result();
  if (stage1 != Closeness::kEqual) return stage1;

  // Stage 2: tie-break on the remaining ("new") relations, compared to ∅ — i.e.
  // plain componentwise inclusion.
  VectorCmp new_cmp;
  for (size_t i = 0; i < db1.schema().size(); ++i) {
    Symbol sym = db1.schema().decl(i).symbol;
    if (base.schema().Contains(sym)) continue;
    new_cmp.Add(CompareSets(db1.relation_at(i), db2.relation_at(i)));
  }
  return new_cmp.Result();
}

StatusOr<bool> CloserOrEqual(const Database& db1, const Database& db2,
                             const Database& base) {
  KBT_ASSIGN_OR_RETURN(Closeness c, CompareCloseness(db1, db2, base));
  return c == Closeness::kCloser || c == Closeness::kEqual;
}

StatusOr<bool> StrictlyCloser(const Database& db1, const Database& db2,
                              const Database& base) {
  KBT_ASSIGN_OR_RETURN(Closeness c, CompareCloseness(db1, db2, base));
  return c == Closeness::kCloser;
}

StatusOr<std::vector<Database>> MinimalElements(std::vector<Database> candidates,
                                                const Database& base) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (candidates.empty()) return std::vector<Database>{};

  // Any dominator has a strictly smaller (|Δ| total, |new| total) key in
  // lexicographic order, so processing candidates by ascending key lets each one
  // be tested against the already-accepted minimal elements only: O(m·|minimal|)
  // comparisons instead of O(m²).
  struct Keyed {
    size_t diff_total;
    size_t new_total;
    const Database* db;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(candidates.size());
  for (const Database& c : candidates) {
    if (!c.schema().Includes(base.schema())) {
      return Status::InvalidArgument(
          "MinimalElements: candidate schema does not dominate σ(base)");
    }
    size_t diff_total = 0;
    size_t new_total = 0;
    for (size_t i = 0; i < c.schema().size(); ++i) {
      Symbol sym = c.schema().decl(i).symbol;
      std::optional<size_t> base_pos = base.schema().PositionOf(sym);
      if (base_pos) {
        diff_total +=
            c.relation_at(i).SymmetricDifference(base.relation_at(*base_pos)).size();
      } else {
        new_total += c.relation_at(i).size();
      }
    }
    keyed.push_back(Keyed{diff_total, new_total, &c});
  }
  std::stable_sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.diff_total != b.diff_total) return a.diff_total < b.diff_total;
    return a.new_total < b.new_total;
  });

  std::vector<Database> out;
  for (const Keyed& k : keyed) {
    bool minimal = true;
    for (const Database& accepted : out) {
      KBT_ASSIGN_OR_RETURN(bool below, StrictlyCloser(accepted, *k.db, base));
      if (below) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(*k.db);
  }
  return out;
}

}  // namespace kbt
