#ifndef KBT_EXEC_CNF_CACHE_H_
#define KBT_EXEC_CNF_CACHE_H_

/// \file
/// A domain-keyed cache of frozen CNF prefixes, shared across the worlds of one
/// τ call.
///
/// PR 3's GroundingCache shares the *circuit* of φ between worlds with equal
/// active domains, but every world still re-runs the Tseitin transformation:
/// one AddClause per gate, each with its sort/dedup pass and root-level unit
/// propagation. That encoding is itself a pure function of (φ, B) — the member
/// database contributes nothing to it — so the encoded solver state can be
/// computed once and *forked* into per-world solvers.
///
/// A FrozenCnf bundles the shared grounding with one frozen prefix per
/// *component*: when the grounding's root is a conjunction whose conjuncts
/// fall into atom-disjoint groups, each group is encoded into a solver of its
/// own. Winslett's order compares old-atom flip sets and new-atom true sets by
/// inclusion, so a model is ≤_db-minimal iff its restriction to every group
/// is, and μ is the product of the per-group minimal-model sets. A grounding
/// with one group is a list of one component holding the whole root's
/// encoding. Per world, the enumerator forks (Solver::InitFromFrozen) only the
/// components its memo cannot answer.
///
/// A component whose conjuncts already hold in the default world (and whose
/// literal units agree with it) has the default as its one minimal model; the
/// enumerator answers it without a solver or a memo. The others are answered
/// from one memo per FrozenCnf, keyed by the component and the world content
/// its minimal models depend on (the component's atoms' default values and
/// old/new flags plus the literal units on them). The key names content, not
/// a world or a snapshot, so it cannot go stale: the memo lives as long as
/// the entry, across worlds, calls and (in the serving cache bank) snapshots.
/// A worker reads the memo through its private MemoView (exec/model_memo.h),
/// so a memo hit writes nothing another session's reads also write.
///
/// A τ call looks its entry up once per run of worlds with one domain (see
/// WorldScratch::entry); only the first world of such a run takes the
/// cache's locks.
///
/// Like GroundingCache, one cache instance serves one sentence (the key is the
/// domain alone) and entries are computed exactly once under concurrency —
/// both properties come from the shared machinery in exec/once_cache.h.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "base/status.h"
#include "exec/ground_cache.h"
#include "exec/model_memo.h"
#include "exec/once_cache.h"
#include "sat/solver.h"

namespace kbt::exec {

/// One atom-disjoint group of the root's conjuncts, encoded on its own.
struct CnfComponent {
  /// Mentioned atom ids of this group, sorted.
  std::vector<int> atoms;
  /// The group's conjuncts (circuit node ids, in root order); the root itself
  /// when the grounding has one component.
  std::vector<int> conjuncts;
  /// Solver state right after Tseitin-encoding and asserting the group's
  /// conjuncts (the whole root when the grounding has one component), frozen
  /// at level 0.
  sat::Solver::Frozen prefix;
  /// (circuit node, solver literal) for every node the group's encoder
  /// reached, by ascending node id. The enumerator seeds gate-variable phases
  /// from it.
  std::vector<std::pair<int, sat::Lit>> node_lits;
};

/// An immutable encoded grounding: the shared grounding, its components and
/// the atom → (component, var) table. Only the memo changes after the build.
struct FrozenCnf {
  /// The grounding the prefixes encode (kept alive with them; the enumerator
  /// borrows its circuit, atom table and mentioned-var set).
  std::shared_ptr<const CachedGrounding> grounding;
  /// The components, in order of their first conjunct. Empty iff the root is
  /// ⊥; one component holding the root when it does not split.
  std::vector<CnfComponent> components;
  /// Dense ground-atom id → component index (-1 when the root does not
  /// mention the atom).
  std::vector<int> atom_component;
  /// Dense ground-atom id → solver variable in its component's prefix (-1
  /// when not mentioned).
  std::vector<sat::Var> atom_var;
  /// Where a mentioned atom sits in a world: `relation` indexes `relations`
  /// and `tuple` views the atom table's tuple. The enumerator writes each
  /// product model's overlay straight from these. The entry outlives any one
  /// kb schema (the serving bank keeps it across snapshots), so positions
  /// are into `relations`, which a τ call maps onto its own schema once.
  struct AtomSlot {
    uint32_t relation = 0;
    TupleView tuple;
  };
  /// The relations of the mentioned atoms, in order of first mention.
  std::vector<Symbol> relations;
  /// Dense ground-atom id → its slot (meaningful for mentioned atoms only).
  std::vector<AtomSlot> atom_slots;
  /// Minimal models of the components by (component, world content); one
  /// byte cap for all components. Internally synchronized.
  mutable ModelMemo memo;
};

/// Builds the frozen prefixes of `sentence` over `domain`: grounds (through
/// `ground_cache` when non-null, so the circuit is shared with non-SAT
/// strategies of the same τ call), splits the root into atom-disjoint
/// components, encodes each into a scratch solver, freezes. The single
/// constructor for cache entries and uncached builds alike.
StatusOr<std::shared_ptr<const FrozenCnf>> MakeFrozenCnf(
    const Formula& sentence, const std::vector<Value>& domain,
    const GrounderOptions& options, GroundingCache* ground_cache);

class CnfCache {
 public:
  using Stats = DomainKeyedOnceCache<FrozenCnf>::Stats;

  /// Returns the frozen CNF prefix of `sentence` over `domain`, building it on
  /// first use. Concurrent callers with the same domain block until the one
  /// build completes. `sentence` must be the same formula on every call — the
  /// cache key deliberately omits it. `ground_cache` (optional) supplies the
  /// shared grounding. `hit` (optional) tells whether the entry existed.
  StatusOr<std::shared_ptr<const FrozenCnf>> GetOrBuild(
      const Formula& sentence, const std::vector<Value>& domain,
      const GrounderOptions& options, GroundingCache* ground_cache,
      bool* hit = nullptr) {
    return cache_.GetOrCompute(
        domain,
        [&] { return MakeFrozenCnf(sentence, domain, options, ground_cache); },
        hit);
  }

  Stats stats() const { return cache_.stats(); }
  /// Number of distinct domains seen.
  size_t entries() const { return cache_.entries(); }
  /// Caps distinct cached domains with LRU eviction (0 = unbounded). Bounds
  /// growth under domain churn; lookups still return identical values.
  void set_max_entries(size_t n) { cache_.set_max_entries(n); }
  /// Empties the model memo of every completed entry. The memos are the only
  /// part of an entry that grows after its build; a budgeted owner clears
  /// them before it drops the entry.
  void ClearMemos() {
    cache_.ForEach([](const FrozenCnf& f) { f.memo.Clear(); });
  }

  /// Estimated bytes held by completed entries. Counts the frozen solver
  /// states, the tables and the memos; the shared grounding is *not* counted
  /// (it is billed to the GroundingCache that owns it).
  size_t approx_bytes() const {
    return cache_.ApproxBytes([](const FrozenCnf& f) {
      size_t bytes = f.atom_component.size() * sizeof(int) +
                     f.atom_var.size() * sizeof(sat::Var) +
                     f.atom_slots.size() * sizeof(FrozenCnf::AtomSlot) +
                     f.memo.approx_bytes();
      for (const CnfComponent& c : f.components) {
        bytes += c.prefix.arena_words() * sizeof(uint32_t) +
                 static_cast<size_t>(c.prefix.num_vars()) * 40 +
                 (c.atoms.size() + c.conjuncts.size()) * sizeof(int) +
                 c.node_lits.size() * sizeof(c.node_lits[0]);
      }
      return bytes;
    });
  }

 private:
  DomainKeyedOnceCache<FrozenCnf> cache_;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_CNF_CACHE_H_
