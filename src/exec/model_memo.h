#ifndef KBT_EXEC_MODEL_MEMO_H_
#define KBT_EXEC_MODEL_MEMO_H_

/// \file
/// The component model memo of a frozen CNF entry (exec/cnf_cache.h), and the
/// private view a worker reads it through.
///
/// A FrozenCnf's ModelMemo is shared by every τ call, session and snapshot
/// that uses the entry, so it is lock-guarded and hands out shared_ptrs. A
/// MemoView is one worker's copy of the results it has already used: μ/SAT
/// asks the view first, and a hit takes no lock and touches no shared
/// reference count. Misses read (and fill) the shared memo as before.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kbt::exec {

struct FrozenCnf;

/// One component's ≤_db-minimal models under one memo key. Model i deviates
/// from the default world on exactly deviations[begin_i, ends[i]) (begin_i =
/// ends[i-1], or 0): its flipped old atoms, then its true new atoms, each
/// sorted by atom id.
struct ComponentModels {
  std::vector<int> deviations;
  std::vector<uint32_t> ends;

  size_t size() const { return ends.size(); }
  std::pair<const int*, const int*> Model(size_t i) const {
    const int* base = deviations.data();
    return {base + (i == 0 ? 0 : ends[i - 1]), base + ends[i]};
  }
  size_t approx_bytes() const {
    return sizeof(ComponentModels) + deviations.capacity() * sizeof(int) +
           ends.capacity() * sizeof(uint32_t);
  }
};

/// Memo key → a component's models; the key lookup takes a string_view.
struct MemoKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>{}(key);
  }
};
using ModelMap =
    std::unordered_map<std::string, std::shared_ptr<const ComponentModels>,
                       MemoKeyHash, std::equal_to<>>;

/// A lock-guarded map from memo key to a component's minimal models, bounded
/// by a fixed byte cap: an insert that would exceed the cap first clears the
/// memo (keys never go stale, so dropping them only costs recomputation).
class ModelMemo {
 public:
  /// The models stored under `key`, or null.
  std::shared_ptr<const ComponentModels> Find(std::string_view key) const;
  /// Stores a complete result. A result larger than the whole cap is not kept.
  void Insert(std::string_view key,
              std::shared_ptr<const ComponentModels> models);
  /// Drops every entry (in-flight readers keep the results they hold).
  void Clear();

  /// Bytes held now (keys, values and a per-entry overhead estimate).
  size_t approx_bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t entries() const;

  /// Bytes one memo (or one MemoView) may hold.
  static constexpr size_t kByteCap = size_t{1} << 20;

  /// What one entry counts against kByteCap.
  static size_t EntryBytes(std::string_view key, const ComponentModels& models) {
    return key.size() + models.approx_bytes() + 96;  // Node, string, control block.
  }

 private:
  mutable std::mutex mu_;
  ModelMap map_;
  std::atomic<size_t> bytes_{0};
};

/// A worker's private view of one FrozenCnf's memo: the results it has
/// already used, answered without a lock or a shared reference count. Not
/// thread-safe; it lives in the worker's exec::WorldScratch.
///
/// Keys name world content, never a world or a snapshot, so a result cannot
/// go stale; what the view must never do is answer for a different entry.
/// It therefore pins its entry by shared_ptr: a replaced or evicted entry
/// stays alive while pinned, so no other entry can take its address, and
/// Open drops everything when the entry changes. The view is bounded by
/// ModelMemo::kByteCap: a full view refuses inserts and is emptied by the
/// next Open, so a pointer Find returns stays valid until then.
class MemoView {
 public:
  /// Readies the view for one world over `entry`: a view pinned to another
  /// entry is emptied and re-pinned, and a full one is emptied.
  void Open(const std::shared_ptr<const FrozenCnf>& entry);
  /// The models kept under `key`, or null. Valid until the next Open.
  const ComponentModels* Find(std::string_view key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second.get();
  }
  /// Keeps `models` under `key`, unless that would pass the byte cap.
  void Insert(std::string_view key,
              std::shared_ptr<const ComponentModels> models);

 private:
  std::shared_ptr<const FrozenCnf> pin_;
  ModelMap map_;
  size_t bytes_ = 0;
  bool full_ = false;
};

}  // namespace kbt::exec

#endif  // KBT_EXEC_MODEL_MEMO_H_
