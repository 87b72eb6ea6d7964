#include "exec/model_memo.h"

namespace kbt::exec {

std::shared_ptr<const ComponentModels> ModelMemo::Find(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

void ModelMemo::Insert(std::string_view key,
                       std::shared_ptr<const ComponentModels> models) {
  const size_t bytes = EntryBytes(key, *models);
  if (bytes > kByteCap) return;
  std::lock_guard<std::mutex> lock(mu_);
  size_t held = bytes_.load(std::memory_order_relaxed);
  if (held + bytes > kByteCap) {
    map_.clear();
    held = 0;
  }
  if (map_.emplace(std::string(key), std::move(models)).second) held += bytes;
  bytes_.store(held, std::memory_order_relaxed);
}

void ModelMemo::Clear() {
  // Swapped out under the lock, freed after it is released.
  ModelMap dropped;
  std::lock_guard<std::mutex> lock(mu_);
  dropped.swap(map_);
  bytes_.store(0, std::memory_order_relaxed);
}

size_t ModelMemo::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

void MemoView::Open(const std::shared_ptr<const FrozenCnf>& entry) {
  if (pin_ == entry && !full_) return;
  map_.clear();
  bytes_ = 0;
  full_ = false;
  if (pin_ != entry) pin_ = entry;
}

void MemoView::Insert(std::string_view key,
                      std::shared_ptr<const ComponentModels> models) {
  const size_t bytes = ModelMemo::EntryBytes(key, *models);
  if (bytes_ + bytes > ModelMemo::kByteCap) {
    full_ = true;
    return;
  }
  if (map_.emplace(std::string(key), std::move(models)).second) bytes_ += bytes;
}

}  // namespace kbt::exec
