#include "serve/cache_bank.h"

#include <algorithm>
#include <utility>

#include "logic/parser.h"
#include "logic/printer.h"

namespace kbt::serve {

QueryCacheBank::QueryCacheBank(size_t capacity, size_t entry_byte_budget,
                               size_t entry_max_domains)
    : capacity_(std::max<size_t>(1, capacity)),
      entry_byte_budget_(entry_byte_budget),
      entry_max_domains_(entry_max_domains) {}

StatusOr<BankedSentence> QueryCacheBank::Get(std::string_view sentence_text) {
  // Parse, split and canonicalize outside the lock — the lock only guards the
  // map.
  KBT_ASSIGN_OR_RETURN(Formula parsed, ParseSentence(sentence_text));
  BankedSentence out;
  out.sentence = parsed;
  out.split = SplitGroundLiterals(parsed);
  std::string key = kbt::ToString(out.split ? out.split->core : parsed);

  // Declared before the lock, so destroyed after its release: an evicted entry
  // may hold the last reference to its circuits and frozen CNFs, and freeing
  // them must not make every other session wait. (At most one eviction per
  // call: a budget eviction leaves the map below capacity.)
  std::shared_ptr<SentenceCaches> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Budget check on the hot entry: ApproxBytes walks the entry's domain
    // maps (their own locks; never held while this bank lock is taken
    // elsewhere, so the order bank → cache is acyclic). Over budget, the
    // model memos go first — they are the only part that grows after a
    // build, and rebuilding them costs searches, not a re-grounding. Still
    // over, the entry is dropped and rebuilt fresh — in-flight borrowers keep
    // theirs.
    bool over = entry_byte_budget_ > 0 &&
                it->second.caches->ApproxBytes() > entry_byte_budget_;
    if (over) {
      ++memo_clears_;
      it->second.caches->cnf.ClearMemos();
      over = it->second.caches->ApproxBytes() > entry_byte_budget_;
    }
    if (over) {
      ++budget_evictions_;
      evicted = std::move(it->second.caches);
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
    } else {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      out.caches = it->second.caches;
    }
  }
  if (out.caches == nullptr) {
    ++misses_;
    if (entries_.size() >= capacity_) {
      auto victim = entries_.find(lru_.back());
      evicted = std::move(victim->second.caches);
      entries_.erase(victim);
      lru_.pop_back();
    }
    out.caches = std::make_shared<SentenceCaches>();
    out.caches->sentence = out.split ? out.split->core : parsed;
    if (entry_max_domains_ > 0) {
      out.caches->ground.set_max_entries(entry_max_domains_);
      out.caches->cnf.set_max_entries(entry_max_domains_);
    }
    lru_.push_front(key);
    entries_.emplace(std::move(key), Slot{out.caches, lru_.begin()});
  }
  // Borrowers evaluate the entry's formula, never this request's re-parse.
  (out.split ? out.split->core : out.sentence) = out.caches->sentence;
  return out;
}

uint64_t QueryCacheBank::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t QueryCacheBank::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t QueryCacheBank::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

uint64_t QueryCacheBank::budget_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_evictions_;
}

uint64_t QueryCacheBank::memo_clears() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_clears_;
}

}  // namespace kbt::serve
