#ifndef KBT_SERVE_CACHE_BANK_H_
#define KBT_SERVE_CACHE_BANK_H_

/// \file
/// Per-sentence executor caches for the serving read path.
///
/// τ's GroundingCache/CnfCache are keyed by active domain for one *fixed*
/// sentence (the key deliberately omits it), and a grounding is a pure
/// function of (φ, B) — independent of the snapshot version. A serving layer
/// therefore keeps one cache pair per distinct sentence text and reuses it
/// across requests, sessions and snapshots: the first request for a sentence
/// grounds and Tseitin-encodes, every later same-domain request forks the
/// frozen prefix. This is what makes batching same-sentence reads pay — the
/// batch leader fills the entry, the rest of the batch rides it.
///
/// An antecedent ψ ∧ λ1 ∧ … ∧ λk whose λi are ground literals
/// (SplitGroundLiterals) is keyed on its *core* ψ: every such read forks the
/// one frozen encoding of ψ and adds the λi on top. The literals belong to
/// the request, never to the entry, and τ keeps the entry to the domains a
/// read of ψ alone would add (internal::TauExec).
///
/// Correctness of sharing: every user of an entry's caches evaluates the
/// entry's own canonical Formula (parsed once, stored in the entry — the core
/// of a split sentence), never its private re-parse — so two textual
/// spellings that print alike can never mix two circuit structures inside one
/// cache.
///
/// The bank is bounded two ways. Across sentences, entries are evicted LRU
/// beyond `capacity`. Within a sentence, the grounding/CNF caches are keyed
/// by active domain — a workload whose domain churns (every commit growing
/// the domain) makes each read a fresh key, so unbounded per-sentence caches
/// grow linearly with commits. `entry_max_domains` caps the domains inside a
/// sentence's caches (LRU), and `entry_byte_budget` bounds the entry's
/// memory estimate: over budget, the entry's model memos are cleared first
/// (read traffic with varied literals grows them), and an entry still over
/// budget is evicted whole — the next request rebuilds it fresh. Entries are handed out as shared_ptr, so
/// eviction never invalidates a request in flight.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/status.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "logic/analysis.h"
#include "logic/formula.h"

namespace kbt::serve {

/// One sentence's shared executor state. Immutable apart from the caches,
/// which are internally synchronized (exec/once_cache.h).
struct SentenceCaches {
  /// The canonical parse of the sentence text, or of its core when split. All
  /// τ calls that borrow these caches must ground exactly this formula.
  Formula sentence = nullptr;
  exec::GroundingCache ground;
  exec::CnfCache cnf;

  /// Estimated bytes held by both caches (heuristic; see the caches).
  size_t ApproxBytes() const {
    return ground.approx_bytes() + cnf.approx_bytes();
  }
};

/// One antecedent resolved through the bank.
struct BankedSentence {
  std::shared_ptr<SentenceCaches> caches;
  /// The whole antecedent, which τ's set-up reads: caches->sentence itself
  /// when unsplit, this request's parse when split.
  Formula sentence;
  /// Engaged when split: core = caches->sentence, literals this request's.
  std::optional<GroundLiteralSplit> split;
};

class QueryCacheBank {
 public:
  /// `capacity` bounds the number of distinct sentences cached (≥ 1).
  /// `entry_byte_budget` (0 = unbounded) evicts a sentence entry whose caches
  /// exceed the budget; `entry_max_domains` (0 = unbounded) caps the domains
  /// cached inside each sentence's grounding/CNF caches.
  explicit QueryCacheBank(size_t capacity = 64, size_t entry_byte_budget = 0,
                          size_t entry_max_domains = 0);

  /// Returns the shared entry for `sentence_text`, parsing and inserting it on
  /// first use. The key is the canonical rendering of the parse — of its core
  /// when the sentence splits — so textual variants of one formula
  /// ("P(a)&Q(b)" vs "P(a) & Q(b)") share one entry. Thread-safe; concurrent
  /// callers for one key converge on one entry.
  StatusOr<BankedSentence> Get(std::string_view sentence_text);

  /// Entry lookups that found an existing entry / created one.
  uint64_t hits() const;
  uint64_t misses() const;
  size_t entries() const;
  /// Sentence entries evicted because their caches outgrew the byte budget.
  uint64_t budget_evictions() const;
  /// Times an entry over the byte budget had its model memos cleared first
  /// (exec::CnfCache::ClearMemos), whether or not it was then evicted.
  uint64_t memo_clears() const;

 private:
  struct Slot {
    std::shared_ptr<SentenceCaches> caches;
    std::list<std::string>::iterator lru_pos;  ///< Position in lru_ (front = hottest).
  };

  mutable std::mutex mu_;
  const size_t capacity_;
  const size_t entry_byte_budget_;
  const size_t entry_max_domains_;
  std::unordered_map<std::string, Slot> entries_;
  /// Canonical keys in recency order; back() is the eviction candidate.
  std::list<std::string> lru_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t budget_evictions_ = 0;
  uint64_t memo_clears_ = 0;
};

}  // namespace kbt::serve

#endif  // KBT_SERVE_CACHE_BANK_H_
