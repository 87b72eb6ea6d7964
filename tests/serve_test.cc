#include "serve/server.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hypothetical.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "serve/cache_bank.h"
#include "serve/snapshot.h"
#include "logic/grounder.h"
#include "store/fault_env.h"
#include "store/file.h"
#include "store/recovery.h"
#include "testutil.h"

namespace kbt::serve {
namespace {

Knowledgebase SmallKb() {
  return *MakeSingletonKb({{"P", 1}, {"Q", 2}},
                          {{"P", {{"a"}}}, {"Q", {{"a", "b"}}}});
}

// ---------------------------------------------------------------------------
// SnapshotRegistry

TEST(SnapshotRegistryTest, InitialStateIsVersionZero) {
  SnapshotRegistry registry(SmallKb());
  std::shared_ptr<const Snapshot> snap = registry.Current();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->kb, SmallKb());
  EXPECT_EQ(registry.version(), 0u);
}

TEST(SnapshotRegistryTest, PublishAdvancesVersionAndKeepsOldAlive) {
  SnapshotRegistry registry(SmallKb());
  std::shared_ptr<const Snapshot> v0 = registry.Current();

  Knowledgebase next = *MakeSingletonKb({{"P", 1}}, {{"P", {{"b"}}}});
  std::shared_ptr<const Snapshot> v1 = registry.Publish(next);
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(registry.Current()->version, 1u);
  EXPECT_EQ(registry.Current()->kb, next);

  // The superseded snapshot is unchanged for readers still holding it.
  EXPECT_EQ(v0->version, 0u);
  EXPECT_EQ(v0->kb, SmallKb());
}

// ---------------------------------------------------------------------------
// QueryCacheBank

TEST(QueryCacheBankTest, TextualVariantsOfOneSentenceShareAnEntry) {
  QueryCacheBank bank(8);
  auto a = bank.Get("P(a)&Q(a,b)");
  ASSERT_TRUE(a.ok());
  auto b = bank.Get("P(a)  &  Q(a, b)");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->caches.get(), b->caches.get());
  EXPECT_EQ(bank.entries(), 1u);
  EXPECT_EQ(bank.hits(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  // The entry's canonical formula is what borrowers evaluate.
  ASSERT_NE(a->caches->sentence, nullptr);
}

TEST(QueryCacheBankTest, GroundLiteralConjunctsShareTheCoreEntry) {
  QueryCacheBank bank(8);
  auto a = bank.Get("(forall x: P(x) -> Q(x, x)) & P(a) & !Q(b, c)");
  ASSERT_TRUE(a.ok());
  auto b = bank.Get("R(d) & (forall x: P(x) -> Q(x, x))");
  ASSERT_TRUE(b.ok());
  // One entry, holding the core; the literals and the whole sentence stay
  // with each request.
  EXPECT_EQ(a->caches.get(), b->caches.get());
  EXPECT_EQ(bank.entries(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  EXPECT_EQ(ToString(a->caches->sentence),
            ToString(*ParseSentence("forall x: P(x) -> Q(x, x)")));
  ASSERT_TRUE(a->split.has_value());
  ASSERT_TRUE(b->split.has_value());
  EXPECT_EQ(a->split->core, a->caches->sentence);
  EXPECT_EQ(b->split->core, a->caches->sentence);
  EXPECT_EQ(a->split->literals.size(), 2u);
  ASSERT_EQ(b->split->literals.size(), 1u);
  EXPECT_EQ(ToString(b->split->literals[0]), "R(d)");
  EXPECT_EQ(ToString(b->sentence),
            ToString(*ParseSentence("R(d) & (forall x: P(x) -> Q(x, x))")));
  // Nothing to split — a conjunction of literals only — keys on the whole
  // sentence, which is then what the request evaluates.
  auto c = bank.Get("P(a) & !Q(b, c)");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->split.has_value());
  EXPECT_EQ(c->sentence, c->caches->sentence);
  EXPECT_EQ(bank.entries(), 2u);
}

TEST(QueryCacheBankTest, EvictsLeastRecentlyUsedBeyondCapacity) {
  QueryCacheBank bank(2);
  ASSERT_TRUE(bank.Get("P(a)").ok());
  ASSERT_TRUE(bank.Get("P(b)").ok());
  ASSERT_TRUE(bank.Get("P(a)").ok());  // P(a) is now hottest.
  ASSERT_TRUE(bank.Get("P(c)").ok());  // Evicts P(b).
  EXPECT_EQ(bank.entries(), 2u);
  uint64_t misses_before = bank.misses();
  ASSERT_TRUE(bank.Get("P(b)").ok());  // Re-resolved: a miss (evicts P(a)).
  EXPECT_EQ(bank.misses(), misses_before + 1);
  uint64_t hits_before = bank.hits();
  ASSERT_TRUE(bank.Get("P(c)").ok());  // Still resident: a hit.
  EXPECT_EQ(bank.hits(), hits_before + 1);
}

TEST(QueryCacheBankTest, EvictedEntryStaysValidForHolders) {
  QueryCacheBank bank(1);
  auto held = bank.Get("P(a) | Q(a, a)");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(bank.Get("P(b)").ok());  // Evicts the held entry from the bank.
  EXPECT_EQ(bank.entries(), 1u);
  // The shared_ptr keeps the entry (and its formula) alive.
  EXPECT_EQ(ToString(held->caches->sentence),
            ToString(*ParseSentence("P(a)|Q(a,a)")));
}

TEST(QueryCacheBankTest, ParseErrorsPropagate) {
  QueryCacheBank bank(4);
  EXPECT_FALSE(bank.Get("P(a").ok());
  EXPECT_FALSE(bank.Get("P(a) &").ok());
  // (No free-variable case: an unbound identifier in term position names a
  // constant in this syntax, so any well-formed formula here is a sentence.)
  EXPECT_EQ(bank.entries(), 0u);
}

TEST(QueryCacheBankTest, DomainCapBoundsPerSentenceGrowthUnderChurn) {
  // Rotating active domains — the shape a domain-churning workload produces:
  // every commit adds a constant, so every read is a fresh domain key. With
  // entry_max_domains = 2 the per-sentence grounding cache must stay at ≤ 2
  // entries no matter how many distinct domains pass through, and an evicted
  // domain must recompute to an identical grounding.
  QueryCacheBank bank(4, /*entry_byte_budget=*/0, /*entry_max_domains=*/2);
  auto entry = bank.Get("P(a)");
  ASSERT_TRUE(entry.ok());
  SentenceCaches& caches = *entry->caches;
  GrounderOptions gopts;

  std::vector<Value> first_domain = {Name("a")};
  auto first = caches.ground.GetOrGround(caches.sentence, first_domain, gopts);
  ASSERT_TRUE(first.ok());
  const size_t first_circuit = (*first)->grounding.circuit.size();

  for (int i = 0; i < 10; ++i) {
    std::vector<Value> domain = {Name("a")};
    for (int j = 0; j <= i; ++j) {
      domain.push_back(Name("c" + std::to_string(j)));
    }
    auto g = caches.ground.GetOrGround(caches.sentence, domain, gopts);
    ASSERT_TRUE(g.ok()) << g.status().message();
    EXPECT_LE(caches.ground.entries(), 2u) << "round " << i;
  }
  EXPECT_GE(caches.ground.stats().evictions, 8u);

  // The first domain was evicted long ago; recomputing it yields the same
  // grounding shape.
  auto again = caches.ground.GetOrGround(caches.sentence, first_domain, gopts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->grounding.circuit.size(), first_circuit);
}

// ---------------------------------------------------------------------------
// Server: write path and snapshots

TEST(ServeServerTest, ApplyPublishesMonotoneVersions) {
  Server server(SmallKb());
  EXPECT_EQ(server.CurrentSnapshot()->version, 0u);

  auto v1 = server.Apply("tau{P(b)}");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = server.Apply("tau{Q(b, c)}");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(server.CurrentSnapshot()->version, 2u);
  EXPECT_EQ(server.stats().commits, 2u);
}

TEST(ServeServerTest, FailedApplyPublishesNothing) {
  Server server(SmallKb());
  std::shared_ptr<const Snapshot> before = server.CurrentSnapshot();
  EXPECT_FALSE(server.Apply("tau{P(").ok());
  EXPECT_EQ(server.CurrentSnapshot().get(), before.get());
  EXPECT_EQ(server.stats().commits, 0u);
}

TEST(ServeServerTest, PipelineApplyMatchesTextApply) {
  Server text_server(SmallKb());
  Server pipe_server(SmallKb());
  ASSERT_TRUE(text_server.Apply("tau{P(b) | Q(b, b)} >> glb").ok());
  Pipeline pipeline;
  pipeline.Tau("P(b) | Q(b, b)").Glb();
  ASSERT_TRUE(pipe_server.Apply(pipeline).ok());
  EXPECT_EQ(text_server.CurrentSnapshot()->kb, pipe_server.CurrentSnapshot()->kb);
}

// ---------------------------------------------------------------------------
// Server: read path

TEST(ServeServerTest, ModalAndCounterfactualReadsMatchCoreSemantics) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();

  auto modal = session->Holds("P(a)");
  ASSERT_TRUE(modal.ok());
  EXPECT_TRUE(modal->holds);
  EXPECT_EQ(modal->snapshot_version, 0u);

  ReadRequest request;
  request.antecedents = {"P(c)", "Q(c, c)"};
  request.consequent = "P(c) & Q(c, c)";
  request.modality = Modality::kNecessarily;
  auto counterfactual = session->Query(request);
  ASSERT_TRUE(counterfactual.ok());
  EXPECT_TRUE(counterfactual->holds);

  // The snapshot itself was never modified by the hypothetical chain.
  EXPECT_EQ(server.CurrentSnapshot()->kb, SmallKb());
  EXPECT_EQ(server.stats().reads, 2u);
}

TEST(ServeServerTest, ReadsSeeTheVersionTheyAcquired) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();
  ASSERT_TRUE(server.Apply("tau{P(d)}").ok());
  auto read = session->Holds("P(d)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
  EXPECT_EQ(read->snapshot_version, 1u);
}

/// Property: the served read path (cache bank + pinned solver/scratch +
/// NestedCounterfactualExec) answers exactly like the plain core evaluation on
/// the same snapshot — across random kbs, random chains, repeated sentences
/// (cache hits), both modalities, and interleaved writes.
TEST(ServeServerTest, ServedReadsEquivalentToPlainNestedCounterfactual) {
  std::mt19937_64 rng(20260808);
  testutil::RandomSentenceGenerator gen(&rng);
  std::uniform_int_distribution<int> chain_len(0, 2);
  std::bernoulli_distribution coin(0.5);
  // Half the antecedents gain ground-literal conjuncts, which the bank splits
  // off their core: on old and new relations (L is new to every kb), over a
  // constant no kb uses, and contradictory pairs. A separate stream keeps the
  // unsplit reads the same as without them.
  std::mt19937_64 split_rng(1017);
  testutil::RandomSentenceGenerator core_gen(&split_rng);
  auto literal = [&]() {
    const char* constants[] = {"a", "b", "c", "fresh"};
    std::uniform_int_distribution<int> pick(0, 3);
    std::uniform_int_distribution<int> relation(0, 2);
    Term x = Term::Const(constants[pick(split_rng)]);
    Term y = Term::Const(constants[pick(split_rng)]);
    const int r = relation(split_rng);
    Formula atom = r == 0 ? Atom("P", {x}) : r == 1 ? Atom("L", {x})
                                                    : Atom("Q", {x, y});
    return coin(split_rng) ? atom : Not(atom);
  };
  int split = 0;

  for (int round = 0; round < 30; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Server server(kb);
    std::unique_ptr<Session> session = server.StartSession();
    for (int q = 0; q < 4; ++q) {
      std::vector<Formula> antecedents;
      ReadRequest request;
      int len = chain_len(rng);
      for (int i = 0; i < len; ++i) {
        Formula f = gen.Generate(2);
        if (coin(split_rng)) {
          while (IsGround(f)) f = core_gen.Generate(2);
          std::vector<Formula> conjuncts = {f, literal()};
          if (coin(split_rng)) conjuncts.push_back(literal());
          if (coin(split_rng)) {  // A contradictory pair.
            const Formula& last = conjuncts.back();
            conjuncts.push_back(last->kind() == FormulaKind::kNot
                                    ? last->children()[0]
                                    : Not(last));
          }
          f = And(conjuncts);
          split += SplitGroundLiterals(f).has_value();
        }
        antecedents.push_back(f);
        request.antecedents.push_back(ToString(f));
      }
      Formula consequent = gen.Generate(2);
      request.consequent = ToString(consequent);
      request.modality =
          coin(rng) ? Modality::kNecessarily : Modality::kPossibly;

      auto expected = NestedCounterfactual(kb, antecedents, consequent,
                                           request.modality);
      ASSERT_TRUE(expected.ok()) << expected.status().message();
      auto served = session->Query(request);
      ASSERT_TRUE(served.ok()) << served.status().message();
      EXPECT_EQ(served->holds, *expected)
          << "round " << round << " query " << q << ": chain of " << len
          << " onto " << request.consequent;
    }
  }
  EXPECT_GE(split, 50);
}

/// Same property with the bank disabled (the no-batch baseline path).
TEST(ServeServerTest, NoBankReadsEquivalentToPlainNestedCounterfactual) {
  std::mt19937_64 rng(808);
  testutil::RandomSentenceGenerator gen(&rng);
  ServerOptions options;
  options.use_cache_bank = false;

  for (int round = 0; round < 10; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Server server(kb, options);
    std::unique_ptr<Session> session = server.StartSession();
    Formula antecedent = gen.Generate(2);
    Formula consequent = gen.Generate(2);
    ReadRequest request;
    request.antecedents = {ToString(antecedent)};
    request.consequent = ToString(consequent);
    auto expected =
        NestedCounterfactual(kb, {antecedent}, consequent, request.modality);
    ASSERT_TRUE(expected.ok());
    auto served = session->Query(request);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served->holds, *expected);
  }
}

TEST(ServeServerTest, RepeatedSentencesHitTheBank) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();
  ReadRequest request;
  request.antecedents = {"P(b)"};
  request.consequent = "P(b)";
  for (int i = 0; i < 3; ++i) {
    auto result = session->Query(request);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->holds);
  }
  Server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.bank_misses, 1u);  // One resolve for P(b)...
  EXPECT_EQ(stats.bank_hits, 2u);    // ...then hits.
}

TEST(ServeServerTest, ByteBudgetEvictsSentenceEntriesUnderDomainChurn) {
  // Domain-churn workload against a 1-byte entry budget: every read outgrows
  // the budget, so the bank must keep evicting and rebuilding instead of
  // accumulating one grounding per domain forever — and every answer must
  // match an unbounded twin serving the identical workload.
  ServerOptions bounded_options;
  bounded_options.cache_entry_byte_budget = 1;
  Server bounded(SmallKb(), bounded_options);
  Server unbounded(SmallKb());
  std::unique_ptr<Session> bounded_session = bounded.StartSession();
  std::unique_ptr<Session> unbounded_session = unbounded.StartSession();

  for (int i = 0; i < 8; ++i) {
    const std::string apply = "tau{P(c" + std::to_string(i) + ")}";
    ASSERT_TRUE(bounded.Apply(apply).ok());
    ASSERT_TRUE(unbounded.Apply(apply).ok());
    for (const char* sentence :
         {"exists x: P(x)", "forall x: Q(x, x) -> P(x)"}) {
      ReadRequest request;
      request.antecedents = {"Q(b, b)"};
      request.consequent = sentence;
      auto b = bounded_session->Query(request);
      auto u = unbounded_session->Query(request);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_TRUE(u.ok()) << u.status().ToString();
      EXPECT_EQ(b->holds, u->holds) << "round " << i << ": " << sentence;
    }
  }
  EXPECT_GT(bounded.stats().bank_budget_evictions, 0u);
  EXPECT_EQ(unbounded.stats().bank_budget_evictions, 0u);
}

/// Regression for the many-world read shape (perfbench's worldset_read):
/// 200 distinct reads of the orient constraint plus ground literals, sent
/// from two concurrent sessions, answer exactly as on a bank-off server —
/// and all of them share one bank entry, the orient core's.
TEST(ServeServerTest, OrientReadsWithLiteralsShareOneCoreEntry) {
  std::mt19937_64 rng(20260808);
  Knowledgebase kb = testutil::DeltaKb(&rng);
  std::vector<ReadRequest> requests;
  std::set<std::string> distinct;
  while (requests.size() < 200) {
    ReadRequest request;
    std::string literal = testutil::DeltaLiteral(&rng);
    request.antecedents = {std::string(testutil::kOrient) + " & " + literal +
                           (requests.size() % 2 == 0
                                ? ""
                                : " & " + testutil::DeltaLiteral(&rng))};
    // Every third consequent asks about the first literal's own atom.
    request.consequent = testutil::DeltaLiteral(&rng);
    if (requests.size() % 3 == 0) {
      request.consequent = literal[0] == '!' ? literal.substr(1) : literal;
    }
    request.modality = requests.size() / 2 % 2 == 0 ? Modality::kNecessarily
                                                     : Modality::kPossibly;
    if (distinct.insert(request.antecedents[0] + " > " + request.consequent)
            .second) {
      requests.push_back(std::move(request));
    }
  }

  ServerOptions bank_off;
  bank_off.use_cache_bank = false;
  Server reference(kb, bank_off);
  std::unique_ptr<Session> reference_session = reference.StartSession();
  std::vector<char> expected;
  for (const ReadRequest& request : requests) {
    auto read = reference_session->Query(request);
    ASSERT_TRUE(read.ok()) << read.status().message();
    expected.push_back(read->holds);
  }

  Server server(kb);
  std::vector<char> served(requests.size(), 2);
  std::vector<std::thread> sessions;
  for (size_t s = 0; s < 2; ++s) {
    sessions.emplace_back([&, s] {
      std::unique_ptr<Session> session = server.StartSession();
      for (size_t i = s; i < requests.size(); i += 2) {
        auto read = session->Query(requests[i]);
        if (read.ok()) served[i] = read->holds;
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(served[i], expected[i])
        << "read " << i << ": " << requests[i].antecedents[0] << " > "
        << requests[i].consequent;
  }
  Server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.bank_misses, 1u);
  EXPECT_EQ(stats.bank_hits, requests.size() - 1);
}

/// Reads pairing one core with a literal over a constant the kb never uses —
/// "what if a new entity" — must not grow the shared core entry: each such
/// constant makes a domain of its own, so τ grounds those reads through
/// per-call caches, and the entry keeps the single domain of the core's reads
/// over known constants. The reads run as Server::ExecuteRead runs them, and
/// answer as the unsplit, uncached evaluation does.
TEST(QueryCacheBankTest, FreshConstantLiteralsLeaveTheCoreEntryOneDomain) {
  std::mt19937_64 rng(4242);
  Knowledgebase kb = testutil::DeltaKb(&rng);
  QueryCacheBank bank;
  TauOptions options;
  options.threads = 1;
  int fresh_reads = 0;
  std::shared_ptr<SentenceCaches> core;
  for (int i = 0; i < 240; ++i) {
    // Three reads in four name a new constant, on an old or a new relation.
    const std::string c = "new" + std::to_string(i);
    const std::string fresh[] = {"P(" + c + ")", "!R(n1, " + c + ")",
                                 "S(" + c + ", n2)", "!S(n0, " + c + ")"};
    std::string literal =
        i % 4 == 0 ? testutil::DeltaLiteral(&rng) : fresh[i / 4 % 4];
    fresh_reads += i % 4 != 0;
    auto entry = bank.Get(std::string(testutil::kOrient) + " & " + literal);
    ASSERT_TRUE(entry.ok()) << entry.status().message();
    ASSERT_TRUE(entry->split.has_value());
    core = entry->caches;
    ChainStep banked{&entry->sentence, &entry->caches->ground,
                     &entry->caches->cnf, &*entry->split};
    ChainStep plain{&entry->sentence};
    // Every third consequent asks about the literal's own atom.
    Formula consequent = *ParseSentence(
        i % 3 == 0 ? literal.substr(literal[0] == '!')
                   : testutil::DeltaLiteral(&rng));
    Modality modality = i % 2 == 0 ? Modality::kNecessarily
                                   : Modality::kPossibly;
    auto served =
        NestedCounterfactualExec(kb, {banked}, consequent, modality, options);
    ASSERT_TRUE(served.ok()) << served.status().message();
    auto expected =
        NestedCounterfactualExec(kb, {plain}, consequent, modality, options);
    ASSERT_TRUE(expected.ok()) << expected.status().message();
    EXPECT_EQ(*served, *expected) << "read " << i << ": "
                                  << ToString(entry->sentence) << " > "
                                  << ToString(consequent);
    ASSERT_LE(entry->caches->ground.entries(), 1u) << "read " << i;
    ASSERT_LE(entry->caches->cnf.entries(), 1u) << "read " << i;
  }
  EXPECT_EQ(fresh_reads, 180);
  EXPECT_EQ(bank.entries(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  // The reads over known constants did fill the entry.
  EXPECT_EQ(core->ground.entries(), 1u);
  EXPECT_EQ(core->cnf.entries(), 1u);
}

/// Read traffic with varied literals grows an entry's model memos, and only
/// them. With a byte budget just above the entry's size after its build, the
/// bank must clear the memos when they push the entry over, not evict the
/// entry and re-ground: 240 distinct orient reads keep one entry (the same
/// object throughout), answer as the uncached evaluation does, and never
/// trip a budget eviction.
TEST(QueryCacheBankTest, MemoGrowthClearsMemosInsteadOfEvictingTheEntry) {
  std::mt19937_64 rng(777);
  Knowledgebase kb = testutil::DeltaKb(&rng);
  TauOptions options;
  options.threads = 1;
  auto read = [&](QueryCacheBank* bank, const std::string& literal,
                  std::shared_ptr<SentenceCaches>* caches) -> StatusOr<bool> {
    KBT_ASSIGN_OR_RETURN(
        BankedSentence entry,
        bank->Get(std::string(testutil::kOrient) + " & " + literal));
    *caches = entry.caches;
    ChainStep banked{&entry.sentence, &entry.caches->ground,
                     &entry.caches->cnf, &*entry.split};
    Formula consequent = *ParseSentence(testutil::DeltaLiteral(&rng));
    KBT_ASSIGN_OR_RETURN(bool served,
                         NestedCounterfactualExec(kb, {banked}, consequent,
                                                  Modality::kPossibly, options));
    ChainStep plain{&entry.sentence};
    KBT_ASSIGN_OR_RETURN(bool expected,
                         NestedCounterfactualExec(kb, {plain}, consequent,
                                                  Modality::kPossibly, options));
    EXPECT_EQ(served, expected) << literal << " > " << ToString(consequent);
    return served;
  };

  // The entry's size right after its build: one read, memos dropped.
  QueryCacheBank probe;
  std::shared_ptr<SentenceCaches> built;
  ASSERT_TRUE(read(&probe, "P(n0)", &built).ok());
  built->cnf.ClearMemos();
  const size_t fixed_bytes = built->ApproxBytes();
  ASSERT_GT(fixed_bytes, 0u);

  QueryCacheBank bank(/*capacity=*/4, /*entry_byte_budget=*/fixed_bytes + 1024);
  std::shared_ptr<SentenceCaches> first;
  std::set<std::string> literals;
  while (literals.size() < 240) {
    std::string literal = testutil::DeltaLiteral(&rng) + " & " +
                          testutil::DeltaLiteral(&rng);
    if (!literals.insert(literal).second) continue;
    std::shared_ptr<SentenceCaches> caches;
    auto served = read(&bank, literal, &caches);
    ASSERT_TRUE(served.ok()) << served.status().message();
    if (first == nullptr) first = caches;
    ASSERT_EQ(caches, first) << "entry rebuilt at read " << literals.size();
  }
  EXPECT_EQ(bank.budget_evictions(), 0u);
  EXPECT_GT(bank.memo_clears(), 0u);
  EXPECT_EQ(bank.misses(), 1u);
}

// ---------------------------------------------------------------------------
// Batching

TEST(ServeServerTest, BatchedResultsIdenticalToOneAtATime) {
  std::mt19937_64 rng(4242);
  testutil::RandomSentenceGenerator gen(&rng);

  for (int round = 0; round < 8; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    // The batch deliberately repeats chains so grouping has something to merge.
    std::vector<ReadRequest> requests;
    for (int i = 0; i < 3; ++i) {
      ReadRequest request;
      request.antecedents = {ToString(gen.Generate(2))};
      request.consequent = ToString(gen.Generate(2));
      requests.push_back(request);
      requests.push_back(request);  // Duplicate: same group.
      std::swap(requests[requests.size() / 2], requests.back());
    }

    Server batch_server(kb);
    std::unique_ptr<Session> batch_session = batch_server.StartSession();
    auto batched = batch_server.ExecuteBatch(*batch_session, requests);
    ASSERT_TRUE(batched.ok()) << batched.status().message();
    ASSERT_EQ(batched->size(), requests.size());

    Server serial_server(kb);
    std::unique_ptr<Session> serial_session = serial_server.StartSession();
    for (size_t i = 0; i < requests.size(); ++i) {
      auto expected = serial_session->Query(requests[i]);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ((*batched)[i].holds, expected->holds) << "request " << i;
      EXPECT_EQ((*batched)[i].snapshot_version, 0u);
    }
    EXPECT_EQ(batch_server.stats().batches, 1u);
  }
}

TEST(ServeServerTest, BatchEvaluatesAgainstOneSnapshot) {
  Server server(SmallKb());
  std::unique_ptr<Session> session = server.StartSession();
  ASSERT_TRUE(server.Apply("tau{P(b)}").ok());
  std::vector<ReadRequest> requests(3);
  requests[0].consequent = "P(a)";
  requests[1].consequent = "P(b)";
  requests[2].consequent = "P(c)";
  auto results = server.ExecuteBatch(*session, requests);
  ASSERT_TRUE(results.ok());
  for (const ReadResult& r : *results) EXPECT_EQ(r.snapshot_version, 1u);
  EXPECT_TRUE((*results)[0].holds);
  EXPECT_TRUE((*results)[1].holds);
  EXPECT_FALSE((*results)[2].holds);
}

// ---------------------------------------------------------------------------
// Durable serving

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + name;
  if (store::Env::Default()->FileExists(dir)) {
    auto names = store::Env::Default()->ListDir(dir);
    if (names.ok()) {
      for (const std::string& n : *names) {
        Status ignored = store::Env::Default()->RemoveFile(dir + "/" + n);
        (void)ignored;
      }
    }
  }
  return dir;
}

TEST(ServeServerTest, DurableServerSurvivesReopen) {
  const std::string dir = FreshDir("kbt_serve_test_reopen");
  Knowledgebase committed{Schema()};
  {
    auto server = Server::OpenDurable(dir, SmallKb());
    ASSERT_TRUE(server.ok()) << server.status().message();
    ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
    ASSERT_TRUE((*server)->Apply("tau{Q(b, c) | Q(c, b)}").ok());
    committed = (*server)->CurrentSnapshot()->kb;
    EXPECT_EQ((*server)->store()->lsn(), 2u);
  }
  // Reopen: recovered state is version 0 and `initial` is ignored.
  auto server = Server::OpenDurable(dir, Knowledgebase(Schema()));
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 0u);
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, committed);

  // And serves reads over the recovered state.
  std::unique_ptr<Session> session = (*server)->StartSession();
  auto read = session->Holds("P(b)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
}

TEST(ServeServerTest, AutoCheckpointRotatesEveryNCommits) {
  const std::string dir = FreshDir("kbt_serve_test_autockpt");
  ServerOptions options;
  options.checkpoint_every = 2;
  auto server =
      Server::OpenDurable(dir, SmallKb(), store::StoreOptions(), options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
  }
  // Two checkpoints happened; the newest is at lsn 4, so wal-4 exists and the
  // original wal-0 was garbage-collected.
  EXPECT_TRUE(
      store::Env::Default()->FileExists(dir + "/" + store::WalFileName(4)));
  EXPECT_FALSE(
      store::Env::Default()->FileExists(dir + "/" + store::WalFileName(0)));
  EXPECT_EQ((*server)->CurrentSnapshot()->version, 4u);
}

TEST(ServeServerTest, FailedDurableCommitLeavesSnapshotUnchanged) {
  // When the WAL write under Apply fails, the error must surface BEFORE
  // Publish: readers keep the old snapshot, the commit counter does not
  // move, and the next Apply succeeds with a contiguous version number
  // (the store self-heals the torn record).
  store::FaultInjectionEnv env;
  store::StoreOptions store_options;
  store_options.env = &env;
  auto server = Server::OpenDurable("db", SmallKb(), store_options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  ASSERT_TRUE((*server)->Apply("tau{P(b)}").ok());
  const Knowledgebase before = (*server)->CurrentSnapshot()->kb;
  const uint64_t version_before = (*server)->CurrentSnapshot()->version;
  const uint64_t commits_before = (*server)->stats().commits;
  const uint64_t lsn_before = (*server)->store()->lsn();

  env.FailAt(1, store::FaultKind::kFail);  // Next write-side syscall fails.
  auto failed = (*server)->Apply("tau{P(c)}");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();

  EXPECT_EQ((*server)->CurrentSnapshot()->version, version_before);
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, before);
  EXPECT_EQ((*server)->stats().commits, commits_before);
  EXPECT_EQ((*server)->store()->lsn(), lsn_before);

  // The transient fault is gone; the write path must be fully recovered.
  auto retried = (*server)->Apply("tau{P(c)}");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, version_before + 1);
  EXPECT_EQ((*server)->store()->lsn(), lsn_before + 1);
  std::unique_ptr<Session> session = (*server)->StartSession();
  auto read = session->Holds("P(c)");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->holds);
}

TEST(ServeServerTest, DurablePipelineApplyIsReplayed) {
  const std::string dir = FreshDir("kbt_serve_test_pipeline");
  Knowledgebase committed{Schema()};
  {
    auto server = Server::OpenDurable(dir, SmallKb());
    ASSERT_TRUE(server.ok());
    Pipeline pipeline;
    pipeline.Tau("P(b) | P(c)").Glb();
    ASSERT_TRUE((*server)->Apply(pipeline).ok());
    committed = (*server)->CurrentSnapshot()->kb;
  }
  auto server = Server::OpenDurable(dir, Knowledgebase(Schema()));
  ASSERT_TRUE(server.ok()) << server.status().message();
  EXPECT_EQ((*server)->CurrentSnapshot()->kb, committed);
}

}  // namespace
}  // namespace kbt::serve
