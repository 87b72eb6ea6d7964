/// \file
/// Tests for the domain-keyed frozen-CNF-prefix cache: hit/miss accounting,
/// value sharing (one encoded prefix per distinct domain), agreement with a
/// direct ground-and-encode, error caching, the ⊥-root fast path, and
/// exactly-once computation under concurrent access through the pool
/// (mirroring ground_cache_test.cc).

#include "exec/cnf_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <vector>

#include "exec/pool.h"
#include "logic/parser.h"
#include "sat/tseitin.h"

namespace kbt::exec {
namespace {

std::vector<Value> Domain(std::initializer_list<std::string_view> names) {
  std::vector<Value> out;
  for (std::string_view n : names) out.push_back(Name(n));
  return out;
}

TEST(CnfCacheTest, HitMissAccounting) {
  Formula phi = *ParseSentence("forall x: R(x) -> S(x)");
  CnfCache cache;
  GrounderOptions opts;

  auto a1 = cache.GetOrBuild(phi, Domain({"a", "b"}), opts, nullptr);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  auto a2 = cache.GetOrBuild(phi, Domain({"a", "b"}), opts, nullptr);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // Same domain → the same shared prefix, not an equal copy.
  EXPECT_EQ(a1->get(), a2->get());

  auto b = cache.GetOrBuild(phi, Domain({"a", "c"}), opts, nullptr);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(a1->get(), b->get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(CnfCacheTest, MatchesDirectEncoding) {
  Formula phi = *ParseSentence("forall x, y: R(x, y) -> (S(x) | S(y))");
  std::vector<Value> domain = Domain({"a", "b", "c"});
  CnfCache cache;
  GrounderOptions opts;

  auto cached = cache.GetOrBuild(phi, domain, opts, nullptr);
  ASSERT_TRUE(cached.ok());
  const FrozenCnf& cnf = **cached;

  // The prefix must match what a fresh per-world encoder would build: ground
  // directly, encode into a fresh solver, compare sizes and the atom→var map.
  StatusOr<Grounding> direct = GroundSentence(phi, domain, opts);
  ASSERT_TRUE(direct.ok());
  sat::Solver solver;
  sat::TseitinEncoder encoder(&direct->circuit, &solver);
  encoder.Assert(direct->root);

  // Every ground conjunct shares an S atom with another, so the root does not
  // split: one component holding the whole root's encoding.
  ASSERT_EQ(cnf.components.size(), 1u);
  const sat::Solver::Frozen& prefix = cnf.components[0].prefix;
  EXPECT_EQ(prefix.num_vars(), solver.num_vars());
  EXPECT_EQ(prefix.num_clauses(), solver.num_clauses());
  EXPECT_EQ(prefix.arena_words(), solver.arena_words());
  EXPECT_EQ(cnf.components[0].atoms, cnf.grounding->mentioned);
  ASSERT_EQ(cnf.atom_var.size(), direct->atoms.size());
  for (int atom_id : cnf.grounding->mentioned) {
    EXPECT_EQ(cnf.atom_var[static_cast<size_t>(atom_id)],
              encoder.VarForAtom(atom_id));
  }
  // And the grounding inside the prefix is the shared CachedGrounding shape.
  EXPECT_EQ(cnf.grounding->grounding.root, direct->root);
  EXPECT_EQ(cnf.grounding->mentioned,
            direct->circuit.CollectVars(direct->root));
}

TEST(CnfCacheTest, SharesGroundingThroughGroundCache) {
  // When a GroundingCache is supplied, the prefix build goes through it: one
  // grounding serves both the CNF prefix and any non-SAT strategy lookups.
  Formula phi = *ParseSentence("forall x: R(x) -> S(x)");
  std::vector<Value> domain = Domain({"a", "b"});
  GroundingCache ground_cache;
  CnfCache cache;
  GrounderOptions opts;

  auto cnf = cache.GetOrBuild(phi, domain, opts, &ground_cache);
  ASSERT_TRUE(cnf.ok());
  EXPECT_EQ(ground_cache.stats().misses, 1u);
  auto ground = ground_cache.GetOrGround(phi, domain, opts);
  ASSERT_TRUE(ground.ok());
  EXPECT_EQ((*cnf)->grounding.get(), ground->get());
}

TEST(CnfCacheTest, FalseRootSkipsEncoding) {
  // A sentence grounding to ⊥ (distinct constants never compare equal) never
  // reaches a solver; the entry has no component to encode.
  Formula phi = *ParseSentence("R(a) & a = b");
  CnfCache cache;
  GrounderOptions opts;
  auto cnf = cache.GetOrBuild(phi, Domain({"a", "b"}), opts, nullptr);
  ASSERT_TRUE(cnf.ok());
  const Grounding& g = (*cnf)->grounding->grounding;
  EXPECT_EQ(g.root, g.circuit.FalseNode());
  EXPECT_TRUE((*cnf)->components.empty());
}

TEST(CnfCacheTest, BudgetErrorIsCachedPerDomain) {
  Formula phi = *ParseSentence(
      "forall x, y, z: (R(x, y) & R(y, z)) -> (R(x, z) | S(x))");
  CnfCache cache;
  GrounderOptions opts;
  opts.max_nodes = 4;

  auto r1 = cache.GetOrBuild(phi, Domain({"a", "b", "c"}), opts, nullptr);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kResourceExhausted);
  // The error is remembered: a repeat lookup is a hit, not a re-build.
  auto r2 = cache.GetOrBuild(phi, Domain({"a", "b", "c"}), opts, nullptr);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CnfCacheTest, ConcurrentLookupsBuildOnce) {
  Formula phi = *ParseSentence("forall x, y: R(x, y) -> S(y, x)");
  CnfCache cache;
  GroundingCache ground_cache;
  GrounderOptions opts;
  std::vector<Value> domain = Domain({"a", "b", "c", "d"});

  constexpr size_t kLookups = 64;
  std::vector<std::shared_ptr<const FrozenCnf>> seen(kLookups);
  std::atomic<int> failures{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(kLookups, [&](size_t i, size_t) {
      auto r = cache.GetOrBuild(phi, domain, opts, &ground_cache);
      if (r.ok()) {
        seen[i] = *r;
      } else {
        ++failures;
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, kLookups - 1);
  EXPECT_EQ(ground_cache.stats().misses, 1u);
  for (size_t i = 1; i < kLookups; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get());
  }
}

}  // namespace
}  // namespace kbt::exec
