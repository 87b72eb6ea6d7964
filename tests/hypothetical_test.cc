#include "core/hypothetical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/parser.h"
#include "sat/solver.h"
#include "testutil.h"

namespace kbt {
namespace {

Knowledgebase RobotsKb() {
  Database has_v = *MakeDatabase({{"R1", 1}}, {{"R1", {{"v"}}}});
  Database has_w = *MakeDatabase({{"R1", 1}}, {{"R1", {{"w"}}}});
  return *Knowledgebase::FromDatabases({has_v, has_w});
}

TEST(CounterfactualTest, Example4RobotsQuery) {
  // "If V had landed, would W necessarily still be orbiting?" — no.
  Knowledgebase kb = RobotsKb();
  EXPECT_FALSE(*Counterfactual(kb, *ParseFormula("R1(v)"),
                               *ParseFormula("!R1(w)"),
                               Modality::kNecessarily));
  // But it is possible that W is still orbiting.
  EXPECT_TRUE(*Counterfactual(kb, *ParseFormula("R1(v)"),
                              *ParseFormula("!R1(w)"), Modality::kPossibly));
  // And V's landing is certain after the update (KM postulate (i)).
  EXPECT_TRUE(*Counterfactual(kb, *ParseFormula("R1(v)"), *ParseFormula("R1(v)"),
                              Modality::kNecessarily));
}

TEST(CounterfactualTest, ModalitiesDifferOnIndefiniteResults) {
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {});
  Formula a_or_b = *ParseFormula("P(a) | P(b)");
  EXPECT_FALSE(*Counterfactual(kb, a_or_b, *ParseFormula("P(a)"),
                               Modality::kNecessarily));
  EXPECT_TRUE(*Counterfactual(kb, a_or_b, *ParseFormula("P(a)"),
                              Modality::kPossibly));
  EXPECT_TRUE(*Counterfactual(kb, a_or_b, *ParseFormula("P(a) | P(b)"),
                              Modality::kNecessarily));
}

TEST(CounterfactualTest, InconsistentAntecedent) {
  // A contradictory antecedent empties the kb: necessity is vacuous, possibility
  // fails.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {{"P", {{"a"}}}});
  Formula bad = *ParseFormula("P(a) & !P(a)");
  EXPECT_TRUE(*Counterfactual(kb, bad, *ParseFormula("P(zz)"),
                              Modality::kNecessarily));
  EXPECT_FALSE(*Counterfactual(kb, bad, *ParseFormula("P(a)"),
                               Modality::kPossibly));
}

TEST(CounterfactualTest, RightNestedChain) {
  // (A > (B > C)) as τ_A then τ_B then check C — the note after Example 4.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {});
  std::vector<Formula> chain = {*ParseFormula("P(a)"), *ParseFormula("P(b)")};
  EXPECT_TRUE(*NestedCounterfactual(kb, chain, *ParseFormula("P(a) & P(b)"),
                                    Modality::kNecessarily));
  // Later antecedents can undo earlier ones; the chain order matters.
  std::vector<Formula> undo = {*ParseFormula("P(a)"), *ParseFormula("!P(a)")};
  EXPECT_FALSE(*NestedCounterfactual(kb, undo, *ParseFormula("P(a)"),
                                     Modality::kPossibly));
}

TEST(CounterfactualTest, EmptyChainIsModalQuery) {
  Knowledgebase kb = RobotsKb();
  EXPECT_TRUE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v) | R1(w)"),
                                    Modality::kNecessarily));
  EXPECT_FALSE(*NestedCounterfactual(kb, {}, *ParseFormula("R1(v)"),
                                     Modality::kNecessarily));
}

TEST(CounterfactualTest, ConsequentOverNewRelations) {
  // The consequent may mention a relation the antecedent introduced.
  Knowledgebase kb = *MakeSingletonKb({{"P", 1}}, {{"P", {{"a"}}}});
  EXPECT_TRUE(*Counterfactual(kb, *ParseFormula("Q(a, b)"),
                              *ParseFormula("Q(a, b)"), Modality::kNecessarily));
  // ...or one mentioned by neither: empty under CWA, handled by extension.
  EXPECT_FALSE(*Counterfactual(kb, *ParseFormula("Q(a, b)"),
                               *ParseFormula("Zed(a)"), Modality::kPossibly));
}

// ---------------------------------------------------------------------------
// NestedCounterfactualExec (the serving-path chain): equivalent to the plain
// NestedCounterfactual under every executor-state configuration.

/// Property: with or without borrowed per-step caches, a pinned solver/scratch
/// or a worker pool — and with state reused *across* calls, the serving shape —
/// the served chain evaluation answers whenever the plain one does, and agrees
/// with it. The served chain stops its last τ step at the first world that
/// decides the read, so the rounds mix in what that stop must get right:
/// multi-world kbs, antecedents with no models (necessarily is vacuously true,
/// possibly false) and consequents over a relation no step mentions.
TEST(CounterfactualTest, ExecChainEquivalentToPlainNestedCounterfactual) {
  std::mt19937_64 rng(19920615);
  testutil::RandomSentenceGenerator gen(&rng);
  std::uniform_int_distribution<int> chain_len(0, 2);
  std::bernoulli_distribution coin(0.5);
  std::bernoulli_distribution rare(0.15);
  const Formula no_models = *ParseFormula("P(a) & !P(a)");
  const Formula unmentioned = *ParseFormula("Zed(a)");

  // Session-pinned state, deliberately shared across all rounds (the serving
  // shape: one solver/scratch per session, one cache pair per sentence).
  sat::Solver solver;
  exec::WorldScratch scratch;
  exec::ThreadPool pool(2);
  std::vector<std::unique_ptr<exec::GroundingCache>> ground_caches;
  std::vector<std::unique_ptr<exec::CnfCache>> cnf_caches;
  size_t next_cache = 0;

  int multi_world = 0;
  int answered = 0;
  int vacuous = 0;
  for (int round = 0; round < 300; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    int len = chain_len(rng);
    std::vector<Formula> antecedents;
    bool with_caches = coin(rng);
    for (int i = 0; i < len; ++i) antecedents.push_back(gen.Generate(2));
    const bool inconsistent = rare(rng);
    if (inconsistent) antecedents.push_back(no_models);
    // Build steps only after `antecedents` is final — ChainStep borrows.
    std::vector<ChainStep> steps;
    next_cache = 0;  // Formulas are fresh per round; fresh caches match them.
    for (const Formula& f : antecedents) {
      ChainStep step;
      step.antecedent = &f;
      if (with_caches) {
        if (next_cache == ground_caches.size()) {
          ground_caches.push_back(std::make_unique<exec::GroundingCache>());
          cnf_caches.push_back(std::make_unique<exec::CnfCache>());
        } else {
          // Reused slots would pair a cache with a *different* sentence, which
          // the cache-sharing contract forbids — always take a fresh pair.
          ground_caches[next_cache] = std::make_unique<exec::GroundingCache>();
          cnf_caches[next_cache] = std::make_unique<exec::CnfCache>();
        }
        step.ground_cache = ground_caches[next_cache].get();
        step.cnf_cache = cnf_caches[next_cache].get();
        ++next_cache;
      }
      steps.push_back(step);
    }
    Formula consequent = gen.Generate(2);
    if (rare(rng)) {
      consequent = coin(rng) ? Or(consequent, unmentioned)
                             : And(consequent, Not(unmentioned));
    }
    Modality modality = coin(rng) ? Modality::kNecessarily : Modality::kPossibly;

    auto expected = NestedCounterfactual(kb, antecedents, consequent, modality);
    if (!expected.ok()) continue;  // The contract binds only answered reads.
    ++answered;
    // The short-circuit runs on the last step's input: the kb τ'd by every
    // antecedent before it.
    Knowledgebase last_input = kb;
    for (size_t i = 0; i + 1 < antecedents.size(); ++i) {
      last_input = *Tau(antecedents[i], last_input);
    }
    if (!antecedents.empty() && last_input.size() > 1) ++multi_world;
    if (inconsistent) {
      ++vacuous;
      EXPECT_EQ(*expected, modality == Modality::kNecessarily);
    }

    TauOptions options;
    if (coin(rng)) {
      options.solver = &solver;
      options.scratch = &scratch;
    } else if (coin(rng)) {
      options.threads = 2;
      options.pool = &pool;
    }
    auto served =
        NestedCounterfactualExec(kb, steps, consequent, modality, options);
    ASSERT_TRUE(served.ok()) << "round " << round << ": "
                             << served.status().message();
    EXPECT_EQ(*served, *expected)
        << "round " << round << " caches=" << with_caches
        << " threads=" << options.threads;
  }
  EXPECT_GE(answered, 250);
  EXPECT_GE(vacuous, 20);
  EXPECT_GE(multi_world, 100);
}

TEST(CounterfactualTest, ExecEmptyChainIsModalQuery) {
  Knowledgebase kb = RobotsKb();
  TauOptions options;
  EXPECT_TRUE(*NestedCounterfactualExec(kb, {}, *ParseFormula("R1(v) | R1(w)"),
                                        Modality::kNecessarily, options));
  EXPECT_FALSE(*NestedCounterfactualExec(kb, {}, *ParseFormula("R1(v)"),
                                         Modality::kNecessarily, options));
}

// ---------------------------------------------------------------------------
// Many-world reads in the shape of perfbench's worldset_read, built here: the
// benchmark checks its answers against a server running this same code, so
// only a comparison with the plain evaluation can catch a wrong early stop.

constexpr int kDeltaDomain = 6;

std::string DeltaConst(int i) { return "n" + std::to_string(i); }

/// 64 worlds over {Dom, R, P}, each flipping a distinct pair of R cells of one
/// base; P is one set shared by all worlds.
Knowledgebase DeltaKb(std::mt19937_64* rng) {
  Schema schema = *Schema::Of({{"Dom", 1}, {"R", 2}, {"P", 1}});
  const int cells = kDeltaDomain * kDeltaDomain;
  std::bernoulli_distribution dense(0.35);
  std::bernoulli_distribution half(0.5);
  std::uniform_int_distribution<int> cell(0, cells - 1);
  std::vector<bool> base(cells);
  for (int c = 0; c < cells; ++c) base[c] = dense(*rng);
  Relation::Builder dom(1);
  Relation::Builder p(1);
  for (int i = 0; i < kDeltaDomain; ++i) {
    dom.Append({Name(DeltaConst(i))});
    if (half(*rng)) p.Append({Name(DeltaConst(i))});
  }
  Relation dom_rel = dom.Build();
  Relation p_rel = p.Build();
  std::set<std::pair<int, int>> flips;
  std::vector<Database> dbs;
  while (dbs.size() < 64) {
    int a = cell(*rng);
    int b = cell(*rng);
    if (a == b || !flips.insert({std::min(a, b), std::max(a, b)}).second) {
      continue;
    }
    std::vector<bool> world = base;
    world[a] = !world[a];
    world[b] = !world[b];
    Relation::Builder r(2);
    for (int c = 0; c < cells; ++c) {
      if (world[c]) {
        r.Append({Name(DeltaConst(c / kDeltaDomain)),
                  Name(DeltaConst(c % kDeltaDomain))});
      }
    }
    dbs.push_back(*Database::Create(schema, {dom_rel, r.Build(), p_rel}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// A ground literal over P/1, R/2 or S/2 (S is new to the kb).
std::string DeltaLiteral(std::mt19937_64* rng) {
  const std::pair<const char*, int> rels[] = {{"P", 1}, {"R", 2}, {"S", 2}};
  std::uniform_int_distribution<int> rel(0, 2);
  std::uniform_int_distribution<int> constant(0, kDeltaDomain - 1);
  std::bernoulli_distribution negate(0.5);
  auto [name, arity] = rels[rel(*rng)];
  std::string literal = negate(*rng) ? "!" : "";
  literal += std::string(name) + "(";
  for (int a = 0; a < arity; ++a) {
    if (a > 0) literal += ", ";
    literal += DeltaConst(constant(*rng));
  }
  return literal + ")";
}

/// The sentence that forces μ onto the SAT strategy.
constexpr const char* kOrient =
    "(forall x, y: (R(x, y) & !R(y, x)) -> (S(x, y) & !S(y, x)))";

TEST(CounterfactualTest, ExecManyWorldReadsMatchPlainAndStopEarly) {
  std::mt19937_64 rng(20260808);
  Knowledgebase kb = DeltaKb(&rng);
  ASSERT_EQ(kb.size(), 64u);
  sat::Solver solver;
  exec::WorldScratch scratch;
  exec::ThreadPool pool(2);
  int answers[2][2] = {};  // [necessarily][answer]
  for (int read = 0; read < 200; ++read) {
    Formula read_antecedent = *ParseFormula(std::string(kOrient) + " & " +
                                            DeltaLiteral(&rng) + " & " +
                                            DeltaLiteral(&rng));
    Formula consequent = *ParseFormula(DeltaLiteral(&rng));
    const bool necessarily = read / 2 % 2 == 0;
    Modality modality =
        necessarily ? Modality::kNecessarily : Modality::kPossibly;
    auto expected =
        NestedCounterfactual(kb, {read_antecedent}, consequent, modality);
    ASSERT_TRUE(expected.ok()) << expected.status().message();

    // The serving shape: per-sentence caches, and either the session-pinned
    // solver or the read pool.
    exec::GroundingCache ground_cache;
    exec::CnfCache cnf_cache;
    ChainStep step{&read_antecedent, &ground_cache, &cnf_cache};
    TauOptions options;
    if (read % 2 == 0) {
      options.solver = &solver;
      options.scratch = &scratch;
    } else {
      options.threads = 2;
      options.pool = &pool;
    }
    auto served =
        NestedCounterfactualExec(kb, {step}, consequent, modality, options);
    ASSERT_TRUE(served.ok()) << served.status().message();
    EXPECT_EQ(*served, *expected) << "read " << read;
    ++answers[necessarily][*expected];
  }
  // Both answers occur in both modalities, so both the early stop and the
  // full scan are exercised either way.
  for (const auto& modality : answers) {
    EXPECT_GT(modality[0], 10);
    EXPECT_GT(modality[1], 10);
  }

  // P(n0) holds in every world after the update (KM postulate (i)), so this
  // read has to visit all 64; its negation fails in the first world.
  Formula antecedent =
      *ParseFormula(std::string(kOrient) + " & P(n0) & !S(n1, n2)");
  ChainStep step{&antecedent};
  TauStats scan;
  auto holds = NestedCounterfactualExec(kb, {step}, *ParseFormula("P(n0)"),
                                        Modality::kNecessarily, TauOptions(),
                                        &scan);
  ASSERT_TRUE(holds.ok()) << holds.status().message();
  EXPECT_TRUE(*holds);
  TauStats stop;
  auto fails = NestedCounterfactualExec(kb, {step}, *ParseFormula("!P(n0)"),
                                        Modality::kNecessarily, TauOptions(),
                                        &stop);
  ASSERT_TRUE(fails.ok()) << fails.status().message();
  EXPECT_FALSE(*fails);

  EXPECT_GT(stop.mu.sat_solve_calls, 0u);
  EXPECT_LT(stop.mu.sat_solve_calls, scan.mu.sat_solve_calls);
  // The stats cover exactly the worlds evaluated: every world shares one
  // active domain, so each visit is one CNF-prefix lookup.
  EXPECT_EQ(scan.input_databases, 64u);
  EXPECT_EQ(stop.input_databases, 64u);
  EXPECT_EQ(scan.cnf_cache_misses, 1u);
  EXPECT_EQ(scan.cnf_cache_hits, 63u);
  EXPECT_EQ(stop.cnf_cache_misses, 1u);
  EXPECT_EQ(stop.cnf_cache_hits, 0u);
  EXPECT_EQ(stop.threads_used, 1u);
}

}  // namespace
}  // namespace kbt
