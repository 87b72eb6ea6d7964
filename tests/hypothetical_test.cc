#include "core/hypothetical.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/mu_internal.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/parser.h"
#include "logic/printer.h"
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
// Many-world reads in the shape of perfbench's worldset_read (testutil.h):
// the benchmark checks its answers against a server running this same code,
// so only a comparison with the plain evaluation can catch a wrong early stop.

using testutil::DeltaKb;
using testutil::DeltaLiteral;
using testutil::kOrient;

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

// ---------------------------------------------------------------------------
// Split antecedents: core ∧ ground literals, the SAT strategy forking the
// core's frozen encoding and adding the literals on top.

/// The literal `relation(args)` or its negation.
Formula GroundLiteral(const std::string& relation,
                      const std::vector<std::string>& args, bool positive) {
  std::vector<Term> terms;
  for (const std::string& a : args) terms.push_back(Term::Const(a));
  Formula atom = Atom(relation, std::move(terms));
  return positive ? atom : Not(atom);
}

/// Ground literals over P/1, Q/2 (old) and L/1 (new to every kb here), one
/// kind at a time: an atom the core's grounding mentions, an arbitrary old
/// atom, a new-relation atom, a contradictory pair, or an atom over a
/// constant no kb or core uses. Kinds are counted by what the split actually
/// meets (see SplitLiteralKinds), not by what was drawn here.
class LiteralSource {
 public:
  explicit LiteralSource(std::mt19937_64* rng) : rng_(rng) {}

  /// Appends one to two literals of a random kind to `out`. `mentioned` are
  /// atoms the core's grounding mentions.
  void Draw(const std::vector<GroundAtom>& mentioned,
            std::vector<Formula>* out) {
    std::uniform_int_distribution<int> kind(0, 4);
    switch (kind(*rng_)) {
      case 0:
        if (!mentioned.empty()) {
          std::uniform_int_distribution<size_t> pick(0, mentioned.size() - 1);
          const GroundAtom& atom = mentioned[pick(*rng_)];
          std::vector<Term> terms;
          for (Value v : atom.tuple.values()) terms.push_back(Term::Const(v));
          Formula f = Atom(atom.relation, std::move(terms));
          out->push_back(coin_(*rng_) ? f : Not(f));
          return;
        }
        [[fallthrough]];
      case 1:
        out->push_back(Old(Constant(), Constant()));
        return;
      case 2:
        out->push_back(GroundLiteral("L", {Constant()}, coin_(*rng_)));
        return;
      case 3: {
        Formula f = coin_(*rng_) ? Old(Constant(), Constant())
                                 : GroundLiteral("L", {Constant()}, true);
        out->push_back(f);
        out->push_back(f->kind() == FormulaKind::kNot ? f->children()[0]
                                                      : Not(f));
        return;
      }
      default:
        out->push_back(coin_(*rng_) ? Old(Constant(), "fresh")
                                    : GroundLiteral("L", {"fresh"},
                                                    coin_(*rng_)));
        return;
    }
  }

 private:
  std::string Constant() {
    const std::vector<std::string>& names = testutil::TestConstants();
    std::uniform_int_distribution<size_t> pick(0, names.size() - 1);
    return names[pick(*rng_)];
  }
  Formula Old(const std::string& x, const std::string& y) {
    return coin_(*rng_) ? GroundLiteral("P", {y}, coin_(*rng_))
                        : GroundLiteral("Q", {x, y}, coin_(*rng_));
  }

  std::mt19937_64* rng_;
  std::bernoulli_distribution coin_{0.5};
};

/// Counts of the literal kinds a split met, for coverage asserts.
struct SplitLiteralKinds {
  int mentioned = 0;     ///< On an atom the core's grounding mentions.
  int old_free = 0;      ///< Elsewhere, on an old relation.
  int new_positive = 0;  ///< Elsewhere, on a new relation, positive...
  int new_negative = 0;  ///< ...and negative.
  int contradictory = 0;  ///< Splits holding some literal and its negation.
  int fresh = 0;         ///< Over a constant outside adom(db) ∪ consts(core).

  /// Classifies `split`'s literals against the core's grounding over the
  /// domain μ(φ, db) works on.
  void Count(const GroundLiteralSplit& split, const Formula& sentence,
             const Database& db) {
    UpdateContext ctx = *MakeUpdateContext(sentence, db);
    auto g = *exec::MakeCachedGrounding(split.core, ctx.domain,
                                        GrounderOptions());
    std::vector<Value> adom = MakeUpdateContext(split.core, db)->domain;
    std::set<std::string> seen;
    bool contradiction = false;
    for (const Formula& literal : split.literals) {
      bool positive = literal->kind() == FormulaKind::kAtom;
      const Formula& atom = positive ? literal : literal->children()[0];
      std::vector<Value> args;
      for (const Term& t : atom->terms()) args.push_back(t.symbol);
      for (Value v : args) {
        if (!std::binary_search(adom.begin(), adom.end(), v)) ++fresh;
      }
      GroundAtom ground{atom->relation(), Tuple(std::move(args))};
      std::string key = ground.ToString();
      contradiction |= seen.count((positive ? "-" : "+") + key) > 0;
      seen.insert((positive ? "+" : "-") + key);
      int id = g->grounding.atoms.Find(ground);
      if (id >= 0 && std::binary_search(g->mentioned.begin(),
                                        g->mentioned.end(), id)) {
        ++mentioned;
      } else if (db.schema().Contains(atom->relation())) {
        ++old_free;
      } else {
        ++(positive ? new_positive : new_negative);
      }
    }
    contradictory += contradiction;
  }
};

/// A random sentence with a variable, so that it can be a split's core.
Formula NonGroundCore(testutil::RandomSentenceGenerator* gen) {
  Formula f = gen->Generate(2);
  while (IsGround(f)) f = gen->Generate(2);
  return f;
}

/// Atoms the grounding of `core` over its own domain on `db` mentions.
std::vector<GroundAtom> MentionedAtoms(const Formula& core,
                                       const Database& db) {
  UpdateContext ctx = *MakeUpdateContext(core, db);
  auto g = *exec::MakeCachedGrounding(core, ctx.domain, GrounderOptions());
  std::vector<GroundAtom> out;
  for (int id : g->mentioned) out.push_back(g->grounding.atoms.AtomOf(id));
  return out;
}

/// Property: μ on a split sentence — the SAT strategy grounding and encoding
/// only the core, through caches that every literal set of that core shares,
/// and adding the literals on top — equals μ of the whole sentence, by the
/// reference enumeration wherever its grounding has ≤ 20 atoms and by the
/// unsplit SAT strategy beyond that. The literals cover every kind the split
/// tells apart (LiteralSource).
TEST(CounterfactualTest, SplitMuEqualsUnsplitMu) {
  std::mt19937_64 rng(1992);
  testutil::RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.15);
  LiteralSource literals(&rng);
  std::bernoulli_distribution coin(0.5);
  sat::Solver solver;
  exec::WorldScratch scratch;
  SplitLiteralKinds kinds;
  int against_reference = 0;
  int no_models = 0;
  int compared = 0;
  for (int round = 0; round < 100; ++round) {
    Formula core = NonGroundCore(&gen);
    Database db = testutil::RandomDatabase(&rng);
    std::vector<GroundAtom> mentioned = MentionedAtoms(core, db);
    // One cache pair per core, shared by all of its literal sets.
    exec::GroundingCache ground_cache;
    exec::CnfCache cnf_cache;
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<Formula> conjuncts = {core};
      const int draws = 1 + variant % 2;
      for (int d = 0; d < draws; ++d) literals.Draw(mentioned, &conjuncts);
      Formula sentence = And(conjuncts);
      std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
      ASSERT_TRUE(split.has_value()) << ToString(sentence);

      MuOptions reference;
      reference.strategy = MuStrategy::kReference;
      StatusOr<Knowledgebase> expected = Mu(sentence, db, reference);
      if (expected.ok()) {
        ++against_reference;
      } else {
        ASSERT_EQ(expected.status().code(), StatusCode::kResourceExhausted);
        MuOptions sat;
        sat.strategy = MuStrategy::kSat;
        expected = Mu(sentence, db, sat);
        ASSERT_TRUE(expected.ok()) << expected.status().message();
      }

      MuOptions options;
      options.strategy = MuStrategy::kSat;
      internal::MuExecContext exec;
      exec.split = &*split;
      exec.ground_cache = &ground_cache;
      exec.cnf_cache = &cnf_cache;
      if (coin(rng)) {
        exec.solver = &solver;
        exec.scratch = &scratch;
      }
      MuStats stats;
      auto got = internal::MuExec(sentence, db, options, &stats, exec);
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(*got, *expected) << "round " << round << ": "
                                 << ToString(sentence);
      EXPECT_EQ(stats.used, MuStrategy::kSat);
      kinds.Count(*split, sentence, db);
      no_models += expected->empty();
      ++compared;
    }
    // Every literal set forked the one core entry of its domain.
    EXPECT_GT(cnf_cache.stats().misses, 0u);
  }
  EXPECT_GE(compared, 300);
  EXPECT_GE(against_reference, 200);
  EXPECT_GE(no_models, 20);
  EXPECT_GE(kinds.mentioned, 50);
  EXPECT_GE(kinds.old_free, 20);
  EXPECT_GE(kinds.new_positive, 20);
  EXPECT_GE(kinds.new_negative, 20);
  EXPECT_GE(kinds.contradictory, 20);
  EXPECT_GE(kinds.fresh, 20);
}

/// Property: chains of split antecedents evaluate like the unsplit chain.
/// The first step's τ result — the kb the second step updates — equals plain
/// Tau bit for bit, and the served answer equals plain NestedCounterfactual,
/// with each core's caches shared by reads that differ only in literals.
TEST(CounterfactualTest, SplitChainsMatchPlainNestedCounterfactual) {
  std::mt19937_64 rng(20261017);
  testutil::RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.15);
  LiteralSource literals(&rng);
  std::bernoulli_distribution coin(0.5);
  sat::Solver solver;
  exec::WorldScratch scratch;
  exec::ThreadPool pool(2);
  int answered = 0;
  int multi_world = 0;
  for (int round = 0; round < 60; ++round) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Formula cores[2] = {NonGroundCore(&gen), NonGroundCore(&gen)};
    std::vector<GroundAtom> mentioned = MentionedAtoms(cores[0], kb.World(0));
    exec::GroundingCache ground_caches[2];
    exec::CnfCache cnf_caches[2];
    for (int read = 0; read < 3; ++read) {
      Formula antecedents[2];
      std::optional<GroundLiteralSplit> splits[2];
      std::vector<ChainStep> steps;
      for (int i = 0; i < 2; ++i) {
        std::vector<Formula> conjuncts = {cores[i]};
        literals.Draw(mentioned, &conjuncts);
        antecedents[i] = And(conjuncts);
        splits[i] = SplitGroundLiterals(antecedents[i]);
        ASSERT_TRUE(splits[i].has_value());
      }
      for (int i = 0; i < 2; ++i) {
        steps.push_back(ChainStep{&antecedents[i], &ground_caches[i],
                                  &cnf_caches[i], &*splits[i]});
      }
      Formula consequent = gen.Generate(2);
      Modality modality =
          coin(rng) ? Modality::kNecessarily : Modality::kPossibly;
      auto plain_first = Tau(antecedents[0], kb);
      auto expected = NestedCounterfactual(
          kb, {antecedents[0], antecedents[1]}, consequent, modality);
      if (!plain_first.ok() || !expected.ok()) continue;
      ++answered;
      multi_world += plain_first->size() > 1;

      TauOptions options;
      if (coin(rng)) {
        options.solver = &solver;
        options.scratch = &scratch;
      } else {
        options.threads = 2;
        options.pool = &pool;
      }
      TauOptions first_options = options;
      first_options.ground_cache = &ground_caches[0];
      first_options.cnf_cache = &cnf_caches[0];
      auto split_first = internal::TauExec(antecedents[0], &*splits[0], kb,
                                           first_options, nullptr);
      ASSERT_TRUE(split_first.ok()) << split_first.status().message();
      EXPECT_EQ(*split_first, *plain_first)
          << "round " << round << ": " << ToString(antecedents[0]);

      auto served =
          NestedCounterfactualExec(kb, steps, consequent, modality, options);
      ASSERT_TRUE(served.ok()) << served.status().message();
      EXPECT_EQ(*served, *expected)
          << "round " << round << ": " << ToString(antecedents[0]) << " > "
          << ToString(antecedents[1]) << " > " << ToString(consequent);
    }
  }
  EXPECT_GE(answered, 100);
  EXPECT_GE(multi_world, 30);
}

/// Only the SAT strategy reads a split: a split sentence planned as Datalog,
/// or sent to the reference enumeration, is evaluated whole and never touches
/// the core's caches. (A definitional sentence has no ground-literal
/// conjunct, so it never splits.)
TEST(CounterfactualTest, SplitSentenceOffTheSatPathLeavesCoreCachesAlone) {
  std::mt19937_64 rng(7);
  Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
  struct Case {
    const char* sentence;
    MuStrategy strategy;
    MuStrategy used;
  };
  const Case cases[] = {
      {"(forall x: P(x) -> H(x)) & H(fresh) & L(a)", MuStrategy::kAuto,
       MuStrategy::kDatalog},
      {"(forall x: P(x) -> Q(x, x)) & !P(a) & L(b)", MuStrategy::kReference,
       MuStrategy::kReference},
  };
  for (const Case& c : cases) {
    Formula sentence = *ParseFormula(c.sentence);
    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
    ASSERT_TRUE(split.has_value()) << c.sentence;
    exec::GroundingCache ground_cache;
    exec::CnfCache cnf_cache;
    TauOptions options;
    options.mu.strategy = c.strategy;
    options.ground_cache = &ground_cache;
    options.cnf_cache = &cnf_cache;
    TauStats stats;
    auto split_tau = internal::TauExec(sentence, &*split, kb, options, &stats);
    ASSERT_TRUE(split_tau.ok()) << split_tau.status().message();
    EXPECT_EQ(stats.mu.used, c.used) << c.sentence;
    MuOptions plain;
    plain.strategy = c.strategy;
    EXPECT_EQ(*split_tau, *Tau(sentence, kb, plain)) << c.sentence;
    EXPECT_EQ(ground_cache.entries(), 0u) << c.sentence;
    EXPECT_EQ(cnf_cache.entries(), 0u) << c.sentence;
    EXPECT_EQ(ground_cache.stats().misses + ground_cache.stats().hits, 0u);
    EXPECT_EQ(cnf_cache.stats().misses + cnf_cache.stats().hits, 0u);
  }
}

}  // namespace
}  // namespace kbt
