/// \file
/// Tests for μ/SAT over atom-disjoint components: a grounding whose root
/// conjuncts fall into atom-disjoint groups is encoded one frozen prefix per
/// group, μ is the product of the groups' minimal-model sets, and each
/// group's models are memoized in the shared CNF entry under the world
/// content they depend on.
///
///   * EQUIVALENCE — on random sentences built to decompose (per-group
///     relations, literal units, new relations), μ/SAT through shared caches
///     and through plain Mu() equals the reference enumeration.
///   * MEMO — components the default world satisfies need no search; a
///     repeated call makes no solver calls, also over thousands of
///     components; a many-world τ makes fewer than worlds × components;
///     budget trips store nothing; the memo stays inside its fixed bound and
///     is billed in approx_bytes.
///   * CONCURRENCY — parallel τ calls fill and hit one entry's memos (runs
///     under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/kbt.h"
#include "core/mu_internal.h"
#include "core/tau.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "exec/pool.h"
#include "exec/scratch.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "testutil.h"

namespace kbt {
namespace {

using testutil::KbAsStrings;

constexpr int kGroups = 3;

/// Dom = {a, b, c} and random contents for the per-group relations Pg/1 and
/// Qg/2, g < kGroups. The new relation Ng/1 of each group is absent.
Database GroupDatabase(std::mt19937_64* rng) {
  std::bernoulli_distribution coin(0.5);
  static_assert(kGroups == 3);
  Database db(*Schema::Of({{"Dom", 1}, {"P0", 1}, {"Q0", 2}, {"P1", 1},
                           {"Q1", 2}, {"P2", 1}, {"Q2", 2}}));
  std::vector<Tuple> dom;
  for (const std::string& x : testutil::TestConstants()) dom.push_back({Name(x)});
  db = *db.WithRelation("Dom", Relation(1, std::move(dom)));
  for (int g = 0; g < kGroups; ++g) {
    std::vector<Tuple> p, q;
    for (const std::string& x : testutil::TestConstants()) {
      if (coin(*rng)) p.push_back({Name(x)});
      for (const std::string& y : testutil::TestConstants()) {
        if (coin(*rng)) q.push_back({Name(x), Name(y)});
      }
    }
    db = *db.WithRelation("P" + std::to_string(g), Relation(1, std::move(p)));
    db = *db.WithRelation("Q" + std::to_string(g), Relation(2, std::move(q)));
  }
  return db;
}

/// `f` (over P/1, Q/2 and the new N/1) with its relations renamed to group
/// g's: Pg, Qg, Ng. Groups share no relation, hence no ground atom.
Formula InGroup(const Formula& f, int g) {
  std::string text = ToString(f);
  std::string out;
  for (size_t i = 0; i < text.size(); ++i) {
    out += text[i];
    const bool relation = (text[i] == 'P' || text[i] == 'Q' || text[i] == 'N') &&
                          i + 1 < text.size() && text[i + 1] == '(' &&
                          (i == 0 || !std::isalnum(static_cast<unsigned char>(
                                         text[i - 1])));
    if (relation) out += std::to_string(g);
  }
  return *ParseSentence(out);
}

/// The grounding μ(φ, db) would encode for the split core, over φ's domain.
std::shared_ptr<const exec::FrozenCnf> CoreCnf(const Formula& sentence,
                                               const Formula& core,
                                               const Database& db) {
  UpdateContext ctx = *MakeUpdateContext(sentence, db);
  return *exec::MakeFrozenCnf(core, ctx.domain, GrounderOptions(), nullptr);
}

/// Appends 1–3 literals: on atoms the core mentions (units of their
/// components) or on a group's new relation outside the grounding.
void DrawLiterals(const exec::FrozenCnf& cnf, std::mt19937_64* rng,
                  std::vector<Formula>* out) {
  std::uniform_int_distribution<int> count(1, 3);
  std::bernoulli_distribution coin(0.5);
  const std::vector<int>& mentioned = cnf.grounding->mentioned;
  for (int n = count(*rng); n > 0; --n) {
    Formula atom;
    if (!mentioned.empty() && coin(*rng)) {
      std::uniform_int_distribution<size_t> pick(0, mentioned.size() - 1);
      const GroundAtom& a = cnf.grounding->grounding.atoms.AtomOf(
          mentioned[pick(*rng)]);
      std::vector<Term> terms;
      for (Value v : a.tuple.values()) terms.push_back(Term::Const(v));
      atom = Atom(a.relation, std::move(terms));
    } else {
      std::uniform_int_distribution<int> group(0, kGroups - 1);
      std::uniform_int_distribution<size_t> c(
          0, testutil::TestConstants().size() - 1);
      atom = Atom("N" + std::to_string(group(*rng)),
                  {Term::Const(testutil::TestConstants()[c(*rng)])});
    }
    out->push_back(coin(*rng) ? atom : Not(atom));
  }
}

/// Property: on sentences built to decompose — 2–3 random per-group
/// sentences, so components never span groups, plus ground literals — μ/SAT
/// equals the reference enumeration both through shared caches with the
/// literals split off as units (each case run twice, the second time from
/// the memos) and through plain Mu() on the whole sentence.
TEST(MuComponentTest, ProductMatchesReferenceOnDecomposableSentences) {
  std::mt19937_64 rng(20261018);
  testutil::RandomSentenceGenerator gen(&rng, /*new_relation_prob=*/0.4);
  std::uniform_int_distribution<int> groups(2, kGroups);
  int compared = 0;
  int multi_component = 0;
  int multi_model = 0;
  int with_units = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<Formula> parts;
    for (int g = groups(rng) - 1; g >= 0; --g) {
      Formula f = gen.Generate(2);
      while (IsGround(f)) f = gen.Generate(2);
      parts.push_back(InGroup(f, g));
    }
    Formula core = And(parts);
    exec::GroundingCache ground_cache;
    exec::CnfCache cnf_cache;
    for (int variant = 0; variant < 4; ++variant) {
      Database db = GroupDatabase(&rng);
      std::shared_ptr<const exec::FrozenCnf> cnf = CoreCnf(core, core, db);
      std::vector<Formula> conjuncts = {core};
      DrawLiterals(*cnf, &rng, &conjuncts);
      Formula sentence = And(conjuncts);
      std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
      ASSERT_TRUE(split.has_value()) << ToString(sentence);

      MuOptions reference;
      reference.strategy = MuStrategy::kReference;
      StatusOr<Knowledgebase> expected = Mu(sentence, db, reference);
      if (!expected.ok()) {
        ASSERT_EQ(expected.status().code(), StatusCode::kResourceExhausted);
        continue;
      }
      MuOptions sat;
      sat.strategy = MuStrategy::kSat;
      StatusOr<Knowledgebase> plain = Mu(sentence, db, sat);
      ASSERT_TRUE(plain.ok()) << plain.status();
      EXPECT_EQ(KbAsStrings(*plain), KbAsStrings(*expected))
          << ToString(sentence) << "\ndb = " << db.ToString();
      internal::MuExecContext exec;
      exec.split = &*split;
      exec.ground_cache = &ground_cache;
      exec.cnf_cache = &cnf_cache;
      for (int pass = 0; pass < 2; ++pass) {
        MuStats stats;
        StatusOr<Knowledgebase> got =
            internal::MuExec(sentence, db, sat, &stats, exec);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(KbAsStrings(*got), KbAsStrings(*expected))
            << "pass " << pass << ": " << ToString(sentence)
            << "\ndb = " << db.ToString();
        // The repeat is answered from the memos alone.
        if (pass == 1) {
          EXPECT_EQ(stats.sat_solve_calls, 0u);
        }
      }
      ++compared;
      std::shared_ptr<const exec::FrozenCnf> whole =
          CoreCnf(sentence, split->core, db);
      multi_component += whole->components.size() >= 2;
      // ≥ 2 product models means some component holds ≥ 2 of its own.
      multi_model += whole->components.size() >= 2 && expected->size() >= 2;
      with_units += std::any_of(
          split->literals.begin(), split->literals.end(),
          [&](const Formula& l) {
            const Formula& atom =
                l->kind() == FormulaKind::kAtom ? l : l->children()[0];
            std::vector<Value> args;
            for (const Term& t : atom->terms()) args.push_back(t.symbol);
            int id = whole->grounding->grounding.atoms.Find(
                GroundAtom{atom->relation(), Tuple(std::move(args))});
            return id >= 0 && !whole->components.empty() &&
                   whole->atom_component[static_cast<size_t>(id)] >= 0;
          });
    }
  }
  // Seeded: 400 compared, 272 split, 57 with ≥ 2 product models, 236 with
  // a unit. The floors keep the generator from drifting into trivial cases.
  EXPECT_GE(compared, 380);
  EXPECT_GE(multi_component, 240);
  EXPECT_GE(multi_model, 45);
  EXPECT_GE(with_units, 200);
}

/// A Delta-shaped kb (testutil::DeltaKb: 64 worlds over six constants) and
/// the orient sentence, which forces the SAT strategy.
struct OrientCase {
  Knowledgebase kb;
  Formula phi;
};

OrientCase Orient() {
  std::mt19937_64 rng(20261018);
  return {testutil::DeltaKb(&rng), *ParseSentence(testutil::kOrient)};
}

/// Orient grounds to one conjunct per ordered pair of distinct constants;
/// (x, y) and (y, x) share their four R/S atoms and no other pair does.
TEST(MuComponentTest, OrientSplitsIntoOneComponentPerConstantPair) {
  OrientCase c = Orient();
  Database world = c.kb.World(0);
  std::shared_ptr<const exec::FrozenCnf> cnf = CoreCnf(c.phi, c.phi, world);
  const size_t pairs = testutil::kDeltaDomain * (testutil::kDeltaDomain - 1) / 2;
  ASSERT_EQ(cnf->components.size(), pairs);
  size_t atoms = 0;
  for (size_t i = 0; i < cnf->components.size(); ++i) {
    const exec::CnfComponent& component = cnf->components[i];
    EXPECT_EQ(component.atoms.size(), 4u);
    for (int a : component.atoms) {
      EXPECT_EQ(cnf->atom_component[static_cast<size_t>(a)],
                static_cast<int>(i));
    }
    atoms += component.atoms.size();
  }
  EXPECT_EQ(atoms, cnf->grounding->mentioned.size());
}

/// Unordered pairs {x, y} with exactly one of R(x, y), R(y, x) in `db`: the
/// orient components the default world (S empty) violates. Every other
/// component has the default as its one minimal model.
size_t OneWayPairs(const Database& db) {
  const Relation* r = db.FindRelation(Name("R"));
  std::set<std::pair<Value, Value>> edges;
  for (TupleView t : *r) edges.insert({t[0], t[1]});
  size_t pairs = 0;
  for (const auto& [x, y] : edges) {
    if (x != y && edges.count({y, x}) == 0) ++pairs;
  }
  return pairs;
}

/// The orient components of `world` that the default violates: each one is
/// searched once and memoized; the rest are answered without a solver and
/// leave no memo entry. A repeat through the same CnfCache is answered from
/// the memo, and the first call reports the solver work of every component
/// fork, not just the last one's.
TEST(MuComponentTest, RepeatedCallThroughOneCnfCacheMakesNoSolves) {
  OrientCase c = Orient();
  Knowledgebase one = *Knowledgebase::FromDatabases({c.kb.World(0)});
  exec::GroundingCache ground_cache;
  exec::CnfCache cnf_cache;
  TauOptions options;
  options.mu.strategy = MuStrategy::kSat;
  options.ground_cache = &ground_cache;
  options.cnf_cache = &cnf_cache;
  TauStats first;
  TauStats second;
  StatusOr<Knowledgebase> a = Tau(c.phi, one, options, &first);
  StatusOr<Knowledgebase> b = Tau(c.phi, one, options, &second);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, *Mu(c.phi, c.kb.World(0)));
  // Each violated component is searched once, with a probe that finds a
  // model and one that proves the rest blocked.
  const size_t searched = OneWayPairs(c.kb.World(0));
  ASSERT_GE(searched, 2u);
  EXPECT_GE(first.mu.sat_solve_calls, 2 * searched);
  EXPECT_EQ(second.mu.sat_solve_calls, 0u);
  EXPECT_EQ(second.mu.sat_decisions, 0u);
  UpdateContext ctx = *MakeUpdateContext(c.phi, c.kb.World(0));
  std::shared_ptr<const exec::FrozenCnf> cnf = *cnf_cache.GetOrBuild(
      c.phi, ctx.domain, GrounderOptions(), &ground_cache);
  EXPECT_EQ(cnf->memo.entries(), searched);
  EXPECT_LT(searched, cnf->components.size());
}

/// Orient over 120 constants: 7140 components, more than the memo could
/// hold if its bound were split into per-component shares. One bound for
/// the whole entry keeps every searched component's answer, so a repeat of
/// the τ call makes no solver calls.
TEST(MuComponentTest, ThousandsOfComponentsShareOneMemoBound) {
  constexpr int kConstants = 120;
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> constant(0, kConstants - 1);
  std::vector<Tuple> dom;
  std::vector<Tuple> edges;
  for (int i = 0; i < kConstants; ++i) dom.push_back({Name("k" + std::to_string(i))});
  for (int e = 0; e < 3 * kConstants; ++e) {
    edges.push_back({Name("k" + std::to_string(constant(rng))),
                     Name("k" + std::to_string(constant(rng)))});
  }
  Database db(*Schema::Of({{"Dom", 1}, {"R", 2}}));
  db = *db.WithRelation("Dom", Relation(1, std::move(dom)));
  db = *db.WithRelation("R", Relation(2, std::move(edges)));
  Knowledgebase one = *Knowledgebase::FromDatabases({db});
  Formula phi = *ParseSentence(testutil::kOrient);
  exec::GroundingCache ground_cache;
  exec::CnfCache cnf_cache;
  TauOptions options;
  options.mu.strategy = MuStrategy::kSat;
  options.ground_cache = &ground_cache;
  options.cnf_cache = &cnf_cache;
  TauStats first;
  TauStats second;
  StatusOr<Knowledgebase> a = Tau(phi, one, options, &first);
  StatusOr<Knowledgebase> b = Tau(phi, one, options, &second);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(*a, *b);
  UpdateContext ctx = *MakeUpdateContext(phi, db);
  std::shared_ptr<const exec::FrozenCnf> cnf = *cnf_cache.GetOrBuild(
      phi, ctx.domain, GrounderOptions(), &ground_cache);
  ASSERT_EQ(cnf->components.size(), size_t{kConstants * (kConstants - 1) / 2});
  const size_t searched = OneWayPairs(db);
  EXPECT_GT(searched, 300u);
  EXPECT_EQ(cnf->memo.entries(), searched);
  EXPECT_GT(first.mu.sat_solve_calls, 0u);
  EXPECT_EQ(second.mu.sat_solve_calls, 0u);
  // The answer orients every one-way edge, and only those.
  ASSERT_EQ(a->size(), 1u);
  EXPECT_EQ(a->databases()[0].FindRelation(Name("S"))->size(), searched);
}

/// Worlds of one τ call that agree on a component's atoms share its memo
/// entry: the Delta worlds each flip two cells, so most components see the
/// base's defaults in every world.
TEST(MuComponentTest, ManyWorldTauSolvesFewerThanWorldsTimesComponents) {
  OrientCase c = Orient();
  const size_t components =
      testutil::kDeltaDomain * (testutil::kDeltaDomain - 1) / 2;
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  std::vector<Knowledgebase> parts;
  for (size_t i = 0; i < c.kb.size(); ++i) {
    parts.push_back(*Mu(c.phi, c.kb.World(i), sat));
  }
  Knowledgebase expected = *Knowledgebase::UnionAll(std::move(parts));
  for (size_t threads : {1u, 4u}) {
    TauOptions options;
    options.mu = sat;
    options.threads = threads;
    TauStats stats;
    StatusOr<Knowledgebase> got = Tau(c.phi, c.kb, options, &stats);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, expected) << "threads " << threads;
    EXPECT_LT(stats.mu.sat_solve_calls, c.kb.size() * components)
        << "threads " << threads;
  }
}

/// A budget that trips mid-enumeration leaves the memo empty: the next call
/// enumerates in full and matches the reference.
TEST(MuComponentTest, BudgetTripStoresNothing) {
  // Three pigeons, two holes, H injective: μ must drop a pigeon or add a
  // hole, and the search meets conflicts on the way.
  Database db(*Schema::Of({{"Pig", 1}, {"Hole", 1}}));
  db = *db.WithRelation(
      "Pig", Relation(1, {{Name("a")}, {Name("b")}, {Name("c")}}));
  db = *db.WithRelation("Hole", Relation(1, {{Name("a")}, {Name("b")}}));
  Formula phi = *ParseSentence(
      "(forall x: Pig(x) -> exists y: (Hole(y) & H(x, y))) & "
      "(forall x, y, z: (H(x, y) & H(z, y)) -> x = z)");
  Knowledgebase one = *Knowledgebase::FromDatabases({db});
  exec::GroundingCache ground_cache;
  exec::CnfCache cnf_cache;
  TauOptions options;
  options.mu.strategy = MuStrategy::kSat;
  options.mu.sat_conflict_budget = 1;
  options.ground_cache = &ground_cache;
  options.cnf_cache = &cnf_cache;
  StatusOr<Knowledgebase> tripped = Tau(phi, one, options);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded);
  UpdateContext ctx = *MakeUpdateContext(phi, db);
  std::shared_ptr<const exec::FrozenCnf> cnf =
      *cnf_cache.GetOrBuild(phi, ctx.domain, GrounderOptions(), &ground_cache);
  ASSERT_EQ(cnf->components.size(), 1u);
  EXPECT_EQ(cnf->memo.entries(), 0u);

  options.mu.sat_conflict_budget = 0;
  TauStats stats;
  StatusOr<Knowledgebase> full = Tau(phi, one, options, &stats);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_GT(stats.mu.sat_conflicts, 0u);
  MuOptions reference;
  reference.strategy = MuStrategy::kReference;
  EXPECT_EQ(KbAsStrings(*full), KbAsStrings(*Mu(phi, db, reference)));
  EXPECT_EQ(cnf->memo.entries(), 1u);
}

/// Many fresh literal sets over a grounding of 2304 two-atom components
/// (each sees up to 16 keys: two defaults times eight unit combinations,
/// more than the bound holds): the memo stays within its fixed bound,
/// clearing when full, and its bytes are billed in the cache's approx_bytes
/// (which the serving bank's per-entry byte budget reads). The calls share a
/// scratch, so its private memo view fills, refuses inserts and is emptied
/// the same way.
TEST(MuComponentTest, MemoStaysWithinItsBoundAndIsBilled) {
  constexpr int kConstants = 48;
  std::vector<std::string> names;
  std::vector<Tuple> dom;
  for (int i = 0; i < kConstants; ++i) {
    names.push_back("m" + std::to_string(i));
    dom.push_back({Name(names.back())});
  }
  std::mt19937_64 rng(5);
  std::bernoulli_distribution coin(0.5);
  std::vector<Database> dbs;
  for (int d = 0; d < 2; ++d) {
    std::vector<Tuple> q;
    for (const std::string& x : names) {
      for (const std::string& y : names) {
        if (coin(rng)) q.push_back({Name(x), Name(y)});
      }
    }
    Database db(*Schema::Of({{"Dom", 1}, {"Q", 2}}));
    db = *db.WithRelation("Dom", Relation(1, dom));
    db = *db.WithRelation("Q", Relation(2, std::move(q)));
    dbs.push_back(std::move(db));
  }
  Formula core = *ParseSentence("forall x, y: Q(x, y) | M(x, y)");
  exec::GroundingCache ground_cache;
  exec::CnfCache cnf_cache;
  MuOptions sat;
  sat.strategy = MuStrategy::kSat;
  std::bernoulli_distribution draw(0.3);
  exec::WorldScratch scratch;
  std::shared_ptr<const exec::FrozenCnf> cnf;
  size_t fixed_bytes = 0;
  bool cleared = false;
  size_t entries = 0;
  for (int call = 0; call < 80; ++call) {
    const Database& db = dbs[static_cast<size_t>(call % 2)];
    std::vector<Formula> conjuncts = {core};
    for (const std::string& x : names) {
      for (const std::string& y : names) {
        // Units on Q(x, y), M(x, y) or both — never both false, which would
        // contradict the core and stop the call at the first component.
        bool q_false = false;
        for (const char* relation : {"Q", "M"}) {
          if (!draw(rng)) continue;
          Formula atom = Atom(relation, {Term::Const(x), Term::Const(y)});
          const bool positive = q_false || coin(rng);
          q_false = !positive;
          conjuncts.push_back(positive ? atom : Not(atom));
        }
      }
    }
    Formula sentence = And(conjuncts);
    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
    ASSERT_TRUE(split.has_value());
    internal::MuExecContext exec;
    exec.split = &*split;
    exec.ground_cache = &ground_cache;
    exec.cnf_cache = &cnf_cache;
    exec.scratch = &scratch;
    StatusOr<Knowledgebase> got = internal::MuExec(sentence, db, sat, nullptr, exec);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(got->size(), 1u);
    if (call % 10 == 0) {
      // The view answers as the shared memo and the search do.
      exec.scratch = nullptr;
      StatusOr<Knowledgebase> shared =
          internal::MuExec(sentence, db, sat, nullptr, exec);
      ASSERT_TRUE(shared.ok()) << shared.status();
      EXPECT_EQ(*shared, *got) << "call " << call;
    }

    if (cnf == nullptr) {
      cnf = *cnf_cache.GetOrBuild(core, MakeUpdateContext(core, db)->domain,
                                  GrounderOptions(), &ground_cache);
      ASSERT_EQ(cnf->components.size(), size_t{kConstants * kConstants});
    }
    const size_t memo_bytes = cnf->memo.approx_bytes();
    EXPECT_LE(memo_bytes, exec::ModelMemo::kByteCap);
    EXPECT_GT(memo_bytes, 0u);
    cleared |= cnf->memo.entries() < entries;
    entries = cnf->memo.entries();
    // What the cache bills beyond the memos is the fixed encoding.
    if (call == 0) fixed_bytes = cnf_cache.approx_bytes() - memo_bytes;
    EXPECT_EQ(cnf_cache.approx_bytes(), fixed_bytes + memo_bytes);
  }
  EXPECT_TRUE(cleared);
}

/// Concurrent τ calls over one shared cache pair fill and hit the same
/// component memos; every answer equals the uncached τ of its sentence.
TEST(MuComponentTest, ConcurrentCallsShareOneEntrysMemos) {
  OrientCase c = Orient();
  std::mt19937_64 rng(11);
  constexpr size_t kSentences = 12;
  std::vector<Formula> sentences;
  std::vector<GroundLiteralSplit> splits;
  std::vector<Knowledgebase> expected;
  for (size_t i = 0; i < kSentences; ++i) {
    Formula sentence = *ParseSentence(std::string("(") + testutil::kOrient +
                                      ") & " + testutil::DeltaLiteral(&rng) +
                                      " & " + testutil::DeltaLiteral(&rng));
    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
    ASSERT_TRUE(split.has_value());
    sentences.push_back(sentence);
    splits.push_back(*split);
    expected.push_back(*Tau(sentence, c.kb, TauOptions()));
  }
  exec::GroundingCache ground_cache;
  exec::CnfCache cnf_cache;
  constexpr size_t kCalls = 3 * kSentences;
  std::vector<std::optional<Knowledgebase>> got(kCalls);
  {
    exec::ThreadPool pool(4);
    ASSERT_TRUE(pool.ParallelFor(kCalls, [&](size_t i, size_t) {
                      TauOptions options;
                      options.ground_cache = &ground_cache;
                      options.cnf_cache = &cnf_cache;
                      StatusOr<Knowledgebase> r = internal::TauExec(
                          sentences[i % kSentences], &splits[i % kSentences],
                          c.kb, options, nullptr);
                      if (r.ok()) got[i] = *std::move(r);
                    }).ok());
  }
  for (size_t i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(got[i].has_value()) << "call " << i;
    EXPECT_EQ(*got[i], expected[i % kSentences]) << "call " << i;
  }
  EXPECT_EQ(cnf_cache.entries(), 1u);
}

}  // namespace
}  // namespace kbt
