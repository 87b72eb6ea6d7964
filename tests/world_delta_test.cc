/// \file
/// The delta world step of τ (core/tau.cc, core/mu_sat.cc): every piece a
/// world's μ/SAT update derives from its overlay equals what the
/// materialized world gives.
///
///  - the active domain from the base's value counts and the overlay equals
///    World(i).ActiveDomain();
///  - the base's default bytes patched at the atoms the delta names equal a
///    full sweep of the materialized world;
///  - the overlay written from a model's deviations equals the composition
///    of the world's overlay with MaterializeOverlayModel's;
///  - the ground consequent decided on the overlay equals Satisfies on the
///    materialized world;
///  - whole τ and counterfactual results equal the same calls under
///    MuStrategy::kReference, at 1 and 4 threads.
///
/// The kbs are random overlays of one base whose worlds delete the only
/// tuples naming a value (dropping it from the active domain), add tuples
/// naming a constant the base lacks, and update with sentences over a new
/// relation, with ground literals the grounding does not mention and with
/// contradictory literals.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/hypothetical.h"
#include "core/kbt.h"
#include "core/mu_internal.h"
#include "core/tau.h"
#include "eval/model_check.h"
#include "exec/cnf_cache.h"
#include "exec/ground_cache.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace kbt {
namespace {

/// Constants of the base; "d" and "e" only ever appear through world adds.
const std::vector<std::string>& BaseConstants() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"a", "b", "c"};
  return *names;
}

Schema KbSchema() { return *Schema::Of({{"P", 1}, {"Q", 2}}); }

Database RandomBase(std::mt19937_64* rng) {
  std::bernoulli_distribution coin(0.4);
  Relation::Builder p(1);
  Relation::Builder q(2);
  for (const std::string& x : BaseConstants()) {
    if (coin(*rng)) p.Append({Name(x)});
    for (const std::string& y : BaseConstants()) {
      if (coin(*rng)) q.Append({Name(x), Name(y)});
    }
  }
  // "c" is named by exactly one tuple, so a world deleting it loses "c".
  p.Append({Name("c")});
  return *Database::Create(KbSchema(), {p.Build(), q.Build()});
}

/// A kb of 1–6 worlds, each the base with a few edits: toggled cells, the
/// removal of every tuple naming "c", and tuples naming "d" or "e".
Knowledgebase RandomOverlayKb(std::mt19937_64* rng) {
  Database base = RandomBase(rng);
  std::uniform_int_distribution<int> worlds(1, 6);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> edits(0, 3);
  const std::vector<std::string> all = {"a", "b", "c", "d", "e"};
  std::uniform_int_distribution<size_t> constant(0, all.size() - 1);
  std::vector<Database> dbs;
  const int k = worlds(*rng);
  for (int w = 0; w < k; ++w) {
    Relation p = base.relation_at(0);
    Relation q = base.relation_at(1);
    const int n = edits(*rng);
    for (int e = 0; e < n; ++e) {
      switch (kind(*rng)) {
        case 0: {  // Drop "c" from the active domain.
          Relation::Builder pb(1);
          for (TupleView t : p) {
            if (t[0] != Name("c")) pb.Append(t);
          }
          p = pb.Build();
          Relation::Builder qb(2);
          for (TupleView t : q) {
            if (t[0] != Name("c") && t[1] != Name("c")) qb.Append(t);
          }
          q = qb.Build();
          break;
        }
        case 1: {
          Tuple t{Name(all[constant(*rng)])};
          p = p.Contains(t) ? p.WithoutTuple(t) : p.WithTuple(t);
          break;
        }
        default: {
          Tuple t{Name(all[constant(*rng)]), Name(all[constant(*rng)])};
          q = q.Contains(t) ? q.WithoutTuple(t) : q.WithTuple(t);
          break;
        }
      }
    }
    dbs.push_back(*Database::Create(KbSchema(), {p, q}));
  }
  return *Knowledgebase::FromDatabases(std::move(dbs));
}

/// Sentences whose groundings stay within the reference strategy's atom
/// bound over five constants. N and S are new relations.
const std::vector<std::string>& Sentences() {
  static const std::vector<std::string>* s = new std::vector<std::string>{
      "forall x: P(x) -> N(x)",
      "forall x: Q(x, a) -> P(x)",
      "exists x: P(x) & !Q(x, x)",
      "forall x: (P(x) & !N(x)) -> Q(x, b)",
      "forall x: P(x) <-> Q(x, x)",
      "(exists x: N(x)) & forall x: N(x) -> !P(x)",
  };
  return *s;
}

/// Ground literals conjoined to a sentence: atoms its grounding mentions,
/// atoms it does not (a relation it lacks, a constant outside the domain),
/// and a contradictory pair.
const std::vector<std::string>& LiteralSets() {
  static const std::vector<std::string>* s = new std::vector<std::string>{
      "P(a)",
      "!P(c) & Q(a, b)",
      "N(b) & !Q(c, c)",
      "S(a, d) & P(e)",
      "P(a) & !P(a)",
      "Q(b, a) & S(b, b) & !N(a)",
  };
  return *s;
}

/// Sentence number `s` conjoined with literal set number `l` (both wrap).
std::string WithLiterals(int s, int l) {
  return "(" + Sentences()[static_cast<size_t>(s) % Sentences().size()] +
         ") & " + LiteralSets()[static_cast<size_t>(l) % LiteralSets().size()];
}

/// Random ground formulas over P, Q, N and S, with constants inside and
/// outside the kb's domain.
Formula RandomGround(std::mt19937_64* rng, int depth) {
  const std::vector<std::string> names = {"a", "b", "c", "d", "e"};
  std::uniform_int_distribution<size_t> c(0, names.size() - 1);
  std::uniform_int_distribution<int> pick(0, depth <= 0 ? 4 : 9);
  auto k = [&] { return Term::Const(names[c(*rng)]); };
  switch (pick(*rng)) {
    case 0:
      return Atom("P", {k()});
    case 1:
      return Atom("Q", {k(), k()});
    case 2:
      return Atom("N", {k()});
    case 3:
      return Atom("S", {k(), k()});
    case 4:
      return Equals(k(), k());
    case 5:
      return Not(RandomGround(rng, depth - 1));
    case 6:
      return And(RandomGround(rng, depth - 1), RandomGround(rng, depth - 1));
    case 7:
      return Or(RandomGround(rng, depth - 1), RandomGround(rng, depth - 1));
    case 8:
      return Implies(RandomGround(rng, depth - 1),
                     RandomGround(rng, depth - 1));
    default:
      return Iff(RandomGround(rng, depth - 1), RandomGround(rng, depth - 1));
  }
}

TEST(WorldDeltaTest, ActiveDomainFromBaseCountsMatchesMaterializedWorld) {
  std::mt19937_64 rng(101);
  int dropped = 0;
  int added = 0;
  for (int iter = 0; iter < 200; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    internal::BaseValueCounts counts(*kb.base());
    const std::vector<Value> base_adom = kb.base()->ActiveDomain();
    std::vector<std::pair<Value, int>> changes;
    std::vector<Value> adom;
    for (size_t i = 0; i < kb.size(); ++i) {
      counts.WorldDomain(kb.overlays()[i], &changes, &adom);
      const std::vector<Value> want = kb.World(i).ActiveDomain();
      ASSERT_EQ(adom, want) << "iter " << iter << " world " << i;
      dropped += adom.size() < base_adom.size();
      added += std::any_of(adom.begin(), adom.end(), [&](Value v) {
        return !std::binary_search(base_adom.begin(), base_adom.end(), v);
      });
    }
  }
  // The generator exercises both directions.
  EXPECT_GT(dropped, 20);
  EXPECT_GT(added, 20);
}

/// One world of a kb prepared the way the delta step sees it: the extended
/// shared base, the world's CNF entry and its materialized counterpart.
struct WorldFixture {
  Schema extended;
  std::shared_ptr<const Database> ext_base;
  Database world_ext;
  UpdateContext world_ctx;
  std::shared_ptr<const exec::FrozenCnf> entry;
};

WorldFixture MakeFixture(const Knowledgebase& kb, size_t i,
                         const Formula& sentence, const Formula& core) {
  WorldFixture f;
  Database world = kb.World(i);
  f.world_ctx = *MakeUpdateContext(sentence, world);
  f.extended = f.world_ctx.schema;
  f.ext_base =
      std::make_shared<const Database>(*kb.base()->ExtendTo(f.extended));
  f.world_ext = f.world_ctx.extended_base;
  f.entry = *exec::MakeFrozenCnf(core, f.world_ctx.domain, GrounderOptions(),
                                 nullptr);
  return f;
}

TEST(WorldDeltaTest, PatchedDefaultBytesMatchFullSweep) {
  std::mt19937_64 rng(202);
  size_t patched_total = 0;
  for (int iter = 0; iter < 120; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    const std::string text = WithLiterals(iter, iter);
    Formula sentence = *ParseSentence(text);
    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
    ASSERT_TRUE(split.has_value()) << text;
    for (size_t i = 0; i < kb.size(); ++i) {
      WorldFixture f = MakeFixture(kb, i, sentence, split->core);
      if (f.entry->components.empty()) continue;
      std::shared_ptr<const internal::EntryDefaults> defaults =
          *internal::MakeEntryDefaults(f.entry, *f.ext_base, kb.schema().size(),
                                       split->literals);
      if (defaults->contradictory) continue;
      std::vector<int8_t> state = defaults->atom_state;
      std::vector<int> patched;
      internal::PatchWorldDefaults(*f.entry, *f.ext_base, kb.overlays()[i],
                                   &state, &patched);
      patched_total += patched.size();
      const AtomIndex& atoms = f.entry->grounding->grounding.atoms;
      for (int a : f.entry->grounding->mentioned) {
        const GroundAtom& atom = atoms.AtomOf(a);
        const bool old = kb.schema().Contains(atom.relation);
        const bool want =
            old && f.world_ext.FindRelation(atom.relation)->Contains(atom.tuple);
        const int8_t byte = state[static_cast<size_t>(a)];
        EXPECT_EQ((byte & internal::kAtomDefaultTrue) != 0, want)
            << text << " world " << i << " atom " << atom.ToString();
        EXPECT_EQ((byte & internal::kAtomOld) != 0, old);
        // The patch leaves the literal bits alone.
        EXPECT_EQ(byte & (internal::kAtomUnit | internal::kAtomUnitTrue),
                  defaults->atom_state[static_cast<size_t>(a)] &
                      (internal::kAtomUnit | internal::kAtomUnitTrue));
      }
    }
  }
  EXPECT_GT(patched_total, 100u);
}

TEST(WorldDeltaTest, DeviationOverlaysMatchMaterializeOverlayModel) {
  std::mt19937_64 rng(303);
  std::bernoulli_distribution coin(0.3);
  for (int iter = 0; iter < 120; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    Formula sentence = *ParseSentence(Sentences()[iter % Sentences().size()]);
    for (size_t i = 0; i < kb.size(); ++i) {
      WorldFixture f = MakeFixture(kb, i, sentence, sentence);
      if (f.entry->components.empty()) continue;
      std::shared_ptr<const internal::EntryDefaults> defaults =
          *internal::MakeEntryDefaults(f.entry, *f.ext_base, kb.schema().size(),
                                       {});
      const AtomIndex& atoms = f.entry->grounding->grounding.atoms;
      const std::vector<int>& mentioned = f.entry->grounding->mentioned;
      // A random model: each mentioned atom flipped off the world's value
      // with probability 0.3 — the deviation list of the enumerator.
      std::vector<char> value(atoms.size(), 0);
      std::vector<TupleEdit> edits;
      for (int a : mentioned) {
        const GroundAtom& atom = atoms.AtomOf(a);
        const bool world =
            f.world_ext.FindRelation(atom.relation)->Contains(atom.tuple);
        value[static_cast<size_t>(a)] = world != coin(rng);
        if (value[static_cast<size_t>(a)] != world) {
          const exec::FrozenCnf::AtomSlot& slot =
              f.entry->atom_slots[static_cast<size_t>(a)];
          edits.push_back({defaults->relation_pos[slot.relation], slot.tuple,
                           value[static_cast<size_t>(a)] != 0});
        }
      }
      std::sort(edits.begin(), edits.end(),
                [](const TupleEdit& x, const TupleEdit& y) {
                  return x.pos != y.pos ? x.pos < y.pos : x.tuple < y.tuple;
                });
      auto value_fn = [&](int a) { return value[static_cast<size_t>(a)] != 0; };
      WorldOverlay want = WorldOverlay::Compose(
          kb.overlays()[i],
          *internal::MaterializeOverlayModel(f.world_ctx, atoms, mentioned,
                                             value_fn));
      WorldOverlay got = kb.overlays()[i].WithEdits(*f.ext_base, edits);
      ASSERT_EQ(got, want) << "iter " << iter << " world " << i;
      ASSERT_TRUE(got.Validate(*f.ext_base).ok());
      EXPECT_EQ(got.ApplyTo(*f.ext_base),
                *internal::MaterializeModel(f.world_ctx, atoms, mentioned,
                                            value_fn));
    }
  }
}

TEST(WorldDeltaTest, GroundConsequentOnOverlayMatchesSatisfies) {
  std::mt19937_64 rng(404);
  int held = 0;
  int checked = 0;
  for (int iter = 0; iter < 150; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    // Worlds over σ(kb) ∪ {N, S}, the shape of a τ result.
    Knowledgebase extended = *kb.ExtendTo(
        *kb.schema().Union(*Schema::Of({{"N", 1}, {"S", 2}})));
    for (int f = 0; f < 10; ++f) {
      Formula consequent = RandomGround(&rng, 3);
      for (const Knowledgebase* k : {&kb, &extended}) {
        for (size_t i = 0; i < k->size(); ++i) {
          Database world = k->World(i);
          Schema schema = *world.schema().Union(*SchemaOf(consequent));
          bool want = *Satisfies(*world.ExtendTo(schema), consequent);
          EXPECT_EQ(internal::GroundHolds(consequent, *k->base(),
                                          k->overlays()[i]),
                    want);
          held += want;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(held, checked / 10);
  EXPECT_LT(held, checked - checked / 10);
}

TEST(WorldDeltaTest, ConsequentCheckMatchesSatisfiesPerWorld) {
  // The modal fold over a kb's worlds against Satisfies on each materialized
  // world, for ground consequents and for ones whose quantifiers bind no
  // variable occurrence (not ground: they range over the domain, which may
  // be empty of the value they name).
  std::mt19937_64 rng(707);
  const std::vector<std::string> quantified = {
      "exists x: P(a)", "forall x: !Q(a, b)", "exists x: N(a) | P(b)",
      "forall x: exists y: P(c) -> Q(c, c)"};
  for (int iter = 0; iter < 100; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    Formula consequent =
        iter % 2 == 0 ? RandomGround(&rng, 3)
                      : *ParseSentence(quantified[static_cast<size_t>(iter / 2) %
                                                  quantified.size()]);
    for (Modality modality : {Modality::kNecessarily, Modality::kPossibly}) {
      bool all = true;
      bool some = false;
      for (size_t i = 0; i < kb.size(); ++i) {
        Database world = kb.World(i);
        Schema schema = *world.schema().Union(*SchemaOf(consequent));
        const bool holds = *Satisfies(*world.ExtendTo(schema), consequent);
        all = all && holds;
        some = some || holds;
      }
      StatusOr<bool> got = NestedCounterfactual(kb, {}, consequent, modality);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, modality == Modality::kNecessarily ? all : some)
          << ToString(consequent);
    }
  }
}

/// Reference-strategy options: the oracle every SAT run is compared with.
MuOptions ReferenceOptions() {
  MuOptions o;
  o.strategy = MuStrategy::kReference;
  return o;
}

/// Whether the reference strategy can enumerate `sentence` over `kb`.
bool ReferenceFits(const Formula& sentence, const Knowledgebase& kb) {
  StatusOr<Knowledgebase> r = Tau(sentence, kb, ReferenceOptions());
  return r.ok() || r.status().code() != StatusCode::kResourceExhausted;
}

class WorldDeltaThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WorldDeltaThreadsTest, TauMatchesReference) {
  std::mt19937_64 rng(505 + GetParam());
  int compared = 0;
  for (int iter = 0; iter < 60; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    const std::string text = WithLiterals(iter, iter / 2);
    Formula sentence = *ParseSentence(text);
    if (!ReferenceFits(sentence, kb)) continue;
    StatusOr<Knowledgebase> want = Tau(sentence, kb, ReferenceOptions());
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();

    TauOptions options;
    options.mu.strategy = MuStrategy::kSat;
    options.threads = GetParam();
    StatusOr<Knowledgebase> plain = Tau(sentence, kb, options);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(*plain, *want) << text;

    // The serving shape: the core through persistent caches, the literals
    // on top, twice so the second call reads the memo.
    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(sentence);
    ASSERT_TRUE(split.has_value());
    exec::GroundingCache ground;
    exec::CnfCache cnf;
    options.ground_cache = &ground;
    options.cnf_cache = &cnf;
    for (int pass = 0; pass < 2; ++pass) {
      StatusOr<Knowledgebase> got =
          internal::TauExec(sentence, &*split, kb, options, nullptr);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << text << " pass " << pass;
    }
    ++compared;
  }
  EXPECT_GT(compared, 30);
}

TEST_P(WorldDeltaThreadsTest, CounterfactualMatchesReference) {
  std::mt19937_64 rng(606 + GetParam());
  int compared = 0;
  for (int iter = 0; iter < 48; ++iter) {
    Knowledgebase kb = RandomOverlayKb(&rng);
    const std::string text = WithLiterals(iter, iter / 3);
    Formula antecedent = *ParseSentence(text);
    if (!ReferenceFits(antecedent, kb)) continue;
    // Ground consequents take the overlay check, quantified ones Satisfies.
    Formula consequent = iter % 4 == 3
                             ? *ParseSentence("exists x: P(x) & !N(x)")
                             : RandomGround(&rng, 2);
    const Modality modality =
        iter % 2 == 0 ? Modality::kNecessarily : Modality::kPossibly;
    StatusOr<bool> want = NestedCounterfactual(kb, {antecedent}, consequent,
                                               modality, ReferenceOptions());
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    std::optional<GroundLiteralSplit> split = SplitGroundLiterals(antecedent);
    ASSERT_TRUE(split.has_value());
    exec::GroundingCache ground;
    exec::CnfCache cnf;
    ChainStep step;
    step.antecedent = &antecedent;
    step.ground_cache = &ground;
    step.cnf_cache = &cnf;
    step.split = &*split;
    TauOptions options;
    options.mu.strategy = MuStrategy::kSat;
    options.threads = GetParam();
    StatusOr<bool> got = NestedCounterfactualExec(kb, {step}, consequent,
                                                  modality, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *want) << text << " > " << ToString(consequent);
    // Two steps: the first merges, the second decides per world.
    StatusOr<bool> want2 = NestedCounterfactual(
        kb, {antecedent, antecedent}, consequent, modality, ReferenceOptions());
    ASSERT_TRUE(want2.ok());
    StatusOr<bool> got2 = NestedCounterfactualExec(kb, {step, step}, consequent,
                                                   modality, options);
    ASSERT_TRUE(got2.ok()) << got2.status().ToString();
    EXPECT_EQ(*got2, *want2) << text;
    ++compared;
  }
  EXPECT_GT(compared, 24);
}

INSTANTIATE_TEST_SUITE_P(Threads, WorldDeltaThreadsTest,
                         ::testing::Values(size_t{1}, size_t{4}));

}  // namespace
}  // namespace kbt
