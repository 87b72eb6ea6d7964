/// \file
/// Randomized end-to-end exercise of the transformation language: random
/// pipelines (τ / ⊓ / ⊔ / π / filter in random order) applied to random
/// knowledgebases. The checks are structural invariants that must hold for every
/// legal expression, whatever it computes:
///
///   * evaluation never crashes and only fails with documented Status codes;
///   * the result is canonical (sorted, deduplicated, one schema);
///   * ⊓/⊔ steps yield singletons; π yields exactly the projected schema;
///   * τ results satisfy the inserted sentence (KM postulate (i)) — checked via
///     the pipeline trace sizes and a final re-insertion being a no-op
///     (postulate (ii): anything τ_φ produced already satisfies φ).

#include <gtest/gtest.h>

#include <random>

#include "core/kbt.h"
#include "testutil.h"

namespace kbt {
namespace {

class PipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelineFuzzTest, RandomPipelinesKeepInvariants) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 41);
  testutil::RandomSentenceGenerator gen(&rng, 0.1);
  std::uniform_int_distribution<int> step_count(1, 4);
  std::uniform_int_distribution<int> step_kind(0, 4);

  for (int trial = 0; trial < 6; ++trial) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Pipeline pipeline;
    Formula last_insert = nullptr;
    int steps = step_count(rng);
    for (int i = 0; i < steps; ++i) {
      switch (step_kind(rng)) {
        case 0:
          last_insert = gen.Generate(2);
          pipeline.Tau(last_insert);
          break;
        case 1:
          pipeline.Glb();
          break;
        case 2:
          pipeline.Lub();
          break;
        case 3:
          pipeline.Project({"Dom", "P", "Q"});
          break;
        default:
          pipeline.Filter(gen.Generate(2));
          break;
      }
    }
    PipelineStats stats;
    StatusOr<Knowledgebase> result = pipeline.Apply(kb, MuOptions(), &stats);
    if (!result.ok()) {
      // Projection after a schema-extending τ may drop relations a later filter
      // needs, etc. — all legal failure modes carry documented codes.
      EXPECT_TRUE(result.status().code() == StatusCode::kNotFound ||
                  result.status().code() == StatusCode::kInvalidArgument ||
                  result.status().code() == StatusCode::kResourceExhausted)
          << result.status() << " for " << pipeline.ToString();
      continue;
    }
    // Canonical form: sorted unique members, single schema.
    const std::vector<Database>& dbs = result->databases();
    for (size_t i = 0; i + 1 < dbs.size(); ++i) {
      EXPECT_TRUE(dbs[i] < dbs[i + 1]) << pipeline.ToString();
    }
    for (const Database& db : *result) {
      EXPECT_EQ(db.schema(), result->schema());
    }
    // Trace covers every step with consistent sizes.
    ASSERT_EQ(stats.steps.size(), static_cast<size_t>(steps));
    EXPECT_EQ(stats.steps.front().input_databases, kb.size());
    EXPECT_EQ(stats.steps.back().output_databases, result->size());
    for (size_t i = 0; i + 1 < stats.steps.size(); ++i) {
      EXPECT_EQ(stats.steps[i].output_databases,
                stats.steps[i + 1].input_databases);
    }
    // Postulate (ii) end-to-end: re-inserting the last τ sentence into its own
    // output is a no-op (every produced world already satisfies it) — only
    // checked when the last step was that τ.
    if (last_insert != nullptr && !result->empty() &&
        pipeline.steps().back().kind == TransformStep::Kind::kTau) {
      StatusOr<Knowledgebase> again = Tau(last_insert, *result);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(testutil::KbAsStrings(*again), testutil::KbAsStrings(*result))
          << pipeline.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest, ::testing::Range(0, 15));

class TrailReusePipelineFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TrailReusePipelineFuzzTest, ReuseOnAndOffProduceIdenticalResults) {
  // The SAT descent keeps its assumption trail between solves (retained
  // levels, deferred guard retirement, prefix-stable assumption order); that
  // changes *how* it searches but never *what* μ computes. On randomized
  // pipelines run with every μ forced onto kSat, the result must equal the
  // run forced onto kReference — the specification enumeration — or fail
  // identically. Cases whose τ steps exceed the reference's atom cap
  // (kResourceExhausted from the reference) are skipped. (The test keeps its
  // name from when it compared trail reuse on against off.)
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7477 + 5);
  testutil::RandomSentenceGenerator gen(&rng, 0.15);
  // A filter only reads the kb, so it may name the new relation N only once
  // an earlier τ step has added it to the schema.
  testutil::RandomSentenceGenerator old_relations_only(&rng, 0.0);
  std::uniform_int_distribution<int> step_count(1, 3);
  std::uniform_int_distribution<int> step_kind(0, 2);
  MuOptions sat_options;
  sat_options.strategy = MuStrategy::kSat;
  MuOptions reference_options;
  reference_options.strategy = MuStrategy::kReference;
  auto declined = [](const StatusOr<Knowledgebase>& reference) {
    return !reference.ok() &&
           reference.status().code() == StatusCode::kResourceExhausted;
  };

  constexpr int kTrials = 4;
  int pipelines_compared = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Pipeline pipeline;
    bool schema_has_new = false;
    int steps = step_count(rng);
    for (int i = 0; i < steps; ++i) {
      switch (step_kind(rng)) {
        case 0: {
          Formula phi = gen.Generate(2);
          schema_has_new |= SchemaOf(phi)->Contains(Name("N"));
          pipeline.Tau(phi);
          break;
        }
        case 1:
          pipeline.Filter(schema_has_new ? gen.Generate(2)
                                         : old_relations_only.Generate(2));
          break;
        default:
          pipeline.Lub();
          break;
      }
    }
    StatusOr<Knowledgebase> got = pipeline.Apply(kb, sat_options);
    StatusOr<Knowledgebase> expected = pipeline.Apply(kb, reference_options);
    if (declined(expected)) continue;
    ASSERT_EQ(got.ok(), expected.ok()) << pipeline.ToString();
    if (!got.ok()) {
      EXPECT_EQ(got.status().code(), expected.status().code())
          << pipeline.ToString();
      continue;
    }
    EXPECT_EQ(testutil::KbAsStrings(*got), testutil::KbAsStrings(*expected))
        << pipeline.ToString();
    ++pipelines_compared;
  }

  // The same property on a single τ over a random kb.
  int taus_compared = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Knowledgebase kb = testutil::RandomKnowledgebase(&rng);
    Formula phi = gen.Generate(2);
    StatusOr<Knowledgebase> got = Tau(phi, kb, sat_options);
    StatusOr<Knowledgebase> expected = Tau(phi, kb, reference_options);
    if (declined(expected)) continue;
    ASSERT_EQ(got.ok(), expected.ok()) << ToString(phi);
    if (got.ok()) {
      EXPECT_EQ(testutil::KbAsStrings(*got), testutil::KbAsStrings(*expected))
          << ToString(phi);
      ++taus_compared;
    }
  }
  // Floors on the cases actually compared, so a generator or reference-cap
  // change cannot silently turn the property vacuous: on these seeds every
  // pipeline and every τ succeeds and is compared.
  EXPECT_EQ(pipelines_compared, kTrials);
  EXPECT_EQ(taus_compared, kTrials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrailReusePipelineFuzzTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace kbt
