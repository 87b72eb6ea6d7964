#include "logic/analysis.h"

#include <gtest/gtest.h>

#include <optional>

#include "logic/parser.h"
#include "logic/printer.h"

namespace kbt {
namespace {

TEST(AnalysisTest, FreeVariables) {
  Formula f = Implies(Atom("R", {Term::Var("x"), Term::Var("y")}),
                      Exists("y", Atom("S", {Term::Var("y")})));
  std::set<Symbol> free = FreeVariables(f);
  EXPECT_EQ(free.size(), 2u);  // x free; outer y free; inner y bound.
  EXPECT_TRUE(free.count(Name("x")));
  EXPECT_TRUE(free.count(Name("y")));
  EXPECT_TRUE(IsSentence(Forall({Name("x"), Name("y")}, f)));
}

TEST(AnalysisTest, ShadowingRestoresOuterBinding) {
  // ∃x (P(x) ∧ ∃x Q(x,x)) — both occurrences bound.
  Formula f = Exists("x", And(Atom("P", {Term::Var("x")}),
                              Exists("x", Atom("Q", {Term::Var("x"),
                                                     Term::Var("x")}))));
  EXPECT_TRUE(IsSentence(f));
}

TEST(AnalysisTest, ConstantsSortedUnique) {
  Formula f = *ParseFormula("R(b, a) & R(a, c) & a = a");
  std::vector<Value> consts = ConstantsOf(f);
  EXPECT_EQ(consts.size(), 3u);
  EXPECT_TRUE(std::is_sorted(consts.begin(), consts.end()));
}

TEST(AnalysisTest, SchemaCollectsRelationsWithArity) {
  Formula f = *ParseFormula("forall x: R1(x, x) -> R2(x)");
  Schema s = *SchemaOf(f);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(*s.ArityOf(Name("R1")), 2u);
  EXPECT_EQ(*s.ArityOf(Name("R2")), 1u);
}

TEST(AnalysisTest, SchemaRejectsInconsistentArity) {
  Formula f = And(Atom("R", {Term::Const("a")}),
                  Atom("R", {Term::Const("a"), Term::Const("b")}));
  EXPECT_FALSE(SchemaOf(f).ok());
}

TEST(AnalysisTest, SubstituteReplacesFreeOccurrencesOnly) {
  // x free in P(x) and bound in ∃x Q(x,x).
  Formula f = And(Atom("P", {Term::Var("x")}),
                  Exists("x", Atom("Q", {Term::Var("x"), Term::Var("x")})));
  Formula g = Substitute(f, Name("x"), Name("a"));
  EXPECT_EQ(ToString(g), "P(a) & (exists x: Q(x, x))");
}

TEST(AnalysisTest, SubstituteSharesUntouchedSubtrees) {
  Formula sub = Atom("P", {Term::Const("a")});
  Formula f = And(sub, Atom("Q", {Term::Var("x"), Term::Var("x")}));
  Formula g = Substitute(f, Name("x"), Name("b"));
  EXPECT_EQ(g->children()[0], sub);  // Pointer-equal: no copy.
}

TEST(AnalysisTest, QuantifierFreeAndGroundClassification) {
  EXPECT_TRUE(IsQuantifierFree(*ParseFormula("R(a) & !S(b)")));
  EXPECT_FALSE(IsQuantifierFree(*ParseFormula("exists x: R(x)")));
  EXPECT_TRUE(IsGround(*ParseFormula("R(a) | R(b) -> S(a)")));
  EXPECT_FALSE(IsGround(Atom("R", {Term::Var("x")})));
  // Quantifier-free but not ground.
  Formula qf_open = Atom("R", {Term::Var("x")});
  EXPECT_TRUE(IsQuantifierFree(qf_open));
  EXPECT_FALSE(IsGround(qf_open));
}

TEST(AnalysisTest, SizeAndDepth) {
  Formula f = *ParseFormula("forall x: (exists y: Q(x, y)) -> P(x)");
  EXPECT_EQ(QuantifierDepth(f), 2u);
  EXPECT_GE(FormulaSize(f), 5u);
  EXPECT_EQ(QuantifierDepth(*ParseFormula("R(a)")), 0u);
}

TEST(AnalysisTest, SplitGroundLiteralsSeparatesTopLevelLiterals) {
  // Nested top-level ∧ is flattened; the core keeps its conjuncts' order.
  Formula f = *ParseFormula(
      "(forall x: P(x) -> Q(x, x)) & (Q(a, b) & !P(c)) & (exists y: P(y)) & "
      "!(P(a) & P(b)) & a = b");
  std::optional<GroundLiteralSplit> split = SplitGroundLiterals(f);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(ToString(split->core),
            ToString(*ParseFormula("(forall x: P(x) -> Q(x, x)) & "
                                   "(exists y: P(y)) & !(P(a) & P(b)) & "
                                   "a = b")));
  ASSERT_EQ(split->literals.size(), 2u);
  EXPECT_EQ(ToString(split->literals[0]), ToString(*ParseFormula("Q(a, b)")));
  EXPECT_EQ(ToString(split->literals[1]), ToString(*ParseFormula("!P(c)")));
  // A single remaining conjunct is the core itself.
  Formula one = *ParseFormula("(forall x: P(x)) & P(a)");
  split = SplitGroundLiterals(one);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->core, one->children()[0]);
}

TEST(AnalysisTest, SplitGroundLiteralsDeclinesWhenNothingToShare) {
  // No literal, no core, or a ground core: nothing changes.
  EXPECT_FALSE(SplitGroundLiterals(*ParseFormula("forall x: P(x)")));
  EXPECT_FALSE(SplitGroundLiterals(*ParseFormula("P(a) & !Q(a, b)")));
  EXPECT_FALSE(SplitGroundLiterals(*ParseFormula("(P(a) | P(b)) & Q(a, b)")));
  // An atom with a variable term is no ground literal, nor is ¬¬atom.
  EXPECT_FALSE(SplitGroundLiterals(*ParseFormula(
      "forall x: (P(x) & Q(x, a))")));
  EXPECT_FALSE(SplitGroundLiterals(*ParseFormula(
      "(forall x: P(x)) & !!P(a)")));
}

}  // namespace
}  // namespace kbt
