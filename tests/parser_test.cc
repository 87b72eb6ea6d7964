#include "logic/parser.h"

#include <gtest/gtest.h>

#include <string>

#include "logic/analysis.h"
#include "logic/printer.h"

namespace kbt {
namespace {

TEST(ParserTest, AtomsAndTerms) {
  Formula f = *ParseFormula("R(a, b)");
  EXPECT_EQ(f->kind(), FormulaKind::kAtom);
  EXPECT_EQ(f->terms().size(), 2u);
  EXPECT_TRUE(f->terms()[0].is_constant());  // Unbound identifiers are constants.
  EXPECT_EQ(ToString(f), "R(a, b)");
}

TEST(ParserTest, BoundIdentifiersAreVariables) {
  Formula f = *ParseFormula("forall x: R(x, a)");
  const Formula& atom = f->children()[0];
  EXPECT_TRUE(atom->terms()[0].is_variable());
  EXPECT_TRUE(atom->terms()[1].is_constant());
}

TEST(ParserTest, PrecedenceImpliesBindsLooserThanOr) {
  Formula f = *ParseFormula("R(a) | S(b) -> T(c)");
  EXPECT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->children()[0]->kind(), FormulaKind::kOr);
}

TEST(ParserTest, ImpliesIsRightAssociative) {
  Formula f = *ParseFormula("R(a) -> S(b) -> T(c)");
  EXPECT_EQ(f->kind(), FormulaKind::kImplies);
  EXPECT_EQ(f->children()[1]->kind(), FormulaKind::kImplies);
}

TEST(ParserTest, QuantifierBodyExtendsRight) {
  Formula f = *ParseFormula("forall x: R(x) -> S(x)");
  EXPECT_EQ(f->kind(), FormulaKind::kForall);
  EXPECT_EQ(f->children()[0]->kind(), FormulaKind::kImplies);
}

TEST(ParserTest, MultipleQuantifiedVariables) {
  Formula f = *ParseFormula("exists x, y: Q(x, y)");
  EXPECT_EQ(f->kind(), FormulaKind::kExists);
  EXPECT_EQ(f->children()[0]->kind(), FormulaKind::kExists);
}

TEST(ParserTest, EqualityAndInequality) {
  Formula f = *ParseFormula("forall x, y: x = y | x != y");
  Formula body = f->children()[0]->children()[0];
  EXPECT_EQ(body->kind(), FormulaKind::kOr);
  EXPECT_EQ(body->children()[0]->kind(), FormulaKind::kEquals);
  EXPECT_EQ(body->children()[1]->kind(), FormulaKind::kNot);
}

TEST(ParserTest, ZeroAryAtomNeedsParens) {
  Formula f = *ParseFormula("R4()");
  EXPECT_EQ(f->kind(), FormulaKind::kAtom);
  EXPECT_TRUE(f->terms().empty());
}

TEST(ParserTest, TrueFalseLiterals) {
  EXPECT_EQ((*ParseFormula("true"))->kind(), FormulaKind::kTrue);
  EXPECT_EQ((*ParseFormula("false"))->kind(), FormulaKind::kFalse);
}

TEST(ParserTest, DotAfterQuantifierAlsoAccepted) {
  EXPECT_TRUE(ParseFormula("forall x . R(x)").ok());
}

TEST(ParserTest, ErrorsCarryPositions) {
  auto r1 = ParseFormula("R(a");
  EXPECT_EQ(r1.status().code(), StatusCode::kParseError);
  auto r2 = ParseFormula("R(a) &");
  EXPECT_FALSE(r2.ok());
  auto r3 = ParseFormula("R(a) R(b)");
  EXPECT_FALSE(r3.ok());
  auto r4 = ParseFormula("forall : R(a)");
  EXPECT_FALSE(r4.ok());
  auto r5 = ParseFormula("@");
  EXPECT_FALSE(r5.ok());
  auto r6 = ParseFormula("a < b");
  EXPECT_FALSE(r6.ok());
}

TEST(ParserTest, ParseSentenceRejectsFreeVariables) {
  // 'x' is never quantified here, so it parses as a constant — but in a context
  // that expects a variable style name, it is simply a constant and the formula
  // is still a sentence. A genuinely free variable needs a quantifier elsewhere:
  Formula f = *ParseFormula("exists x: Q(x, y)");
  EXPECT_TRUE(IsSentence(f));  // y is a constant by the binding rule.
  // Free variables can only be introduced programmatically:
  Formula open = Atom("R", {Term::Var("z")});
  EXPECT_FALSE(IsSentence(open));
  EXPECT_TRUE(ParseSentence("forall x: R(x) -> R(x)").ok());
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char* inputs[] = {
      "forall x, y, z: (R2(x, y) & R1(y, z)) | R1(x, z) -> R2(x, z)",
      "exists x: P(x) & !(x = a)",
      "forall x: P(x) <-> Q(x, x)",
      "R4() -> false",
      "forall x: (exists y: Q(x, y)) -> P(x)",
  };
  for (const char* text : inputs) {
    Formula f1 = *ParseFormula(text);
    Formula f2 = *ParseFormula(ToString(f1));
    EXPECT_TRUE(StructurallyEqual(f1, f2)) << text << " vs " << ToString(f1);
  }
}

/// `depth` levels of each construct the nesting bound counts.
std::string Nested(const std::string& kind, size_t depth) {
  std::string text;
  if (kind == "paren") {
    return std::string(depth, '(') + "P(a)" + std::string(depth, ')');
  }
  if (kind == "not") return std::string(depth, '!') + "P(a)";
  for (size_t i = 0; i < depth; ++i) {
    text += kind == "implies" ? "P(a) -> "
                              : "forall x" + std::to_string(i) + ": ";
  }
  return text + "P(a)";
}

TEST(ParserTest, NestingBoundParsesTheCapAndRejectsOneMore) {
  for (const std::string kind : {"paren", "not", "implies", "quantifier"}) {
    EXPECT_TRUE(ParseSentence(Nested(kind, kMaxFormulaNesting)).ok()) << kind;
    StatusOr<Formula> deeper =
        ParseSentence(Nested(kind, kMaxFormulaNesting + 1));
    ASSERT_FALSE(deeper.ok()) << kind;
    EXPECT_EQ(deeper.status().code(), StatusCode::kParseError) << kind;
    EXPECT_NE(deeper.status().message().find("nests deeper"), std::string::npos)
        << deeper.status().ToString();
  }
}

TEST(ParserTest, NestingBoundCountsEveryConstructTogether) {
  // Half the cap of parentheses around half the cap of negations is at the
  // cap; one more of either kind is over it.
  const size_t half = kMaxFormulaNesting / 2;
  auto mixed = [](size_t parens, size_t nots) {
    return std::string(parens, '(') + std::string(nots, '!') + "P(a)" +
           std::string(parens, ')');
  };
  EXPECT_TRUE(ParseFormula(mixed(half, kMaxFormulaNesting - half)).ok());
  EXPECT_EQ(ParseFormula(mixed(half + 1, kMaxFormulaNesting - half))
                .status()
                .code(),
            StatusCode::kParseError);
  // Siblings do not add up: the depth is released after each operand.
  std::string wide;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) wide += " & ";
    wide += Nested("paren", kMaxFormulaNesting);
  }
  EXPECT_TRUE(ParseFormula(wide).ok());
}

TEST(ParserTest, DeepInputFailsTypedInsteadOfOverflowingTheStack) {
  // 60,000 parentheses: far past the bound, and deep enough to exhaust an
  // 8 MiB stack without it.
  StatusOr<Formula> f = ParseFormula(Nested("paren", 60000));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace kbt
