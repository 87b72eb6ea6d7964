#ifndef KBT_LOGIC_PARSER_H_
#define KBT_LOGIC_PARSER_H_

/// \file
/// Recursive-descent parser for the concrete formula syntax.
///
/// Grammar (loosest to tightest; quantifier bodies extend maximally right):
///
///   formula    := iff
///   iff        := implies ( "<->" implies )*
///   implies    := or ( "->" implies )?                 -- right associative
///   or         := and ( "|" and )*
///   and        := unary ( "&" unary )*
///   unary      := "!" unary | quantifier | primary
///   quantifier := ("forall" | "exists") ident ("," ident)* (":" | ".") formula
///   primary    := "(" formula ")" | "true" | "false"
///               | ident "(" [ term ("," term)* ] ")"   -- atom (0-ary: "R()")
///               | term ("=" | "!=") term
///   term       := ident | number
///   ident      := [A-Za-z_][A-Za-z0-9_']*
///
/// Variable/constant disambiguation is purely syntactic, as in the paper: an
/// identifier in term position names a *variable* iff an enclosing quantifier binds
/// it; otherwise it names a domain constant. Numbers are constants.

#include <cstddef>
#include <string_view>

#include "base/status.h"
#include "logic/formula.h"

namespace kbt {

/// How deep a formula may nest: '!' chains, parentheses, quantifier bodies
/// and right-nested '->' count together. A deeper input fails with
/// kParseError. The bound holds wherever text is parsed — client requests,
/// transformation expressions and WAL replay alike — so no input reaches a
/// recursion deeper than this. Every record committed since the bound exists
/// was parsed under it, so it replays.
inline constexpr size_t kMaxFormulaNesting = 1000;

/// Parses one formula; trailing input is an error. Returns kParseError with a
/// position-annotated message on malformed input or nesting deeper than
/// kMaxFormulaNesting.
StatusOr<Formula> ParseFormula(std::string_view text);

/// Parses a formula and additionally checks it is a sentence (no free variables),
/// as required by the τ operator's signature τ: Φ × KB → KB.
StatusOr<Formula> ParseSentence(std::string_view text);

}  // namespace kbt

#endif  // KBT_LOGIC_PARSER_H_
