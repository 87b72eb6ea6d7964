#include "logic/parser.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "logic/analysis.h"

namespace kbt {

namespace {

enum class TokenKind {
  kIdent,
  kLParen,
  kRParen,
  kComma,
  kColon,   // ":" or "." after a quantifier's variable list
  kAnd,     // &
  kOr,      // |
  kNot,     // !
  kArrow,   // ->
  kDArrow,  // <->
  kEquals,  // =
  kNotEquals,  // !=
  kEnd,
};

/// `text` views the parsed input, which outlives the tokens.
struct Token {
  TokenKind kind;
  std::string_view text;
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    // One allocation for a typical sentence; longer inputs grow as usual.
    out.reserve(std::min<size_t>(text_.size() + 1, 64));
    size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      size_t start = i;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
          std::isdigit(static_cast<unsigned char>(c))) {
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_' || text_[i] == '\'')) {
          ++i;
        }
        out.push_back({TokenKind::kIdent, text_.substr(start, i - start), start});
        continue;
      }
      switch (c) {
        case '(':
          out.push_back({TokenKind::kLParen, "(", start});
          ++i;
          break;
        case ')':
          out.push_back({TokenKind::kRParen, ")", start});
          ++i;
          break;
        case ',':
          out.push_back({TokenKind::kComma, ",", start});
          ++i;
          break;
        case ':':
        case '.':
          out.push_back({TokenKind::kColon, text_.substr(start, 1), start});
          ++i;
          break;
        case '&':
          out.push_back({TokenKind::kAnd, "&", start});
          ++i;
          break;
        case '|':
          out.push_back({TokenKind::kOr, "|", start});
          ++i;
          break;
        case '!':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            out.push_back({TokenKind::kNotEquals, "!=", start});
            i += 2;
          } else {
            out.push_back({TokenKind::kNot, "!", start});
            ++i;
          }
          break;
        case '-':
          if (i + 1 < text_.size() && text_[i + 1] == '>') {
            out.push_back({TokenKind::kArrow, "->", start});
            i += 2;
          } else {
            return Error(start, "expected '->' after '-'");
          }
          break;
        case '<':
          if (i + 2 < text_.size() && text_[i + 1] == '-' && text_[i + 2] == '>') {
            out.push_back({TokenKind::kDArrow, "<->", start});
            i += 3;
          } else {
            return Error(start, "expected '<->' after '<'");
          }
          break;
        case '=':
          out.push_back({TokenKind::kEquals, "=", start});
          ++i;
          break;
        default:
          return Error(start, std::string("unexpected character '") + c + "'");
      }
    }
    out.push_back({TokenKind::kEnd, "", text_.size()});
    return out;
  }

 private:
  Status Error(size_t pos, const std::string& message) {
    return Status::ParseError(message + " at position " + std::to_string(pos));
  }

  std::string_view text_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Formula> Parse() {
    KBT_ASSIGN_OR_RETURN(Formula f, ParseIff());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after formula");
    }
    return f;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    if (i >= tokens_.size()) i = tokens_.size() - 1;
    return tokens_[i];
  }
  const Token& Next() { return tokens_[pos_++]; }
  bool Eat(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at position " +
                              std::to_string(Peek().pos) +
                              (Peek().text.empty()
                                   ? ""
                                   : " ('" + std::string(Peek().text) + "')"));
  }

  /// Counts one level of the grammar's recursion — a '!', a '(', a
  /// quantifier body or the right operand of '->' — for the life of the
  /// guard. Past kMaxFormulaNesting the parse fails with kParseError instead
  /// of recursing on: the call stack, and every recursive walker over the
  /// formula after it, stays bounded whatever the input.
  class Nesting {
   public:
    explicit Nesting(Parser* parser) : parser_(parser) { ++parser_->depth_; }
    ~Nesting() { --parser_->depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

    Status Check() const {
      if (parser_->depth_ <= kMaxFormulaNesting) return Status::OK();
      return parser_->Error("formula nests deeper than " +
                            std::to_string(kMaxFormulaNesting) + " levels");
    }

   private:
    Parser* parser_;
  };

  StatusOr<Formula> ParseIff() {
    KBT_ASSIGN_OR_RETURN(Formula lhs, ParseImplies());
    while (Eat(TokenKind::kDArrow)) {
      KBT_ASSIGN_OR_RETURN(Formula rhs, ParseImplies());
      lhs = Iff(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<Formula> ParseImplies() {
    KBT_ASSIGN_OR_RETURN(Formula lhs, ParseOr());
    if (Eat(TokenKind::kArrow)) {
      Nesting nesting(this);
      KBT_RETURN_IF_ERROR(nesting.Check());
      KBT_ASSIGN_OR_RETURN(Formula rhs, ParseImplies());  // Right associative.
      return Implies(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<Formula> ParseOr() {
    KBT_ASSIGN_OR_RETURN(Formula first, ParseAnd());
    if (Peek().kind != TokenKind::kOr) return first;  // A lone operand.
    std::vector<Formula> parts{std::move(first)};
    while (Eat(TokenKind::kOr)) {
      KBT_ASSIGN_OR_RETURN(Formula next, ParseAnd());
      parts.push_back(std::move(next));
    }
    return Or(std::move(parts));
  }

  StatusOr<Formula> ParseAnd() {
    KBT_ASSIGN_OR_RETURN(Formula first, ParseUnary());
    if (Peek().kind != TokenKind::kAnd) return first;  // A lone operand.
    std::vector<Formula> parts{std::move(first)};
    while (Eat(TokenKind::kAnd)) {
      KBT_ASSIGN_OR_RETURN(Formula next, ParseUnary());
      parts.push_back(std::move(next));
    }
    return And(std::move(parts));
  }

  StatusOr<Formula> ParseUnary() {
    if (Eat(TokenKind::kNot)) {
      Nesting nesting(this);
      KBT_RETURN_IF_ERROR(nesting.Check());
      KBT_ASSIGN_OR_RETURN(Formula inner, ParseUnary());
      return Not(std::move(inner));
    }
    if (Peek().kind == TokenKind::kIdent &&
        (Peek().text == "forall" || Peek().text == "exists")) {
      return ParseQuantifier();
    }
    return ParsePrimary();
  }

  StatusOr<Formula> ParseQuantifier() {
    bool universal = Next().text == "forall";
    std::vector<Symbol> vars;
    do {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected variable name after quantifier");
      }
      vars.push_back(Name(Next().text));
    } while (Eat(TokenKind::kComma));
    if (!Eat(TokenKind::kColon)) {
      return Error("expected ':' or '.' after quantified variables");
    }
    Nesting nesting(this);
    KBT_RETURN_IF_ERROR(nesting.Check());
    for (Symbol v : vars) scopes_.push_back(v);
    StatusOr<Formula> body = ParseIff();
    scopes_.resize(scopes_.size() - vars.size());
    if (!body.ok()) return body.status();
    return universal ? Forall(vars, std::move(*body)) : Exists(vars, std::move(*body));
  }

  StatusOr<Formula> ParsePrimary() {
    if (Eat(TokenKind::kLParen)) {
      Nesting nesting(this);
      KBT_RETURN_IF_ERROR(nesting.Check());
      KBT_ASSIGN_OR_RETURN(Formula inner, ParseIff());
      if (!Eat(TokenKind::kRParen)) return Error("expected ')'");
      return inner;
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected formula");
    }
    if (Peek().text == "true") {
      Next();
      return True();
    }
    if (Peek().text == "false") {
      Next();
      return False();
    }
    // Atom: ident '(' ... ')'.
    if (Peek(1).kind == TokenKind::kLParen) {
      std::string_view relation = Next().text;
      Next();  // '('
      std::vector<Term> args;
      if (!Eat(TokenKind::kRParen)) {
        do {
          KBT_ASSIGN_OR_RETURN(Term t, ParseTerm());
          args.push_back(t);
        } while (Eat(TokenKind::kComma));
        if (!Eat(TokenKind::kRParen)) return Error("expected ')' after atom arguments");
      }
      return Atom(relation, std::move(args));
    }
    // Equality / inequality between two terms.
    KBT_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    if (Eat(TokenKind::kEquals)) {
      KBT_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return Equals(lhs, rhs);
    }
    if (Eat(TokenKind::kNotEquals)) {
      KBT_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
      return NotEquals(lhs, rhs);
    }
    return Error("expected '=' or '!=' after term");
  }

  StatusOr<Term> ParseTerm() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected term");
    }
    Symbol sym = Name(Next().text);
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (*it == sym) return Term::Var(sym);
    }
    return Term::Const(sym);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::vector<Symbol> scopes_;  // Stack of bound variables.
  size_t depth_ = 0;            // Open Nesting levels.
};

}  // namespace

StatusOr<Formula> ParseFormula(std::string_view text) {
  Lexer lexer(text);
  KBT_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.Parse();
}

StatusOr<Formula> ParseSentence(std::string_view text) {
  KBT_ASSIGN_OR_RETURN(Formula f, ParseFormula(text));
  std::set<Symbol> free = FreeVariables(f);
  if (!free.empty()) {
    std::string names;
    for (Symbol v : free) {
      if (!names.empty()) names += ", ";
      names += NameOf(v);
    }
    return Status::ParseError("formula is not a sentence; free variables: " + names);
  }
  return f;
}

}  // namespace kbt
