// The text parser as it stood before the streaming lexer: Tokenize builds
// the whole token vector first, and every fact parses into an Atom. It is
// kept verbatim (functions made inline, wrapped in namespace `reference`)
// as the test-only reference that parser_differential_test compares the
// production parser against. Not for use outside tests/.
#ifndef TIEBREAK_TESTS_REFERENCE_PARSER_H_
#define TIEBREAK_TESTS_REFERENCE_PARSER_H_

#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lang/database.h"
#include "lang/parser.h"
#include "lang/program.h"
#include "util/status.h"

namespace tiebreak {
namespace reference {

struct Token {
  enum class Kind {
    kIdent,
    kLParen,
    kRParen,
    kComma,
    kPeriod,
    kImplies,  // ":-"
    kBang,     // "!"
    kEnd,
  };
  Kind kind = Kind::kEnd;
  std::string text;
  int line = 0;
};

inline std::string Describe(const Token& token) {
  switch (token.kind) {
    case Token::Kind::kIdent:
      return "identifier '" + token.text + "'";
    case Token::Kind::kLParen:
      return "'('";
    case Token::Kind::kRParen:
      return "')'";
    case Token::Kind::kComma:
      return "','";
    case Token::Kind::kPeriod:
      return "'.'";
    case Token::Kind::kImplies:
      return "':-'";
    case Token::Kind::kBang:
      return "'!'";
    case Token::Kind::kEnd:
      return "end of input";
  }
  return "?";
}

inline bool IsIdentStart(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
inline bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

inline Status Tokenize(std::string_view text, std::vector<Token>* out) {
  int line = 1;
  size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '%') {  // comment to end of line
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (c == '(') {
      out->push_back({Token::Kind::kLParen, "(", line});
      ++i;
      continue;
    }
    if (c == ')') {
      out->push_back({Token::Kind::kRParen, ")", line});
      ++i;
      continue;
    }
    if (c == ',') {
      out->push_back({Token::Kind::kComma, ",", line});
      ++i;
      continue;
    }
    if (c == '.') {
      out->push_back({Token::Kind::kPeriod, ".", line});
      ++i;
      continue;
    }
    if (c == '!') {
      out->push_back({Token::Kind::kBang, "!", line});
      ++i;
      continue;
    }
    if (c == ':') {
      if (i + 1 < text.size() && text[i + 1] == '-') {
        out->push_back({Token::Kind::kImplies, ":-", line});
        i += 2;
        continue;
      }
      return Status::InvalidArgument("line " + std::to_string(line) +
                                     ": expected ':-'");
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < text.size() && IsIdentChar(text[j])) ++j;
      out->push_back(
          {Token::Kind::kIdent, std::string(text.substr(i, j - i)), line});
      i = j;
      continue;
    }
    return Status::InvalidArgument("line " + std::to_string(line) +
                                   ": unexpected character '" +
                                   std::string(1, c) + "'");
  }
  out->push_back({Token::Kind::kEnd, "", line});
  return Status::Ok();
}

inline bool IsVariableName(const std::string& name) {
  return !name.empty() &&
         (name[0] == '_' || std::isupper(static_cast<unsigned char>(name[0])));
}

// Shared recursive-descent machinery for programs and databases.
class Parser {
 public:
  Parser(std::vector<Token> tokens, Program* program)
      : tokens_(std::move(tokens)), program_(program) {}

  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }

  Status Fail(const std::string& expected) const {
    return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                   ": expected " + expected + ", found " +
                                   Describe(Peek()));
  }

  Status Expect(Token::Kind kind, const std::string& what) {
    if (Peek().kind != kind) return Fail(what);
    Take();
    return Status::Ok();
  }

  // Parses `pred` or `pred(t1, ..., tn)`. Declares the predicate on first
  // use. When `ground_only`, variables are rejected.
  Status ParseAtom(Atom* atom,
                   std::unordered_map<std::string, int32_t>* variables,
                   std::vector<std::string>* variable_names, bool ground_only) {
    if (Peek().kind != Token::Kind::kIdent) return Fail("a predicate name");
    const Token name = Take();
    if (name.text == "not") {
      return Status::InvalidArgument("line " + std::to_string(name.line) +
                                     ": 'not' is a keyword, not a predicate");
    }
    std::vector<Term> args;
    if (Peek().kind == Token::Kind::kLParen) {
      Take();
      while (true) {
        if (Peek().kind != Token::Kind::kIdent) return Fail("a term");
        const Token term_token = Take();
        if (IsVariableName(term_token.text)) {
          if (ground_only) {
            return Status::InvalidArgument(
                "line " + std::to_string(term_token.line) +
                ": variable '" + term_token.text +
                "' not allowed in a ground fact");
          }
          auto [it, inserted] = variables->emplace(
              term_token.text, static_cast<int32_t>(variables->size()));
          if (inserted) variable_names->push_back(term_token.text);
          args.push_back(Term::Variable(it->second));
        } else {
          args.push_back(
              Term::Constant(program_->InternConstant(term_token.text)));
        }
        if (Peek().kind == Token::Kind::kComma) {
          Take();
          continue;
        }
        break;
      }
      Status s = Expect(Token::Kind::kRParen, "')'");
      if (!s.ok()) return s;
    }

    const int32_t arity = static_cast<int32_t>(args.size());
    const PredId existing = program_->LookupPredicate(name.text);
    PredId pred;
    if (existing >= 0) {
      pred = existing;
      if (program_->predicate(pred).arity != arity) {
        std::ostringstream msg;
        msg << "line " << name.line << ": predicate " << name.text
            << " used with arity " << arity << " but previously had arity "
            << program_->predicate(pred).arity;
        return Status::InvalidArgument(msg.str());
      }
    } else {
      pred = program_->DeclarePredicate(name.text, arity);
    }
    atom->predicate = pred;
    atom->args = std::move(args);
    return Status::Ok();
  }

  // Parses one `head [:- body].` statement into `rule`.
  Status ParseRule(Rule* rule) {
    std::unordered_map<std::string, int32_t> variables;
    rule->variable_names.clear();
    Status s = ParseAtom(&rule->head, &variables, &rule->variable_names,
                         /*ground_only=*/false);
    if (!s.ok()) return s;
    if (Peek().kind == Token::Kind::kImplies) {
      Take();
      while (true) {
        Literal literal;
        literal.positive = true;
        if (Peek().kind == Token::Kind::kBang) {
          Take();
          literal.positive = false;
        } else if (Peek().kind == Token::Kind::kIdent &&
                   Peek().text == "not") {
          Take();
          literal.positive = false;
        }
        s = ParseAtom(&literal.atom, &variables, &rule->variable_names,
                      /*ground_only=*/false);
        if (!s.ok()) return s;
        rule->body.push_back(std::move(literal));
        if (Peek().kind == Token::Kind::kComma) {
          Take();
          continue;
        }
        break;
      }
    }
    rule->num_variables = static_cast<int32_t>(variables.size());
    return Expect(Token::Kind::kPeriod, "'.' at end of rule");
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Program* program_;
};

inline Result<Program> ParseProgram(std::string_view text) {
  std::vector<Token> tokens;
  Status s = Tokenize(text, &tokens);
  if (!s.ok()) return s;

  Program program;
  Parser parser(std::move(tokens), &program);
  while (parser.Peek().kind != Token::Kind::kEnd) {
    Rule rule;
    s = parser.ParseRule(&rule);
    if (!s.ok()) return s;
    program.AddRule(std::move(rule));
  }
  s = program.Validate();
  if (!s.ok()) return s;
  return program;
}

inline Result<Database> ParseDatabase(std::string_view text,
                                      Program* program) {
  std::vector<Token> tokens;
  Status s = Tokenize(text, &tokens);
  if (!s.ok()) return s;

  Parser parser(std::move(tokens), program);
  // Collect facts first: implicit predicate declarations must all land in
  // `program` before the Database snapshot of arities is taken. Each
  // predicate's rows gather into one flat buffer that loads with a single
  // sort (per-fact Insert would shift the sorted arena: O(n^2) on unsorted
  // text).
  std::vector<std::vector<ConstId>> rows;
  std::vector<char> propositions;
  while (parser.Peek().kind != Token::Kind::kEnd) {
    Atom atom;
    std::unordered_map<std::string, int32_t> no_vars;
    std::vector<std::string> no_names;
    s = parser.ParseAtom(&atom, &no_vars, &no_names, /*ground_only=*/true);
    if (!s.ok()) return s;
    s = parser.Expect(Token::Kind::kPeriod, "'.' at end of fact");
    if (!s.ok()) return s;
    if (atom.predicate >= static_cast<PredId>(rows.size())) {
      rows.resize(atom.predicate + 1);
      propositions.resize(atom.predicate + 1, 0);
    }
    if (atom.args.empty()) propositions[atom.predicate] = 1;
    for (const Term& term : atom.args) {
      rows[atom.predicate].push_back(term.index);
    }
  }

  Database database(*program);
  for (PredId p = 0; p < static_cast<PredId>(rows.size()); ++p) {
    if (propositions[p]) database.InsertProposition(p);
    if (!rows[p].empty()) database.BulkLoadFlat(p, std::move(rows[p]));
  }
  return database;
}

inline Result<AtomPattern> ParseAtomPattern(std::string_view text,
                                     Program* program) {
  std::vector<Token> tokens;
  Status s = Tokenize(text, &tokens);
  if (!s.ok()) return s;

  // Reject unknown predicates before ParseAtom runs: ParseAtom declares
  // predicates on first use (the program-parsing behavior), and a pattern
  // must never mutate the caller's predicate table — especially not on an
  // error path.
  if (tokens.empty() || tokens.front().kind != Token::Kind::kIdent) {
    return Status::InvalidArgument("expected a predicate name in pattern: " +
                                   std::string(text));
  }
  if (program->LookupPredicate(tokens.front().text) < 0) {
    return Status::InvalidArgument("unknown predicate '" +
                                   tokens.front().text +
                                   "' in query pattern: " + std::string(text));
  }
  Parser parser(std::move(tokens), program);
  AtomPattern pattern;
  std::unordered_map<std::string, int32_t> variables;
  s = parser.ParseAtom(&pattern.atom, &variables, &pattern.variable_names,
                       /*ground_only=*/false);
  if (!s.ok()) return s;
  if (parser.Peek().kind == Token::Kind::kPeriod) parser.Take();
  if (parser.Peek().kind != Token::Kind::kEnd) {
    return parser.Fail("end of pattern");
  }
  return pattern;
}

}  // namespace reference
}  // namespace tiebreak

#endif  // TIEBREAK_TESTS_REFERENCE_PARSER_H_
