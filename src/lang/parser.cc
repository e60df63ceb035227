#include "lang/parser.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace tiebreak {

namespace {

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
    kError,  // a byte no token starts with; `text` holds it
  };
  Kind kind = Kind::kEnd;
  std::string_view text;  // a view into the parsed text
  int64_t line = 0;
};

std::string LinePrefix(int64_t line) {
  return "line " + std::to_string(line) + ": ";
}

std::string Describe(const Token& token) {
  switch (token.kind) {
    case Token::Kind::kIdent:
      return "identifier '" + std::string(token.text) + "'";
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
    case Token::Kind::kError:
      break;
  }
  return "?";
}

// [A-Za-z0-9_], independent of the C locale.
bool IsIdentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool IsVariableName(std::string_view name) {
  return !name.empty() &&
         (name[0] == '_' || (name[0] >= 'A' && name[0] <= 'Z'));
}

// A pull lexer: one token of lookahead, each token a view into the text.
// An unlexable byte becomes a kError token that stays in place; the parser
// reports it when it gets there.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) { Advance(); }

  const Token& Peek() const { return token_; }

  Token Take() {
    const Token token = token_;
    Advance();
    return token;
  }

 private:
  void Advance() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c == '%') {  // comment to end of line
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
      ++pos_;
    }
    token_.line = line_;
    if (pos_ == text_.size()) {
      token_.kind = Token::Kind::kEnd;
      token_.text = {};
      return;
    }
    const size_t start = pos_;
    token_.kind = Token::Kind::kError;
    switch (text_[pos_]) {
      case '(':
        token_.kind = Token::Kind::kLParen;
        break;
      case ')':
        token_.kind = Token::Kind::kRParen;
        break;
      case ',':
        token_.kind = Token::Kind::kComma;
        break;
      case '.':
        token_.kind = Token::Kind::kPeriod;
        break;
      case '!':
        token_.kind = Token::Kind::kBang;
        break;
      case ':':
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
          token_.kind = Token::Kind::kImplies;
          ++pos_;
        }
        break;
      default:
        if (IsIdentChar(text_[pos_])) {
          token_.kind = Token::Kind::kIdent;
          while (pos_ + 1 < text_.size() && IsIdentChar(text_[pos_ + 1])) {
            ++pos_;
          }
        }
        break;
    }
    if (token_.kind == Token::Kind::kError) {
      token_.text = text_.substr(start, 1);  // stays put: pos_ not advanced
      return;
    }
    ++pos_;
    token_.text = text_.substr(start, pos_ - start);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int64_t line_ = 1;
  Token token_;
};

// The error for the kError token `token`.
Status LexicalError(const Token& token) {
  if (token.text == ":") {
    return Status::InvalidArgument(LinePrefix(token.line) + "expected ':-'");
  }
  return Status::InvalidArgument(LinePrefix(token.line) +
                                 "unexpected character '" +
                                 std::string(token.text) + "'");
}

std::string ArityError(const Token& name, int32_t arity, int32_t previous) {
  return LinePrefix(name.line) + "predicate " + std::string(name.text) +
         " used with arity " + std::to_string(arity) +
         " but previously had arity " + std::to_string(previous);
}

// The one recursive-descent grammar behind programs, databases and
// patterns.
class Parser {
 public:
  Parser(std::string_view text, Program* program)
      : lexer_(text), program_(program) {}

  const Token& Peek() const { return lexer_.Peek(); }
  Token Take() { return lexer_.Take(); }

  // The error for an unexpected token; at an unlexable byte, the lexical
  // error instead.
  Status Fail(const char* expected) const {
    const Token& token = Peek();
    if (token.kind == Token::Kind::kError) return LexicalError(token);
    return Status::InvalidArgument(LinePrefix(token.line) + "expected " +
                                   expected + ", found " + Describe(token));
  }

  Status Expect(Token::Kind kind, const char* what) {
    if (Peek().kind != kind) return Fail(what);
    Take();
    return Status::Ok();
  }

  // Parses `pred` or `pred(t1, ..., tn)` into `*name` and `*arity`, handing
  // each argument token to `on_term(token)`, which returns a Status. The
  // caller resolves the predicate.
  template <typename OnTerm>
  Status ParseAtom(Token* name, int32_t* arity, OnTerm on_term) {
    if (Peek().kind != Token::Kind::kIdent) return Fail("a predicate name");
    *name = Take();
    if (name->text == "not") {
      return Status::InvalidArgument(LinePrefix(name->line) +
                                     "'not' is a keyword, not a predicate");
    }
    *arity = 0;
    if (Peek().kind != Token::Kind::kLParen) return Status::Ok();
    Take();
    while (true) {
      if (Peek().kind != Token::Kind::kIdent) return Fail("a term");
      Status s = on_term(Take());
      if (!s.ok()) return s;
      ++*arity;
      if (Peek().kind != Token::Kind::kComma) break;
      Take();
    }
    return Expect(Token::Kind::kRParen, "')'");
  }

  // Parses an atom whose variables number into `variables` (first
  // occurrence order, names appended to `variable_names`), declaring its
  // predicate in the program on first use.
  Status ParseAtomWithVariables(
      Atom* atom, std::unordered_map<std::string_view, int32_t>* variables,
      std::vector<std::string>* variable_names) {
    atom->args.clear();
    Token name;
    int32_t arity = 0;
    Status s = ParseAtom(&name, &arity, [&](const Token& term) {
      if (IsVariableName(term.text)) {
        auto [it, inserted] = variables->emplace(
            term.text, static_cast<int32_t>(variables->size()));
        if (inserted) variable_names->emplace_back(term.text);
        atom->args.push_back(Term::Variable(it->second));
      } else {
        atom->args.push_back(
            Term::Constant(program_->InternConstant(term.text)));
      }
      return Status::Ok();
    });
    if (!s.ok()) return s;
    const PredId existing = program_->LookupPredicate(name.text);
    if (existing < 0) {
      atom->predicate = program_->DeclarePredicate(name.text, arity);
      return Status::Ok();
    }
    const int32_t previous = program_->predicate(existing).arity;
    if (previous != arity) {
      return Status::InvalidArgument(ArityError(name, arity, previous));
    }
    atom->predicate = existing;
    return Status::Ok();
  }

  // Parses one `head [:- body].` statement into `rule`.
  Status ParseRule(Rule* rule) {
    std::unordered_map<std::string_view, int32_t> variables;
    rule->variable_names.clear();
    Status s =
        ParseAtomWithVariables(&rule->head, &variables, &rule->variable_names);
    if (!s.ok()) return s;
    if (Peek().kind == Token::Kind::kImplies) {
      Take();
      while (true) {
        Literal literal;
        literal.positive = true;
        if (Peek().kind == Token::Kind::kBang ||
            (Peek().kind == Token::Kind::kIdent && Peek().text == "not")) {
          Take();
          literal.positive = false;
        }
        s = ParseAtomWithVariables(&literal.atom, &variables,
                                   &rule->variable_names);
        if (!s.ok()) return s;
        rule->body.push_back(std::move(literal));
        if (Peek().kind != Token::Kind::kComma) break;
        Take();
      }
    }
    rule->num_variables = static_cast<int32_t>(variables.size());
    return Expect(Token::Kind::kPeriod, "'.' at end of rule");
  }

 private:
  Lexer lexer_;
  Program* program_;
};

}  // namespace

Result<Program> ParseProgram(std::string_view text) {
  Program program;
  Parser parser(text, &program);
  while (parser.Peek().kind != Token::Kind::kEnd) {
    Rule rule;
    Status s = parser.ParseRule(&rule);
    if (!s.ok()) return s;
    program.AddRule(std::move(rule));
  }
  Status s = program.Validate();
  if (!s.ok()) return s;
  return program;
}

Result<Database> ParseDatabase(std::string_view text, Program* program) {
  Parser parser(text, program);
  // Predicates the program lacks collect here and are declared only once
  // the whole text has parsed, so a rejected text declares none. New
  // predicate i gets PredId base + i, the id first use would have given.
  const PredId base = program->num_predicates();
  SymbolTable new_names;
  std::vector<int32_t> new_arities;
  // Each predicate's rows gather into one flat buffer that loads with a
  // single sort (per-fact Insert would shift the sorted arena: O(n^2) on
  // unsorted text).
  std::vector<std::vector<ConstId>> rows(base);
  std::vector<char> propositions(base, 0);
  std::vector<ConstId> args;
  while (parser.Peek().kind != Token::Kind::kEnd) {
    args.clear();
    Token name;
    int32_t arity = 0;
    Status s = parser.ParseAtom(&name, &arity, [&](const Token& term) {
      if (IsVariableName(term.text)) {
        return Status::InvalidArgument(LinePrefix(term.line) + "variable '" +
                                       std::string(term.text) +
                                       "' not allowed in a ground fact");
      }
      args.push_back(program->InternConstant(term.text));
      return Status::Ok();
    });
    if (!s.ok()) return s;
    PredId pred = program->LookupPredicate(name.text);
    int32_t previous = arity;
    if (pred >= 0) {
      previous = program->predicate(pred).arity;
    } else {
      const int32_t index = new_names.Intern(name.text);
      if (index == static_cast<int32_t>(new_arities.size())) {
        new_arities.push_back(arity);
        rows.emplace_back();
        propositions.push_back(0);
      }
      pred = base + index;
      previous = new_arities[index];
    }
    if (previous != arity) {
      return Status::InvalidArgument(ArityError(name, arity, previous));
    }
    s = parser.Expect(Token::Kind::kPeriod, "'.' at end of fact");
    if (!s.ok()) return s;
    if (arity == 0) propositions[pred] = 1;
    rows[pred].insert(rows[pred].end(), args.begin(), args.end());
  }

  for (int32_t i = 0; i < new_names.size(); ++i) {
    const PredId pred =
        program->DeclarePredicate(new_names.Name(i), new_arities[i]);
    TIEBREAK_CHECK_EQ(pred, base + i);
  }
  Database database(*program);
  for (PredId p = 0; p < static_cast<PredId>(rows.size()); ++p) {
    if (propositions[p]) database.InsertProposition(p);
    if (!rows[p].empty()) database.BulkLoadFlat(p, std::move(rows[p]));
  }
  return database;
}

Result<AtomPattern> ParseAtomPattern(std::string_view text,
                                     Program* program) {
  Parser parser(text, program);
  // Reject unknown predicates before parsing the atom: the rule-atom path
  // declares predicates on first use, and a pattern must never mutate the
  // caller's predicate table — especially not on an error path.
  const Token& first = parser.Peek();
  if (first.kind == Token::Kind::kError) return LexicalError(first);
  if (first.kind != Token::Kind::kIdent) {
    return Status::InvalidArgument("expected a predicate name in pattern: " +
                                   std::string(text));
  }
  if (program->LookupPredicate(first.text) < 0) {
    return Status::InvalidArgument("unknown predicate '" +
                                   std::string(first.text) +
                                   "' in query pattern: " + std::string(text));
  }
  AtomPattern pattern;
  std::unordered_map<std::string_view, int32_t> variables;
  Status s = parser.ParseAtomWithVariables(&pattern.atom, &variables,
                                           &pattern.variable_names);
  if (!s.ok()) return s;
  if (parser.Peek().kind == Token::Kind::kPeriod) parser.Take();
  if (parser.Peek().kind != Token::Kind::kEnd) {
    return parser.Fail("end of pattern");
  }
  return pattern;
}

}  // namespace tiebreak
