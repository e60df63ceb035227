// Differential suite: the streaming parser against the token-vector parser
// it replaced (tests/reference_parser.h). Both parse the same texts, each
// into its own copy of the program; they must agree on OK-ness and status
// code, on the whole result when both succeed, and on the error message
// whenever the reference's tokenizer accepts the text. (With a lexical
// error the reference reports it before any syntax error, the streaming
// parser where it stands; parser.h documents the difference.)
//
// Texts: random programs and databases printed by ProgramToString /
// DatabaseToString, re-laid out token by token with random whitespace,
// '%' comments, '!' for 'not', and numeric or '_' identifiers; query
// patterns; and byte-level mutations of all of them.
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "reference_parser.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

constexpr int kRounds = 300;

void ExpectSameVocabulary(const Program& got, const Program& want,
                          const std::string& text) {
  ASSERT_EQ(got.num_predicates(), want.num_predicates()) << text;
  for (PredId p = 0; p < want.num_predicates(); ++p) {
    EXPECT_EQ(got.predicate(p).name, want.predicate(p).name) << text;
    EXPECT_EQ(got.predicate(p).arity, want.predicate(p).arity) << text;
  }
  ASSERT_EQ(got.num_constants(), want.num_constants()) << text;
  for (ConstId c = 0; c < want.num_constants(); ++c) {
    EXPECT_EQ(got.constant_name(c), want.constant_name(c)) << text;
  }
}

void ExpectSameProgram(const Program& got, const Program& want,
                       const std::string& text) {
  ExpectSameVocabulary(got, want, text);
  ASSERT_EQ(got.num_rules(), want.num_rules()) << text;
  for (int32_t r = 0; r < want.num_rules(); ++r) {
    const Rule& a = got.rule(r);
    const Rule& b = want.rule(r);
    EXPECT_EQ(a.head, b.head) << text;
    EXPECT_EQ(a.body, b.body) << text;
    EXPECT_EQ(a.num_variables, b.num_variables) << text;
    EXPECT_EQ(a.variable_names, b.variable_names) << text;
  }
}

// How a suite's texts fared, so a generator that drifts into producing
// only one kind of text fails the suite instead of passing vacuously.
struct Tally {
  int parsed = 0;          // both sides succeeded
  int same_message = 0;    // both failed; messages compared
  int lexical_errors = 0;  // both failed; the reference's tokenizer did
};
Tally tally;

// The same OK-ness and code; the same message when the reference's
// tokenizer accepts the text. Returns whether both succeeded.
bool ExpectSameOutcome(const Status& got, const Status& want,
                       const std::string& text) {
  EXPECT_EQ(got.ok(), want.ok()) << text << "\n got: " << got.ToString()
                                 << "\n want: " << want.ToString();
  EXPECT_EQ(got.code(), want.code()) << text;
  if (!got.ok() && !want.ok()) {
    std::vector<reference::Token> tokens;
    if (reference::Tokenize(text, &tokens).ok()) {
      EXPECT_EQ(got.message(), want.message()) << text;
      ++tally.same_message;
    } else {
      ++tally.lexical_errors;
    }
  }
  if (got.ok() && want.ok()) ++tally.parsed;
  return got.ok() && want.ok();
}

// Every randomized suite must see texts of all three kinds.
void ExpectEveryOutcome() {
  EXPECT_GT(tally.parsed, kRounds / 2);
  EXPECT_GT(tally.same_message, kRounds / 10);
  EXPECT_GT(tally.lexical_errors, kRounds / 10);
}

// Random inter-token layout: nothing, blanks, line breaks or a comment.
std::string Separator(Rng* rng, bool required) {
  switch (rng->Below(8)) {
    case 0:
      return required ? " " : "";
    case 1:
      return "\t";
    case 2:
      return "\n";
    case 3:
      return "\r\n";
    case 4:
      return "  % a comment: with (tokens), and 'quotes'.\n";
    case 5:
      return "\n\n ";
    default:
      return " ";
  }
}

// Re-renders a text the reference tokenizer accepts, token by token, with
// random separators. 'not' becomes '!' at random, and an identifier may be
// renamed, consistently across the text, to a numeric, '_'-prefixed or
// mixed spelling.
std::string Relayout(const std::string& text, Rng* rng) {
  std::vector<reference::Token> tokens;
  EXPECT_TRUE(reference::Tokenize(text, &tokens).ok()) << text;
  std::map<std::string, std::string> renames;
  std::string out = Separator(rng, false);
  bool last_ident = false;
  for (const reference::Token& token : tokens) {
    if (token.kind == reference::Token::Kind::kEnd) break;
    const bool ident = token.kind == reference::Token::Kind::kIdent;
    std::string spelling = token.text;
    if (ident && spelling == "not") {
      if (rng->Chance(0.5)) spelling = "!";
    } else if (ident) {
      auto [it, inserted] = renames.emplace(spelling, spelling);
      if (inserted && rng->Chance(0.15)) {
        const uint64_t k = rng->Below(4);
        const std::string digit = std::to_string(rng->Below(9));
        it->second = k == 0   ? std::to_string(rng->Below(1000))
                     : k == 1 ? "_" + spelling
                     : k == 2 ? spelling + "_" + digit
                              : "0" + spelling;
      }
      spelling = it->second;
    }
    const bool glued_ident = spelling != "!" && ident;
    out += Separator(rng, last_ident && glued_ident);
    out += spelling;
    last_ident = glued_ident;
  }
  return out + Separator(rng, false);
}

// 1–3 byte-level edits: inserted ':', '&', '%', '\n', '(' or '.', or a
// dropped '.' or ')'.
std::string Mutate(std::string text, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->Below(3));
  for (int e = 0; e < edits; ++e) {
    const size_t pos = text.empty() ? 0 : rng->Below(text.size() + 1);
    if (rng->Chance(0.6) || text.empty()) {
      text.insert(pos, 1, ":&%\n(."[rng->Below(6)]);
      continue;
    }
    const char drop = rng->Chance(0.5) ? '.' : ')';
    const size_t at = text.find(drop, rng->Below(text.size()));
    if (at != std::string::npos) text.erase(at, 1);
  }
  return text;
}

Program RandomSourceProgram(Rng* rng) {
  RandomProgramOptions options;
  options.arity = static_cast<int32_t>(rng->Below(3));
  options.num_rules = 1 + static_cast<int32_t>(rng->Below(8));
  options.num_idb = 1 + static_cast<int32_t>(rng->Below(4));
  options.num_edb = 1 + static_cast<int32_t>(rng->Below(3));
  return RandomProgram(rng, options);
}

void CompareProgramParse(const std::string& text) {
  Result<Program> got = ParseProgram(text);
  Result<Program> want = reference::ParseProgram(text);
  if (ExpectSameOutcome(got.status(), want.status(), text)) {
    ExpectSameProgram(*got, *want, text);
  }
}

void CompareDatabaseParse(const Program& base, const std::string& text) {
  Program mine = base;
  Program theirs = base;
  Result<Database> got = ParseDatabase(text, &mine);
  Result<Database> want = reference::ParseDatabase(text, &theirs);
  if (ExpectSameOutcome(got.status(), want.status(), text)) {
    ExpectSameVocabulary(mine, theirs, text);
    EXPECT_TRUE(*got == *want) << text;
  }
}

void ComparePatternParse(const Program& base, const std::string& text) {
  Program mine = base;
  Program theirs = base;
  Result<AtomPattern> got = ParseAtomPattern(text, &mine);
  Result<AtomPattern> want = reference::ParseAtomPattern(text, &theirs);
  if (ExpectSameOutcome(got.status(), want.status(), text)) {
    ExpectSameVocabulary(mine, theirs, text);
    EXPECT_EQ(got->atom, want->atom) << text;
    EXPECT_EQ(got->variable_names, want->variable_names) << text;
  }
  // A pattern never declares a predicate, on either path. (On a lexical
  // error the streaming parser may have interned constants first.)
  EXPECT_EQ(mine.num_predicates(), base.num_predicates()) << text;
}

TEST(ParserDifferentialTest, Programs) {
  tally = Tally{};
  Rng rng(0xD1FF01);
  for (int round = 0; round < kRounds; ++round) {
    const std::string clean = ProgramToString(RandomSourceProgram(&rng));
    const std::string text = Relayout(clean, &rng);
    CompareProgramParse(clean);
    CompareProgramParse(text);
    CompareProgramParse(Mutate(text, &rng));
  }
  ExpectEveryOutcome();
}

TEST(ParserDifferentialTest, Databases) {
  tally = Tally{};
  Rng rng(0xD1FF02);
  for (int round = 0; round < kRounds; ++round) {
    Program source = RandomSourceProgram(&rng);
    Result<Database> db = RandomEdbDatabase(
        &source, 2 + static_cast<int32_t>(rng.Below(6)), 0.4, &rng);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    // Facts for predicates the base program lacks exercise implicit
    // declaration: the base is the program text minus its last rule.
    const std::string facts = DatabaseToString(source, *db) +
                              "extra(c1, c2).\nflag.\nextra(c2, c1).\n";
    std::string program_text = ProgramToString(source);
    program_text.erase(program_text.rfind('\n', program_text.size() - 2) + 1);
    Result<Program> base = reference::ParseProgram(program_text);
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    const std::string text = Relayout(facts, &rng);
    CompareDatabaseParse(*base, facts);
    CompareDatabaseParse(*base, text);
    CompareDatabaseParse(*base, Mutate(text, &rng));
    CompareDatabaseParse(*base, Mutate(text, &rng));
  }
  ExpectEveryOutcome();
}

TEST(ParserDifferentialTest, Patterns) {
  tally = Tally{};
  Rng rng(0xD1FF03);
  for (int round = 0; round < kRounds; ++round) {
    const Program source = RandomSourceProgram(&rng);
    // A pattern over a random predicate (or an unknown one), with variables
    // and constants, some known to the program and some new.
    const PredId p =
        static_cast<PredId>(rng.Below(source.num_predicates() + 1));
    std::string text =
        p < source.num_predicates() ? source.predicate_name(p) : "unknown";
    const int32_t arity =
        p < source.num_predicates() ? source.predicate(p).arity : 1;
    const int32_t args = arity + (rng.Chance(0.2) ? 1 : 0);
    if (args > 0) {
      text += "(";
      for (int32_t i = 0; i < args; ++i) {
        if (i > 0) text += ", ";
        const uint64_t k = rng.Below(4);
        text += k == 0   ? "X"
                : k == 1 ? "Y" + std::to_string(i)
                : k == 2 ? "c" + std::to_string(rng.Below(3))
                         : "fresh" + std::to_string(i);
      }
      text += ")";
    }
    if (rng.Chance(0.5)) text += ".";
    ComparePatternParse(source, text);
    ComparePatternParse(source, Relayout(text, &rng));
    ComparePatternParse(source, Mutate(text, &rng));
  }
  ExpectEveryOutcome();
}

// Hand-picked texts at the edges of the grammar and the lexer.
TEST(ParserDifferentialTest, EdgeCases) {
  const Program base = *reference::ParseProgram("p(X) :- e(X), not q.");
  for (const char* text :
       {"", "%", "% only a comment", "\n\n\n", "p", "p.", "p(", "p()", "p(a",
        "p(a,", "p(a,)", "p(a) :-", "p(a) :- .", "p :- not.", "p :- !.",
        "p :- not not q.", "p :- ! ! q.", "not.", "not(a).", "p(not).",
        "p : q.", "p :- q & r.", ":", ":-", ".", "p(a). :", "p(a)\n.\n:",
        "p(A).", "e(_).", "e(_a, _b).", "e(007). e(7).", "p(a) :- e(X).",
        "e(a). e(a, b).", "zz(a). zz.", "P(a) :- not P(X), E(b).",
        "p(a).\r\nq(b).\r\n", "p(a). % tail\nq", "e(a). e(a).",
        "p :- q, r, !s, not t.", "x\x01y.", "e(\xc3\xa9).", "e(a)\t.\t"}) {
    const std::string s(text);
    CompareProgramParse(s);
    CompareDatabaseParse(base, s);
    ComparePatternParse(base, s);
  }
}

}  // namespace
}  // namespace tiebreak
