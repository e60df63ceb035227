// Tests for the language layer: parsing, printing (round-trips), program
// validation, EDB/IDB classification, databases, skeletons / alphabetic
// variants, and the program graph G(Π).
#include <algorithm>
#include <string>
#include <vector>

#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/database.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "lang/program.h"
#include "lang/program_graph.h"
#include "lang/skeleton.h"

namespace tiebreak {
namespace {

Program MustParse(const std::string& text) {
  Result<Program> result = ParseProgram(text);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << text;
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

TEST(ParserTest, WinMoveProgram) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  EXPECT_EQ(p.num_rules(), 1);
  EXPECT_EQ(p.num_predicates(), 2);
  const PredId win = p.LookupPredicate("win");
  const PredId move = p.LookupPredicate("move");
  ASSERT_GE(win, 0);
  ASSERT_GE(move, 0);
  EXPECT_EQ(p.predicate(win).arity, 1);
  EXPECT_EQ(p.predicate(move).arity, 2);
  EXPECT_FALSE(p.IsEdb(win));
  EXPECT_TRUE(p.IsEdb(move));

  const Rule& rule = p.rule(0);
  EXPECT_EQ(rule.num_variables, 2);
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_TRUE(rule.body[0].positive);
  EXPECT_FALSE(rule.body[1].positive);
  EXPECT_EQ(rule.head.predicate, win);
  EXPECT_TRUE(rule.head.args[0].is_variable());
}

TEST(ParserTest, ZeroArityAtomsAndBangNegation) {
  Program p = MustParse("p :- !q, r.\nq :- not p.");
  EXPECT_EQ(p.num_predicates(), 3);
  EXPECT_EQ(p.rule(0).body[0].positive, false);
  EXPECT_EQ(p.rule(0).body[1].positive, true);
  EXPECT_TRUE(p.IsEdb(p.LookupPredicate("r")));
}

TEST(ParserTest, ConstantsAndVariablesDistinguishedByCase) {
  Program p = MustParse("P(a) :- not P(X), E(b).");  // paper's program (1)
  const Rule& rule = p.rule(0);
  EXPECT_TRUE(rule.head.args[0].is_constant());
  EXPECT_TRUE(rule.body[0].atom.args[0].is_variable());
  EXPECT_TRUE(rule.body[1].atom.args[0].is_constant());
  EXPECT_EQ(p.constant_name(rule.head.args[0].index), "a");
  EXPECT_EQ(p.constant_name(rule.body[1].atom.args[0].index), "b");
}

TEST(ParserTest, UnderscorePrefixedIdentifierIsVariable) {
  Program p = MustParse("q(_x, _x) :- e(_x).");
  EXPECT_EQ(p.rule(0).num_variables, 1);
}

TEST(ParserTest, NumericConstants) {
  Program p = MustParse("succ_used(X) :- succ(0, X).");
  EXPECT_GE(p.LookupConstant("0"), 0);
}

TEST(ParserTest, CommentsAndWhitespace) {
  Program p = MustParse(
      "% a comment line\n"
      "p :- q.   % trailing comment\n"
      "\n"
      "q.\n");
  EXPECT_EQ(p.num_rules(), 2);
  EXPECT_TRUE(p.rule(1).body.empty());
}

TEST(ParserTest, EmptyBodyRuleIsFact) {
  Program p = MustParse("seed(a).");
  EXPECT_EQ(p.num_rules(), 1);
  EXPECT_TRUE(p.rule(0).body.empty());
  EXPECT_FALSE(p.IsEdb(p.LookupPredicate("seed")));  // head of a rule
}

TEST(ParserTest, RepeatedVariablesShareIndex) {
  Program p = MustParse("diag(X, X) :- e(X, Y), e(Y, X).");
  const Rule& rule = p.rule(0);
  EXPECT_EQ(rule.num_variables, 2);
  EXPECT_EQ(rule.head.args[0], rule.head.args[1]);
}

TEST(ParserErrorTest, ArityMismatchRejected) {
  Result<Program> r = ParseProgram("p(a). q :- p(a, b).");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("arity"), std::string::npos);
}

TEST(ParserErrorTest, MissingPeriodRejected) {
  EXPECT_FALSE(ParseProgram("p :- q").ok());
}

TEST(ParserErrorTest, NotAsPredicateRejected) {
  EXPECT_FALSE(ParseProgram("not :- p.").ok());
}

TEST(ParserErrorTest, UnexpectedCharacterRejected) {
  Result<Program> r = ParseProgram("p :- q & r.");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 1"), std::string::npos);
}

TEST(ParserErrorTest, DanglingColonRejected) {
  EXPECT_FALSE(ParseProgram("p : q.").ok());
}

// ---------------------------------------------------------------------------
// Databases.
// ---------------------------------------------------------------------------

TEST(DatabaseTest, ParseAndQuery) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  Result<Database> db = ParseDatabase("move(a, b). move(b, c).", &p);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const PredId move = p.LookupPredicate("move");
  const ConstId a = p.LookupConstant("a");
  const ConstId b = p.LookupConstant("b");
  const ConstId c = p.LookupConstant("c");
  EXPECT_TRUE(db->Contains(move, {a, b}));
  EXPECT_TRUE(db->Contains(move, {b, c}));
  EXPECT_FALSE(db->Contains(move, {a, c}));
  EXPECT_EQ(db->TotalFacts(), 2);
  EXPECT_EQ(db->ReferencedConstants().size(), 3u);
}

TEST(DatabaseTest, ImplicitPredicateDeclaration) {
  Program p = MustParse("p :- q.");
  Result<Database> db = ParseDatabase("extra(a, b).", &p);
  ASSERT_TRUE(db.ok());
  const PredId extra = p.LookupPredicate("extra");
  ASSERT_GE(extra, 0);
  EXPECT_TRUE(p.IsEdb(extra));
  EXPECT_EQ(p.predicate(extra).arity, 2);
}

TEST(DatabaseTest, VariablesInFactsRejected) {
  Program p = MustParse("p :- q.");
  EXPECT_FALSE(ParseDatabase("e(X).", &p).ok());
}

// A rejected text declares no predicate, so a database parsed earlier still
// matches the program (Ground CHECKs that it does).
TEST(DatabaseTest, RejectedTextDeclaresNoPredicate) {
  Program p = MustParse("p(X) :- e(X).");
  Result<Database> db1 = ParseDatabase("e(a).", &p);
  ASSERT_TRUE(db1.ok());
  const int32_t predicates = p.num_predicates();
  for (const char* text : {"e(b). zz(c) e(d).", "e(b). zz(c). yy & e(d).",
                           "zz(c). zz(c, d).", "zz(c). e(X)."}) {
    Result<Database> bad = ParseDatabase(text, &p);
    ASSERT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << text;
    ASSERT_EQ(p.num_predicates(), predicates) << text;
  }
  EXPECT_LT(p.LookupPredicate("zz"), 0);
  Result<GroundingResult> ground = Ground(p, *db1);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();
  EXPECT_EQ(ground->graph.num_rules(), 1);
}

TEST(DatabaseTest, ZeroArityFacts) {
  Program p = MustParse("p :- q, not r.");
  Result<Database> db = ParseDatabase("q. r.", &p);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE(db->Contains(p.LookupPredicate("q"), {}));
  EXPECT_TRUE(db->Contains(p.LookupPredicate("r"), {}));
}

TEST(DatabaseTest, DuplicateInsertIsNoOp) {
  Program p = MustParse("p(X) :- e(X).");
  Database db(p);
  const ConstId a = p.InternConstant("a");
  const PredId e = p.LookupPredicate("e");
  db.Insert(e, {a});
  db.Insert(e, {a});
  EXPECT_EQ(db.TotalFacts(), 1);
}

TEST(DatabaseTest, BulkLoadMatchesPerTupleInsert) {
  // BulkLoad promises the same database as per-tuple Insert of the same
  // facts — including the merge-into-non-empty branch: load two
  // overlapping batches (with internal duplicates, unsorted) into one
  // predicate and compare against the insert-built twin.
  Program p = MustParse("p(X, Y) :- e(X, Y).");
  const PredId e = p.LookupPredicate("e");
  std::vector<ConstId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(p.InternConstant("c" + std::to_string(i)));
  }
  std::vector<Tuple> batch1, batch2;
  for (int i = 39; i >= 0; --i) {
    batch1.push_back({ids[i], ids[(i * 7) % 40]});
    batch1.push_back({ids[i], ids[(i * 7) % 40]});  // in-batch duplicate
  }
  for (int i = 0; i < 40; i += 3) {
    batch2.push_back({ids[i], ids[(i * 7) % 40]});   // overlaps batch1
    batch2.push_back({ids[(i * 11) % 40], ids[i]});  // mostly new
  }

  Database bulk(p);
  Database reference(p);
  for (const Tuple& t : batch1) reference.Insert(e, t);
  for (const Tuple& t : batch2) reference.Insert(e, t);
  bulk.BulkLoad(e, std::move(batch1));
  bulk.BulkLoad(e, std::move(batch2));  // second load merges into non-empty
  EXPECT_TRUE(bulk == reference);
  EXPECT_EQ(bulk.TotalFacts(), reference.TotalFacts());
}

TEST(DatabaseTest, ParseIgnoresFactOrderAndDuplicates) {
  // Facts load per predicate in one sorted bulk load, so the order and
  // repetition of the text must not show in the database.
  Program p = MustParse("w(X) :- m(X, Y), not w(Y).\nq :- r.");
  std::vector<std::string> facts;
  for (int i = 0; i < 50; ++i) {
    facts.push_back("m(c" + std::to_string(i) + ", c" +
                    std::to_string((i * 17 + 3) % 50) + ").");
    facts.push_back("m(c" + std::to_string(i) + ", c" +
                    std::to_string((i * 29 + 1) % 50) + ").");
  }
  facts.push_back("r.");
  facts.push_back("w(c7).");
  std::vector<std::string> sorted = facts;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::string> shuffled = facts;
  for (size_t i = 0; i < shuffled.size(); ++i) {
    std::swap(shuffled[i], shuffled[(i * 37 + 11) % shuffled.size()]);
  }
  std::string sorted_text, shuffled_text, duplicated_text;
  for (const std::string& fact : sorted) sorted_text += fact + "\n";
  for (const std::string& fact : shuffled) {
    shuffled_text += fact + " ";
    duplicated_text += fact + " " + fact + " ";
  }
  Result<Database> from_sorted = ParseDatabase(sorted_text, &p);
  Result<Database> from_shuffled = ParseDatabase(shuffled_text, &p);
  Result<Database> from_duplicated = ParseDatabase(duplicated_text, &p);
  ASSERT_TRUE(from_sorted.ok() && from_shuffled.ok() && from_duplicated.ok());
  EXPECT_TRUE(*from_sorted == *from_shuffled);
  EXPECT_TRUE(*from_sorted == *from_duplicated);
  Database reference(p);
  for (const std::string& fact : facts) {
    Result<Database> one = ParseDatabase(fact, &p);
    ASSERT_TRUE(one.ok());
    for (PredId pred = 0; pred < one->num_predicates(); ++pred) {
      for (const Tuple& tuple : one->Tuples(pred)) {
        reference.Insert(pred, tuple);
      }
    }
  }
  EXPECT_TRUE(*from_sorted == reference);
}

// ---------------------------------------------------------------------------
// The copy-on-write constant table.
// ---------------------------------------------------------------------------

TEST(ProgramTest, InterningIntoACopyLeavesTheOriginalAlone) {
  Program original = MustParse("p(X) :- e(X, a), not q(b).");
  const int32_t size = original.num_constants();
  const ConstId a = original.LookupConstant("a");
  const ConstId b = original.LookupConstant("b");

  Program copy = original;
  const ConstId fresh = copy.InternConstant("fresh");
  EXPECT_EQ(fresh, size);
  EXPECT_EQ(copy.num_constants(), size + 1);
  EXPECT_EQ(original.num_constants(), size);
  EXPECT_EQ(original.LookupConstant("fresh"), -1);
  EXPECT_EQ(copy.LookupConstant("a"), a);
  EXPECT_EQ(copy.InternConstant("b"), b);  // known names never copy or move

  // The reverse: the original interns, the copy keeps its own table.
  EXPECT_EQ(original.InternConstant("other"), size);
  EXPECT_EQ(copy.constant_name(size), "fresh");
  EXPECT_EQ(original.constant_name(size), "other");
  EXPECT_EQ(copy.LookupConstant("other"), -1);

  // A vocabulary copy shares ids, keeps predicates and drops rules.
  const Program vocabulary = original.CopyVocabulary();
  EXPECT_EQ(vocabulary.num_rules(), 0);
  EXPECT_EQ(vocabulary.num_predicates(), original.num_predicates());
  for (PredId q = 0; q < original.num_predicates(); ++q) {
    EXPECT_EQ(vocabulary.predicate_name(q), original.predicate_name(q));
    EXPECT_EQ(vocabulary.predicate(q).arity, original.predicate(q).arity);
  }
  EXPECT_EQ(vocabulary.num_constants(), original.num_constants());
  for (ConstId c = 0; c < original.num_constants(); ++c) {
    EXPECT_EQ(vocabulary.constant_name(c), original.constant_name(c));
  }
}

// ---------------------------------------------------------------------------
// Printing round-trips.
// ---------------------------------------------------------------------------

TEST(PrinterTest, RoundTripPreservesProgram) {
  const std::string text =
      "win(X) :- move(X, Y), not win(Y).\n"
      "p :- not q.\n"
      "seed(a).\n"
      "t(X, X, b) :- e(X), not f(X, X).\n";
  Program p1 = MustParse(text);
  const std::string printed = ProgramToString(p1);
  Program p2 = MustParse(printed);
  EXPECT_EQ(printed, ProgramToString(p2));
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(PrinterTest, GroundAtomRendering) {
  Program p = MustParse("p(X) :- e(X).");
  const ConstId a = p.InternConstant("a");
  EXPECT_EQ(GroundAtomToString(p, p.LookupPredicate("e"), {a}), "e(a)");
}

TEST(PrinterTest, DatabaseRendering) {
  Program p = MustParse("p :- e(X).");
  Result<Database> db = ParseDatabase("e(a). p.", &p);
  ASSERT_TRUE(db.ok());
  const std::string printed = DatabaseToString(p, *db);
  EXPECT_NE(printed.find("e(a).\n"), std::string::npos);
  EXPECT_NE(printed.find("p.\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Skeletons and alphabetic variants.
// ---------------------------------------------------------------------------

TEST(SkeletonTest, PaperPrograms1And2AreAlphabeticVariants) {
  // Program (1): P(a) <- not P(x), E(b).  Program (2): P(x,y) <- not P(y,y), E(x).
  Program p1 = MustParse("P(a) :- not P(X), E(b).");
  Program p2 = MustParse("P(X, Y) :- not P(Y, Y), E(X).");
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, DifferentSignsAreDifferentSkeletons) {
  Program p1 = MustParse("p :- q.");
  Program p2 = MustParse("p :- not q.");
  EXPECT_FALSE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, BodyOrderDoesNotMatter) {
  Program p1 = MustParse("p(X) :- e(X), not q(X).");
  Program p2 = MustParse("p(Y, Y) :- not q(Y), e(Y, Y).");
  EXPECT_TRUE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, RuleMultiplicityMatters) {
  Program p1 = MustParse("p :- q.\np :- q.");
  Program p2 = MustParse("p :- q.");
  EXPECT_FALSE(SameSkeleton(p1, p2));
}

TEST(SkeletonTest, ToStringMentionsSigns) {
  Program p = MustParse("p(X) :- e(X), not q(X).");
  const std::string s = SkeletonToString(SkeletonOf(p));
  EXPECT_NE(s.find("not q"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Program graph.
// ---------------------------------------------------------------------------

TEST(ProgramGraphTest, WinMoveGraphShape) {
  Program p = MustParse("win(X) :- move(X, Y), not win(Y).");
  const ProgramGraph pg = BuildProgramGraph(p);
  EXPECT_EQ(pg.graph.num_nodes(), 2);
  ASSERT_EQ(pg.graph.num_edges(), 2);
  const PredId win = p.LookupPredicate("win");
  const PredId move = p.LookupPredicate("move");
  bool saw_move_edge = false, saw_win_loop = false;
  for (int e = 0; e < pg.graph.num_edges(); ++e) {
    const SignedEdge& edge = pg.graph.edge(e);
    if (edge.from == move) {
      EXPECT_EQ(edge.to, win);
      EXPECT_FALSE(edge.negative);
      saw_move_edge = true;
    }
    if (edge.from == win) {
      EXPECT_EQ(edge.to, win);
      EXPECT_TRUE(edge.negative);
      saw_win_loop = true;
    }
  }
  EXPECT_TRUE(saw_move_edge);
  EXPECT_TRUE(saw_win_loop);
}

TEST(ProgramGraphTest, ProvenancePointsBackToOccurrences) {
  Program p = MustParse("a :- b, not c.\nb :- a.");
  const ProgramGraph pg = BuildProgramGraph(p);
  ASSERT_EQ(pg.provenance.size(), 3u);
  for (int e = 0; e < pg.graph.num_edges(); ++e) {
    const auto& occ = pg.provenance[e];
    const Rule& rule = p.rule(occ.rule_index);
    const Literal& lit = rule.body[occ.body_index];
    EXPECT_EQ(lit.atom.predicate, pg.graph.edge(e).from);
    EXPECT_EQ(rule.head.predicate, pg.graph.edge(e).to);
    EXPECT_EQ(!lit.positive, pg.graph.edge(e).negative);
  }
}

TEST(ProgramGraphTest, ParallelEdgesForBothSigns) {
  Program p = MustParse("q :- p, not p.");
  const ProgramGraph pg = BuildProgramGraph(p);
  EXPECT_EQ(pg.graph.num_edges(), 2);
  EXPECT_EQ(pg.graph.CountNegativeEdges(), 1);
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(ValidateTest, HandBuiltProgramValidates) {
  Program p;
  const PredId e = p.DeclarePredicate("e", 1);
  const PredId q = p.DeclarePredicate("q", 1);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(0)}};
  rule.body.push_back(Literal{Atom{e, {Term::Variable(0)}}, true});
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ValidateTest, OutOfRangeVariableRejected) {
  Program p;
  const PredId q = p.DeclarePredicate("q", 1);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(3)}};  // no such variable
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_FALSE(p.Validate().ok());
}

TEST(ValidateTest, WrongArityRejected) {
  Program p;
  const PredId q = p.DeclarePredicate("q", 2);
  Rule rule;
  rule.head = Atom{q, {Term::Variable(0)}};  // arity 2 used with 1 arg
  rule.num_variables = 1;
  rule.variable_names = {"X"};
  p.AddRule(rule);
  EXPECT_FALSE(p.Validate().ok());
}

}  // namespace
}  // namespace tiebreak
