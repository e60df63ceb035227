// Tests for the relational engine: relation indexes, safety checking,
// semi-naive evaluation against the perfect model (tests/
// reference_interpreters.h), correctness oracles (reachability via
// Floyd-Warshall), stratified negation, and agreement with the ground-graph
// semantics (perfect model / well-founded model).
#include <set>
#include <string>
#include <vector>

#include "core/stratification.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "engine/relation.h"
#include "gtest/gtest.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/execution_context.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::ExpectMatchesPerfectModel;
using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;

// ---------------------------------------------------------------------------
// Relation.
// ---------------------------------------------------------------------------

// Collects a probe's matching rows as owned tuples.
std::set<Tuple> ProbeSet(const Relation& rel, uint32_t mask,
                         const Tuple& pattern) {
  std::set<Tuple> found;
  for (int32_t row : rel.Probe(mask, pattern)) {
    found.insert(rel.TupleAt(row));
  }
  return found;
}

TEST(RelationTest, InsertDedupesAndProbes) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({1, 3}));
  EXPECT_TRUE(rel.Insert({2, 3}));
  EXPECT_EQ(rel.size(), 3);
  EXPECT_TRUE(rel.Contains({1, 3}));
  EXPECT_FALSE(rel.Contains({3, 1}));

  // Probe on first column = 1.
  const std::set<Tuple> found = ProbeSet(rel, 0b01, {1, 0});
  EXPECT_TRUE(found.contains(Tuple{1, 2}));
  EXPECT_TRUE(found.contains(Tuple{1, 3}));
}

TEST(RelationTest, ProbeAfterInsertSeesNewTuples) {
  Relation rel(1);
  rel.Insert({5});
  EXPECT_EQ(ProbeSet(rel, 0b1, {5}).size(), 1u);
  rel.Insert({5});  // duplicate
  rel.Insert({6});
  EXPECT_EQ(ProbeSet(rel, 0b1, {6}).size(), 1u);  // index appended to
}

TEST(RelationTest, EmptyMaskProbesEverything) {
  Relation rel(2);
  rel.Insert({1, 1});
  rel.Insert({2, 2});
  EXPECT_EQ(ProbeSet(rel, 0, {0, 0}).size(), 2u);
}

// Regression for the wipe-on-insert staleness hazard: interleave Insert and
// Probe on the *same* mask many times and require every previously inserted
// tuple to stay findable. (The pre-columnar implementation wiped all
// indexes on insert and relied on full rebuilds; incremental maintenance
// must keep already-materialized indexes exactly in sync.)
TEST(RelationTest, InterleavedInsertProbeStaysFresh) {
  Relation rel(2);
  for (int32_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(rel.Insert({i, i * 7}));
    // Probe the mask we keep reusing; the row inserted a moment ago must be
    // visible without any rebuild.
    const std::set<Tuple> by_first = ProbeSet(rel, 0b01, {i, 0});
    EXPECT_TRUE(by_first.contains(Tuple{i, i * 7})) << "i=" << i;
    // Every older row stays findable through both column indexes.
    if (i > 0) {
      const int32_t j = i / 2;
      EXPECT_TRUE(ProbeSet(rel, 0b01, {j, 0}).contains(Tuple{j, j * 7}));
      EXPECT_TRUE(ProbeSet(rel, 0b10, {0, j * 7}).contains(Tuple{j, j * 7}));
    }
  }
  EXPECT_EQ(rel.size(), 200);
}

TEST(RelationTest, InsertDuringProbeIterationIsSafe) {
  // Inserting into the relation while iterating a probe range must not
  // invalidate the iteration (semi-naive rounds probe the head relation
  // they are inserting into). Rows inserted mid-iteration become visible
  // to the next probe.
  Relation rel(2);
  for (int32_t i = 0; i < 32; ++i) rel.Insert({1, i});
  int32_t seen = 0;
  for (int32_t row : rel.Probe(0b01, {1, 0})) {
    EXPECT_EQ(rel.At(row, 0), 1);
    rel.Insert({1, 100 + seen});  // grows arena, chains and slot tables
    ++seen;
  }
  EXPECT_EQ(seen, 32);
  EXPECT_EQ(ProbeSet(rel, 0b01, {1, 0}).size(), 64u);
}

TEST(RelationTest, ReserveKeepsContentsAndDedupe) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Reserve(10'000);
  EXPECT_TRUE(rel.Contains({1, 2}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({2, 1}));
  EXPECT_EQ(rel.size(), 2);
}

TEST(RelationTest, ZeroArityRelationHoldsOneRow) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert(Tuple{}));
  EXPECT_FALSE(rel.Insert(Tuple{}));
  EXPECT_EQ(rel.size(), 1);
  EXPECT_TRUE(rel.Contains(Tuple{}));
  int32_t count = 0;
  for (int32_t row : rel.Probe(0, Tuple{})) {
    EXPECT_EQ(row, 0);
    ++count;
  }
  EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------------------------
// Safety.
// ---------------------------------------------------------------------------

TEST(SafetyTest, DetectsUnsafeRules) {
  EXPECT_TRUE(CheckSafety(TransitiveClosureProgram()).ok());
  EXPECT_TRUE(CheckSafety(WinMoveProgram()).ok());
  // Head variable not bound positively.
  Instance unsafe_head = ParseInstance("p(X) :- e(Y).");
  EXPECT_FALSE(CheckSafety(unsafe_head.program).ok());
  // Negated-literal variable not bound positively: paper program (1).
  Instance unsafe_neg = ParseInstance("P(a) :- not P(X), E(b).");
  EXPECT_FALSE(CheckSafety(unsafe_neg.program).ok());
}

// ---------------------------------------------------------------------------
// Evaluation correctness.
// ---------------------------------------------------------------------------

TEST(EngineTest, TransitiveClosureMatchesFloydWarshall) {
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    Program program = TransitiveClosureProgram();
    const int n = 2 + static_cast<int>(rng.Below(12));
    const int m = static_cast<int>(rng.Below(3 * n + 1));
    Database db = *RandomDigraphDatabase(&program, "e", n, m, &rng);

    Result<Database> result = EvaluateStratified(program, db);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Oracle.
    std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
    const PredId e = program.LookupPredicate("e");
    const PredId t = program.LookupPredicate("t");
    auto node_index = [&](ConstId c) {
      const std::string& name = program.constant_name(c);
      return std::stoi(name.substr(1));
    };
    for (const Tuple& tuple : db.Tuples(e)) {
      reach[node_index(tuple[0])][node_index(tuple[1])] = 1;
    }
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        if (!reach[i][k]) continue;
        for (int j = 0; j < n; ++j) {
          if (reach[k][j]) reach[i][j] = 1;
        }
      }
    }
    int64_t expected = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) expected += reach[i][j];
    }
    EXPECT_EQ(result->NumFacts(t), expected) << "round " << round;
  }
}

// Kept EDB relations: the first evaluation lent an EdbRelations publishes
// the EDB relations it loads, later ones borrow the same objects, and every
// result equals the per-call load. IDB relations (even with Δ facts) and
// EDB spans passed empty are never kept.
TEST(EngineTest, KeptEdbRelationsMatchPerCallLoads) {
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n"
      "s(X) :- e(X, X), not u(X).",
      "e(a, b). e(b, c). e(c, a). e(c, c). e(d, c). u(c). t(d, d).");
  const PredId e = inst.program.LookupPredicate("e");
  const PredId u = inst.program.LookupPredicate("u");
  const PredId t = inst.program.LookupPredicate("t");
  const Result<Database> reference =
      EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(reference.ok());

  EdbRelations edb(inst.database.num_predicates());
  const Relation* kept_e = nullptr;
  for (int call = 0; call < 3; ++call) {
    EngineOptions options;
    options.edb = &edb;
    const Result<Database> result =
        EvaluateStratified(inst.program, inst.database, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(*result == *reference) << "call " << call;
    if (kept_e == nullptr) kept_e = edb.Find(e);
    ASSERT_NE(kept_e, nullptr);
    EXPECT_EQ(edb.Find(e), kept_e);
    EXPECT_EQ(kept_e->size(), 5);
    EXPECT_NE(edb.Find(u), nullptr);
    EXPECT_EQ(edb.Find(t), nullptr);
  }

  // Only e's span: u is not borrowed, so ¬u(c) holds and s(c) is derived.
  std::vector<FactSpan> spans(inst.program.num_predicates());
  spans[e] = inst.database.Facts(e);
  EngineOptions options;
  options.edb = &edb;
  const Result<Database> without_u = EvaluateStratified(
      inst.program, Span<const FactSpan>(spans.data(), spans.size()),
      options);
  ASSERT_TRUE(without_u.ok());
  const PredId s = inst.program.LookupPredicate("s");
  EXPECT_EQ(without_u->NumFacts(s), 1);
  EXPECT_EQ(reference->NumFacts(s), 0);
  EXPECT_EQ(edb.Find(e), kept_e);
}

TEST(EngineTest, SemiNaiveMatchesPerfectModel) {
  Rng rng(123);
  for (int round = 0; round < 15; ++round) {
    Program program = TransitiveClosureProgram();
    Database db = *RandomDigraphDatabase(&program, "e", 10, 25, &rng);
    Result<Database> result = EvaluateStratified(program, db);
    ASSERT_TRUE(result.ok());
    ExpectMatchesPerfectModel(program, db, *result,
                              "round " + std::to_string(round));
  }
}

// The storage/join rewrite must not silently diverge on programs beyond the
// hand-written ones: generate random safe programs, keep the stratified
// ones, and require the engine to compute exactly the perfect model on
// random EDBs.
TEST(EngineTest, SemiNaiveMatchesPerfectModelOnRandomStratifiedPrograms) {
  Rng rng(0xE17A);
  int evaluated = 0;
  for (int round = 0; round < 120; ++round) {
    RandomProgramOptions options;
    options.num_idb = 2 + static_cast<int>(rng.Below(3));
    options.num_edb = 1 + static_cast<int>(rng.Below(3));
    options.num_rules = 2 + static_cast<int>(rng.Below(8));
    options.max_body = 1 + static_cast<int>(rng.Below(3));
    options.negation_probability = rng.Unit() * 0.5;
    options.arity = 1 + static_cast<int>(rng.Below(2));
    Program program = RandomProgram(&rng, options);
    ASSERT_TRUE(program.Validate().ok());
    if (!CheckSafety(program).ok()) continue;
    if (!ComputeStrata(program).has_value()) continue;

    Database db = *RandomEdbDatabase(&program, 4, 0.4, &rng);
    EngineStats stats;
    Result<Database> result =
        EvaluateStratified(program, db, EngineOptions{}, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesPerfectModel(program, db, *result,
                              "round " + std::to_string(round));
    // Every derived tuple is counted once.
    int64_t idb_facts = 0;
    for (PredId p = 0; p < program.num_predicates(); ++p) {
      if (!program.IsEdb(p)) idb_facts += result->NumFacts(p);
    }
    EXPECT_EQ(stats.tuples_derived, idb_facts) << "round " << round;
    ++evaluated;
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(evaluated, 30);
}

TEST(EngineTest, SemiNaiveJoinsEachDerivedTupleAtMostTwice) {
  // Semi-naive rounds join each t(Y, Z) with e(X, Y) when the tuple is new,
  // never again: once as a delta row, plus once in round 0 for the base
  // rule's tuples, which are round 1's delta too. So the recursive rule's
  // matches lie between the sum of indeg(Y) over all t(Y, Z) and twice
  // that, where a naive re-derivation would repeat them every round. Note:
  // a forward chain is *not* a good workload for this — the flat
  // relation's newest-first probe order walks chain edges in
  // reverse-topological order, so round 0 converges in one pass. Cycles
  // and random graphs cannot be closed in one pass.
  Rng rng(7);
  for (int instance = 0; instance < 2; ++instance) {
    Program program = TransitiveClosureProgram();
    Database db = instance == 0
                      ? *CycleDatabase(&program, "e", 30)
                      : *RandomDigraphDatabase(&program, "e", 20, 50, &rng);
    EngineStats stats;
    Result<Database> result =
        EvaluateStratified(program, db, EngineOptions{}, &stats);
    ASSERT_TRUE(result.ok());
    const PredId e = program.LookupPredicate("e");
    const PredId t = program.LookupPredicate("t");
    std::vector<int64_t> indeg(program.num_constants(), 0);
    for (const Tuple& edge : result->Tuples(e)) ++indeg[edge[1]];
    int64_t joins = 0;
    for (const Tuple& path : result->Tuples(t)) joins += indeg[path[0]];
    const int64_t base = result->NumFacts(e);
    EXPECT_GE(stats.rule_applications, base + joins) << instance;
    EXPECT_LE(stats.rule_applications, base + 2 * joins) << instance;
    ExpectMatchesPerfectModel(program, db, *result,
                              "instance " + std::to_string(instance));
  }
}

TEST(EngineTest, StratifiedNegation) {
  Instance inst = ParseInstance(
      "reach(X) :- start(X).\n"
      "reach(Y) :- reach(X), e(X, Y).\n"
      "blocked(X) :- node(X), not reach(X).",
      "start(n0). e(n0, n1). e(n1, n2). e(n3, n3). "
      "node(n0). node(n1). node(n2). node(n3).");
  Result<Database> result = EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const PredId blocked = inst.program.LookupPredicate("blocked");
  const ConstId n3 = inst.program.LookupConstant("n3");
  const ConstId n1 = inst.program.LookupConstant("n1");
  EXPECT_TRUE(result->Contains(blocked, {n3}));
  EXPECT_FALSE(result->Contains(blocked, {n1}));
}

TEST(EngineTest, MaterializeEdbOffLeavesEdbRelationsEmpty) {
  Instance inst = ParseInstance(
      "p(X) :- e(X), go.", "e(a). e(b). go. q(c).");
  EngineOptions options;
  options.materialize_edb = false;
  Result<Database> result =
      EvaluateStratified(inst.program, inst.database, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Derived relations are present; every EDB relation — including the
  // zero-arity proposition and the unreferenced q — is left empty.
  EXPECT_EQ(result->NumFacts(inst.program.LookupPredicate("p")), 2);
  EXPECT_EQ(result->NumFacts(inst.program.LookupPredicate("e")), 0);
  EXPECT_EQ(result->NumFacts(inst.program.LookupPredicate("go")), 0);
  EXPECT_EQ(result->NumFacts(inst.program.LookupPredicate("q")), 0);
  // Default: EDB copied through.
  Result<Database> full = EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->NumFacts(inst.program.LookupPredicate("e")), 2);
  EXPECT_EQ(full->NumFacts(inst.program.LookupPredicate("go")), 1);
}

TEST(EngineTest, MatchesPerfectModelOnStratifiedPrograms) {
  Program program = StratifiedTowerProgram(3);
  Database db = *UnarySetDatabase(&program, "e", 4);
  Result<Database> engine_result = EvaluateStratified(program, db);
  ASSERT_TRUE(engine_result.ok());
  ExpectMatchesPerfectModel(program, db, *engine_result, "tower 3");
}

TEST(EngineTest, MatchesWellFoundedOnStratifiedTC) {
  Rng rng(77);
  Program program = TransitiveClosureProgram();
  Database db = *RandomDigraphDatabase(&program, "e", 8, 16, &rng);
  Result<Database> engine_result = EvaluateStratified(program, db);
  ASSERT_TRUE(engine_result.ok());
  const GroundingResult g = GroundOrDie(Instance{program, db});
  const InterpreterResult wf = WellFounded(program, db, g.graph);
  ASSERT_TRUE(wf.total);
  for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
    const PredId pred = g.graph.atoms().PredicateOf(a);
    EXPECT_EQ(engine_result->Contains(pred, g.graph.atoms().TupleOf(a)),
              wf.values[a] == Truth::kTrue);
  }
}

TEST(EngineTest, SameGenerationOnTree) {
  Instance inst = ParseInstance(
      "sg(X, Y) :- sibling(X, Y).\n"
      "sg(X, Y) :- up(X, A), sg(A, B), down(B, Y).",
      "sibling(b, c). up(d, b). up(e, c). down(b, d). down(c, e).");
  Result<Database> result = EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(result.ok());
  const PredId sg = inst.program.LookupPredicate("sg");
  const ConstId d = inst.program.LookupConstant("d");
  const ConstId e = inst.program.LookupConstant("e");
  EXPECT_TRUE(result->Contains(sg, {d, e}));  // cousins via b/c siblings
}

TEST(EngineTest, UnstratifiedProgramRejected) {
  Program program = WinMoveProgram();
  Database db(program);
  Result<Database> result = EvaluateStratified(program, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, WideArityRejected) {
  // Probe masks are 32-bit column sets; arity > 32 must be rejected
  // cleanly, not shift out of range.
  Program program;
  const PredId wide = program.DeclarePredicate("wide", 33);
  const PredId src = program.DeclarePredicate("src", 33);
  Rule rule;
  rule.head.predicate = wide;
  Literal body_lit;
  body_lit.atom.predicate = src;
  rule.num_variables = 33;
  for (int32_t i = 0; i < 33; ++i) {
    rule.head.args.push_back(Term::Variable(i));
    body_lit.atom.args.push_back(Term::Variable(i));
    rule.variable_names.push_back("V" + std::to_string(i));
  }
  rule.body.push_back(body_lit);
  program.AddRule(rule);
  ASSERT_TRUE(program.Validate().ok());
  Database db(program);
  Result<Database> result = EvaluateStratified(program, db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// The cap covers the predicates rules mention. A 33-column relation of Δ
// that no rule reads loads and passes through: the program evaluates, and
// the relation comes back whole.
TEST(EngineTest, UnreadWideRelationPassesThrough) {
  std::string db = "e(a, b). e(b, c). ";
  for (const char* first : {"c0", "c1"}) {
    db += std::string("wide(") + first;
    for (int32_t i = 1; i <= kEngineMaxArity; ++i) {
      db += ", c" + std::to_string(i % 3);
    }
    db += "). ";
  }
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).", db);
  const PredId wide = inst.program.LookupPredicate("wide");
  ASSERT_EQ(inst.program.predicate(wide).arity, kEngineMaxArity + 1);
  Result<Database> result = EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumFacts(inst.program.LookupPredicate("t")), 3);
  ASSERT_EQ(result->NumFacts(wide), 2);
  for (int64_t row = 0; row < 2; ++row) {
    EXPECT_TRUE(result->ContainsRow(
        wide, inst.database.FactData(wide) + row * (kEngineMaxArity + 1)));
  }
}

TEST(EngineTest, UnsafeProgramRejected) {
  Instance inst = ParseInstance("p(X) :- e(Y).");
  Result<Database> result = EvaluateStratified(inst.program, inst.database);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, TupleBudgetEnforced) {
  Program program = TransitiveClosureProgram();
  Rng rng(5);
  Database db = *RandomDigraphDatabase(&program, "e", 30, 200, &rng);
  EngineOptions options;
  options.max_tuples = 50;
  Result<Database> result = EvaluateStratified(program, db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineTest, UniformIdbInitializationParticipates) {
  // Δ pre-loads t(n5, n6) which is then extended by recursion.
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(n4, n5). t(n5, n6).");
  Result<Database> result = EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(result.ok());
  const PredId t = inst.program.LookupPredicate("t");
  const ConstId n4 = inst.program.LookupConstant("n4");
  const ConstId n6 = inst.program.LookupConstant("n6");
  EXPECT_TRUE(result->Contains(t, {n4, n6}));
}

TEST(EngineTest, BorrowedEdbMatchesCopied) {
  // The borrowed-span overload must compute the identical database to the
  // Database overload — including IDB initial facts, an arity-0
  // proposition, empty relations, and stratified negation.
  Instance inst = ParseInstance(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Z) :- e(X, Y), t(Y, Z).\n"
      "p(X) :- e(X, X), go, not blocked(X).\n"
      "q(X) :- t(X, Y), not t(Y, X).",
      "e(a, b). e(b, c). e(c, c). t(c, d). go. blocked(b).");
  const Result<Database> copied =
      EvaluateStratified(inst.program, inst.database);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();

  std::vector<FactSpan> facts(inst.program.num_predicates());
  for (PredId p = 0; p < inst.program.num_predicates(); ++p) {
    facts[p] = inst.database.Facts(p);
  }
  const Result<Database> borrowed = EvaluateStratified(
      inst.program, Span<const FactSpan>(facts.data(), facts.size()));
  ASSERT_TRUE(borrowed.ok()) << borrowed.status().ToString();
  EXPECT_EQ(*borrowed, *copied);

  // materialize_edb = false drops only the EDB relations from the result.
  EngineOptions no_edb;
  no_edb.materialize_edb = false;
  const Result<Database> trimmed = EvaluateStratified(
      inst.program, Span<const FactSpan>(facts.data(), facts.size()),
      no_edb);
  ASSERT_TRUE(trimmed.ok());
  for (PredId p = 0; p < inst.program.num_predicates(); ++p) {
    if (inst.program.IsEdb(p)) {
      EXPECT_EQ(trimmed->NumFacts(p), 0) << inst.program.predicate_name(p);
    } else {
      EXPECT_EQ(trimmed->Tuples(p), copied->Tuples(p))
          << inst.program.predicate_name(p);
    }
  }
}

TEST(EngineTest, BorrowedEdbLargeBulkLoad) {
  // A bulk-loaded million-edge-scale relation through the borrowed path:
  // identical result, no intermediate copy (this is the grounder's route).
  Program program = TransitiveClosureProgram();
  Rng rng(11);
  Database db = *RandomDigraphDatabase(&program, "e", 200, 2000, &rng);
  const Result<Database> copied = EvaluateStratified(program, db);
  ASSERT_TRUE(copied.ok());
  std::vector<FactSpan> facts(program.num_predicates());
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    facts[p] = db.Facts(p);
  }
  const Result<Database> borrowed = EvaluateStratified(
      program, Span<const FactSpan>(facts.data(), facts.size()));
  ASSERT_TRUE(borrowed.ok());
  EXPECT_EQ(*borrowed, *copied);
}

// ---------------------------------------------------------------------------
// Workload generators.
// ---------------------------------------------------------------------------

TEST(WorkloadTest, NegationRingParity) {
  for (int k = 1; k <= 8; ++k) {
    const Program ring = NegationRingProgram(k);
    EXPECT_EQ(IsCallConsistent(ring), k % 2 == 0) << "k=" << k;
  }
}

TEST(WorkloadTest, RandomProgramsParseAndValidate) {
  Rng rng(11);
  for (int round = 0; round < 30; ++round) {
    RandomProgramOptions options;
    options.num_idb = 2 + static_cast<int>(rng.Below(4));
    options.num_rules = 1 + static_cast<int>(rng.Below(10));
    options.arity = static_cast<int>(rng.Below(2));
    const Program program = RandomProgram(&rng, options);
    EXPECT_TRUE(program.Validate().ok());
    if (options.arity > 0) {
      EXPECT_TRUE(CheckSafety(program).ok());
    }
  }
}

TEST(WorkloadTest, DatabaseGenerators) {
  Program program = WinMoveProgram();
  Database chain = *ChainDatabase(&program, "move", 5);
  EXPECT_EQ(chain.TotalFacts(), 4);
  Database cycle = *CycleDatabase(&program, "move", 5);
  EXPECT_EQ(cycle.TotalFacts(), 5);
  Rng rng(3);
  Database random = *RandomDigraphDatabase(&program, "move", 10, 30, &rng);
  EXPECT_GT(random.TotalFacts(), 0);
  EXPECT_LE(random.TotalFacts(), 30);
  Database edb = *RandomEdbDatabase(&program, 3, 0.5, &rng);
  EXPECT_LE(edb.TotalFacts(), 9);
}

// ---------------------------------------------------------------------------
// Resource-governed evaluation.
// ---------------------------------------------------------------------------

TEST(EngineGovernanceTest, StepBudgetTrips) {
  // The engine's step total (rows scanned per round) is fixed by set
  // semantics, so a too-small budget trips.
  Program program = TransitiveClosureProgram();
  Rng rng(21);
  Database db = *RandomDigraphDatabase(&program, "e", 64, 256, &rng);
  ResourceLimits limits;
  limits.max_steps = 50;
  ExecutionContext context(limits);
  EngineOptions options;
  options.context = &context;
  Result<Database> result = EvaluateStratified(program, db, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(context.truncation().code, StatusCode::kResourceExhausted);
}

TEST(EngineGovernanceTest, ByteBudgetTripsOnlyBelowTheTotal) {
  // The byte charge counts deduplicated derived rows only, so whether a
  // byte budget trips is a property of the workload: measure the total
  // once, then check both sides of the line.
  Program program = TransitiveClosureProgram();
  Rng rng(22);
  Database db = *RandomDigraphDatabase(&program, "e", 48, 128, &rng);
  ExecutionContext probe;
  EngineOptions probe_options;
  probe_options.context = &probe;
  ASSERT_TRUE(EvaluateStratified(program, db, probe_options).ok());
  const int64_t total_bytes = probe.bytes_charged();
  ASSERT_GT(total_bytes, 0);
  ResourceLimits tight;
  tight.max_bytes = total_bytes / 2;
  ExecutionContext tight_context(tight);
  EngineOptions options;
  options.context = &tight_context;
  Result<Database> tripped = EvaluateStratified(program, db, options);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);

  ResourceLimits roomy;
  roomy.max_bytes = total_bytes * 2;
  ExecutionContext roomy_context(roomy);
  options.context = &roomy_context;
  Result<Database> complete = EvaluateStratified(program, db, options);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(roomy_context.bytes_charged(), total_bytes);
}

TEST(EngineGovernanceTest, ExpiredDeadlineAndCancelTrip) {
  Program program = TransitiveClosureProgram();
  Rng rng(23);
  Database db = *RandomDigraphDatabase(&program, "e", 32, 64, &rng);
  ResourceLimits limits;
  limits.deadline_seconds = 1e-9;
  ExecutionContext expired(limits);
  EngineOptions options;
  options.context = &expired;
  Result<Database> late = EvaluateStratified(program, db, options);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);

  ExecutionContext cancelled;
  cancelled.Cancel();
  options.context = &cancelled;
  Result<Database> stopped = EvaluateStratified(program, db, options);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kCancelled);
}

TEST(EngineGovernanceTest, GenerousContextDoesNotPerturbResults) {
  Program program = TransitiveClosureProgram();
  Rng rng(24);
  Database db = *RandomDigraphDatabase(&program, "e", 48, 128, &rng);
  Result<Database> plain = EvaluateStratified(program, db);
  ASSERT_TRUE(plain.ok());
  ResourceLimits limits;
  limits.max_steps = 1'000'000'000;
  limits.max_bytes = 1'000'000'000;
  limits.deadline_seconds = 3600;
  ExecutionContext context(limits);
  EngineOptions options;
  options.context = &context;
  Result<Database> governed = EvaluateStratified(program, db, options);
  ASSERT_TRUE(governed.ok());
  EXPECT_TRUE(*governed == *plain);
  EXPECT_FALSE(context.stopped());
  EXPECT_GT(context.steps_charged(), 0);
}

}  // namespace
}  // namespace tiebreak
