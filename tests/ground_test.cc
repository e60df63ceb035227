// Tests for grounding and the close() machinery: atom interning, faithful
// vs. reduced grounder equivalence (modulo the initial close), close
// propagation semantics, confluence under different assignment orders,
// largest unfounded sets, and live-graph extraction.
#include <string>
#include <vector>

#include "graph/scc.h"
#include "graph/tie.h"
#include "ground/close.h"
#include "ground/grounder.h"
#include "ground/live_graph.h"
#include "gtest/gtest.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "util/random.h"

namespace tiebreak {
namespace {

struct Instance {
  Program program;
  Database database;
};

Instance MustParse(const std::string& program_text,
                   const std::string& database_text) {
  Result<Program> p = ParseProgram(program_text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  Program program = std::move(p).value();
  Result<Database> d = ParseDatabase(database_text, &program);
  EXPECT_TRUE(d.ok()) << d.status().ToString();
  return Instance{std::move(program), std::move(d).value()};
}

GroundingResult MustGround(const Instance& inst,
                           const GroundingOptions& options = {}) {
  Result<GroundingResult> g = Ground(inst.program, inst.database, options);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Truth ValueOf(const CloseState& state, const GroundingResult& ground,
              const Program& program, const std::string& pred,
              const std::vector<std::string>& constants) {
  const PredId p = program.LookupPredicate(pred);
  TIEBREAK_CHECK_GE(p, 0) << pred;
  Tuple tuple;
  for (const auto& c : constants) {
    const ConstId id = program.LookupConstant(c);
    TIEBREAK_CHECK_GE(id, 0) << c;
    tuple.push_back(id);
  }
  const AtomId atom = ground.graph.atoms().Lookup(p, tuple);
  TIEBREAK_CHECK_GE(atom, 0) << "atom not in store";
  return state.Value(atom);
}

// ---------------------------------------------------------------------------
// GroundAtomStore.
// ---------------------------------------------------------------------------

TEST(GroundAtomStoreTest, InternIsIdempotent) {
  GroundAtomStore store;
  const AtomId a = store.Intern(0, {1, 2});
  const AtomId b = store.Intern(0, {1, 2});
  const AtomId c = store.Intern(0, {2, 1});
  const AtomId d = store.Intern(1, {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(store.size(), 3);
  EXPECT_EQ(store.Lookup(0, {1, 2}), a);
  EXPECT_EQ(store.Lookup(0, {9, 9}), -1);
  EXPECT_EQ(store.PredicateOf(d), 1);
  EXPECT_EQ(store.TupleOf(c), (Tuple{2, 1}));
}

TEST(GroundAtomStoreTest, ZeroArityAtoms) {
  GroundAtomStore store;
  const AtomId p = store.Intern(0, {});
  const AtomId q = store.Intern(1, {});
  EXPECT_NE(p, q);
  EXPECT_EQ(store.Lookup(0, {}), p);
}

// ---------------------------------------------------------------------------
// Grounder.
// ---------------------------------------------------------------------------

TEST(GrounderTest, FaithfulInstanceCountIsUniverseToTheK) {
  Instance inst = MustParse("win(X) :- move(X, Y), not win(Y).",
                            "move(a, b). move(b, c).");
  GroundingOptions options;
  options.reduce_edb = false;
  const GroundingResult g = MustGround(inst, options);
  EXPECT_EQ(g.universe.size(), 3u);
  EXPECT_EQ(g.graph.num_rules(), 9);  // |U|^2 instances of the one rule
}

TEST(GrounderTest, FaithfulWithAllAtomsBuildsFullVp) {
  Instance inst = MustParse("win(X) :- move(X, Y), not win(Y).",
                            "move(a, b). move(b, c).");
  GroundingOptions options;
  options.reduce_edb = false;
  options.include_all_atoms = true;
  const GroundingResult g = MustGround(inst, options);
  // VP = win over U (3) + move over U^2 (9).
  EXPECT_EQ(g.graph.num_atoms(), 12);
}

TEST(GrounderTest, ReducedGrounderMatchesEdbFacts) {
  Instance inst = MustParse("win(X) :- move(X, Y), not win(Y).",
                            "move(a, b). move(b, c).");
  const GroundingResult g = MustGround(inst);
  EXPECT_EQ(g.graph.num_rules(), 2);  // one per move fact
  // EDB atoms are not nodes in reduced mode.
  for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
    EXPECT_EQ(inst.program.predicate_name(g.graph.atoms().PredicateOf(a)),
              "win");
  }
}

TEST(GrounderTest, ReducedDropsInstancesWithTrueNegatedEdb) {
  Instance inst = MustParse("p(X) :- e(X), not blocked(X).",
                            "e(a). e(b). blocked(a).");
  const GroundingResult g = MustGround(inst);
  // Only the X=b instance survives; X=a has blocked(a) true.
  ASSERT_EQ(g.graph.num_rules(), 1);
  const ConstId b = inst.program.LookupConstant("b");
  EXPECT_EQ(g.graph.atoms().TupleOf(g.graph.HeadOf(0)), (Tuple{b}));
  // The satisfied literals leave no body edges.
  EXPECT_TRUE(g.graph.PositiveBody(0).empty());
  EXPECT_TRUE(g.graph.NegativeBody(0).empty());
}

TEST(GrounderTest, UnsafeRuleEnumeratesFreeVariables) {
  // Paper program (1): x occurs only in a negative IDB literal.
  Instance inst = MustParse("P(a) :- not P(X), E(b).", "E(b).");
  const GroundingResult g = MustGround(inst);
  // One instance per value of X in U = {a, b}.
  EXPECT_EQ(g.graph.num_rules(), 2);
  for (int32_t r = 0; r < g.graph.num_rules(); ++r) {
    EXPECT_EQ(g.graph.NegativeBody(r).size(), 1u);  // not P(x); E(b) satisfied
  }
}

TEST(GrounderTest, DeltaIdbAtomsAreInterned) {
  Instance inst = MustParse("p(X) :- e(X).", "e(a). p(z).");
  const GroundingResult g = MustGround(inst);
  const PredId p = inst.program.LookupPredicate("p");
  const ConstId z = inst.program.LookupConstant("z");
  EXPECT_GE(g.graph.atoms().Lookup(p, {z}), 0);
}

TEST(GrounderTest, BudgetExceededReturnsResourceExhausted) {
  Instance inst = MustParse("p(X, Y, Z) :- not q(X, Y, Z).",
                            "e(a). e(b). e(c). e(d).");
  GroundingOptions options;
  options.max_instances = 10;
  Result<GroundingResult> g = Ground(inst.program, inst.database, options);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
}

TEST(GrounderTest, PropositionalProgramGrounds) {
  Instance inst = MustParse("p :- not q.\nq :- not p.", "");
  const GroundingResult g = MustGround(inst);
  EXPECT_EQ(g.graph.num_atoms(), 2);
  EXPECT_EQ(g.graph.num_rules(), 2);
  EXPECT_TRUE(g.universe.empty());
}

TEST(GrounderTest, RepeatedVariableInGeneratorLiteral) {
  Instance inst = MustParse("refl(X) :- e(X, X).", "e(a, a). e(a, b).");
  const GroundingResult g = MustGround(inst);
  ASSERT_EQ(g.graph.num_rules(), 1);  // only e(a,a) matches e(X,X)
  const ConstId a = inst.program.LookupConstant("a");
  EXPECT_EQ(g.graph.atoms().TupleOf(g.graph.HeadOf(0)), (Tuple{a}));
}

// ---------------------------------------------------------------------------
// Faithful vs. reduced equivalence (modulo the initial close).
// ---------------------------------------------------------------------------

void ExpectEquivalentAfterInitialClose(const std::string& program_text,
                                       const std::string& database_text) {
  Instance inst = MustParse(program_text, database_text);

  GroundingOptions faithful_options;
  faithful_options.reduce_edb = false;
  faithful_options.include_all_atoms = true;
  const GroundingResult faithful = MustGround(inst, faithful_options);
  const GroundingResult reduced = MustGround(inst);

  CloseState faithful_state(inst.program, inst.database, faithful.graph);
  CloseState reduced_state(inst.program, inst.database, reduced.graph);

  for (AtomId fa = 0; fa < faithful.graph.num_atoms(); ++fa) {
    const PredId pred = faithful.graph.atoms().PredicateOf(fa);
    if (inst.program.IsEdb(pred)) continue;  // no EDB nodes in reduced mode
    const Tuple& tuple = faithful.graph.atoms().TupleOf(fa);
    const AtomId ra = reduced.graph.atoms().Lookup(pred, tuple);
    const std::string name = GroundAtomToString(inst.program, pred, tuple);
    if (ra < 0) {
      // Absent from the reduced graph: must already be false faithfully.
      EXPECT_EQ(faithful_state.Value(fa), Truth::kFalse)
          << name << " in\n" << program_text;
    } else {
      EXPECT_EQ(faithful_state.Value(fa), reduced_state.Value(ra))
          << name << " in\n" << program_text;
    }
  }
}

TEST(GrounderEquivalenceTest, CuratedPrograms) {
  ExpectEquivalentAfterInitialClose(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, c). move(c, a). move(c, d).");
  ExpectEquivalentAfterInitialClose("P(a) :- not P(X), E(b).", "E(b).");
  ExpectEquivalentAfterInitialClose("P(a) :- not P(X), E(b).", "");
  ExpectEquivalentAfterInitialClose(
      "P(X, Y) :- not P(Y, Y), E(X).", "E(a).");
  ExpectEquivalentAfterInitialClose(
      "p :- not q.\nq :- not p.\nr :- p, q.", "");
  ExpectEquivalentAfterInitialClose(
      "t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).",
      "e(a, b). e(b, c).");
  ExpectEquivalentAfterInitialClose(
      "odd(X) :- succ(Y, X), even(Y).\neven(X) :- succ(Y, X), odd(Y).\n"
      "even(z) :- zero(z).",
      "zero(z). succ(z, a). succ(a, b). succ(b, c).");
  // Uniform case: IDB atoms pre-set in Δ.
  ExpectEquivalentAfterInitialClose(
      "p(X) :- e(X), not q(X).\nq(X) :- p(X).", "e(a). q(a). p(b).");
  // Facts as empty-body rules.
  ExpectEquivalentAfterInitialClose("base(a).\np(X) :- base(X).", "");
}

TEST(GrounderEquivalenceTest, RandomPropositionalPrograms) {
  Rng rng(31337);
  for (int round = 0; round < 40; ++round) {
    const int num_props = 2 + static_cast<int>(rng.Below(5));
    const int num_rules = 1 + static_cast<int>(rng.Below(7));
    std::string text;
    for (int r = 0; r < num_rules; ++r) {
      text += "p" + std::to_string(rng.Below(num_props)) + " :- ";
      const int body = 1 + static_cast<int>(rng.Below(3));
      for (int b = 0; b < body; ++b) {
        if (b > 0) text += ", ";
        if (rng.Chance(0.4)) text += "not ";
        // Mix IDB props and EDB props e0..e2.
        text += rng.Chance(0.3) ? "e" + std::to_string(rng.Below(3))
                                : "p" + std::to_string(rng.Below(num_props));
      }
      text += ".\n";
    }
    std::string db;
    for (int e = 0; e < 3; ++e) {
      if (rng.Chance(0.5)) db += "e" + std::to_string(e) + ". ";
    }
    // Ensure all EDB props are known to the program even when absent in Δ.
    text += "sinkhole :- e0, e1, e2.\n";
    ExpectEquivalentAfterInitialClose(text, db);
  }
}

// ---------------------------------------------------------------------------
// CloseState semantics.
// ---------------------------------------------------------------------------

TEST(CloseTest, FactsAndChainsPropagate) {
  Instance inst = MustParse("p :- q.\nq :- e.", "e.");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kTrue);
  EXPECT_EQ(ValueOf(state, g, inst.program, "q", {}), Truth::kTrue);
}

TEST(CloseTest, NoSupportMeansFalse) {
  Instance inst = MustParse("p :- q.\nq :- e.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kFalse);
  EXPECT_EQ(ValueOf(state, g, inst.program, "q", {}), Truth::kFalse);
}

TEST(CloseTest, NegationOnAbsentEdbFires) {
  Instance inst = MustParse("p :- not e.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kTrue);
}

TEST(CloseTest, WinMoveChainResolvesCompletely) {
  Instance inst = MustParse("win(X) :- move(X, Y), not win(Y).",
                            "move(a, b). move(b, c).");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "win", {"c"}), Truth::kFalse);
  EXPECT_EQ(ValueOf(state, g, inst.program, "win", {"b"}), Truth::kTrue);
  EXPECT_EQ(ValueOf(state, g, inst.program, "win", {"a"}), Truth::kFalse);
}

TEST(CloseTest, EvenMoveCycleStaysOpen) {
  Instance inst = MustParse("win(X) :- move(X, Y), not win(Y).",
                            "move(a, b). move(b, a).");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_FALSE(state.IsTotal());
  EXPECT_EQ(state.num_live_atoms(), 2);
  EXPECT_EQ(state.LiveAtoms().size(), 2u);
  EXPECT_EQ(state.LiveRules().size(), 2u);
}

TEST(CloseTest, DeltaTruthIsRespectedForIdb) {
  // q is true by Δ even with no deriving rule.
  Instance inst = MustParse("p :- q.\nq :- e.", "q.");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(ValueOf(state, g, inst.program, "q", {}), Truth::kTrue);
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kTrue);
}

TEST(CloseTest, SetAndCloseCascades) {
  Instance inst = MustParse("p :- not q.\nq :- not p.\nr :- p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(state.num_live_atoms(), 3);
  const PredId q = inst.program.LookupPredicate("q");
  state.SetAndClose(g.graph.atoms().Lookup(q, {}), false);
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kTrue);
  EXPECT_EQ(ValueOf(state, g, inst.program, "r", {}), Truth::kTrue);
}

TEST(CloseTest, ConfluenceUnderAssignmentOrder) {
  // Assigning the same free choices in any order yields the same closure.
  Instance inst = MustParse(
      "a :- not b.\nb :- not a.\nc :- not d.\nd :- not c.\n"
      "x :- a, c.\ny :- b, not d.",
      "");
  const GroundingResult g = MustGround(inst);
  const PredId pa = inst.program.LookupPredicate("a");
  const PredId pc = inst.program.LookupPredicate("c");
  const AtomId atom_a = g.graph.atoms().Lookup(pa, {});
  const AtomId atom_c = g.graph.atoms().Lookup(pc, {});

  CloseState one(inst.program, inst.database, g.graph);
  one.SetAndClose(atom_a, true);
  one.SetAndClose(atom_c, true);

  CloseState two(inst.program, inst.database, g.graph);
  two.SetAndClose(atom_c, true);
  two.SetAndClose(atom_a, true);

  CloseState batch(inst.program, inst.database, g.graph);
  batch.SetAndClose({{atom_a, true}, {atom_c, true}});

  EXPECT_EQ(one.values(), two.values());
  EXPECT_EQ(one.values(), batch.values());
  EXPECT_TRUE(one.IsTotal());
}

TEST(CloseTest, CustomInitialAssignmentConstructor) {
  Instance inst = MustParse("p :- not q.\nq :- not p.", "");
  const GroundingResult g = MustGround(inst);
  std::vector<Truth> initial(g.graph.num_atoms(), Truth::kUndef);
  const PredId q = inst.program.LookupPredicate("q");
  initial[g.graph.atoms().Lookup(q, {})] = Truth::kTrue;
  CloseState state(g.graph, initial);
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kFalse);
}

// ---------------------------------------------------------------------------
// Largest unfounded set.
// ---------------------------------------------------------------------------

std::vector<std::string> UnfoundedNames(const Instance& inst,
                                        const GroundingResult& g,
                                        const CloseState& state) {
  std::vector<std::string> names;
  for (AtomId a : state.LargestUnfoundedSet()) {
    names.push_back(GroundAtomToString(inst.program,
                                       g.graph.atoms().PredicateOf(a),
                                       g.graph.atoms().TupleOf(a)));
  }
  return names;
}

TEST(UnfoundedTest, PaperExamplePQ) {
  // p <- p, not q ; q <- q, not p : {p, q} is the largest unfounded set.
  Instance inst = MustParse("p :- p, not q.\nq :- q, not p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(state.num_live_atoms(), 2);
  EXPECT_EQ(UnfoundedNames(inst, g, state),
            (std::vector<std::string>{"p", "q"}));
}

TEST(UnfoundedTest, MutualNegationHasNoUnfoundedSet) {
  Instance inst = MustParse("p :- not q.\nq :- not p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_TRUE(state.LargestUnfoundedSet().empty());
}

TEST(UnfoundedTest, ThreeRuleExampleHasNoUnfoundedSet) {
  // The paper's r1/r2/r3 program: G+ is three disjoint arcs, no unfounded
  // set, and the component is not a tie.
  Instance inst = MustParse(
      "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
      "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(state.num_live_atoms(), 3);
  EXPECT_TRUE(state.LargestUnfoundedSet().empty());
}

TEST(UnfoundedTest, PositiveLoopIsUnfounded) {
  Instance inst = MustParse("p :- p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  EXPECT_EQ(UnfoundedNames(inst, g, state), (std::vector<std::string>{"p"}));
}

TEST(UnfoundedTest, FoundedAtomsAreExcluded) {
  // s is derivable (founded); the p/q positive loop is unfounded.
  Instance inst = MustParse("s :- e.\np :- q, not s.\nq :- p.", "e.");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  // The initial close already resolves s (true), which kills p's rule.
  EXPECT_TRUE(state.IsTotal());
  EXPECT_EQ(ValueOf(state, g, inst.program, "p", {}), Truth::kFalse);
}

TEST(UnfoundedTest, MixedLoopAndChoice) {
  // Unfounded {a, b} coexists with the p/q tie; only {a, b} is unfounded.
  Instance inst = MustParse(
      "a :- b.\nb :- a.\np :- not q.\nq :- not p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  std::vector<std::string> names = UnfoundedNames(inst, g, state);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------------------
// Live graph extraction.
// ---------------------------------------------------------------------------

TEST(LiveGraphTest, PQTieStructure) {
  Instance inst = MustParse("p :- p, not q.\nq :- q, not p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  const LiveGraph live = BuildLiveGraph(state);
  ASSERT_EQ(live.graph.num_nodes(), 4);  // p, q + two rule nodes
  EXPECT_EQ(live.num_atom_nodes, 2);
  EXPECT_EQ(live.graph.num_edges(), 6);
  EXPECT_EQ(live.graph.CountNegativeEdges(), 2);

  const SccResult scc = ComputeScc(live.graph);
  ASSERT_EQ(scc.num_components, 1);
  const TieCheckResult tie =
      CheckTie(live.graph, scc.Members(0), scc.component, 0);
  ASSERT_TRUE(tie.is_tie);
  // p sits with its own rule; q with its rule; the sides are opposite.
  std::vector<int> side_of_atom(2, -1);
  for (size_t i = 0; i < scc.Members(0).size(); ++i) {
    const int32_t node = scc.Members(0)[i];
    if (live.node_atom[node] >= 0) {
      side_of_atom[live.node_atom[node]] = tie.side[i];
    }
  }
  EXPECT_NE(side_of_atom[0], side_of_atom[1]);
}

TEST(LiveGraphTest, AssignedAtomsDropOut) {
  Instance inst = MustParse("p :- not q.\nq :- not p.\nr :- p.", "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  const LiveGraph before = BuildLiveGraph(state);
  EXPECT_EQ(before.num_atom_nodes, 3);
  const PredId p = inst.program.LookupPredicate("p");
  state.SetAndClose(g.graph.atoms().Lookup(p, {}), true);
  const LiveGraph after = BuildLiveGraph(state);
  EXPECT_EQ(after.graph.num_nodes(), 0);  // everything resolved
}

TEST(LiveGraphTest, ThreeRuleComponentIsNotATie) {
  Instance inst = MustParse(
      "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.",
      "");
  const GroundingResult g = MustGround(inst);
  CloseState state(inst.program, inst.database, g.graph);
  const LiveGraph live = BuildLiveGraph(state);
  const SccResult scc = ComputeScc(live.graph);
  ASSERT_EQ(scc.num_components, 1);
  EXPECT_FALSE(
      CheckTie(live.graph, scc.Members(0), scc.component, 0).is_tie);
  EXPECT_TRUE(HasOddCycle(live.graph));
}

}  // namespace
}  // namespace tiebreak
