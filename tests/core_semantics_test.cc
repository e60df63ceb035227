// Tests for the core semantics: the well-founded interpreter, the pure and
// well-founded tie-breaking interpreters, choice exploration, fixpoint /
// consistency / stable checkers, completion-based fixpoint search, and the
// perfect model. Every worked example from the paper's Sections 2-3 appears
// here as an executable check.
#include <algorithm>
#include <set>
#include <vector>

#include "core/completion.h"
#include "core/exploration.h"
#include "core/fixpoint.h"
#include "core/interpreter_result.h"
#include "core/stable.h"
#include "core/stratification.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "gtest/gtest.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/random.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;
using testing_util::TruthOf;

// ---------------------------------------------------------------------------
// Well-founded interpreter.
// ---------------------------------------------------------------------------

TEST(WellFoundedTest, WinMoveChainIsTotal) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). move(c, d).");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_TRUE(wf.total);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "win", {"d"}), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "win", {"c"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "win", {"b"}), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "win", {"a"}), Truth::kTrue);
  EXPECT_TRUE(IsFixpoint(inst.program, inst.database, g.graph, wf.values));
  EXPECT_TRUE(IsStable(inst.program, inst.database, g.graph, wf.values));
}

TEST(WellFoundedTest, EvenCycleLeavesDraws) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, a).");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_FALSE(wf.total);
  EXPECT_EQ(wf.CountUndefined(), 2);
}

TEST(WellFoundedTest, UnfoundedSetsAreFalsified) {
  Instance inst = ParseInstance("p :- p, not q.\nq :- q, not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_TRUE(wf.total);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "p"), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "q"), Truth::kFalse);
  EXPECT_EQ(wf.unfounded_rounds, 1);
}

TEST(WellFoundedTest, PaperProgram1IsResolvedByClose) {
  // P(a) <- not P(x), E(b): the x=b instance fires because P(b) is false.
  Instance inst = ParseInstance("P(a) :- not P(X), E(b).", "E(b).");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_TRUE(wf.total);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "P", {"a"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "P", {"b"}), Truth::kFalse);
  EXPECT_TRUE(IsStable(inst.program, inst.database, g.graph, wf.values));
}

TEST(WellFoundedTest, MutualNegationStaysPartial) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_FALSE(wf.total);
  EXPECT_EQ(wf.CountUndefined(), 2);
}

TEST(WellFoundedTest, WellFoundedModelIsConsistent) {
  // Lemma 2 applies to all three interpreters; check WF on a mixed program.
  Instance inst = ParseInstance(
      "p :- not q.\nq :- not p.\nr :- p, e.\ns :- s.\nt :- not s.", "e.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  EXPECT_FALSE(wf.total);
  EXPECT_TRUE(IsConsistent(inst.program, inst.database, g.graph, wf.values));
  EXPECT_TRUE(
      TrueAtomsSupported(inst.program, inst.database, g.graph, wf.values));
  EXPECT_EQ(TruthOf(inst, g, wf.values, "s"), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, wf.values, "t"), Truth::kTrue);
}

// ---------------------------------------------------------------------------
// Pure tie-breaking.
// ---------------------------------------------------------------------------

TEST(PureTieBreakingTest, BreaksMutualNegation) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult tb = TieBreaking(inst.program, inst.database,
                                           g.graph, TieBreakingMode::kPure);
  EXPECT_TRUE(tb.total);
  EXPECT_EQ(tb.ties_broken, 1);
  // Exactly one of p, q true.
  const Truth p = TruthOf(inst, g, tb.values, "p");
  const Truth q = TruthOf(inst, g, tb.values, "q");
  EXPECT_NE(p, q);
  EXPECT_TRUE(IsFixpoint(inst.program, inst.database, g.graph, tb.values));
}

TEST(PureTieBreakingTest, PaperExamplePureDisagreesWithWellFounded) {
  // p <- p, not q ; q <- q, not p: the pure algorithm sets one true and one
  // false (a fixpoint that is NOT stable); WF sets both false.
  Instance inst = ParseInstance("p :- p, not q.\nq :- q, not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult pure = TieBreaking(inst.program, inst.database,
                                             g.graph, TieBreakingMode::kPure);
  ASSERT_TRUE(pure.total);
  const Truth p = TruthOf(inst, g, pure.values, "p");
  const Truth q = TruthOf(inst, g, pure.values, "q");
  EXPECT_NE(p, q);
  EXPECT_TRUE(IsFixpoint(inst.program, inst.database, g.graph, pure.values));
  EXPECT_FALSE(IsStable(inst.program, inst.database, g.graph, pure.values));

  const InterpreterResult wftb = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
  ASSERT_TRUE(wftb.total);
  EXPECT_EQ(TruthOf(inst, g, wftb.values, "p"), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, wftb.values, "q"), Truth::kFalse);
  EXPECT_TRUE(IsStable(inst.program, inst.database, g.graph, wftb.values));
}

TEST(PureTieBreakingTest, LocallyPositiveSccGoesFalse) {
  // A tie with one empty side (no negative edges): minimalist choice.
  Instance inst = ParseInstance("p :- p.\nr :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult tb = TieBreaking(inst.program, inst.database,
                                           g.graph, TieBreakingMode::kPure);
  ASSERT_TRUE(tb.total);
  EXPECT_EQ(TruthOf(inst, g, tb.values, "p"), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, tb.values, "r"), Truth::kTrue);
}

TEST(PureTieBreakingTest, StuckOnOddCycle) {
  Instance inst = ParseInstance("p :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult tb = TieBreaking(inst.program, inst.database,
                                           g.graph, TieBreakingMode::kPure);
  EXPECT_FALSE(tb.total);
  EXPECT_EQ(tb.ties_broken, 0);
  EXPECT_TRUE(IsConsistent(inst.program, inst.database, g.graph, tb.values));
}

// ---------------------------------------------------------------------------
// Well-founded tie-breaking.
// ---------------------------------------------------------------------------

TEST(WellFoundedTieBreakingTest, ResolvesWinMoveEvenCycleToStableModel) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c). move(c, d). "
                                "move(d, a).");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wftb = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
  ASSERT_TRUE(wftb.total);
  EXPECT_EQ(wftb.ties_broken, 1);
  // Alternating winners around the 4-cycle.
  const Truth wa = TruthOf(inst, g, wftb.values, "win", {"a"});
  const Truth wb = TruthOf(inst, g, wftb.values, "win", {"b"});
  const Truth wc = TruthOf(inst, g, wftb.values, "win", {"c"});
  const Truth wd = TruthOf(inst, g, wftb.values, "win", {"d"});
  EXPECT_NE(wa, wb);
  EXPECT_NE(wb, wc);
  EXPECT_NE(wc, wd);
  EXPECT_TRUE(IsStable(inst.program, inst.database, g.graph, wftb.values));
}

TEST(WellFoundedTieBreakingTest, ExtendsWellFoundedModel) {
  // WFTB only deviates from WF after WF is stuck: the WF-decided atoms keep
  // their values.
  Instance inst = ParseInstance(
      "win(X) :- move(X, Y), not win(Y).",
      "move(a, b). move(b, a). move(c, a). move(d, e).");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  const InterpreterResult wftb = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
  ASSERT_TRUE(wftb.total);
  for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
    if (wf.values[a] != Truth::kUndef) {
      EXPECT_EQ(wf.values[a], wftb.values[a]) << "atom " << a;
    }
  }
  // win(d) is decided by WF already (e has no moves).
  EXPECT_EQ(TruthOf(inst, g, wf.values, "win", {"d"}), Truth::kTrue);
}

TEST(WellFoundedTieBreakingTest, StuckOnThreeRuleExample) {
  // Paper, Section 3: three stable models exist but neither tie-breaking
  // interpreter can reach any of them — the component is not a tie and
  // there is no unfounded set.
  Instance inst = ParseInstance(
      "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wftb = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
  EXPECT_FALSE(wftb.total);
  EXPECT_EQ(wftb.CountUndefined(), 3);

  const auto stable = EnumerateStableModels(inst.program, inst.database,
                                            g.graph);
  EXPECT_EQ(stable.size(), 3u);
  for (const auto& model : stable) {
    int64_t true_count = 0;
    for (Truth t : model) true_count += t == Truth::kTrue ? 1 : 0;
    EXPECT_EQ(true_count, 1);  // each stable model has exactly one true atom
  }
}

TEST(WellFoundedTieBreakingTest, UniformCaseRespectsIdbInitialization) {
  // Δ pre-loads IDB atom q; the p/q tie disappears because q is true.
  Instance inst = ParseInstance("p :- not q.\nq :- not p.", "q.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wftb = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kWellFounded);
  ASSERT_TRUE(wftb.total);
  EXPECT_EQ(TruthOf(inst, g, wftb.values, "q"), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, wftb.values, "p"), Truth::kFalse);
  EXPECT_EQ(wftb.ties_broken, 0);
}

// ---------------------------------------------------------------------------
// Tie-first ablation mode (not in the paper; flips WFTB's ordering).
// ---------------------------------------------------------------------------

TEST(TieFirstAblationTest, BreaksGuardedLoopsLikePure) {
  // On p <- p,!q ; q <- q,!p the component is both a tie and an unfounded
  // set: tie-first certifies one side true (a non-stable fixpoint), while
  // the paper's ordering falsifies both (the stable model).
  Instance inst = ParseInstance("p :- p, not q.\nq :- q, not p.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult tie_first = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kTieFirst);
  ASSERT_TRUE(tie_first.total);
  EXPECT_NE(TruthOf(inst, g, tie_first.values, "p"),
            TruthOf(inst, g, tie_first.values, "q"));
  EXPECT_TRUE(
      IsFixpoint(inst.program, inst.database, g.graph, tie_first.values));
  EXPECT_FALSE(
      IsStable(inst.program, inst.database, g.graph, tie_first.values));
}

TEST(TieFirstAblationTest, StillDissolvesPlainUnfoundedSets) {
  // Without a tie, tie-first falls back to unfounded-set falsification.
  Instance inst = ParseInstance("a :- b.\nb :- a.\nc :- not a.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult result = TieBreaking(
      inst.program, inst.database, g.graph, TieBreakingMode::kTieFirst);
  ASSERT_TRUE(result.total);
  EXPECT_EQ(TruthOf(inst, g, result.values, "a"), Truth::kFalse);
  EXPECT_EQ(TruthOf(inst, g, result.values, "c"), Truth::kTrue);
}

// ---------------------------------------------------------------------------
// Choice exploration (the "for all choices" quantifier).
// ---------------------------------------------------------------------------

TEST(ExplorationTest, MutualNegationHasTwoOutcomes) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  const auto runs = ExploreAllChoices(inst.program, inst.database, g.graph,
                                      TieBreakingMode::kWellFounded);
  ASSERT_EQ(runs.size(), 2u);
  std::set<std::vector<Truth>> outcomes;
  for (const auto& run : runs) {
    EXPECT_TRUE(run.result.total);
    EXPECT_TRUE(
        IsStable(inst.program, inst.database, g.graph, run.result.values));
    outcomes.insert(run.result.values);
  }
  EXPECT_EQ(outcomes.size(), 2u) << "both orientations must be reachable";
}

TEST(ExplorationTest, TwoIndependentTiesGiveFourOutcomes) {
  Instance inst = ParseInstance(
      "p :- not q.\nq :- not p.\nr :- not s.\ns :- not r.");
  const GroundingResult g = GroundOrDie(inst);
  const auto runs = ExploreAllChoices(inst.program, inst.database, g.graph,
                                      TieBreakingMode::kPure);
  ASSERT_EQ(runs.size(), 4u);
  std::set<std::vector<Truth>> outcomes;
  for (const auto& run : runs) {
    EXPECT_TRUE(run.result.total);
    EXPECT_TRUE(
        IsFixpoint(inst.program, inst.database, g.graph, run.result.values));
    outcomes.insert(run.result.values);
  }
  EXPECT_EQ(outcomes.size(), 4u);
}

TEST(ExplorationTest, DeterministicInstanceHasOneRun) {
  Instance inst = ParseInstance("p :- e.\nq :- not p.", "e.");
  const GroundingResult g = GroundOrDie(inst);
  const auto runs = ExploreAllChoices(inst.program, inst.database, g.graph,
                                      TieBreakingMode::kWellFounded);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].result.total);
  EXPECT_TRUE(runs[0].script.empty());
}

// ---------------------------------------------------------------------------
// Lemma 2 / Lemma 3 properties on random programs.
// ---------------------------------------------------------------------------

std::string RandomPropositionalProgram(Rng* rng, int num_props,
                                       int num_rules) {
  std::string text;
  for (int r = 0; r < num_rules; ++r) {
    text += "p" + std::to_string(rng->Below(num_props)) + " :- ";
    const int body = 1 + static_cast<int>(rng->Below(3));
    for (int b = 0; b < body; ++b) {
      if (b > 0) text += ", ";
      if (rng->Chance(0.45)) text += "not ";
      text += "p" + std::to_string(rng->Below(num_props));
    }
    text += ".\n";
  }
  return text;
}

TEST(LemmaTwoThreeTest, RandomProgramsAllPoliciesAllModes) {
  Rng rng(555);
  int totals = 0, stuck = 0;
  for (int round = 0; round < 150; ++round) {
    const int props = 2 + static_cast<int>(rng.Below(5));
    Instance inst = ParseInstance(
        RandomPropositionalProgram(&rng, props, 1 + rng.Below(8)));
    const GroundingResult g = GroundOrDie(inst);
    for (TieBreakingMode mode :
         {TieBreakingMode::kPure, TieBreakingMode::kWellFounded}) {
      RandomChoicePolicy policy(rng.Next());
      const InterpreterResult result =
          TieBreaking(inst.program, inst.database, g.graph, mode, &policy);
      // Lemma 2: the computed partial model is consistent and supported.
      EXPECT_TRUE(
          IsConsistent(inst.program, inst.database, g.graph, result.values))
          << "round " << round;
      EXPECT_TRUE(TrueAtomsSupported(inst.program, inst.database, g.graph,
                                     result.values))
          << "round " << round;
      if (result.total) {
        ++totals;
        // Lemma 2: total => fixpoint.
        EXPECT_TRUE(
            IsFixpoint(inst.program, inst.database, g.graph, result.values))
            << "round " << round;
        // Lemma 3: WFTB total => stable.
        if (mode == TieBreakingMode::kWellFounded) {
          EXPECT_TRUE(
              IsStable(inst.program, inst.database, g.graph, result.values))
              << "round " << round;
        }
      } else {
        ++stuck;
      }
    }
  }
  EXPECT_GT(totals, 100);
  EXPECT_GT(stuck, 10);
}

// ---------------------------------------------------------------------------
// Completion-based fixpoint search.
// ---------------------------------------------------------------------------

TEST(CompletionTest, MutualNegationHasTwoFixpointsBothStable) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  FixpointSearch search(inst.program, inst.database, g.graph);
  EXPECT_TRUE(search.HasFixpoint());
  EXPECT_EQ(search.Count(0), 2);
  EXPECT_EQ(
      EnumerateStableModels(inst.program, inst.database, g.graph).size(), 2u);
  // Every limit <= 0 means "no cap".
  FixpointSearch uncapped(inst.program, inst.database, g.graph);
  EXPECT_EQ(uncapped.Count(-1), 2);
  EXPECT_TRUE(HasStableModel(inst.program, inst.database, g.graph, -1));
  EXPECT_EQ(
      EnumerateStableModels(inst.program, inst.database, g.graph, -1).size(),
      2u);
}

TEST(CompletionTest, PositiveLoopHasUnstableFixpoint) {
  // p <- p: both {p} and {} are fixpoints (circular support allowed); only
  // {} is stable.
  Instance inst = ParseInstance("p :- p.");
  const GroundingResult g = GroundOrDie(inst);
  FixpointSearch search(inst.program, inst.database, g.graph);
  EXPECT_EQ(search.Count(0), 2);
  const auto stable = EnumerateStableModels(inst.program, inst.database,
                                            g.graph);
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(TruthOf(inst, g, stable[0], "p"), Truth::kFalse);
  FixpointSearch uncapped(inst.program, inst.database, g.graph);
  EXPECT_EQ(uncapped.Count(-1), 2);
  EXPECT_TRUE(HasStableModel(inst.program, inst.database, g.graph, -1));
}

TEST(CompletionTest, OddLoopHasNoFixpoint) {
  Instance inst = ParseInstance("p :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  EXPECT_FALSE(HasFixpoint(inst.program, inst.database, g.graph));
  EXPECT_FALSE(HasStableModel(inst.program, inst.database, g.graph));
}

TEST(CompletionTest, HasFixpointDoesNotConsumeModels) {
  Instance inst = ParseInstance("p :- not q.\nq :- not p.");
  const GroundingResult g = GroundOrDie(inst);
  FixpointSearch search(inst.program, inst.database, g.graph);
  EXPECT_TRUE(search.HasFixpoint());
  EXPECT_TRUE(search.HasFixpoint());
  int count = 0;
  while (search.Next().has_value()) ++count;
  EXPECT_EQ(count, 2);
}

TEST(CompletionTest, DeltaAtomsNeedNoSupport) {
  // q is IDB (it heads a rule) and pre-set by Δ: it needs no derivation.
  Instance inst = ParseInstance("p :- q.\nq :- e.", "q.");
  const GroundingResult g = GroundOrDie(inst);
  FixpointSearch search(inst.program, inst.database, g.graph);
  auto model = search.Next();
  ASSERT_TRUE(model.has_value());
  EXPECT_EQ(TruthOf(inst, g, *model, "q"), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, *model, "p"), Truth::kTrue);
  EXPECT_FALSE(search.Next().has_value());  // unique fixpoint
}

TEST(CompletionTest, InterpreterOutputsAppearAmongFixpoints) {
  // Cross-validation: every total tie-breaking outcome is found by the
  // SAT-based enumeration.
  Rng rng(808);
  for (int round = 0; round < 60; ++round) {
    Instance inst = ParseInstance(
        RandomPropositionalProgram(&rng, 2 + rng.Below(4), 1 + rng.Below(6)));
    const GroundingResult g = GroundOrDie(inst);
    RandomChoicePolicy policy(rng.Next());
    const InterpreterResult result =
        TieBreaking(inst.program, inst.database, g.graph,
                    TieBreakingMode::kPure, &policy);
    if (!result.total) continue;
    FixpointSearch search(inst.program, inst.database, g.graph);
    bool found = false;
    while (auto model = search.Next()) {
      if (*model == result.values) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Stable checker specifics.
// ---------------------------------------------------------------------------

TEST(StableTest, NonFixpointIsNotStable) {
  Instance inst = ParseInstance("p :- e.", "e.");
  const GroundingResult g = GroundOrDie(inst);
  std::vector<Truth> bogus(g.graph.num_atoms(), Truth::kFalse);
  EXPECT_FALSE(IsStable(inst.program, inst.database, g.graph, bogus));
}

TEST(StableTest, DeltaIdbAtomsStayByDefinition) {
  // q in Δ is not un-defined by M⁻; it supports p's derivation.
  Instance inst = ParseInstance("p :- q.", "q.");
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(inst.program, inst.database, g.graph);
  ASSERT_TRUE(wf.total);
  EXPECT_TRUE(IsStable(inst.program, inst.database, g.graph, wf.values));
}

// ---------------------------------------------------------------------------
// Stratification and the perfect model.
// ---------------------------------------------------------------------------

TEST(StratificationTest, Classification) {
  EXPECT_TRUE(IsStratified(ParseInstance("t(X,Y) :- e(X,Y).\n"
                                         "t(X,Z) :- e(X,Y), t(Y,Z).")
                               .program));
  EXPECT_FALSE(
      IsStratified(ParseInstance("win(X) :- move(X,Y), not win(Y).").program));
  // Even negative cycle: call-consistent but not stratified.
  Instance even = ParseInstance("p :- not q.\nq :- not p.");
  EXPECT_FALSE(IsStratified(even.program));
  EXPECT_TRUE(IsCallConsistent(even.program));
  // Odd negative cycle: neither.
  Instance odd = ParseInstance("p :- not p.");
  EXPECT_FALSE(IsStratified(odd.program));
  EXPECT_FALSE(IsCallConsistent(odd.program));
  // Negation only on EDB: stratified.
  EXPECT_TRUE(
      IsStratified(ParseInstance("p(X) :- e(X), not f(X).").program));
}

TEST(StratificationTest, StrataRespectConstraints) {
  Instance inst = ParseInstance(
      "reach(X) :- source(X).\n"
      "reach(Y) :- reach(X), e(X, Y).\n"
      "unreach(X) :- node(X), not reach(X).\n"
      "island(X) :- unreach(X), not e(X, X).");
  const auto strata = ComputeStrata(inst.program);
  ASSERT_TRUE(strata.has_value());
  for (const Rule& rule : inst.program.rules()) {
    const int32_t head = (*strata)[rule.head.predicate];
    for (const Literal& lit : rule.body) {
      const int32_t body = (*strata)[lit.atom.predicate];
      if (lit.positive) {
        EXPECT_GE(head, body);
      } else {
        EXPECT_GT(head, body);
      }
    }
  }
  EXPECT_FALSE(ComputeStrata(ParseInstance("p :- not p.").program).has_value());
}

TEST(PerfectModelTest, EvenOddChain) {
  Instance inst = ParseInstance(
      "even(X) :- zero(X).\n"
      "even(Y) :- succ(X, Y), odd(X).\n"
      "odd(Y) :- succ(X, Y), even(X).",
      "zero(n0). succ(n0, n1). succ(n1, n2). succ(n2, n3).");
  const GroundingResult g = GroundOrDie(inst);
  ASSERT_TRUE(
      reference::IsLocallyStratified(inst.program, inst.database, g.graph));
  const auto perfect =
      reference::PerfectModel(inst.program, inst.database, g.graph);
  ASSERT_TRUE(perfect.has_value());
  EXPECT_EQ(TruthOf(inst, g, *perfect, "even", {"n0"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, *perfect, "odd", {"n1"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, *perfect, "even", {"n2"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, *perfect, "odd", {"n3"}), Truth::kTrue);
  EXPECT_EQ(TruthOf(inst, g, *perfect, "even", {"n3"}), Truth::kFalse);
}

TEST(PerfectModelTest, LocallyStratifiedButNotStratified) {
  // win-move on an acyclic board: the program graph has a negative cycle,
  // but the ground graph does not.
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, b). move(b, c).");
  const GroundingResult g = GroundOrDie(inst);
  EXPECT_FALSE(IsStratified(inst.program));
  EXPECT_TRUE(
      reference::IsLocallyStratified(inst.program, inst.database, g.graph));
  const auto perfect =
      reference::PerfectModel(inst.program, inst.database, g.graph);
  ASSERT_TRUE(perfect.has_value());
  EXPECT_EQ(TruthOf(inst, g, *perfect, "win", {"b"}), Truth::kTrue);
}

TEST(PerfectModelTest, NotLocallyStratifiedReturnsNullopt) {
  Instance inst = ParseInstance("win(X) :- move(X, Y), not win(Y).",
                                "move(a, a).");
  const GroundingResult g = GroundOrDie(inst);
  EXPECT_FALSE(
      reference::IsLocallyStratified(inst.program, inst.database, g.graph));
  EXPECT_FALSE(reference::PerfectModel(inst.program, inst.database, g.graph)
                   .has_value());
}

TEST(PerfectModelTest, TieBreakingComputesThePerfectModel) {
  // Section 3's claim: on locally stratified inputs both tie-breaking
  // variants compute the perfect model (under every choice — there are no
  // real choices, all ties have an empty side).
  const char* kPrograms[] = {
      "win(X) :- move(X, Y), not win(Y).",
      "p(X) :- e(X), not q(X).\nq(X) :- f(X).\nr(X) :- p(X), q(X).",
      "a :- not b.\nb :- e.\nc :- a, not b.",
  };
  const char* kDatabases[] = {
      "move(a, b). move(b, c). move(c, d). move(a, d).",
      "e(u). e(v). f(v).",
      "",
  };
  for (int i = 0; i < 3; ++i) {
    Instance inst = ParseInstance(kPrograms[i], kDatabases[i]);
    const GroundingResult g = GroundOrDie(inst);
    ASSERT_TRUE(
        reference::IsLocallyStratified(inst.program, inst.database, g.graph))
        << i;
    const auto perfect =
        reference::PerfectModel(inst.program, inst.database, g.graph);
    ASSERT_TRUE(perfect.has_value()) << i;
    for (TieBreakingMode mode :
         {TieBreakingMode::kPure, TieBreakingMode::kWellFounded}) {
      const InterpreterResult result =
          TieBreaking(inst.program, inst.database, g.graph, mode);
      ASSERT_TRUE(result.total) << i;
      EXPECT_EQ(result.values, *perfect) << "program " << i;
    }
    // And so does WF (stratified semantics agreement).
    const InterpreterResult wf =
        WellFounded(inst.program, inst.database, g.graph);
    ASSERT_TRUE(wf.total) << i;
    EXPECT_EQ(wf.values, *perfect) << "program " << i;
  }
}

}  // namespace
}  // namespace tiebreak
