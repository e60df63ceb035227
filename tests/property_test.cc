// Parameterized property sweeps (TEST_P): structural/semantic invariants
// over whole program families — negation rings, win-move cycles and chains,
// stratified towers, independent-tie products, and randomized instances.
#include <string>
#include <vector>

#include "core/completion.h"
#include "core/exploration.h"
#include "core/fixpoint.h"
#include "core/stable.h"
#include "core/stratification.h"
#include "core/structural_totality.h"
#include "core/tie_breaking.h"
#include "core/well_founded.h"
#include "engine/evaluation.h"
#include "gtest/gtest.h"
#include "reference_grounder.h"
#include "reference_interpreters.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::GroundOrDie;
using testing_util::Instance;
using testing_util::ParseInstance;
using testing_util::TruthOf;

// ---------------------------------------------------------------------------
// Negation rings p0 <- !p1 <- ... <- !p0: everything depends on parity.
// ---------------------------------------------------------------------------

class NegationRingProperty : public ::testing::TestWithParam<int> {};

TEST_P(NegationRingProperty, ParityDecidesEverything) {
  const int k = GetParam();
  const bool even = k % 2 == 0;
  Program program = NegationRingProgram(k);
  Database database(program);

  EXPECT_EQ(IsCallConsistent(program), even);
  EXPECT_EQ(IsStructurallyTotal(program), even);
  EXPECT_EQ(IsStructurallyNonuniformlyTotal(program), even);
  EXPECT_FALSE(IsStratified(program));

  const GroundingResult g = GroundOrDie(Instance{program, database});
  // WF never decides a ring.
  const InterpreterResult wf = WellFounded(program, database, g.graph);
  EXPECT_EQ(wf.CountUndefined(), k);

  // WFTB decides exactly the even rings, in one tie break.
  const InterpreterResult wftb = TieBreaking(
      program, database, g.graph, TieBreakingMode::kWellFounded);
  EXPECT_EQ(wftb.total, even);
  if (even) {
    EXPECT_EQ(wftb.ties_broken, 1);
    EXPECT_TRUE(IsStable(program, database, g.graph, wftb.values));
    // Alternating truth around the ring.
    for (int i = 0; i < k; ++i) {
      const Truth a = TruthOf(Instance{program, database}, g, wftb.values,
                              "p" + std::to_string(i));
      const Truth b = TruthOf(Instance{program, database}, g, wftb.values,
                              "p" + std::to_string((i + 1) % k));
      EXPECT_NE(a, b) << "i=" << i;
    }
  }

  // Fixpoints/stable models: two for even rings, none for odd ones.
  FixpointSearch search(program, database, g.graph);
  EXPECT_EQ(search.Count(0), even ? 2 : 0);
  EXPECT_EQ(
      static_cast<int>(
          EnumerateStableModels(program, database, g.graph).size()),
      even ? 2 : 0);

  // Exploration: both orientations reachable on even rings.
  const auto runs = ExploreAllChoices(program, database, g.graph,
                                      TieBreakingMode::kWellFounded);
  EXPECT_EQ(runs.size(), even ? 2u : 1u);
}

INSTANTIATE_TEST_SUITE_P(Rings, NegationRingProperty,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Win-move on a directed cycle of length n.
// ---------------------------------------------------------------------------

class WinMoveCycleProperty : public ::testing::TestWithParam<int> {};

TEST_P(WinMoveCycleProperty, GroundParityDecides) {
  const int n = GetParam();
  const bool even = n % 2 == 0;
  Program program = WinMoveProgram();
  Database board = *CycleDatabase(&program, "move", n);
  const GroundingResult g = GroundOrDie(Instance{program, board});

  const InterpreterResult wf = WellFounded(program, board, g.graph);
  EXPECT_EQ(wf.CountUndefined(), n);  // every position is a draw under WF

  const InterpreterResult wftb =
      TieBreaking(program, board, g.graph, TieBreakingMode::kWellFounded);
  EXPECT_EQ(wftb.total, even);

  FixpointSearch search(program, board, g.graph);
  EXPECT_EQ(search.Count(0), even ? 2 : 0);

  // The *program* is structurally non-total regardless of n; the cycle
  // parity only decides this particular database.
  EXPECT_FALSE(IsStructurallyTotal(program));
}

INSTANTIATE_TEST_SUITE_P(Cycles, WinMoveCycleProperty,
                         ::testing::Range(1, 10));

// ---------------------------------------------------------------------------
// Win-move on a chain: fully decided by close(); standard game values.
// ---------------------------------------------------------------------------

class WinMoveChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(WinMoveChainProperty, PositionsAlternateFromTheSink) {
  const int length = GetParam();
  Program program = WinMoveProgram();
  Database board = *ChainDatabase(&program, "move", length);
  Instance inst{program, board};
  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(program, board, g.graph);
  EXPECT_TRUE(wf.total);
  // Node i (0-based) has distance length-1-i to the sink; a position is won
  // iff that distance is odd.
  for (int i = 0; i < length; ++i) {
    const int distance = length - 1 - i;
    const Truth expected =
        distance % 2 == 1 ? Truth::kTrue : Truth::kFalse;
    EXPECT_EQ(
        TruthOf(inst, g, wf.values, "win", {"n" + std::to_string(i)}),
        expected)
        << "node " << i;
  }
  // All three interpreters agree on chains (no ties to break).
  const InterpreterResult pure =
      TieBreaking(program, board, g.graph, TieBreakingMode::kPure);
  EXPECT_EQ(pure.values, wf.values);
  EXPECT_EQ(pure.ties_broken, 0);
}

INSTANTIATE_TEST_SUITE_P(Chains, WinMoveChainProperty,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Products of independent ties: counts multiply.
// ---------------------------------------------------------------------------

class IndependentTiesProperty : public ::testing::TestWithParam<int> {};

TEST_P(IndependentTiesProperty, OutcomesAndFixpointsAreTwoToTheM) {
  const int m = GetParam();
  std::string text;
  for (int i = 0; i < m; ++i) {
    text += "a" + std::to_string(i) + " :- not b" + std::to_string(i) + ".\n";
    text += "b" + std::to_string(i) + " :- not a" + std::to_string(i) + ".\n";
  }
  Instance inst = ParseInstance(text);
  const GroundingResult g = GroundOrDie(inst);
  const int64_t expected = int64_t{1} << m;

  FixpointSearch search(inst.program, inst.database, g.graph);
  EXPECT_EQ(search.Count(0), expected);
  EXPECT_EQ(static_cast<int64_t>(
                EnumerateStableModels(inst.program, inst.database, g.graph)
                    .size()),
            expected);
  const auto runs = ExploreAllChoices(inst.program, inst.database, g.graph,
                                      TieBreakingMode::kWellFounded);
  EXPECT_EQ(static_cast<int64_t>(runs.size()), expected);
  for (const auto& run : runs) {
    EXPECT_TRUE(run.result.total);
    EXPECT_EQ(run.result.ties_broken, m);
  }
}

INSTANTIATE_TEST_SUITE_P(Products, IndependentTiesProperty,
                         ::testing::Range(1, 7));

// ---------------------------------------------------------------------------
// Stratified towers: per-level alternation, engine/WF/perfect agreement.
// ---------------------------------------------------------------------------

class StratifiedTowerProperty : public ::testing::TestWithParam<int> {};

TEST_P(StratifiedTowerProperty, LevelsAlternate) {
  const int levels = GetParam();
  Program program = StratifiedTowerProgram(levels);
  Database database = *UnarySetDatabase(&program, "e", 3);
  Instance inst{program, database};

  EXPECT_TRUE(IsStratified(program));
  const auto strata = ComputeStrata(program);
  ASSERT_TRUE(strata.has_value());
  int32_t max_stratum = 0;
  for (int32_t s : *strata) max_stratum = std::max(max_stratum, s);
  EXPECT_EQ(max_stratum, levels);

  const GroundingResult g = GroundOrDie(inst);
  const InterpreterResult wf = WellFounded(program, database, g.graph);
  ASSERT_TRUE(wf.total);
  for (int i = 0; i <= levels; ++i) {
    const Truth expected = i % 2 == 0 ? Truth::kTrue : Truth::kFalse;
    EXPECT_EQ(TruthOf(inst, g, wf.values, "level" + std::to_string(i),
                      {"n0"}),
              expected)
        << "level " << i;
  }
  // Engine agreement.
  Result<Database> engine_result = EvaluateStratified(program, database);
  ASSERT_TRUE(engine_result.ok());
  for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
    EXPECT_EQ(engine_result->Contains(g.graph.atoms().PredicateOf(a),
                                      g.graph.atoms().TupleOf(a)),
              wf.values[a] == Truth::kTrue);
  }
}

INSTANTIATE_TEST_SUITE_P(Towers, StratifiedTowerProperty,
                         ::testing::Range(1, 8));

// ---------------------------------------------------------------------------
// Randomized semantic invariants, one seed per test case.
// ---------------------------------------------------------------------------

class RandomSemanticsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomSemanticsProperty, CrossImplementationInvariants) {
  Rng rng(GetParam() * 7919 + 13);
  for (int round = 0; round < 12; ++round) {
    RandomProgramOptions options;
    options.num_idb = 3 + static_cast<int>(rng.Below(3));
    options.num_edb = 2;
    options.num_rules = 3 + static_cast<int>(rng.Below(7));
    options.negation_probability = 0.2 + 0.1 * rng.Below(5);
    Program program = RandomProgram(&rng, options);
    Database database = *RandomEdbDatabase(&program, 1, 0.5, &rng);
    const GroundingResult g = GroundOrDie(Instance{program, database});

    // (1) The alternating-fixpoint WFS agrees with the unfounded-set WFS.
    const InterpreterResult wf = WellFounded(program, database, g.graph);
    const InterpreterResult alt =
        reference::AlternatingFixpointWellFounded(program, database, g.graph);
    EXPECT_EQ(wf.values, alt.values) << "round " << round;

    // (2) WFTB extends the well-founded partial model.
    RandomChoicePolicy policy(rng.Next());
    const InterpreterResult wftb =
        TieBreaking(program, database, g.graph,
                    TieBreakingMode::kWellFounded, &policy);
    for (AtomId a = 0; a < g.graph.num_atoms(); ++a) {
      if (wf.values[a] != Truth::kUndef) {
        EXPECT_EQ(wftb.values[a], wf.values[a]) << "atom " << a;
      }
    }

    // (3) If WF is total, WFTB reproduces it exactly and it is the unique
    // stable model.
    if (wf.total) {
      EXPECT_EQ(wftb.values, wf.values);
      const auto stable =
          EnumerateStableModels(program, database, g.graph);
      ASSERT_EQ(stable.size(), 1u);
      EXPECT_EQ(stable[0], wf.values);
    }

    // (4) Everything any interpreter outputs is consistent (Lemma 2).
    for (const InterpreterResult* r : {&wf, &wftb}) {
      EXPECT_TRUE(
          IsConsistent(program, database, g.graph, r->values));
      EXPECT_TRUE(
          TrueAtomsSupported(program, database, g.graph, r->values));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSemanticsProperty,
                         ::testing::Range<uint64_t>(0, 16));

// ---------------------------------------------------------------------------
// Grounder equivalence on randomized unary programs (faithful vs reduced).
// ---------------------------------------------------------------------------

class GrounderEquivalenceProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GrounderEquivalenceProperty, ReducedMatchesFaithfulAfterClose) {
  Rng rng(GetParam() * 31 + 5);
  RandomProgramOptions options;
  options.arity = 1;
  options.num_idb = 3;
  options.num_edb = 2;
  options.num_rules = 4 + static_cast<int>(rng.Below(5));
  options.negation_probability = 0.35;
  Program program = RandomProgram(&rng, options);
  Database database = *RandomEdbDatabase(&program, 3, 0.4, &rng);

  const GroundingResult faithful =
      reference::GroundFaithful(program, database, /*include_all_atoms=*/true)
          .value();
  const GroundingResult reduced = GroundOrDie(Instance{program, database});

  // Run the full WF interpreter on both; models must agree on IDB atoms.
  const InterpreterResult wf_faithful =
      WellFounded(program, database, faithful.graph);
  const InterpreterResult wf_reduced =
      WellFounded(program, database, reduced.graph);
  for (AtomId fa = 0; fa < faithful.graph.num_atoms(); ++fa) {
    const PredId pred = faithful.graph.atoms().PredicateOf(fa);
    if (program.IsEdb(pred)) continue;
    const AtomId ra =
        reduced.graph.atoms().Lookup(pred, faithful.graph.atoms().TupleOf(fa));
    const Truth expected =
        ra < 0 ? Truth::kFalse : wf_reduced.values[ra];
    EXPECT_EQ(wf_faithful.values[fa], expected) << "atom " << fa;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrounderEquivalenceProperty,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace tiebreak
