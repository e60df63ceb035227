// Tests for the CDCL solver, cross-validated against brute-force truth-table
// enumeration on random instances, plus structured SAT/UNSAT families and
// model enumeration via blocking clauses (BlockModel's projections and
// BlockDecisions' decision literals).
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sat/solver.h"
#include "sat_brute_force.h"
#include "util/execution_context.h"
#include "util/random.h"
#include "util/status.h"

namespace tiebreak {
namespace {

using testing_util::BruteForceModels;
using testing_util::BruteForceSat;
using testing_util::Clauses;

// Enumerates every model through BlockDecisions and checks each blocking
// clause: one decision literal per decision level (counted by the solver's
// decision counter on a Solve without conflicts, which never backtracks),
// on distinct variables, each true in the model; and among the models not
// yet enumerated the decisions single out that model alone, which is what
// makes the clause exact. Returns the models in enumeration order.
std::vector<std::vector<bool>> EnumerateByDecisions(
    SatSolver* solver, int num_vars,
    const std::set<std::vector<bool>>& expected, const std::string& what) {
  std::vector<std::vector<bool>> found;
  std::set<std::vector<bool>> remaining = expected;
  while (true) {
    const int64_t conflicts = solver->num_conflicts();
    const int64_t decisions = solver->num_decisions();
    const SatResult result = solver->Solve();
    EXPECT_NE(result, SatResult::kUnknown) << what;
    if (result != SatResult::kSat) break;
    std::vector<bool> model;
    for (int v = 0; v < num_vars; ++v) model.push_back(solver->ModelValue(v));
    const std::vector<SatLit>& chosen = solver->model_decisions();
    if (solver->num_conflicts() == conflicts) {
      EXPECT_EQ(static_cast<int64_t>(chosen.size()),
                solver->num_decisions() - decisions)
          << what;
    }
    std::set<int32_t> vars;
    for (const SatLit lit : chosen) {
      EXPECT_TRUE(vars.insert(LitVar(lit)).second) << what;
      EXPECT_EQ(model[LitVar(lit)], !LitIsNeg(lit)) << what;
    }
    EXPECT_EQ(remaining.erase(model), 1u)
        << what << ": a repeated or wrong model";
    for (const std::vector<bool>& other : remaining) {
      bool agrees = true;
      for (const SatLit lit : chosen) {
        agrees = agrees && other[LitVar(lit)] != LitIsNeg(lit);
      }
      EXPECT_FALSE(agrees) << what << ": the decisions admit another model";
    }
    found.push_back(std::move(model));
    if (found.size() > expected.size()) break;
    EXPECT_TRUE(solver->BlockDecisions().ok()) << what;
  }
  EXPECT_TRUE(remaining.empty()) << what << ": models missed";
  return found;
}

SatSolver MakeSolver(int num_vars, const Clauses& clauses) {
  SatSolver solver;
  for (int i = 0; i < num_vars; ++i) solver.NewVar();
  for (const auto& clause : clauses) solver.AddClause(clause);
  return solver;
}

bool ModelSatisfies(const SatSolver& solver, const Clauses& clauses) {
  for (const auto& clause : clauses) {
    bool sat = false;
    for (SatLit lit : clause) {
      if (solver.ModelValue(LitVar(lit)) != LitIsNeg(lit)) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(SatSolverTest, EmptyInstanceIsSat) {
  SatSolver solver;
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, SingleUnit) {
  SatSolver solver;
  const int x = solver.NewVar();
  solver.AddUnit(PosLit(x));
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_TRUE(solver.ModelValue(x));
}

TEST(SatSolverTest, ContradictoryUnitsAreUnsat) {
  SatSolver solver;
  const int x = solver.NewVar();
  solver.AddUnit(PosLit(x));
  solver.AddUnit(NegLit(x));
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver solver;
  solver.NewVar();
  solver.AddClause({});
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, TautologyIgnored) {
  SatSolver solver;
  const int x = solver.NewVar();
  solver.AddClause({PosLit(x), NegLit(x)});
  EXPECT_EQ(solver.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, ImplicationChainPropagates) {
  // x0 and (x_i -> x_{i+1}) for a long chain; then force !x_last: UNSAT.
  SatSolver solver;
  constexpr int kChain = 200;
  std::vector<int> vars;
  for (int i = 0; i < kChain; ++i) vars.push_back(solver.NewVar());
  solver.AddUnit(PosLit(vars[0]));
  for (int i = 0; i + 1 < kChain; ++i) {
    solver.AddBinary(NegLit(vars[i]), PosLit(vars[i + 1]));
  }
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  for (int v : vars) EXPECT_TRUE(solver.ModelValue(v));
  solver.AddUnit(NegLit(vars[kChain - 1]));
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic hard UNSAT instance (small enough here).
  constexpr int kPigeons = 4, kHoles = 3;
  SatSolver solver;
  int var[kPigeons][kHoles];
  for (int p = 0; p < kPigeons; ++p) {
    for (int h = 0; h < kHoles; ++h) var[p][h] = solver.NewVar();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < kHoles; ++h) clause.push_back(PosLit(var[p][h]));
    solver.AddClause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        solver.AddBinary(NegLit(var[p1][h]), NegLit(var[p2][h]));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, PigeonholeSearchCountersArePinned) {
  // 8 pigeons, 7 holes: long enough for Luby restarts and several learnt
  // clause reductions. The search is deterministic, so its counters pin
  // it: a change to the restart schedule, to minimization or to which
  // learnt clauses a reduction keeps (the glue clauses, LBD <= 2, and the
  // better half of the rest) moves them. Re-pin only with a change that
  // means to alter the search.
  constexpr int kPigeons = 8, kHoles = 7;
  Clauses clauses;
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < kHoles; ++h) clause.push_back(PosLit(p * kHoles + h));
    clauses.push_back(std::move(clause));
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        clauses.push_back({NegLit(p1 * kHoles + h), NegLit(p2 * kHoles + h)});
      }
    }
  }
  SatSolver solver = MakeSolver(kPigeons * kHoles, clauses);
  ASSERT_EQ(solver.Solve(), SatResult::kUnsat);
  EXPECT_EQ(solver.num_conflicts(), 5102);
  EXPECT_EQ(solver.num_restarts(), 27);
  EXPECT_EQ(solver.num_learnt(), 5097);
  EXPECT_EQ(solver.num_reduced(), 2308);
}

TEST(SatSolverTest, RandomInstancesMatchBruteForce) {
  Rng rng(2024);
  int sat_count = 0, unsat_count = 0;
  for (int round = 0; round < 400; ++round) {
    const int n = 1 + static_cast<int>(rng.Below(10));
    const int m = static_cast<int>(rng.Below(5 * n + 1));
    Clauses clauses;
    for (int c = 0; c < m; ++c) {
      const int width = 1 + static_cast<int>(rng.Below(3));
      std::vector<SatLit> clause;
      for (int k = 0; k < width; ++k) {
        clause.push_back(
            MakeLit(static_cast<int>(rng.Below(n)), rng.Chance(0.5)));
      }
      clauses.push_back(std::move(clause));
    }
    const bool expected = BruteForceSat(n, clauses);
    SatSolver solver = MakeSolver(n, clauses);
    const SatResult result = solver.Solve();
    ASSERT_NE(result, SatResult::kUnknown);
    EXPECT_EQ(result == SatResult::kSat, expected) << "round " << round;
    if (result == SatResult::kSat) {
      ++sat_count;
      EXPECT_TRUE(ModelSatisfies(solver, clauses)) << "round " << round;
    } else {
      ++unsat_count;
    }
    // Enumeration through decision blocking yields exactly the truth
    // table's model set.
    SatSolver enumerator = MakeSolver(n, clauses);
    EnumerateByDecisions(&enumerator, n, BruteForceModels(n, clauses),
                         "round " + std::to_string(round));
  }
  EXPECT_GT(sat_count, 50);
  EXPECT_GT(unsat_count, 50);
}

TEST(SatSolverTest, ModelEnumerationCountsModels) {
  Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    const int n = 1 + static_cast<int>(rng.Below(8));
    const int m = static_cast<int>(rng.Below(3 * n + 1));
    Clauses clauses;
    for (int c = 0; c < m; ++c) {
      std::vector<SatLit> clause;
      const int width = 1 + static_cast<int>(rng.Below(3));
      for (int k = 0; k < width; ++k) {
        clause.push_back(
            MakeLit(static_cast<int>(rng.Below(n)), rng.Chance(0.5)));
      }
      clauses.push_back(std::move(clause));
    }
    int64_t expected = 0;
    BruteForceSat(n, clauses, &expected);

    SatSolver solver = MakeSolver(n, clauses);
    std::vector<int32_t> all_vars;
    for (int v = 0; v < n; ++v) all_vars.push_back(v);
    int64_t found = 0;
    while (solver.Solve() == SatResult::kSat) {
      ++found;
      ASSERT_LE(found, expected) << "enumeration repeated a model";
      solver.BlockModel(all_vars);
    }
    EXPECT_EQ(found, expected) << "round " << round;
  }
}

TEST(SatSolverTest, ConflictBudgetReturnsUnknown) {
  // Large pigeonhole; tiny budget must bail out with kUnknown.
  constexpr int kPigeons = 9, kHoles = 8;
  SatSolver solver;
  std::vector<std::vector<int>> var(kPigeons, std::vector<int>(kHoles));
  for (int p = 0; p < kPigeons; ++p) {
    for (int h = 0; h < kHoles; ++h) var[p][h] = solver.NewVar();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < kHoles; ++h) clause.push_back(PosLit(var[p][h]));
    solver.AddClause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        solver.AddBinary(NegLit(var[p1][h]), NegLit(var[p2][h]));
      }
    }
  }
  solver.SetConflictBudget(10);
  EXPECT_EQ(solver.Solve(), SatResult::kUnknown);
  // Raising the budget should finish the search.
  solver.SetConflictBudget(0);
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, IncrementalSolvingAcrossAddClause) {
  SatSolver solver;
  const int x = solver.NewVar();
  const int y = solver.NewVar();
  solver.AddBinary(PosLit(x), PosLit(y));
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  solver.AddUnit(NegLit(x));
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_FALSE(solver.ModelValue(x));
  EXPECT_TRUE(solver.ModelValue(y));
  solver.AddUnit(NegLit(y));
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

// k-colorability encodings with known chromatic numbers: structured
// instances stressing propagation and learning beyond random CNF.
void AddColoringInstance(SatSolver* solver, int num_nodes, int colors,
                         const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> var(num_nodes, std::vector<int>(colors));
  for (int v = 0; v < num_nodes; ++v) {
    std::vector<SatLit> at_least_one;
    for (int c = 0; c < colors; ++c) {
      var[v][c] = solver->NewVar();
      at_least_one.push_back(PosLit(var[v][c]));
    }
    solver->AddClause(at_least_one);
  }
  for (const auto& [u, v] : edges) {
    for (int c = 0; c < colors; ++c) {
      solver->AddBinary(NegLit(var[u][c]), NegLit(var[v][c]));
    }
  }
}

TEST(SatSolverTest, OddCycleNeedsThreeColors) {
  std::vector<std::pair<int, int>> c5{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};
  SatSolver two;
  AddColoringInstance(&two, 5, 2, c5);
  EXPECT_EQ(two.Solve(), SatResult::kUnsat);
  SatSolver three;
  AddColoringInstance(&three, 5, 3, c5);
  EXPECT_EQ(three.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, CompleteGraphChromaticNumber) {
  // K5 needs exactly 5 colors.
  std::vector<std::pair<int, int>> k5;
  for (int u = 0; u < 5; ++u) {
    for (int v = u + 1; v < 5; ++v) k5.emplace_back(u, v);
  }
  SatSolver four;
  AddColoringInstance(&four, 5, 4, k5);
  EXPECT_EQ(four.Solve(), SatResult::kUnsat);
  SatSolver five;
  AddColoringInstance(&five, 5, 5, k5);
  EXPECT_EQ(five.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, PetersenGraphIsThreeChromatic) {
  // Outer C5 (0-4), inner pentagram (5-9), spokes i -> i+5.
  std::vector<std::pair<int, int>> petersen;
  for (int i = 0; i < 5; ++i) {
    petersen.emplace_back(i, (i + 1) % 5);
    petersen.emplace_back(5 + i, 5 + (i + 2) % 5);
    petersen.emplace_back(i, i + 5);
  }
  SatSolver two;
  AddColoringInstance(&two, 10, 2, petersen);
  EXPECT_EQ(two.Solve(), SatResult::kUnsat);
  SatSolver three;
  AddColoringInstance(&three, 10, 3, petersen);
  EXPECT_EQ(three.Solve(), SatResult::kSat);
}

TEST(SatSolverTest, StatsAreTracked) {
  SatSolver solver;
  const int x = solver.NewVar();
  const int y = solver.NewVar();
  solver.AddBinary(PosLit(x), PosLit(y));
  solver.AddBinary(NegLit(x), PosLit(y));
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_GE(solver.num_decisions() + solver.num_propagations(), 1);
}

// --- Status-contract regression tests -------------------------------------
//
// Misuse of the incremental API is reported through Status, never through a
// crash, and never corrupts the clause database: the solver stays usable.

TEST(SatSolverContractTest, BlockModelWithoutModelIsFailedPrecondition) {
  SatSolver solver;
  const int x = solver.NewVar();
  // Before any Solve: no model to block.
  Status status = solver.BlockModel({x});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // After an UNSAT Solve the last result is not kSat either.
  solver.AddUnit(PosLit(x));
  solver.AddUnit(NegLit(x));
  ASSERT_EQ(solver.Solve(), SatResult::kUnsat);
  status = solver.BlockModel({x});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SatSolverContractTest, BlockDecisionsWithoutModelIsFailedPrecondition) {
  SatSolver solver;
  const int x = solver.NewVar();
  EXPECT_EQ(solver.BlockDecisions().code(), StatusCode::kFailedPrecondition);
  solver.AddUnit(PosLit(x));
  solver.AddUnit(NegLit(x));
  ASSERT_EQ(solver.Solve(), SatResult::kUnsat);
  EXPECT_EQ(solver.BlockDecisions().code(), StatusCode::kFailedPrecondition);
}

// x0 <-> x1 <-> ... <-> x4: the first model takes one decision, which
// propagates to every variable, so its blocking clause is one literal; the
// second model is forced at level 0, takes no decision, and its empty
// blocking clause leaves the instance UNSAT.
TEST(SatSolverContractTest, BlockDecisionsBlocksOneLiteralPerLevel) {
  constexpr int kVars = 5;
  SatSolver solver;
  for (int v = 0; v < kVars; ++v) solver.NewVar();
  for (int v = 0; v + 1 < kVars; ++v) {
    solver.AddBinary(NegLit(v), PosLit(v + 1));
    solver.AddBinary(PosLit(v), NegLit(v + 1));
  }
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_EQ(solver.model_decisions().size(), 1u);
  const bool first = solver.ModelValue(0);
  ASSERT_TRUE(solver.BlockDecisions().ok());
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_TRUE(solver.model_decisions().empty());
  for (int v = 0; v < kVars; ++v) EXPECT_NE(solver.ModelValue(v), first);
  ASSERT_TRUE(solver.BlockDecisions().ok());
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverContractTest, BlockModelOutOfRangeVarIsInvalidArgument) {
  SatSolver solver;
  const int x = solver.NewVar();
  solver.AddUnit(PosLit(x));
  ASSERT_EQ(solver.Solve(), SatResult::kSat);
  EXPECT_EQ(solver.BlockModel({x + 1}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(solver.BlockModel({-1}).code(), StatusCode::kInvalidArgument);
  // The failed calls left the database untouched: blocking the real model
  // still works and flips the instance to UNSAT.
  EXPECT_TRUE(solver.BlockModel({x}).ok());
  EXPECT_EQ(solver.Solve(), SatResult::kUnsat);
}

TEST(SatSolverContractTest, AddClauseOutOfRangeLiteralIsInvalidArgument) {
  SatSolver solver;
  const int x = solver.NewVar();
  const int y = solver.NewVar();
  solver.AddBinary(PosLit(x), PosLit(y));
  // A literal naming a variable that was never created is rejected before
  // any mutation — including when it appears after valid literals.
  EXPECT_EQ(solver.AddClause({PosLit(x), PosLit(2)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(solver.AddClause({SatLit{-3}}).code(),
            StatusCode::kInvalidArgument);
  // The rejected clauses are not partially applied: both models of
  // (x | y) with both vars free minus nothing => 3 models remain.
  std::vector<int32_t> all_vars{x, y};
  int64_t models = 0;
  while (solver.Solve() == SatResult::kSat) {
    ++models;
    ASSERT_TRUE(solver.BlockModel(all_vars).ok());
  }
  EXPECT_EQ(models, 3);
}

// --- Randomized agreement with brute force --------------------------------
//
// The solver's one search (Luby restarts, recursive minimization,
// clause-database reduction) must decide exactly what the truth table
// decides: the same SAT/UNSAT verdicts and — because the enumeration loop
// is part of the public contract — the same *set* of models under
// BlockModel and BlockDecisions enumeration.

Clauses Random3Sat(Rng* rng, int n, int m) {
  Clauses clauses;
  for (int c = 0; c < m; ++c) {
    std::vector<SatLit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(
          MakeLit(static_cast<int>(rng->Below(n)), rng->Chance(0.5)));
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

TEST(SatSolverAgreementTest, Random3SatVerdictsMatchBruteForce) {
  Rng rng(0xC0FFEE);
  for (int round = 0; round < 120; ++round) {
    const int n = 6 + static_cast<int>(rng.Below(9));  // 6..14 vars
    const int m = static_cast<int>(4.3 * n);           // near threshold
    const Clauses clauses = Random3Sat(&rng, n, m);
    const bool expected = BruteForceSat(n, clauses);
    SatSolver solver = MakeSolver(n, clauses);
    const SatResult result = solver.Solve();
    ASSERT_NE(result, SatResult::kUnknown);
    EXPECT_EQ(result == SatResult::kSat, expected) << "round " << round;
    if (result == SatResult::kSat) {
      EXPECT_TRUE(ModelSatisfies(solver, clauses)) << "round " << round;
    }
  }
}

TEST(SatSolverAgreementTest, EnumeratedModelSetsMatchBruteForce) {
  Rng rng(0xBEE5);
  for (int round = 0; round < 40; ++round) {
    const int n = 5 + static_cast<int>(rng.Below(6));  // 5..10 vars
    const int m = 2 * n;
    const Clauses clauses = Random3Sat(&rng, n, m);
    const std::set<std::vector<bool>> reference =
        BruteForceModels(n, clauses);
    std::vector<int32_t> all_vars;
    for (int v = 0; v < n; ++v) all_vars.push_back(v);

    SatSolver solver = MakeSolver(n, clauses);
    std::set<std::vector<bool>> models;
    while (solver.Solve() == SatResult::kSat) {
      std::vector<bool> model;
      for (int v = 0; v < n; ++v) model.push_back(solver.ModelValue(v));
      ASSERT_TRUE(models.insert(std::move(model)).second)
          << "repeated a model in round " << round;
      ASSERT_TRUE(solver.BlockModel(all_vars).ok());
    }
    EXPECT_EQ(models, reference)
        << "round " << round << " enumerated a different model set";
    // Decision blocking enumerates the same set.
    SatSolver by_decisions = MakeSolver(n, clauses);
    EnumerateByDecisions(&by_decisions, n, reference,
                         "round " + std::to_string(round));
  }
}

// --- Governance soundness --------------------------------------------------

TEST(SatSolverGovernanceTest, StepBudgetTripReturnsUnknownMidSearch) {
  // A pigeonhole instance large enough to need thousands of conflicts; a
  // tiny step budget must trip mid-search. kUnknown is the only sound
  // answer — the solver must not claim either verdict.
  constexpr int kPigeons = 9, kHoles = 8;
  ResourceLimits limits;
  limits.max_steps = 50;
  ExecutionContext context(limits);
  SatSolver solver;
  solver.SetExecutionContext(&context);
  std::vector<std::vector<int>> var(kPigeons, std::vector<int>(kHoles));
  for (int p = 0; p < kPigeons; ++p) {
    for (int h = 0; h < kHoles; ++h) var[p][h] = solver.NewVar();
  }
  for (int p = 0; p < kPigeons; ++p) {
    std::vector<SatLit> clause;
    for (int h = 0; h < kHoles; ++h) clause.push_back(PosLit(var[p][h]));
    solver.AddClause(clause);
  }
  for (int h = 0; h < kHoles; ++h) {
    for (int p1 = 0; p1 < kPigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
        solver.AddBinary(NegLit(var[p1][h]), NegLit(var[p2][h]));
      }
    }
  }
  EXPECT_EQ(solver.Solve(), SatResult::kUnknown);
  EXPECT_TRUE(context.stopped());
  EXPECT_EQ(context.status().code(), StatusCode::kResourceExhausted);
  // Once tripped, the context keeps the solver at kUnknown.
  EXPECT_EQ(solver.Solve(), SatResult::kUnknown);
}

TEST(SatSolverGovernanceTest, CancelTripsAtConflictPoll) {
  SatSolver solver;
  ExecutionContext context;
  solver.SetExecutionContext(&context);
  const int x = solver.NewVar();
  solver.AddUnit(PosLit(x));
  // An already-cancelled context trips at the entry checkpoint.
  context.Cancel();
  EXPECT_EQ(solver.Solve(), SatResult::kUnknown);
  EXPECT_EQ(context.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace tiebreak
