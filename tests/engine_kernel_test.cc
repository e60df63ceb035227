// Kernel tests: the engine's join kernels (the batch direct scan, hash
// probes, sort-merge joins chosen by selectivity) must compute exactly the
// perfect model, as tests/reference_interpreters.h computes it over the
// backtracking-join grounding of tests/reference_grounder.h, so no engine
// code runs on the reference side — on every named workload family and on
// randomized stratified programs.
#include <string>
#include <vector>

#include "core/stratification.h"
#include "engine/evaluation.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

using testing_util::ExpectMatchesPerfectModel;

struct NamedWorkload {
  std::string name;
  Program program;
  Database database;
};

std::vector<NamedWorkload> AllWorkloads() {
  std::vector<NamedWorkload> workloads;
  {
    Program program = TransitiveClosureProgram();
    Database db = *ChainDatabase(&program, "e", 64);
    workloads.push_back({"tc_chain", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Database db = *CycleDatabase(&program, "e", 48);
    workloads.push_back({"tc_cycle", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Rng rng(7);
    Database db = *RandomDigraphDatabase(&program, "e", 48, 144, &rng);
    workloads.push_back({"tc_random", std::move(program), std::move(db)});
  }
  {
    Program program = TransitiveClosureProgram();
    Database db = *WideGridDatabase(&program, "e", 32, 3);
    workloads.push_back({"tc_wide_grid", std::move(program), std::move(db)});
  }
  {
    // Dense: few distinct sources, many edges each.
    Program program = ReachabilityProgram();
    Rng rng(11);
    Database db = *LargeRandomDigraphDatabase(&program, "e", 500, 8000, &rng);
    const PredId start = program.LookupPredicate("start");
    const ConstId n0 = program.LookupConstant("n0");
    db.Insert(start, {n0});
    workloads.push_back({"reach_dense", std::move(program), std::move(db)});
  }
  {
    Program program = SameGenerationProgram();
    Database db = *BalancedTreeDatabase(&program, 5);
    workloads.push_back({"same_generation", std::move(program),
                         std::move(db)});
  }
  {
    Program program = StratifiedTowerProgram(8);
    Database db = *UnarySetDatabase(&program, "e", 48);
    workloads.push_back({"stratified_tower", std::move(program),
                         std::move(db)});
  }
  return workloads;
}

TEST(KernelAgreementTest, AllWorkloadsMatchPerfectModel) {
  for (NamedWorkload& workload : AllWorkloads()) {
    Result<Database> result =
        EvaluateStratified(workload.program, workload.database);
    ASSERT_TRUE(result.ok())
        << workload.name << ": " << result.status().ToString();
    ExpectMatchesPerfectModel(workload.program, workload.database, *result,
                              workload.name);
  }
}

TEST(KernelAgreementTest, AutoMergeSelectionBySelectivity) {
  // A low distinct-key fraction (few sources, many edges each) must trip
  // the selectivity threshold, and the merge joins must still compute the
  // perfect model.
  Program program = ReachabilityProgram();
  Rng rng(5);
  Database db = *RandomDigraphDatabase(&program, "e", 120, 120'000, &rng);
  db.Insert(program.LookupPredicate("start"),
            {program.LookupConstant("n0")});
  EngineStats stats;
  Result<Database> result =
      EvaluateStratified(program, db, EngineOptions{}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.merge_join_steps, 0);
  ExpectMatchesPerfectModel(program, db, *result, "reach_dense_merge");
}

TEST(KernelAgreementTest, RandomStratifiedProgramsMatchPerfectModel) {
  Rng rng(0x6E47);
  int evaluated = 0;
  for (int round = 0; round < 40; ++round) {
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
    Result<Database> result = EvaluateStratified(program, db);
    ASSERT_TRUE(result.ok())
        << "round " << round << ": " << result.status().ToString();
    ExpectMatchesPerfectModel(program, db, *result,
                              "round " + std::to_string(round));
    ++evaluated;
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(evaluated, 10);
}

}  // namespace
}  // namespace tiebreak
