// Kernel-agreement tests: the row (tuple-at-a-time reference), vector
// (batch kernels + prefetch) and merge (forced sort-merge joins) kernels
// must produce the *identical* database and the identical derived-tuple
// count — on every named workload family and on randomized stratified
// programs.
#include <string>
#include <vector>

#include "core/stratification.h"
#include "engine/evaluation.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

constexpr JoinKernel kKernels[] = {JoinKernel::kRow, JoinKernel::kVector,
                                   JoinKernel::kMerge};

const char* KernelName(JoinKernel kernel) {
  switch (kernel) {
    case JoinKernel::kRow:
      return "row";
    case JoinKernel::kVector:
      return "vector";
    case JoinKernel::kMerge:
      return "merge";
  }
  return "?";
}

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
    // Dense enough that the merge path is exercised with long runs (few
    // distinct sources, many edges each) even below the auto threshold.
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

TEST(KernelAgreementTest, AllWorkloadsAllKernels) {
  for (NamedWorkload& workload : AllWorkloads()) {
    EngineOptions reference_options;  // serial row kernel
    reference_options.kernel = JoinKernel::kRow;
    EngineStats reference_stats;
    Result<Database> reference =
        EvaluateStratified(workload.program, workload.database,
                           reference_options, &reference_stats);
    ASSERT_TRUE(reference.ok())
        << workload.name << ": " << reference.status().ToString();
    for (const JoinKernel kernel : kKernels) {
      EngineOptions options;
      options.kernel = kernel;
      EngineStats stats;
      Result<Database> result = EvaluateStratified(
          workload.program, workload.database, options, &stats);
      ASSERT_TRUE(result.ok()) << workload.name
                               << " kernel=" << KernelName(kernel) << ": "
                               << result.status().ToString();
      EXPECT_TRUE(*result == *reference)
          << workload.name << " kernel=" << KernelName(kernel);
      EXPECT_EQ(stats.tuples_derived, reference_stats.tuples_derived)
          << workload.name << " kernel=" << KernelName(kernel);
    }
  }
}

TEST(KernelAgreementTest, MergeKernelActuallyTakesTheMergePath) {
  // Force-merge on an EDB-probing recursive rule must compile at least one
  // sort-merge step — otherwise the suite above would be vacuous for it.
  Program program = ReachabilityProgram();
  Rng rng(3);
  Database db = *LargeRandomDigraphDatabase(&program, "e", 200, 4000, &rng);
  db.Insert(program.LookupPredicate("start"),
            {program.LookupConstant("n0")});
  EngineOptions options;
  options.kernel = JoinKernel::kMerge;
  EngineStats stats;
  ASSERT_TRUE(EvaluateStratified(program, db, options, &stats).ok());
  EXPECT_GT(stats.merge_join_steps, 0);
}

TEST(KernelAgreementTest, AutoMergeSelectionBySelectivity) {
  // Low distinct-key fraction (few sources, many edges each) must trip the
  // selectivity threshold under the default vector kernel; a high
  // threshold of 0 must disable it.
  Program program = ReachabilityProgram();
  Rng rng(5);
  Database db = *RandomDigraphDatabase(&program, "e", 120, 120'000, &rng);
  db.Insert(program.LookupPredicate("start"),
            {program.LookupConstant("n0")});
  {
    EngineOptions options;  // vector kernel, default threshold
    EngineStats stats;
    Result<Database> with_merge = EvaluateStratified(program, db, options,
                                                     &stats);
    ASSERT_TRUE(with_merge.ok());
    EXPECT_GT(stats.merge_join_steps, 0);

    EngineOptions no_merge_options;
    no_merge_options.merge_join_selectivity = 0;  // auto merge disabled
    EngineStats no_merge_stats;
    Result<Database> without_merge = EvaluateStratified(
        program, db, no_merge_options, &no_merge_stats);
    ASSERT_TRUE(without_merge.ok());
    EXPECT_EQ(no_merge_stats.merge_join_steps, 0);
    EXPECT_TRUE(*with_merge == *without_merge);
  }
}

TEST(KernelAgreementTest, RandomStratifiedPrograms) {
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
    EngineOptions reference_options;
    reference_options.kernel = JoinKernel::kRow;
    EngineStats reference_stats;
    Result<Database> reference = EvaluateStratified(
        program, db, reference_options, &reference_stats);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const JoinKernel kernel : kKernels) {
      EngineOptions run_options;
      run_options.kernel = kernel;
      EngineStats stats;
      Result<Database> result =
          EvaluateStratified(program, db, run_options, &stats);
      ASSERT_TRUE(result.ok())
          << "round " << round << " kernel=" << KernelName(kernel) << ": "
          << result.status().ToString();
      EXPECT_TRUE(*result == *reference)
          << "round " << round << " kernel=" << KernelName(kernel);
      EXPECT_EQ(stats.tuples_derived, reference_stats.tuples_derived)
          << "round " << round << " kernel=" << KernelName(kernel);
    }
    ++evaluated;
  }
  // The generator must actually exercise the engine, not skip everything.
  EXPECT_GT(evaluated, 10);
}

}  // namespace
}  // namespace tiebreak
