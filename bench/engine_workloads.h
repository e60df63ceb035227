// The named engine benchmark workloads that bench_engine (the trajectory
// harness behind BENCH_engine.json) measures.
//
// Workloads are registered as lazy factories: million-tuple EDBs take
// seconds to generate, so only the workloads that will actually run are
// built.
#ifndef TIEBREAK_BENCH_ENGINE_WORKLOADS_H_
#define TIEBREAK_BENCH_ENGINE_WORKLOADS_H_

#include <functional>
#include <string>
#include <utility>

#include "lang/database.h"
#include "lang/program.h"
#include "util/random.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace benchutil {

/// One named engine workload: a stratified program plus its EDB.
struct EngineWorkload {
  std::string name;
  Program program;
  Database database;

  EngineWorkload(std::string name, Program program, Database database)
      : name(std::move(name)),
        program(std::move(program)),
        database(std::move(database)) {}
};

/// Lazy workload registration (see the file comment).
struct EngineWorkloadFactory {
  const char* name;
  std::function<EngineWorkload()> build;
};

inline EngineWorkload MakeReachRandom1M() {
  // A million-tuple EDB: 1M nodes, 4M random edges, streamed in through
  // Database::BulkLoad. Single-source reachability keeps the closure linear
  // (≈ one derived tuple per reachable node).
  Program program = ReachabilityProgram();
  Rng rng(2026);
  Database db = *LargeRandomDigraphDatabase(&program, "e", 1'000'000,
                                           4'000'000, &rng);
  const PredId start = program.LookupPredicate("start");
  const ConstId n0 = program.LookupConstant("n0");
  db.Insert(start, {n0});
  return EngineWorkload("reach_random_1m", std::move(program), std::move(db));
}

inline const EngineWorkloadFactory kEngineWorkloads[] = {
    {"tc_chain_512",
     [] {
       Program program = TransitiveClosureProgram();
       Database db = *ChainDatabase(&program, "e", 512);
       return EngineWorkload("tc_chain_512", std::move(program),
                             std::move(db));
     }},
    {"tc_cycle_256",
     [] {
       Program program = TransitiveClosureProgram();
       Database db = *CycleDatabase(&program, "e", 256);
       return EngineWorkload("tc_cycle_256", std::move(program),
                             std::move(db));
     }},
    {"tc_random_256",
     [] {
       Program program = TransitiveClosureProgram();
       Rng rng(42);
       Database db = *RandomDigraphDatabase(&program, "e", 256, 768, &rng);
       return EngineWorkload("tc_random_256", std::move(program),
                             std::move(db));
     }},
    {"tc_grid_24x24",
     [] {
       Program program = TransitiveClosureProgram();
       Database db = *GridDatabase(&program, "e", 24, 24);
       return EngineWorkload("tc_grid_24x24", std::move(program),
                             std::move(db));
     }},
    {"same_generation_d7",
     [] {
       Program program = SameGenerationProgram();
       Database db = *BalancedTreeDatabase(&program, 7);
       return EngineWorkload("same_generation_d7", std::move(program),
                             std::move(db));
     }},
    {"stratified_tower_32",
     [] {
       Program program = StratifiedTowerProgram(32);
       Database db = *UnarySetDatabase(&program, "e", 256);
       return EngineWorkload("stratified_tower_32", std::move(program),
                             std::move(db));
     }},
    // Million-tuple workloads: the closure (or the EDB) is in the millions,
    // so these measure the engine where the vectorized kernels, bulk loads
    // and bulk publishes actually matter.
    {"tc_chain_2048",
     [] {
       // 2048-node chain: closure = 2048·2047/2 ≈ 2.10M tuples.
       Program program = TransitiveClosureProgram();
       Database db = *ChainDatabase(&program, "e", 2048);
       return EngineWorkload("tc_chain_2048", std::move(program),
                             std::move(db));
     }},
    {"tc_grid_wide_512x4",
     [] {
       // Wide grid: closure ≈ (512·513/2)·(4·5/2) ≈ 1.31M tuples with heavy
       // duplicate-path pressure on the dedupe table.
       Program program = TransitiveClosureProgram();
       Database db = *WideGridDatabase(&program, "e", 512, 4);
       return EngineWorkload("tc_grid_wide_512x4", std::move(program),
                             std::move(db));
     }},
    {"reach_random_1m", MakeReachRandom1M},
};

}  // namespace benchutil
}  // namespace tiebreak

#endif  // TIEBREAK_BENCH_ENGINE_WORKLOADS_H_
