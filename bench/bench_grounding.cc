// EXP-GRD — grounder throughput: Ground on win/move boards and chains,
// random unary programs, and the Theorem 6 machine programs, whose [S=s]
// chains make the paper-faithful |U|^k grounding (kept as a test
// reference; equivalence is tested in ground_test.cc) hopeless.
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding in
// bench_util.h): emits BENCH_grounding.json with per-workload wall time,
// ground-graph nodes (atoms + ground rules), nodes/sec, the thread count,
// and the recorded serial baseline so every PR can show its perf delta.
// Every reduced workload is recorded twice in one run, at 1 thread and at
// --threads N; the two rows share a name and differ in num_threads, so the
// 4-core curve of grounding is a rerunnable row.
//
// Usage: bench_grounding [output.json] [--threads N] [--reps N]
//   --threads N   GroundingOptions::num_threads of the second row of each
//                 reduced workload (0 = hardware concurrency; default 4;
//                 a value that resolves to 1 thread records one row)
//   --reps N      repetitions per workload (best-of; default 3)
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ground/grounder.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Recorded serial nodes/sec of the PR 4 grounder (engine-backed bindings,
// CSR graph, but row-at-a-time interning and a copied engine EDB),
// re-measured on this container at the PR that introduced the zero-copy /
// batch-interning / parallel grounding path (PR 5), so the speedup column
// reports that PR's delta; 0 = no baseline recorded.
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"ground_reduced_winmove_4096", 6436400.0},
    {"ground_theorem6_transfer_t16", 6561070.0},
    {"ground_random_unary_64", 8525887.0},
    {"ground_theorem6_transfer_t64", 5638368.0},
    {"ground_winmove_65536", 5148112.0},
};

benchutil::Row MeasureAt(const std::string& name, const Program& program,
                         const Database& database, GroundingOptions options,
                         int reps, int32_t num_threads) {
  options.num_threads = num_threads;
  benchutil::Row out;
  out.name = name;
  out.num_threads = ThreadPool::EffectiveThreads(num_threads);
  {
    Result<GroundingResult> g = Ground(program, database, options);
    TIEBREAK_CHECK(g.ok()) << g.status().ToString();
    out.items = static_cast<int64_t>(g->graph.num_atoms()) +
                g->graph.num_rules();
  }
  out.seconds = benchutil::BestOfReps(reps, [&]() -> double {
    WallTimer timer;
    Result<GroundingResult> g = Ground(program, database, options);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(g.ok());
    return seconds;
  });
  out.items_per_sec =
      out.seconds > 0 ? static_cast<double>(out.items) / out.seconds : 0;
  return out;
}

// Appends the serial row of a workload and, when `num_threads` resolves
// to more than one thread, its parallel row.
void Measure(const std::string& name, const Program& program,
             const Database& database, const GroundingOptions& options,
             int reps, int32_t num_threads, std::vector<benchutil::Row>* out) {
  out->push_back(MeasureAt(name, program, database, options, reps, 1));
  if (ThreadPool::EffectiveThreads(num_threads) > 1) {
    out->push_back(
        MeasureAt(name, program, database, options, reps, num_threads));
  }
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_grounding.json";
  int reps = 3;
  int32_t num_threads = 4;  // the parallel row; see the usage comment
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Strict integer parse: a typo like "--threads 4x" must not silently
    // become 0 (= all cores) and pollute the recorded serial numbers.
    auto next_int = [&]() -> long {
      TIEBREAK_CHECK_LT(i + 1, argc) << arg << " needs a value";
      char* end = nullptr;
      const long value = std::strtol(argv[++i], &end, 10);
      TIEBREAK_CHECK(end != argv[i] && *end == '\0')
          << arg << " needs an integer, got " << argv[i];
      return value;
    };
    if (arg == "--threads") {
      num_threads = static_cast<int32_t>(next_int());
      TIEBREAK_CHECK_GE(num_threads, 0)
          << "--threads must be >= 0 (0 = hardware concurrency)";
    } else if (arg == "--reps") {
      reps = static_cast<int>(next_int());
    } else if (!arg.empty() && arg[0] != '-') {
      json_path = arg;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  TIEBREAK_CHECK_GE(reps, 1) << "--reps must be at least 1";

  std::vector<benchutil::Row> results;
  {
    Program program = WinMoveProgram();
    Rng rng(1);
    Database db = *RandomDigraphDatabase(&program, "move", 4096, 8192, &rng);
    Measure("ground_reduced_winmove_4096", program, db, {}, reps,
            num_threads, &results);
  }
  {
    const CounterMachine machine = MakeTransferMachine(3);
    CmReduction reduction = CounterMachineToProgram(machine);
    const Database db = NaturalDatabase(&reduction, 16).value();
    Measure("ground_theorem6_transfer_t16", reduction.program, db, {}, reps,
            num_threads, &results);
  }
  {
    Rng rng(9);
    RandomProgramOptions options;
    options.arity = 1;
    options.num_rules = 10;
    Program program = RandomProgram(&rng, options);
    Database db = *RandomEdbDatabase(&program, 64, 0.4, &rng);
    Measure("ground_random_unary_64", program, db, {}, reps, num_threads,
            &results);
  }
  // Million-node workloads: the Theorem 6 machine simulation over 64
  // naturals (~3.2M ground-graph nodes; long succ-chain generator lists
  // exercise the engine's join planner), win-move over a bulk-loaded
  // 65536-node / 262144-edge random digraph (~330k nodes; single-generator
  // rules, so throughput is bounded by interning + CSR emission), and
  // win-move over a 1M-move chain (~2M nodes; every position is one
  // binding row's head and another's body atom, so each emission shard
  // interns about as many atoms as the merge then re-interns).
  {
    const CounterMachine machine = MakeTransferMachine(3);
    CmReduction reduction = CounterMachineToProgram(machine);
    const Database db = NaturalDatabase(&reduction, 64).value();
    GroundingOptions options;
    options.max_instances = 50'000'000;
    Measure("ground_theorem6_transfer_t64", reduction.program, db, options,
            reps, num_threads, &results);
  }
  {
    Program program = WinMoveProgram();
    Rng rng(21);
    Database db =
        *LargeRandomDigraphDatabase(&program, "move", 65536, 262144, &rng);
    GroundingOptions options;
    options.max_instances = 50'000'000;
    Measure("ground_winmove_65536", program, db, options, reps, num_threads,
            &results);
  }
  {
    Program program = WinMoveProgram();
    const Database db = *ChainDatabase(&program, "move", 1'000'000);
    Measure("ground_winmove_chain_1m", program, db, {}, reps, num_threads,
            &results);
  }

  benchutil::PrintTable(results, kBaseline, "nodes");
  benchutil::WriteJson(json_path, results, kBaseline, "nodes",
                       "nodes_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
