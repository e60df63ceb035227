// EXP-QRY — demand-driven query serving: queries/sec answered by the
// magic-set pipeline (QueryMode::kDemand) vs full grounding
// (QueryMode::kFullGround) on million-node instances. Every workload
// CHECKs, before timing, that both modes return identical true and
// undefined binding sets on every pattern it serves — a fast wrong answer
// would be worthless.
//
// Workload geometry matters and the rows are deliberately honest about it:
// bound point queries near the tail of a 1M-node win/move chain have a
// cone of a few atoms (demand wins by orders of magnitude, the headline
// rows), a mid-chain point drags in half the universe, and a free pattern
// demands the whole thing — demand then pays the magic machinery on top of
// the same grounding work and lands at or below parity. The Theorem 6
// transfer machine at t = 64 (~3.2M ground-graph nodes under full
// grounding) shows the same effect on a multi-predicate recursive program:
// state(3, S) touches a handful of time steps.
//
// Standalone harness in the BENCH_engine.json style (shared scaffolding in
// bench_util.h): emits BENCH_query.json with per-row wall time, queries
// served, queries/sec, and the recorded full-grounding baseline of the
// same workload, so the speedup column reads as demand-vs-full directly.
//
// Every workload and mode is measured at 1 thread and at --threads N; the
// two rows share a name and differ in num_threads, as in
// BENCH_grounding.json.
//
// Usage: bench_query [output.json] [--threads N] [--reps N]
//   --threads N   QueryOptions::num_threads of the second row of each
//                 workload and mode, i.e. the grounding threads (the
//                 engine and the interpreter run serially); default 4,
//                 0 = hardware concurrency, 1 = serial rows only
//   --reps N      repetitions per row (best-of; default 2)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/query_plan.h"
#include "lang/database.h"
#include "lang/program.h"
#include "reductions/cm_reduction.h"
#include "reductions/counter_machine.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/databases.h"
#include "workload/programs.h"

namespace tiebreak {
namespace {

// Measured full-grounding queries/sec of each workload on this container
// (serial, reps=2), recorded when the demand path landed — for a demand
// row the speedup column is therefore demand-vs-full on the same queries;
// full rows hover near 1.0x. 0 = no baseline recorded.
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"query_demand_winchain_1m_tail", 1.121},
    {"query_full_winchain_1m_tail", 1.121},
    {"query_demand_winchain_1m_mid", 1.130},
    {"query_full_winchain_1m_mid", 1.130},
    {"query_demand_winchain_1m_free", 1.267},
    {"query_full_winchain_1m_free", 1.267},
    {"query_demand_sg_tree_1m", 0.523},
    {"query_full_sg_tree_1m", 0.523},
    {"query_demand_transfer_t64", 1.984},
    {"query_full_transfer_t64", 1.984},
};

std::vector<std::string> SortedNames(const Program& program,
                                     const std::vector<Tuple>& bindings) {
  std::vector<std::string> names;
  names.reserve(bindings.size());
  for (const Tuple& binding : bindings) {
    std::string row;
    for (size_t i = 0; i < binding.size(); ++i) {
      if (i > 0) row += ",";
      row += program.constant_name(binding[i]);
    }
    names.push_back(std::move(row));
  }
  std::sort(names.begin(), names.end());
  return names;
}

// CHECKs that kDemand and kFullGround agree on every pattern — the answer
// contract behind every row of this benchmark.
void CheckAgreement(QueryPlanner* planner, const Program& program,
                    const std::vector<std::string>& patterns,
                    int32_t num_threads) {
  for (const std::string& pattern : patterns) {
    QueryOptions demand_options;
    demand_options.num_threads = num_threads;
    Result<QueryResult> demand = planner->Execute(pattern, demand_options);
    TIEBREAK_CHECK(demand.ok())
        << pattern << ": " << demand.status().ToString();
    TIEBREAK_CHECK(demand->truncation.ok()) << pattern;
    QueryOptions full_options;
    full_options.mode = QueryMode::kFullGround;
    full_options.num_threads = num_threads;
    Result<QueryResult> full = planner->Execute(pattern, full_options);
    TIEBREAK_CHECK(full.ok()) << pattern << ": " << full.status().ToString();
    TIEBREAK_CHECK(full->truncation.ok()) << pattern;
    TIEBREAK_CHECK(SortedNames(program, demand->true_bindings) ==
                   SortedNames(program, full->true_bindings))
        << pattern << ": true bindings diverge between modes";
    TIEBREAK_CHECK(SortedNames(program, demand->undefined_bindings) ==
                   SortedNames(program, full->undefined_bindings))
        << pattern << ": undefined bindings diverge between modes";
  }
}

// One row: serve every pattern once per repetition in `mode`, best-of-reps
// wall time, items = queries served per repetition. The agreement pass
// above has already warmed the planner's plan cache, so rows measure the
// steady serving loop, not the one-time transform.
benchutil::Row MeasureQueries(const std::string& name, QueryPlanner* planner,
                              const std::vector<std::string>& patterns,
                              QueryMode mode, int reps, int32_t num_threads) {
  benchutil::Row out;
  out.name = name;
  out.num_threads = ThreadPool::EffectiveThreads(num_threads);
  out.items = static_cast<int64_t>(patterns.size());
  QueryOptions options;
  options.mode = mode;
  options.num_threads = num_threads;
  out.seconds = benchutil::BestOfReps(reps, [&]() -> double {
    WallTimer timer;
    for (const std::string& pattern : patterns) {
      Result<QueryResult> result = planner->Execute(pattern, options);
      const bool ok = result.ok() && result->truncation.ok();
      TIEBREAK_CHECK(ok) << pattern << ": " << result.status().ToString();
    }
    return timer.Seconds();
  });
  out.items_per_sec =
      out.seconds > 0 ? static_cast<double>(out.items) / out.seconds : 0;
  return out;
}

// Appends the demand and full rows of one (planner, pattern set)
// workload, each at 1 thread and, when `num_threads` resolves to more than
// one thread, at `num_threads`.
void MeasurePair(std::vector<benchutil::Row>* results,
                 const std::string& workload, QueryPlanner* planner,
                 const Program& program,
                 const std::vector<std::string>& patterns, int reps,
                 int32_t num_threads) {
  std::vector<int32_t> thread_counts = {1};
  if (ThreadPool::EffectiveThreads(num_threads) > 1) {
    thread_counts.push_back(num_threads);
  }
  for (const int32_t threads : thread_counts) {
    CheckAgreement(planner, program, patterns, threads);
  }
  for (const auto& [prefix, mode] :
       {std::pair{"query_demand_", QueryMode::kDemand},
        std::pair{"query_full_", QueryMode::kFullGround}}) {
    for (const int32_t threads : thread_counts) {
      results->push_back(MeasureQueries(prefix + workload, planner, patterns,
                                        mode, reps, threads));
    }
  }
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_query.json";
  int reps = 2;
  int32_t num_threads = 4;  // the second row; see the usage comment
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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

  // win/move over the 1M-node chain n0 -> ... -> n999999: the full ground
  // graph has ~2M nodes (one win atom and one rule instance per edge); the
  // cone of win(nK) is the suffix from nK on.
  {
    Program program = WinMoveProgram();
    Result<Database> database =
        ChainDatabase(&program, "move", 1'000'000);
    TIEBREAK_CHECK(database.ok()) << database.status().ToString();
    QueryPlanner planner(program, *database);
    MeasurePair(&results, "winchain_1m_tail", &planner, program,
                {"win(n999900)", "win(n999925)", "win(n999950)",
                 "win(n999975)"},
                reps, num_threads);
    MeasurePair(&results, "winchain_1m_mid", &planner, program,
                {"win(n500000)"}, reps, num_threads);
    MeasurePair(&results, "winchain_1m_free", &planner, program, {"win(X)"},
                reps, num_threads);
  }

  // Same generation on a depth-10 balanced tree: ~2k EDB facts explode
  // into a ~2.8M-node full ground graph (every ordered same-level pair is
  // same-generation), while sg(leaf, Y) demands only the leaf's ancestor
  // chain — the canonical magic-sets geometry: tiny EDB, huge closure.
  {
    Program program = SameGenerationProgram();
    Result<Database> database = BalancedTreeDatabase(&program, 10);
    TIEBREAK_CHECK(database.ok()) << database.status().ToString();
    QueryPlanner planner(program, *database);
    MeasurePair(&results, "sg_tree_1m", &planner, program,
                {"sg(n2000, Y)", "sg(n1500, Y)"}, reps, num_threads);
  }

  // Theorem 6 transfer machine at t = 64: ~3.2M ground-graph nodes under
  // full grounding; state(3, S) demands a handful of time steps.
  {
    const CounterMachine machine = MakeTransferMachine(3);
    CmReduction reduction = CounterMachineToProgram(machine);
    Result<Database> database = NaturalDatabase(&reduction, 64);
    TIEBREAK_CHECK(database.ok()) << database.status().ToString();
    QueryPlanner planner(reduction.program, *database);
    MeasurePair(&results, "transfer_t64", &planner, reduction.program,
                {"state(3, S)", "state(7, S)"}, reps, num_threads);
  }

  benchutil::PrintTable(results, kBaseline, "queries");
  benchutil::WriteJson(json_path, results, kBaseline, "queries",
                       "queries_per_sec");
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
