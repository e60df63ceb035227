// EXP-ENG — engine substrate throughput. Standalone harness (no
// google-benchmark) so it can emit machine-readable BENCH_engine.json next
// to human-readable rows: per-workload wall time, derived tuples, rule
// applications, and tuples/sec, plus the recorded baseline so the speedup
// trajectory is tracked in-repo. The recorded baselines are the PR 2
// engine (row-at-a-time kernels, serial EDB load, std::set-backed result
// materialization) measured on this container; docs/benchmarks.md keeps
// the PR 1 → PR 2 → PR 3 trajectory table.
//
// The engine evaluates on one thread, so every row records num_threads 1.
//
// Usage: bench_engine [output.json] [--workload NAME] [--reps N]
//                     [--json PATH]
//   --workload S   only run workloads whose name contains S (may repeat);
//                  skips writing JSON unless an output path was given
//   --reps N       repetitions per workload (best-of; default 3)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine_workloads.h"
#include "engine/evaluation.h"
#include "util/timer.h"

namespace tiebreak {
namespace {

// Recorded throughput baselines (tuples/sec); see the file comment.
constexpr benchutil::BaselineEntry kBaseline[] = {
    {"tc_chain_512", 5298595.0},      {"tc_cycle_256", 5656008.0},
    {"tc_random_256", 3556283.0},     {"tc_grid_24x24", 4108775.0},
    {"same_generation_d7", 5465575.0}, {"stratified_tower_32", 7702573.0},
    {"tc_chain_2048", 3273864.0},     {"tc_grid_wide_512x4", 2855781.0},
    {"reach_random_1m", 512574.0},
};

benchutil::Row Measure(const benchutil::EngineWorkload& workload, int reps) {
  benchutil::Row out;
  out.name = workload.name;
  const EngineOptions options;
  out.num_threads = 1;
  // Warm-up (and correctness sanity) run.
  {
    EngineStats stats;
    Result<Database> result = EvaluateStratified(workload.program,
                                                 workload.database, options,
                                                 &stats);
    TIEBREAK_CHECK(result.ok()) << result.status().ToString();
    out.items = stats.tuples_derived;
    out.applications = stats.rule_applications;
  }
  out.seconds = benchutil::BestOfReps(reps, [&]() -> double {
    WallTimer timer;
    EngineStats stats;
    Result<Database> result = EvaluateStratified(workload.program,
                                                 workload.database, options,
                                                 &stats);
    const double seconds = timer.Seconds();
    TIEBREAK_CHECK(result.ok());
    TIEBREAK_CHECK_EQ(stats.tuples_derived, out.items);
    return seconds;
  });
  out.items_per_sec =
      out.seconds > 0 ? static_cast<double>(out.items) / out.seconds : 0;
  return out;
}

int Main(int argc, char** argv) {
  std::string json_path;
  bool json_path_explicit = false;
  std::vector<std::string> name_filters;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      TIEBREAK_CHECK_LT(i + 1, argc) << arg << " needs a value";
      return argv[++i];
    };
    if (arg == "--workload") {
      name_filters.push_back(next_value());
    } else if (arg == "--reps") {
      reps = std::atoi(next_value());
    } else if (arg == "--json") {
      json_path = next_value();
      json_path_explicit = true;
    } else if (!arg.empty() && arg[0] != '-') {
      json_path = arg;
      json_path_explicit = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 1;
    }
  }
  TIEBREAK_CHECK_GE(reps, 1) << "--reps must be at least 1";
  if (json_path.empty()) json_path = "BENCH_engine.json";

  auto selected = [&](const char* name) {
    if (name_filters.empty()) return true;
    for (const std::string& filter : name_filters) {
      if (std::strstr(name, filter.c_str()) != nullptr) return true;
    }
    return false;
  };

  std::vector<benchutil::Row> results;
  for (const benchutil::EngineWorkloadFactory& factory :
       benchutil::kEngineWorkloads) {
    if (!selected(factory.name)) continue;
    const benchutil::EngineWorkload workload = factory.build();
    results.push_back(Measure(workload, reps));
  }
  if (results.empty()) {
    std::fprintf(stderr, "no workload matches the --workload filters\n");
    return 1;
  }

  benchutil::PrintTable(results, kBaseline, "tuples");
  // A filtered run is a profiling session; don't clobber the committed
  // suite-wide JSON unless the caller asked for a file explicitly.
  if (name_filters.empty() || json_path_explicit) {
    benchutil::WriteJson(json_path, results, kBaseline, "tuples_derived",
                         "tuples_per_sec");
  }
  return 0;
}

}  // namespace
}  // namespace tiebreak

int main(int argc, char** argv) { return tiebreak::Main(argc, argv); }
