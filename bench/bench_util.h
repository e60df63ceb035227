// Shared scaffolding for the standalone BENCH_<name>.json harnesses
// (bench_engine, bench_grounding, bench_interpreters): one result-row
// type, the recorded-baseline lookup, and the table/JSON emitters, so the
// three harnesses cannot drift apart schema-wise.
#ifndef TIEBREAK_BENCH_BENCH_UTIL_H_
#define TIEBREAK_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "util/function_view.h"
#include "util/logging.h"
#include "util/timer.h"

namespace tiebreak {
namespace benchutil {

/// Argument parsing for the harnesses whose only argument is the output
/// path: an argument that does not start with '-' names the JSON file, and
/// every flag is unknown. Returns false after naming the offending flag,
/// so `bench_sat --threads 4` exits 1 instead of writing a file named
/// "--threads".
inline bool ParseJsonPathOnly(int argc, char** argv, std::string* json_path) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-' || argv[i][0] == '\0') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return false;
    }
    *json_path = argv[i];
  }
  return true;
}

/// Best-of-`reps` measurement loop shared by the three harnesses (each
/// runs its workload once for warm-up/sanity before calling this). `run`
/// performs one repetition and returns its own measured wall seconds —
/// the callee owns the timer so it can exclude result destruction (and
/// any other teardown) from the timed region, exactly as the recorded
/// baselines were measured.
inline double BestOfReps(int reps, FunctionView<double()> run) {
  double best = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    const double seconds = run();
    if (seconds < best) best = seconds;
  }
  return best;
}

/// Recorded throughput baseline (items/sec) for one workload; 0 = none.
struct BaselineEntry {
  const char* name;
  double items_per_sec;
};

template <size_t N>
double BaselineFor(const BaselineEntry (&baselines)[N],
                   const std::string& name) {
  for (const BaselineEntry& entry : baselines) {
    if (name == entry.name) return entry.items_per_sec;
  }
  return 0.0;
}

/// One measured workload. `items` is whatever the harness counts (derived
/// tuples, ground-graph nodes); `applications` and `num_threads` are
/// emitted only when set (the engine harness uses them).
struct Row {
  std::string name;
  double seconds = 0;  // best-of-repetitions wall time
  int64_t items = 0;
  double items_per_sec = 0;
  int64_t applications = -1;  // emitted when >= 0
  int32_t num_threads = 0;    // emitted when > 0
};

inline std::string SpeedupLabel(double speedup) {
  return speedup > 0 ? std::to_string(speedup).substr(0, 5) + "x" : "n/a";
}

/// Prints the human-readable table. `items_label` names the items column.
template <size_t N>
void PrintTable(const std::vector<Row>& rows,
                const BaselineEntry (&baselines)[N],
                const char* items_label) {
  std::printf("%-30s %12s %14s %14s %8s %9s\n", "workload", "seconds",
              items_label, (std::string(items_label) + "/sec").c_str(),
              "threads", "speedup");
  for (const Row& r : rows) {
    const double baseline = BaselineFor(baselines, r.name);
    const double speedup = baseline > 0 ? r.items_per_sec / baseline : 0;
    std::printf("%-30s %12.6f %14lld %14.0f %8d %9s\n", r.name.c_str(),
                r.seconds, static_cast<long long>(r.items), r.items_per_sec,
                r.num_threads, SpeedupLabel(speedup).c_str());
  }
}

/// Writes the machine-readable BENCH_<name>.json. `items_key` names the
/// items field (e.g. "tuples_derived", "nodes") and `rate_key` the
/// items-per-second field; the baseline field is "baseline_" + rate_key.
template <size_t N>
void WriteJson(const std::string& path, const std::vector<Row>& rows,
               const BaselineEntry (&baselines)[N], const char* items_key,
               const char* rate_key) {
  FILE* json = std::fopen(path.c_str(), "w");
  TIEBREAK_CHECK(json != nullptr) << "cannot open " << path;
  std::fprintf(json, "{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double baseline = BaselineFor(baselines, r.name);
    const double speedup = baseline > 0 ? r.items_per_sec / baseline : 0;
    std::fprintf(json, "    {\"name\": \"%s\", \"seconds\": %.6f, ",
                 r.name.c_str(), r.seconds);
    std::fprintf(json, "\"%s\": %lld, ", items_key,
                 static_cast<long long>(r.items));
    if (r.applications >= 0) {
      std::fprintf(json, "\"rule_applications\": %lld, ",
                   static_cast<long long>(r.applications));
    }
    std::fprintf(json, "\"%s\": %.1f, ", rate_key, r.items_per_sec);
    if (r.num_threads > 0) {
      std::fprintf(json, "\"num_threads\": %d, ", r.num_threads);
    }
    std::fprintf(json, "\"baseline_%s\": %.1f, \"speedup\": %.3f}%s\n",
                 rate_key, baseline, speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace benchutil
}  // namespace tiebreak

#endif  // TIEBREAK_BENCH_BENCH_UTIL_H_
