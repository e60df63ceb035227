// In-memory spans recorded around each public library call the benchmark
// makes, written out once when the run ends. A span records its name, the
// id shared by every span of one repetition, request or board, its parent
// span, its start and end, and the counts read at that boundary (steps and
// bytes from a fresh ExecutionContext, model sizes, solver counters).
#ifndef TIEBREAK_PERFBENCH_TRACE_H_
#define TIEBREAK_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call.
double Now();

/// CPU seconds (user + system, all threads) the process has used.
double CpuSeconds();

/// Peak resident set of the process, in MB.
double PeakRssMb();

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int32_t parent = -1;  // index into spans(), -1 for a root
    double start = 0;
    double end = 0;
    std::vector<std::pair<std::string, double>> counts;
  };

  /// Opens a span and returns its index.
  int32_t Begin(const std::string& name, int64_t id, int32_t parent = -1);
  /// Closes span `index` at the current time.
  void End(int32_t index) { spans_[index].end = Now(); }
  /// Attaches a count to span `index`.
  void Count(int32_t index, const std::string& key, double value) {
    spans_[index].counts.emplace_back(key, value);
  }

  double Duration(int32_t index) const {
    return spans_[index].end - spans_[index].start;
  }
  /// The span's duration minus the part of it its child spans cover.
  double SelfSeconds(int32_t index) const;

  /// Self seconds of every span named `name`, in recording order.
  std::vector<double> SelfTimes(const std::string& name) const;
  /// Self seconds of the spans named `name`, summed per span id, in order
  /// of each id's first span.
  std::vector<double> SelfTimesPerId(const std::string& name) const;
  /// Values of count `key` on every span named `name`, in recording order.
  std::vector<double> Counts(const std::string& name,
                             const std::string& key) const;

  /// Writes every span as one JSON document; false if the file cannot be
  /// written.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int32_t>> children_;
};

/// Median of `values` (0 for none).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // TIEBREAK_PERFBENCH_TRACE_H_
