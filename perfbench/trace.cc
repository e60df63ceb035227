#include "trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int32_t Tracer::Begin(const std::string& name, int64_t id, int32_t parent) {
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, id, parent, Now(), 0, {}});
  children_.emplace_back();
  if (parent >= 0) children_[parent].push_back(index);
  return index;
}

double Tracer::SelfSeconds(int32_t index) const {
  std::vector<std::pair<double, double>> covered;
  for (int32_t child : children_[index]) {
    covered.emplace_back(spans_[child].start, spans_[child].end);
  }
  std::sort(covered.begin(), covered.end());
  double busy = 0;
  double reach = spans_[index].start;
  for (const auto& [start, end] : covered) {
    const double from = std::max(start, reach);
    const double to = std::min(end, spans_[index].end);
    if (to > from) busy += to - from;
    reach = std::max(reach, to);
  }
  return Duration(index) - busy;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::vector<double> times;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      times.push_back(SelfSeconds(static_cast<int32_t>(i)));
    }
  }
  return times;
}

std::vector<double> Tracer::SelfTimesPerId(const std::string& name) const {
  std::vector<double> times;
  std::vector<int64_t> ids;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    if (ids.empty() || ids.back() != spans_[i].id) {
      ids.push_back(spans_[i].id);
      times.push_back(0);
    }
    times.back() += SelfSeconds(static_cast<int32_t>(i));
  }
  return times;
}

std::vector<double> Tracer::Counts(const std::string& name,
                                   const std::string& key) const {
  std::vector<double> values;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    for (const auto& [k, v] : span.counts) {
      if (k == key) values.push_back(v);
    }
  }
  return values;
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"id\": %lld, \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f",
                 s.name.c_str(), static_cast<long long>(s.id), s.parent,
                 s.start, s.end, SelfSeconds(static_cast<int32_t>(i)));
    for (const auto& [key, value] : s.counts) {
      std::fprintf(out, ", \"%s\": %.17g", key.c_str(), value);
    }
    std::fprintf(out, "}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) /
         2;
}

}  // namespace perfbench
