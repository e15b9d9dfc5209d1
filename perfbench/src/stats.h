// Pure measurement arithmetic of the benchmark: percentiles with the
// sample-count rule, open-loop latency measured from the due time, and
// span self time. Header-only so the unit tests exercise exactly the code
// the benchmark runs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

constexpr double kMissing = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of the `permille` percentile in a sample of `n`:
/// the smallest k with k >= n * permille / 1000.
inline size_t NearestRank(size_t n, int permille) {
  const size_t scaled = n * static_cast<size_t>(permille);
  const size_t k = (scaled + 999) / 1000;
  return std::max<size_t>(k, 1);
}

/// Samples strictly above the nearest-rank position of a percentile.
inline size_t SamplesBeyond(size_t n, int permille) {
  return n == 0 ? 0 : n - NearestRank(n, permille);
}

/// A percentile may be reported only when at least ten samples lie beyond
/// it; otherwise it is the maximum in disguise.
inline bool PercentileSupported(size_t n, int permille) {
  return SamplesBeyond(n, permille) >= 10;
}

/// Highest of p99.9 / p99 / p90 / p50 the sample supports, 0 if none.
inline int HighestSupportedPercentile(size_t n) {
  for (int permille : {999, 990, 900, 500}) {
    if (PercentileSupported(n, permille)) return permille;
  }
  return 0;
}

/// Nearest-rank percentile of an ascending sample (NaN when empty).
inline double PercentileSorted(const std::vector<double>& sorted,
                               int permille) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  return sorted[NearestRank(sorted.size(), permille) - 1];
}

inline double Percentile(std::vector<double> values, int permille) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, permille);
}

/// Median with the even-count midpoint (NaN when empty).
inline double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One open-loop request, all times on one monotonic clock (ns).
struct RequestTiming {
  int64_t due_ns = 0;   ///< when the schedule said to send it
  int64_t sent_ns = 0;  ///< when the generator actually sent it
  int64_t done_ns = 0;  ///< when the response (or failure) arrived
  bool ok = false;      ///< response carried a classification
};

/// Latency of each request measured from its due time, in ms. A failed,
/// shed or unanswered request is kMissing, so it counts against every
/// latency limit. Measuring from the due time keeps a generator stall in
/// the numbers: the requests queued behind the stall are late by the stall
/// even when the server answers them instantly (no coordinated omission).
inline std::vector<double> DueTimeLatenciesMs(
    const std::vector<RequestTiming>& requests) {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    out.push_back(r.ok && r.done_ns >= r.due_ns
                      ? static_cast<double>(r.done_ns - r.due_ns) * 1e-6
                      : kMissing);
  }
  return out;
}

/// How late the generator sent each request, in µs (never negative).
inline std::vector<double> GeneratorLatenessUs(
    const std::vector<RequestTiming>& requests) {
  std::vector<double> out;
  out.reserve(requests.size());
  for (const RequestTiming& r : requests) {
    out.push_back(static_cast<double>(std::max<int64_t>(r.sent_ns - r.due_ns,
                                                        0)) *
                  1e-3);
  }
  return out;
}

/// Requests sent but not yet answered, sampled over a phase. The backlog
/// grows when the mean of the last quarter of the samples exceeds twice the
/// mean of the first quarter plus `slack`: a rate the stack cannot sustain.
inline bool BacklogGrows(const std::vector<double>& outstanding,
                         double slack) {
  if (outstanding.size() < 4) return false;
  const size_t quarter = outstanding.size() / 4;
  const std::vector<double> head(outstanding.begin(),
                                 outstanding.begin() + quarter);
  const std::vector<double> tail(outstanding.end() - quarter,
                                 outstanding.end());
  return Mean(tail) > 2.0 * Mean(head) + slack;
}

/// One recorded span. Times are ns on the monotonic clock; parent 0 = root.
struct SpanTime {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (clipped to the parent), so
/// overlapping or concurrent children are not subtracted twice.
inline std::unordered_map<uint64_t, int64_t> SelfTimesNs(
    const std::vector<SpanTime>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanTime& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::unordered_map<uint64_t, int64_t> self;
  for (const SpanTime& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = s.start_ns;
      for (const auto& [begin, end] : intervals) {
        const int64_t from = std::max(begin, cursor);
        const int64_t to = std::min(end, s.end_ns);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
