// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each layer's public functions, kept
// in memory, and written out once when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 = root
  uint64_t request_id = 0;  ///< 0 = not tied to one request
  const char* name = "";    ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Reserves an id so children can name a parent before it has ended.
  uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records a finished span; returns its id (0 when tracing is off).
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent = 0, uint64_t request_id = 0,
                  uint64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = NewId();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, request_id, name, start_ns, end_ns});
    return id;
  }

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Self times (ms) of every span called `name`.
  std::vector<double> SelfTimesMs(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events; args carry id/parent/request).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
