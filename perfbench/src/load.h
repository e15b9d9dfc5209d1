// Load generation over FKDN/1 through net::NetClient, owned by the
// benchmark. The open loop times every request from its scheduled due time
// (net/loadgen.cc stamps the actual send instead, which hides generator
// stalls), reports how late the generator ran, and samples the backlog.
#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/wire.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

/// One answered (or failed) request as the generator saw it.
struct Reply {
  RequestTiming timing;
  uint64_t index = 0;  ///< position in the phase's request sequence
  uint64_t model_version = 0;
  float queue_us = 0.0f;
  float batch_us = 0.0f;
  float compute_us = 0.0f;
  uint32_t batch_size = 0;
  uint8_t status_code = 0;  ///< fkd::StatusCode; 0 = ok
  bool from_cache = false;
  bool measured = false;  ///< inside the measured window (not warm-up)
};

/// A response kept whole for the bitwise correctness check.
struct SampledReply {
  fkd::net::ClassifyRequestMsg request;
  int32_t class_id = -1;
  std::vector<float> probabilities;
};

/// Counts of one phase's measured requests by outcome.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t transport_failed = 0;
  uint64_t other_failed = 0;

  uint64_t failed() const {
    return shed + deadline_exceeded + transport_failed + other_failed;
  }
};

struct PhaseResult {
  std::string name;
  bool open_loop = false;
  double target_qps = 0.0;     ///< open loop only
  size_t connections = 0;
  size_t window = 0;           ///< closed loop only
  double measured_s = 0.0;
  std::vector<Reply> replies;  ///< every request, warm-up included
  Outcomes outcomes;           ///< measured window only
  double achieved_qps = 0.0;   ///< ok responses per measured second
  uint64_t client_retries = 0;  ///< NetClient resubmissions in the phase
  // Open loop only.
  std::vector<double> backlog;  ///< outstanding requests, sampled
  double late_p50_us = 0.0;
  double late_p99_us = 0.0;
  bool generator_late = false;  ///< lateness p99 over the validity limit
  bool backlog_grows = false;

  bool valid() const { return !generator_late && !backlog_grows; }
};

/// Builds request `index` of a phase (called on the generating thread).
using RequestFactory = std::function<fkd::net::ClassifyRequestMsg(uint64_t)>;

/// Decides which request indexes are kept whole for the correctness check.
using SamplePredicate = std::function<bool(uint64_t)>;

/// Generator lateness p99 above this marks an open-loop phase invalid:
/// the numbers would then describe the generator, not the server.
constexpr double kMaxGeneratorLateP99Us = 2000.0;

class LoadDriver {
 public:
  /// Opens `connections` NetClients (one I/O thread and one connection
  /// each) with default options against 127.0.0.1:`port`.
  LoadDriver(int port, size_t connections, SpanRecorder* spans);
  ~LoadDriver();

  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  fkd::Status Start();

  /// Open loop at `qps` for `warmup_s` + `measure_s`. The schedule is split
  /// round-robin over one generator thread per client.
  PhaseResult OpenLoop(const std::string& name, double qps, double warmup_s,
                       double measure_s, const RequestFactory& make,
                       const SamplePredicate& sample);

  /// Closed loop: every client keeps `window` requests outstanding.
  PhaseResult ClosedLoop(const std::string& name, size_t window,
                         double warmup_s, double measure_s,
                         const RequestFactory& make,
                         const SamplePredicate& sample);

  /// Whole-run client mechanics, summed over the clients.
  fkd::net::NetClientStats ClientStats() const;

  std::vector<SampledReply> TakeSamples();

 private:
  void Complete(Reply* reply, uint64_t parent_span,
                const fkd::net::ClassifyRequestMsg* sampled,
                fkd::Result<fkd::net::ClassifyResponseMsg> result);

  SpanRecorder* spans_;
  std::vector<std::unique_ptr<fkd::net::NetClient>> clients_;
  std::mutex sample_mutex_;
  std::vector<SampledReply> samples_;
};

/// Tallies the measured replies of a phase by outcome.
Outcomes CountOutcomes(const std::vector<Reply>& replies);

/// Due-time latencies (ms) of the measured replies.
std::vector<double> MeasuredLatenciesMs(const std::vector<Reply>& replies);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
