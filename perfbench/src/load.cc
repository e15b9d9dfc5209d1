#include "load.h"

#include <sched.h>
#include <sys/prctl.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

namespace net = fkd::net;

namespace {

constexpr int64_t kNsPerSecond = 1'000'000'000;
constexpr int64_t kBacklogSampleNs = 10'000'000;
constexpr int64_t kDrainLimitNs = 30 * kNsPerSecond;
constexpr int64_t kSpinWaitNs = 5'000'000;
constexpr double kSpinMinGapNs = 1'000'000.0;

/// Blocks until every callback of a phase has run; the replies they write
/// live on the caller's stack, so returning early would leave them dangling.
void WaitForDrain(const std::atomic<int64_t>& outstanding,
                  const std::string& phase) {
  const int64_t limit = NowNs() + kDrainLimitNs;
  while (outstanding.load() > 0) {
    if (NowNs() > limit) {
      std::fprintf(stderr, "phase %s: %lld requests never resolved\n",
                   phase.c_str(), static_cast<long long>(outstanding.load()));
      std::_Exit(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

/// Waits for a send time. A sleeping thread lets its vCPU halt, and a
/// halted vCPU may take milliseconds to run again on a busy hypervisor, far
/// later than a schedule of one send per few ms allows. So at such low rates
/// the last kSpinWaitNs are spent spinning, yielding to any thread that can
/// run. At high rates the vCPUs stay busy and spinning would only take
/// cores from the server, so the generator sleeps.
void WaitUntilNs(int64_t due_ns, bool spin) {
  if (!spin) {
    SleepUntilNs(due_ns);
    return;
  }
  for (int64_t now = NowNs(); now < due_ns; now = NowNs()) {
    if (due_ns - now > kSpinWaitNs) {
      SleepUntilNs(due_ns - kSpinWaitNs);
    } else {
      sched_yield();
    }
  }
}

}  // namespace

LoadDriver::LoadDriver(int port, size_t connections, SpanRecorder* spans)
    : spans_(spans) {
  for (size_t i = 0; i < connections; ++i) {
    net::NetClientOptions options;
    options.port = port;
    clients_.push_back(std::make_unique<net::NetClient>(options));
  }
}

LoadDriver::~LoadDriver() {
  for (auto& client : clients_) client->Stop();
}

fkd::Status LoadDriver::Start() {
  for (auto& client : clients_) FKD_RETURN_NOT_OK(client->Start());
  return fkd::Status::OK();
}

void LoadDriver::Complete(Reply* reply, uint64_t parent_span,
                          const net::ClassifyRequestMsg* sampled,
                          fkd::Result<net::ClassifyResponseMsg> result) {
  reply->timing.done_ns = NowNs();
  if (!result.ok()) {
    reply->status_code = static_cast<uint8_t>(result.status().code());
  } else if (!result.value().ok) {
    reply->status_code = result.value().status_code;
  } else {
    const net::ClassifyResponseMsg& msg = result.value();
    reply->timing.ok = true;
    reply->model_version = msg.model_version;
    reply->queue_us = static_cast<float>(msg.queue_us);
    reply->batch_us = static_cast<float>(msg.batch_us);
    reply->compute_us = static_cast<float>(msg.compute_us);
    reply->batch_size = msg.batch_size;
    reply->from_cache = msg.from_cache;
    if (sampled != nullptr) {
      SampledReply keep;
      keep.request = *sampled;
      keep.class_id = msg.class_id;
      keep.probabilities = msg.probabilities;
      std::lock_guard<std::mutex> lock(sample_mutex_);
      samples_.push_back(std::move(keep));
    }
  }
  spans_->Record("net.request", reply->timing.sent_ns, reply->timing.done_ns,
                 parent_span, reply->index + 1);
}

PhaseResult LoadDriver::OpenLoop(const std::string& name, double qps,
                                 double warmup_s, double measure_s,
                                 const RequestFactory& make,
                                 const SamplePredicate& sample) {
  PhaseResult out;
  out.name = name;
  out.open_loop = true;
  out.target_qps = qps;
  out.connections = clients_.size();
  out.measured_s = measure_s;
  const size_t total =
      static_cast<size_t>(std::ceil(qps * (warmup_s + measure_s)));
  out.replies.resize(total);
  const double interval_ns = static_cast<double>(kNsPerSecond) / qps;
  const bool spin = interval_ns * static_cast<double>(clients_.size()) >=
                    kSpinMinGapNs;
  const int64_t start_ns = NowNs() + 5'000'000;
  const int64_t measure_from =
      start_ns + static_cast<int64_t>(warmup_s * kNsPerSecond);
  const int64_t measure_to =
      measure_from + static_cast<int64_t>(measure_s * kNsPerSecond);
  const uint64_t phase_span = spans_->enabled() ? spans_->NewId() : 0;
  const uint64_t retries_before = ClientStats().retries;

  std::atomic<int64_t> outstanding{0};
  std::atomic<size_t> generators_running{clients_.size()};
  std::vector<std::thread> generators;
  for (size_t g = 0; g < clients_.size(); ++g) {
    generators.emplace_back([&, g] {
      // Default timer slack (50 µs) would make every wake-up late.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      net::NetClient* client = clients_[g].get();
      for (size_t i = g; i < total; i += clients_.size()) {
        Reply& reply = out.replies[i];
        reply.index = i;
        reply.timing.due_ns =
            start_ns + std::llround(static_cast<double>(i) * interval_ns);
        reply.measured = reply.timing.due_ns >= measure_from &&
                         reply.timing.due_ns < measure_to;
        net::ClassifyRequestMsg msg = make(i);
        std::shared_ptr<const net::ClassifyRequestMsg> keep;
        if (sample(i)) {
          keep = std::make_shared<const net::ClassifyRequestMsg>(msg);
        }
        WaitUntilNs(reply.timing.due_ns, spin);
        outstanding.fetch_add(1);
        const int64_t submit_start = NowNs();
        reply.timing.sent_ns = submit_start;
        client->Submit(std::move(msg),
                       [this, &reply, &outstanding, phase_span,
                        keep](fkd::Result<net::ClassifyResponseMsg> result) {
                         Complete(&reply, phase_span, keep.get(),
                                  std::move(result));
                         outstanding.fetch_sub(1);
                       });
        spans_->Record("client.submit", submit_start, NowNs(), phase_span,
                       i + 1);
      }
      generators_running.fetch_sub(1);
    });
  }
  // Backlog samples over the measured window only.
  int64_t next_sample = measure_from;
  while (generators_running.load() > 0) {
    SleepUntilNs(std::min(next_sample, NowNs() + kBacklogSampleNs));
    const int64_t now = NowNs();
    if (now >= next_sample && now < measure_to) {
      out.backlog.push_back(static_cast<double>(outstanding.load()));
      next_sample += kBacklogSampleNs;
    } else if (now >= next_sample) {
      next_sample = now + kBacklogSampleNs;
    }
  }
  for (auto& thread : generators) thread.join();
  WaitForDrain(outstanding, name);
  spans_->Record("phase", start_ns, NowNs(), 0, 0, phase_span);

  out.outcomes = CountOutcomes(out.replies);
  out.achieved_qps = static_cast<double>(out.outcomes.ok) / measure_s;
  out.client_retries = ClientStats().retries - retries_before;
  std::vector<RequestTiming> measured;
  for (const Reply& reply : out.replies) {
    if (reply.measured) measured.push_back(reply.timing);
  }
  const std::vector<double> late = GeneratorLatenessUs(measured);
  out.late_p50_us = Percentile(late, 500);
  out.late_p99_us = Percentile(late, 990);
  out.generator_late = out.late_p99_us > kMaxGeneratorLateP99Us;
  // Slack: the requests one 10 ms sampling interval brings in.
  out.backlog_grows = BacklogGrows(out.backlog, qps * 0.01 + 8.0);
  return out;
}

PhaseResult LoadDriver::ClosedLoop(const std::string& name, size_t window,
                                   double warmup_s, double measure_s,
                                   const RequestFactory& make,
                                   const SamplePredicate& sample) {
  PhaseResult out;
  out.name = name;
  out.connections = clients_.size();
  out.window = window;
  out.measured_s = measure_s;
  const int64_t start_ns = NowNs();
  const int64_t measure_from =
      start_ns + static_cast<int64_t>(warmup_s * kNsPerSecond);
  const int64_t measure_to =
      measure_from + static_cast<int64_t>(measure_s * kNsPerSecond);
  const uint64_t phase_span = spans_->enabled() ? spans_->NewId() : 0;
  const uint64_t retries_before = ClientStats().retries;

  // Each client appends to its own list under its own lock; the chains of
  // callbacks run on that client's I/O thread.
  struct Lane {
    std::mutex mutex;
    std::vector<std::unique_ptr<Reply>> replies;
  };
  std::vector<Lane> lanes(clients_.size());
  std::atomic<uint64_t> next_index{0};
  std::atomic<int64_t> outstanding{0};
  std::atomic<bool> stop{false};

  std::function<void(size_t)> issue = [&](size_t lane) {
    const uint64_t index = next_index.fetch_add(1);
    auto owned = std::make_unique<Reply>();
    Reply* reply = owned.get();
    reply->index = index;
    net::ClassifyRequestMsg msg = make(index);
    std::shared_ptr<const net::ClassifyRequestMsg> keep;
    if (sample(index)) {
      keep = std::make_shared<const net::ClassifyRequestMsg>(msg);
    }
    {
      std::lock_guard<std::mutex> lock(lanes[lane].mutex);
      lanes[lane].replies.push_back(std::move(owned));
    }
    outstanding.fetch_add(1);
    reply->timing.sent_ns = NowNs();
    reply->timing.due_ns = reply->timing.sent_ns;
    reply->measured = reply->timing.sent_ns >= measure_from &&
                      reply->timing.sent_ns < measure_to;
    clients_[lane]->Submit(
        std::move(msg), [&, reply, lane, keep](
                            fkd::Result<net::ClassifyResponseMsg> result) {
          Complete(reply, phase_span, keep.get(), std::move(result));
          if (!stop.load()) issue(lane);
          outstanding.fetch_sub(1);
        });
  };
  for (size_t w = 0; w < window; ++w) {
    for (size_t lane = 0; lane < clients_.size(); ++lane) issue(lane);
  }
  SleepUntilNs(measure_to);
  stop.store(true);
  WaitForDrain(outstanding, name);
  spans_->Record("phase", start_ns, NowNs(), 0, 0, phase_span);

  for (Lane& lane : lanes) {
    for (auto& reply : lane.replies) out.replies.push_back(*reply);
  }
  // A closed-loop request counts when it was sent and answered inside the
  // measured window.
  for (Reply& reply : out.replies) {
    reply.measured = reply.measured && reply.timing.done_ns < measure_to;
  }
  out.outcomes = CountOutcomes(out.replies);
  out.achieved_qps = static_cast<double>(out.outcomes.ok) / measure_s;
  out.client_retries = ClientStats().retries - retries_before;
  return out;
}

net::NetClientStats LoadDriver::ClientStats() const {
  net::NetClientStats sum;
  for (const auto& client : clients_) {
    const net::NetClientStats s = client->Stats();
    sum.submitted += s.submitted;
    sum.ok += s.ok;
    sum.shed += s.shed;
    sum.deadline_exceeded += s.deadline_exceeded;
    sum.transport_errors += s.transport_errors;
    sum.other_errors += s.other_errors;
    sum.retries += s.retries;
    sum.hedges += s.hedges;
    sum.hedge_wins += s.hedge_wins;
    sum.reconnects += s.reconnects;
    sum.timeouts += s.timeouts;
  }
  return sum;
}

std::vector<SampledReply> LoadDriver::TakeSamples() {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  return std::move(samples_);
}

Outcomes CountOutcomes(const std::vector<Reply>& replies) {
  Outcomes out;
  for (const Reply& reply : replies) {
    if (!reply.measured) continue;
    ++out.attempted;
    if (reply.timing.ok) {
      ++out.ok;
      continue;
    }
    switch (static_cast<fkd::StatusCode>(reply.status_code)) {
      case fkd::StatusCode::kUnavailable:
        ++out.shed;
        break;
      case fkd::StatusCode::kDeadlineExceeded:
        ++out.deadline_exceeded;
        break;
      case fkd::StatusCode::kIoError:
        ++out.transport_failed;
        break;
      default:
        ++out.other_failed;
        break;
    }
  }
  return out;
}

std::vector<double> MeasuredLatenciesMs(const std::vector<Reply>& replies) {
  std::vector<RequestTiming> measured;
  for (const Reply& reply : replies) {
    if (reply.measured) measured.push_back(reply.timing);
  }
  return DueTimeLatenciesMs(measured);
}

}  // namespace perfbench
