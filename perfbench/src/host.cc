#include "host.h"

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_hardware.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr uint64_t kSpinChunk = 200'000;  // ~0.5 ms of work
constexpr double kSpinRampS = 1.3;
constexpr double kSpinWindowS = 0.25;

uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Spin chunks per second completed by `threads` threads over a window
/// that starts `ramp_s` after they start.
double SpinRate(unsigned threads, double ramp_s) {
  std::atomic<bool> stop{false};
  std::vector<std::atomic<uint64_t>> chunks(threads);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&stop, &chunks, t] {
      volatile uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink = sink + Spin(kSpinChunk);
        chunks[t].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto total = [&chunks] {
    uint64_t sum = 0;
    for (const auto& c : chunks) sum += c.load(std::memory_order_relaxed);
    return sum;
  };
  std::this_thread::sleep_for(std::chrono::duration<double>(ramp_s));
  const uint64_t before = total();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(kSpinWindowS));
  const uint64_t after = total();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  stop.store(true);
  for (auto& worker : workers) worker.join();
  return static_cast<double>(after - before) / seconds;
}

}  // namespace

unsigned AffinityCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double SpinScaling(unsigned threads) {
  const double one = SpinRate(1, 0.05);
  const double all = SpinRate(threads, kSpinRampS);
  return one > 0.0 ? all / one : 0.0;
}

bool Contended(double scaling, unsigned threads) {
  return scaling < 0.75 * static_cast<double>(threads);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string HostJsonFields() {
  return "\"nproc\":" + std::to_string(AffinityCpuCount()) + "," +
         fkd::bench::HardwareContextJsonFields() + ",\"build_type\":\"" +
         PERFBENCH_BUILD_TYPE + "\"";
}

}  // namespace perfbench
