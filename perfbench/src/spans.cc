#include "spans.h"

#include <cstdio>

namespace perfbench {

std::vector<double> SpanRecorder::SelfTimesMs(const std::string& name) const {
  const std::vector<Span> spans = Spans();
  std::vector<SpanTime> times;
  times.reserve(spans.size());
  for (const Span& s : spans) {
    times.push_back({s.id, s.parent, s.start_ns, s.end_ns});
  }
  const auto self = SelfTimesNs(times);
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(self.at(s.id)) * 1e-6);
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request_id\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
