#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

Spans::Scope::Scope(Spans& s, const char* name) : s_(s) {
  Span sp;
  sp.name = name;
  sp.start_ns = s_.now_ns();
  sp.parent = s_.open_.empty() ? -1 : s_.open_.back();
  sp.job = s_.job_;
  idx_ = static_cast<int32_t>(s_.spans_.size());
  s_.spans_.push_back(sp);
  s_.open_.push_back(idx_);
}

Spans::Scope::~Scope() {
  s_.spans_[idx_].end_ns = s_.now_ns();
  s_.open_.pop_back();
}

int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

double Spans::total_ms(const std::string& name, size_t from) const {
  int64_t ns = 0;
  for (size_t i = from; i < spans_.size(); ++i)
    if (name == spans_[i].name) ns += spans_[i].end_ns - spans_[i].start_ns;
  return static_cast<double>(ns) / 1e6;
}

std::map<std::string, Spans::Layer> Spans::self_times() const {
  // Children of one span run one after another on one thread, so the time
  // they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, Layer> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    Layer& l = out[s.name];
    ++l.count;
    l.total_ms += static_cast<double>(dur) / 1e6;
    l.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.job), i, s.parent);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

bool Spans::write_self_times(const std::string& path) const {
  const std::map<std::string, Layer> layers = self_times();
  double job_ms = 0;
  if (const auto it = layers.find("job"); it != layers.end())
    job_ms = it->second.total_ms;
  std::ofstream f(path);
  f << "span\tcount\ttotal_ms\tself_ms\tself_share_of_job_time\n";
  char buf[256];
  for (const auto& [name, l] : layers) {
    std::snprintf(buf, sizeof buf, "%s\t%llu\t%.3f\t%.3f\t%.4f\n",
                  name.c_str(), static_cast<unsigned long long>(l.count),
                  l.total_ms, l.self_ms, job_ms > 0 ? l.self_ms / job_ms : 0.0);
    f << buf;
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
