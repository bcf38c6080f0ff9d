// In-memory span recorder of the traced run.
//
// One span per public call the traced run makes (name, start, end, parent,
// job id).  Spans stay in memory while the run is timed and are written out
// at the end, as Chrome trace-event JSON (chrome://tracing, Perfetto) and as
// a per-layer self-time table.  Single-threaded: the traced run decomposes
// one job at a time on the calling thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // since the recorder was created
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the parent span; -1 = a job's root span
  uint64_t job = 0;
};

class Spans {
 public:
  /// Opens a span under the innermost open span; closes it on destruction.
  class Scope {
   public:
    Scope(Spans& s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    int32_t idx_;
  };

  void set_job(uint64_t job) { job_ = job; }
  size_t size() const { return spans_.size(); }

  /// Summed duration of every span named `name` from index `from` on, in
  /// milliseconds.
  double total_ms(const std::string& name, size_t from = 0) const;

  struct Layer {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;  // total minus the time its child spans cover
  };
  /// Per span name: count, total and self time.
  std::map<std::string, Layer> self_times() const;

  /// Writes the Chrome trace-event JSON; false on an I/O error.
  bool write_chrome_trace(const std::string& path) const;
  /// Writes the self-time table as tab-separated text; false on an I/O
  /// error.
  bool write_self_times(const std::string& path) const;

 private:
  int64_t now_ns() const;

  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  uint64_t job_ = 0;
};

}  // namespace perfbench
