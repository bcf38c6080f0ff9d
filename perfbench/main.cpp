// ro_perfbench — the job-level benchmark program (README.md beside this file).
//
//   ro_perfbench --workload W --seed N --seconds S --trace 0|1
//                [--jobs N] [--goldens DIR]
//   ro_perfbench --workload W --setup-only
//   ro_perfbench --workload W --write-goldens FILE
//
// --trace 0 sets the system up, runs the workload's jobs untraced for S
// seconds (closed loop: whole cycles until S has passed; serve-mix: S
// seconds of arrivals at the fixed rate), checks every result against the
// goldens, and prints the end-to-end metrics.  --trace 1 runs the
// workload's fixed traced job list untraced, then once more decomposed into
// spans (decompose.h), checks that both agree, and prints the per-layer
// metrics.  The last stdout line is the result JSON; the exit code is 1
// when any job failed or any check did not hold.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "decompose.h"
#include "jobs.h"
#include "ro/engine/engine.h"
#include "ro/serve/client.h"
#include "ro/serve/server.h"
#include "spans.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int64_t max_jobs = -1;  // --jobs: cap on the jobs a run attempts
  bool setup_only = false;
  std::string write_goldens;
  std::string goldens_dir = "perfbench/goldens";
};

// Traces, self-time tables, spill files and the ro-serve socket, relative to
// the repository root (which also keeps the socket path short).
constexpr const char* kOutDir = ".bench_build/run";

bool parse_args(int argc, char** argv, Args& a, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + k;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--jobs") {
      a.max_jobs = std::strtoll(v.c_str(), &end, 10);
    } else if (k == "--goldens") {
      a.goldens_dir = v;
    } else if (k == "--write-goldens") {
      a.write_goldens = v;
    } else {
      *err = "unknown option " + k;
      return false;
    }
    if (end != nullptr && (*end != '\0' || v.empty())) {
      *err = "bad value for " + k + ": " + v;
      return false;
    }
  }
  if (a.trace != 0 && a.trace != 1) {
    *err = "--trace takes 0 or 1";
    return false;
  }
  if (!(a.seconds >= 0)) {
    *err = "--seconds must be >= 0";
    return false;
  }
  return true;
}

/// The system under test: one Engine and, for serve-mix, an in-process
/// ro-serve with the load generator's client connections.
struct System {
  std::unique_ptr<ro::Engine> engine;
  std::unique_ptr<ro::serve::Server> server;
  std::vector<std::unique_ptr<ro::serve::Client>> clients;

  ~System() {
    clients.clear();
    if (server) server->stop();
  }
};

/// Engine construction, server start and one warm-up submit per distinct
/// (kind, workload) of the workload, with inputs outside its pool.
bool set_up(const Workload& w, const std::string& socket_path, System& sys,
            std::string* err) {
  sys.engine = std::make_unique<ro::Engine>();
  if (w.open_loop) {
    ro::serve::Server::Options o;
    o.socket_path = socket_path;
    o.admission.max_inflight = kMaxInflight;
    o.admission.tenant_budget_bytes = kTenantBudgetBytes;
    sys.server = std::make_unique<ro::serve::Server>(o);
    if (!sys.server->start(err)) return false;
    for (uint32_t i = 0; i < kClientConnections; ++i) {
      sys.clients.push_back(std::make_unique<ro::serve::Client>());
      if (!sys.clients.back()->connect(socket_path, err)) return false;
    }
  }
  for (const ro::JobSpec& spec : warmup_specs(w)) {
    ro::JobResult jr;
    if (w.open_loop) {
      if (!sys.clients[0]->submit(spec, jr)) {
        *err = "warm-up submit lost its connection";
        return false;
      }
    } else {
      jr = sys.engine->submit(spec);
    }
    if (!jr.ok()) {
      *err = "warm-up job failed: " + jr.error;
      return false;
    }
  }
  return true;
}

/// The report whose counters stand for the job: the run's report, a
/// batch's aggregate, a diagnose job's "before" replay.
const ro::RunReport& main_report(const ro::JobResult& jr) {
  if (jr.has_doctor) return jr.doctor.before;
  if (jr.has_batch) return jr.batch.aggregate;
  return jr.report;
}

/// One attempted job.
struct Attempt {
  size_t job = 0;          // pool index
  bool replied = false;
  bool ok = false;         // outcome as expected and equal to the golden
  std::string why;         // failure reason
  double latency_ms = 0;   // closed loop: the submit call; open loop: from
                           // the due time to the reply
  double late_ms = 0;      // open loop: send time minus due time
  double client_ms = 0;    // open loop: send to reply
  double end_s = 0;        // reply time, seconds since the phase started
  uint64_t accesses = 0;   // recorded accesses of a completed job
  ro::JobResult jr;        // kept only when the caller asks for results
};

void finish(Attempt& a, const Workload& w, const Goldens& goldens,
            bool keep) {
  const BenchJob& job = w.pool[a.job];
  if (!a.replied) {
    a.why = job.key + ": no reply";
  } else if (check_result(job, a.jr, goldens, &a.why)) {
    a.ok = true;
    if (job.expect == Expect::kOk) a.accesses = main_report(a.jr).graph.accesses;
  }
  if (!keep) a.jr = ro::JobResult{};
}

/// Closed loop, one caller: submits `order` in turn, stopping at the first
/// cycle boundary after `seconds` have passed.
std::vector<Attempt> run_closed(System& sys, const Workload& w,
                                const std::vector<size_t>& order,
                                double seconds, const Goldens& goldens,
                                bool keep, double* wall_s) {
  std::vector<Attempt> out;
  out.reserve(order.size());
  const auto t0 = Clock::now();
  for (size_t j = 0; j < order.size(); ++j) {
    if (j % w.cycle_jobs == 0 && ms_between(t0, Clock::now()) >= seconds * 1e3)
      break;
    Attempt a;
    a.job = order[j];
    const auto s0 = Clock::now();
    a.jr = sys.engine->submit(w.pool[a.job].spec);
    const auto done = Clock::now();
    a.latency_ms = ms_between(s0, done);
    a.end_s = ms_between(t0, done) / 1e3;
    a.replied = true;
    finish(a, w, goldens, keep);
    out.push_back(std::move(a));
  }
  *wall_s = ms_between(t0, Clock::now()) / 1e3;
  return out;
}

/// Open loop into ro-serve: arrival j is due at j / rate seconds and goes
/// out on connection j mod kClientConnections, each connection sending its
/// next job when it is due or when its previous reply arrives, whichever is
/// later.
std::vector<Attempt> run_open(System& sys, const Workload& w,
                              const std::vector<size_t>& order,
                              const Goldens& goldens, bool keep,
                              double* wall_s) {
  std::vector<Attempt> out(order.size());
  const auto t0 = Clock::now();
  auto sender = [&](uint32_t c) {
    ro::serve::Client& cl = *sys.clients[c];
    for (size_t j = c; j < order.size(); j += kClientConnections) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(j) /
                                                 kArrivalsPerSecond));
      std::this_thread::sleep_until(due);
      Attempt& a = out[j];
      a.job = order[j];
      const auto sent = Clock::now();
      if (!cl.connected()) cl.connect(sys.server->socket_path());
      a.replied = cl.connected() && cl.submit(w.pool[a.job].spec, a.jr);
      if (!a.replied) cl.close();  // reconnect for the next arrival
      const auto done = Clock::now();
      a.late_ms = ms_between(due, sent);
      a.latency_ms = ms_between(due, done);
      a.client_ms = ms_between(sent, done);
      a.end_s = ms_between(t0, done) / 1e3;
      finish(a, w, goldens, keep);
    }
  };
  std::vector<std::thread> senders;
  for (uint32_t c = 1; c < kClientConnections; ++c)
    senders.emplace_back(sender, c);
  sender(0);
  for (std::thread& t : senders) t.join();
  *wall_s = ms_between(t0, Clock::now()) / 1e3;
  return out;
}

/// Linear interpolation between order statistics; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Collects failure reasons and the run's verdict.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_hold = true;  // run-level checks beside the per-job ones
  std::vector<std::string> reasons;

  void note(const std::string& why) {
    if (reasons.size() < 20) reasons.push_back(why);
  }
  void count(const std::vector<Attempt>& as) {
    attempted += as.size();
    for (const Attempt& a : as) {
      if (a.ok) continue;
      ++failed;
      note(a.why);
    }
  }
  void require(bool cond, const std::string& why) {
    if (cond) return;
    checks_hold = false;
    note(why);
  }
  bool correct() const { return failed == 0 && checks_hold; }
};

void print_result(const Verdict& v, const std::vector<Metric>& metrics) {
  for (const std::string& r : v.reasons)
    std::fprintf(stderr, "perfbench: FAIL %s\n", r.c_str());
  std::string s = "{\"correct\": ";
  s += v.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(v.attempted);
  s += ", \"failed\": " + std::to_string(v.failed);
  s += ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit);
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// Expected refusals against what the server counted.
struct Refusals {
  uint64_t rejected_sent = 0;
  uint64_t invalid_refused = 0;
};

Refusals count_refusals(const Workload& w, const std::vector<Attempt>& as) {
  Refusals r;
  for (const Attempt& a : as) {
    const Expect e = w.pool[a.job].expect;
    if (e == Expect::kRejected) ++r.rejected_sent;
    if (e == Expect::kInvalid && a.ok) ++r.invalid_refused;
  }
  return r;
}

/// Admission rejected exactly the over-budget jobs sent; each job's own
/// check already asserted that those came back rejected.
void check_service(const Workload& w, const std::vector<Attempt>& as,
                   const ro::serve::Admission::Stats& before,
                   const ro::serve::Admission::Stats& after, Verdict& v) {
  const Refusals r = count_refusals(w, as);
  v.require(after.rejected - before.rejected == r.rejected_sent,
            "admission rejected " +
                std::to_string(after.rejected - before.rejected) +
                " jobs; the workload sent " + std::to_string(r.rejected_sent) +
                " over budget");
}

std::vector<Metric> end_to_end(const Workload& w,
                               const std::vector<Attempt>& as, double wall_s,
                               double setup_s) {
  std::vector<double> lat;
  uint64_t valid = 0, within = 0;
  double accesses = 0;
  for (const Attempt& a : as) {
    if (w.pool[a.job].expect != Expect::kOk) continue;
    ++valid;
    if (!a.ok) continue;
    lat.push_back(a.latency_ms);
    accesses += static_cast<double>(a.accesses);
    if (a.latency_ms <= w.slo_ms) ++within;
  }
  // Closed loop: the median over whole cycles of each cycle's rate, so a
  // burst of host interference shorter than half the run does not move it.
  // Open loop: the arrival rate sets the pace, so the whole phase counts.
  double maccess_per_s = ratio(accesses / 1e6, wall_s);
  if (!w.open_loop) {
    std::vector<double> rates;
    double prev_end = 0;
    for (size_t c = 0; (c + 1) * w.cycle_jobs <= as.size(); ++c) {
      double cycle_accesses = 0;
      for (size_t j = c * w.cycle_jobs; j < (c + 1) * w.cycle_jobs; ++j)
        cycle_accesses += static_cast<double>(as[j].accesses);
      const double end = as[(c + 1) * w.cycle_jobs - 1].end_s;
      rates.push_back(ratio(cycle_accesses / 1e6, end - prev_end));
      prev_end = end;
    }
    maccess_per_s = percentile(rates, 0.5);
  }
  return {
      {"setup_s", setup_s, "s"},
      {"job_ms_p50", percentile(lat, 0.5), "ms"},
      {"job_ms_p90", percentile(lat, 0.9), "ms"},
      {"sim_maccess_per_s", maccess_per_s, "M/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"within_slo_frac", ratio(static_cast<double>(within),
                                static_cast<double>(valid)),
       "ratio"},
  };
}

/// Sums of the simulated counters and per-layer host times over the
/// decomposed jobs of a traced run.
struct LayerSums {
  uint64_t jobs = 0, replayed = 0, diagnosed = 0;
  double job_ms = 0, record_ms = 0, analyze_ms = 0, replay_ms = 0,
         baseline_ms = 0, report_ms = 0, diagnose_ms = 0;
  double untraced_ms = 0;  // the same jobs' untraced execution time
  uint64_t accesses = 0, replayed_accesses = 0;
  uint64_t makespan = 0, cache_misses = 0, block_misses = 0,
           stack_misses = 0, block_transfers = 0, compute = 0,
           activations = 0, steals = 0, steal_attempts = 0, usurpations = 0;
  uint64_t transfers_before = 0, transfers_after = 0;
  double replay_ms_at[3] = {0, 0, 0};  // kRun jobs at p = 4, 16, 64
  uint64_t runs_at[3] = {0, 0, 0};
};

void add_layers(LayerSums& s, const ro::JobSpec& spec, const Decomposed& d,
                double untraced_ms) {
  const JobLayers& l = d.layers;
  const ro::RunReport& r = main_report(d.built);
  ++s.jobs;
  s.job_ms += l.job_ms;
  s.record_ms += l.record_ms;
  s.analyze_ms += l.analyze_ms;
  s.report_ms += l.report_ms;
  s.untraced_ms += untraced_ms;
  s.accesses += r.graph.accesses;
  s.makespan += r.sim.makespan;
  s.cache_misses += r.sim.cache_misses();
  s.block_misses += r.sim.block_misses();
  s.stack_misses += r.sim.stack_misses();
  s.block_transfers += r.sim.total_block_transfers;
  s.compute += r.sim.compute();
  s.activations += r.graph.activations;
  if (d.built.has_doctor) {
    ++s.diagnosed;
    s.diagnose_ms += l.diagnose_ms;
    s.transfers_before += d.built.doctor.before_block_transfers();
    s.transfers_after += d.built.doctor.after_block_transfers();
    return;
  }
  ++s.replayed;
  s.replay_ms += l.replay_ms;
  s.baseline_ms += l.baseline_ms;
  s.replayed_accesses += r.graph.accesses;
  s.steals += r.sim.steals();
  s.steal_attempts += r.sim.steal_attempts();
  s.usurpations += r.sim.usurpations();
  if (spec.kind == ro::JobKind::kRun) {
    const int i = spec.opt.sim.p == 4 ? 0 : spec.opt.sim.p == 16 ? 1
                 : spec.opt.sim.p == 64 ? 2 : -1;
    if (i >= 0) {
      s.replay_ms_at[i] += l.replay_ms;
      ++s.runs_at[i];
    }
  }
}

std::vector<Metric> per_layer(const Workload& w, const std::vector<Attempt>& as,
                              const LayerSums& s, const Verdict& v,
                              const ro::serve::Admission::Stats& st) {
  const auto per = [](double total, uint64_t n) {
    return ratio(total, static_cast<double>(n));
  };
  const auto d = [](uint64_t x) { return static_cast<double>(x); };
  // Trace-store counts and service timings come from the untraced pass.
  uint64_t segs = 0, spilled = 0, compressed = 0, peak_resident = 0;
  std::vector<double> queue, wire, late;
  for (const Attempt& a : as) {
    if (!a.ok || w.pool[a.job].expect != Expect::kOk) continue;
    const ro::RunReport& r = main_report(a.jr);
    segs += r.trace_segments;
    spilled += r.trace_spilled_bytes;
    compressed += r.trace_compressed_bytes;
    peak_resident = std::max(peak_resident, r.trace_peak_resident_bytes);
    if (w.open_loop) {
      queue.push_back(a.jr.queue_ms);
      wire.push_back(a.client_ms - a.jr.queue_ms - a.jr.exec_ms);
      late.push_back(a.late_ms);
    }
  }
  const Refusals rf = count_refusals(w, as);
  // A job repeats when every trace it records (one per shard) was already
  // recorded by an earlier job of the list: what a trace memo could reuse.
  std::set<std::tuple<std::string, uint64_t, uint64_t>> seen;
  uint64_t valid = 0, repeats = 0;
  for (const Attempt& a : as) {
    const ro::JobSpec& spec = w.pool[a.job].spec;
    if (w.pool[a.job].expect != Expect::kOk) continue;
    ++valid;
    bool all_seen = true;
    for (uint64_t i = 0; i < std::max<uint32_t>(1, spec.shards); ++i)
      all_seen &= !seen.insert({spec.workload, spec.n, spec.seed + i}).second;
    repeats += all_seen;
  }
  return {
      {"sched.replay_ms", per(s.replay_ms, s.replayed), "ms"},
      {"sched.replay_ms_p4", per(s.replay_ms_at[0], s.runs_at[0]), "ms"},
      {"sched.replay_ms_p16", per(s.replay_ms_at[1], s.runs_at[1]), "ms"},
      {"sched.replay_ms_p64", per(s.replay_ms_at[2], s.runs_at[2]), "ms"},
      {"sched.replay_ns_per_access", per(s.replay_ms * 1e6, s.replayed_accesses), "ns"},
      {"sched.steal_attempts", d(s.steal_attempts), "count"},
      {"sched.steal_success_frac", per(d(s.steals), s.steal_attempts), "ratio"},
      {"sched.usurpations", d(s.usurpations), "count"},
      {"core.record_ms", per(s.record_ms, s.jobs), "ms"},
      {"core.analyze_ms", per(s.analyze_ms, s.jobs), "ms"},
      {"sched.baseline_ms", per(s.baseline_ms, s.replayed), "ms"},
      {"job.repeat_key_frac", per(d(repeats), valid), "ratio"},
      {"job.record_analyze_baseline_frac",
       ratio(s.record_ms + s.analyze_ms + s.baseline_ms, s.job_ms), "ratio"},
      {"core.trace_segments", d(segs), "count"},
      {"core.trace_spilled_bytes", d(spilled), "bytes"},
      {"core.trace_compressed_bytes", d(compressed), "bytes"},
      {"core.trace_peak_resident_bytes", d(peak_resident), "bytes"},
      {"core.record_ns_per_access", per(s.record_ms * 1e6, s.accesses), "ns"},
      {"serve.queue_ms_p50", percentile(queue, 0.5), "ms"},
      {"serve.queue_ms_p90", percentile(queue, 0.9), "ms"},
      {"serve.wire_ms_p50", percentile(wire, 0.5), "ms"},
      {"engine.report_ms", per(s.report_ms, s.jobs), "ms"},
      {"serve.admitted", d(st.admitted), "count"},
      {"serve.queued", d(st.queued), "count"},
      {"serve.rejected", d(st.rejected), "count"},
      {"serve.refused_invalid", d(rf.invalid_refused), "count"},
      {"serve.inflight_peak", d(st.inflight_peak), "count"},
      {"doctor.diagnose_ms", per(s.diagnose_ms, s.diagnosed), "ms"},
      {"doctor.transfers_before", d(s.transfers_before), "count"},
      {"doctor.transfers_after", d(s.transfers_after), "count"},
      {"sim.makespan", d(s.makespan), "cycles"},
      {"sim.cache_misses", d(s.cache_misses), "count"},
      {"sim.block_misses", d(s.block_misses), "count"},
      {"sim.stack_misses", d(s.stack_misses), "count"},
      {"sim.block_transfers", d(s.block_transfers), "count"},
      {"sim.compute", d(s.compute), "count"},
      {"core.accesses", d(s.accesses), "count"},
      {"core.activations", d(s.activations), "count"},
      {"loadgen.late_ms_p90", percentile(late, 0.9), "ms"},
      {"loadgen.failed_frac", per(d(v.failed), v.attempted), "ratio"},
      {"trace.overhead_frac", ratio(s.job_ms, s.untraced_ms) - 1, "ratio"},
      {"trace.jobs", d(s.jobs), "count"},
  };
}

/// Runs every pool job once in-process and writes its golden line.
int write_goldens(const Workload& w, const std::string& path) {
  ro::Engine eng;
  std::ofstream f(path);
  f << "# goldens of " << w.name
    << ": key status [deterministic fields, see golden_fields in jobs.h]\n";
  for (size_t i = 0; i < w.pool.size(); ++i) {
    const BenchJob& job = w.pool[i];
    ro::JobResult jr;
    if (job.expect == Expect::kRejected) {
      if (ro::serve::estimate_job_bytes(job.spec) <= kTenantBudgetBytes) {
        std::fprintf(stderr, "%s fits the tenant budget\n", job.key.c_str());
        return 1;
      }
      jr.status = ro::JobStatus::kRejected;
    } else {
      jr = eng.submit(job.spec);
    }
    if (jr.ok() != (job.expect == Expect::kOk)) {
      std::fprintf(stderr, "%s: unexpected status %s (%s)\n", job.key.c_str(),
                   ro::job_status_name(jr.status), jr.error.c_str());
      return 1;
    }
    f << golden_line(job, jr) << "\n";
    if (i % 100 == 99)
      std::fprintf(stderr, "%s: %zu/%zu\n", w.name.c_str(), i + 1,
                   w.pool.size());
  }
  return f ? 0 : 1;
}

int run(const Args& args, Clock::time_point t_start) {
  namespace fs = std::filesystem;
  const std::string tag = std::to_string(::getpid());
  const std::string out_dir = kOutDir;
  const std::string spill_dir = out_dir + "/spill-" + tag;
  std::error_code ec;
  fs::create_directories(spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", spill_dir.c_str());
    return 2;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{spill_dir};

  Workload w;
  if (!make_workload_def(args.workload, spill_dir, w)) {
    std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n",
                 args.workload.c_str());
    return 2;
  }
  if (!args.write_goldens.empty()) return write_goldens(w, args.write_goldens);

  System sys;
  std::string err;
  if (!set_up(w, out_dir + "/serve-" + tag + ".sock", sys, &err)) {
    std::fprintf(stderr, "perfbench: setup failed: %s\n", err.c_str());
    return 1;
  }
  const double setup_s = ms_between(t_start, Clock::now()) / 1e3;
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  Goldens goldens;
  if (!load_goldens(args.goldens_dir + "/" + w.name + ".txt", goldens, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }

  const bool traced = args.trace == 1;
  uint64_t count =
      traced ? uint64_t{w.traced_cycles} * w.cycle_jobs
      : w.open_loop
          ? static_cast<uint64_t>(std::ceil(args.seconds * kArrivalsPerSecond /
                                            w.cycle_jobs)) *
                w.cycle_jobs
          // closed loop: stops on time; the list only has to be long enough
          : uint64_t{16} * w.pool_cycles * w.cycle_jobs;
  if (args.max_jobs >= 0)
    count = std::min(count, static_cast<uint64_t>(args.max_jobs));
  const std::vector<size_t> order = job_order(w, args.seed, count);

  ro::serve::Admission::Stats st0, st1;
  if (sys.server) st0 = sys.server->admission_stats();
  double wall_s = 0;
  const double seconds = traced ? INFINITY : args.seconds;
  std::vector<Attempt> as =
      w.open_loop ? run_open(sys, w, order, goldens, traced, &wall_s)
                  : run_closed(sys, w, order, seconds, goldens, traced, &wall_s);
  if (sys.server) st1 = sys.server->admission_stats();

  Verdict v;
  v.count(as);
  v.require(!as.empty(), "empty job list: no job ran");
  if (sys.server) check_service(w, as, st0, st1, v);

  if (!traced) {
    const std::vector<Metric> m = end_to_end(w, as, wall_s, setup_s);
    std::fprintf(stderr, "perfbench: %s seed %llu: %zu jobs attempted in %.3f s\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 as.size(), wall_s);
    print_result(v, m);
    return v.correct() ? 0 : 1;
  }

  // The traced pass: each job once more through an untraced in-process
  // submit, then decomposed into its public calls right after it, so both
  // see the same process state and host load.
  Spans spans;
  LayerSums sums;
  for (size_t j = 0; j < as.size(); ++j) {
    const BenchJob& job = w.pool[as[j].job];
    if (!as[j].ok || job.expect != Expect::kOk) continue;
    const auto s0 = Clock::now();
    const ro::JobResult ref = sys.engine->submit(job.spec);
    const double ref_ms = ms_between(s0, Clock::now());
    const Decomposed d = decompose(*sys.engine, job.spec, j, spans);
    std::string why;
    if (!d.error.empty()) {
      v.require(false, job.key + ": " + d.error);
    } else if (!check_result(job, d.parsed, goldens, &why)) {
      v.require(false, "decomposed " + why);
    } else if (!same_outcome(d.built, ref)) {
      v.require(false, job.key + ": decomposed Metrics differ from submit's");
    }
    add_layers(sums, job.spec, d, ref_ms);
  }
  ro::serve::Admission::Stats st;
  st.admitted = st1.admitted - st0.admitted;
  st.queued = st1.queued - st0.queued;
  st.rejected = st1.rejected - st0.rejected;
  st.inflight_peak = st1.inflight_peak;
  const std::string stem = out_dir + "/" + w.name + "-seed" +
                           std::to_string(args.seed);
  v.require(spans.write_chrome_trace(stem + "-trace.json"),
            "cannot write " + stem + "-trace.json");
  v.require(spans.write_self_times(stem + "-self.tsv"),
            "cannot write " + stem + "-self.tsv");
  std::fprintf(stderr, "perfbench: spans in %s-trace.json, self times in %s-self.tsv\n",
               stem.c_str(), stem.c_str());
  print_result(v, per_layer(w, as, sums, v, st));
  return v.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto t_start = perfbench::Clock::now();
  perfbench::Args args;
  std::string err;
  if (!perfbench::parse_args(argc, argv, args, &err) || args.workload.empty()) {
    std::fprintf(stderr, "ro_perfbench: %s\n",
                 err.empty() ? "--workload is required" : err.c_str());
    return 2;
  }
  return perfbench::run(args, t_start);
}
