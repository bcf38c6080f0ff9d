#include "jobs.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>

namespace perfbench {

namespace {

using ro::Backend;
using ro::JobKind;
using ro::JobSpec;

uint64_t mix(uint64_t x) {  // SplitMix64 finalizer
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Input salt of pool slot `slot`.  Salts start above the warm-up inputs
/// (seed 0) and step by 4 so a batch's per-shard salts (seed + shard) never
/// reach the next slot's inputs: every slot is a trace key of its own.
uint64_t salt(uint64_t slot) { return 1000 + 4 * slot; }

JobSpec base_spec(const std::string& tenant, const std::string& label,
                  JobKind kind, const std::string& workload, uint64_t n,
                  uint64_t seed, Backend backend, uint32_t p) {
  JobSpec s;
  s.tenant = tenant;
  s.kind = kind;
  s.workload = workload;
  s.n = n;
  s.seed = seed;
  s.opt.backend = backend;
  s.opt.label = label;
  s.opt.sim.p = p;
  s.opt.seq_baseline = true;
  return s;
}

std::string key_of(const JobSpec& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s/%s/%" PRIu64 "/%" PRIu64 "/%s/p%u/x%u%s%s",
                ro::job_kind_name(s.kind), s.workload.c_str(), s.n, s.seed,
                ro::backend_name(s.opt.backend), s.opt.sim.p, s.shards,
                s.opt.capacity_shared ? "/shared" : "",
                s.schema_version.empty() ? "" : "/schema2");
  return buf;
}

void add(Workload& w, JobSpec spec, Expect expect = Expect::kOk) {
  BenchJob j;
  j.key = key_of(spec);
  j.spec = std::move(spec);
  j.expect = expect;
  w.pool.push_back(std::move(j));
}

Backend sched(uint64_t i) { return i % 2 ? Backend::kSimRws : Backend::kSimPws; }

// pws-sweep: every trace key (registry workload x input salt) runs under
// both schedulers at p = 4, 16, 64 with the p = 1 baseline, so 5 of every 6
// jobs repeat a trace key and a baseline an earlier job of the cycle made.
// sort has three trace keys per cycle: that puts the cycle's median and
// 90th-percentile jobs inside sort's latency clusters instead of in the gaps
// between workloads, where run-to-run noise moves a percentile most.
void build_pws_sweep(Workload& w) {
  static const std::pair<const char*, uint64_t> kTraces[] = {
      {"msum", 1 << 14}, {"ps", 1 << 13},        {"sort", 1 << 13},
      {"sort", 1 << 13}, {"sort", 1 << 13},      {"sort-spms", 1 << 13},
      {"counters-packed", 1 << 10},
  };
  constexpr uint32_t kKeys = std::size(kTraces);
  w.cycle_jobs = 6 * kKeys;
  w.pool_cycles = 48;
  w.traced_cycles = 2;
  w.slo_ms = 300;
  for (uint32_t c = 0; c < w.pool_cycles; ++c) {
    for (uint32_t t = 0; t < kKeys; ++t) {
      const uint64_t seed = salt(uint64_t{c} * kKeys + t);
      for (uint32_t k = 0; k < 2; ++k) {
        for (uint32_t p : {4u, 16u, 64u}) {
          add(w, base_spec("sweep", w.name, JobKind::kRun, kTraces[t].first,
                           kTraces[t].second, seed, sched(k), p));
        }
      }
    }
  }
}

// stream-batch: 4-shard batches over streamed, compressed, spilled traces
// with a 2-segment resident window.  Every job has fresh inputs.  The batch
// runs on one host thread, without pipelining: with replay threads and
// background spilling, the resident set and the job latencies moved between
// modes 20-30 % apart from run to run on a shared 4-core host.
void build_stream_batch(Workload& w, const std::string& spill_dir) {
  // The two sorts run twice per cycle, so the cycle's median and 90th
  // percentile jobs fall inside their latency clusters instead of in the gap
  // between two workloads.
  static const std::pair<const char*, uint64_t> kTraces[] = {
      {"msum", 1 << 13},      {"ps", 1 << 12},
      {"sort", 1 << 11},      {"sort", 1 << 11},
      {"sort-spms", 1 << 11}, {"sort-spms", 1 << 11},
  };
  w.cycle_jobs = 12;
  w.pool_cycles = 64;
  w.traced_cycles = 2;
  w.slo_ms = 500;
  for (uint32_t c = 0; c < w.pool_cycles; ++c) {
    for (uint32_t j = 0; j < w.cycle_jobs; ++j) {
      JobSpec s = base_spec("stream", w.name, JobKind::kBatch,
                            kTraces[j / 2].first, kTraces[j / 2].second,
                            salt(uint64_t{c} * w.cycle_jobs + j), sched(j), 8);
      s.shards = 4;
      s.opt.trace.segment_tasks = 1024;
      s.opt.trace.max_resident_segments = 2;
      s.opt.trace.compress = true;
      s.opt.trace.spill_dir = spill_dir;
      s.opt.sim.replay_threads = 1;
      add(w, std::move(s));
    }
  }
}

// serve-mix: 20 arrivals per cycle from three tenants plus refusals, every
// job with fresh inputs:
//   10 alice runs: msum and ps under both schedulers at p 4 and 8, and two
//      sorts,
//   2 bob sort-spms runs and 2 bob diagnose jobs on counters-packed,
//   2 carol capacity-shared batches (msum on 3 shards, sort on 2),
//   2 mallory runs over the tenant budget (admission must reject them),
//   1 unknown workload and 1 newer schema major (must come back as errors).
// Of the 16 valid jobs, 11 take 2-15 ms and 5 take 25-35 ms, so the median
// and the 90th percentile each fall inside one group.  The two specs known
// to abort the engine (a 2^40-word cache with B = 1, align_words = 0) are
// left out on purpose: they would kill the daemon.
void build_serve_mix(Workload& w) {
  w.cycle_jobs = 20;
  w.pool_cycles = 100;
  w.traced_cycles = 10;
  w.slo_ms = 100;
  for (uint32_t c = 0; c < w.pool_cycles; ++c) {
    const uint64_t slot0 = uint64_t{c} * w.cycle_jobs;
    auto seed = [&](uint32_t j) { return salt(slot0 + j); };
    for (uint32_t j = 0; j < 8; ++j) {
      add(w, base_spec("alice", w.name, JobKind::kRun, j < 4 ? "msum" : "ps",
                       j < 4 ? 1 << 13 : 1 << 12, seed(j), sched(j),
                       j % 4 < 2 ? 4 : 8));
    }
    for (uint32_t j = 8; j < 10; ++j) {
      add(w, base_spec("alice", w.name, JobKind::kRun, "sort", 1 << 12,
                       seed(j), sched(j), j == 8 ? 4 : 8));
    }
    for (uint32_t j = 10; j < 12; ++j) {
      add(w, base_spec("bob", w.name, JobKind::kRun, "sort-spms", 1 << 12,
                       seed(j), sched(j), 4));
    }
    for (uint32_t j = 12; j < 14; ++j) {
      add(w, base_spec("bob", w.name, JobKind::kDiagnose, "counters-packed",
                       64, seed(j), sched(j), 8));
    }
    for (uint32_t j = 14; j < 16; ++j) {
      JobSpec s = base_spec("carol", w.name, JobKind::kBatch,
                            j == 14 ? "msum" : "sort", 1 << 11, seed(j),
                            Backend::kSimPws, 4);
      s.shards = j == 14 ? 3 : 2;
      s.opt.capacity_shared = true;
      add(w, std::move(s));
    }
    for (uint32_t j = 16; j < 18; ++j) {
      add(w,
          base_spec("mallory", w.name, JobKind::kRun, "msum", 1 << 16,
                    seed(j), sched(j), 4),
          Expect::kRejected);
    }
    add(w,
        base_spec("alice", w.name, JobKind::kRun, "no-such-workload", 1 << 12,
                  seed(18), Backend::kSimPws, 4),
        Expect::kInvalid);
    JobSpec newer = base_spec("bob", w.name, JobKind::kRun, "msum", 1 << 12,
                              seed(19), Backend::kSimPws, 4);
    newer.schema_version = "2.0";
    add(w, std::move(newer), Expect::kInvalid);
  }
}

void push_report(std::vector<uint64_t>& f, const ro::RunReport& r) {
  const ro::Metrics& m = r.sim;
  f.insert(f.end(), {m.makespan, m.cache_misses(), m.block_misses(),
                     m.stack_misses(), m.steals(), m.total_block_transfers,
                     r.q_seq, r.seq_makespan, r.graph.accesses});
  if (r.has_tenant) {
    f.insert(f.end(), {r.tenant_compute, r.tenant_cache_misses,
                       r.tenant_block_misses, r.tenant_transfers});
  }
  if (r.has_stream) {
    // trace_peak_resident_bytes is left out: with pipelining it depends on
    // how spilling and replay reloads overlap in host time.
    f.insert(f.end(), {r.trace_segments, r.trace_spilled_bytes,
                       r.trace_compressed_bytes});
  }
}

const char* status_word(ro::JobStatus s) { return ro::job_status_name(s); }

ro::JobStatus expected_status(Expect e) {
  switch (e) {
    case Expect::kOk:
      return ro::JobStatus::kOk;
    case Expect::kRejected:
      return ro::JobStatus::kRejected;
    case Expect::kInvalid:
      break;
  }
  return ro::JobStatus::kError;
}

}  // namespace

bool make_workload_def(const std::string& name, const std::string& spill_dir,
                       Workload& out) {
  out = Workload{};
  out.name = name;
  if (name == "pws-sweep") {
    build_pws_sweep(out);
  } else if (name == "stream-batch") {
    build_stream_batch(out, spill_dir);
  } else if (name == "serve-mix") {
    out.open_loop = true;
    build_serve_mix(out);
  } else {
    return false;
  }
  return out.pool.size() == uint64_t{out.pool_cycles} * out.cycle_jobs;
}

std::vector<size_t> job_order(const Workload& w, uint64_t seed,
                              uint64_t count) {
  std::vector<size_t> order;
  order.reserve(count);
  const uint64_t off = mix(seed) % w.pool_cycles;
  std::vector<size_t> perm(w.cycle_jobs);
  for (uint64_t k = 0; order.size() < count; ++k) {
    const uint64_t cycle = (off + k) % w.pool_cycles;
    std::iota(perm.begin(), perm.end(), size_t{0});
    uint64_t r = mix(seed ^ mix(k + 1));
    for (size_t i = perm.size(); i > 1; --i) {  // Fisher-Yates
      r = mix(r);
      std::swap(perm[i - 1], perm[r % i]);
    }
    for (size_t i = 0; i < perm.size() && order.size() < count; ++i)
      order.push_back(cycle * w.cycle_jobs + perm[i]);
  }
  return order;
}

std::vector<JobSpec> warmup_specs(const Workload& w) {
  std::vector<JobSpec> out;
  std::set<std::pair<JobKind, std::string>> seen;
  for (const BenchJob& j : w.pool) {
    if (j.expect != Expect::kOk) continue;
    if (!seen.insert({j.spec.kind, j.spec.workload}).second) continue;
    JobSpec s = j.spec;
    s.seed = 0;
    s.tenant = "warmup";
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<uint64_t> golden_fields(const ro::JobResult& jr) {
  std::vector<uint64_t> f;
  if (jr.has_doctor) {
    push_report(f, jr.doctor.before);
    push_report(f, jr.doctor.after);
    f.push_back(jr.doctor.has_after ? 1 : 0);
    f.push_back(jr.doctor.plan.lines_padded);
  } else if (jr.has_batch) {
    push_report(f, jr.batch.aggregate);
    for (const ro::RunReport& r : jr.batch.runs) push_report(f, r);
  } else {
    push_report(f, jr.report);
  }
  return f;
}

bool load_goldens(const std::string& path, Goldens& out, std::string* error) {
  out.clear();
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read golden file " + path;
    return false;
  }
  std::string line;
  uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key, status;
    Golden g;
    if (!(ss >> key >> status) || !ro::parse_job_status(status, g.status)) {
      *error = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    uint64_t v;
    while (ss >> v) g.fields.push_back(v);
    if (!ss.eof() || !out.emplace(key, std::move(g)).second) {
      *error = path + ":" + std::to_string(lineno) +
               ": bad value or duplicate key";
      return false;
    }
  }
  return true;
}

std::string golden_line(const BenchJob& job, const ro::JobResult& jr) {
  std::string s = job.key + " " + status_word(jr.status);
  if (jr.ok()) {
    for (uint64_t v : golden_fields(jr)) {
      s += ' ';
      s += std::to_string(v);
    }
  }
  return s;
}

bool check_result(const BenchJob& job, const ro::JobResult& jr,
                  const Goldens& goldens, std::string* why) {
  const auto it = goldens.find(job.key);
  if (it == goldens.end()) {
    *why = job.key + ": no golden";
    return false;
  }
  const ro::JobStatus want = expected_status(job.expect);
  if (it->second.status != want) {
    *why = job.key + ": golden status is " + status_word(it->second.status) +
           ", the workload expects " + status_word(want);
    return false;
  }
  if (jr.status != want) {
    *why = job.key + ": status " + status_word(jr.status) + " (" + jr.error +
           "), expected " + status_word(want);
    return false;
  }
  if (want != ro::JobStatus::kOk) return true;
  const std::vector<uint64_t> got = golden_fields(jr);
  const std::vector<uint64_t>& exp = it->second.fields;
  if (got == exp) return true;
  size_t i = 0;
  while (i < got.size() && i < exp.size() && got[i] == exp[i]) ++i;
  *why = job.key + ": field " + std::to_string(i) + " is " +
         (i < got.size() ? std::to_string(got[i]) : "missing") +
         ", golden " + (i < exp.size() ? std::to_string(exp[i]) : "missing");
  return false;
}

}  // namespace perfbench
