// The benchmark's three workloads as job lists, and the goldens that check
// every job's deterministic output.
//
// Each workload owns a fixed *pool* of jobs, built without the run seed, and
// a golden file (goldens/<workload>.txt) holding every pool job's expected
// outcome.  The pool is a sequence of *cycles*: a cycle is the smallest job
// mix the workload is balanced over (pws-sweep: 5 workloads x 2 schedulers x
// 3 core counts; stream-batch: 4 workloads x 2 schedulers; serve-mix: 20
// arrivals with fixed category shares).  A run with seed s walks the cycles
// starting at an offset drawn from s, and shuffles each cycle's job order
// with s, so the same seed gives the same inputs and every run is a whole
// number of balanced cycles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ro/engine/job.h"

namespace perfbench {

/// What a job must come back as.
enum class Expect : uint8_t {
  kOk,        // runs; its deterministic fields must equal the golden
  kRejected,  // valid, but over its tenant's admission budget
  kInvalid,   // an invalid spec: must come back as status "error"
};

struct BenchJob {
  ro::JobSpec spec;
  Expect expect = Expect::kOk;
  std::string key;  // golden key: unique per pool job
};

struct Workload {
  std::string name;
  bool open_loop = false;      // serve-mix: fixed arrival rate into ro-serve
  uint32_t cycle_jobs = 0;     // jobs per balanced cycle
  uint32_t pool_cycles = 0;    // cycles in the golden pool
  uint32_t traced_cycles = 0;  // fixed job list of a --trace 1 run
  double slo_ms = 0;           // latency limit of within_slo_frac
  std::vector<BenchJob> pool;  // pool_cycles * cycle_jobs jobs
};

// serve-mix service settings.  The budget admits every tenant's jobs one at
// a time (the largest fits in 512 KiB) but queues a second large job of the
// same tenant, and it rejects the over-budget tenant's 4 MiB jobs outright.
inline constexpr double kArrivalsPerSecond = 40.0;
inline constexpr uint32_t kClientConnections = 2;
inline constexpr uint32_t kMaxInflight = 2;
inline constexpr uint64_t kTenantBudgetBytes = 768 << 10;

/// The named workload ("pws-sweep", "serve-mix", "stream-batch"); false for
/// an unknown name.  `spill_dir` is where stream-batch spills trace segments.
bool make_workload_def(const std::string& name, const std::string& spill_dir,
                       Workload& out);

/// Pool indices of the first `count` jobs a run with `seed` executes.
std::vector<size_t> job_order(const Workload& w, uint64_t seed,
                              uint64_t count);

/// The warm-up specs: one job per distinct (kind, workload) of the pool,
/// with inputs outside the pool.
std::vector<ro::JobSpec> warmup_specs(const Workload& w);

/// The deterministic fields of a result, flattened in a fixed order: the
/// simulated counters and recording stats of every report the result
/// carries (batch aggregate and shards, doctor before and after), tenant
/// shares and trace-store counts where present.  Host times are excluded.
std::vector<uint64_t> golden_fields(const ro::JobResult& jr);

struct Golden {
  ro::JobStatus status = ro::JobStatus::kOk;
  std::vector<uint64_t> fields;
};
using Goldens = std::map<std::string, Golden>;

/// Reads a golden file; false (with `error`) when it is missing or
/// malformed.
bool load_goldens(const std::string& path, Goldens& out, std::string* error);

/// One golden line for `job` with outcome `jr`.
std::string golden_line(const BenchJob& job, const ro::JobResult& jr);

/// Checks a job's result against its expectation and golden.  Fails closed:
/// a job without a golden fails.  On failure `why` says what differed.
bool check_result(const BenchJob& job, const ro::JobResult& jr,
                  const Goldens& goldens, std::string* why);

}  // namespace perfbench
