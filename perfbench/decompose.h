// The traced run's view of a job: the same work Engine::submit does, split
// into the public calls behind it, one span per call:
//
//   job
//   ├─ engine.make_workload   make_workload(name, n, seed)   (per shard)
//   ├─ core.record            Engine::record / record_stream (per shard)
//   ├─ core.analyze           TaskGraph::analyze             (per shard)
//   ├─ core.merge_shards      merge_shards (capacity-shared batches)
//   ├─ sched.replay           simulate / simulate_shared (the job's p)
//   ├─ sched.baseline         the same at p = 1, giving Q(n,M,B)
//   ├─ doctor.diagnose        Engine::diagnose (diagnose jobs, in place
//   │                         of replay and baseline)
//   └─ engine.report          JobResult assembly, to_json, jobresult_from_json
//
// Engine::record returns its graph already analyzed, so core.record covers
// one analyze pass too; the traced run analyzes once more in its own span,
// checks the result against the recording's stats, and charges recording
// alone as core.record minus core.analyze.
#pragma once

#include <string>

#include "ro/engine/engine.h"
#include "spans.h"

namespace perfbench {

/// Host time of each layer of one decomposed job, in milliseconds.
struct JobLayers {
  double job_ms = 0;
  double record_ms = 0;   // recording alone (see above)
  double analyze_ms = 0;
  double replay_ms = 0;
  double baseline_ms = 0;
  double diagnose_ms = 0;
  double report_ms = 0;
};

struct Decomposed {
  ro::JobResult built;   // assembled from the calls, full Metrics
  ro::JobResult parsed;  // `built` after the JSON round trip
  JobLayers layers;
  std::string error;     // non-empty: the job could not be decomposed
};

/// Runs `spec` (kRun, kBatch or kDiagnose on a sim backend, named workload)
/// as its public calls on `eng`, recording spans into `spans` under job id
/// `job`.
Decomposed decompose(ro::Engine& eng, const ro::JobSpec& spec, uint64_t job,
                     Spans& spans);

/// True when two results carry the same deterministic outcome: identical
/// simulator Metrics (every core, steal histogram and transfer count) for
/// every report, and identical golden fields.
bool same_outcome(const ro::JobResult& a, const ro::JobResult& b);

}  // namespace perfbench
