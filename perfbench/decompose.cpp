#include "decompose.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "jobs.h"
#include "ro/engine/workloads.h"
#include "ro/sched/run.h"

namespace perfbench {

namespace {

using namespace ro;
using Scope = Spans::Scope;

bool same_stats(const GraphStats& a, const GraphStats& b) {
  return a.work == b.work && a.span == b.span && a.max_depth == b.max_depth &&
         a.activations == b.activations && a.accesses == b.accesses &&
         a.leaves == b.leaves;
}

void add_stats(GraphStats& sum, const GraphStats& st) {
  sum.work += st.work;
  sum.span = std::max(sum.span, st.span);
  sum.max_depth = std::max(sum.max_depth, st.max_depth);
  sum.activations += st.activations;
  sum.accesses += st.accesses;
  sum.leaves += st.leaves;
}

void add_store_stats(RunReport& r, const TaskGraph& g) {
  if (!g.streaming()) return;
  r.has_stream = true;
  for (const StreamPart& part : g.streams) {
    const TraceStore::Stats st = part.store->stats();
    r.trace_segments += st.segments;
    r.trace_spilled_bytes += st.spilled_bytes;
    r.trace_compressed_bytes += st.compressed_bytes;
    r.trace_peak_resident_bytes += st.peak_resident_bytes;
  }
}

/// The wire step of the report span: encode the assembled result and parse
/// it back, as ro-serve and its clients do.
void encode(Decomposed& d) {
  if (!jobresult_from_json(d.built.to_json(), d.parsed) && d.error.empty())
    d.error = "the decomposed result does not parse back";
}

/// A report's machine and p = 1 baseline fields.
void set_sim(RunReport& r, const RunOptions& opt, SchedKind kind,
             const Metrics& main, const Metrics& base) {
  r.has_sim = true;
  r.p = kind == SchedKind::kSeq ? 1 : opt.sim.p;
  r.M = opt.sim.M;
  r.B = opt.sim.B;
  r.sim = main;
  r.has_baseline = true;
  r.q_seq = base.cache_misses();
  r.seq_makespan = base.makespan;
  r.cache_excess = excess(r.sim.cache_misses(), r.q_seq);
}

/// One shard's make_workload -> Engine::record -> analyze.
struct Shard {
  Recording rec;
  bool stats_match = true;
};

Shard record_shard(Engine& eng, const JobSpec& spec, uint32_t shard,
                   Spans& sp) {
  const RunOptions& opt = spec.opt;
  AnyProg prog;
  {
    Scope s(sp, "engine.make_workload");
    prog = make_workload(spec.workload, spec.n, spec.seed + shard);
  }
  Shard out;
  {
    Scope s(sp, "core.record");
    if (opt.trace.segment_tasks > 0) {
      StreamOptions st = opt.trace;
      if (opt.pipeline) st.async_spill = true;  // as submit records them
      out.rec = eng.record_stream(prog, st, opt.padded, opt.align_words, shard);
    } else {
      out.rec = eng.record(prog, opt.padded, opt.align_words, shard);
    }
  }
  {
    Scope s(sp, "core.analyze");
    out.stats_match = same_stats(out.rec.graph.analyze(), out.rec.stats);
  }
  return out;
}

void decompose_run(Engine& eng, const JobSpec& spec, Spans& sp,
                   Decomposed& d) {
  const RunOptions& opt = spec.opt;
  const SchedKind kind = sched_kind_of(opt.backend);
  Shard sh = record_shard(eng, spec, opt.shard, sp);
  if (!sh.stats_match) d.error = "analyze differs from the recording's stats";
  const TaskGraph& g = sh.rec.graph;
  Metrics main, base;
  {
    Scope s(sp, "sched.replay");
    main = simulate(g, kind, opt.sim);
  }
  {
    Scope s(sp, "sched.baseline");
    base = simulate(g, SchedKind::kSeq, opt.sim);
  }
  Scope s(sp, "engine.report");
  RunReport& r = d.built.report;
  r.label = opt.label;
  r.backend = opt.backend;
  r.has_graph = true;
  r.graph = sh.rec.stats;
  set_sim(r, opt, kind, main, base);
  add_store_stats(r, g);
  encode(d);
}

/// Batches: per-shard record, then either one shared machine for all shards
/// (capacity_shared) or one machine per shard merged in shard order.
void decompose_batch(Engine& eng, const JobSpec& spec, Spans& sp,
                     Decomposed& d) {
  const RunOptions& opt = spec.opt;
  const SchedKind kind = sched_kind_of(opt.backend);
  const uint32_t n = std::max<uint32_t>(1, spec.shards);
  std::vector<TaskGraph> graphs;
  std::vector<GraphStats> stats;
  for (uint32_t i = 0; i < n; ++i) {
    Shard sh = record_shard(eng, spec, i, sp);
    if (!sh.stats_match) d.error = "analyze differs from the recording's stats";
    stats.push_back(sh.rec.stats);
    graphs.push_back(std::move(sh.rec.graph));
  }
  BatchReport& br = d.built.batch;
  d.built.has_batch = true;
  RunReport& agg = br.aggregate;
  br.label = agg.label = opt.label;
  br.backend = agg.backend = opt.backend;
  br.shards = n;
  br.replay_threads = opt.sim.replay_threads;
  br.pipelined = opt.pipeline && !opt.capacity_shared;
  br.capacity_shared = opt.capacity_shared;
  agg.has_graph = true;
  for (const GraphStats& st : stats) add_stats(agg.graph, st);

  if (opt.capacity_shared) {
    TaskGraph merged;
    {
      Scope s(sp, "core.merge_shards");
      merged = merge_shards(std::move(graphs));
    }
    std::vector<TenantShare> shares, base_shares;
    Metrics main, base;
    {
      Scope s(sp, "sched.replay");
      main = simulate_shared(merged, kind, opt.sim, &shares);
    }
    {
      Scope s(sp, "sched.baseline");
      base = simulate_shared(merged, SchedKind::kSeq, opt.sim, &base_shares);
    }
    Scope s(sp, "engine.report");
    for (size_t i = 0; i < shares.size(); ++i) {
      RunReport r;
      r.label = opt.label + "#" + std::to_string(i);
      r.backend = opt.backend;
      r.has_graph = true;
      r.graph = stats[i];
      r.has_tenant = true;
      r.tenant = r.label;
      r.tenant_compute = shares[i].compute;
      r.tenant_cache_misses = shares[i].cache_misses;
      r.tenant_block_misses = shares[i].block_misses;
      r.tenant_transfers = shares[i].transfers;
      r.has_baseline = true;
      r.q_seq = base_shares[i].cache_misses;
      r.seq_makespan = base.makespan;
      r.cache_excess = excess(r.tenant_cache_misses, r.q_seq);
      br.runs.push_back(std::move(r));
    }
    set_sim(agg, opt, kind, main, base);
    add_store_stats(agg, merged);
    encode(d);
    return;
  }

  // Each shard replays on its own machine, one host thread per walk, as a
  // pipelined batch's per-shard chains do.
  SimConfig cfg = opt.sim;
  cfg.replay_threads = 1;
  std::vector<Metrics> main(n), base(n);
  {
    Scope s(sp, "sched.replay");
    for (uint32_t i = 0; i < n; ++i) main[i] = simulate(graphs[i], kind, cfg);
  }
  {
    Scope s(sp, "sched.baseline");
    for (uint32_t i = 0; i < n; ++i)
      base[i] = simulate(graphs[i], SchedKind::kSeq, cfg);
  }
  Scope s(sp, "engine.report");
  for (uint32_t i = 0; i < n; ++i) {
    RunReport r;
    r.label = opt.label + "#" + std::to_string(i);
    r.backend = opt.backend;
    r.has_graph = true;
    r.graph = stats[i];
    set_sim(r, opt, kind, main[i], base[i]);
    add_store_stats(r, graphs[i]);
    br.runs.push_back(std::move(r));
    add_store_stats(agg, graphs[i]);
  }
  set_sim(agg, opt, kind, merge_shard_metrics(main),
          merge_shard_metrics(base));
  encode(d);
}

void decompose_diagnose(Engine& eng, const JobSpec& spec, Spans& sp,
                        Decomposed& d) {
  Shard sh = record_shard(eng, spec, spec.opt.shard, sp);
  if (!sh.stats_match) d.error = "analyze differs from the recording's stats";
  {
    Scope s(sp, "doctor.diagnose");
    d.built.doctor = eng.diagnose(sh.rec.graph, spec.opt.backend,
                                  spec.opt.sim, spec.doc, spec.opt.label);
  }
  Scope s(sp, "engine.report");
  d.built.has_doctor = true;
  encode(d);
}

bool same_report(const RunReport& a, const RunReport& b) {
  return a.sim == b.sim && a.q_seq == b.q_seq &&
         a.seq_makespan == b.seq_makespan;
}

}  // namespace

Decomposed decompose(Engine& eng, const JobSpec& spec, uint64_t job,
                     Spans& sp) {
  Decomposed d;
  if (spec.workload.empty() || !backend_is_sim(spec.opt.backend)) {
    d.error = "only named workloads on sim backends decompose";
    return d;
  }
  sp.set_job(job);
  const size_t first = sp.size();
  {
    Scope s(sp, "job");
    d.built.tenant = spec.tenant;
    d.built.tag = spec.tag;
    d.built.kind = spec.kind;
    switch (spec.kind) {
      case JobKind::kRun:
        decompose_run(eng, spec, sp, d);
        break;
      case JobKind::kBatch:
        decompose_batch(eng, spec, sp, d);
        break;
      case JobKind::kDiagnose:
        decompose_diagnose(eng, spec, sp, d);
        break;
    }
  }
  JobLayers& l = d.layers;
  l.job_ms = sp.total_ms("job", first);
  l.analyze_ms = sp.total_ms("core.analyze", first);
  l.record_ms = sp.total_ms("core.record", first) - l.analyze_ms;
  l.replay_ms = sp.total_ms("sched.replay", first);
  l.baseline_ms = sp.total_ms("sched.baseline", first);
  l.diagnose_ms = sp.total_ms("doctor.diagnose", first);
  l.report_ms = sp.total_ms("engine.report", first);
  return d;
}

bool same_outcome(const JobResult& a, const JobResult& b) {
  if (a.status != b.status || a.has_batch != b.has_batch ||
      a.has_doctor != b.has_doctor)
    return false;
  if (golden_fields(a) != golden_fields(b)) return false;
  if (a.has_doctor) {
    return same_report(a.doctor.before, b.doctor.before) &&
           same_report(a.doctor.after, b.doctor.after) &&
           a.doctor.plan == b.doctor.plan && a.doctor.findings == b.doctor.findings;
  }
  if (a.has_batch) {
    if (!same_report(a.batch.aggregate, b.batch.aggregate) ||
        a.batch.runs.size() != b.batch.runs.size())
      return false;
    for (size_t i = 0; i < a.batch.runs.size(); ++i)
      if (!same_report(a.batch.runs[i], b.batch.runs[i])) return false;
    return true;
  }
  return same_report(a.report, b.report);
}

}  // namespace perfbench
