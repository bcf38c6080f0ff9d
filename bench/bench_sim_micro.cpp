// E15b — replay data-plane micro-benchmarks (native, always built): LRU
// cache ops of the replay plane (FlatLru) against the node-based reference
// model (tests/lru_reference.h), trace recording rate, and full-replay
// throughput.  These bound how large the experiment sweeps can go, and
// they *gate* the flat plane's two contracts (docs/perf.md):
//
//   * exactness: every FlatLru op outcome (hit / evicted / victim) folds
//     into a checksum that must match the reference run of the same op
//     sequence exactly;
//   * speed: the replay-shaped mixed stream must run >= --min-speedup
//     (default 1.5x) faster on the flat plane than on the reference.
//
// Four op patterns, each A/B'd over {flat, reference} (JSON backends
// "flat" / "legacy"):
//
//   touch-hit   access() over a resident working set (pure hit path)
//   miss-evict  access() over a strided cold stream (every op evicts)
//   invalidate  access() + invalidate() pairs (coherence removal path)
//   mix         replay-shaped: hot-set hits, cold misses with eviction,
//               periodic invalidations (the touch_block op profile)
//
//   $ ./bench_sim_micro [--lines=256] [--ops=4194304] [--reps=3]
//                       [--n=32768] [--p=8] [--min-speedup=1.5]
//                       [--out=BENCH_sim_micro.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/lru_reference.h"
#include "common.h"
#include "ro/sim/cache.h"

using namespace ro;
using namespace ro::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates every access outcome so (a) the optimizer cannot drop the
/// loop and (b) two cache implementations can be checked op-for-op equal.
struct Outcome {
  uint64_t sum = 0;
  void fold(const CacheAccess& r) {
    sum = sum * 3 + (r.hit ? 1 : 0) + (r.evicted ? 2 : 0) * (r.victim + 1);
  }
  void fold(bool b) { sum = sum * 3 + (b ? 1 : 0); }
};

/// One timed run of `ops` pattern steps against a fresh cache of
/// `lines` lines; returns wall ms and the outcome checksum.
template <class Cache, class Pattern>
std::pair<double, uint64_t> run_pattern(uint32_t lines, uint64_t ops,
                                        Pattern&& step) {
  Cache c(lines);
  Outcome o;
  const double t0 = now_ms();
  for (uint64_t i = 0; i < ops; ++i) step(c, i, o);
  const double t1 = now_ms();
  return {t1 - t0, o.sum};
}

struct AbRow {
  std::string label;
  double flat_ms = 0;
  double ref_ms = 0;
  uint64_t ops = 0;
  double speedup() const { return flat_ms > 0 ? ref_ms / flat_ms : 0; }
  double flat_mops() const { return flat_ms > 0 ? ops / flat_ms / 1e3 : 0; }
  double ref_mops() const { return ref_ms > 0 ? ops / ref_ms / 1e3 : 0; }
};

/// A/B one pattern over the flat plane and the reference: interleaved
/// passes (a load spike hits both sides alike), min-of-reps, checksums
/// RO_CHECK'd equal — both must produce the identical op-outcome sequence.
template <class Pattern>
AbRow ab(const std::string& label, uint32_t lines, uint64_t ops, int reps,
         Pattern&& step) {
  AbRow r;
  r.label = label;
  r.ops = ops;
  uint64_t flat_sum = 0, ref_sum = 0;
  run_pattern<FlatLru>(lines, ops, step);  // warmup (page-in, branch train)
  run_pattern<LruCache>(lines, ops, step);
  for (int i = 0; i < reps; ++i) {
    const auto [fm, fs] = run_pattern<FlatLru>(lines, ops, step);
    const auto [lm, ls] = run_pattern<LruCache>(lines, ops, step);
    flat_sum = fs;
    ref_sum = ls;
    r.flat_ms = (i == 0 || fm < r.flat_ms) ? fm : r.flat_ms;
    r.ref_ms = (i == 0 || lm < r.ref_ms) ? lm : r.ref_ms;
  }
  RO_CHECK_MSG(flat_sum == ref_sum,
               "flat and reference LRU disagree on an op outcome sequence");
  return r;
}

std::string fx(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fx", v);
  return buf;
}

void json_row(std::string& s, const std::string& label,
              const std::string& backend, double wall_ms,
              double items_per_sec) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"label\": \"%s\", \"backend\": \"%s\", "
                "\"wall_ms\": %.3f, \"items_per_sec\": %.0f}",
                label.c_str(), backend.c_str(), wall_ms, items_per_sec);
  if (s.size() > 1) s += ",\n ";
  s += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const uint32_t lines = static_cast<uint32_t>(cli.get_int("lines", 256));
  const uint64_t ops =
      static_cast<uint64_t>(cli.get_int("ops", int64_t{1} << 22));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const size_t n = static_cast<size_t>(cli.get_int("n", 1 << 15));
  const uint32_t p = static_cast<uint32_t>(cli.get_int("p", 8));
  const double min_speedup = cli.get_double("min-speedup", 1.5);
  std::string json = "[";

  // ---- LRU op patterns, flat vs reference ------------------------------
  std::vector<AbRow> rows;

  // Pure hit path: resident working set, every access touches.
  rows.push_back(ab(
      "sim-lru-hit", lines, ops, reps, [&](auto& c, uint64_t i, Outcome& o) {
        o.fold(c.access(i % lines));
      }));

  // Every access a cold/capacity miss with an eviction once warm.
  rows.push_back(ab("sim-lru-evict", lines, ops, reps,
                    [&](auto& c, uint64_t i, Outcome& o) {
                      o.fold(c.access(i));
                    }));

  // Coherence removal path: insert then invalidate, alternating.
  rows.push_back(ab("sim-lru-inval", lines, ops, reps,
                    [&](auto& c, uint64_t i, Outcome& o) {
                      const uint64_t b = i / 2 % (2 * lines);
                      if ((i & 1) == 0) o.fold(c.access(b));
                      else o.fold(c.invalidate(b));
                    }));

  // Replay-shaped mix (the touch_block op profile): mostly hot-set hits, a
  // cold tail of evicting misses, periodic invalidations of hot blocks.
  // Deterministic Rng, same sequence both planes.
  {
    Rng rng(0xF1A7);
    std::vector<uint64_t> seq(ops);
    std::vector<uint8_t> kind(ops);
    const uint64_t hot = lines / 2, cold = uint64_t{lines} * 16;
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t r = rng.next_below(100);
      if (r < 90) {
        seq[i] = rng.next_below(hot);  // hot hit
        kind[i] = 0;
      } else if (r < 98) {
        seq[i] = hot + rng.next_below(cold);  // cold miss -> evict
        kind[i] = 0;
      } else {
        seq[i] = rng.next_below(hot);  // invalidate a hot block
        kind[i] = 1;
      }
    }
    rows.push_back(ab("sim-lru-mix", lines, ops, reps,
                      [&](auto& c, uint64_t i, Outcome& o) {
                        if (kind[i] == 0) o.fold(c.access(seq[i]));
                        else o.fold(c.invalidate(seq[i]));
                      }));
  }

  Table t("LRU data plane: flat vs reference (" + std::to_string(lines) +
          " lines, " + std::to_string(ops) + " ops, min of " +
          std::to_string(reps) + ")");
  t.header({"pattern", "flat ms", "ref ms", "flat Mop/s", "ref Mop/s",
            "speedup"});
  for (const AbRow& r : rows) {
    t.row({r.label, Table::num(r.flat_ms), Table::num(r.ref_ms),
           Table::num(r.flat_mops()), Table::num(r.ref_mops()),
           fx(r.speedup())});
    json_row(json, r.label, "flat", r.flat_ms, r.ops / r.flat_ms * 1e3);
    // "legacy" names the reference row, as it always has in BENCH_history.
    json_row(json, r.label, "legacy", r.ref_ms, r.ops / r.ref_ms * 1e3);
  }
  t.print();

  // The acceptance gate: the replay-shaped stream must be measurably
  // faster on the flat plane, not merely tied.
  const AbRow& mix = rows.back();
  std::printf("\nmix speedup %.2fx (gate: >= %.2fx)\n", mix.speedup(),
              min_speedup);
  RO_CHECK_MSG(mix.speedup() >= min_speedup,
               "flat LRU is not fast enough on the replay-shaped stream");

  // ---- trace recording rate --------------------------------------------
  {
    const double t0 = now_ms();
    TaskGraph g = rec_msum(n);
    const double rec_ms = now_ms() - t0;
    const double rate = g.accesses.size() / rec_ms * 1e3;
    std::printf("\nrecord: %zu accesses in %.2f ms (%.2f Macc/s)\n",
                g.accesses.size(), rec_ms, rate / 1e6);
    json_row(json, "sim-record", "native", rec_ms, rate);

    // ---- full replay ----------------------------------------------------
    Table rt("Replay: flat data plane");
    rt.header({"scheduler", "ms", "Macc/s"});
    struct Leg {
      const char* label;
      SchedKind kind;
      uint32_t p;
    };
    for (const Leg& leg : {Leg{"sim-replay-seq", SchedKind::kSeq, 1},
                           Leg{"sim-replay-pws", SchedKind::kPws, p}}) {
      const SimConfig c = cfg(leg.p, 1 << 12, 32);
      double ms = 0;
      for (int i = 0; i < reps; ++i) {
        const double t1 = now_ms();
        simulate(g, leg.kind, c);
        const double f = now_ms() - t1;
        ms = (i == 0 || f < ms) ? f : ms;
      }
      const double rate = g.accesses.size() / ms * 1e3;
      rt.row({leg.label, Table::num(ms), Table::num(rate / 1e6)});
      json_row(json, leg.label, "flat", ms, rate);
    }
    rt.print();
  }

  json += "]\n";
  const std::string out = cli.get_str("out", "BENCH_sim_micro.json");
  std::ofstream f(out);
  f << json;
  if (!f) {
    std::fprintf(stderr, "error: could not write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote bench rows to %s\n", out.c_str());
  return 0;
}
