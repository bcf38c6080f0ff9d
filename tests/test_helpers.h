// Shared helpers for the algorithm test suites: run an algorithm under
// SeqCtx for the golden output, re-run under TraceCtx, check equality, and
// optionally replay under every scheduler (through the shared Engine) to
// assert engine invariants.
#pragma once

#include <gtest/gtest.h>

#include "ro/core/seq_ctx.h"
#include "ro/core/trace_ctx.h"
#include "ro/core/validate.h"
#include "ro/engine/engine.h"
#include "ro/sched/run.h"

namespace ro::testing {

/// Process-wide Engine shared by the test suites (replay only creates no
/// thread pools; parallel-backend tests size their own pools explicitly).
inline Engine& engine() {
  static Engine e;
  return e;
}

/// Replays `g` under SEQ/PWS/RWS at a default machine and asserts the
/// engine-level invariants that must hold for every recorded computation.
inline void check_schedulers(const TaskGraph& g, uint32_t p = 4,
                             uint64_t M = 1 << 12, uint32_t B = 32) {
  SimConfig cfg;
  cfg.p = p;
  cfg.M = M;
  cfg.B = B;
  const GraphStats st = g.analyze();  // once for all four replays
  const Metrics seq =
      engine().replay(g, Backend::kSeq, cfg, /*seq_baseline=*/false, "", &st)
          .sim;
  EXPECT_EQ(seq.block_misses(), 0u);
  EXPECT_EQ(seq.steals(), 0u);
  const Metrics pws =
      engine().replay(g, Backend::kSimPws, cfg, false, "", &st).sim;
  const Metrics rws =
      engine().replay(g, Backend::kSimRws, cfg, false, "", &st).sim;
  // Same computation: identical total compute under every scheduler.
  EXPECT_EQ(seq.compute(), pws.compute());
  EXPECT_EQ(seq.compute(), rws.compute());
  // Determinism of PWS.
  const Metrics pws2 =
      engine().replay(g, Backend::kSimPws, cfg, false, "", &st).sim;
  EXPECT_EQ(pws.makespan, pws2.makespan);
  EXPECT_EQ(pws.block_misses(), pws2.block_misses());
  // Note: makespan <= seq and the per-priority steal bound (Obs 4.3) are
  // asserted in test_sched on single-BP graphs with n >> overheads; they do
  // not hold for arbitrary tiny or heavily-sequenced computations.
}

/// Limited-access assertion with an explicit bound (Def 2.4).
inline void check_limited(const TaskGraph& g, uint32_t k = 2) {
  const auto rep = ro::check_limited_access(g);
  EXPECT_LE(rep.max_writes_per_location, k);
}

/// FNV-1a over a sequence of 64-bit values — the digest behind the golden
/// checks, which pin a replay's full observable output in one number.
class Fingerprint {
 public:
  Fingerprint& add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ull;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Digest of every field of a Metrics, in declaration order.
inline uint64_t fingerprint(const Metrics& m) {
  Fingerprint f;
  f.add(m.core.size());
  for (const CoreMetrics& c : m.core) {
    f.add(c.compute);
    for (const auto& row : c.miss) {
      for (const uint64_t v : row) f.add(v);
    }
    f.add(c.steals).add(c.steal_attempts).add(c.usurpations).add(c.idle);
    f.add(c.steal_cycles).add(c.finish).add(c.l2_hits).add(c.hold_waits);
  }
  f.add(m.makespan).add(m.steals_per_priority.size());
  for (const auto& [depth, steals] : m.steals_per_priority) {
    f.add(depth).add(steals);
  }
  f.add(m.max_block_transfers).add(m.total_block_transfers);
  return f.add(m.stack_words).value();
}

}  // namespace ro::testing
