// Protocol fuzzing for the cycle-level ALPU, plus differential fuzzing
// of the SoA match engine against the list specification.
//
// Protocol suite: random command/probe streams — including protocol
// violations the firmware is told never to commit — must never deadlock
// the unit or break its externally guaranteed invariants:
//   (1) every probe eventually gets exactly one response, in probe order;
//   (2) MATCH FAILURE is never observed between START ACK and STOP INSERT;
//   (3) occupancy == inserts - successes - flushed (within a session's
//       drops), and never exceeds capacity;
//   (4) the unit goes idle (stops consuming events) when starved.
//
// Differential suite: random insert / probe / sweep / reset sequences —
// wildcard masks and SEU corrupt-and-rebuild episodes included — are
// built as check::Op streams and replayed by check::check_sequence,
// which drives AlpuArray (the word-parallel SoA engine) and
// check::ListSpec side by side: every result and the full cell-level
// state must agree after every step, through full-array and empty-array
// edges, and a failure shrinks to a minimal counterexample.
#include <gtest/gtest.h>

#include <deque>
#include <tuple>
#include <vector>

#include "alpu/alpu.hpp"
#include "alpu/array.hpp"
#include "check/checker.hpp"
#include "check/spec.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {
namespace {

constexpr common::TimePs kCycle = 2'000;

class AlpuFuzz : public ::testing::TestWithParam<
                     std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(AlpuFuzz, RandomStreamsPreserveInvariants) {
  const auto [cells, block, seed] = GetParam();
  common::Xoshiro256 rng(seed);

  sim::Engine engine;
  AlpuConfig cfg;
  cfg.total_cells = cells;
  cfg.block_size = block;
  cfg.clock = common::ClockPeriod{kCycle};
  cfg.header_fifo_depth = 16;
  cfg.command_fifo_depth = 16;
  cfg.result_fifo_depth = 16;
  Alpu unit(engine, "fuzz", cfg);

  std::uint64_t next_seq = 1;
  std::deque<std::uint64_t> outstanding;  // probes awaiting responses
  std::uint64_t observed_acks = 0;

  // (Invariant 2 — no failure between ACK and STOP — is checked
  // deterministically in test_alpu_unit.cpp; observing it from outside a
  // racing fuzz driver is not well-defined, since a response popped now
  // may have been emitted before the session we currently see.)
  const auto drain_results = [&] {
    while (auto r = unit.pop_result()) {
      switch (r->kind) {
        case ResponseKind::kStartAck:
          ++observed_acks;
          break;
        case ResponseKind::kMatchSuccess:
        case ResponseKind::kMatchFailure:
          ASSERT_FALSE(outstanding.empty());
          ASSERT_EQ(r->probe_seq, outstanding.front())
              << "responses out of probe order";
          outstanding.pop_front();
          break;
        case ResponseKind::kParityFault:
          // No fault model installed in this suite: a parity fault here
          // would mean the unit invented corruption out of thin air.
          FAIL() << "parity fault without a fault model";
          break;
      }
    }
  };

  for (int step = 0; step < 3'000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.35) {
      // A probe (may or may not match).
      Probe p;
      p.bits = match::pack(match::Envelope{
          0, static_cast<std::uint32_t>(rng.below(4)),
          static_cast<std::uint32_t>(rng.below(4))});
      p.seq = next_seq;
      if (unit.push_probe(p)) {
        outstanding.push_back(next_seq++);
      }
    } else if (roll < 0.75) {
      // A command, sometimes illegal for the current state.
      Command cmd;
      const double kind = rng.uniform01();
      if (kind < 0.3) {
        cmd.kind = CommandKind::kStartInsert;
      } else if (kind < 0.75) {
        cmd.kind = CommandKind::kInsert;
        const auto pat = match::make_recv_pattern(
            0,
            rng.chance(0.3) ? std::nullopt
                            : std::optional<std::uint32_t>{
                                  static_cast<std::uint32_t>(rng.below(4))},
            static_cast<std::uint32_t>(rng.below(4)));
        cmd.bits = pat.bits;
        cmd.mask = pat.mask;
        cmd.cookie = static_cast<Cookie>(step);
      } else if (kind < 0.9) {
        cmd.kind = CommandKind::kStopInsert;
      } else if (kind < 0.97) {
        cmd.kind = CommandKind::kReset;
      } else {
        cmd.kind = CommandKind::kResetMatching;
        cmd.bits = 0;
        cmd.mask = ~match::kSourceMask;  // flush everything with src 0
      }
      (void)unit.push_command(cmd);
    }
    // Let time pass and consume results.
    engine.run_until(engine.now() +
                     (1 + rng.below(4)) * kCycle);
    drain_results();
    ASSERT_LE(unit.array().occupancy(), cells);  // invariant (3), bound
  }

  // Close any open session and drain everything.
  for (int i = 0; i < 4; ++i) {
    (void)unit.push_command({CommandKind::kStopInsert, 0, 0, 0});
    engine.run_until(engine.now() + 64 * kCycle);
    drain_results();
  }
  engine.run_until(engine.now() + 2'000 * kCycle);
  drain_results();
  EXPECT_TRUE(outstanding.empty())
      << outstanding.size() << " probes never answered";
  EXPECT_GT(observed_acks, 0u);

  // Invariant (4): a starved unit stops consuming engine events.
  const std::uint64_t events = engine.events_executed();
  engine.run_until(engine.now() + 10'000 * kCycle);
  EXPECT_LE(engine.events_executed() - events, 4u);

  // Bookkeeping closes: every insert either sits in the array, was
  // consumed by a success, was flushed, was dropped over capacity, or
  // vanished in a full RESET (whose per-entry count the unit does not
  // track, hence the inequality that tightens to equality without one).
  const AlpuStats& s = unit.stats();
  const std::uint64_t accounted = unit.array().occupancy() +
                                  s.match_successes + s.flushed_entries;
  EXPECT_LE(accounted, s.inserts);
  if (s.resets == 0) {
    EXPECT_EQ(s.inserts, accounted)
        << "insert conservation broken without any RESET";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlpuFuzz,
    ::testing::Values(std::make_tuple(16, 8, 1), std::make_tuple(32, 8, 2),
                      std::make_tuple(32, 16, 3),
                      std::make_tuple(64, 16, 4),
                      std::make_tuple(128, 32, 5),
                      std::make_tuple(16, 16, 6)));

// ---------------------------------------------------------------------------
// Differential fuzz: random op sequences through the checker's replay
// ---------------------------------------------------------------------------

using check::CheckOptions;
using check::CheckResult;
using check::ImplKind;
using check::ListSpec;
using check::Op;
using check::OpKind;

/// Random operation-sequence generator for the differential fuzzes.  It
/// tracks the list contents in its own ListSpec so it can steer a
/// sequence to the array's edges (fill to capacity, drain to empty) and
/// re-shadow after an upset; check::check_sequence then replays the ops
/// against a fresh AlpuArray and ListSpec and compares every observable
/// after every step.  Cookies are assigned at replay, so the generator's
/// are all 0.
struct OpStream {
  OpStream(AlpuFlavor flavor, std::size_t cells, std::uint64_t seed)
      : spec(flavor, cells, match::kFullMask), rng(seed) {}

  /// A small envelope universe so matches, misses, and duplicate
  /// patterns all occur with useful frequency.
  MatchWord word() {
    return match::pack(match::Envelope{
        static_cast<std::uint32_t>(rng.below(2)),
        static_cast<std::uint32_t>(rng.below(4)),
        static_cast<std::uint32_t>(rng.below(4))});
  }
  MatchWord mask() {
    switch (rng.below(5)) {
      case 0: return 0;                                     // exact
      case 1: return match::kSourceMask;                    // ANY_SOURCE
      case 2: return match::kTagMask;                       // ANY_TAG
      case 3: return match::kSourceMask | match::kTagMask;  // both
      default: return match::kFullMask;                     // match-all
    }
  }

  /// Append one op and apply it to the shadow spec.  A full array
  /// refuses an insert (and so must the DUT); a probe is probe-and-delete
  /// (the replay also checks the pure linear and priority-mux-tree
  /// answers first); a sweep is the RESET PROCESS multi-delete, which a
  /// match-all selector turns into a one-step flush.
  void push(OpKind kind, MatchWord bits = 0, MatchWord m = 0) {
    ops.push_back(Op{kind, bits, m, 0, 0});
    if (kind == OpKind::kInsert && !spec.insert(bits, m, 0) &&
        probed_since_refusal) {
      ++interleaved_refusals;
      probed_since_refusal = false;
    }
    if (kind == OpKind::kProbe) {
      (void)spec.match_and_delete(bits, m);
      probed_since_refusal = true;
    }
    if (kind == OpKind::kSweep) (void)spec.sweep(bits, m);
    if (kind == OpKind::kReset) spec.reset();
  }
  /// The same with a random envelope and wildcard mask.
  void push_random(OpKind kind) {
    const MatchWord bits = word();
    push(kind, bits, mask());
  }

  ListSpec spec;
  common::Xoshiro256 rng;
  std::vector<Op> ops;
  /// Refused inserts with at least one probe since the previous one:
  /// insert-when-full interleaved with probes that may free a slot.
  std::size_t interleaved_refusals = 0;
  bool probed_since_refusal = true;
};

class AlpuDifferentialFuzz
    : public ::testing::TestWithParam<
          std::tuple<AlpuFlavor, std::size_t, std::size_t, std::uint64_t>> {};

/// Random insert / probe / sweep / reset churn, wildcard masks included,
/// with one fill-heavy stretch at a seed-chosen step, then a
/// deterministic edge sweep: fill to capacity, one refused insert, drain
/// to empty, and a probe of the empty array.  `*refusals` receives the
/// random phase's interleaved refused inserts (OpStream).
std::vector<Op> differential_ops(AlpuFlavor flavor, std::size_t cells,
                                 std::uint64_t seed,
                                 std::size_t* refusals = nullptr) {
  OpStream s(flavor, cells, seed);
  const std::uint64_t fill_at = s.rng.below(4'000);
  for (std::uint64_t step = 0; step < 4'000; ++step) {
    if (step == fill_at) {
      // Sweeps and resets empty the array every few dozen steps, so the
      // churn alone never fills it.  This stretch only inserts and
      // probes, until the full array has refused ten inserts with
      // probes in between.
      while (s.interleaved_refusals < 10) {
        s.push_random(s.rng.chance(0.85) ? OpKind::kInsert : OpKind::kProbe);
      }
    }
    const double roll = s.rng.uniform01();
    if (roll < 0.97) {
      s.push_random(roll < 0.45   ? OpKind::kInsert
                    : roll < 0.85 ? OpKind::kProbe
                                  : OpKind::kSweep);
    } else {
      s.push(OpKind::kReset);
    }
  }
  if (refusals != nullptr) *refusals = s.interleaved_refusals;

  // Cells are inserted with a match-anything mask so the wildcard drain
  // probe hits under both flavours (posted matching consults the CELL's
  // stored mask, not the probe's).
  s.push(OpKind::kReset);
  while (!s.spec.full()) s.push(OpKind::kInsert, s.word(), match::kFullMask);
  s.push(OpKind::kInsert);  // refused: the array is full
  for (std::size_t i = 0; i <= cells; ++i) {
    s.push(OpKind::kProbe, 0, match::kFullMask);  // the last one misses
  }
  return s.ops;
}

TEST_P(AlpuDifferentialFuzz, SoAEngineAgreesWithReference) {
  const auto [flavor, cells, block, seed] = GetParam();
  CheckOptions opt;
  opt.cells = cells;
  opt.block = block;
  std::size_t refusals = 0;
  const CheckResult result = check::check_sequence(
      ImplKind::kArray, flavor, opt,
      differential_ops(flavor, cells, seed, &refusals));
  EXPECT_TRUE(result.ok) << check::format_counterexample(result);
  EXPECT_GE(refusals, 10u) << "the random phase never filled the array";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AlpuDifferentialFuzz,
    ::testing::Values(
        std::make_tuple(AlpuFlavor::kPostedReceive, 16, 8, 11),
        std::make_tuple(AlpuFlavor::kPostedReceive, 64, 16, 12),
        std::make_tuple(AlpuFlavor::kPostedReceive, 128, 16, 13),
        std::make_tuple(AlpuFlavor::kPostedReceive, 256, 16, 14),
        std::make_tuple(AlpuFlavor::kUnexpected, 64, 16, 15),
        std::make_tuple(AlpuFlavor::kUnexpected, 128, 32, 16),
        std::make_tuple(AlpuFlavor::kUnexpected, 256, 16, 17)));

// The fuzz route has teeth: the seeded datapath bugs the exhaustive
// check catches must also fail a generated sequence at full size.
class DifferentialFuzzTeeth : public ::testing::Test {
 protected:
  void TearDown() override {
    testing::inject_compaction_off_by_one = false;
    testing::inject_silent_flip.store(false, std::memory_order_relaxed);
  }

  static CheckResult run_fuzz_sequence() {
    CheckOptions opt;
    opt.cells = 256;
    opt.block = 16;
    return check::check_sequence(
        ImplKind::kArray, AlpuFlavor::kPostedReceive, opt,
        differential_ops(AlpuFlavor::kPostedReceive, 256, 14));
  }
};

TEST_F(DifferentialFuzzTeeth, CompactionOffByOneIsCaught) {
  testing::inject_compaction_off_by_one = true;
  const CheckResult result = run_fuzz_sequence();
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.divergence.empty());
  // Shrunk from the full trace to two inserts and the probe that deletes
  // the older one, the same minimum the exhaustive check finds.
  ASSERT_EQ(result.counterexample.size(), 3u)
      << check::format_counterexample(result);
  EXPECT_EQ(result.counterexample.back().kind, OpKind::kProbe);
}

TEST_F(DifferentialFuzzTeeth, SilentFlipIsCaught) {
  testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  const CheckResult result = run_fuzz_sequence();
  ASSERT_FALSE(result.ok);
  EXPECT_FALSE(result.counterexample.empty());
  EXPECT_FALSE(result.divergence.empty());
}

// ---------------------------------------------------------------------------
// SEU schedules: corrupt -> detect -> quarantine -> rebuild -> lockstep
// ---------------------------------------------------------------------------

class SeuDifferentialFuzz
    : public ::testing::TestWithParam<std::tuple<AlpuFlavor, std::uint64_t>> {
};

// The generator's ListSpec plays the NIC's software shadow list: after
// each corruption the replay demands immediate detection and quarantine
// (every match path and a sweep answer miss), then the sequence RESETs
// and re-inserts the shadow's contents, exactly the firmware's
// scrub-and-rebuild recovery, and lockstep must resume as if the flip
// never happened.
TEST_P(SeuDifferentialFuzz, CorruptDetectRebuildStaysInLockstep) {
  const auto [flavor, seed] = GetParam();
  constexpr std::size_t kCells = 64;
  constexpr std::size_t kBlock = 16;
  OpStream s(flavor, kCells, seed);

  std::uint64_t episodes = 0;
  for (int step = 0; step < 3'000; ++step) {
    if (s.rng.chance(0.01)) {
      // One upset: any plane, any cell (padded tail included — the
      // verify covers the whole SRAM, not just live entries), any bit.
      const std::uint64_t plane = s.rng.below(4);
      const std::uint64_t cell = s.rng.below(kCells);
      const auto bit = static_cast<Cookie>(
          plane == 2 ? s.rng.below(32) : plane == 3 ? 0 : s.rng.below(64));
      s.ops.push_back(Op{OpKind::kCorrupt, plane, cell, bit, 0});
      // A quarantined probe: the shadow list is not consulted.
      const MatchWord bits = s.word();
      s.ops.push_back(Op{OpKind::kProbe, bits, s.mask(), 0, 0});
      // Firmware recovery: RESET, then re-shadow from the software list.
      s.ops.push_back(Op{OpKind::kReset, 0, 0, 0, 0});
      for (const check::SpecEntry& e : s.spec.entries()) {
        s.ops.push_back(Op{OpKind::kInsert, e.bits, e.mask, 0, 0});
      }
      ++episodes;
      continue;
    }
    const double roll = s.rng.uniform01();
    s.push_random(roll < 0.45   ? OpKind::kInsert
                  : roll < 0.90 ? OpKind::kProbe
                                : OpKind::kSweep);
  }
  EXPECT_GT(episodes, 5u);  // the schedule actually exercised recovery

  CheckOptions opt;
  opt.cells = kCells;
  opt.block = kBlock;
  opt.faults = true;  // parity installed; flips come from the ops only
  const CheckResult result =
      check::check_sequence(ImplKind::kArray, flavor, opt, s.ops);
  EXPECT_TRUE(result.ok) << check::format_counterexample(result);
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, SeuDifferentialFuzz,
    ::testing::Values(std::make_tuple(AlpuFlavor::kPostedReceive, 21),
                      std::make_tuple(AlpuFlavor::kPostedReceive, 22),
                      std::make_tuple(AlpuFlavor::kUnexpected, 23),
                      std::make_tuple(AlpuFlavor::kUnexpected, 24)));

TEST(SeuInjector, FixedDrawScheduleIsSeedDeterministic) {
  const auto run = [](std::uint64_t stream) {
    AlpuArray a(AlpuFlavor::kPostedReceive, 64, 16);
    SeuConfig cfg;
    cfg.rate = 0.5;
    a.install_fault_model(cfg, stream);
    a.seu_advance(200 * kSeuTickPs);
    return a.seu_stats().seu_injected;
  };
  const std::uint64_t first = run(7);
  EXPECT_EQ(first, run(7));  // same stream, same flips
  // rate 0.5 over 200 ticks: statistically certain to fire many times.
  EXPECT_GT(first, 50u);
  EXPECT_LT(first, 150u);
}

TEST(SeuInjector, AdvanceIsIncrementallyConsistent) {
  // Catching up in many small steps or one big one must consume the
  // same draw schedule — that is what makes injection independent of
  // how often the unit happens to be poked (and of the shard count).
  AlpuArray big(AlpuFlavor::kPostedReceive, 64, 16);
  AlpuArray small(AlpuFlavor::kPostedReceive, 64, 16);
  SeuConfig cfg;
  cfg.rate = 0.25;
  big.install_fault_model(cfg, 99);
  small.install_fault_model(cfg, 99);
  big.seu_advance(400 * kSeuTickPs);
  for (common::TimePs t = 1; t <= 400; ++t) {
    small.seu_advance(t * kSeuTickPs);
  }
  EXPECT_EQ(big.seu_stats().seu_injected, small.seu_stats().seu_injected);
}

TEST(SeuScrub, DormantCorruptionIsDetectedWithoutAnyProbe) {
  // An entry corrupted and then never probed must still be found: the
  // background scrub bounds detection latency for dormant state.
  sim::Engine engine;
  AlpuConfig cfg;
  cfg.total_cells = 16;
  cfg.block_size = 8;
  cfg.clock = common::ClockPeriod{kCycle};
  cfg.seu.scrub_interval_ps = 50'000'000;  // 50 us, no injector
  Alpu unit(engine, "scrub", cfg);

  ASSERT_TRUE(unit.push_command({CommandKind::kStartInsert, 0, 0, 0}));
  const auto pat = match::make_recv_pattern(0, 3, 1);
  ASSERT_TRUE(
      unit.push_command({CommandKind::kInsert, pat.bits, pat.mask, 7}));
  ASSERT_TRUE(unit.push_command({CommandKind::kStopInsert, 0, 0, 0}));
  engine.run_until(engine.now() + 64 * kCycle);
  while (unit.pop_result().has_value()) {
  }
  ASSERT_EQ(unit.occupancy(), 1u);

  unit.corrupt_for_test(/*plane=*/0, /*cell=*/0, /*bit=*/14);
  ASSERT_FALSE(unit.fault_pending());  // not yet seen by anything
  engine.run();                        // scrub sweeps, then parks: drains
  EXPECT_TRUE(unit.fault_pending());
  const SeuStats s = unit.seu_stats();
  EXPECT_GE(s.scrub_sweeps, 1u);
  EXPECT_EQ(s.parity_faults, 1u);
}

}  // namespace
}  // namespace alpu::hw
