// Transient-fault (SEU) model for the ALPU's SRAM planes.
//
// The match array is a dense associative SRAM — exactly the structure
// most exposed to single-event upsets on a real NIC.  This header holds
// the configuration, counters and per-array state of the fault
// subsystem:
//
//   * a seeded injector that flips one random bit of one random plane
//     (bits/mask/cookie/validity) per firing, driven by the same
//     fixed-draw discipline as `net::FaultInjector` (every tick consumes
//     the same number of RNG draws whether or not it fires), so runs are
//     reproducible from a seed and byte-identical across shard counts;
//   * per-cell parity on the data planes and per-word parity on the
//     validity bitmap, maintained by AlpuArray's mutators and verified
//     in bulk at every probe/sweep (all parity checkers evaluate in
//     parallel in hardware) — corruption is *detected* and quarantines
//     the unit instead of silently mis-matching;
//   * the knobs of the firmware recovery path: a background scrub sweep
//     that bounds detection latency for corruption in dormant entries.
//
// `SeuConfig::any() == false` (the default) installs nothing: the
// zero-rate path allocates no parity state and adds no work to the
// probe hot path, so performance baselines are unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace alpu::hw {

/// Injection tick: upsets are drawn once per this much simulated time
/// (lazily, caught up at the unit's next operation — a free-running
/// per-tick process would keep the event heap alive forever).
inline constexpr common::TimePs kSeuTickPs = 1'000'000;  // 1 us

/// Consecutive scrub sweeps with no unit activity before the scrub
/// clock parks (re-armed by the next probe/command), so an idle unit
/// cannot keep the simulation from draining.
inline constexpr unsigned kScrubIdleLimit = 4;

struct SeuConfig {
  /// Probability that one bit flip fires per injection tick (per unit).
  /// 0 disables injection (parity may still be installed for scrubbing).
  double rate = 0.0;
  /// Injector stream seed.  The NIC derives a distinct per-unit stream
  /// from this (node id and flavour folded in), like per-link fault
  /// streams, so units corrupt independently but reproducibly.
  std::uint64_t seed = 0x5eed;
  /// Background scrub sweep period; 0 disables scrubbing (corruption is
  /// then only detected when a probe or sweep touches the array).
  common::TimePs scrub_interval_ps = 0;
  /// Install parity protection even with no injector and no scrub.  The
  /// bounded model checker uses this: it corrupts deterministically
  /// (OpKind::kCorrupt -> corrupt_for_test) and needs only detection.
  bool force_parity = false;

  /// True if any part of the fault model must be installed.
  bool any() const {
    return rate > 0.0 || scrub_interval_ps > 0 || force_parity;
  }
};

/// Counters of the fault subsystem, per unit (summed per NIC).
struct SeuStats {
  std::uint64_t seu_injected = 0;   ///< bit flips written into the planes
  std::uint64_t parity_faults = 0;  ///< detection episodes (quarantines)
  std::uint64_t scrub_sweeps = 0;   ///< background verify sweeps run
  /// Injection-to-detection latency, summed over episodes whose first
  /// pending flip came from the injector (divide by parity_faults for
  /// the mean the EXPERIMENTS robustness note reports).
  common::TimePs detect_latency_sum_ps = 0;

  SeuStats& operator+=(const SeuStats& o) {
    seu_injected += o.seu_injected;
    parity_faults += o.parity_faults;
    scrub_sweeps += o.scrub_sweeps;
    detect_latency_sum_ps += o.detect_latency_sum_ps;
    return *this;
  }
};

/// Per-array fault-model state (parity bitmaps + injector stream).
/// Owned by AlpuArray when installed; all logic lives in AlpuArray,
/// which is the only code with plane access.  Members the detection
/// path latches from const probe methods are plain (the state is
/// reached through a unique_ptr, which does not propagate constness).
struct SeuState {
  explicit SeuState(const SeuConfig& cfg, std::uint64_t stream)
      : config(cfg), rng(stream) {}

  SeuConfig config;
  common::Xoshiro256 rng;
  /// Injection ticks consumed up to this simulated time.
  common::TimePs last_tick = 0;
  /// Time of the most recent catch-up (stamps detection latency).
  common::TimePs last_advance = 0;
  /// Time of the oldest injected-but-undetected flip, or kTimeNever.
  common::TimePs first_pending_inject = common::kTimeNever;
  /// Sticky until RESET: every probe answers PARITY FAULT while set.
  bool quarantined = false;
  SeuStats stats;

  // Parity bitmaps: bit i of word i/64 protects cell i of the matching
  // data plane; bit w of parity_valid[w/64] protects validity word w.
  std::vector<std::uint64_t> parity_bits;
  std::vector<std::uint64_t> parity_mask;
  std::vector<std::uint64_t> parity_cookie;
  std::vector<std::uint64_t> parity_valid;
};

}  // namespace alpu::hw
