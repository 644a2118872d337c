// Transaction-level model of the Associative List Processing Unit
// (Section III).
//
// The Figure-3 control, the FIFOs and the hold/retry rule live in
// AlpuCore; this model supplies the functional match array (AlpuArray)
// and charges whole-operation latencies against it: a new match every
// `match_latency_cycles` (6-7, no execution overlap), inserts every
// other cycle, a RESET MATCHING sweep one cycle per cell block.  It also
// carries the transient-fault model (SEU injection, parity, scrub).
#pragma once

#include <cstdint>
#include <string>

#include "alpu/array.hpp"
#include "alpu/core.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {

/// The ALPU as a simulation component (transaction-level model).
class Alpu : public AlpuCore {
 public:
  Alpu(sim::Engine& engine, std::string name, const AlpuConfig& config);

  const AlpuArray& array() const { return array_; }
  std::size_t occupancy() const override { return array_.occupancy(); }

  // ---- transient-fault model ----

  /// True while the array is quarantined by a latched parity fault.
  bool fault_pending() const override { return array_.quarantined(); }
  SeuStats seu_stats() const override { return array_.seu_stats(); }
  /// Direct corruption for the checker's kCorrupt op and the fuzzers
  /// (see AlpuArray::corrupt_for_test).
  void corrupt_for_test(unsigned plane, std::size_t cell, unsigned bit) {
    array_.corrupt_for_test(plane, cell, bit);
  }

 private:
  bool tick();
  void complete_op();
  bool scrub_tick();
  void reset_datapath() override { array_.reset(); }
  void note_activity() override;

  AlpuArray array_;
  /// Background parity scrub (constructed always, woken only when
  /// enabled).  Parks after kScrubIdleLimit sweeps with no unit
  /// activity so an idle unit lets the event heap drain.
  sim::Clock scrub_clock_;
  bool scrub_enabled_ = false;
  unsigned idle_scrubs_ = 0;
  std::uint64_t ops_since_scrub_ = 0;
};

}  // namespace alpu::hw
