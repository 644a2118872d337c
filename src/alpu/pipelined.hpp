// Stage-level pipelined ALPU (Section V-D), on the RTL datapath.
//
// The transaction-level `Alpu` charges whole-operation latencies against
// an idealized array.  This model executes the actual pipeline:
//
//   stage 1   fan out the probe to the cell blocks (registered copies)
//   stage 2   every cell compares; match bits latch
//   stage 3   intra-block priority muxing
//   stage 4   cross-block priority reduction (1 cycle, 2 when >= 16
//             blocks — the Tables IV/V latency split)
//   stage 5   fan out the delete-location broadcast
//   stage 6   delete the matched cell (younger cells shift up)
//
// with the RtlAlpu providing the storage: inserts physically enter at
// cell 0 and drift toward the old end, so insert throughput shows the
// real block-boundary bubbles, and compaction proceeds in the
// background on every idle cycle.
//
// The Figure-3 control (insert mode, held failures, command legality)
// is AlpuCore's, shared with `Alpu`; the differential test drives both
// models with identical stimulus and requires identical response
// streams.  The stage model implements neither the SEU fault model nor
// the RESET MATCHING extension (it discards the command).
#pragma once

#include <string>

#include "alpu/core.hpp"
#include "alpu/rtl.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {

class PipelinedAlpu : public AlpuCore {
 public:
  PipelinedAlpu(sim::Engine& engine, std::string name,
                const AlpuConfig& config);

  std::size_t occupancy() const override { return rtl_.occupancy(); }
  const RtlAlpu& datapath() const { return rtl_; }

  /// Pipeline depth for a match in this configuration (6 or 7).
  static unsigned match_stages(const AlpuConfig& config) {
    return 5 + (block_count(config) >= 16 ? 2 : 1);
  }
  unsigned match_stages() const { return match_stages(config_); }

 private:
  bool tick();
  void reset_datapath() override { rtl_.reset(); }

  RtlAlpu rtl_;
  /// Latched at the compare stage (the architectural match point).
  ArrayMatch latched_match_{};
};

}  // namespace alpu::hw
