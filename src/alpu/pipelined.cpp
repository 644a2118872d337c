#include "alpu/pipelined.hpp"

#include <optional>

#include "common/check.hpp"

namespace alpu::hw {

PipelinedAlpu::PipelinedAlpu(sim::Engine& engine, std::string name,
                             const AlpuConfig& config)
    : AlpuCore(engine, std::move(name), config, match_stages(config),
               /*flush_cycles=*/0, [this] { return tick(); }),
      rtl_(config.flavor, config.total_cells, config.block_size,
           config.significant_mask) {
  ALPU_ASSERT(!config.seu.any(),
              "the SEU fault model is only implemented for the "
              "transaction-level ALPU (use --alpu-model transaction)");
}

bool PipelinedAlpu::tick() {
  switch (op_) {
    case Op::kMatch: {
      // Count down through the stages; the compare latches the match
      // at stage 2, and a successful match's delete commits on the
      // last stage.  No data movement happens during a match op
      // outside the delete itself (Section III-B enables transfers
      // only on match-delete or during inserts).
      if (op_cycles_ + 1 == match_stages()) {
        latched_match_ = rtl_.match(current_probe_);
      }
      if (--op_cycles_ == 0) {
        op_ = Op::kNone;
        if (latched_match_.hit) {
          // Stage 6: commit the delete at the latched location (no
          // movement occurred since the compare, so the location is
          // still current).
          const bool ok = rtl_.step(std::nullopt, latched_match_.location);
          ALPU_ASSERT(ok,
                      "latched delete location no longer names a valid cell");
          (void)ok;
        }
        finish_match(latched_match_, /*parity_fault=*/false);
      }
      return true;
    }
    case Op::kInsert: {
      if (op_cycles_ == kInsertIntervalCycles) {
        // Write cycle.  Past the granted count (firmware protocol
        // violation) there is nowhere to put the entry: drop it, as the
        // transaction model does.
        const bool full = rtl_.occupancy() == capacity();
        if (!full && !rtl_.can_insert()) {
          // Cell 0 still occupied: burn a compaction cycle (the real
          // block-boundary bubble).
          ++stats_.insert_bubbles;
          (void)rtl_.step(std::nullopt, std::nullopt);
          return true;
        }
        if (!full) {
          const bool ok = rtl_.step(
              Cell{current_command_.bits, current_command_.mask,
                   current_command_.cookie, true},
              std::nullopt);
          ALPU_ASSERT(ok, "insert issued while cell 0 was occupied");
          (void)ok;
        }
        finish_insert(!full);
      } else {
        // Settle cycle (the "every other cycle") doubles as a
        // compaction step.
        (void)rtl_.step(std::nullopt, std::nullopt);
      }
      if (--op_cycles_ == 0) op_ = Op::kNone;
      return true;
    }
    case Op::kDecode:
      if (--op_cycles_ == 0) {
        op_ = Op::kNone;
        decode_command();
      }
      return true;
    case Op::kFlush:
      ALPU_CHECK_FAIL("RESET MATCHING sweep in the stage-level model");
      return false;
    case Op::kNone:
      break;
  }
  if (start_next_op()) return true;
  // Idle insert mode with no held failure: transfers are enabled — run
  // compaction until the datapath quiesces, then sleep.
  if (in_insert_mode() && !held_probe_.has_value() && !rtl_.quiescent()) {
    (void)rtl_.step(std::nullopt, std::nullopt);
    return true;
  }
  return false;
}

}  // namespace alpu::hw
