#include "alpu/alpu.hpp"

#include "common/check.hpp"

namespace alpu::hw {

Alpu::Alpu(sim::Engine& engine, std::string name, const AlpuConfig& config)
    : AlpuCore(engine, std::move(name), config, config.match_latency_cycles,
               static_cast<unsigned>(block_count(config)),
               [this] { return tick(); }),
      array_(config.flavor, config.total_cells, config.block_size,
             config.significant_mask),
      scrub_clock_(engine,
                   common::ClockPeriod(config.seu.scrub_interval_ps > 0
                                           ? config.seu.scrub_interval_ps
                                           : 1),
                   [this] { return scrub_tick(); }) {
  if (config_.seu.any()) {
    array_.install_fault_model(config_.seu, config_.seu.seed);
    if (config_.seu.scrub_interval_ps > 0) {
      scrub_enabled_ = true;
      scrub_clock_.wake();
    }
  }
}

void Alpu::note_activity() {
  if (scrub_enabled_) {
    ++ops_since_scrub_;
    scrub_clock_.wake();
  }
}

bool Alpu::scrub_tick() {
  array_.seu_advance(engine().now());
  const bool was_quarantined = array_.quarantined();
  const bool quarantined = array_.scrub();
  if (!was_quarantined && quarantined && on_fault_) on_fault_();
  if (ops_since_scrub_ == 0) {
    if (++idle_scrubs_ >= kScrubIdleLimit) {
      // Park until the next probe/command wakes us — a dormant unit
      // must not keep the event heap alive forever.
      idle_scrubs_ = 0;
      return false;
    }
  } else {
    idle_scrubs_ = 0;
  }
  ops_since_scrub_ = 0;
  return true;
}

bool Alpu::tick() {
  // Catch the SEU injector up before any work this edge does: flips
  // land at deterministic tick boundaries regardless of sharding.
  array_.seu_advance(engine().now());
  if (op_cycles_ > 0) {
    if (--op_cycles_ > 0) return true;
    complete_op();
    // A completion may itself chain a follow-up operation (decode of
    // RESET MATCHING starts its sweep); only look for new work if not.
    if (op_cycles_ > 0) return true;
    // Back-to-back issue: the next operation starts on the same edge the
    // previous one completes, so an op stream sustains exactly one op
    // per `latency` cycles (matches every other cycle for inserts,
    // Section V-D).
    return start_next_op() || true;
  }
  return start_next_op();
}

void Alpu::complete_op() {
  const Op op = op_;
  op_ = Op::kNone;
  switch (op) {
    case Op::kDecode:
      decode_command();
      break;
    case Op::kMatch: {
      // A parity fault (just detected by this probe's verify, or latched
      // earlier) quarantines the array and overrides its answer.
      ArrayMatch m{};
      if (!array_.quarantined()) m = array_.match_and_delete(current_probe_);
      finish_match(m, array_.quarantined());
      break;
    }
    case Op::kInsert:
      finish_insert(array_.insert(current_command_.bits,
                                  current_command_.mask,
                                  current_command_.cookie));
      break;
    case Op::kFlush:
      ++stats_.flushes;
      stats_.flushed_entries +=
          array_.invalidate_matching(Probe{current_command_.bits,
                                           current_command_.mask, 0});
      break;
    case Op::kNone:
      ALPU_CHECK_FAIL("completed a non-existent operation");
      break;
  }
}

}  // namespace alpu::hw
