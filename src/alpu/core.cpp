#include "alpu/core.hpp"

#include <bit>

#include "common/check.hpp"

namespace alpu::hw {

std::size_t block_count(const AlpuConfig& config) {
  ALPU_ASSERT(std::has_single_bit(config.block_size),
              "block size must be a power of 2 (III-B)");
  ALPU_ASSERT(config.total_cells > 0 &&
                  config.total_cells % config.block_size == 0,
              "cell count must be a whole number of blocks");
  return config.total_cells / config.block_size;
}

AlpuCore::AlpuCore(sim::Engine& engine, std::string name,
                   const AlpuConfig& config, unsigned match_cycles,
                   unsigned flush_cycles, sim::Clock::Handler tick)
    : sim::Component(engine, std::move(name)),
      config_(config),
      clock_(engine, config.clock, std::move(tick)),
      match_cycles_(match_cycles),
      flush_cycles_(flush_cycles),
      header_fifo_(config.header_fifo_depth),
      command_fifo_(config.command_fifo_depth),
      result_fifo_(config.result_fifo_depth) {}

bool AlpuCore::push_probe(const Probe& probe) {
  if (!header_fifo_.try_push(probe)) return false;
  clock_.wake();
  note_activity();
  return true;
}

bool AlpuCore::push_command(const Command& cmd) {
  if (!command_fifo_.try_push(cmd)) return false;
  clock_.wake();
  note_activity();
  return true;
}

std::optional<Response> AlpuCore::pop_result() {
  auto r = result_fifo_.try_pop();
  // Draining the result FIFO may unblock a stalled match.
  if (r.has_value()) clock_.wake();
  return r;
}

void AlpuCore::emit(const Response& r) {
  Response stamped = r;
  stamped.issued_at = engine().now();
  result_fifo_.push(stamped);  // space guaranteed by start conditions
}

void AlpuCore::emit_start_ack() {
  emit(Response{ResponseKind::kStartAck, 0,
                static_cast<std::uint32_t>(capacity() - occupancy()), 0, 0});
}

void AlpuCore::release_held() {
  held_probe_.reset();
  retry_pending_ = false;
}

bool AlpuCore::start(Op op, unsigned cycles) {
  op_ = op;
  op_cycles_ = cycles;
  return true;
}

bool AlpuCore::start_match(const Probe& probe) {
  current_probe_ = probe;
  return start(Op::kMatch, match_cycles_);
}

bool AlpuCore::start_next_op() {
  switch (state_) {
    case State::kMatch: {
      // The held probe (a retry forced out of insert mode) is the oldest
      // outstanding header: it must be answered before anything else so
      // that responses stay in probe order (Section IV-D relies on it).
      if (held_probe_.has_value() && !result_fifo_.full()) {
        ++stats_.held_retries;
        return start_match(*held_probe_);
      }
      if (!command_fifo_.empty() && !result_fifo_.full()) {
        state_ = State::kReadCommand;
        return start(Op::kDecode, kCommandDecodeCycles);
      }
      if (!header_fifo_.empty() && !result_fifo_.full()) {
        ++stats_.probes_accepted;
        return start_match(header_fifo_.pop());
      }
      return false;
    }
    case State::kReadCommand: {
      // Footnote 3: an empty command FIFO before a valid command causes a
      // transition back to the match state.
      if (command_fifo_.empty()) {
        state_ = State::kMatch;
        return start_next_op();
      }
      if (result_fifo_.full()) return false;  // START ACK needs a slot
      return start(Op::kDecode, kCommandDecodeCycles);
    }
    case State::kInsertMode: {
      if (!command_fifo_.empty()) {
        if (command_fifo_.front().kind == CommandKind::kInsert) {
          current_command_ = command_fifo_.pop();
          return start(Op::kInsert, kInsertIntervalCycles);
        }
        return start(Op::kDecode, kCommandDecodeCycles);
      }
      if (retry_pending_ && held_probe_.has_value() && !result_fifo_.full()) {
        retry_pending_ = false;
        ++stats_.held_retries;
        return start_match(*held_probe_);
      }
      if (held_probe_.has_value()) {
        // A failed match is held: matching pauses until the next insert
        // gives it a chance, or STOP INSERT releases it.
        return false;
      }
      if (!header_fifo_.empty() && !result_fifo_.full()) {
        ++stats_.probes_accepted;
        return start_match(header_fifo_.pop());
      }
      return false;
    }
  }
  return false;
}

void AlpuCore::decode_command() {
  // Commands are only consumed by decode and insert operations, so the
  // one this decode was started for is still at the head.
  ALPU_ASSERT(!command_fifo_.empty(), "decode with empty command FIFO");
  const Command cmd = command_fifo_.pop();
  if (state_ == State::kReadCommand) {
    switch (cmd.kind) {
      case CommandKind::kReset:
        reset_datapath();
        ++stats_.resets;
        if (held_probe_.has_value()) {
          // The held header can never match a cleared array; answer it so
          // the processor still gets one response per header.
          emit(Response{ResponseKind::kMatchFailure, 0, 0,
                        held_probe_->seq, 0});
          ++stats_.match_failures;
          release_held();
        }
        state_ = State::kMatch;
        break;
      case CommandKind::kStartInsert:
        emit_start_ack();
        state_ = State::kInsertMode;
        break;
      case CommandKind::kResetMatching:
        // Multi-process extension: valid in the same state as RESET.
        // The sweep broadcasts the selector and deletes per block; it
        // occupies the unit one cycle per cell block.  A model without
        // the extension discards it like any other invalid command.
        if (flush_cycles_ > 0) {
          ALPU_ASSERT(!held_probe_.has_value(),
                      "held probes are retired before commands are read");
          current_command_ = cmd;
          start(Op::kFlush, flush_cycles_);
          state_ = State::kMatch;
          break;
        }
        ++stats_.commands_discarded;
        break;
      default:
        // Section III-C: other commands are discarded in Read Command.
        ++stats_.commands_discarded;
        break;  // stay in kReadCommand; next op decodes the next command
    }
    return;
  }

  ALPU_ASSERT(state_ == State::kInsertMode,
              "insert-mode decode outside insert mode (Figure 3)");
  switch (cmd.kind) {
    case CommandKind::kStopInsert:
      state_ = State::kMatch;
      // Any held probe is re-matched in Match state (priority path) and
      // its result — success or, now legal again, failure — is emitted.
      retry_pending_ = false;
      break;
    case CommandKind::kStartInsert:
      // Redundant; already in insert mode.  Re-acknowledge so a processor
      // that lost the first ack is not deadlocked.
      emit_start_ack();
      break;
    default:
      ++stats_.commands_discarded;
      break;
  }
}

void AlpuCore::finish_match(const ArrayMatch& m, bool parity_fault) {
  const bool was_held = held_probe_.has_value() &&
                        held_probe_->seq == current_probe_.seq;
  if (parity_fault) {
    // The array's answer is untrustworthy, so report the fault instead.
    // PARITY FAULT is reportable even in insert mode — it is an error
    // condition, not a match failure, and the processor must abort the
    // session and rebuild.  Carrying the seq preserves the
    // one-response-per-header pairing (Section IV-D).
    emit(Response{ResponseKind::kParityFault, 0, 0, current_probe_.seq, 0});
    ++stats_.parity_fault_responses;
  } else if (m.hit) {
    emit(Response{ResponseKind::kMatchSuccess, m.cookie, 0,
                  current_probe_.seq, 0});
    ++stats_.match_successes;
  } else if (state_ == State::kInsertMode) {
    // Failure is not reportable during insert mode; hold for retry.
    held_probe_ = current_probe_;
    return;
  } else {
    emit(Response{ResponseKind::kMatchFailure, 0, 0, current_probe_.seq, 0});
    ++stats_.match_failures;
  }
  if (was_held) release_held();
}

void AlpuCore::finish_insert(bool stored) {
  if (stored) {
    ++stats_.inserts;
  } else {
    // Protocol violation: the processor inserted past the count it was
    // granted in START ACKNOWLEDGE.  Hardware has nowhere to put the
    // entry; record and drop.  Drivers that never overrun their grant
    // opt into trapping this (see AlpuConfig) — for them a silent drop
    // here is lost data, not a modelled condition.
    ALPU_DEBUG_ASSERT(!config_.assert_on_insert_drop,
                      "insert dropped by a full ALPU (grant overrun)");
    ++stats_.inserts_dropped;
  }
  // Every insert gives a held (previously failing) probe new entries to
  // match against.
  if (held_probe_.has_value()) retry_pending_ = true;
}

}  // namespace alpu::hw
