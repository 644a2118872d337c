// The ALPU's Figure-3 control core, shared by both unit models.
//
// The unit couples a match datapath with the paper's protocol
// behaviour:
//
//   * three hardware FIFOs decouple it from the NIC processor — header
//     (probes in), command (processor requests in), result (responses
//     out) — exactly the dashed-line additions of Figure 1;
//   * the governing state machine of Figure 3: Match -> Read Command ->
//     (Insert mode) -> Match, with the command legality rules of
//     Section III-C (only RESET / START INSERT honoured from Read
//     Command; everything else discarded);
//   * one operation at a time (Section V-D: no execution overlap), results
//     timestamped at completion;
//   * insert-mode safety: matching continues between inserts, successful
//     matches are reported, but a FAILED match is *held for retry* until
//     inserts finish — so MATCH FAILURE can never be observed between
//     START ACKNOWLEDGE and STOP INSERT, closing the race on in-flight
//     headers that would otherwise miss entries being inserted.
//
// AlpuCore writes that protocol once.  Two models derive from it and
// supply only their datapath and its timing:
//
//   * hw::Alpu           — transaction-level: whole-operation latencies
//                          against the idealized compacted AlpuArray;
//   * hw::PipelinedAlpu  — stage-level: explicit Section V-D pipeline
//                          stages over the RTL datapath, with real
//                          compaction and insert bubbles.
//
// Each model's clock handler counts the current operation down and calls
// back into the core to finish it (decode_command, finish_match,
// finish_insert) and to pick the next one (start_next_op).  The firmware
// drives either model through this class, and system-level experiments
// can be re-run at either fidelity as a cross-check.
//
// The units sleep (stop consuming engine events) whenever they have no
// work, and producers wake them — cycle accuracy without per-cycle cost.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "alpu/array.hpp"
#include "alpu/seu.hpp"
#include "alpu/types.hpp"
#include "common/fifo.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace alpu::hw {

struct AlpuConfig {
  AlpuFlavor flavor = AlpuFlavor::kPostedReceive;
  std::size_t total_cells = 256;
  std::size_t block_size = 16;

  /// ALPU clock.  The simulation results assume ASIC speed (~500 MHz,
  /// Section VI-A); the FPGA prototype runs ~100-112 MHz.
  common::ClockPeriod clock = common::ClockPeriod::from_mhz(500);

  /// Cycles from accepting a probe to its result in the transaction-level
  /// model (Section V-D assumes 7, with no overlap between successive
  /// matches).  The stage-level model derives its depth from the block
  /// count instead (PipelinedAlpu::match_stages).
  unsigned match_latency_cycles = 7;

  /// Comparator wiring (42-bit MPI packing by default; include PID bits
  /// for the multi-process extension, or ~0 for full-width Portals).
  MatchWord significant_mask = match::kFullMask;

  std::size_t header_fifo_depth = 64;
  std::size_t command_fifo_depth = 64;
  std::size_t result_fifo_depth = 64;

  /// An INSERT past capacity is a software protocol violation: the unit
  /// records it in `inserts_dropped` and drops the entry silently, which
  /// is correct for the hardware but turns a driver bug into data loss.
  /// Drivers that only insert against granted credit (the NIC firmware)
  /// set this to trap the drop in checked builds; conformance tests and
  /// the model checker, which exercise the violation deliberately, leave
  /// it off and observe the counter.
  bool assert_on_insert_drop = false;

  /// Transient-fault model (SEU injection + parity + scrub), implemented
  /// by the transaction-level model only.  The default
  /// (`seu.any() == false`) installs nothing and leaves every path
  /// byte-identical to the fault-free unit.
  SeuConfig seu;
};

/// Cell blocks in `config`'s array; asserts whole power-of-two blocks
/// (Section III-B), before a model derives any timing from them.
std::size_t block_count(const AlpuConfig& config);

/// Cycles to pop and decode one command.
inline constexpr unsigned kCommandDecodeCycles = 1;
/// One insert may start every other cycle (Section V-D).
inline constexpr unsigned kInsertIntervalCycles = 2;

struct AlpuStats {
  std::uint64_t probes_accepted = 0;
  std::uint64_t match_successes = 0;
  std::uint64_t match_failures = 0;
  std::uint64_t held_retries = 0;      ///< failed matches retried in insert mode
  std::uint64_t inserts = 0;
  std::uint64_t inserts_dropped = 0;   ///< protocol violation: insert when full
  std::uint64_t commands_discarded = 0;
  std::uint64_t resets = 0;
  /// Probes answered PARITY FAULT while the array was quarantined.
  std::uint64_t parity_fault_responses = 0;
  std::uint64_t flushes = 0;           ///< RESET MATCHING sweeps (transaction model)
  std::uint64_t flushed_entries = 0;   ///< cells removed by those sweeps
  std::uint64_t insert_bubbles = 0;    ///< cycles stalled on cell-0 pressure (stage model)
};

class AlpuCore : public sim::Component {
 public:
  // ---- NIC-facing FIFO interface (flow-controlled) ----

  /// Deliver a probe on the header FIFO.  False == FIFO full (producer
  /// must apply back-pressure).
  [[nodiscard]] bool push_probe(const Probe& probe);

  /// Deliver a command on the command FIFO.
  [[nodiscard]] bool push_command(const Command& cmd);

  /// Take the oldest response, if any.
  std::optional<Response> pop_result();

  const Response* peek_result() const {
    return result_fifo_.empty() ? nullptr : &result_fifo_.front();
  }
  bool result_available() const { return !result_fifo_.empty(); }
  std::size_t header_fifo_free() const { return header_fifo_.free_slots(); }
  std::size_t command_fifo_free() const { return command_fifo_.free_slots(); }

  // ---- introspection ----

  const AlpuConfig& config() const { return config_; }
  const AlpuStats& stats() const { return stats_; }
  /// Total cells in the match array.
  std::size_t capacity() const { return config_.total_cells; }
  /// Valid entries currently stored.
  virtual std::size_t occupancy() const = 0;

  /// Externally visible mode (for tests): true while in insert mode.
  bool in_insert_mode() const { return state_ == State::kInsertMode; }

  // ---- transient-fault model (models without one use the defaults) ----

  /// True while the unit has latched a parity fault and is quarantined
  /// awaiting RESET + re-shadow.  The firmware polls this so dormant
  /// (scrub-detected) corruption is recovered without waiting for a
  /// probe to bounce.
  virtual bool fault_pending() const { return false; }
  /// Fault-subsystem counters (zeros for models without a fault model).
  virtual SeuStats seu_stats() const { return SeuStats{}; }
  /// Install a callback fired when a background scrub latches a fault
  /// (probe-path detections already reach the firmware as responses).
  // lint: ok(std-function-hot-path) — installed once at NIC setup;
  // fires once per fault episode, never on the probe path.
  void set_fault_callback(std::function<void()> cb) {
    on_fault_ = std::move(cb);
  }

 protected:
  enum class State : std::uint8_t {
    kMatch,        ///< normal matching (Figure 3 "Match")
    kReadCommand,  ///< popped out of matching to decode a command
    kInsertMode,   ///< between START INSERT and STOP INSERT
  };

  /// Micro-operation occupying the (non-overlapped) pipeline.
  enum class Op : std::uint8_t {
    kNone,
    kDecode,
    kMatch,
    kInsert,
    kFlush,  ///< RESET MATCHING sweep (multi-process extension)
  };

  /// `match_cycles` is the model's match latency; `flush_cycles` the
  /// length of a RESET MATCHING sweep, 0 for a model that discards the
  /// command.  `tick` is the model's clock handler.
  AlpuCore(sim::Engine& engine, std::string name, const AlpuConfig& config,
           unsigned match_cycles, unsigned flush_cycles,
           sim::Clock::Handler tick);

  /// Pick the next operation for the current state; sets `op_` and
  /// `op_cycles_`.  False == nothing to do.
  bool start_next_op();
  /// Pop the command at the head of the command FIFO and apply it under
  /// the Figure-3 legality rules.  May start a kFlush operation.
  void decode_command();
  /// Report the match of `current_probe_` (or hold a failure in insert
  /// mode).  `parity_fault` overrides the verdict: the array is
  /// quarantined and its answer untrustworthy.
  void finish_match(const ArrayMatch& m, bool parity_fault);
  /// Account for the insert of `current_command_`; `stored` is false
  /// when the array was full and the entry dropped.
  void finish_insert(bool stored);

  /// Clear the datapath (RESET).
  virtual void reset_datapath() = 0;
  /// A probe or command arrived (the transaction model's scrub wake-up).
  virtual void note_activity() {}

  AlpuConfig config_;

  Op op_ = Op::kNone;
  unsigned op_cycles_ = 0;  ///< cycles left in the current operation

  Probe current_probe_{};
  Command current_command_{};
  std::optional<Probe> held_probe_;  ///< failed match held during insert mode

  AlpuStats stats_;
  std::function<void()> on_fault_;  // lint: ok(std-function-hot-path) — fires once per fault episode

 private:
  bool start(Op op, unsigned cycles);
  bool start_match(const Probe& probe);
  void emit(const Response& r);
  void emit_start_ack();
  void release_held();

  sim::Clock clock_;
  State state_ = State::kMatch;
  bool retry_pending_ = false;  ///< held probe should re-match (post-insert)
  const unsigned match_cycles_;
  const unsigned flush_cycles_;

  common::BoundedFifo<Probe> header_fifo_;
  common::BoundedFifo<Command> command_fifo_;
  common::BoundedFifo<Response> result_fifo_;
};

}  // namespace alpu::hw
