// The benchmark's workloads, driven through the public mpi::Machine /
// mpi::Rank API, and the per-layer counters read from the layers'
// public accessors.
//
//   posted_walk — baseline NIC (software lists), 2 ranks: a standing
//                 queue of ~400 non-matching posted receives, then a
//                 burst of ~128 0-byte eager messages released together.
//                 Every message walks the whole standing queue.
//   alpu_rate   — the same burst against ~96 standing receives on the
//                 ALPU-256 NIC: standing + burst receives fit the cells,
//                 so every probe hits the ALPU and nothing is walked.
//   chaos_a2a   — 64 ranks, ALPU-256, all-to-all plan of 8 messages per
//                 ordered pair (15% rendezvous-sized), ANY_TAG receives
//                 racing the arrivals, 1% packet drop, reliability on.
//
// The seed sets every input: the stream depths and burst size (each
// within a few entries of the nominal shape) and the chaos traffic plan,
// think times and fault stream.  The same seed gives bit-identical
// simulated outputs and counts on every repetition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

class Tracer;

using alpu::common::TimePs;

enum class Workload { kPostedWalk, kAlpuRate, kChaosA2a };

bool parse_workload(const std::string& name, Workload* out);
const char* to_string(Workload workload);

/// One workload's inputs, generated from the seed.
struct Shape {
  Workload workload = Workload::kPostedWalk;
  alpu::workload::NicMode mode = alpu::workload::NicMode::kBaseline;
  int ranks = 2;
  /// Streams: non-matching receives posted ahead of the burst receives.
  std::size_t standing = 0;
  /// Streams: messages released together.
  int burst = 0;
  /// Chaos: messages per ordered (src, dst) pair.
  int per_pair = 0;
  /// Chaos: seeds the traffic plan and the ranks' think times.
  std::uint64_t plan_seed = 0;
  double drop_rate = 0.0;
  std::uint64_t fault_seed = 0;

  bool stream() const { return workload != Workload::kChaosA2a; }
  /// Receives the pre-post phase puts in place (streams).
  std::size_t prepost_entries() const {
    return stream() ? standing + static_cast<std::size_t>(burst) : 0;
  }
};

Shape make_shape(Workload workload, std::uint64_t seed);

/// Exact work counts summed over every node, read from the layers'
/// public counters.  Differences of two snapshots give a phase's work.
struct LayerCounts {
  std::uint64_t events = 0;            ///< sim: events executed
  std::uint64_t entries_walked = 0;    ///< match: software-walked entries
  std::uint64_t cells_scanned = 0;     ///< match: cells/entries examined
  std::uint64_t compaction_moves = 0;  ///< match: entries shifted by deletes
  std::uint64_t alpu_probes = 0;       ///< alpu: hits + misses
  std::uint64_t alpu_hits = 0;
  std::uint64_t insert_sessions = 0;
  std::uint64_t probe_retries = 0;
  std::uint64_t fallback_searches = 0;
  std::uint64_t l1_accesses = 0;  ///< mem: NIC L1 accesses
  std::uint64_t l1_hits = 0;
  TimePs fw_busy_ps = 0;               ///< nic: charged firmware time
  std::uint64_t nic_packets_tx = 0;
  std::uint64_t control_allocs = 0;
  std::uint64_t retransmits = 0;       ///< nic reliability sublayer
  std::uint64_t data_tx = 0;           ///< first transmissions
  std::uint64_t net_packets = 0;
  std::uint64_t net_faults = 0;

  LayerCounts operator-(const LayerCounts& o) const;
};

/// Everything one repetition measured.
struct RepResult {
  // Host time as measured, ns.
  double build_ns = 0.0;
  double spawn_ns = 0.0;
  double prepost_ns = 0.0;
  double simulate_ns = 0.0;
  double setup_ns() const { return build_ns + spawn_ns + prepost_ns; }
  // The same at reference speed (reference.hpp), when RepOptions asked.
  double ref_setup_ns = 0.0;
  double ref_simulate_ns = 0.0;
  double reference_ns = 0.0;  ///< mean reference iteration time used

  // Verdict.
  std::uint64_t messages = 0;  ///< timed messages
  std::uint64_t failed = 0;    ///< of them, failing any delivery check

  // Exact simulated outputs.
  TimePs gap_ps = 0;  ///< simulated time per message
  TimePs latency_p50_ps = 0;
  TimePs latency_tail_ps = 0;
  double tail_percentile = 0.0;
  std::size_t latency_samples = 0;
  /// Work in the simulate phase.  Counted from the burst release on the
  /// streams, so it needs a single-shard run; equal to `total` on chaos.
  LayerCounts phase;
  /// Work over the whole engine run (any shard count).
  LayerCounts total;

  /// Median engine heap depth (pending events) seen at the traced calls
  /// into the mpi layer; 0 when untraced.
  std::uint64_t heap_depth = 0;

  /// Names of the exact outputs (verdict, simulated times, whole-run
  /// counts, and the simulate-phase counts if `compare_phase`) that differ
  /// from `other`'s.  Phase counts need single-shard runs on both sides.
  std::vector<std::string> differences(const RepResult& other,
                                       bool compare_phase) const;
  bool same_outputs(const RepResult& other, bool compare_phase) const {
    return differences(other, compare_phase).empty();
  }
};

struct RepOptions {
  unsigned shards = 1;
  Tracer* tracer = nullptr;  ///< null: untraced
  /// Time the reference kernel beside the rep and fill the ref_* times.
  /// Chaos reps outlast host contention phases, so their single-shard
  /// engine run is cut into slices with a reference run between slices.
  bool reference = false;
};

/// Build a fresh machine, run the workload once, verify every message.
RepResult run_rep(const Shape& shape, const RepOptions& options);

}  // namespace perfbench
