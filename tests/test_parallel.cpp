// Unit and determinism tests for the conservative parallel DES
// (sim/parallel.hpp): window mechanics of Engine::run_window, the
// ShardGroup barrier protocol, canonical cross-shard ordering, and the
// end-to-end guarantee the whole feature rests on — workload results
// byte-identical across shard counts on the configurations tested here.
// Under fault injection that is not true of every configuration: the
// single-shard path can order equal-time events differently from
// sharded runs (the known defect in docs/SIMULATOR.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "workload/chaos.hpp"
#include "workload/scenarios.hpp"
#include "workload/sweep.hpp"

namespace alpu::sim {
namespace {

using common::TimePs;

// ---- Engine window primitives ---------------------------------------------

TEST(RunWindow, FiresStrictlyBeforeBoundary) {
  Engine e;
  std::vector<TimePs> fired;
  e.schedule_at(10, [&] { fired.push_back(10); });
  e.schedule_at(99, [&] { fired.push_back(99); });
  e.schedule_at(100, [&] { fired.push_back(100); });  // boundary: next window
  e.run_window(100);
  EXPECT_EQ(fired, (std::vector<TimePs>{10, 99}));
  EXPECT_EQ(e.next_event_time(), 100u);
  e.run_window(200);
  EXPECT_EQ(fired, (std::vector<TimePs>{10, 99, 100}));
}

TEST(RunWindow, ZeroDelaySelfScheduleFiresInSameWindow) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(50, [&] {
    order.push_back(1);
    // Zero-delay follow-up: same timestamp, scheduled mid-window.  It
    // must fire inside this window, after its scheduler (FIFO at equal
    // time), not leak into the next one.
    e.schedule_at(e.now(), [&] { order.push_back(2); });
  });
  e.run_window(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.next_event_time(), common::kTimeNever);
}

TEST(NextEventTime, SkipsCancelledTombstones) {
  Engine e;
  const EventId dead = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  e.cancel(dead);
  EXPECT_EQ(e.next_event_time(), 20u);
}

// ---- ShardGroup ------------------------------------------------------------

TEST(ShardGroup, SingleShardMatchesPlainEngineRun) {
  // The 1-shard group must be the legacy path exactly: same event
  // order, same final time, no windows.
  std::vector<int> plain_order;
  Engine reference;
  reference.schedule_at(30, [&] { plain_order.push_back(3); });
  reference.schedule_at(10, [&] { plain_order.push_back(1); });
  reference.schedule_at(10, [&] { plain_order.push_back(2); });
  const TimePs ref_end = reference.run();

  std::vector<int> group_order;
  ShardGroup group(1);
  EXPECT_FALSE(group.parallel());
  group.shard(0).schedule_at(30, [&] { group_order.push_back(3); });
  group.shard(0).schedule_at(10, [&] { group_order.push_back(1); });
  group.shard(0).schedule_at(10, [&] { group_order.push_back(2); });
  const TimePs end = group.run_all(/*lookahead=*/0);  // unused when serial

  EXPECT_EQ(group_order, plain_order);
  EXPECT_EQ(end, ref_end);
  EXPECT_EQ(group.windows_run(), 0u);
  EXPECT_EQ(group.events_executed(), reference.events_executed());
}

TEST(ShardGroup, CrossShardEventsFireInCanonicalKeyOrder) {
  ShardGroup group(2);
  std::vector<std::string> order;
  auto post = [&](TimePs when, TimePs sent_at, std::uint32_t src_node,
                  std::uint64_t src_seq, const char* label) {
    CrossKey key;
    key.when = when;
    key.sent_at = sent_at;
    key.src_node = src_node;
    key.src_seq = src_seq;
    group.post(/*src_shard=*/src_node % 2, /*dst_shard=*/0, key,
               [&order, label] { order.push_back(label); });
  };
  // All at the same delivery time; the canonical (when, sent_at,
  // src_node, src_seq) key must decide the firing order regardless of
  // posting order.
  post(1000, 5, 2, 0, "d");
  post(1000, 3, 9, 0, "c");
  post(1000, 3, 1, 7, "b");
  post(1000, 3, 1, 2, "a");
  group.run_all(/*lookahead=*/10'000);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_GE(group.windows_run(), 1u);
  EXPECT_EQ(group.max_now(), 1000u);
}

TEST(ShardGroup, CrossShardEventCancellableAfterHandoff) {
  ShardGroup group(2);
  bool cross_fired = false;
  EventId cross_id = 0;
  CrossKey key;
  key.when = 500'000;
  key.sent_at = 0;
  key.src_node = 0;
  key.src_seq = 0;
  // Shard 0 hands an event to shard 1; the merge step writes the
  // destination-engine id into cross_id at the window barrier.
  group.post(0, 1, key, [&] { cross_fired = true; }, &cross_id);
  // An earlier shard-1 event (after the first barrier has planned the
  // handoff) cancels it before it can fire.
  group.shard(1).schedule_at(200'000, [&] {
    ASSERT_NE(cross_id, 0u);
    group.shard(1).cancel(cross_id);
  });
  group.run_all(/*lookahead=*/100'000);
  EXPECT_FALSE(cross_fired);
}

TEST(ShardGroup, WindowBoundaryHandoffStillDelivered) {
  // A cross-shard event landing exactly on a window boundary (when ==
  // T_min + lookahead) must be deferred by the strict `<` and fire in
  // the next window at exactly its timestamp.
  ShardGroup group(2);
  const TimePs lookahead = 1000;
  TimePs fired_at = 0;
  group.shard(0).schedule_at(0, [&] {
    CrossKey key;
    key.when = lookahead;  // exactly the first window's end
    key.sent_at = 0;
    key.src_node = 0;
    key.src_seq = 0;
    group.post(0, 1, key, [&] { fired_at = group.shard(1).now(); });
  });
  group.run_all(lookahead);
  EXPECT_EQ(fired_at, lookahead);
  EXPECT_GE(group.windows_run(), 2u);
}

}  // namespace
}  // namespace alpu::sim

// ---- Workload determinism across shard counts ------------------------------

namespace alpu::workload {
namespace {

using common::TimePs;

LatencyResult preposted_at(int shards) {
  PrepostedParams p;
  p.mode = NicMode::kAlpu128;
  p.queue_length = 60;
  p.fraction_traversed = 0.5;
  p.message_bytes = 256;
  p.shards = shards;
  return run_preposted(p);
}

LatencyResult unexpected_at(int shards) {
  UnexpectedParams p;
  p.mode = NicMode::kBaseline;
  p.queue_length = 40;
  p.message_bytes = 512;
  p.shards = shards;
  return run_unexpected(p);
}

void expect_same(const LatencyResult& a, const LatencyResult& b) {
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.total_sim_time, b.total_sim_time);
  EXPECT_EQ(a.sw_entries_walked, b.sw_entries_walked);
  EXPECT_EQ(a.alpu_hits, b.alpu_hits);
  EXPECT_EQ(a.alpu_misses, b.alpu_misses);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.match_counters.probes, b.match_counters.probes);
  EXPECT_EQ(a.match_counters.cells_scanned, b.match_counters.cells_scanned);
}

TEST(ShardDeterminism, PrepostedIdenticalAtAnyShardCount) {
  // nprocs == 2, so shard counts above 2 clamp; 1 vs 2 is the real
  // serial-vs-parallel comparison, 8 exercises the clamp.
  const LatencyResult s1 = preposted_at(1);
  expect_same(s1, preposted_at(2));
  expect_same(s1, preposted_at(8));
}

TEST(ShardDeterminism, UnexpectedIdenticalAtAnyShardCount) {
  const LatencyResult s1 = unexpected_at(1);
  expect_same(s1, unexpected_at(2));
  expect_same(s1, unexpected_at(8));
}

ChaosResult chaos_at(int shards, double drop) {
  ChaosParams p;
  p.mode = NicMode::kAlpu256;
  p.ranks = 8;
  p.per_pair = 3;
  p.seed = 7;
  p.faults.drop_rate = drop;
  p.faults.dup_rate = drop / 2;
  p.faults.reorder_rate = drop / 2;
  p.faults.corrupt_rate = drop / 2;
  p.shards = shards;
  return run_chaos(p);
}

void expect_same(const ChaosResult& a, const ChaosResult& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.conserved, b.conserved);
  EXPECT_EQ(a.ordered, b.ordered);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.sim_time, b.sim_time);
  EXPECT_EQ(a.net.packets, b.net.packets);
  EXPECT_EQ(a.net.payload_bytes, b.net.payload_bytes);
  EXPECT_EQ(a.net.faults_dropped, b.net.faults_dropped);
  EXPECT_EQ(a.net.faults_duplicated, b.net.faults_duplicated);
  EXPECT_EQ(a.net.faults_reordered, b.net.faults_reordered);
  EXPECT_EQ(a.net.faults_corrupted, b.net.faults_corrupted);
  EXPECT_EQ(a.reliability.retransmits, b.reliability.retransmits);
  EXPECT_EQ(a.reliability.timeouts, b.reliability.timeouts);
  EXPECT_EQ(a.reliability.crc_drops, b.reliability.crc_drops);
  EXPECT_EQ(a.reliability.dup_drops, b.reliability.dup_drops);
  EXPECT_EQ(a.reliability.delivered, b.reliability.delivered);
}

TEST(ShardDeterminism, FaultFreeChaosIdenticalAt1_2_8Shards) {
  const ChaosResult s1 = chaos_at(1, 0.0);
  EXPECT_TRUE(s1.ok());
  expect_same(s1, chaos_at(2, 0.0));
  expect_same(s1, chaos_at(8, 0.0));
}

TEST(ShardDeterminism, FaultyChaosIdenticalAt1_2_8Shards) {
  // The hard case: 5% drops (plus dup/reorder/corrupt riders) with the
  // per-link fault streams and full retransmission machinery active.
  const ChaosResult s1 = chaos_at(1, 0.05);
  EXPECT_TRUE(s1.ok());
  EXPECT_GT(s1.net.faults_dropped, 0u);
  expect_same(s1, chaos_at(2, 0.05));
  expect_same(s1, chaos_at(8, 0.05));
}

ChaosResult incast_at(int shards) {
  ChaosParams p;
  p.mode = NicMode::kAlpu256;
  p.ranks = 8;
  p.per_pair = 8;
  p.seed = 11;
  p.overload = true;
  p.eager_pool_bytes = 8192;
  p.unexpected_slots = 4;
  p.faults.drop_rate = 0.02;
  p.faults.dup_rate = 0.01;
  p.faults.reorder_rate = 0.01;
  p.shards = shards;
  return run_chaos(p);
}

void expect_same_flow(const ChaosResult& a, const ChaosResult& b) {
  expect_same(a, b);
  EXPECT_EQ(a.reliability.rnr_nacks_tx, b.reliability.rnr_nacks_tx);
  EXPECT_EQ(a.reliability.rnr_retries, b.reliability.rnr_retries);
  EXPECT_EQ(a.reliability.credit_acks_tx, b.reliability.credit_acks_tx);
  EXPECT_EQ(a.peak_pool_bytes, b.peak_pool_bytes);
  EXPECT_EQ(a.peak_unexpected_slots, b.peak_unexpected_slots);
  EXPECT_EQ(a.peak_unexpected_depth, b.peak_unexpected_depth);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.demoted_sends, b.demoted_sends);
  EXPECT_EQ(a.stalls, b.stalls);
}

TEST(ShardDeterminism, OverloadedIncastIdenticalAt1_2_8Shards) {
  // The flow-control stress: 7 ranks incast into a throttled rank 0
  // whose eager budget is far below the offered load, over a lossy
  // network.  The RNR-NACK / backoff / credit / demotion machinery must
  // deliver exactly once within budget — and every counter must be
  // byte-identical at any shard count.
  const ChaosResult s1 = incast_at(1);
  EXPECT_TRUE(s1.ok());
  EXPECT_GT(s1.reliability.rnr_nacks_tx, 0u);
  EXPECT_LE(s1.peak_pool_bytes, 8192u);
  EXPECT_LE(s1.peak_unexpected_slots, 4u);
  EXPECT_EQ(s1.stalls, 0u);
  expect_same_flow(s1, incast_at(2));
  expect_same_flow(s1, incast_at(8));
}

TEST(ShardDeterminism, SweepSurfaceIdenticalSerialVsSharded) {
  SweepOptions serial;
  serial.jobs = 1;
  serial.shards = 1;
  SweepOptions sharded;
  sharded.jobs = 1;
  sharded.shards = 2;
  const std::vector<SurfacePoint> points = {
      {NicMode::kBaseline, 20, 1.0, 0},
      {NicMode::kAlpu128, 20, 1.0, 0},
      {NicMode::kAlpu256, 50, 0.5, 128},
  };
  EXPECT_EQ(surface_csv(run_preposted_surface(points, serial)),
            surface_csv(run_preposted_surface(points, sharded)));
}

}  // namespace
}  // namespace alpu::workload
