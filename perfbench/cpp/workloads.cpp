#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "mpi/mpi.hpp"
#include "reference.hpp"
#include "sim/parallel.hpp"
#include "trace.hpp"
#include "workload/chaos.hpp"

namespace perfbench {

namespace mpi = alpu::mpi;
namespace sim = alpu::sim;
using alpu::common::Xoshiro256;
using alpu::workload::NicMode;

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPostedWalk, Workload::kAlpuRate,
                     Workload::kChaosA2a}) {
    if (name == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kPostedWalk: return "posted_walk";
    case Workload::kAlpuRate: return "alpu_rate";
    case Workload::kChaosA2a: return "chaos_a2a";
  }
  return "?";
}

Shape make_shape(Workload workload, std::uint64_t seed) {
  Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  Shape s;
  s.workload = workload;
  switch (workload) {
    case Workload::kPostedWalk:
      // 396..404 standing entries: past the ~260-entry NIC L1 knee.
      s.mode = NicMode::kBaseline;
      s.standing = 396 + rng.below(9);
      s.burst = static_cast<int>(124 + rng.below(9));
      break;
    case Workload::kAlpuRate:
      // 92..100 standing + 124..132 burst receives <= 232 of 256 cells.
      s.mode = NicMode::kAlpu256;
      s.standing = 92 + rng.below(9);
      s.burst = static_cast<int>(124 + rng.below(9));
      break;
    case Workload::kChaosA2a:
      s.mode = NicMode::kAlpu256;
      s.ranks = 64;
      s.per_pair = 8;
      s.plan_seed = rng();
      s.drop_rate = 0.01;
      s.fault_seed = rng();
      break;
  }
  return s;
}

namespace {

struct CountField {
  const char* name;
  std::uint64_t LayerCounts::*field;
};

constexpr CountField kCountFields[] = {
    {"events", &LayerCounts::events},
    {"entries_walked", &LayerCounts::entries_walked},
    {"cells_scanned", &LayerCounts::cells_scanned},
    {"compaction_moves", &LayerCounts::compaction_moves},
    {"alpu_probes", &LayerCounts::alpu_probes},
    {"alpu_hits", &LayerCounts::alpu_hits},
    {"insert_sessions", &LayerCounts::insert_sessions},
    {"probe_retries", &LayerCounts::probe_retries},
    {"fallback_searches", &LayerCounts::fallback_searches},
    {"l1_accesses", &LayerCounts::l1_accesses},
    {"l1_hits", &LayerCounts::l1_hits},
    {"fw_busy_ps", &LayerCounts::fw_busy_ps},
    {"nic_packets_tx", &LayerCounts::nic_packets_tx},
    {"control_allocs", &LayerCounts::control_allocs},
    {"retransmits", &LayerCounts::retransmits},
    {"data_tx", &LayerCounts::data_tx},
    {"net_packets", &LayerCounts::net_packets},
    {"net_faults", &LayerCounts::net_faults},
};

}  // namespace

LayerCounts LayerCounts::operator-(const LayerCounts& o) const {
  LayerCounts d;
  for (const CountField& f : kCountFields) d.*f.field = this->*f.field - o.*f.field;
  return d;
}

std::vector<std::string> RepResult::differences(const RepResult& o,
                                                bool compare_phase) const {
  std::vector<std::string> out;
  const auto check = [&](const std::string& name, std::uint64_t a,
                         std::uint64_t b) {
    if (a != b) {
      out.push_back(name + " " + std::to_string(a) + " vs " + std::to_string(b));
    }
  };
  check("messages", messages, o.messages);
  check("failed", failed, o.failed);
  check("gap_ps", gap_ps, o.gap_ps);
  check("latency_p50_ps", latency_p50_ps, o.latency_p50_ps);
  check("latency_tail_ps", latency_tail_ps, o.latency_tail_ps);
  check("latency_samples", latency_samples, o.latency_samples);
  for (const CountField& f : kCountFields) {
    check(std::string("total.") + f.name, total.*f.field, o.total.*f.field);
    if (compare_phase) {
      check(std::string("phase.") + f.name, phase.*f.field, o.phase.*f.field);
    }
  }
  return out;
}

namespace {

// Stream tags.  Burst message i carries tag kBurstTag + i and is received
// with ANY_TAG, so the matched tag exposes delivery order.
constexpr int kReadyTag = 1;
constexpr int kNoMatchTag = 3;
constexpr int kBurstTag = 16;

constexpr std::uint32_t kMaxRecvBytes = 64 * 1024;

void trace_begin(Tracer* t, SpanName n) {
  if (t != nullptr) t->begin(n);
}
void trace_end(Tracer* t, SpanName n) {
  if (t != nullptr) t->end(n);
}

LayerCounts snapshot(mpi::Machine& machine, const sim::ShardGroup& shards) {
  LayerCounts c;
  c.events = shards.events_executed();
  for (int r = 0; r < machine.size(); ++r) {
    alpu::nic::Nic& nic = machine.nic(r);
    const alpu::nic::NicStats& s = nic.stats();
    c.entries_walked += s.posted_entries_walked + s.unexpected_entries_walked;
    const alpu::common::MatchCounters mc = nic.match_counters();
    c.cells_scanned += mc.cells_scanned;
    c.compaction_moves += mc.compaction_moves;
    c.alpu_hits += s.alpu_posted_hits + s.alpu_unexpected_hits;
    c.alpu_probes += s.alpu_posted_hits + s.alpu_posted_misses +
                     s.alpu_unexpected_hits + s.alpu_unexpected_misses;
    c.insert_sessions += s.alpu_insert_sessions;
    c.probe_retries += s.alpu_probe_retries;
    c.fallback_searches += s.alpu_fallback_searches;
    const alpu::mem::CacheStats& l1 = nic.memory().l1_stats();
    c.l1_accesses += l1.accesses;
    c.l1_hits += l1.hits;
    c.fw_busy_ps += s.firmware_busy;
    c.nic_packets_tx += s.packets_tx;
    c.control_allocs += s.control_allocs;
    const alpu::nic::ReliabilityStats& rel = nic.reliability().stats();
    c.retransmits += rel.retransmits;
    c.data_tx += rel.data_tx;
  }
  const alpu::net::NetworkStats& net = machine.network().stats();
  c.net_packets = net.packets;
  c.net_faults = net.faults_dropped + net.faults_duplicated +
                 net.faults_reordered + net.faults_corrupted;
  return c;
}

/// Per-rep state the rank programs share with the benchmark.
struct RepState {
  RepState(const Shape& s, Tracer* t) : shape(s), tracer(t) {}
  // The rank programs hold references to it for the whole run.
  RepState(const RepState&) = delete;
  RepState& operator=(const RepState&) = delete;

  const Shape& shape;
  Tracer* tracer;
  mpi::Machine* machine = nullptr;
  sim::ShardGroup* shards = nullptr;
  std::vector<std::uint64_t> heap_depths;  ///< traced runs only

  mpi::Request isend(mpi::Rank& rank, int dest, int tag, std::uint32_t bytes) {
    if (tracer == nullptr) return rank.isend(dest, tag, bytes);
    heap_depths.push_back(rank.engine().pending_events());
    Span span(tracer, SpanName::kIsend);
    return rank.isend(dest, tag, bytes);
  }
  mpi::Request irecv(mpi::Rank& rank, int source, int tag,
                     std::uint32_t max_bytes) {
    if (tracer == nullptr) return rank.irecv(source, tag, max_bytes);
    heap_depths.push_back(rank.engine().pending_events());
    Span span(tracer, SpanName::kIrecv);
    return rank.irecv(source, tag, max_bytes);
  }
};

// ---- streams: posted_walk, alpu_rate --------------------------------------
//
// The same message-rate shape as workload::run_message_rate (the benchmark
// asserts the simulated gap is identical): rank 0 posts the standing
// queue and one receive per burst message, then releases the burst with
// a ready message; rank 1 sends the whole burst at once.  Rank 0 waits
// its receives in posting order, so the last wait is the burst's end.

struct StreamState : RepState {
  using RepState::RepState;
  TimePs release = 0;  ///< simulated time the burst was released
  Clock::time_point release_host;
  LayerCounts at_release;
  std::vector<mpi::Request> recvs;
  std::vector<TimePs> done;  ///< simulated time each wait returned
};

sim::Process stream_receiver(mpi::Rank& rank, StreamState& st) {
  for (std::size_t i = 0; i < st.shape.standing; ++i) {
    (void)st.irecv(rank, 1, kNoMatchTag, 0);
  }
  for (int i = 0; i < st.shape.burst; ++i) {
    st.recvs.push_back(st.irecv(rank, 1, mpi::kAnyTag, 0));
  }
  co_await rank.send(1, kReadyTag, 0);
  for (mpi::Request& r : st.recvs) {
    co_await rank.wait(r);
    st.done.push_back(rank.engine().now());
  }
}

sim::Process stream_sender(mpi::Rank& rank, StreamState& st) {
  co_await rank.recv(0, kReadyTag, 0);
  st.release = rank.engine().now();
  st.release_host = Clock::now();
  // Reading other nodes' counters mid-run is only safe on one thread.
  if (st.shards->size() == 1) st.at_release = snapshot(*st.machine, *st.shards);
  trace_end(st.tracer, SpanName::kPrepost);
  trace_end(st.tracer, SpanName::kSetup);
  trace_begin(st.tracer, SpanName::kSimulate);
  std::vector<mpi::Request> sends;
  sends.reserve(static_cast<std::size_t>(st.shape.burst));
  for (int i = 0; i < st.shape.burst; ++i) {
    sends.push_back(st.isend(rank, 0, kBurstTag + i, 0));
  }
  co_await rank.waitall(std::move(sends));
}

/// Messages failing a check, capped at `limit`.
std::uint64_t capped(std::uint64_t failures, std::uint64_t limit) {
  return std::min(failures, limit);
}

std::uint64_t verify_stream(mpi::Machine& machine, const sim::ProcessPool& pool,
                            const StreamState& st) {
  const auto burst = static_cast<std::uint64_t>(st.shape.burst);
  if (!pool.all_done() || st.done.size() != st.recvs.size()) return burst;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < st.recvs.size(); ++i) {
    const mpi::Request& r = st.recvs[i];
    const alpu::match::Envelope env = r.matched();
    if (!r.done() || env.source != 1 ||
        env.tag != static_cast<std::uint32_t>(kBurstTag) + i || r.bytes() != 0) {
      ++bad;
    }
  }
  // The standing receives never match and stay posted; anything else
  // left in a queue is an undrained message.
  const auto leftover = [](std::size_t have, std::size_t want) {
    return have > want ? have - want : want - have;
  };
  bad += leftover(machine.nic(0).posted_queue_length(), st.shape.standing);
  bad += machine.nic(0).unexpected_queue_length();
  bad += machine.nic(1).posted_queue_length();
  bad += machine.nic(1).unexpected_queue_length();
  return capped(bad, burst);
}

// ---- chaos_a2a -------------------------------------------------------------

struct ChaosState : RepState {
  using RepState::RepState;
  int nranks = 0;
  int per_pair = 0;
  /// Planned payload of message (src -> dst, ordinal k), and the
  /// simulated times it was issued and its receive's wait returned.
  std::vector<std::uint32_t> bytes;
  std::vector<TimePs> issued;
  std::vector<TimePs> done;
  std::vector<mpi::Request> recvs;  ///< same (src, dst, k) indexing
  std::vector<std::uint64_t> rank_bytes;  ///< received, per rank

  std::size_t index(int src, int dst, std::size_t k) const {
    return (static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks) +
            static_cast<std::size_t>(dst)) *
               static_cast<std::size_t>(per_pair) +
           k;
  }
};

void make_plan(ChaosState& st) {
  Xoshiro256 rng(st.shape.plan_seed);
  const std::size_t n = static_cast<std::size_t>(st.nranks) *
                        static_cast<std::size_t>(st.nranks) *
                        static_cast<std::size_t>(st.per_pair);
  st.bytes.assign(n, 0);
  st.issued.assign(n, 0);
  st.done.assign(n, 0);
  st.recvs.assign(n, mpi::Request{});
  st.rank_bytes.assign(static_cast<std::size_t>(st.nranks), 0);
  for (int s = 0; s < st.nranks; ++s) {
    for (int d = 0; d < st.nranks; ++d) {
      if (s == d) continue;
      for (int k = 0; k < st.per_pair; ++k) {
        // Mostly eager, 15% above the 16 KB eager threshold.
        st.bytes[st.index(s, d, static_cast<std::size_t>(k))] =
            rng.chance(0.15)
                ? static_cast<std::uint32_t>(20'000 + rng.below(40'000))
                : static_cast<std::uint32_t>(1 + rng.below(2'000));
      }
    }
  }
}

sim::Process chaos_rank(mpi::Rank& self, ChaosState& st) {
  const int me = self.rank();
  Xoshiro256 rng(st.shape.plan_seed ^
                 (0xC0FFEEULL + 977 * static_cast<std::uint64_t>(me)));
  std::vector<mpi::Request> sends;
  std::vector<std::size_t> order;  ///< receive indices in posting order
  std::vector<int> cursor(static_cast<std::size_t>(st.nranks), 0);

  // Round-robin over peers: one send and one receive per peer per round,
  // with random think time, so postings race the arrivals.  Sends carry
  // the per-pair ordinal as tag; receives name the source and use
  // ANY_TAG, so the matched tag exposes per-pair delivery order.
  for (int round = 0; round < st.per_pair; ++round) {
    for (int peer = 0; peer < st.nranks; ++peer) {
      if (peer == me) continue;
      const auto k = static_cast<std::size_t>(cursor[static_cast<std::size_t>(peer)]++);
      const std::size_t out = st.index(me, peer, k);
      st.issued[out] = self.engine().now();
      sends.push_back(st.isend(self, peer, static_cast<int>(k), st.bytes[out]));
      const std::size_t in = st.index(peer, me, k);
      st.recvs[in] = st.irecv(self, peer, mpi::kAnyTag, kMaxRecvBytes);
      order.push_back(in);
      if (rng.chance(0.2)) {
        co_await sim::delay(self.engine(), rng.below(3'000) * 1'000);
      }
    }
  }
  for (std::size_t in : order) {
    co_await self.wait(st.recvs[in]);
    st.done[in] = self.engine().now();
    st.rank_bytes[static_cast<std::size_t>(me)] += st.recvs[in].bytes();
  }
  co_await self.waitall(std::move(sends));
  co_await self.barrier();
}

std::uint64_t verify_chaos(mpi::Machine& machine, const sim::ProcessPool& pool,
                           const ChaosState& st, std::uint64_t messages) {
  if (!pool.all_done()) return messages;
  std::uint64_t bad = 0;
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(st.nranks), 0);
  for (int s = 0; s < st.nranks; ++s) {
    for (int d = 0; d < st.nranks; ++d) {
      if (s == d) continue;
      for (int k = 0; k < st.per_pair; ++k) {
        const std::size_t i = st.index(s, d, static_cast<std::size_t>(k));
        expected[static_cast<std::size_t>(d)] += st.bytes[i];
        const mpi::Request& r = st.recvs[i];
        // A lost message leaves its receive incomplete; a duplicate or
        // misordered one completes a receive out of turn (wrong tag).
        if (!r.done() || r.matched().tag != static_cast<std::uint32_t>(k) ||
            r.matched().source != static_cast<std::uint32_t>(s) ||
            r.bytes() != st.bytes[i]) {
          ++bad;
        }
      }
    }
  }
  for (int r = 0; r < st.nranks; ++r) {
    if (st.rank_bytes[static_cast<std::size_t>(r)] !=
        expected[static_cast<std::size_t>(r)]) {
      ++bad;
    }
    bad += machine.nic(r).posted_queue_length();
    bad += machine.nic(r).unexpected_queue_length();
    bad += machine.nic(r).reliability().stats().link_failures;
  }
  bad += machine.watchdog().stalls_detected();
  return capped(bad, messages);
}

/// Nearest-rank percentile of sorted values.
TimePs percentile(const std::vector<TimePs>& sorted, double pct) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// p50 plus the highest of p99/p90 that leaves at least 10 samples
/// beyond it.
void set_latencies(std::vector<TimePs> lat, RepResult& res) {
  std::sort(lat.begin(), lat.end());
  res.latency_samples = lat.size();
  if (lat.empty()) return;
  const double n = static_cast<double>(lat.size());
  res.tail_percentile = n * (1.0 - 0.99) >= 10.0 ? 99.0 : 90.0;
  res.latency_p50_ps = percentile(lat, 50.0);
  res.latency_tail_ps = percentile(lat, res.tail_percentile);
}

std::uint64_t median_of(std::vector<std::uint64_t> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

alpu::mpi::SystemConfig system_config(const Shape& shape) {
  if (shape.stream()) return alpu::workload::make_system_config(shape.mode);
  alpu::workload::ChaosParams p;
  p.mode = shape.mode;
  p.ranks = shape.ranks;
  p.faults.drop_rate = shape.drop_rate;
  p.faults.seed = shape.fault_seed;
  return alpu::workload::make_chaos_system_config(p);
}

/// Simulated time per slice of a sliced chaos run: ~50 slices per rep,
/// each ~10 ms of host time, so the reference runs between them (~0.4 ms
/// each) follow the host's contention phases.
constexpr TimePs kSlicePs = 50'000'000;

/// Run a single-shard engine to quiescence in slices, timing a reference
/// run after each.  Returns the end time and sets the run's host time as
/// measured (`raw_ns`, reference runs excluded) and at reference speed
/// (`ref_ns`), starting from the reference time `ref_before` measured
/// just before the call.
TimePs run_sliced(sim::ShardGroup& shards, sim::Engine& engine, TimePs lookahead,
                  Tracer* tracer, double ref_before, double& raw_ns,
                  double& ref_ns) {
  raw_ns = 0.0;
  ref_ns = 0.0;
  while (engine.pending_events() > 0) {
    const Clock::time_point a = Clock::now();
    engine.run_until(engine.next_event_time() + kSlicePs);
    const double slice = elapsed_ns(a, Clock::now());
    double ref_after = 0.0;
    {
      Span span(tracer, SpanName::kReference);
      ref_after = reference_ns();
    }
    raw_ns += slice;
    ref_ns += slice * kReferenceNs / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
  }
  // Quiescent: run_all fires the watchdog poll and the finish hooks.
  const Clock::time_point a = Clock::now();
  const TimePs end = shards.run_all(lookahead);
  const double last = elapsed_ns(a, Clock::now());
  raw_ns += last;
  ref_ns += last * kReferenceNs / ref_before;
  return end;
}

/// Machine and the rank programs' pool, destroyed pool-first (the pool's
/// suspended frames hold references into the machine).
struct Rig {
  sim::ShardGroup shards;
  std::unique_ptr<mpi::Machine> machine;
  std::unique_ptr<sim::ProcessPool> pool;
  explicit Rig(unsigned n) : shards(n) {}
};

}  // namespace

RepResult run_rep(const Shape& shape, const RepOptions& options) {
  Tracer* tr = options.tracer;
  if (tr != nullptr) tr->start_trace();
  RepResult res;
  const alpu::mpi::SystemConfig cfg = system_config(shape);

  StreamState stream(shape, tr);
  ChaosState chaos(shape, tr);
  RepState& st = shape.stream() ? static_cast<RepState&>(stream)
                                : static_cast<RepState&>(chaos);
  if (!shape.stream()) {
    chaos.nranks = shape.ranks;
    chaos.per_pair = shape.per_pair;
    make_plan(chaos);
  }

  auto rig = std::make_unique<Rig>(options.shards);
  const double ref_before = options.reference ? reference_ns() : 0.0;
  trace_begin(tr, SpanName::kRep);
  trace_begin(tr, SpanName::kSetup);
  const Clock::time_point t0 = Clock::now();
  trace_begin(tr, SpanName::kMachineBuild);
  rig->machine = std::make_unique<mpi::Machine>(rig->shards, cfg);
  trace_end(tr, SpanName::kMachineBuild);
  const Clock::time_point t1 = Clock::now();
  mpi::Machine& m = *rig->machine;
  st.machine = &m;
  st.shards = &rig->shards;

  trace_begin(tr, SpanName::kSpawn);
  rig->pool = std::make_unique<sim::ProcessPool>(m.engine());
  if (shape.stream()) {
    rig->pool->spawn_on(m.engine(0), stream_receiver(m.rank(0), stream));
    rig->pool->spawn_on(m.engine(1), stream_sender(m.rank(1), stream));
  } else {
    for (int r = 0; r < shape.ranks; ++r) {
      rig->pool->spawn_on(m.engine(r), chaos_rank(m.rank(r), chaos));
    }
  }
  trace_end(tr, SpanName::kSpawn);
  const LayerCounts base = snapshot(m, rig->shards);
  const Clock::time_point t2 = Clock::now();

  if (shape.stream()) {
    trace_begin(tr, SpanName::kPrepost);  // closed at the burst release
  } else {
    trace_end(tr, SpanName::kSetup);
    trace_begin(tr, SpanName::kSimulate);
  }
  const bool sliced = options.reference && !shape.stream() && options.shards == 1;
  // A sliced run's set-up is scaled by the reference runs on either side
  // of it, not by one 0.6 s of simulation later.
  double ref_setup = 0.0;
  if (sliced) {
    Span span(tr, SpanName::kReference);
    ref_setup = reference_ns();
  }
  const Clock::time_point t2s = Clock::now();
  double sliced_raw_ns = 0.0;
  const TimePs end =
      sliced ? run_sliced(rig->shards, m.engine(), m.network().min_lookahead(),
                          tr, ref_setup, sliced_raw_ns, res.ref_simulate_ns)
             : rig->shards.run_all(m.network().min_lookahead());
  const Clock::time_point t3 = Clock::now();
  trace_end(tr, SpanName::kSimulate);
  const LayerCounts after = snapshot(m, rig->shards);

  res.build_ns = elapsed_ns(t0, t1);
  res.spawn_ns = elapsed_ns(t1, t2);
  res.total = after - base;

  trace_begin(tr, SpanName::kVerify);
  std::vector<TimePs> latencies;
  if (shape.stream()) {
    res.messages = static_cast<std::uint64_t>(shape.burst);
    res.failed = verify_stream(m, *rig->pool, stream);
    res.prepost_ns = elapsed_ns(t2, stream.release_host);
    res.simulate_ns = elapsed_ns(stream.release_host, t3);
    res.phase = rig->shards.size() == 1 ? after - stream.at_release : LayerCounts{};
    if (!stream.done.empty()) {
      res.gap_ps = (stream.done.back() - stream.release) / res.messages;
    }
    for (TimePs t : stream.done) latencies.push_back(t - stream.release);
  } else {
    res.messages = 0;
    for (int s = 0; s < chaos.nranks; ++s) {
      for (int d = 0; d < chaos.nranks; ++d) {
        if (s == d) continue;
        for (int k = 0; k < chaos.per_pair; ++k) {
          const std::size_t i = chaos.index(s, d, static_cast<std::size_t>(k));
          ++res.messages;
          if (chaos.done[i] >= chaos.issued[i]) {
            latencies.push_back(chaos.done[i] - chaos.issued[i]);
          }
        }
      }
    }
    res.failed = verify_chaos(m, *rig->pool, chaos, res.messages);
    res.simulate_ns = sliced ? sliced_raw_ns : elapsed_ns(t2s, t3);
    res.phase = res.total;
    res.gap_ps = end / res.messages;
  }
  set_latencies(std::move(latencies), res);
  res.heap_depth = median_of(std::move(st.heap_depths));
  trace_end(tr, SpanName::kVerify);

  trace_begin(tr, SpanName::kTeardown);
  rig.reset();
  trace_end(tr, SpanName::kTeardown);
  trace_end(tr, SpanName::kRep);

  if (options.reference) {
    const double ref_after = reference_ns();
    res.reference_ns = 0.5 * (ref_before + ref_after);
    const double scale = kReferenceNs / res.reference_ns;
    if (sliced) {
      res.ref_setup_ns =
          res.setup_ns() * kReferenceNs / (0.5 * (ref_before + ref_setup));
    } else {
      res.ref_setup_ns = res.setup_ns() * scale;
      res.ref_simulate_ns = res.simulate_ns * scale;
    }
  }
  return res;
}

}  // namespace perfbench
