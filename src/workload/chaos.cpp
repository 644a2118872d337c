#include "workload/chaos.hpp"

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "mpi/mpi.hpp"
#include "sim/parallel.hpp"

namespace alpu::workload {

namespace {

/// messages[d][s] = payload sizes rank s sends to rank d, in order.
struct Plan {
  std::vector<std::vector<std::vector<std::uint32_t>>> messages;
  int nranks = 0;
};

Plan make_plan(int nranks, int per_pair, std::uint64_t seed,
               bool overload) {
  common::Xoshiro256 rng(seed);
  Plan plan;
  plan.nranks = nranks;
  plan.messages.resize(static_cast<std::size_t>(nranks));
  for (int d = 0; d < nranks; ++d) {
    plan.messages[static_cast<std::size_t>(d)].resize(
        static_cast<std::size_t>(nranks));
    for (int s = 0; s < nranks; ++s) {
      if (s == d) continue;
      // Incast: every sender floods rank 0 and nobody else, with
      // all-eager sizes — receiver resources are the only bottleneck.
      if (overload && d != 0) continue;
      for (int m = 0; m < per_pair; ++m) {
        if (overload) {
          plan.messages[static_cast<std::size_t>(d)]
                       [static_cast<std::size_t>(s)]
              .push_back(static_cast<std::uint32_t>(64 + rng.below(1'984)));
          continue;
        }
        // Mostly eager, occasionally rendezvous-sized — the loss of any
        // RTS/CTS/DATA leg must be survivable too.
        const std::uint32_t bytes =
            rng.chance(0.15)
                ? static_cast<std::uint32_t>(20'000 + rng.below(40'000))
                : static_cast<std::uint32_t>(1 + rng.below(2'000));
        plan.messages[static_cast<std::size_t>(d)]
                     [static_cast<std::size_t>(s)]
                         .push_back(bytes);
      }
    }
  }
  return plan;
}

struct RankOutcome {
  std::uint64_t received_bytes = 0;
  std::uint64_t order_violations = 0;  ///< matched tag != posting ordinal
  std::uint64_t size_mismatches = 0;   ///< bytes != planned payload
};

/// One pending receive: from which peer, which ordinal, how many bytes
/// the plan says it carries.
struct PendingRecv {
  mpi::Request request;
  int peer = 0;
  std::size_t ordinal = 0;
  std::uint32_t planned_bytes = 0;
};

sim::Process chaos_rank(mpi::Machine& machine, const Plan& plan, int rank,
                        std::uint64_t seed, bool overload,
                        std::vector<RankOutcome>& out) {
  common::Xoshiro256 rng(seed ^ (0xC0FFEEULL + 977 * static_cast<std::uint64_t>(rank)));
  mpi::Rank& self = machine.rank(rank);

  std::vector<mpi::Request> sends;
  std::vector<PendingRecv> recvs;
  std::vector<std::size_t> send_cursor(
      static_cast<std::size_t>(plan.nranks), 0);
  std::vector<std::size_t> recv_cursor(
      static_cast<std::size_t>(plan.nranks), 0);

  // Interleave sends and receives across peers with random think time,
  // racing arrivals against postings.  Sends tag each message with its
  // per-pair ordinal; receives use an explicit source and ANY_TAG, so
  // the tag that actually matched exposes per-pair delivery order.
  bool work_left = true;
  while (work_left) {
    work_left = false;
    for (int peer = 0; peer < plan.nranks; ++peer) {
      if (peer == rank) continue;
      const auto p = static_cast<std::size_t>(peer);
      const auto r = static_cast<std::size_t>(rank);
      if (send_cursor[p] < plan.messages[p][r].size()) {
        const auto i = send_cursor[p]++;
        sends.push_back(self.isend(peer, static_cast<int>(i),
                                   plan.messages[p][r][i]));
        work_left = true;
      }
      if (recv_cursor[p] < plan.messages[r][p].size()) {
        const auto i = recv_cursor[p]++;
        recvs.push_back(PendingRecv{
            self.irecv(peer, mpi::kAnyTag, 64 * 1024), peer, i,
            plan.messages[r][p][i]});
        work_left = true;
      }
      if (rng.chance(0.2)) {
        // Think time schedules on this rank's own shard engine.
        co_await sim::delay(self.engine(), rng.below(3'000) * 1'000);
      }
    }
    if (overload && rank == 0 && work_left) {
      // The overloaded receiver drains slowly: one receive per peer per
      // round, then a fixed stall.  The senders' eager floods pile up
      // against the NIC's budget in the meantime — that pressure is the
      // point of the scenario.
      co_await sim::delay(self.engine(), 50'000'000);  // 50 us
    }
  }

  co_await self.waitall(std::move(sends));
  RankOutcome& result = out[static_cast<std::size_t>(rank)];
  for (PendingRecv& pr : recvs) {
    co_await self.wait(pr.request);
    result.received_bytes += pr.request.bytes();
    const match::Envelope env = pr.request.matched();
    // Receives from one peer are posted in ordinal order and the posted
    // list matches oldest-first, so arrival k from a peer completes the
    // k-th posted receive: the matched tag must equal the ordinal, or
    // the reliability layer let a message through out of order (or a
    // duplicate consumed a receive out of turn).
    if (env.tag != pr.ordinal) ++result.order_violations;
    if (pr.request.bytes() != pr.planned_bytes) ++result.size_mismatches;
  }
  co_await self.barrier();
}

}  // namespace

mpi::SystemConfig make_chaos_system_config(const ChaosParams& params) {
  mpi::SystemConfig cfg = make_system_config(params.mode, params.ranks);
  cfg.faults = params.faults;
  cfg.nic.reliability = params.reliability;
  if (cfg.faults.any()) cfg.nic.reliability.enabled = true;
  cfg.nic.eager_pool_bytes = params.eager_pool_bytes;
  cfg.nic.unexpected_slots = params.unexpected_slots;
  cfg.nic.seu = params.seu;
  // Finite budgets make exhaustion an RNR-NACK protocol event, which
  // lives in the reliability sublayer.
  if (cfg.nic.eager_pool_bytes > 0 || cfg.nic.unexpected_slots > 0) {
    cfg.nic.reliability.enabled = true;
  }
  return cfg;
}

ChaosResult run_chaos(const ChaosParams& params) {
  const Plan plan =
      make_plan(params.ranks, params.per_pair, params.seed, params.overload);

  const unsigned nshards = static_cast<unsigned>(
      std::clamp(params.shards, 1, std::max(params.ranks, 1)));
  sim::ShardGroup shards(nshards);
#if ALPU_AUDIT
  if (params.auditor != nullptr) shards.set_audit(params.auditor);
#endif
  mpi::Machine machine(shards, make_chaos_system_config(params));
  sim::ProcessPool pool(machine.engine());
  std::vector<RankOutcome> outcomes(
      static_cast<std::size_t>(params.ranks));
  for (int r = 0; r < params.ranks; ++r) {
    pool.spawn_on(machine.engine(r),
                  chaos_rank(machine, plan, r, params.seed, params.overload,
                             outcomes));
  }
  const common::TimePs end =
      shards.run_all(machine.network().min_lookahead());

  ChaosResult res;
  res.completed = pool.all_done();
  res.sim_time = end;
  res.events_executed = shards.events_executed();
  res.net = machine.network().stats();

  res.conserved = true;
  res.ordered = true;
  for (int d = 0; d < params.ranks; ++d) {
    std::uint64_t expected = 0;
    for (int s = 0; s < params.ranks; ++s) {
      for (std::uint32_t b : plan.messages[static_cast<std::size_t>(d)]
                                          [static_cast<std::size_t>(s)]) {
        expected += b;
        ++res.messages;
      }
    }
    const RankOutcome& o = outcomes[static_cast<std::size_t>(d)];
    if (o.received_bytes != expected || o.size_mismatches != 0) {
      res.conserved = false;
    }
    if (o.order_violations != 0) res.ordered = false;
  }
  // An incomplete run never receives everything; keep the flags honest.
  if (!res.completed) res.conserved = false;

  res.drained = true;
  for (int r = 0; r < params.ranks; ++r) {
    const nic::Nic& n = machine.nic(r);
    if (n.posted_queue_length() != 0 || n.unexpected_queue_length() != 0) {
      res.drained = false;
    }
    res.reliability += n.reliability().stats();
    res.probe_rejections += n.stats().alpu_probe_rejections;
    res.fallback_resets += n.stats().alpu_fallback_resets;
    res.fallback_searches += n.stats().alpu_fallback_searches;
    const hw::SeuStats seu = n.seu_stats();
    res.seu_injected += seu.seu_injected;
    res.parity_faults += seu.parity_faults;
    res.scrub_sweeps += seu.scrub_sweeps;
    res.rebuilds += n.stats().rebuilds;
    res.seu_detect_latency_ps += seu.detect_latency_sum_ps;
    res.peak_pool_bytes =
        std::max(res.peak_pool_bytes, n.stats().eager_pool_peak_bytes);
    res.peak_unexpected_slots =
        std::max(res.peak_unexpected_slots, n.stats().unexpected_slots_peak);
    res.peak_unexpected_depth =
        std::max(res.peak_unexpected_depth, n.stats().unexpected_depth_peak);
    res.demotions += n.stats().rnr_demotions;
    res.demoted_sends += n.stats().demoted_sends;
  }
  res.pool_budget = params.eager_pool_bytes;
  res.slot_budget = params.unexpected_slots;
  res.stalls = machine.watchdog().stalls_detected();
  return res;
}

}  // namespace alpu::workload
