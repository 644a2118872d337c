// Google-benchmark micro suite: wall-clock performance of the simulator's
// own building blocks (engineering hygiene — these bound how large an
// experiment the simulator can sweep).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "alpu/array.hpp"
#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "match/hash_list.hpp"
#include "match/list.hpp"
#include "mem/cache.hpp"
#include "portals/portals.hpp"
#include "sim/engine.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace alpu;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(i, [&sink] { ++sink; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1'000)->Arg(100'000);

void BM_EngineScheduleCancelChurn(benchmark::State& state) {
  // Schedule/cancel churn: half the scheduled events are cancelled
  // before they fire, the pattern timeout-guarded protocols produce.
  // Exercises the slot pool's O(1) cancel and tombstone pop path.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sink = 0;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(engine.schedule_at(i, [&sink] { ++sink; }));
    }
    for (std::size_t i = 0; i < n; i += 2) {
      engine.cancel(ids[i]);
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleCancelChurn)->Arg(1'000)->Arg(100'000);

void BM_EngineTimeoutGuardPattern(benchmark::State& state) {
  // The hot pattern from the NIC model: each "operation" schedules a
  // guard event far in the future, does its work, then cancels the
  // guard.  Every guard is cancelled; none ever fires.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::EventId guard = engine.schedule_at(
          static_cast<common::TimePs>(i) + 1'000'000, [&sink] { sink += 100; });
      engine.schedule_at(i, [&sink] { ++sink; });
      engine.cancel(guard);
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_EngineTimeoutGuardPattern)->Arg(10'000);

void BM_FifoPushPop(benchmark::State& state) {
  common::BoundedFifo<std::uint64_t> fifo(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    (void)fifo.try_push(v++);
    benchmark::DoNotOptimize(fifo.pop());
  }
}
BENCHMARK(BM_FifoPushPop);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache(
      {.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64});
  common::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 20), false));
  }
}
BENCHMARK(BM_CacheAccess);

// A cyclic walk of `lines` consecutive lines through the NIC L1 shape.
// 404 lines fit: every access hits, as in posted_walk's list walk.  1008
// lines (chaos_a2a's L1 footprint) overflow true LRU: every access misses
// and evicts.
void BM_CacheWalk(benchmark::State& state) {
  const auto lines = static_cast<mem::Addr>(state.range(0));
  mem::Cache cache(
      {.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64});
  mem::Addr line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line * 64, false));
    if (++line == lines) line = 0;
  }
  state.counters["hit_rate"] = cache.stats().hit_rate();
}
BENCHMARK(BM_CacheWalk)->Arg(404)->Arg(1008);

void BM_PostedListSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  match::PostedList list;
  for (std::size_t i = 0; i < n; ++i) {
    list.append({match::make_recv_pattern(0, 1,
                                          static_cast<std::uint32_t>(i % 512)),
                 static_cast<match::Cookie>(i), 0});
  }
  const auto miss = match::pack(match::Envelope{1, 1, 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.search(miss));  // worst case: full walk
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PostedListSearch)->Arg(16)->Arg(256)->Arg(4096);

void BM_HashConsume(benchmark::State& state) {
  match::UnexpectedHashList list;
  std::uint32_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    list.insert(match::pack(match::Envelope{0, 1, i % 512}), i);
    state.ResumeTiming();
    benchmark::DoNotOptimize(list.consume_match(
        match::exact_pattern(match::Envelope{0, 1, i % 512})));
    ++i;
  }
}
BENCHMARK(BM_HashConsume);

void BM_AlpuArrayMatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hw::AlpuArray array(hw::AlpuFlavor::kPostedReceive, n, 16);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = match::make_recv_pattern(
        0, 1, static_cast<std::uint32_t>(i % 512));
    (void)array.insert(p.bits, p.mask, static_cast<match::Cookie>(i));
  }
  const hw::Probe miss{match::pack(match::Envelope{1, 1, 1}), 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.match(miss));
  }
}
BENCHMARK(BM_AlpuArrayMatch)->Arg(128)->Arg(256);

void BM_AlpuArrayMatchTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hw::AlpuArray array(hw::AlpuFlavor::kPostedReceive, n, 16);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = match::make_recv_pattern(
        0, 1, static_cast<std::uint32_t>(i % 512));
    (void)array.insert(p.bits, p.mask, static_cast<match::Cookie>(i));
  }
  const hw::Probe miss{match::pack(match::Envelope{1, 1, 1}), 0, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.match_tree(miss));
  }
}
BENCHMARK(BM_AlpuArrayMatchTree)->Arg(128)->Arg(256);

void BM_PortalsAcceleratedPut(benchmark::State& state) {
  portals::PortalTable table(1);
  const auto eq = table.eq_alloc(1 << 16);
  (void)table.attach_alpu(0, 256, 16);
  std::uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    portals::MatchEntrySpec spec;
    spec.match_bits = 0x5000 + (i % 256);
    spec.md.length = 64;
    (void)table.me_attach(0, spec, eq);
    (void)table.eq(eq).poll();
    (void)table.eq(eq).poll();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        table.put(0, {0, 0}, 0x5000 + (i % 256), 32));
    ++i;
  }
}
BENCHMARK(BM_PortalsAcceleratedPut);

void BM_FullPingPongSimulation(benchmark::State& state) {
  // Wall-clock cost of one complete two-node end-to-end simulation —
  // the unit of work every Figure 5/6 data point costs.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::run_pingpong(workload::NicMode::kAlpu128, 0, 1));
  }
}
BENCHMARK(BM_FullPingPongSimulation);

void BM_PrepostedDataPoint(benchmark::State& state) {
  // Full-machine cost of one Figure 5 data point, with the DES-kernel
  // event rate surfaced as items/sec (LatencyResult.events_executed).
  const auto len = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    workload::PrepostedParams p;
    p.mode = workload::NicMode::kAlpu256;
    p.queue_length = len;
    const workload::LatencyResult r = workload::run_preposted(p);
    events += r.events_executed;
    benchmark::DoNotOptimize(r.latency);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items=sim events");
}
BENCHMARK(BM_PrepostedDataPoint)->Arg(0)->Arg(500);

}  // namespace

// Custom main: accept the repo-wide `--json <path>` spelling and
// translate it into google-benchmark's --benchmark_out flags, so every
// benchmark binary shares one JSON-output interface.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.push_back("--benchmark_out_format=json");
    } else if (a.rfind("--json=", 0) == 0) {
      args.push_back("--benchmark_out=" + a.substr(7));
      args.push_back("--benchmark_out_format=json");
    } else {
      args.push_back(a);
    }
  }
  // benchmark::Initialize wants mutable char*s that outlive the run.
  std::vector<char*> cargs;
  cargs.reserve(args.size());
  for (std::string& a : args) cargs.push_back(a.data());
  int cargc = static_cast<int>(cargs.size());
  benchmark::Initialize(&cargc, cargs.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargs.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
