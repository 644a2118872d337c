#include "isolated.hpp"

#include <algorithm>
#include <vector>

#include "alpu/array.hpp"
#include "match/list.hpp"
#include "match/match.hpp"
#include "mem/memory_system.hpp"
#include "nic/config.hpp"
#include "reference.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// Keeps computed results observable so the timed calls are not elided.
volatile std::uint64_t g_sink = 0;

/// Run `batch()` (which returns the operations it performed) until
/// `seconds` have passed, at least 5 times; median ns per operation at
/// reference speed (each batch scaled by the reference runs beside it).
template <typename Batch>
double median_ns_per_op(double seconds, Batch batch) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  double ref_before = reference_ns();
  while (samples.size() < 5 || elapsed_ns(start, Clock::now()) < seconds * 1e9) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t ops = batch();
    const Clock::time_point t1 = Clock::now();
    const double ref_after = reference_ns();
    samples.push_back(elapsed_ns(t0, t1) / static_cast<double>(ops) *
                      kReferenceNs / (0.5 * (ref_before + ref_after)));
    ref_before = ref_after;
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

alpu::match::MatchWord word(std::uint32_t source, std::uint32_t tag) {
  return alpu::match::pack(alpu::match::Envelope{0, source, tag});
}

}  // namespace

double time_engine_event(std::uint64_t heap_depth, double seconds) {
  using alpu::common::TimePs;
  const std::uint64_t chains = std::max<std::uint64_t>(heap_depth, 1);
  constexpr std::uint64_t kEvents = 100'000;
  return median_ns_per_op(seconds, [&] {
    alpu::sim::Engine engine;
    std::uint64_t remaining = kEvents;
    struct Chain {
      alpu::sim::Engine* engine;
      std::uint64_t* remaining;
      TimePs step;
      void fire() {
        if (*remaining == 0) return;
        --*remaining;
        engine->schedule_in(step, [this] { fire(); });
      }
    };
    std::vector<Chain> chain(chains);
    for (std::uint64_t c = 0; c < chains; ++c) {
      chain[c] = Chain{&engine, &remaining, 1 + c % 7};
      engine.schedule_at(c, [&chain, c] { chain[c].fire(); });
    }
    engine.run();
    return engine.events_executed();
  });
}

double time_list_entry(std::size_t depth, double seconds) {
  alpu::match::PostedList list;
  alpu::match::Cookie cookie = 1;
  for (std::size_t i = 0; i < depth; ++i) {
    list.append({alpu::match::exact_pattern({0, 1, 3}), cookie++, 64 * i});
  }
  list.append({alpu::match::make_recv_pattern(0, 1, std::nullopt), cookie,
               64 * depth});
  const alpu::match::MatchWord probe = word(1, 16);
  constexpr int kSearches = 200;
  return median_ns_per_op(seconds, [&] {
    std::uint64_t visited = 0;
    for (int i = 0; i < kSearches; ++i) visited += list.search(probe).visited;
    g_sink = g_sink + visited;
    return visited;
  });
}

double time_alpu_probe(std::size_t occupancy, double seconds) {
  constexpr std::size_t kCells = 256;
  const std::size_t n = std::clamp<std::size_t>(occupancy, 1, kCells);
  alpu::hw::AlpuArray array(alpu::hw::AlpuFlavor::kPostedReceive, kCells, 16);
  const alpu::match::Pattern miss = alpu::match::exact_pattern({0, 1, 3});
  const alpu::match::Pattern hit = alpu::match::make_recv_pattern(0, 1, std::nullopt);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    (void)array.insert(miss.bits, miss.mask, static_cast<alpu::match::Cookie>(i + 1));
  }
  (void)array.insert(hit.bits, hit.mask, static_cast<alpu::match::Cookie>(n));
  const alpu::hw::Probe probe{word(1, 16), 0, 0};
  constexpr int kProbes = 1'000;
  return median_ns_per_op(seconds, [&] {
    std::uint64_t found = 0;
    for (int i = 0; i < kProbes; ++i) found += array.match(probe).location;
    g_sink = g_sink + found;
    return static_cast<std::uint64_t>(kProbes);
  });
}

double time_memory_access(std::size_t lines, double seconds) {
  alpu::mem::MemorySystem memory(alpu::nic::NicConfig{}.memory);
  const std::size_t n = std::max<std::size_t>(lines, 1);
  constexpr std::uint64_t kAccesses = 20'000;
  alpu::common::TimePs now = 0;
  std::size_t line = 0;
  return median_ns_per_op(seconds, [&] {
    for (std::uint64_t i = 0; i < kAccesses; ++i) {
      now += memory.load(0x1000'0000 + 64 * line, now);
      line = line + 1 == n ? 0 : line + 1;
    }
    g_sink = g_sink + now;
    return kAccesses;
  });
}

}  // namespace perfbench
