// Property tests for the cache model against an executable reference:
// a straightforward list-based true-LRU implementation.  The Cache class
// is the hot path of every experiment (one access per walked queue
// entry), so its replacement behaviour is cross-checked exhaustively
// across geometries.
#include <gtest/gtest.h>

#include <list>
#include <tuple>
#include <unordered_map>

#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "mem/memory_system.hpp"

namespace alpu::mem {
namespace {

/// Reference: per-set LRU lists, textbook formulation, with a dirty
/// flag per resident line (write-allocate, write-back).
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& config)
      : config_(config), sets_(config.num_sets()) {}

  CacheAccess access(Addr addr, bool is_write) {
    auto& lru = sets_[set_of(addr)];
    const Addr tag = tag_of(addr);
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (it->tag == tag) {
        const bool dirty = it->dirty || is_write;
        lru.erase(it);
        lru.push_front({tag, dirty});  // most recently used
        return {.hit = true, .evicted_dirty = false};
      }
    }
    lru.push_front({tag, is_write});
    CacheAccess out{.hit = false, .evicted_dirty = false};
    if (lru.size() > config_.ways) {  // evict LRU
      out.evicted_dirty = lru.back().dirty;
      lru.pop_back();
    }
    return out;
  }

  bool contains(Addr addr) const {
    for (const Line& l : sets_[set_of(addr)]) {
      if (l.tag == tag_of(addr)) return true;
    }
    return false;
  }

  void flush() {
    for (auto& lru : sets_) lru.clear();
  }

 private:
  struct Line {
    Addr tag;
    bool dirty;
  };
  std::size_t set_of(Addr addr) const {
    return (addr / config_.line_bytes) % config_.num_sets();
  }
  Addr tag_of(Addr addr) const {
    return addr / config_.line_bytes / config_.num_sets();
  }

  CacheConfig config_;
  std::vector<std::list<Line>> sets_;
};

class CacheGeometry
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {
};

TEST_P(CacheGeometry, HitMissStreamMatchesReferenceLru) {
  const auto [size_kb, ways, line, seed] = GetParam();
  const CacheConfig config{.size_bytes = size_kb * 1024,
                           .line_bytes = line,
                           .ways = ways};
  Cache cache(config);
  ReferenceCache reference(config);
  common::Xoshiro256 rng(seed);

  // Mixed access pattern: streaming runs (queue walks), hot-set reuse
  // (firmware structures), and random scatter, with one flush midway.
  Addr stream = 0;
  Addr prev = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (i == 12'345) {
      cache.flush();
      reference.flush();
    }
    Addr addr;
    const double roll = rng.uniform01();
    if (roll < 0.4) {
      addr = stream;
      stream += line;
      if (stream > 4 * config.size_bytes) stream = 0;
    } else if (roll < 0.7) {
      addr = rng.below(16) * line;  // hot lines
    } else {
      addr = rng.below(1 << 22);
    }
    const bool is_write = rng.chance(0.3);
    const CacheAccess got = cache.access(addr, is_write);
    const CacheAccess want = reference.access(addr, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " addr " << addr;
    ASSERT_EQ(got.evicted_dirty, want.evicted_dirty)
        << "access " << i << " addr " << addr;
    // The line just filled is resident; the previous one unless this
    // access evicted it.
    ASSERT_TRUE(cache.contains(addr));
    ASSERT_EQ(cache.contains(prev), reference.contains(prev))
        << "access " << i << " probe " << prev;
    prev = addr;
  }
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            cache.stats().accesses);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(
        std::make_tuple(1, 1, 64, 11),    // direct-mapped
        std::make_tuple(1, 4, 64, 22),
        std::make_tuple(4, 8, 64, 33),
        std::make_tuple(32, 64, 64, 44),  // the NIC L1 shape
        std::make_tuple(64, 2, 64, 55),   // the host L1 shape
        std::make_tuple(8, 128, 64, 66),  // fully associative
        std::make_tuple(2, 2, 128, 77),   // wide lines
        // Non-power-of-two shapes (whole-KB sizes, hence the wide lines
        // under the odd way counts).
        std::make_tuple(99, 66, 512, 88),  // 3 sets x 66 ways
        std::make_tuple(6, 4, 96, 99),     // 96-byte lines
        std::make_tuple(3, 6, 512, 111)));  // 1 set x 6 ways

TEST(CacheProperties, DirtyBitSurvivesLruReordering) {
  // Write a line, keep it warm with reads while filling the set, then
  // force its eviction and expect exactly one writeback.
  const CacheConfig config{.size_bytes = 1024, .line_bytes = 64, .ways = 4};
  Cache cache(config);
  const std::size_t stride = 64 * config.num_sets();
  cache.access(0, true);  // dirty
  for (Addr w = 1; w < 4; ++w) {
    cache.access(w * stride, false);
    cache.access(0, false);  // keep it MRU (reads must not clean it)
  }
  for (Addr w = 4; w < 8; ++w) cache.access(w * stride, false);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheProperties, StatsConservation) {
  const CacheConfig config{.size_bytes = 2048, .line_bytes = 64, .ways = 2};
  Cache cache(config);
  common::Xoshiro256 rng(3);
  std::size_t resident = 0;
  for (int i = 0; i < 5'000; ++i) {
    const CacheAccess a = cache.access(rng.below(1 << 16), false);
    if (!a.hit) ++resident;
  }
  // fills == misses; evictions == fills - lines still resident.
  EXPECT_EQ(cache.stats().misses, resident);
  EXPECT_LE(cache.stats().evictions, cache.stats().misses);
  EXPECT_GE(cache.stats().evictions,
            cache.stats().misses - cache.config().num_lines());
}

// ---- memory-system composition properties -----------------------------------

TEST(MemorySystemProperties, CostsAreMonotoneInHierarchyDepth) {
  // For any address stream, L1-hit cost <= L1+L2 cost <= full-miss cost.
  MemorySystemConfig cfg;
  cfg.l1 = {.size_bytes = 1024, .line_bytes = 64, .ways = 4};
  cfg.l1_hit_ps = 4'000;
  cfg.l2 = CacheConfig{.size_bytes = 8192, .line_bytes = 64, .ways = 8};
  cfg.l2_hit_ps = 10'000;
  cfg.backend_ps = 50'000;
  MemorySystem m(cfg);
  common::Xoshiro256 rng(9);
  for (int i = 0; i < 2'000; ++i) {
    const common::TimePs t = m.load(rng.below(1 << 18), 0);
    EXPECT_GE(t, cfg.l1_hit_ps);
    EXPECT_LE(t, cfg.l1_hit_ps + cfg.l2_hit_ps + cfg.backend_ps);
  }
}

TEST(MemorySystemProperties, RepeatedTouchRangeBecomesAllHits) {
  MemorySystemConfig cfg;
  cfg.l1 = {.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 64};
  cfg.l1_hit_ps = 4'000;
  cfg.backend_ps = 50'000;
  MemorySystem m(cfg);
  (void)m.touch_range(0, 8 * 1024, 0, false);
  // The 8 KB region fits: a second pass costs exactly hits.
  EXPECT_EQ(m.touch_range(0, 8 * 1024, 0, false),
            (8u * 1024u / 64u) * 4'000u);
}

TEST(DramProperties, SequentialBeatsRandom) {
  // Open-row locality: sweeping a row costs less than hopping rows on
  // one bank.
  DramConfig cfg;
  cfg.banks = 1;  // force every access onto one bank
  Dram seq(cfg), rnd(cfg);
  common::TimePs t_seq = 0, t_rnd = 0;
  common::TimePs now = 0;
  for (int i = 0; i < 64; ++i) {
    t_seq += seq.access(static_cast<std::uint64_t>(i) * 64, now);
    t_rnd += rnd.access(static_cast<std::uint64_t>(i) * cfg.row_bytes * 2,
                        now);
    now += 1'000'000;  // spaced: no bank-busy stalls, pure row effects
  }
  EXPECT_LT(t_seq, t_rnd);
  EXPECT_EQ(seq.stats().row_hits, 63u);
  EXPECT_EQ(rnd.stats().row_hits, 0u);
}

}  // namespace
}  // namespace alpu::mem
