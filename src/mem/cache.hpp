// Set-associative cache model.
//
// The paper's central baseline effect is micro-architectural: queue
// traversal costs ~15 ns/entry while the queue fits in the NIC CPU's
// 32 KB L1 and ~64 ns/entry once it spills (Section VI-B).  This cache
// model — set-associative, LRU, allocate-on-miss — is what produces that
// knee in the reproduction.  It models tags only (no data payloads): the
// simulator needs timing, not contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace alpu::mem {

using Addr = std::uint64_t;

struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  std::size_t line_bytes = 64;
  std::size_t ways = 64;  ///< Table III lists the NIC L1 as 32K 64-way

  std::size_t num_lines() const { return size_bytes / line_bytes; }
  std::size_t num_sets() const { return num_lines() / ways; }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double hit_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(accesses);
  }
};

/// Result of a single cache access.
struct CacheAccess {
  bool hit = false;
  bool evicted_dirty = false;  ///< a dirty victim was written back
};

/// Tag-only set-associative cache with true-LRU replacement.
///
/// Every operation is O(1) in the associativity, so the NIC's 64-way L1
/// costs what the host's 2-way L1 does:
///  - Tag index.  An open-addressed, linear-probing table maps a line
///    number to its slot (set * ways + way).  Buckets hold a 4-byte slot
///    id; the key is checked against the per-slot line array.  Erase
///    uses backward shift, so there are no tombstones.
///  - Recency list.  Each set keeps a circular doubly-linked list of its
///    valid ways (`uint16_t` links) with the MRU way at its head, so the
///    LRU way is the head's predecessor.  A hit moves its way to the
///    head; a miss in a full set evicts the tail and makes it the head.
///  - Valid prefix.  A fill always takes the lowest invalid way and only
///    flush() invalidates, so a set's valid ways are exactly
///    [0, fill count) and no validity bitmask is needed.
///  - Dirty bits are a bitmask over slots.
/// Replacement is true LRU, bit-identical to stamping each way with a
/// global access clock and evicting the smallest stamp, so no modelled
/// timing depends on the layout.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Look up `addr`; on miss, allocate the line (evicting LRU).
  /// Header-inline: this is the innermost call of every modelled load
  /// and store, and inlining it (and its callees) into the memory-system
  /// front end keeps the geometry constants in registers.
  CacheAccess access(Addr addr, bool is_write);

  /// Probe without side effects (used by tests and warm-up accounting).
  bool contains(Addr addr) const;

  /// Invalidate everything (e.g. context switch modelling).
  void flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

 private:
  using Slot = std::uint32_t;
  using Way = std::uint16_t;
  static constexpr Slot kEmpty = ~Slot{0};

  struct Links {
    Way prev;  ///< next more recently used way; the MRU way's is the LRU
    Way next;  ///< next less recently used way; the LRU way's is the MRU
  };
  struct SetState {
    Way mru = 0;   ///< head of the recency list; meaningless when fill == 0
    Way fill = 0;  ///< valid ways, always [0, fill)
  };

  // Every practical geometry (Table III and the benchmark grids) has
  // power-of-two line size and set count, so the per-access index math
  // reduces to shifts and masks; the division fallback keeps arbitrary
  // test geometries (e.g. 3 sets x 66 ways, 96-byte lines) exact.
  Addr line_of(Addr addr) const {
    if (pow2_geometry_) return addr >> line_shift_;
    return addr / config_.line_bytes;
  }
  std::size_t set_of(Addr line) const {
    if (pow2_geometry_) return static_cast<std::size_t>(line) & (sets_ - 1);
    return static_cast<std::size_t>(line % sets_);
  }
  /// Home bucket of `line`: Fibonacci hashing spreads strided and
  /// sequential line numbers evenly.
  std::size_t home(Addr line) const {
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull) >>
                                    bucket_shift_);
  }
  /// Bucket holding `line`, or the empty bucket ending its probe run.
  std::size_t probe(Addr line) const;
  /// Remove `slot` (whose line is still in lines_) from the index.
  void erase_slot(Slot slot);
  /// Make `way` of `set` the MRU way.
  void touch(std::size_t set, Way way);
  /// Splice `way`, not yet in the non-empty list of `s`, in as its MRU.
  static void push_mru(Links* links, SetState& s, Way way);

  CacheConfig config_;
  std::size_t sets_;
  bool pow2_geometry_ = false;  ///< line_bytes and sets_ both powers of two
  unsigned line_shift_ = 0;     ///< log2(line_bytes) when pow2_geometry_
  unsigned bucket_shift_ = 0;   ///< 64 - log2(buckets_.size())
  std::size_t bucket_mask_ = 0;     ///< buckets_.size() - 1
  std::vector<Slot> buckets_;       ///< tag index, >= 2 buckets per line
  // Per-slot planes (sets_ * ways, set-major), left uninitialised: only
  // valid slots are ever read, and a fill writes its slot first.  Large
  // host L2s are mostly never filled, so their pages are never touched.
  std::unique_ptr<Addr[]> lines_;   ///< line number held by each slot
  std::unique_ptr<Links[]> links_;  ///< recency links of each slot
  std::vector<SetState> set_state_;  ///< sets_
  std::vector<std::uint64_t> dirty_;  ///< one bit per slot
  CacheStats stats_;
};

// ---- inline implementations (hot path) --------------------------------

inline std::size_t Cache::probe(Addr line) const {
  std::size_t b = home(line);
  while (buckets_[b] != kEmpty && lines_[buckets_[b]] != line) {
    b = (b + 1) & bucket_mask_;
  }
  return b;
}

inline void Cache::erase_slot(Slot slot) {
  std::size_t hole = home(lines_[slot]);
  while (buckets_[hole] != slot) hole = (hole + 1) & bucket_mask_;
  // Backward shift: pull each later entry of the run into the hole
  // unless its home lies cyclically in (hole, b], where it must stay.
  for (std::size_t b = (hole + 1) & bucket_mask_; buckets_[b] != kEmpty;
       b = (b + 1) & bucket_mask_) {
    const std::size_t h = home(lines_[buckets_[b]]);
    if (((b - h) & bucket_mask_) >= ((b - hole) & bucket_mask_)) {
      buckets_[hole] = buckets_[b];
      hole = b;
    }
  }
  buckets_[hole] = kEmpty;
}

inline void Cache::push_mru(Links* links, SetState& s, Way way) {
  const Way tail = links[s.mru].prev;
  links[way] = Links{.prev = tail, .next = s.mru};
  links[tail].next = way;
  links[s.mru].prev = way;
  s.mru = way;
}

inline void Cache::touch(std::size_t set, Way way) {
  SetState& s = set_state_[set];
  if (way == s.mru) return;
  Links* links = &links_[set * config_.ways];
  if (way == links[s.mru].prev) {
    // The LRU way already sits just before the head: rotate.
    s.mru = way;
    return;
  }
  links[links[way].prev].next = links[way].next;
  links[links[way].next].prev = links[way].prev;
  push_mru(links, s, way);
}

inline CacheAccess Cache::access(Addr addr, bool is_write) {
  ++stats_.accesses;
  const Addr line = line_of(addr);
  const std::size_t set = set_of(line);
  const std::size_t base = set * config_.ways;
  const std::size_t bucket = probe(line);

  // Hit path.
  if (buckets_[bucket] != kEmpty) {
    const Slot slot = buckets_[bucket];
    ++stats_.hits;
    touch(set, static_cast<Way>(slot - base));
    if (is_write) dirty_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    return CacheAccess{.hit = true, .evicted_dirty = false};
  }

  // Miss: allocate, preferring the lowest invalid way, else the
  // true-LRU victim at the tail of the recency list.
  ++stats_.misses;
  CacheAccess out{.hit = false, .evicted_dirty = false};
  SetState& s = set_state_[set];
  Slot slot;
  if (s.fill < config_.ways) {
    const Way way = s.fill++;
    slot = static_cast<Slot>(base + way);
    lines_[slot] = line;
    buckets_[bucket] = slot;
    if (way == 0) {
      links_[base] = Links{.prev = 0, .next = 0};
      s.mru = 0;
    } else {
      push_mru(&links_[base], s, way);
    }
  } else {
    const Way victim = links_[base + s.mru].prev;
    slot = static_cast<Slot>(base + victim);
    ++stats_.evictions;
    if ((dirty_[slot >> 6] >> (slot & 63)) & 1) {
      ++stats_.writebacks;
      out.evicted_dirty = true;
    }
    // Erasing may shift the probe run, so the new line re-probes.
    erase_slot(slot);
    lines_[slot] = line;
    buckets_[probe(line)] = slot;
    s.mru = victim;
  }
  const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
  if (is_write) {
    dirty_[slot >> 6] |= bit;
  } else {
    dirty_[slot >> 6] &= ~bit;
  }
  return out;
}

inline bool Cache::contains(Addr addr) const {
  return buckets_[probe(line_of(addr))] != kEmpty;
}

}  // namespace alpu::mem
