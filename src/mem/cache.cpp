#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"

namespace alpu::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config), sets_(config.num_sets()) {
  ALPU_ASSERT(config.size_bytes % config.line_bytes == 0,
              "cache size must be a whole number of lines");
  ALPU_ASSERT(config.num_lines() % config.ways == 0,
              "cache lines must fill its ways evenly");
  ALPU_ASSERT(sets_ > 0, "cache has zero sets");
  ALPU_ASSERT(config.ways <= std::numeric_limits<Way>::max(),
              "cache ways must fit the 16-bit recency links");
  const std::size_t lines = config.num_lines();
  ALPU_ASSERT(lines < kEmpty, "cache lines must fit 32-bit slot ids");
  pow2_geometry_ = std::has_single_bit(config_.line_bytes) &&
                   std::has_single_bit(sets_);
  if (pow2_geometry_) {
    line_shift_ = static_cast<unsigned>(std::countr_zero(config_.line_bytes));
  }
  // At most half the buckets are ever occupied, keeping probe runs short.
  const std::size_t buckets = std::bit_ceil(2 * lines);
  bucket_mask_ = buckets - 1;
  bucket_shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  buckets_.assign(buckets, kEmpty);
  lines_ = std::make_unique_for_overwrite<Addr[]>(lines);
  links_ = std::make_unique_for_overwrite<Links[]>(lines);
  set_state_.resize(sets_);
  dirty_.resize((lines + 63) / 64);
}

void Cache::flush() {
  // Dirty bits need no reset: every fill writes its slot's bit.
  std::fill(buckets_.begin(), buckets_.end(), kEmpty);
  std::fill(set_state_.begin(), set_state_.end(), SetState{});
}

}  // namespace alpu::mem
