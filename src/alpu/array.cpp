#include "alpu/array.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define ALPU_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace alpu::hw {

namespace testing {
bool inject_compaction_off_by_one = false;
std::atomic<bool> inject_silent_flip{false};
}  // namespace testing

namespace {

bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

std::size_t pow2_ceil(std::size_t x) {
  return std::size_t{1} << std::bit_width(x - 1);
}

// ---- word-parallel compare kernels ----------------------------------------
//
// Each kernel evaluates one 64-cell word of the bit planes against a
// probe and returns the hit bitmask (bit j set == cell base+j matches,
// before the validity AND).  Two shapes:
//   * "posted": every cell carries its own don't-care mask,
//   * "uniform": one probe-supplied care mask for all cells (the
//     unexpected flavour's reverse lookup, and RESET PROCESS sweeps).
//
// The portable loop is branch-free per cell so any vectorizing build
// can fold it; on x86-64 a runtime-dispatched AVX2 version (compiled
// via the `target` attribute, so no special build flags are needed)
// compares four cells per step and gathers the hit bits with movemask.

std::uint64_t hit_word_posted_scalar(const MatchWord* b, const MatchWord* m,
                                     MatchWord pb, MatchWord sig) {
  std::uint64_t hits = 0;
  for (unsigned j = 0; j < 64; ++j) {
    hits |= static_cast<std::uint64_t>(((b[j] ^ pb) & ~m[j] & sig) == 0) << j;
  }
  return hits;
}

std::uint64_t hit_word_uniform_scalar(const MatchWord* b, MatchWord pb,
                                      MatchWord care) {
  std::uint64_t hits = 0;
  for (unsigned j = 0; j < 64; ++j) {
    hits |= static_cast<std::uint64_t>(((b[j] ^ pb) & care) == 0) << j;
  }
  return hits;
}

#ifdef ALPU_X86_DISPATCH

[[gnu::target("avx2")]] std::uint64_t hit_word_posted_avx2(
    const MatchWord* b, const MatchWord* m, MatchWord pb, MatchWord sig) {
  const __m256i vpb = _mm256_set1_epi64x(static_cast<long long>(pb));
  const __m256i vsig = _mm256_set1_epi64x(static_cast<long long>(sig));
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t hits = 0;
  for (unsigned j = 0; j < 64; j += 4) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i vm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + j));
    const __m256i mism = _mm256_and_si256(
        _mm256_andnot_si256(vm, _mm256_xor_si256(vb, vpb)), vsig);
    const __m256i eq = _mm256_cmpeq_epi64(mism, zero);
    hits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(eq))))
            << j;
  }
  return hits;
}

[[gnu::target("avx2")]] std::uint64_t hit_word_uniform_avx2(
    const MatchWord* b, MatchWord pb, MatchWord care) {
  const __m256i vpb = _mm256_set1_epi64x(static_cast<long long>(pb));
  const __m256i vcare = _mm256_set1_epi64x(static_cast<long long>(care));
  const __m256i zero = _mm256_setzero_si256();
  std::uint64_t hits = 0;
  for (unsigned j = 0; j < 64; j += 4) {
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i mism =
        _mm256_and_si256(_mm256_xor_si256(vb, vpb), vcare);
    const __m256i eq = _mm256_cmpeq_epi64(mism, zero);
    hits |= static_cast<std::uint64_t>(static_cast<unsigned>(
                _mm256_movemask_pd(_mm256_castsi256_pd(eq))))
            << j;
  }
  return hits;
}

// Resolved once at namespace-scope dynamic init (single-threaded,
// before any probe runs), so the per-word dispatch is one predictable
// branch.
const bool kHaveAvx2 = __builtin_cpu_supports("avx2") != 0;

#endif  // ALPU_X86_DISPATCH

std::uint64_t hit_word_posted(const MatchWord* b, const MatchWord* m,
                              MatchWord pb, MatchWord sig) {
#ifdef ALPU_X86_DISPATCH
  if (kHaveAvx2) return hit_word_posted_avx2(b, m, pb, sig);
#endif
  return hit_word_posted_scalar(b, m, pb, sig);
}

std::uint64_t hit_word_uniform(const MatchWord* b, MatchWord pb,
                               MatchWord care) {
#ifdef ALPU_X86_DISPATCH
  if (kHaveAvx2) return hit_word_uniform_avx2(b, pb, care);
#endif
  return hit_word_uniform_scalar(b, pb, care);
}

}  // namespace

AlpuArray::AlpuArray(AlpuFlavor flavor, std::size_t total_cells,
                     std::size_t block_size, MatchWord significant_mask)
    : flavor_(flavor),
      total_cells_(total_cells),
      block_size_(block_size),
      significant_mask_(significant_mask) {
  ALPU_ASSERT(total_cells > 0, "match array must have at least one cell");
  ALPU_ASSERT(is_pow2(block_size), "block size must be a power of 2 (III-B)");
  ALPU_ASSERT(total_cells % block_size == 0,
              "cell count must be a whole number of blocks");
  ALPU_ASSERT(significant_mask != 0, "comparators need at least one wired bit");
  // Pad every plane to a whole number of 64-cell words: the match loop
  // reads full words, and the validity bitmap masks the tail.
  const std::size_t padded = (total_cells + 63) & ~std::size_t{63};
  bits_.assign(padded, 0);
  mask_.assign(padded, 0);
  cookie_.assign(padded, 0);
  valid_.assign(padded / 64, 0);
  const std::size_t padded_blocks = pow2_ceil(total_cells / block_size);
  tree_scratch_.assign(block_size + padded_blocks, Candidate{});
  select_scratch_.assign(padded / 64, 0);
}

bool AlpuArray::cell_matches(std::size_t i, const Probe& probe) const {
  if (!valid_bit(i)) return false;  // invalid data cannot produce a match
  const MatchWord dont_care =
      flavor_ == AlpuFlavor::kPostedReceive ? mask_[i] : probe.mask;
  return ((bits_[i] ^ probe.bits) & ~dont_care & significant_mask_) == 0;
}

bool AlpuArray::insert(MatchWord bits, MatchWord mask, Cookie cookie) {
  if (full()) return false;
  const std::size_t i = occupancy_++;
  bits_[i] = bits;
  mask_[i] = mask;
  cookie_[i] = cookie;
  valid_[i >> 6] |= std::uint64_t{1} << (i & 63);
  parity_update_cell(i);
  // Cell `i` sits past the valid prefix, so the write turns its validity
  // bit 0 -> 1 and flips the word's parity.  Toggle the stored bit for
  // exactly that write: recomputing it from the word would absorb an
  // upset already sitting elsewhere in the word into the new parity,
  // and the next probe would trust a ghost valid bit.
  if (fault_) {
    const std::size_t w = i >> 6;
    fault_->parity_valid[w >> 6] ^= std::uint64_t{1} << (w & 63);
  }
  if (testing::inject_silent_flip.load(std::memory_order_relaxed) &&
      testing::inject_silent_flip.exchange(false)) {
    // Must-fail teeth: corrupt the oldest entry's source LSB behind the
    // parity layer's back.  See the declaration in array.hpp.
    bits_[0] ^= MatchWord{1} << match::kSourceShift;  // lint: ok(alpu-plane-write-outside-parity) — deliberate silent corruption
  }
  ALPU_INVARIANT(planes_consistent(), "insert broke the prefix invariant");
  return true;
}

std::size_t AlpuArray::find_oldest(const Probe& probe) const {
  // Stage 2 + priority network, word-parallel: each 64-cell word of the
  // bit planes yields one hit bitmask; the oldest match is countr_zero
  // of the first non-zero word.  The compare is branch-free per cell, so
  // the compiler can vectorize the stride-1 plane reads.
  const MatchWord pb = probe.bits;
  const MatchWord sig = significant_mask_;
  const std::size_t words = (occupancy_ + 63) >> 6;
  if (flavor_ == AlpuFlavor::kPostedReceive) {
    // Posted flavour: each cell stores its own don't-care mask (Fig 2a).
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t base = w << 6;
      const std::uint64_t hits =
          hit_word_posted(bits_.data() + base, mask_.data() + base, pb, sig) &
          valid_[w];
      counters_.cells_scanned +=
          total_cells_ - base < 64 ? total_cells_ - base : 64;
      if (hits != 0) {
        return base + static_cast<std::size_t>(std::countr_zero(hits));
      }
    }
    return kMiss;
  }
  // Unexpected flavour: the probe carries the mask (the reverse lookup,
  // Fig 2b) — one uniform don't-care for every cell.
  const MatchWord care = ~probe.mask & sig;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    const std::uint64_t hits =
        hit_word_uniform(bits_.data() + base, pb, care) & valid_[w];
    counters_.cells_scanned +=
        total_cells_ - base < 64 ? total_cells_ - base : 64;
    if (hits != 0) {
      return base + static_cast<std::size_t>(std::countr_zero(hits));
    }
  }
  return kMiss;
}

ArrayMatch AlpuArray::match(const Probe& probe) const {
  ++counters_.probes;
  // Detection point: every parity checker evaluates alongside the
  // comparators, so corruption anywhere in the planes surfaces before a
  // (possibly wrong) match result can be used.
  if (fault_ && !parity_ok()) return ArrayMatch{};
  const std::size_t i = find_oldest(probe);
  if (i == kMiss) return ArrayMatch{};
  return ArrayMatch{true, i, cookie_[i]};
}

ArrayMatch AlpuArray::match_tree(const Probe& probe) const {
  // Stage 2 of the pipeline: every cell produces (match AND valid).
  // Stages 3-4: pairwise priority muxes inside each block, then the same
  // reduction across block outputs.  "Priority" selects the older
  // (lower-index) candidate, mirroring the RTL where the highest-order
  // cell wins and entries age toward the high end.  All reduction
  // levels run in place in the per-instance scratch — no allocation.
  ++counters_.probes;
  counters_.cells_scanned += total_cells_;  // every comparator evaluates
  if (fault_ && !parity_ok()) return ArrayMatch{};

  const auto pick = [](const Candidate& older, const Candidate& younger) {
    if (older.hit) return older;
    if (younger.hit) return younger;
    return Candidate{};  // output is a don't-care without a hit
  };

  const std::size_t num_blocks = total_cells_ / block_size_;
  Candidate* const level = tree_scratch_.data();
  Candidate* const blocks = tree_scratch_.data() + block_size_;

  for (std::size_t b = 0; b < num_blocks; ++b) {
    // Leaf level: one candidate per cell.
    for (std::size_t c = 0; c < block_size_; ++c) {
      const std::size_t idx = b * block_size_ + c;
      level[c].hit = idx < occupancy_ && cell_matches(idx, probe);
      level[c].location = idx;
      level[c].cookie = cookie_[idx];
    }
    // log2(block_size) levels of 2-to-1 priority muxes.  The lower-index
    // (older) input of each pair wins when both match.
    for (std::size_t len = block_size_; len > 1; len >>= 1) {
      for (std::size_t i = 0; i < len / 2; ++i) {
        level[i] = pick(level[2 * i], level[2 * i + 1]);
      }
    }
    blocks[b] = level[0];
  }

  // Cross-block reduction ("cell block outputs are combined and
  // prioritized in the same manner"), padded to a power of two with
  // never-matching candidates.
  const std::size_t padded_blocks = pow2_ceil(num_blocks);
  for (std::size_t b = num_blocks; b < padded_blocks; ++b) {
    blocks[b] = Candidate{};
  }
  for (std::size_t len = padded_blocks; len > 1; len >>= 1) {
    for (std::size_t i = 0; i < len / 2; ++i) {
      blocks[i] = pick(blocks[2 * i], blocks[2 * i + 1]);
    }
  }

  if (!blocks[0].hit) return ArrayMatch{};
  return ArrayMatch{true, blocks[0].location, blocks[0].cookie};
}

ArrayMatch AlpuArray::match_and_delete(const Probe& probe) {
  const ArrayMatch m = match(probe);
  if (m.hit) delete_at(m.location);
  return m;
}

void AlpuArray::delete_at(std::size_t location) {
  ALPU_ASSERT(location < occupancy_, "delete past the valid prefix");
  // Broadcast match location: every younger cell shifts one slot toward
  // the high-priority end — one block move per plane — and the vacated
  // slot at the tail is invalidated.
  std::size_t moved = occupancy_ - 1 - location;
  if (testing::inject_compaction_off_by_one && moved > 0) --moved;
  if (moved > 0) {
    std::memmove(&bits_[location], &bits_[location + 1],
                 moved * sizeof(MatchWord));
    std::memmove(&mask_[location], &mask_[location + 1],
                 moved * sizeof(MatchWord));
    std::memmove(&cookie_[location], &cookie_[location + 1],
                 moved * sizeof(Cookie));
    counters_.compaction_moves += moved;
  }
  --occupancy_;
  bits_[occupancy_] = 0;
  mask_[occupancy_] = 0;
  cookie_[occupancy_] = 0;
  valid_[occupancy_ >> 6] &= ~(std::uint64_t{1} << (occupancy_ & 63));
  // Cells [location, old occupancy) were rewritten by the shift and the
  // tail clear; the verify that preceded this op (match path) vouches
  // for the source range, so recomputing parity here cannot launder a
  // flip.
  parity_update_range(location, occupancy_ + 1);
  ALPU_INVARIANT(planes_consistent(),
                 "delete compaction broke the prefix invariant");
}

void AlpuArray::reset() {
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(mask_.begin(), mask_.end(), 0);
  std::fill(cookie_.begin(), cookie_.end(), 0);
  std::fill(valid_.begin(), valid_.end(), 0);
  occupancy_ = 0;
  if (fault_) {
    // RESET is the recovery action: it rewrites every SRAM bit, so it
    // clears latent corruption and releases the quarantine.  The
    // processor re-shadows its authoritative lists afterwards.
    parity_rebuild_all();
    fault_->quarantined = false;
    fault_->first_pending_inject = common::kTimeNever;
  }
}

std::size_t AlpuArray::invalidate_matching(const Probe& selector) {
  // Broadcast compare (word-parallel, like a probe), then compact
  // survivors toward the high-priority end preserving relative order —
  // maximal runs of survivors move as single memmoves per plane.
  //
  // Unlike a match, the sweep always takes its don't-care mask from the
  // SELECTOR (the unexpected flavour's input-mask datapath), whatever
  // the unit's flavour: the stored per-cell masks describe what the
  // cell accepts, not what selects the cell.
  const MatchWord care = ~selector.mask & significant_mask_;
  const MatchWord pb = selector.bits;
  // Detection point: the sweep's broadcast compare reads every plane,
  // so it verifies like a probe does.  A quarantined array sweeps
  // nothing — its contents are untrustworthy until RESET.
  if (fault_ && !parity_ok()) return 0;
  const std::size_t words = (occupancy_ + 63) >> 6;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w << 6;
    select_scratch_[w] =
        hit_word_uniform(bits_.data() + base, pb, care) & valid_[w];
  }

  const auto selected = [&](std::size_t i) {
    return (select_scratch_[i >> 6] >> (i & 63)) & 1u;
  };

  std::size_t keep = 0;
  std::size_t i = 0;
  while (i < occupancy_) {
    if (selected(i)) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;  // extend the survivor run
    while (j < occupancy_ && !selected(j)) ++j;
    const std::size_t run = j - i;
    if (keep != i) {
      std::memmove(&bits_[keep], &bits_[i], run * sizeof(MatchWord));
      std::memmove(&mask_[keep], &mask_[i], run * sizeof(MatchWord));
      std::memmove(&cookie_[keep], &cookie_[i], run * sizeof(Cookie));
      counters_.compaction_moves += run;
    }
    keep += run;
    i = j;
  }

  const std::size_t removed = occupancy_ - keep;
  for (std::size_t k = keep; k < occupancy_; ++k) {
    bits_[k] = 0;
    mask_[k] = 0;
    cookie_[k] = 0;
    valid_[k >> 6] &= ~(std::uint64_t{1} << (k & 63));
  }
  occupancy_ = keep;
  // The survivor moves and the tail clear rewrote an arbitrary subset
  // of [0, old occupancy); the verify above vouches for the sources.
  if (removed > 0) parity_update_range(0, keep + removed);
  ALPU_INVARIANT(planes_consistent(),
                 "RESET PROCESS sweep broke the prefix invariant");
  return removed;
}

bool AlpuArray::planes_consistent() const {
  // With the fault model installed, injected corruption deliberately
  // breaks the prefix invariant (that is the point); parity, not this
  // structural check, is the integrity oracle in that mode.
  if (fault_) return true;
  const std::size_t padded = bits_.size();
  for (std::size_t i = 0; i < padded; ++i) {
    const bool valid = valid_bit(i);
    if (valid != (i < occupancy_)) return false;
    if (!valid && (bits_[i] != 0 || mask_[i] != 0 || cookie_[i] != 0)) {
      return false;
    }
  }
  return true;
}

Cell AlpuArray::cell(std::size_t i) const {
  ALPU_ASSERT(i < total_cells_, "cell index out of range");
  return Cell{bits_[i], mask_[i], cookie_[i], valid_bit(i)};
}

// ---- transient-fault model -------------------------------------------------

void AlpuArray::install_fault_model(const SeuConfig& config,
                                    std::uint64_t stream) {
  ALPU_ASSERT(!fault_, "fault model installed twice");
  fault_ = std::make_unique<SeuState>(config, stream);
  const std::size_t padded = bits_.size();
  fault_->parity_bits.assign(padded / 64, 0);
  fault_->parity_mask.assign(padded / 64, 0);
  fault_->parity_cookie.assign(padded / 64, 0);
  fault_->parity_valid.assign((valid_.size() + 63) / 64, 0);
  parity_rebuild_all();
}

void AlpuArray::parity_update_cell(std::size_t i) {
  if (!fault_) return;
  const std::size_t w = i >> 6;
  const std::uint64_t bit = std::uint64_t{1} << (i & 63);
  const auto put = [&](std::vector<std::uint64_t>& plane, bool p) {
    if (p) {
      plane[w] |= bit;
    } else {
      plane[w] &= ~bit;
    }
  };
  put(fault_->parity_bits, std::popcount(bits_[i]) & 1);
  put(fault_->parity_mask, std::popcount(mask_[i]) & 1);
  put(fault_->parity_cookie, std::popcount(cookie_[i]) & 1);
}

void AlpuArray::parity_update_valid_word(std::size_t w) {
  if (!fault_) return;
  const std::uint64_t bit = std::uint64_t{1} << (w & 63);
  if (std::popcount(valid_[w]) & 1) {
    fault_->parity_valid[w >> 6] |= bit;
  } else {
    fault_->parity_valid[w >> 6] &= ~bit;
  }
}

void AlpuArray::parity_update_range(std::size_t lo, std::size_t hi) {
  if (!fault_) return;
  hi = hi < bits_.size() ? hi : bits_.size();
  for (std::size_t i = lo; i < hi; ++i) parity_update_cell(i);
  for (std::size_t w = lo >> 6; w <= (hi - 1) >> 6 && hi > lo; ++w) {
    parity_update_valid_word(w);
  }
}

void AlpuArray::parity_rebuild_all() {
  parity_update_range(0, bits_.size());
}

void AlpuArray::seu_advance(common::TimePs now) {
  if (!fault_) return;
  SeuState& f = *fault_;
  f.last_advance = now;
  if (f.config.rate <= 0.0) {
    f.last_tick = now;  // parity/scrub-only installation: nothing to draw
    return;
  }
  while (f.last_tick + kSeuTickPs <= now) {
    f.last_tick += kSeuTickPs;
    // Fixed-draw discipline (like net::FaultInjector::decide): every
    // tick consumes exactly four draws whether or not it fires, so one
    // upset never perturbs the position of the next.
    const bool fire = f.rng.chance(f.config.rate);
    const std::size_t cell = f.rng.below(bits_.size());
    const std::uint64_t plane = f.rng.below(4);
    const unsigned bit = static_cast<unsigned>(f.rng.below(64));
    if (!fire) continue;
    switch (plane) {
      case 0:
        bits_[cell] ^= MatchWord{1} << bit;  // lint: ok(alpu-plane-write-outside-parity) — the injector IS the corruption source
        break;
      case 1:
        mask_[cell] ^= MatchWord{1} << bit;  // lint: ok(alpu-plane-write-outside-parity) — injector
        break;
      case 2:
        cookie_[cell] ^= Cookie{1} << (bit & 31);  // lint: ok(alpu-plane-write-outside-parity) — injector
        break;
      default:
        valid_[cell >> 6] ^= std::uint64_t{1} << (cell & 63);  // lint: ok(alpu-plane-write-outside-parity) — injector
        break;
    }
    ++f.stats.seu_injected;
    if (f.first_pending_inject == common::kTimeNever && !f.quarantined) {
      f.first_pending_inject = f.last_tick;
    }
  }
}

bool AlpuArray::parity_ok() const {
  SeuState& f = *fault_;
  if (f.quarantined) return false;
  bool ok = true;
  const std::size_t words = bits_.size() >> 6;
  for (std::size_t w = 0; w < words && ok; ++w) {
    std::uint64_t pb = 0;
    std::uint64_t pm = 0;
    std::uint64_t pc = 0;
    const std::size_t base = w << 6;
    for (unsigned j = 0; j < 64; ++j) {
      pb |= static_cast<std::uint64_t>(std::popcount(bits_[base + j]) & 1)
            << j;
      pm |= static_cast<std::uint64_t>(std::popcount(mask_[base + j]) & 1)
            << j;
      pc |= static_cast<std::uint64_t>(std::popcount(cookie_[base + j]) & 1)
            << j;
    }
    ok = pb == f.parity_bits[w] && pm == f.parity_mask[w] &&
         pc == f.parity_cookie[w];
  }
  for (std::size_t w = 0; w < valid_.size() && ok; ++w) {
    const bool p = std::popcount(valid_[w]) & 1;
    const bool stored = (f.parity_valid[w >> 6] >> (w & 63)) & 1;
    ok = p == stored;
  }
  if (ok) return true;
  // First mismatch of the episode: latch the quarantine.  Everything
  // after this answers PARITY FAULT until RESET rewrites the planes.
  f.quarantined = true;
  ++f.stats.parity_faults;
  if (f.first_pending_inject != common::kTimeNever &&
      f.last_advance >= f.first_pending_inject) {
    f.stats.detect_latency_sum_ps += f.last_advance - f.first_pending_inject;
  }
  f.first_pending_inject = common::kTimeNever;
  return false;
}

bool AlpuArray::scrub() {
  if (!fault_) return false;
  ++fault_->stats.scrub_sweeps;
  return !parity_ok();
}

void AlpuArray::corrupt_for_test(unsigned plane, std::size_t cell,
                                 unsigned bit) {
  ALPU_ASSERT(plane < 4 && cell < bits_.size() && bit < 64,
              "corrupt_for_test target out of range");
  switch (plane) {
    case 0:
      bits_[cell] ^= MatchWord{1} << bit;  // lint: ok(alpu-plane-write-outside-parity) — test-only corruption
      break;
    case 1:
      mask_[cell] ^= MatchWord{1} << bit;  // lint: ok(alpu-plane-write-outside-parity) — test-only corruption
      break;
    case 2:
      cookie_[cell] ^= Cookie{1} << (bit & 31);  // lint: ok(alpu-plane-write-outside-parity) — test-only corruption
      break;
    default:
      valid_[cell >> 6] ^= std::uint64_t{1} << (cell & 63);  // lint: ok(alpu-plane-write-outside-parity) — test-only corruption
      break;
  }
}

}  // namespace alpu::hw
