#include "reference.hpp"

#include <cstdint>
#include <memory>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

struct Event {
  std::uint64_t when = 0;
  std::uint32_t id = 0;
};

/// The kernel's state persists across calls, so every call does the same
/// steady-state work (no first-call growth inside a timed section).
class Kernel {
 public:
  Kernel() : table_(kTableSize, 0) {
    for (std::uint32_t i = 0; i < 4096; ++i) push({next() % 100'000, i});
  }

  std::uint64_t step() {
    const Event e = pop();
    std::uint64_t v = e.when ^ acc_;
    switch (next() & 3) {
      case 0: acc_ += probe(v); break;
      case 1: acc_ += scan(v); break;
      case 2: acc_ += allocate(v); break;
      default: acc_ += v % 7 == 0 ? v / 3 : v * 5; break;
    }
    push({e.when + 1 + next() % 1'000, e.id});
    return acc_;
  }

 private:
  static constexpr std::size_t kTableSize = 1 << 17;  // 1 MiB

  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  void push(Event e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (heap_[parent].when <= e.when) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  Event pop() {
    const Event top = heap_[0];
    const Event last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    while (n > 0) {
      const std::size_t child = 4 * i + 1;
      if (child >= n) break;
      std::size_t best = child;
      for (std::size_t k = child + 1; k < child + 4 && k < n; ++k) {
        if (heap_[k].when < heap_[best].when) best = k;
      }
      if (heap_[best].when >= last.when) break;
      heap_[i] = heap_[best];
      i = best;
    }
    if (n > 0) heap_[i] = last;
    return top;
  }

  std::uint64_t probe(std::uint64_t v) {
    const std::size_t slot = (v * 0x9E3779B97F4A7C15ULL) >> 47;
    for (std::size_t k = 0; k < 4; ++k) {
      if (table_[(slot + k) & (kTableSize - 1)] == v) return k;
    }
    table_[slot & (kTableSize - 1)] = v;
    return 7;
  }

  static std::uint64_t scan(std::uint64_t v) {
    std::uint64_t words[32];
    for (std::uint64_t i = 0; i < 32; ++i) words[i] = v + 3 * i;
    std::uint64_t hits = 0;
    for (std::uint64_t w : words) hits += (w & 7) == 3;
    return hits;
  }

  static std::uint64_t allocate(std::uint64_t v) {
    const auto block = std::make_unique<std::uint64_t[]>(8 + (v & 15));
    block[0] = v;
    return block[0] ^ 5;
  }

  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;
  std::uint64_t x_ = 88172645463325252ULL;
  std::uint64_t acc_ = 0;
};

volatile std::uint64_t g_sink = 0;

}  // namespace

double reference_ns() {
  static Kernel kernel;
  constexpr int kSteps = 2'500;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) acc = kernel.step();
  const Clock::time_point t1 = Clock::now();
  g_sink = acc;
  return elapsed_ns(t0, t1) / kSteps;
}

}  // namespace perfbench
