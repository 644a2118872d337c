// Unit + property tests for the ALPU functional match array (Figure 2).
#include <gtest/gtest.h>

#include <tuple>

#include "alpu/array.hpp"
#include "check/checker.hpp"
#include "check/spec.hpp"
#include "common/rng.hpp"

namespace alpu::hw {
namespace {

using match::Envelope;
using match::make_recv_pattern;
using match::pack;

Probe probe_of(std::uint32_t ctx, std::uint32_t src, std::uint32_t tag) {
  return Probe{pack(Envelope{ctx, src, tag}), 0, 0};
}

// ---- basic behaviour -------------------------------------------------------

TEST(AlpuArray, StartsEmpty) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 32, 8);
  EXPECT_EQ(a.capacity(), 32u);
  EXPECT_EQ(a.occupancy(), 0u);
  EXPECT_EQ(a.free_slots(), 32u);
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.match(probe_of(0, 0, 0)).hit);
}

TEST(AlpuArray, InsertThenMatch) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 32, 8);
  const auto p = make_recv_pattern(0, 1, 7);
  ASSERT_TRUE(a.insert(p.bits, p.mask, 42));
  const auto m = a.match(probe_of(0, 1, 7));
  ASSERT_TRUE(m.hit);
  EXPECT_EQ(m.cookie, 42u);
  EXPECT_EQ(m.location, 0u);
  EXPECT_EQ(a.occupancy(), 1u);  // pure match does not delete
}

TEST(AlpuArray, OldestMatchingCellWins) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 32, 8);
  // Wildcard-source entry inserted first; exact entry second.  MPI
  // ordering demands the first (wildcard) entry wins — the property the
  // paper stresses distinguishes this from longest-prefix-match routing.
  const auto wild = make_recv_pattern(0, std::nullopt, 7);
  const auto exact = make_recv_pattern(0, 3, 7);
  ASSERT_TRUE(a.insert(wild.bits, wild.mask, 1));
  ASSERT_TRUE(a.insert(exact.bits, exact.mask, 2));
  const auto m = a.match(probe_of(0, 3, 7));
  ASSERT_TRUE(m.hit);
  EXPECT_EQ(m.cookie, 1u);
}

TEST(AlpuArray, MatchAndDeleteCompacts) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 32, 8);
  for (Cookie c = 1; c <= 4; ++c) {
    const auto p = make_recv_pattern(0, 1, c);
    ASSERT_TRUE(a.insert(p.bits, p.mask, c));
  }
  const auto m = a.match_and_delete(probe_of(0, 1, 2));
  ASSERT_TRUE(m.hit);
  EXPECT_EQ(m.cookie, 2u);
  EXPECT_EQ(m.location, 1u);
  EXPECT_EQ(a.occupancy(), 3u);
  // Younger entries shifted up one slot; no holes (Section III-B).
  EXPECT_EQ(a.cell(0).cookie, 1u);
  EXPECT_EQ(a.cell(1).cookie, 3u);
  EXPECT_EQ(a.cell(2).cookie, 4u);
  EXPECT_FALSE(a.cell(3).valid);
}

TEST(AlpuArray, DeleteOnMatchConsumesExactlyOne) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 32, 8);
  const auto p = make_recv_pattern(0, 1, 7);
  ASSERT_TRUE(a.insert(p.bits, p.mask, 1));
  ASSERT_TRUE(a.insert(p.bits, p.mask, 2));
  EXPECT_EQ(a.match_and_delete(probe_of(0, 1, 7)).cookie, 1u);
  EXPECT_EQ(a.match_and_delete(probe_of(0, 1, 7)).cookie, 2u);
  EXPECT_FALSE(a.match_and_delete(probe_of(0, 1, 7)).hit);
  EXPECT_TRUE(a.empty());
}

TEST(AlpuArray, InsertFailsWhenFull) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 16, 8);
  const auto p = make_recv_pattern(0, 1, 1);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(a.insert(p.bits, p.mask, static_cast<Cookie>(i)));
  }
  EXPECT_TRUE(a.full());
  EXPECT_FALSE(a.insert(p.bits, p.mask, 99));
  EXPECT_EQ(a.occupancy(), 16u);
}

TEST(AlpuArray, ResetClearsAllValidFlags) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 16, 8);
  const auto p = make_recv_pattern(0, 1, 1);
  ASSERT_TRUE(a.insert(p.bits, p.mask, 5));
  a.reset();
  EXPECT_TRUE(a.empty());
  EXPECT_FALSE(a.match(probe_of(0, 1, 1)).hit);
  ASSERT_TRUE(a.insert(p.bits, p.mask, 6));  // usable again
  EXPECT_EQ(a.match(probe_of(0, 1, 1)).cookie, 6u);
}

TEST(AlpuArray, InvalidCellsNeverMatch) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 8, 8);
  const auto p = make_recv_pattern(0, 0, 0);
  ASSERT_TRUE(a.insert(p.bits, p.mask, 1));
  const auto m = a.match_and_delete(probe_of(0, 0, 0));
  ASSERT_TRUE(m.hit);
  // The vacated cell still holds the stale bits but valid==false.
  EXPECT_FALSE(a.match(probe_of(0, 0, 0)).hit);
}

// ---- flavour differences ---------------------------------------------------

TEST(AlpuArray, PostedFlavorUsesStoredMask) {
  AlpuArray a(AlpuFlavor::kPostedReceive, 8, 8);
  const auto wild = make_recv_pattern(0, std::nullopt, 7);
  ASSERT_TRUE(a.insert(wild.bits, wild.mask, 1));
  // Probe mask must be ignored in this flavour.
  Probe p = probe_of(0, 9, 7);
  p.mask = ~0ull;  // nonsense input mask
  EXPECT_TRUE(a.match(p).hit);
  EXPECT_FALSE(a.match(probe_of(0, 9, 8)).hit);
}

TEST(AlpuArray, UnexpectedFlavorUsesProbeMask) {
  AlpuArray a(AlpuFlavor::kUnexpected, 8, 8);
  // Cells store explicit arrived envelopes.
  ASSERT_TRUE(a.insert(pack(Envelope{0, 4, 7}), 0, 1));
  ASSERT_TRUE(a.insert(pack(Envelope{0, 5, 7}), 0, 2));
  // A wildcard-source receive probes with mask over the source field.
  const auto probe_pattern = make_recv_pattern(0, std::nullopt, 7);
  const Probe p{probe_pattern.bits, probe_pattern.mask, 0};
  const auto m = a.match(p);
  ASSERT_TRUE(m.hit);
  EXPECT_EQ(m.cookie, 1u);  // oldest arrival
}

TEST(AlpuArray, UnexpectedFlavorIgnoresStoredMaskField) {
  AlpuArray a(AlpuFlavor::kUnexpected, 8, 8);
  // Even if garbage is written to the stored-mask field, only the probe
  // mask participates (Figure 2b has no mask storage).
  ASSERT_TRUE(a.insert(pack(Envelope{0, 4, 7}), ~0ull, 1));
  EXPECT_FALSE(a.match(probe_of(0, 4, 8)).hit);
  EXPECT_TRUE(a.match(probe_of(0, 4, 7)).hit);
}

// ---- hardware-fidelity property: tree reduction == linear spec -------------

class TreeEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(TreeEquivalence, MatchTreeAgreesWithLinearSpec) {
  const auto [cells, block, seed] = GetParam();
  common::Xoshiro256 rng(seed);
  AlpuArray a(AlpuFlavor::kPostedReceive, cells, block);

  // Random churn: inserts, deletes-by-match, resets; after every step,
  // a batch of random probes must agree between the block-structured
  // priority-mux reduction and the linear first-match specification.
  for (int step = 0; step < 300; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55 && !a.full()) {
      const auto src = rng.chance(0.3)
                           ? std::nullopt
                           : std::optional<std::uint32_t>{
                                 static_cast<std::uint32_t>(rng.below(4))};
      const auto tag = rng.chance(0.1)
                           ? std::nullopt
                           : std::optional<std::uint32_t>{
                                 static_cast<std::uint32_t>(rng.below(4))};
      const auto p = make_recv_pattern(
          static_cast<std::uint32_t>(rng.below(2)), src, tag);
      ASSERT_TRUE(a.insert(p.bits, p.mask,
                           static_cast<Cookie>(step + 1)));
    } else if (roll < 0.95) {
      a.match_and_delete(probe_of(static_cast<std::uint32_t>(rng.below(2)),
                                  static_cast<std::uint32_t>(rng.below(4)),
                                  static_cast<std::uint32_t>(rng.below(4))));
    } else {
      a.reset();
    }

    for (int q = 0; q < 8; ++q) {
      const Probe p = probe_of(static_cast<std::uint32_t>(rng.below(2)),
                               static_cast<std::uint32_t>(rng.below(4)),
                               static_cast<std::uint32_t>(rng.below(4)));
      const ArrayMatch linear = a.match(p);
      const ArrayMatch tree = a.match_tree(p);
      ASSERT_EQ(tree.hit, linear.hit);
      if (linear.hit) {
        ASSERT_EQ(tree.location, linear.location);
        ASSERT_EQ(tree.cookie, linear.cookie);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlockShapes, TreeEquivalence,
    ::testing::Values(std::make_tuple(32, 8, 1), std::make_tuple(32, 16, 2),
                      std::make_tuple(64, 8, 3), std::make_tuple(64, 32, 4),
                      std::make_tuple(128, 16, 5),
                      std::make_tuple(128, 32, 6),
                      std::make_tuple(256, 8, 7),
                      std::make_tuple(256, 32, 8)));

// ---- list property: array == ListSpec under churn --------------------------

TEST(AlpuArray, BehavesLikeAListUnderChurn) {
  // Random inserts (never past capacity) and probe-and-deletes, replayed
  // against check::ListSpec by the model checker's datapath replay.
  common::Xoshiro256 rng(99);
  check::ListSpec spec(AlpuFlavor::kPostedReceive, 64, match::kFullMask);
  std::vector<check::Op> ops;
  for (int step = 0; step < 2'000; ++step) {
    if (rng.chance(0.5) && !spec.full()) {
      const auto src = rng.chance(0.25)
                           ? std::nullopt
                           : std::optional<std::uint32_t>{
                                 static_cast<std::uint32_t>(rng.below(6))};
      const auto p = make_recv_pattern(
          0, src, static_cast<std::uint32_t>(rng.below(6)));
      ASSERT_TRUE(spec.insert(p.bits, p.mask, 0));
      ops.push_back(check::Op{check::OpKind::kInsert, p.bits, p.mask, 0, 0});
    } else {
      const auto src = static_cast<std::uint32_t>(rng.below(6));
      const Probe p =
          probe_of(0, src, static_cast<std::uint32_t>(rng.below(6)));
      (void)spec.match_and_delete(p.bits, p.mask);
      ops.push_back(check::Op{check::OpKind::kProbe, p.bits, p.mask, 0, 0});
    }
  }
  check::CheckOptions opt;
  opt.cells = 64;
  opt.block = 16;
  const check::CheckResult result = check::check_sequence(
      check::ImplKind::kArray, AlpuFlavor::kPostedReceive, opt, ops);
  EXPECT_TRUE(result.ok) << check::format_counterexample(result);
}

// ---- transient faults ------------------------------------------------------

// An upset that sets a dead cell's validity bit must stay detectable
// across a later insert into the same 64-cell validity word: the insert
// may not recompute the word's parity from the (corrupted) word.
TEST(AlpuArraySeu, InsertDoesNotLaunderAValidityUpset) {
  AlpuArray a(AlpuFlavor::kUnexpected, 64, 8);
  SeuConfig seu;
  seu.force_parity = true;
  a.install_fault_model(seu, /*stream=*/0);
  a.corrupt_for_test(/*plane=*/3, /*cell=*/35, /*bit=*/0);  // ghost cell
  ASSERT_TRUE(a.insert(pack(Envelope{0, 1, 7}), 0, 42));
  // Context 0, any source, any tag: matches cell 0 (and the ghost).
  const auto wild = make_recv_pattern(0, std::nullopt, std::nullopt);
  const ArrayMatch m = a.match(Probe{wild.bits, wild.mask, 0});
  EXPECT_FALSE(m.hit);
  EXPECT_TRUE(a.quarantined());
  EXPECT_EQ(a.seu_stats().parity_faults, 1u);
}

}  // namespace
}  // namespace alpu::hw
