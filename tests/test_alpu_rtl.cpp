// Tests for the RTL-level datapath model: hole dynamics, compaction,
// delete-shift, and equivalence with the list specification.
#include <gtest/gtest.h>

#include <optional>

#include "alpu/array.hpp"
#include "alpu/rtl.hpp"
#include "check/spec.hpp"
#include "common/rng.hpp"

namespace alpu::hw {
namespace {

using match::Envelope;
using match::make_recv_pattern;
using match::pack;

Cell cell_of(std::uint32_t tag, Cookie cookie) {
  const auto p = make_recv_pattern(0, 1, tag);
  return Cell{p.bits, p.mask, cookie, true};
}

Probe probe_of(std::uint32_t tag) {
  return Probe{pack(Envelope{0, 1, tag}), 0, 0};
}

/// Run idle cycles until the array stops changing (compaction quiesces).
void quiesce(RtlAlpu& rtl) {
  for (std::size_t i = 0; i < 2 * rtl.capacity(); ++i) {
    (void)rtl.step(std::nullopt, std::nullopt);
  }
}

// ---- insert + drift ----------------------------------------------------------

TEST(RtlAlpu, InsertedDataDriftsToTheOldEnd) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 16, 8);
  ASSERT_TRUE(rtl.step(cell_of(1, 10), std::nullopt));
  quiesce(rtl);
  EXPECT_EQ(rtl.occupancy(), 1u);
  // The single entry ends at the right-most cell.
  EXPECT_TRUE(rtl.cell(15).valid);
  EXPECT_EQ(rtl.cell(15).cookie, 10u);
  EXPECT_EQ(rtl.holes(), 0u);
}

TEST(RtlAlpu, SustainedInsertRateIsBoundedByBlockBoundaryBubbles) {
  // The datapath accepts an insert whenever compaction has vacated cell
  // 0.  A stream of inserts proceeds at one per cycle within a block,
  // but crossing a block boundary costs a bubble (the registered
  // snapshot sees the next block's first cell still occupied) — the
  // structural reason the unit's sustainable insert rate is below one
  // per cycle, consistent with Section V-D's every-other-cycle figure.
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 16, 8);
  Cookie next = 1;
  std::size_t cycles = 0;
  while (next <= 16) {
    if (rtl.can_insert()) {
      ASSERT_TRUE(rtl.step(cell_of(static_cast<std::uint32_t>(next), next),
                           std::nullopt));
      ++next;
    } else {
      ASSERT_TRUE(rtl.step(std::nullopt, std::nullopt));  // bubble
    }
    ++cycles;
    ASSERT_LT(cycles, 200u);
  }
  EXPECT_EQ(rtl.occupancy(), 16u);
  EXPECT_GT(cycles, 16u);       // some bubbles occurred...
  EXPECT_LE(cycles, 2u * 16u);  // ...but within the 2-cycles/insert budget
  // Full array: cell 0 occupied and immovable — inserts now fail.
  EXPECT_FALSE(rtl.step(cell_of(99, 99), std::nullopt));
  EXPECT_EQ(rtl.occupancy(), 16u);
  quiesce(rtl);
  // Age order intact: cookie 1 the oldest at the top.
  EXPECT_EQ(rtl.cell(15).cookie, 1u);
  EXPECT_EQ(rtl.cell(0).cookie, 16u);
}

TEST(RtlAlpu, SpacedInsertsLeaveHolesThatCompactAway) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 32, 8);
  // Insert with generous spacing: each entry drifts right several slots
  // before the next enters, leaving transient holes between them.
  bool saw_holes = false;
  for (Cookie c = 1; c <= 4; ++c) {
    ASSERT_TRUE(rtl.step(cell_of(static_cast<std::uint32_t>(c), c),
                         std::nullopt));
    for (int idle = 0; idle < 5; ++idle) {
      (void)rtl.step(std::nullopt, std::nullopt);
      saw_holes = saw_holes || rtl.holes() > 0;
    }
  }
  EXPECT_TRUE(saw_holes) << "spaced inserts should create transient holes";
  quiesce(rtl);
  EXPECT_EQ(rtl.holes(), 0u) << "compaction must eliminate all holes";
  // Order preserved: oldest (cookie 1) right-most.
  EXPECT_EQ(rtl.cell(31).cookie, 1u);
  EXPECT_EQ(rtl.cell(30).cookie, 2u);
  EXPECT_EQ(rtl.cell(29).cookie, 3u);
  EXPECT_EQ(rtl.cell(28).cookie, 4u);
}

TEST(RtlAlpu, CompactionCrossesBlockBoundaries) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 16, 8);
  ASSERT_TRUE(rtl.step(cell_of(1, 1), std::nullopt));
  quiesce(rtl);
  // The entry must have crossed from block 0 into block 1.
  EXPECT_TRUE(rtl.cell(15).valid);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(rtl.cell(i).valid);
}

// ---- matching ------------------------------------------------------------------

TEST(RtlAlpu, OldestMatchWinsAcrossHoles) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 32, 8);
  ASSERT_TRUE(rtl.step(cell_of(7, 1), std::nullopt));
  for (int i = 0; i < 6; ++i) (void)rtl.step(std::nullopt, std::nullopt);
  ASSERT_TRUE(rtl.step(cell_of(7, 2), std::nullopt));
  // Probe while a hole separates the two duplicates: the older (further
  // right) one must win.
  const auto m = rtl.match(probe_of(7));
  ASSERT_TRUE(m.hit);
  EXPECT_EQ(m.cookie, 1u);
}

TEST(RtlAlpu, MatchIgnoresInvalidCells) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 16, 8);
  ASSERT_TRUE(rtl.step(cell_of(7, 1), std::nullopt));
  quiesce(rtl);
  const auto m = rtl.match(probe_of(7));
  ASSERT_TRUE(m.hit);
  (void)rtl.step(std::nullopt, m.location);
  EXPECT_FALSE(rtl.match(probe_of(7)).hit);  // stale bits never match
}

// ---- deletion (Section III-B: "holes do not occur on deletion") ---------------

TEST(RtlAlpu, DeleteShiftsYoungerCellsUpLeavingNoHole) {
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 16, 8);
  for (Cookie c = 1; c <= 4; ++c) {
    ASSERT_TRUE(rtl.step(cell_of(static_cast<std::uint32_t>(c), c),
                         std::nullopt));
    (void)rtl.step(std::nullopt, std::nullopt);
  }
  quiesce(rtl);
  ASSERT_EQ(rtl.holes(), 0u);
  // Delete the second-oldest (cookie 2).
  const auto m = rtl.match(probe_of(2));
  ASSERT_TRUE(m.hit);
  ASSERT_TRUE(rtl.step(std::nullopt, m.location));
  EXPECT_EQ(rtl.occupancy(), 3u);
  EXPECT_EQ(rtl.holes(), 0u) << "deletion must not create holes";
  // Survivors keep age order: 1 oldest, then 3, then 4.
  EXPECT_EQ(rtl.cell(15).cookie, 1u);
  EXPECT_EQ(rtl.cell(14).cookie, 3u);
  EXPECT_EQ(rtl.cell(13).cookie, 4u);
}

TEST(RtlAlpu, DeleteNeverIncreasesHoleCount) {
  common::Xoshiro256 rng(5);
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, 32, 8);
  Cookie next = 1;
  for (int step = 0; step < 500; ++step) {
    if (rng.chance(0.4) && rtl.can_insert() && rtl.occupancy() < 30) {
      ASSERT_TRUE(rtl.step(cell_of(static_cast<std::uint32_t>(rng.below(6)),
                                   next++),
                           std::nullopt));
    } else if (rng.chance(0.3)) {
      const auto m = rtl.match(
          probe_of(static_cast<std::uint32_t>(rng.below(6))));
      if (m.hit) {
        const std::size_t before = rtl.holes();
        ASSERT_TRUE(rtl.step(std::nullopt, m.location));
        EXPECT_LE(rtl.holes(), before);
      } else {
        (void)rtl.step(std::nullopt, std::nullopt);
      }
    } else {
      (void)rtl.step(std::nullopt, std::nullopt);
    }
  }
}

// ---- equivalence with the list specification ------------------------------------

class RtlEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::uint64_t>> {};

TEST_P(RtlEquivalence, AgreesWithFunctionalArrayAtQuiescence) {
  const auto [cells, block, seed] = GetParam();
  common::Xoshiro256 rng(seed);
  RtlAlpu rtl(AlpuFlavor::kPostedReceive, cells, block);
  check::ListSpec spec(AlpuFlavor::kPostedReceive, cells, match::kFullMask);

  for (int round = 0; round < 120; ++round) {
    if (rng.chance(0.6) && !spec.full()) {
      // Insert into both, spacing RTL inserts with idle cycles.
      const auto tag = static_cast<std::uint32_t>(rng.below(5));
      const Cookie c = static_cast<Cookie>(round + 1);
      const auto p = make_recv_pattern(0, 1, tag);
      ASSERT_TRUE(spec.insert(p.bits, p.mask, c));
      while (!rtl.can_insert()) {
        ASSERT_TRUE(rtl.step(std::nullopt, std::nullopt));
      }
      ASSERT_TRUE(rtl.step(Cell{p.bits, p.mask, c, true}, std::nullopt));
      if (rng.chance(0.5)) {
        const auto idles = rng.below(4);
        for (std::uint64_t i = 0; i < idles; ++i) {
          ASSERT_TRUE(rtl.step(std::nullopt, std::nullopt));
        }
      }
    } else {
      // Probe both (RTL probes are valid in any state: priority is by
      // position, and age order is preserved under movement).
      const Probe p = probe_of(static_cast<std::uint32_t>(rng.below(5)));
      const check::SpecMatch a = spec.match_and_delete(p.bits, p.mask);
      const ArrayMatch b = rtl.match(p);
      ASSERT_EQ(a.hit, b.hit) << "round " << round;
      if (a.hit) {
        ASSERT_EQ(a.cookie, b.cookie) << "round " << round;
        ASSERT_TRUE(rtl.step(std::nullopt, b.location));
      } else {
        ASSERT_TRUE(rtl.step(std::nullopt, std::nullopt));
      }
    }
    ASSERT_EQ(rtl.occupancy(), spec.size());
  }
  quiesce(rtl);
  EXPECT_EQ(rtl.holes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RtlEquivalence,
    ::testing::Values(std::make_tuple(16, 8, 1), std::make_tuple(32, 8, 2),
                      std::make_tuple(32, 16, 3),
                      std::make_tuple(64, 16, 4),
                      std::make_tuple(64, 32, 5),
                      std::make_tuple(128, 16, 6)));

}  // namespace
}  // namespace alpu::hw
