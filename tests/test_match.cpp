// Unit tests for MPI matching semantics: packing, patterns, lists.
#include <gtest/gtest.h>

#include "check/spec.hpp"
#include "common/rng.hpp"
#include "match/list.hpp"
#include "match/match.hpp"

namespace alpu::match {
namespace {

// ---- packing ---------------------------------------------------------------

TEST(Pack, RoundTripsAllFields) {
  const Envelope e{5, 123, 999};
  EXPECT_EQ(unpack(pack(e)), e);
}

TEST(Pack, ExtremesRoundTrip) {
  const Envelope lo{0, 0, 0};
  const Envelope hi{kMaxContext, kMaxSource, kMaxTag};
  EXPECT_EQ(unpack(pack(lo)), lo);
  EXPECT_EQ(unpack(pack(hi)), hi);
}

TEST(Pack, FieldsDoNotOverlap) {
  // Changing one field must not disturb the others.
  const MatchWord base = pack(Envelope{1, 1, 1});
  const MatchWord ctx = pack(Envelope{2, 1, 1});
  const MatchWord src = pack(Envelope{1, 2, 1});
  const MatchWord tag = pack(Envelope{1, 1, 2});
  EXPECT_EQ((base ^ ctx) & (base ^ src), 0u);
  EXPECT_EQ((base ^ ctx) & (base ^ tag), 0u);
  EXPECT_EQ((base ^ src) & (base ^ tag), 0u);
}

TEST(Pack, UsesExactly42Bits) {
  const MatchWord all = pack(Envelope{kMaxContext, kMaxSource, kMaxTag});
  EXPECT_EQ(all, kFullMask);
  EXPECT_LT(all, MatchWord{1} << 42);
  EXPECT_EQ(all >> 41, 1u);  // bit 41 used
}

// ---- patterns --------------------------------------------------------------

TEST(Pattern, ExactMatchesOnlyItself) {
  const Pattern p = exact_pattern(Envelope{1, 2, 3});
  EXPECT_TRUE(p.matches(pack(Envelope{1, 2, 3})));
  EXPECT_FALSE(p.matches(pack(Envelope{1, 2, 4})));
  EXPECT_FALSE(p.matches(pack(Envelope{1, 3, 3})));
  EXPECT_FALSE(p.matches(pack(Envelope{2, 2, 3})));
  EXPECT_TRUE(p.is_exact());
}

TEST(Pattern, WildcardSource) {
  const Pattern p = make_recv_pattern(1, std::nullopt, 3);
  EXPECT_TRUE(p.matches(pack(Envelope{1, 0, 3})));
  EXPECT_TRUE(p.matches(pack(Envelope{1, kMaxSource, 3})));
  EXPECT_FALSE(p.matches(pack(Envelope{1, 5, 4})));
  EXPECT_FALSE(p.matches(pack(Envelope{2, 5, 3})));
  EXPECT_FALSE(p.is_exact());
}

TEST(Pattern, WildcardTag) {
  const Pattern p = make_recv_pattern(1, 2, std::nullopt);
  EXPECT_TRUE(p.matches(pack(Envelope{1, 2, 0})));
  EXPECT_TRUE(p.matches(pack(Envelope{1, 2, kMaxTag})));
  EXPECT_FALSE(p.matches(pack(Envelope{1, 3, 7})));
}

TEST(Pattern, WildcardBoth) {
  const Pattern p = make_recv_pattern(4, std::nullopt, std::nullopt);
  EXPECT_TRUE(p.matches(pack(Envelope{4, 11, 22})));
  EXPECT_FALSE(p.matches(pack(Envelope{5, 11, 22})));  // context is never wild
}

TEST(Pattern, ToStringShowsWildcards) {
  EXPECT_EQ(to_string(make_recv_pattern(2, std::nullopt, 7)),
            "ctx=2 src=* tag=7");
  EXPECT_EQ(to_string(make_recv_pattern(2, 3, std::nullopt)),
            "ctx=2 src=3 tag=*");
  EXPECT_EQ(to_string(Envelope{1, 2, 3}), "ctx=1 src=2 tag=3");
}

// ---- PostedList ------------------------------------------------------------

PostedEntry posted(std::uint32_t ctx, std::optional<std::uint32_t> src,
                   std::optional<std::uint32_t> tag, Cookie c) {
  return PostedEntry{make_recv_pattern(ctx, src, tag), c, 0};
}

TEST(PostedList, FirstMatchWinsInListOrder) {
  PostedList list;
  list.append(posted(0, std::nullopt, 7, 1));  // wildcard source, tag 7
  list.append(posted(0, 3, 7, 2));             // exact — also matches
  const auto r = list.search(pack(Envelope{0, 3, 7}));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cookie, 1u);  // the OLDER entry wins even though 2 is exact
  EXPECT_EQ(r.index, 0u);
  EXPECT_EQ(r.visited, 1u);
}

TEST(PostedList, VisitedCountsIncludeTheHit) {
  PostedList list;
  for (Cookie c = 1; c <= 5; ++c) list.append(posted(0, 1, c, c));
  const auto r = list.search(pack(Envelope{0, 1, 4}));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.index, 3u);
  EXPECT_EQ(r.visited, 4u);
}

TEST(PostedList, MissVisitsEverything) {
  PostedList list;
  for (Cookie c = 1; c <= 5; ++c) list.append(posted(0, 1, c, c));
  const auto r = list.search(pack(Envelope{0, 1, 99}));
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.visited, 5u);
}

TEST(PostedList, SearchFromSkipsPrefix) {
  PostedList list;
  list.append(posted(0, 1, 7, 1));
  list.append(posted(0, 1, 7, 2));  // duplicate pattern, later entry
  const auto r = list.search_from(1, pack(Envelope{0, 1, 7}));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cookie, 2u);
  EXPECT_EQ(r.visited, 1u);
}

TEST(PostedList, EraseShiftsOrder) {
  PostedList list;
  for (Cookie c = 1; c <= 3; ++c) list.append(posted(0, 1, c, c));
  list.erase(1);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_EQ(list.at(0).cookie, 1u);
  EXPECT_EQ(list.at(1).cookie, 3u);
}

TEST(PostedList, EmptySearchFails) {
  PostedList list;
  const auto r = list.search(pack(Envelope{0, 0, 0}));
  EXPECT_FALSE(r.found);
  EXPECT_EQ(r.visited, 0u);
}

// ---- UnexpectedList --------------------------------------------------------

TEST(UnexpectedList, ReverseLookupWithWildcardProbe) {
  UnexpectedList list;
  list.append(UnexpectedEntry{pack(Envelope{0, 2, 5}), 1, 0});
  list.append(UnexpectedEntry{pack(Envelope{0, 3, 5}), 2, 0});
  // MPI_ANY_SOURCE probe: oldest arrival with tag 5 wins.
  const auto r = list.search(make_recv_pattern(0, std::nullopt, 5));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.cookie, 1u);
}

TEST(UnexpectedList, ArrivalOrderPreserved) {
  UnexpectedList list;
  list.append(UnexpectedEntry{pack(Envelope{0, 1, 5}), 1, 0});
  list.append(UnexpectedEntry{pack(Envelope{0, 1, 5}), 2, 0});
  const auto first = list.search(make_recv_pattern(0, 1, 5));
  ASSERT_TRUE(first.found);
  EXPECT_EQ(first.cookie, 1u);
  list.erase(first.index);
  const auto second = list.search(make_recv_pattern(0, 1, 5));
  ASSERT_TRUE(second.found);
  EXPECT_EQ(second.cookie, 2u);
}

TEST(UnexpectedList, ExplicitProbeSkipsNonMatching) {
  UnexpectedList list;
  list.append(UnexpectedEntry{pack(Envelope{0, 1, 1}), 1, 0});
  list.append(UnexpectedEntry{pack(Envelope{0, 1, 2}), 2, 0});
  list.append(UnexpectedEntry{pack(Envelope{0, 1, 3}), 3, 0});
  const auto r = list.search(make_recv_pattern(0, 1, 3));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.index, 2u);
  EXPECT_EQ(r.visited, 3u);
}

// ---- cross-validation: both lists against the list specification ----------
//
// check::ListSpec is the one executable statement of MPI list semantics
// (oldest match wins, delete-on-match keeps the survivors in order) that
// the ALPU array is model-checked against; the software lists are held
// to the same brute-force spec here.

void expect_same_hit(const SearchResult& got, const check::SpecMatch& want) {
  ASSERT_EQ(got.found, want.hit);
  if (want.hit) {
    ASSERT_EQ(got.index, want.index);
    ASSERT_EQ(got.cookie, want.cookie);
  }
}

Pattern key_of(const PostedEntry& e) { return e.pattern; }
Pattern key_of(const UnexpectedEntry& e) { return Pattern{e.word, 0}; }

template <typename List>
void expect_same_contents(const List& list, const check::ListSpec& spec) {
  ASSERT_EQ(list.size(), spec.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const check::SpecEntry& want = spec.entries()[i];
    const Pattern key = key_of(list.at(i));
    ASSERT_EQ(key.bits, want.bits) << "entry " << i;
    ASSERT_EQ(key.mask, want.mask) << "entry " << i;
    ASSERT_EQ(list.at(i).cookie, want.cookie) << "entry " << i;
  }
}

TEST(Lists, RandomizedFirstMatchAgreesWithBruteForce) {
  // The MPI queue pair under random traffic: a posted receive first
  // searches the unexpected list (reverse lookup, wildcard probe) and is
  // appended to the posted list only on a miss; an arrival searches the
  // posted list and is appended to the unexpected list only on a miss.
  // Every hit is erased.  Each list must give the spec's answer and hold
  // the spec's contents after every step.
  common::Xoshiro256 rng(42);
  PostedList posted_list;
  UnexpectedList unexpected_list;
  check::ListSpec posted_spec(hw::AlpuFlavor::kPostedReceive, 4'096,
                              kFullMask);
  check::ListSpec unexpected_spec(hw::AlpuFlavor::kUnexpected, 4'096,
                                  kFullMask);
  const auto field = [&rng](double wild_chance) {
    return rng.chance(wild_chance)
               ? std::nullopt
               : std::optional<std::uint32_t>{
                     static_cast<std::uint32_t>(rng.below(8))};
  };

  for (int step = 0; step < 2'000; ++step) {
    const auto cookie = static_cast<Cookie>(step + 1);
    const auto ctx = static_cast<std::uint32_t>(rng.below(2));
    if (rng.chance(0.5)) {
      const auto src = field(0.3);
      const Pattern p = make_recv_pattern(ctx, src, field(0.1));
      const SearchResult got = unexpected_list.search(p);
      ASSERT_NO_FATAL_FAILURE(expect_same_hit(
          got, unexpected_spec.match_and_delete(p.bits, p.mask)));
      if (got.found) {
        unexpected_list.erase(got.index);
      } else {
        posted_list.append(PostedEntry{p, cookie, 0});
        ASSERT_TRUE(posted_spec.insert(p.bits, p.mask, cookie));
      }
    } else {
      const auto src = static_cast<std::uint32_t>(rng.below(8));
      const MatchWord w = pack(Envelope{
          ctx, src, static_cast<std::uint32_t>(rng.below(8))});
      const SearchResult got = posted_list.search(w);
      ASSERT_NO_FATAL_FAILURE(
          expect_same_hit(got, posted_spec.match_and_delete(w, 0)));
      if (got.found) {
        posted_list.erase(got.index);
      } else {
        unexpected_list.append(UnexpectedEntry{w, cookie, 0});
        ASSERT_TRUE(unexpected_spec.insert(w, 0, cookie));
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_contents(posted_list, posted_spec));
    ASSERT_NO_FATAL_FAILURE(
        expect_same_contents(unexpected_list, unexpected_spec));
  }
}

}  // namespace
}  // namespace alpu::match
