// Tests for the synthetic trace generator and the reference queue model.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "check/checker.hpp"
#include "check/spec.hpp"
#include "workload/trace.hpp"

namespace alpu::workload {
namespace {

TEST(TraceGenerator, DeterministicForSeed) {
  TraceConfig cfg;
  cfg.operations = 100;
  cfg.seed = 7;
  const auto a = generate_trace(cfg);
  const auto b = generate_trace(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].is_post, b[i].is_post);
    EXPECT_EQ(a[i].word, b[i].word);
    EXPECT_EQ(a[i].pattern, b[i].pattern);
  }
}

TEST(TraceGenerator, RespectsOperationCount) {
  TraceConfig cfg;
  cfg.operations = 321;
  EXPECT_EQ(generate_trace(cfg).size(), 321u);
}

TEST(TraceGenerator, MixRoughlyMatchesProbabilities) {
  TraceConfig cfg;
  cfg.operations = 20'000;
  cfg.p_post = 0.4;
  cfg.p_wildcard_source = 0.3;
  cfg.p_wildcard_tag = 0.02;
  const auto trace = generate_trace(cfg);
  std::size_t posts = 0, wild_src = 0, wild_tag = 0;
  for (const auto& op : trace) {
    if (!op.is_post) continue;
    ++posts;
    if ((op.pattern.mask & match::kSourceMask) != 0) ++wild_src;
    if ((op.pattern.mask & match::kTagMask) != 0) ++wild_tag;
  }
  EXPECT_NEAR(static_cast<double>(posts) / 20'000.0, 0.4, 0.02);
  EXPECT_NEAR(static_cast<double>(wild_src) / static_cast<double>(posts),
              0.3, 0.03);
  EXPECT_NEAR(static_cast<double>(wild_tag) / static_cast<double>(posts),
              0.02, 0.01);
}

TEST(TraceGenerator, FieldsWithinConfiguredRanges) {
  TraceConfig cfg;
  cfg.operations = 1'000;
  cfg.contexts = 3;
  cfg.sources = 5;
  cfg.tags = 7;
  for (const auto& op : generate_trace(cfg)) {
    const match::Envelope e =
        match::unpack(op.is_post ? op.pattern.bits : op.word);
    EXPECT_LT(e.context, 3u);
    if (!op.is_post) {
      EXPECT_LT(e.source, 5u);
      EXPECT_LT(e.tag, 7u);
    }
  }
}

// ---- ReferenceQueues invariants --------------------------------------------

TEST(ReferenceQueues, PostMatchingUnexpectedConsumesIt) {
  ReferenceQueues q;
  TraceOp arrival;
  arrival.is_post = false;
  arrival.word = match::pack(match::Envelope{0, 1, 7});
  EXPECT_FALSE(q.apply(arrival).matched);  // goes unexpected
  EXPECT_EQ(q.unexpected().size(), 1u);

  TraceOp post;
  post.is_post = true;
  post.pattern = match::make_recv_pattern(0, 1, 7);
  const auto ev = q.apply(post);
  EXPECT_TRUE(ev.matched);
  EXPECT_TRUE(q.unexpected().empty());
  EXPECT_TRUE(q.posted().empty());
}

TEST(ReferenceQueues, ArrivalMatchingPostedConsumesIt) {
  ReferenceQueues q;
  TraceOp post;
  post.is_post = true;
  post.pattern = match::make_recv_pattern(0, std::nullopt, 7);
  EXPECT_FALSE(q.apply(post).matched);
  EXPECT_EQ(q.posted().size(), 1u);

  TraceOp arrival;
  arrival.is_post = false;
  arrival.word = match::pack(match::Envelope{0, 3, 7});
  EXPECT_TRUE(q.apply(arrival).matched);
  EXPECT_TRUE(q.posted().empty());
  EXPECT_TRUE(q.unexpected().empty());
}

TEST(ReferenceQueues, EntryNeverInBothQueues) {
  TraceConfig cfg;
  cfg.operations = 5'000;
  cfg.seed = 3;
  ReferenceQueues q;
  std::size_t appended = 0, matched = 0;
  for (const auto& op : generate_trace(cfg)) {
    if (q.apply(op).matched) {
      ++matched;
    } else {
      ++appended;
    }
    // Conservation: appended entries are either still queued or matched.
    ASSERT_EQ(q.posted().size() + q.unexpected().size(),
              appended - matched);
  }
  EXPECT_GT(matched, 0u);
}

// ---- cross-structure property: ALPU array == reference posted queue --------

class ArrayVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArrayVsReference, PostedQueueSemanticsIdentical) {
  // Replay a trace against (a) the reference posted/unexpected lists and
  // (b) a check::ListSpec pair: the matched cookies must be identical at
  // every step.  The ops each spec saw are then replayed by the model
  // checker against an AlpuArray pair large enough to never overflow —
  // the functional core of the hardware implements exactly the MPI
  // queue discipline.
  TraceConfig cfg;
  cfg.operations = 1'500;
  cfg.seed = GetParam();
  const auto trace = generate_trace(cfg);

  constexpr std::size_t kCells = 2048;
  ReferenceQueues reference;
  check::ListSpec posted(hw::AlpuFlavor::kPostedReceive, kCells,
                         match::kFullMask);
  check::ListSpec unexpected(hw::AlpuFlavor::kUnexpected, kCells,
                             match::kFullMask);
  std::vector<check::Op> posted_ops;
  std::vector<check::Op> unexpected_ops;
  match::Cookie next_cookie = 1;

  for (const auto& op : trace) {
    const TraceEvent expected = reference.apply(op);
    // A post probes the unexpected queue and, on a miss, parks in the
    // posted queue; an arrival does the reverse.  Either way the probe
    // and the parked entry are the same {bits, mask}.
    const match::Pattern entry =
        op.is_post ? op.pattern : match::Pattern{op.word, 0};
    check::ListSpec& probed = op.is_post ? unexpected : posted;
    check::ListSpec& parked = op.is_post ? posted : unexpected;
    std::vector<check::Op>& probed_ops =
        op.is_post ? unexpected_ops : posted_ops;
    std::vector<check::Op>& parked_ops =
        op.is_post ? posted_ops : unexpected_ops;

    const check::SpecMatch got =
        probed.match_and_delete(entry.bits, entry.mask);
    probed_ops.push_back(
        check::Op{check::OpKind::kProbe, entry.bits, entry.mask, 0, 0});
    ASSERT_EQ(got.hit, expected.matched);
    if (got.hit) {
      ASSERT_EQ(got.cookie, expected.cookie);
    } else {
      ASSERT_TRUE(parked.insert(entry.bits, entry.mask, next_cookie++));
      parked_ops.push_back(
          check::Op{check::OpKind::kInsert, entry.bits, entry.mask, 0, 0});
    }
    ASSERT_EQ(posted.size(), reference.posted().size());
    ASSERT_EQ(unexpected.size(), reference.unexpected().size());
  }

  check::CheckOptions opt;
  opt.cells = kCells;
  opt.block = 16;
  for (const auto& [flavor, ops] :
       {std::pair{hw::AlpuFlavor::kPostedReceive, posted_ops},
        std::pair{hw::AlpuFlavor::kUnexpected, unexpected_ops}}) {
    const check::CheckResult result =
        check::check_sequence(check::ImplKind::kArray, flavor, opt, ops);
    EXPECT_TRUE(result.ok) << check::format_counterexample(result);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayVsReference,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace alpu::workload
