// Unit tests for strided-notation machinery: Algorithm 1 iteration, IOV
// materialization, and the backward subarray translation (paper §VI-C).

#include "src/armci/strided.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/mpisim/error.hpp"

namespace armci {
namespace {

StridedSpec spec_2d(std::size_t seg_bytes, std::size_t nseg,
                    std::size_t src_stride, std::size_t dst_stride) {
  StridedSpec s;
  s.stride_levels = 1;
  s.count = {seg_bytes, nseg};
  s.src_strides = {src_stride};
  s.dst_strides = {dst_stride};
  return s;
}

TEST(StridedSpecTest, ValidationCatchesBadShapes) {
  StridedSpec s = spec_2d(16, 4, 32, 32);
  EXPECT_NO_THROW(validate_spec(s));
  s.count.clear();
  EXPECT_THROW(validate_spec(s), mpisim::MpiError);

  StridedSpec tight = spec_2d(16, 4, 8, 32);  // src stride < segment size
  EXPECT_THROW(validate_spec(tight), mpisim::MpiError);

  StridedSpec zero = spec_2d(16, 4, 32, 32);
  zero.count[1] = 0;
  EXPECT_THROW(validate_spec(zero), mpisim::MpiError);
}

TEST(StridedSpecTest, TotalsAndSegments) {
  StridedSpec s;
  s.stride_levels = 2;
  s.count = {8, 3, 5};
  s.src_strides = {16, 64};
  s.dst_strides = {32, 128};
  EXPECT_EQ(strided_total_bytes(s), 8u * 3u * 5u);
  EXPECT_EQ(strided_segments(s), 15u);
}

// The nb engine sizes its staging and GMR checks with strided_span()
// before any datatype exists; it must match the type built later.
TEST(StridedSpecTest, SpanIsTheDatatypeExtent) {
  StridedSpec flat;
  flat.count = {40};
  StridedSpec irregular;  // 100 is no multiple of 24: the hvector path
  irregular.stride_levels = 2;
  irregular.count = {8, 3, 2};
  irregular.src_strides = {24, 100};
  irregular.dst_strides = {16, 48};
  for (const StridedSpec& s : {flat, spec_2d(16, 4, 32, 48), irregular}) {
    for (const auto& strides : {s.src_strides, s.dst_strides}) {
      const mpisim::Datatype t =
          make_strided_type(strides, s, mpisim::BasicType::byte_);
      EXPECT_EQ(strided_span(strides, s),
                static_cast<std::size_t>(t.extent()));
    }
  }
  EXPECT_EQ(strided_span(irregular.src_strides, irregular), 8u + 2 * 24 + 100);
}

TEST(StridedIterTest, ContiguousDegenerate) {
  StridedSpec s;
  s.stride_levels = 0;
  s.count = {64};
  std::vector<std::size_t> idx;
  StridedIter it(s, idx);
  std::size_t so = 1, to = 1;
  ASSERT_TRUE(it.next(so, to));
  EXPECT_EQ(so, 0u);
  EXPECT_EQ(to, 0u);
  EXPECT_FALSE(it.next(so, to));
}

TEST(StridedIterTest, TwoDimensionalOffsets) {
  StridedSpec s = spec_2d(8, 4, 32, 48);
  std::vector<std::size_t> idx;
  StridedIter it(s, idx);
  std::size_t so = 0, to = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_TRUE(it.next(so, to));
    EXPECT_EQ(so, j * 32);
    EXPECT_EQ(to, j * 48);
  }
  EXPECT_FALSE(it.next(so, to));
}

TEST(StridedIterTest, ThreeDimensionalCarry) {
  StridedSpec s;
  s.stride_levels = 2;
  s.count = {4, 3, 2};
  s.src_strides = {8, 32};
  s.dst_strides = {16, 64};
  std::vector<std::size_t> idx;
  StridedIter it(s, idx);
  std::size_t so = 0, to = 0;
  std::size_t k = 0;
  for (std::size_t o = 0; o < 2; ++o) {
    for (std::size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(it.next(so, to));
      EXPECT_EQ(so, i * 8 + o * 32) << k;
      EXPECT_EQ(to, i * 16 + o * 64) << k;
      ++k;
    }
  }
  EXPECT_FALSE(it.next(so, to));
}

TEST(StridedIterTest, ResetRestarts) {
  StridedSpec s = spec_2d(8, 3, 16, 16);
  std::vector<std::size_t> idx;
  StridedIter it(s, idx);
  std::size_t so, to;
  while (it.next(so, to)) {
  }
  it.reset();
  ASSERT_TRUE(it.next(so, to));
  EXPECT_EQ(so, 0u);
}

TEST(StridedToIovTest, MaterializesAllSegments) {
  std::vector<std::uint8_t> src(256), dst(256);
  StridedSpec s = spec_2d(8, 4, 32, 48);
  Giov g = strided_to_iov(src.data(), dst.data(), s);
  EXPECT_EQ(g.bytes, 8u);
  ASSERT_EQ(g.src.size(), 4u);
  ASSERT_EQ(g.dst.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(g.src[j], src.data() + j * 32);
    EXPECT_EQ(g.dst[j], dst.data() + j * 48);
  }
}

TEST(SubarrayTranslationTest, RegularStridesRepresentable) {
  // Patch of a 10x16-byte row-major array: stride[0] = 16.
  StridedSpec s = spec_2d(8, 4, 16, 16);
  SubarrayParams p = strided_to_subarray(s.src_strides, s, 1);
  ASSERT_TRUE(p.representable);
  EXPECT_EQ(p.sizes, (std::vector<std::size_t>{4, 16}));
  EXPECT_EQ(p.subsizes, (std::vector<std::size_t>{4, 8}));
  EXPECT_EQ(p.starts, (std::vector<std::size_t>{0, 0}));
}

TEST(SubarrayTranslationTest, ThreeDimensional) {
  StridedSpec s;
  s.stride_levels = 2;
  s.count = {8, 3, 2};       // 8B x 3 x 2 patch
  s.src_strides = {16, 96};  // rows of 16B, planes of 6 rows
  s.dst_strides = {16, 96};
  SubarrayParams p = strided_to_subarray(s.src_strides, s, 1);
  ASSERT_TRUE(p.representable);
  EXPECT_EQ(p.sizes, (std::vector<std::size_t>{2, 6, 16}));
  EXPECT_EQ(p.subsizes, (std::vector<std::size_t>{2, 3, 8}));
}

// Regression: with stride_levels == 0 the outer size used to be taken from
// count[0] directly -- a BYTE length -- while subsizes[0] is in ELEMENTS.
// For 64 doubles that made the parent dimension 512 "elements", i.e. a
// datatype whose extent is 8x the actual transfer.
TEST(SubarrayTranslationTest, ContiguousDegenerateUsesElementUnits) {
  StridedSpec s;
  s.stride_levels = 0;
  s.count = {512};  // 64 doubles, expressed in bytes per the ARMCI API
  SubarrayParams p = strided_to_subarray(s.src_strides, s, sizeof(double));
  ASSERT_TRUE(p.representable);
  EXPECT_EQ(p.sizes, (std::vector<std::size_t>{64}));
  EXPECT_EQ(p.subsizes, (std::vector<std::size_t>{64}));
  EXPECT_EQ(p.starts, (std::vector<std::size_t>{0}));
}

TEST(SubarrayTranslationTest, IrregularStridesFallBack) {
  StridedSpec s;
  s.stride_levels = 2;
  s.count = {8, 3, 2};
  s.src_strides = {16, 100};  // 100 not a multiple of 16
  s.dst_strides = {16, 100};
  SubarrayParams p = strided_to_subarray(s.src_strides, s, 1);
  EXPECT_FALSE(p.representable);
}

TEST(SubarrayTranslationTest, PatchLargerThanDimFallsBack) {
  StridedSpec s = spec_2d(24, 4, 16, 16);  // count[0] > stride[0]
  // validate_spec would reject this; the translation alone must too.
  SubarrayParams p = strided_to_subarray(s.src_strides, s, 1);
  EXPECT_FALSE(p.representable);
}

// Property: the direct-method datatype (subarray or hvector fallback) has
// exactly the layout Algorithm 1 enumerates.
class StridedTypeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(StridedTypeEquivalenceTest, DatatypeMatchesIteration) {
  auto [seg, nseg, stride] = GetParam();
  StridedSpec s = spec_2d(static_cast<std::size_t>(seg),
                          static_cast<std::size_t>(nseg),
                          static_cast<std::size_t>(stride),
                          static_cast<std::size_t>(stride));
  mpisim::Datatype t =
      make_strided_type(s.src_strides, s, mpisim::BasicType::byte_);
  EXPECT_EQ(t.size(), strided_total_bytes(s));

  std::vector<mpisim::Segment> segs;
  t.flatten_into(1, segs);
  std::vector<std::size_t> idx;
  StridedIter it(s, idx);
  std::size_t so = 0, to = 0;
  std::size_t k = 0;
  std::size_t covered = 0;
  while (it.next(so, to)) {
    // Segments may have been coalesced; verify [so, so+seg) is covered in
    // order by the flattened type.
    while (covered == segs[k].length) {
      ++k;
      covered = 0;
    }
    EXPECT_EQ(static_cast<std::size_t>(segs[k].offset) + covered, so);
    covered += static_cast<std::size_t>(seg);
  }
  EXPECT_EQ(k, segs.size() - 1);
  EXPECT_EQ(covered, segs.back().length);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StridedTypeEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 8, 16), ::testing::Values(1, 5, 32),
                       ::testing::Values(16, 24, 64)));

TEST(StridedTypeTest, AccumulateElementTypeRequiresAlignment) {
  StridedSpec s = spec_2d(12, 4, 32, 32);  // 12 not a multiple of 8
  EXPECT_THROW(
      make_strided_type(s.src_strides, s, mpisim::BasicType::float64),
      mpisim::MpiError);
}

TEST(StridedTypeTest, DoubleElementLayout) {
  StridedSpec s = spec_2d(16, 4, 64, 64);  // 2 doubles per segment
  mpisim::Datatype t =
      make_strided_type(s.src_strides, s, mpisim::BasicType::float64);
  EXPECT_EQ(t.element_type(), mpisim::BasicType::float64);
  EXPECT_EQ(t.size(), 64u);
  std::vector<mpisim::Segment> segs;
  t.flatten_into(1, segs);
  EXPECT_EQ(segs.size(), 4u);
}

}  // namespace
}  // namespace armci
