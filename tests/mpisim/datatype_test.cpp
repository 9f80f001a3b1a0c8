// Unit and property tests for derived datatypes.

#include "src/mpisim/datatype.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/mpisim/error.hpp"

namespace mpisim {
namespace {

/// flatten_into() into a fresh list.
std::vector<Segment> flat(const Datatype& t, std::size_t count) {
  std::vector<Segment> out;
  t.flatten_into(count, out);
  return out;
}

/// \p segs with adjacent segments merged: what flatten_into() makes of a
/// walk.
std::vector<Segment> merged(const std::vector<Segment>& segs) {
  std::vector<Segment> out;
  for (const Segment& s : segs) {
    if (!out.empty() &&
        out.back().offset + static_cast<std::ptrdiff_t>(out.back().length) ==
            s.offset)
      out.back().length += s.length;
    else
      out.push_back(s);
  }
  return out;
}

bool same_segments(const std::vector<Segment>& a,
                   const std::vector<Segment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].offset != b[i].offset || a[i].length != b[i].length) return false;
  return true;
}

TEST(DatatypeTest, BasicDouble) {
  Datatype t = double_type();
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.extent(), 8);
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
  EXPECT_EQ(t.element_type(), BasicType::float64);
}

TEST(DatatypeTest, ContiguousCollapses) {
  Datatype t = Datatype::contiguous(10, double_type());
  EXPECT_EQ(t.size(), 80u);
  EXPECT_EQ(t.extent(), 80);
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
}

TEST(DatatypeTest, VectorLayout) {
  // 3 blocks of 2 doubles, stride 4 doubles: |XX..|XX..|XX|
  Datatype t = Datatype::vector(3, 2, 4, double_type());
  EXPECT_EQ(t.size(), 48u);
  EXPECT_EQ(t.extent(), 2 * 4 * 8 + 2 * 8);
  EXPECT_FALSE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 3u);

  std::vector<Segment> segs = flat(t, 1);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].offset, 0);
  EXPECT_EQ(segs[0].length, 16u);
  EXPECT_EQ(segs[1].offset, 32);
  EXPECT_EQ(segs[2].offset, 64);
}

TEST(DatatypeTest, VectorWithPackedStrideIsContiguous) {
  Datatype t = Datatype::vector(4, 3, 3, double_type());
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.segment_count(), 1u);
  EXPECT_EQ(t.size(), 96u);
}

TEST(DatatypeTest, IndexedLayout) {
  std::vector<std::size_t> bl{2, 1, 3};
  std::vector<std::ptrdiff_t> disp{0, 4, 8};  // in elements
  Datatype t = Datatype::indexed(bl, disp, int32_type());
  EXPECT_EQ(t.size(), 6u * 4u);
  EXPECT_EQ(t.extent(), 11 * 4);
  EXPECT_EQ(t.segment_count(), 3u);
  std::vector<Segment> segs = flat(t, 1);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[1].length, 4u);
  EXPECT_EQ(segs[2].offset, 32);
  EXPECT_EQ(segs[2].length, 12u);
}

TEST(DatatypeTest, HindexedByteDisplacements) {
  std::vector<std::size_t> bl{1, 1};
  std::vector<std::ptrdiff_t> disp{3, 11};
  Datatype t = Datatype::hindexed(bl, disp, byte_type());
  std::vector<Segment> segs = flat(t, 1);
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].offset, 3);
  EXPECT_EQ(segs[1].offset, 11);
  EXPECT_EQ(t.extent(), 12);
}

TEST(DatatypeTest, PackUnpackRoundTripVector) {
  Datatype t = Datatype::vector(4, 2, 5, double_type());
  std::vector<double> src(32);
  std::iota(src.begin(), src.end(), 0.0);
  std::vector<double> packed(t.size() / 8);
  t.pack(src.data(), 1, packed.data());
  EXPECT_DOUBLE_EQ(packed[0], 0.0);
  EXPECT_DOUBLE_EQ(packed[1], 1.0);
  EXPECT_DOUBLE_EQ(packed[2], 5.0);
  EXPECT_DOUBLE_EQ(packed[3], 6.0);

  std::vector<double> dst(32, -1.0);
  t.unpack(packed.data(), dst.data(), 1);
  for (std::size_t i = 0; i < 32; ++i) {
    const bool in_block = (i % 5) < 2 && i < 17;
    if (in_block) {
      EXPECT_DOUBLE_EQ(dst[i], static_cast<double>(i)) << i;
    }
    else
      EXPECT_DOUBLE_EQ(dst[i], -1.0) << i;
  }
}

TEST(DatatypeTest, SubarrayMatchesManualIndexing) {
  // 2D array 6x8 doubles, patch 3x4 at (2, 3), C order.
  const std::size_t sizes[] = {6, 8};
  const std::size_t subsizes[] = {3, 4};
  const std::size_t starts[] = {2, 3};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());
  EXPECT_EQ(t.size(), 3u * 4u * 8u);
  EXPECT_EQ(t.segment_count(), 3u);

  std::vector<double> arr(48);
  std::iota(arr.begin(), arr.end(), 0.0);
  std::vector<double> packed(12);
  t.pack(arr.data(), 1, packed.data());
  std::size_t k = 0;
  for (std::size_t i = 2; i < 5; ++i)
    for (std::size_t j = 3; j < 7; ++j)
      EXPECT_DOUBLE_EQ(packed[k++], arr[i * 8 + j]);
}

TEST(DatatypeTest, Subarray3D) {
  const std::size_t sizes[] = {4, 5, 6};
  const std::size_t subsizes[] = {2, 3, 2};
  const std::size_t starts[] = {1, 1, 3};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, int32_type());
  EXPECT_EQ(t.size(), 2u * 3u * 2u * 4u);
  EXPECT_EQ(t.segment_count(), 6u);

  std::vector<std::int32_t> arr(120);
  std::iota(arr.begin(), arr.end(), 0);
  std::vector<std::int32_t> packed(12);
  t.pack(arr.data(), 1, packed.data());
  std::size_t k = 0;
  for (std::size_t i = 1; i < 3; ++i)
    for (std::size_t j = 1; j < 4; ++j)
      for (std::size_t l = 3; l < 5; ++l)
        EXPECT_EQ(packed[k++], arr[i * 30 + j * 6 + l]);
}

TEST(DatatypeTest, SubarrayFullArrayIsContiguous) {
  const std::size_t sizes[] = {4, 6};
  const std::size_t subsizes[] = {4, 6};
  const std::size_t starts[] = {0, 0};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());
  EXPECT_TRUE(t.contiguous_layout());
  EXPECT_EQ(t.size(), 24u * 8u);
}

TEST(DatatypeTest, SubarrayOutOfBoundsThrows) {
  const std::size_t sizes[] = {4, 4};
  const std::size_t subsizes[] = {2, 3};
  const std::size_t starts[] = {3, 0};
  EXPECT_THROW(Datatype::subarray(sizes, subsizes, starts, double_type()),
               MpiError);
}

TEST(DatatypeTest, MultipleInstancesAdvanceByExtent) {
  Datatype t = Datatype::vector(2, 1, 2, double_type());
  // extent = (2-1)*16 + 8 = 24 bytes; instance 1 starts at 24, and its
  // first block [24, 32) merges with instance 0's trailing block [16, 24).
  EXPECT_EQ(t.extent(), 24);
  std::vector<Segment> segs = flat(t, 2);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].offset, 0);
  EXPECT_EQ(segs[0].length, 8u);
  EXPECT_EQ(segs[1].offset, 16);
  EXPECT_EQ(segs[1].length, 16u);
  EXPECT_EQ(segs[2].offset, 40);
  EXPECT_EQ(segs[2].length, 8u);
}

TEST(DatatypeTest, NestedVectorOfVector) {
  Datatype inner = Datatype::vector(2, 1, 3, double_type());  // 2 segs
  Datatype outer = Datatype::hvector(3, 1, 64, inner);
  EXPECT_EQ(outer.segment_count(), 6u);
  EXPECT_EQ(outer.size(), 3u * 2u * 8u);
}

TEST(DatatypeTest, ZeroCountThrows) {
  EXPECT_THROW(Datatype::contiguous(0, double_type()), MpiError);
  EXPECT_THROW(Datatype::vector(1, 0, 1, double_type()), MpiError);
}

TEST(DatatypeTest, IndexedMismatchedSpansThrow) {
  std::vector<std::size_t> bl{1, 2};
  std::vector<std::ptrdiff_t> disp{0};
  EXPECT_THROW(Datatype::indexed(bl, disp, byte_type()), MpiError);
}

/// A datatype with its layout written out from its constructor parameters,
/// without the segment walk: the extent and the segments of one instance in
/// walk order, unmerged (a basic type, or a block of contiguous children,
/// is one segment).
struct Shape {
  Datatype type;
  std::ptrdiff_t extent;
  std::vector<Segment> one;
};

/// Append \p n segments of \p len bytes to \p out, the first at \p first,
/// \p stride apart.
void blocks(std::vector<Segment>& out, std::size_t n, std::ptrdiff_t first,
            std::ptrdiff_t stride, std::size_t len) {
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({first + static_cast<std::ptrdiff_t>(i) * stride, len});
}

/// \p n segments of \p len bytes, the first at \p first, \p stride apart.
std::vector<Segment> blocks(std::size_t n, std::ptrdiff_t first,
                            std::ptrdiff_t stride, std::size_t len) {
  std::vector<Segment> out;
  blocks(out, n, first, stride, len);
  return out;
}

/// One datatype of every constructor shape, nested ones included.
std::vector<Shape> every_shape() {
  const std::size_t bl[] = {2, 1, 3};
  const std::ptrdiff_t disp_elems[] = {0, 4, 8};
  const std::ptrdiff_t disp_bytes[] = {40, 3, 17};
  const std::size_t sizes2[] = {6, 8}, sub2[] = {3, 4}, start2[] = {2, 3};
  const std::size_t at0[] = {0, 0};
  const std::size_t sizes3[] = {4, 5, 6}, sub3[] = {2, 3, 2},
                    start3[] = {1, 1, 3};
  // vector(3, 2, 4, double): 3 blocks of 16 bytes, 32 apart; extent 80.
  const Datatype vec = Datatype::vector(3, 2, 4, double_type());

  std::vector<Segment> indexed_int, hindexed_byte, indexed_vec;
  for (std::size_t b = 0; b < 3; ++b) {
    indexed_int.push_back({disp_elems[b] * 4, bl[b] * 4});
    hindexed_byte.push_back({disp_bytes[b], bl[b]});
    // Blocks of bl[b] vec instances (not contiguous: one walk each).
    for (std::size_t j = 0; j < bl[b]; ++j)
      blocks(indexed_vec, 3,
             disp_elems[b] * 80 + static_cast<std::ptrdiff_t>(j) * 80, 32, 16);
  }
  // 3-D subarray of int32: rows of 2 elements (8 bytes), 3 per plane 24
  // bytes apart, 2 planes 120 bytes apart, from (1, 1, 3) = byte 156.
  std::vector<Segment> sub3_one;
  for (std::ptrdiff_t i = 0; i < 2; ++i) blocks(sub3_one, 3, 156 + 120 * i, 24, 8);
  std::vector<Segment> vec_of_vec, contig_vec;
  for (std::ptrdiff_t i = 0; i < 3; ++i) blocks(vec_of_vec, 3, 200 * i, 32, 16);
  for (std::ptrdiff_t i = 0; i < 2; ++i) blocks(contig_vec, 3, 80 * i, 32, 16);

  return {
      {double_type(), 8, {{0, 8}}},
      {Datatype::basic(BasicType::int32), 4, {{0, 4}}},
      // An hvector of 10 doubles: one segment per (contiguous) child.
      {Datatype::contiguous(10, double_type()), 80, blocks(10, 0, 8, 8)},
      {vec, 80, blocks(3, 0, 32, 16)},
      {Datatype::vector(4, 3, 3, double_type()), 96,  // packed stride
       blocks(4, 0, 24, 24)},
      {Datatype::hvector(3, 1, 40, int64_type()), 88, blocks(3, 0, 40, 8)},
      {Datatype::hvector(3, 2, -32, int32_type()), 72,  // negative stride
       blocks(3, 0, -32, 8)},
      {Datatype::indexed(bl, disp_elems, int32_type()), 44, indexed_int},
      {Datatype::hindexed(bl, disp_bytes, byte_type()), 42,  // unsorted
       hindexed_byte},
      // 6x8 doubles, 3x4 patch at (2, 3): rows of 32 bytes, 64 apart, from
      // byte 2 * 64 + 3 * 8 = 152; extent 152 + 2 * 64 + 32.
      {Datatype::subarray(sizes2, sub2, start2, double_type()), 312,
       blocks(3, 152, 64, 32)},
      {Datatype::subarray(sizes2, sub2, at0, double_type()), 160,
       blocks(3, 0, 64, 32)},
      {Datatype::subarray(sizes3, sub3, start3, int32_type()), 332, sub3_one},
      {Datatype::hvector(3, 1, 200, vec), 480, vec_of_vec},  // vector of vectors
      {Datatype::indexed(bl, disp_elems, vec), 880, indexed_vec},
      {Datatype::contiguous(2, vec), 160, contig_vec},
  };
}

/// The expected walk of \p count instances of \p s: instance i is one
/// instance's segments shifted by i * extent.
std::vector<Segment> expected_walk(const Shape& s, std::size_t count) {
  std::vector<Segment> out;
  for (std::size_t i = 0; i < count; ++i)
    for (const Segment& seg : s.one)
      out.push_back(
          {seg.offset + static_cast<std::ptrdiff_t>(i) * s.extent, seg.length});
  return out;
}

TEST(DatatypeTest, WalkFollowsConstructorParametersForEveryShape) {
  const std::vector<Shape> shapes = every_shape();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    ASSERT_EQ(s.type.extent(), s.extent) << "shape " << i;
    std::size_t one_bytes = 0;
    std::ptrdiff_t lb = s.one.front().offset, ub = lb;
    for (const Segment& seg : s.one) {
      one_bytes += seg.length;
      lb = std::min(lb, seg.offset);
      ub = std::max(ub, seg.offset + static_cast<std::ptrdiff_t>(seg.length));
    }
    EXPECT_EQ(s.type.size(), one_bytes) << "shape " << i;
    EXPECT_EQ(s.type.true_lb(), lb) << "shape " << i;
    EXPECT_EQ(s.type.true_ub(), ub) << "shape " << i;
    for (std::size_t count : {1u, 2u, 3u}) {
      std::vector<Segment> walked;
      s.type.for_each_segment(count,
                              [&](Segment seg) { walked.push_back(seg); });
      EXPECT_TRUE(same_segments(walked, expected_walk(s, count)))
          << "shape " << i << " count " << count;
    }
  }
}

TEST(DatatypeTest, FlattenIntoEqualsMergedWalkForEveryShape) {
  const std::vector<Shape> shapes = every_shape();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t count : {1u, 2u, 3u}) {
      const std::vector<Segment> want = merged(expected_walk(shapes[i], count));
      EXPECT_TRUE(same_segments(flat(shapes[i].type, count), want))
          << "shape " << i << " count " << count;
      std::size_t total = 0;
      for (const Segment& s : want) total += s.length;
      EXPECT_EQ(total, count * shapes[i].type.size()) << "shape " << i;
    }
  }
}

TEST(DatatypeTest, PackAndUnpackFollowTheWalkForEveryShape) {
  const std::vector<Shape> shapes = every_shape();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t count : {1u, 2u, 3u}) {
      const std::vector<Segment> segs = expected_walk(shapes[i], count);
      // A buffer covering every segment; base sits at its offset 0.
      std::ptrdiff_t lo = 0, hi = 0;
      for (const Segment& s : segs) {
        lo = std::min(lo, s.offset);
        hi = std::max(hi, s.offset + static_cast<std::ptrdiff_t>(s.length));
      }
      std::vector<std::uint8_t> mem(static_cast<std::size_t>(hi - lo));
      for (std::size_t b = 0; b < mem.size(); ++b)
        mem[b] = static_cast<std::uint8_t>(b * 7 + 1);
      std::uint8_t* base = mem.data() - lo;

      std::vector<std::uint8_t> want;
      for (const Segment& s : segs)
        want.insert(want.end(), base + s.offset,
                    base + s.offset + static_cast<std::ptrdiff_t>(s.length));
      std::vector<std::uint8_t> packed(count * shapes[i].type.size());
      ASSERT_EQ(packed.size(), want.size()) << "shape " << i;
      shapes[i].type.pack(base, count, packed.data());
      EXPECT_EQ(packed, want) << "shape " << i << " count " << count;

      // Unpack a distinct stream: segment bytes take it in walk order (a
      // later segment wins where two overlap), every other byte keeps 0xEE.
      std::vector<std::uint8_t> stream(packed.size());
      for (std::size_t b = 0; b < stream.size(); ++b)
        stream[b] = static_cast<std::uint8_t>(255 - b % 200);
      std::vector<std::uint8_t> out(mem.size(), 0xEE), expect(mem.size(), 0xEE);
      std::size_t pos = 0;
      for (const Segment& s : segs)
        for (std::size_t b = 0; b < s.length; ++b)
          expect[static_cast<std::size_t>(s.offset - lo) + b] = stream[pos++];
      shapes[i].type.unpack(stream.data(), out.data() - lo, count);
      EXPECT_EQ(out, expect) << "shape " << i << " count " << count;
    }
  }
}

/// A visitor that owns state and cannot be copied or moved: the walk must
/// use the caller's object itself.
struct SegmentTally {
  SegmentTally() = default;
  SegmentTally(const SegmentTally&) = delete;
  SegmentTally& operator=(const SegmentTally&) = delete;
  void operator()(Segment s) {
    ++segments;
    bytes += s.length;
    last = s;
  }
  std::size_t segments = 0;
  std::size_t bytes = 0;
  Segment last{0, 0};
};

TEST(DatatypeTest, ForEachSegmentUsesTheCallersVisitor) {
  const std::vector<Shape> shapes = every_shape();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    SegmentTally tally;
    shapes[i].type.for_each_segment(3, tally);
    const std::vector<Segment> want = expected_walk(shapes[i], 3);
    EXPECT_EQ(tally.segments, want.size()) << "shape " << i;
    EXPECT_EQ(tally.bytes, 3 * shapes[i].type.size()) << "shape " << i;
    EXPECT_EQ(tally.last.offset, want.back().offset) << "shape " << i;
    EXPECT_EQ(tally.last.length, want.back().length) << "shape " << i;
  }
}

TEST(DatatypeTest, NegativeStrideAndDisplacementBounds) {
  // 3 blocks of 2 int32, stride -32: offsets 0, -32, -64.
  const Datatype v = Datatype::hvector(3, 2, -32, int32_type());
  EXPECT_EQ(v.true_lb(), -64);
  EXPECT_EQ(v.true_ub(), 8);
  EXPECT_EQ(v.extent(), 72);
  // Blocks at -24 (2 int32) and 8 (1 int32).
  const std::size_t bl[] = {2, 1};
  const std::ptrdiff_t disp[] = {-24, 8};
  const Datatype h = Datatype::hindexed(bl, disp, int32_type());
  EXPECT_EQ(h.true_lb(), -24);
  EXPECT_EQ(h.true_ub(), 12);
  // Nested: the child's bounds carry through to every block.
  const Datatype n = Datatype::hvector(2, 1, 100, v);
  EXPECT_EQ(n.true_lb(), -64);
  EXPECT_EQ(n.true_ub(), 108);
  const std::ptrdiff_t at[] = {-8};
  const std::size_t one[] = {1};
  const Datatype m = Datatype::hindexed(one, at, v);
  EXPECT_EQ(m.true_lb(), -72);
  EXPECT_EQ(m.true_ub(), 0);
}

TEST(DatatypeTest, ReusedFlattenBufferKeepsNoStaleSegments) {
  // One buffer, reused by calls whose output grows and shrinks: each call
  // must leave exactly its own segments, never a tail of a longer one.
  const std::vector<Shape> shapes = every_shape();
  std::vector<Segment> buf(64, Segment{-7, 7});  // junk to be discarded
  const std::size_t order[] = {12, 0, 3, 2, 11, 1, 13, 0, 9, 14, 4};
  std::size_t largest = 0;
  for (std::size_t i : order) {
    for (std::size_t count : {3u, 1u}) {
      shapes[i].type.flatten_into(count, buf);
      EXPECT_TRUE(same_segments(buf, merged(expected_walk(shapes[i], count))))
          << "shape " << i << " count " << count;
      largest = std::max(largest, buf.size());
    }
  }
  EXPECT_GT(largest, 4u);  // the sequence did grow and shrink the output
}

TEST(DatatypeTest, BasicHandlesOfOneTypeAgree) {
  const BasicType all[] = {BasicType::byte_,  BasicType::int32,
                           BasicType::int64,  BasicType::uint64,
                           BasicType::float32, BasicType::float64};
  for (BasicType b : all) {
    const Datatype x = Datatype::basic(b);
    const Datatype y = Datatype::basic(b);
    EXPECT_EQ(x.size(), basic_type_size(b));
    EXPECT_EQ(x.size(), y.size());
    EXPECT_EQ(x.extent(), y.extent());
    EXPECT_EQ(x.extent(), static_cast<std::ptrdiff_t>(x.size()));
    EXPECT_EQ(x.element_type(), b);
    EXPECT_EQ(y.element_type(), b);
    EXPECT_TRUE(x.contiguous_layout());
    EXPECT_EQ(x.segment_count(), 1u);
  }
  EXPECT_EQ(double_type().element_type(), BasicType::float64);
  EXPECT_EQ(byte_type().size(), 1u);
}

// Property: for any subarray, flattened segments are disjoint, ordered,
// and their total length equals size().
class SubarrayPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(SubarrayPropertyTest, SegmentsDisjointAndComplete) {
  auto [rows, cols, sr, sc] = GetParam();
  const std::size_t sizes[] = {static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(cols)};
  const std::size_t subsizes[] = {static_cast<std::size_t>(rows - sr),
                                  static_cast<std::size_t>(cols - sc)};
  const std::size_t starts[] = {static_cast<std::size_t>(sr),
                                static_cast<std::size_t>(sc)};
  Datatype t = Datatype::subarray(sizes, subsizes, starts, double_type());

  std::vector<Segment> segs = flat(t, 1);
  std::size_t total = 0;
  std::ptrdiff_t prev_end = -1;
  for (const Segment& s : segs) {
    EXPECT_GT(s.offset, prev_end);
    prev_end = s.offset + static_cast<std::ptrdiff_t>(s.length) - 1;
    total += s.length;
  }
  EXPECT_EQ(total, t.size());
  EXPECT_LE(prev_end, t.extent() - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SubarrayPropertyTest,
    ::testing::Combine(::testing::Values(3, 8, 17), ::testing::Values(4, 9),
                       ::testing::Values(0, 1, 2), ::testing::Values(0, 1, 3)));

}  // namespace
}  // namespace mpisim
