// Unit and differential tests for the flat range set that holds the RMA
// checker's per-epoch coverage and the nb queues' ranges
// (src/mpisim/interval_set.hpp).

#include "src/mpisim/interval_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace mpisim {
namespace {

using Ranges = std::vector<std::pair<std::uintptr_t, std::uintptr_t>>;

/// Stored ranges are sorted, disjoint and never empty.
bool well_formed(const IntervalSet& s) {
  const auto& r = s.ranges();
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i].lo > r[i].hi) return false;
    if (i > 0 && r[i - 1].hi >= r[i].lo) return false;
  }
  return true;
}

TEST(IntervalSetTest, EmptySetHasNoConflicts) {
  IntervalSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.conflicts(0, 100));
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  EXPECT_FALSE(s.overlapping(0, 100, &lo, &hi));
}

TEST(IntervalSetTest, MergeUnionsOverlappingRanges) {
  IntervalSet s;
  s.insert_merge(10, 20);
  s.insert_merge(15, 30);  // overlaps -> one range [10, 30]
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.conflicts(30, 30));
  EXPECT_FALSE(s.conflicts(31, 40));
  EXPECT_TRUE(well_formed(s));
}

TEST(IntervalSetTest, MergeSwallowsSeveralRanges) {
  IntervalSet s;
  s.insert_merge(0, 9);
  s.insert_merge(20, 29);
  s.insert_merge(40, 49);
  s.insert_merge(5, 45);  // bridges all three
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.conflicts(0, 0));
  EXPECT_TRUE(s.conflicts(49, 49));
  EXPECT_FALSE(s.conflicts(50, 60));
  EXPECT_TRUE(well_formed(s));
}

TEST(IntervalSetTest, MergeKeepsDisjointRangesSeparate) {
  IntervalSet s;
  s.insert_merge(0, 9);
  s.insert_merge(11, 19);  // a one-unit gap at 10
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.conflicts(10, 10));
}

TEST(IntervalSetTest, AdjacentRangesStaySeparate) {
  // Touching is not overlapping: [0, 9] and [10, 19] share no unit.
  IntervalSet s;
  s.insert_merge(10, 19);
  s.insert_merge(0, 9);   // below, touching
  s.insert_merge(20, 29); // above, touching
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.ranges()[0].lo, 0u);
  EXPECT_EQ(s.ranges()[0].hi, 9u);
  EXPECT_EQ(s.ranges()[1].lo, 10u);
  EXPECT_EQ(s.ranges()[2].hi, 29u);
  EXPECT_TRUE(well_formed(s));
}

TEST(IntervalSetTest, OverlappingReportsStoredRange) {
  IntervalSet s;
  s.insert_merge(100, 200);
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  EXPECT_TRUE(s.overlapping(150, 160, &lo, &hi));
  EXPECT_EQ(lo, 100u);
  EXPECT_EQ(hi, 200u);
  EXPECT_FALSE(s.overlapping(201, 300, &lo, &hi));
}

TEST(IntervalSetTest, OverlappingReportsLowestOverlap) {
  IntervalSet s;
  s.insert_merge(40, 49);
  s.insert_merge(0, 9);
  s.insert_merge(20, 29);
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  ASSERT_TRUE(s.overlapping(5, 45, &lo, &hi));  // touches all three
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 9u);
  ASSERT_TRUE(s.overlapping(25, 100, &lo, &hi));
  EXPECT_EQ(lo, 20u);
  EXPECT_EQ(hi, 29u);
}

TEST(IntervalSetTest, InvalidRangeIgnored) {
  IntervalSet s;
  s.insert_merge(10, 5);
  EXPECT_TRUE(s.empty());
  s.insert_merge(0, 100);
  EXPECT_FALSE(s.conflicts(10, 5));
}

TEST(IntervalSetTest, AddressSpaceBoundsDoNotWrap) {
  IntervalSet s;
  const std::uintptr_t top = std::uintptr_t(-1);
  s.insert_merge(top - 9, top);
  s.insert_merge(0, 9);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.conflicts(top, top));
  EXPECT_FALSE(s.conflicts(10, top - 10));
  s.insert_merge(5, top - 5);  // bridges both
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.ranges()[0].lo, 0u);
  EXPECT_EQ(s.ranges()[0].hi, top);
}

TEST(IntervalSetTest, ClearKeepsStorage) {
  IntervalSet s;
  for (std::uintptr_t i = 0; i < 64; ++i) s.insert_merge(10 * i, 10 * i + 4);
  const std::size_t cap = s.ranges().capacity();
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.conflicts(0, 1000));
  EXPECT_EQ(s.ranges().capacity(), cap);
}

TEST(IntervalSetTest, RandomMergeAgreesWithBitset) {
  // Property check: after arbitrary merges the set's membership matches a
  // per-unit reference bitmap, and the ranges stay sorted and disjoint.
  std::mt19937_64 rng(7);
  IntervalSet s;
  std::vector<bool> ref(2000, false);
  for (int i = 0; i < 500; ++i) {
    const std::uintptr_t lo = rng() % 1900;
    const std::uintptr_t hi = lo + rng() % 90;
    s.insert_merge(lo, hi);
    for (std::uintptr_t u = lo; u <= hi; ++u) ref[u] = true;
  }
  EXPECT_TRUE(well_formed(s));
  for (std::uintptr_t u = 0; u < ref.size(); ++u)
    EXPECT_EQ(s.conflicts(u, u), static_cast<bool>(ref[u])) << "unit " << u;
}

TEST(IntervalSetTest, BulkMergeAgreesWithBitset) {
  // Union of two sets built independently: the other set lies above, below,
  // or interleaved with this one, with overlapping and touching ranges.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    constexpr std::uintptr_t kUnits = 1024;
    IntervalSet a;
    IntervalSet b;
    std::vector<bool> ref(kUnits, false);
    const std::uintptr_t b_base = seed % 4 == 0 ? kUnits / 2 : 0;
    const std::uintptr_t a_span = seed % 4 == 0 ? kUnits / 2 : kUnits - 16;
    for (int i = 0; i < 40; ++i) {
      std::uintptr_t lo = rng() % (a_span - 16);
      std::uintptr_t hi = lo + rng() % 12;
      a.insert_merge(lo, hi);
      for (std::uintptr_t u = lo; u <= hi; ++u) ref[u] = true;
      lo = b_base + rng() % (kUnits - b_base - 16);
      hi = lo + rng() % (seed % 3 == 0 ? 1 : 12);
      b.insert_merge(lo, hi);
      for (std::uintptr_t u = lo; u <= hi; ++u) ref[u] = true;
    }
    a.insert_merge(b.ranges());
    ASSERT_TRUE(well_formed(a)) << "seed " << seed;
    for (std::uintptr_t u = 0; u < kUnits; ++u)
      ASSERT_EQ(a.conflicts(u, u), static_cast<bool>(ref[u]))
          << "seed " << seed << " unit " << u;
    // Maximal runs of the reference are stored ranges, except where two
    // inserted ranges only touched (those stay separate), so the set holds
    // at least as many ranges as the reference has runs.
    std::size_t runs = 0;
    for (std::uintptr_t u = 0; u < kUnits; ++u)
      if (ref[u] && (u == 0 || !ref[u - 1])) ++runs;
    EXPECT_GE(a.size(), runs) << "seed " << seed;
  }
}

TEST(IntervalSetTest, BulkMergeFoldsOverlapsWithinTheInput) {
  // Input sorted by lo whose ranges overlap one another, above the set
  // and interleaved with it.
  const std::vector<IntervalSet::Range> in = {
      {100, 110}, {105, 120}, {121, 130}, {125, 126}};
  IntervalSet above;
  above.insert_merge(0, 9);
  above.insert_merge(in);
  ASSERT_EQ(above.size(), 3u);
  EXPECT_EQ(above.ranges()[1].lo, 100u);
  EXPECT_EQ(above.ranges()[1].hi, 120u);
  EXPECT_EQ(above.ranges()[2].lo, 121u);
  EXPECT_EQ(above.ranges()[2].hi, 130u);
  IntervalSet mixed;
  mixed.insert_merge(108, 122);
  mixed.insert_merge(200, 210);
  mixed.insert_merge(in);
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed.ranges()[0].lo, 100u);
  EXPECT_EQ(mixed.ranges()[0].hi, 130u);
  EXPECT_TRUE(well_formed(mixed));
}

TEST(IntervalSetTest, BulkMergeKeepsAdjacentSeparateAndSwallowsOverlaps) {
  IntervalSet a;
  a.insert_merge(10, 19);
  a.insert_merge(40, 49);
  IntervalSet b;
  b.insert_merge(0, 9);    // touches [10, 19] from below
  b.insert_merge(45, 60);  // overlaps [40, 49]
  b.insert_merge(61, 70);  // touches the merged range from above
  a.insert_merge(b.ranges());
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a.ranges()[0].lo, 0u);
  EXPECT_EQ(a.ranges()[0].hi, 9u);
  EXPECT_EQ(a.ranges()[1].lo, 10u);
  EXPECT_EQ(a.ranges()[1].hi, 19u);
  EXPECT_EQ(a.ranges()[2].lo, 40u);
  EXPECT_EQ(a.ranges()[2].hi, 60u);
  EXPECT_EQ(a.ranges()[3].lo, 61u);
  EXPECT_EQ(a.ranges()[3].hi, 70u);
  // Merging an empty set, or into an empty set, copies the other side.
  IntervalSet empty;
  a.insert_merge(empty.ranges());
  EXPECT_EQ(a.size(), 4u);
  empty.insert_merge(a.ranges());
  EXPECT_EQ(empty.size(), 4u);
  EXPECT_TRUE(well_formed(empty));
}

// Differential test against a bitset reference for the insert orders the
// set must handle: ascending (the O(1) append path), descending (always a
// front insert or merge) and shuffled.
enum class Order { sorted, descending, shuffled };

class IntervalSetOrderTest : public ::testing::TestWithParam<Order> {};

TEST_P(IntervalSetOrderTest, AgreesWithBitset) {
  constexpr std::uintptr_t kUnits = 4096;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // A mix of short ranges, some overlapping, some touching, some apart.
    Ranges in;
    for (int i = 0; i < 300; ++i) {
      const std::uintptr_t lo = rng() % (kUnits - 64);
      in.emplace_back(lo, lo + rng() % (seed % 2 == 0 ? 8 : 48));
    }
    switch (GetParam()) {
      case Order::sorted:
        std::sort(in.begin(), in.end());
        break;
      case Order::descending:
        std::sort(in.rbegin(), in.rend());
        break;
      case Order::shuffled:
        break;  // generation order is already random
    }
    IntervalSet s;
    std::vector<bool> ref(kUnits, false);
    for (const auto& [lo, hi] : in) {
      s.insert_merge(lo, hi);
      for (std::uintptr_t u = lo; u <= hi; ++u) ref[u] = true;
    }
    ASSERT_TRUE(well_formed(s)) << "seed " << seed;
    // Every stored range is covered; every covered unit is stored.
    for (const IntervalSet::Range& r : s.ranges())
      for (std::uintptr_t u = r.lo; u <= r.hi; ++u)
        ASSERT_TRUE(ref[u]) << "seed " << seed << " unit " << u;
    for (std::uintptr_t u = 0; u < kUnits; ++u)
      ASSERT_EQ(s.conflicts(u, u), static_cast<bool>(ref[u]))
          << "seed " << seed << " unit " << u;
    // Range queries, and overlapping() names the lowest overlapping range.
    for (int q = 0; q < 500; ++q) {
      const std::uintptr_t lo = rng() % kUnits;
      const std::uintptr_t hi = std::min(kUnits - 1, lo + rng() % 100);
      std::uintptr_t first = kUnits;
      for (std::uintptr_t u = lo; u <= hi && first == kUnits; ++u)
        if (ref[u]) first = u;
      std::uintptr_t olo = 0;
      std::uintptr_t ohi = 0;
      const bool hit = s.overlapping(lo, hi, &olo, &ohi);
      ASSERT_EQ(hit, first != kUnits) << "seed " << seed;
      ASSERT_EQ(s.conflicts(lo, hi), hit) << "seed " << seed;
      if (hit) {
        EXPECT_LE(olo, first);
        EXPECT_GE(ohi, first);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, IntervalSetOrderTest,
    ::testing::Values(Order::sorted, Order::descending, Order::shuffled),
    [](const ::testing::TestParamInfo<Order>& info) {
      switch (info.param) {
        case Order::sorted: return std::string("Sorted");
        case Order::descending: return std::string("Descending");
        case Order::shuffled: return std::string("Shuffled");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace mpisim
