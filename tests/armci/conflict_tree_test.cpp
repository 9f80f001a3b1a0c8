// Unit and property tests for the AVL conflict tree (paper §VI-B).

#include "src/mpisim/conflict_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/armci/iov.hpp"

namespace armci {
namespace {

using mpisim::ConflictTree;

TEST(ConflictTreeTest, EmptyTreeHasNoConflicts) {
  ConflictTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.conflicts(0, 100));
}

TEST(ConflictTreeTest, DisjointRangesInsert) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(0, 9));
  EXPECT_TRUE(t.insert(20, 29));
  EXPECT_TRUE(t.insert(10, 19));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, ExactOverlapRejected) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(10, 20));
  EXPECT_FALSE(t.insert(10, 20));
  EXPECT_EQ(t.size(), 1u);
}

TEST(ConflictTreeTest, PartialOverlapsRejected) {
  ConflictTree t;
  ASSERT_TRUE(t.insert(10, 20));
  EXPECT_FALSE(t.insert(5, 10));    // touches lo
  EXPECT_FALSE(t.insert(20, 25));   // touches hi
  EXPECT_FALSE(t.insert(12, 18));   // inside
  EXPECT_FALSE(t.insert(5, 25));    // encloses
  EXPECT_TRUE(t.insert(21, 25));
  EXPECT_TRUE(t.insert(5, 9));
  EXPECT_EQ(t.size(), 3u);
}

TEST(ConflictTreeTest, AdjacentRangesAreDisjoint) {
  // Inclusive ranges: [0,9] and [10,19] do not overlap.
  ConflictTree t;
  EXPECT_TRUE(t.insert(0, 9));
  EXPECT_TRUE(t.insert(10, 19));
}

TEST(ConflictTreeTest, SingleByteRanges) {
  ConflictTree t;
  EXPECT_TRUE(t.insert(5, 5));
  EXPECT_FALSE(t.insert(5, 5));
  EXPECT_TRUE(t.insert(4, 4));
  EXPECT_TRUE(t.insert(6, 6));
}

TEST(ConflictTreeTest, InvalidRangeRejected) {
  ConflictTree t;
  EXPECT_FALSE(t.insert(10, 5));
  EXPECT_TRUE(t.empty());
}

TEST(ConflictTreeTest, FailedInsertLeavesTreeUsable) {
  ConflictTree t;
  ASSERT_TRUE(t.insert(100, 200));
  ASSERT_FALSE(t.insert(150, 250));
  EXPECT_TRUE(t.insert(300, 400));
  EXPECT_TRUE(t.conflicts(150, 160));
  EXPECT_FALSE(t.conflicts(201, 299));
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, ClearEmptiesTree) {
  ConflictTree t;
  for (std::uintptr_t i = 0; i < 100; ++i) ASSERT_TRUE(t.insert(i * 10, i * 10 + 5));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.insert(0, 1000000));
}

TEST(ConflictTreeTest, MoveTransfersOwnership) {
  ConflictTree a;
  ASSERT_TRUE(a.insert(1, 2));
  ConflictTree b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.conflicts(1, 1));
}

TEST(ConflictTreeTest, HeightIsLogarithmicOnSortedInsert) {
  // Sorted insertion is the AVL worst case for naive BSTs; the
  // self-balancing property must keep height ~1.44 log2(n).
  ConflictTree t;
  const int n = 1 << 14;
  for (int i = 0; i < n; ++i)
    ASSERT_TRUE(t.insert(static_cast<std::uintptr_t>(i) * 16,
                         static_cast<std::uintptr_t>(i) * 16 + 7));
  EXPECT_TRUE(t.check_invariants());
  EXPECT_LE(t.height(), 21);  // 1.44 * 14 + 1
}

// Property: the tree agrees with the naive O(N^2) scanner on random
// segment sets, both overlapping and disjoint.
class ConflictTreeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ConflictTreeRandomTest, AgreesWithNaiveScan) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t bytes = 64;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 200;
    // Dense address space => likely overlaps; sparse => likely disjoint.
    const std::uintptr_t space = (trial % 2 == 0) ? n * 80 : n * 8;
    std::vector<const void*> ptrs(n);
    for (auto& p : ptrs)
      p = reinterpret_cast<const void*>(0x10000 + rng() % space);
    const bool naive = iov_has_overlap_naive(ptrs, bytes);
    const bool tree = iov_has_overlap(ptrs, bytes);
    EXPECT_EQ(tree, naive) << "trial " << trial << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictTreeRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ConflictTreeTest, RandomInsertKeepsInvariants) {
  std::mt19937_64 rng(42);
  ConflictTree t;
  std::size_t inserted = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::uintptr_t lo = rng() % 100000;
    const std::uintptr_t hi = lo + rng() % 50;
    if (t.insert(lo, hi)) ++inserted;
  }
  EXPECT_EQ(t.size(), inserted);
  EXPECT_TRUE(t.check_invariants());
}

// overlapping() names the stored range a query hit (happens-before
// detector diagnostics, src/mpisim/hb.cpp).
TEST(ConflictTreeTest, OverlappingReportsStoredRange) {
  ConflictTree t;
  ASSERT_TRUE(t.insert(100, 200));
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  EXPECT_TRUE(t.overlapping(150, 160, &lo, &hi));
  EXPECT_EQ(lo, 100u);
  EXPECT_EQ(hi, 200u);
  EXPECT_FALSE(t.overlapping(201, 300, &lo, &hi));
}

TEST(IovOverlapTest, DisjointVectorIsClean) {
  std::vector<const void*> ptrs;
  for (int i = 0; i < 1000; ++i)
    ptrs.push_back(reinterpret_cast<const void*>(0x1000 + i * 128));
  EXPECT_FALSE(iov_has_overlap(ptrs, 128));
  EXPECT_FALSE(iov_has_overlap_naive(ptrs, 128));
}

TEST(IovOverlapTest, OneDuplicateDetected) {
  std::vector<const void*> ptrs;
  for (int i = 0; i < 1000; ++i)
    ptrs.push_back(reinterpret_cast<const void*>(0x1000 + i * 128));
  ptrs.push_back(ptrs[500]);
  EXPECT_TRUE(iov_has_overlap(ptrs, 128));
}

TEST(IovOverlapTest, ZeroByteSegmentsNeverOverlap) {
  std::vector<const void*> ptrs(10, reinterpret_cast<const void*>(0x1000));
  EXPECT_FALSE(iov_has_overlap(ptrs, 0));
}

// ---- insert_coalesce / visit (happens-before shadow-store primitives) ----

TEST(ConflictTreeTest, CoalesceAbsorbsAdjacentRanges) {
  ConflictTree t;
  t.insert_coalesce(0, 9);
  t.insert_coalesce(20, 29);
  // Adjacent on both sides: [10, 19] must fuse all three into [0, 29].
  t.insert_coalesce(10, 19);
  EXPECT_EQ(t.size(), 1u);
  std::uintptr_t lo = 1, hi = 0;
  ASSERT_TRUE(t.overlapping(15, 15, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 29u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, CoalesceAbsorbsAChainOfNeighbours) {
  ConflictTree t;
  // Ten separated singleton ranges; one spanning insert adjacent to the
  // first must absorb the whole chain once the gaps are bridged.
  for (std::uintptr_t i = 0; i < 10; ++i)
    t.insert_coalesce(i * 2, i * 2);  // 0, 2, 4, ..., 18 (gaps at odds)
  EXPECT_EQ(t.size(), 10u);
  for (std::uintptr_t i = 0; i < 9; ++i)
    t.insert_coalesce(i * 2 + 1, i * 2 + 1);  // fill the gaps one by one
  EXPECT_EQ(t.size(), 1u);
  std::uintptr_t lo = 1, hi = 0;
  ASSERT_TRUE(t.overlapping(0, 0, &lo, &hi));
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 18u);
}

TEST(ConflictTreeTest, CoalesceDoesNotFuseAcrossGaps) {
  ConflictTree t;
  t.insert_coalesce(0, 9);
  t.insert_coalesce(11, 19);  // gap at 10: must stay separate
  EXPECT_EQ(t.size(), 2u);
  EXPECT_FALSE(t.conflicts(10, 10));
}

TEST(ConflictTreeTest, CoalesceAtAddressSpaceBoundsDoesNotWrap) {
  ConflictTree t;
  const std::uintptr_t max = ~static_cast<std::uintptr_t>(0);
  t.insert_coalesce(0, 0);
  t.insert_coalesce(max, max);
  EXPECT_EQ(t.size(), 2u);
  t.insert_coalesce(2, max - 2);  // adjacent to neither end range
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ConflictTreeTest, VisitTraversesInAscendingOrder) {
  ConflictTree t;
  t.insert_coalesce(40, 49);
  t.insert_coalesce(0, 9);
  t.insert_coalesce(20, 29);
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> seen;
  t.visit([&](std::uintptr_t lo, std::uintptr_t hi) {
    seen.emplace_back(lo, hi);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 0u);
  EXPECT_EQ(seen[0].second, 9u);
  EXPECT_EQ(seen[1].first, 20u);
  EXPECT_EQ(seen[1].second, 29u);
  EXPECT_EQ(seen[2].first, 40u);
  EXPECT_EQ(seen[2].second, 49u);
}

TEST(ConflictTreeTest, VisitOnEmptyTreeIsANoOp) {
  ConflictTree t;
  int calls = 0;
  t.visit([&](std::uintptr_t, std::uintptr_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace armci
