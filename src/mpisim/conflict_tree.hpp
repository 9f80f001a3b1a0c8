#ifndef MPISIM_CONFLICT_TREE_HPP
#define MPISIM_CONFLICT_TREE_HPP

/// \file conflict_tree.hpp
/// O(N log N) range overlap detection (paper §VI-B).
///
/// The batched and datatype (direct) IOV transfer methods are erroneous if
/// any two segments overlap; detecting that with a naive pairwise scan is
/// O(N^2), and NWChem IOV descriptors reach tens to hundreds of thousands of
/// segments. The paper's "auto" method instead inserts each segment's byte
/// range [lo..hi] into a self-balancing binary tree ordered such that every
/// node's left subtree lies entirely below lo and right subtree entirely
/// above hi; an overlap is detected during the (merged) check-and-insert
/// descent. Unlike an interval tree, the structure never *stores* an
/// overlapping range -- insertion simply fails, which is exactly the signal
/// the auto method needs to fall back to the conservative transfer method.
///
/// This implementation uses an AVL tree (Adelson-Velskii & Landis), as the
/// paper does, with the check and insert steps merged into one descent plus
/// the usual rebalancing on the way back up.
///
/// The tree lives in mpisim because the happens-before detector (hb.hpp)
/// also keeps its long-lived shadow store of up to 65536 intervals in it,
/// through insert_coalesce(), overlapping() and visit(). Short-lived
/// coverage that is reset at every epoch close or flush -- the RMA
/// checker's per-epoch sets and the nb queues' ranges -- lives in the flat
/// IntervalSet (interval_set.hpp) instead, whose callers sort each
/// operation's ranges and add them with one merge, and whose storage is
/// reused across epochs. A single out-of-order insert into it costs O(N),
/// which the IOV check (the paper's method, ablation A1) and the shadow
/// store, coalescing one access at a time, do not pay.

#include <cstddef>
#include <cstdint>
#include <functional>

namespace mpisim {

namespace detail {
struct CtNode;
}

/// Self-balancing tree of disjoint address ranges with overlap-rejecting
/// insertion. Addresses are arbitrary uintptr_t values; ranges are
/// *inclusive* [lo, hi] to match the paper's formulation.
class ConflictTree {
 public:
  ConflictTree() = default;
  ~ConflictTree();

  ConflictTree(ConflictTree&&) noexcept;
  ConflictTree& operator=(ConflictTree&&) noexcept;
  ConflictTree(const ConflictTree&) = delete;
  ConflictTree& operator=(const ConflictTree&) = delete;

  /// Insert [lo, hi] (inclusive; lo <= hi required). Returns true on
  /// success; returns false -- leaving the tree unchanged -- if the range
  /// overlaps any stored range. Single O(log N) descent.
  bool insert(std::uintptr_t lo, std::uintptr_t hi);

  /// Insert the union: any stored ranges overlapping or *adjacent* to
  /// [lo, hi] (other.hi + 1 == lo or hi + 1 == other.lo) are removed and
  /// replaced by one range covering them all. Never fails. Accumulation
  /// primitive of the happens-before shadow store (hb.hpp), which coalesces
  /// neighbouring same-class intervals to bound checker memory.
  void insert_coalesce(std::uintptr_t lo, std::uintptr_t hi);

  /// In-order traversal: invoke \p fn(lo, hi) for every stored range in
  /// ascending order. Lets the happens-before detector union one coverage
  /// tree into another when merging access summaries.
  void visit(
      const std::function<void(std::uintptr_t, std::uintptr_t)>& fn) const;

  /// True if [lo, hi] overlaps a stored range (no insertion).
  bool conflicts(std::uintptr_t lo, std::uintptr_t hi) const;

  /// If [lo, hi] overlaps a stored range, copy that range into
  /// (*out_lo, *out_hi) and return true (diagnostics: the happens-before
  /// detector reports the previously recorded interval a new access
  /// collides with).
  bool overlapping(std::uintptr_t lo, std::uintptr_t hi,
                   std::uintptr_t* out_lo, std::uintptr_t* out_hi) const;

  /// Number of stored ranges.
  std::size_t size() const noexcept { return size_; }

  bool empty() const noexcept { return size_ == 0; }

  /// Remove all ranges, keeping their nodes for later inserts: a tree
  /// reused as scratch allocates nothing once it has held its largest set.
  void clear() noexcept;

  /// Tree height (diagnostics; AVL guarantees O(log N)).
  int height() const noexcept;

  /// Internal invariant check for tests: AVL balance and ordering hold.
  bool check_invariants() const;

 private:
  detail::CtNode* root_ = nullptr;
  detail::CtNode* spare_ = nullptr;  ///< nodes clear() kept, chained by left
  std::size_t size_ = 0;
};

}  // namespace mpisim

#endif  // MPISIM_CONFLICT_TREE_HPP
