#ifndef MPISIM_INTERVAL_SET_HPP
#define MPISIM_INTERVAL_SET_HPP

/// \file interval_set.hpp
/// Flat union-of-ranges set for short-lived byte coverage.
///
/// The RMA validity checker (checker.hpp) records the bytes each epoch
/// reads, writes and accumulates, and the nb aggregation engine (armci
/// nb.hpp) records the ranges each queue will touch; both reset that
/// coverage at every epoch close, flush or queue drain. Such sets are
/// cleared far more often than they grow large. A sorted vector of
/// disjoint ranges suits them better than the AVL conflict tree
/// (conflict_tree.hpp): queries are one binary search, and clear() keeps
/// the storage for the next epoch, so steady state allocates nothing.
///
/// A single insert is an O(1) append above the last range and otherwise a
/// binary search plus an O(N) shift, so callers never feed it a long run
/// in arbitrary order: they sort one operation's ranges and add them with
/// the bulk insert_merge, one O(N + M) merge. The long-lived sets (the
/// §VI-B IOV overlap check, the happens-before shadow store) keep the tree
/// and its O(log N) worst case.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mpisim {

/// Sorted vector of disjoint inclusive ranges [lo, hi].
/// insert_merge() stores the union of overlapping ranges; ranges that only
/// touch (a.hi + 1 == b.lo) share no byte and stay separate.
class IntervalSet {
 public:
  struct Range {
    std::uintptr_t lo;
    std::uintptr_t hi;
  };

  /// Insert [lo, hi] (inclusive), replacing every stored range it overlaps
  /// by their union. Never fails; lo > hi is ignored.
  void insert_merge(std::uintptr_t lo, std::uintptr_t hi) {
    if (lo > hi) return;
    if (!v_.empty() && lo <= v_.back().hi) {
      merge_inside(lo, hi);
      return;
    }
    // Two scalar stores: a Range temporary copied in one 16-byte move
    // stalls on store forwarding once this append is inlined.
    Range& r = v_.emplace_back();
    r.lo = lo;
    r.hi = hi;
  }

  /// Insert every range of \p rs, which must be sorted by lo (they may
  /// overlap or touch one another; each has lo <= hi). O(M) when they lie
  /// above this set, O(N + M) otherwise.
  void insert_merge(std::span<const Range> rs) {
    if (rs.size() == 1) {
      insert_merge(rs.front().lo, rs.front().hi);
      return;
    }
    if (rs.empty()) return;
    const bool above = v_.empty() || rs.front().lo > v_.back().hi;
    const auto mid = static_cast<std::ptrdiff_t>(v_.size());
    v_.insert(v_.end(), rs.begin(), rs.end());
    auto out = v_.begin() + mid;
    if (!above) {
      std::inplace_merge(
          v_.begin(), out, v_.end(),
          [](const Range& a, const Range& b) { return a.lo < b.lo; });
      out = v_.begin();
    }
    // Sorted by lo from out on: fold each range that overlaps its
    // predecessor into it.
    for (auto it = out + 1; it != v_.end(); ++it) {
      if (it->lo <= out->hi)
        out->hi = std::max(out->hi, it->hi);
      else
        *++out = *it;
    }
    v_.erase(out + 1, v_.end());
  }

  /// True if [lo, hi] overlaps a stored range.
  bool conflicts(std::uintptr_t lo, std::uintptr_t hi) const {
    if (lo > hi) return false;
    const auto it = first_ending_at_or_after(v_.begin(), v_.end(), lo);
    return it != v_.end() && it->lo <= hi;
  }

  /// If [lo, hi] overlaps a stored range, copy the lowest such range into
  /// (*out_lo, *out_hi) and return true (the checker's diagnostics name the
  /// previously recorded interval an access collides with).
  bool overlapping(std::uintptr_t lo, std::uintptr_t hi,
                   std::uintptr_t* out_lo, std::uintptr_t* out_hi) const {
    if (lo > hi) return false;
    const auto it = first_ending_at_or_after(v_.begin(), v_.end(), lo);
    if (it == v_.end() || it->lo > hi) return false;
    *out_lo = it->lo;
    *out_hi = it->hi;
    return true;
  }

  /// Stored ranges in ascending order.
  const std::vector<Range>& ranges() const noexcept { return v_; }

  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }

  /// Remove all ranges, keeping the storage for reuse.
  void clear() noexcept { v_.clear(); }

 private:
  /// insert_merge of [lo, hi] when it does not lie above every stored
  /// range (kept apart, so the common append stays small).
  void merge_inside(std::uintptr_t lo, std::uintptr_t hi) {
    const auto first = first_ending_at_or_after(v_.begin(), v_.end(), lo);
    if (first->lo > hi) {
      v_.insert(first, {lo, hi});
      return;
    }
    // [first, last) overlap [lo, hi]: fold them into *first.
    const auto last = std::upper_bound(
        first, v_.end(), hi,
        [](std::uintptr_t h, const Range& r) { return h < r.lo; });
    first->lo = std::min(first->lo, lo);
    first->hi = std::max((last - 1)->hi, hi);
    v_.erase(first + 1, last);
  }

  /// Stored ranges are disjoint and sorted, so their hi bounds ascend too:
  /// the first range with hi >= lo is the lowest one that can overlap.
  template <class It>
  static It first_ending_at_or_after(It begin, It end, std::uintptr_t lo) {
    return std::lower_bound(
        begin, end, lo,
        [](const Range& r, std::uintptr_t l) { return r.hi < l; });
  }

  std::vector<Range> v_;
};

}  // namespace mpisim

#endif  // MPISIM_INTERVAL_SET_HPP
