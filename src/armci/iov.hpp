#ifndef ARMCI_IOV_HPP
#define ARMCI_IOV_HPP

/// \file iov.hpp
/// I/O-vector analysis used by the auto transfer method (paper §VI-B).
///
/// The batched and direct IOV methods are erroneous when segments overlap
/// (or span different GMRs); the auto method scans the descriptor first and
/// falls back to the conservative method when either condition holds.

#include <cstddef>
#include <span>
#include <vector>

#include "src/armci/gmr.hpp"
#include "src/armci/types.hpp"
#include "src/mpisim/conflict_tree.hpp"

namespace armci {

/// Read-only view of a segment pointer array (Giov::dst), the shape of
/// Giov::src.
inline std::span<const void* const> as_const_span(
    const std::vector<void*>& v) {
  return {const_cast<const void* const*>(v.data()), v.size()};
}

/// Segment addresses on the local side of \p g: dst for a get, src for a
/// put or accumulate.
inline std::span<const void* const> local_segments(const Giov& g,
                                                   bool is_get) {
  return is_get ? as_const_span(g.dst) : std::span<const void* const>(g.src);
}

/// Segment addresses on the remote side of \p g: src for a get, dst for a
/// put or accumulate.
inline std::span<const void* const> remote_segments(const Giov& g,
                                                    bool is_get) {
  return local_segments(g, !is_get);
}

/// O(N log N) overlap detection over \p n segments of \p bytes bytes each,
/// using the AVL conflict tree (paper §VI-B).
bool iov_has_overlap(std::span<const void* const> ptrs, std::size_t bytes);

/// The same check in \p tree, a caller's scratch tree: it is cleared first
/// and its nodes are reused, so a warm check allocates nothing.
bool iov_has_overlap(std::span<const void* const> ptrs, std::size_t bytes,
                     mpisim::ConflictTree& tree);

/// Per-rank scratch of the IOV transfer paths (a backend's, or the nb
/// engine's), taken through mpisim::Lease so a warm call allocates nothing.
/// Users clear what they fill; locs hold GMR references, so they are
/// cleared after use.
struct IovScratch {
  std::vector<GmrLoc> locs;             ///< each segment's location
  GmrGroups groups;                     ///< locs grouped by GMR
  std::vector<std::ptrdiff_t> rdispls;  ///< remote displacements
  std::vector<const void*> lsegs;       ///< local addresses of one group
  mpisim::ConflictTree tree;            ///< the overlap check's tree
};

/// Naive O(N^2) pairwise scan; ablation baseline for bench_conflict_tree.
bool iov_has_overlap_naive(std::span<const void* const> ptrs,
                           std::size_t bytes);

}  // namespace armci

#endif  // ARMCI_IOV_HPP
