#ifndef GA_DISTRIBUTION_HPP
#define GA_DISTRIBUTION_HPP

/// \file distribution.hpp
/// Regular block distribution of an n-dimensional array over processes.
///
/// Matches Global Arrays' default layout: the process count is factored
/// into an n-dimensional grid (respecting per-dimension minimum chunk
/// hints), each dimension is split into nearly equal blocks, and grid cell
/// (c_0, ..., c_{n-1}) belongs to the process with row-major cell index.
/// GA_Put/Get/Acc on an index region decompose into one patch per
/// intersected owner (paper Fig. 2).

#include <cstdint>
#include <span>
#include <vector>

namespace ga {

/// An inclusive index region [lo[d], hi[d]] per dimension (GA convention).
struct Patch {
  std::vector<std::int64_t> lo;
  std::vector<std::int64_t> hi;

  /// Elements covered (0 if any dimension is inverted).
  std::int64_t num_elems() const noexcept;

  /// Extent hi[d] - lo[d] + 1.
  std::int64_t extent(std::size_t d) const noexcept {
    return hi[d] - lo[d] + 1;
  }

  bool operator==(const Patch&) const = default;
};

/// Owner of one intersected sub-patch.
struct OwnedPatch {
  int proc = -1;  ///< absolute process id
  Patch patch;    ///< global coordinates
};

/// Immutable block distribution.
class Distribution {
 public:
  Distribution() = default;

  /// Distribute \p dims over \p nprocs processes. \p chunk (optional) gives
  /// per-dimension minimum block extents (GA chunk hints): a dimension is
  /// split into at most dims[d] / max(chunk[d], 1) blocks.
  ///
  /// \p ranks_per_node > 1 selects the node-aware mapping: grid cells are
  /// grouped into sub-bricks whose shape is factored from ranks_per_node,
  /// and each brick's cells map to *consecutive* process ids -- so spatially
  /// adjacent tiles land on ranks the platform co-locates on one node, and
  /// a patch access spanning neighboring tiles stays on the intra-node
  /// fast path. 0 or 1 keeps the classic row-major cell order.
  Distribution(std::span<const std::int64_t> dims, int nprocs,
               std::span<const std::int64_t> chunk = {},
               int ranks_per_node = 0);

  /// Irregular distribution (GA_Create_irregular's map): \p block_starts[d]
  /// lists the first index of every block in dimension d -- it must start
  /// at 0 and be strictly increasing below dims[d]. The number of owning
  /// processes is the product of the per-dimension block counts.
  Distribution(std::span<const std::int64_t> dims,
               std::span<const std::vector<std::int64_t>> block_starts);

  int ndim() const noexcept { return static_cast<int>(dims_.size()); }
  const std::vector<std::int64_t>& dims() const noexcept { return dims_; }

  /// Processor grid extents (product <= nprocs).
  const std::vector<int>& grid() const noexcept { return grid_; }

  /// Number of processes that own a block.
  int owning_procs() const noexcept;

  /// Owning process of element \p idx.
  int owner_of(std::span<const std::int64_t> idx) const;

  /// Block owned by \p proc; an empty patch (lo > hi in dim 0) when the
  /// process owns nothing.
  Patch patch_of(int proc) const;

  /// Decompose \p region into per-owner sub-patches, owner order
  /// deterministic (row-major grid order).
  std::vector<OwnedPatch> intersect(const Patch& region) const;

  /// intersect() into \p buf, returning the filled prefix. \p buf never
  /// shrinks, so reusing it reuses its patches' storage: a warm call
  /// allocates nothing.
  std::span<const OwnedPatch> intersect(const Patch& region,
                                        std::vector<OwnedPatch>& buf) const;

  /// Block index of \p x in dimension \p d.
  int block_index(std::size_t d, std::int64_t x) const;

  /// True when the node-aware cell-to-process mapping is active (i.e. the
  /// mapping differs from the row-major default).
  bool node_clustered() const noexcept { return !cell_to_proc_.empty(); }

  /// True when both distributions assign every element to the same owner
  /// (same shape, processor grid, and block boundaries). The owner-computes
  /// collectives use this to decide whether paired local blocks line up.
  bool operator==(const Distribution&) const = default;

 private:
  std::vector<std::int64_t> dims_;
  std::vector<int> grid_;
  // starts_[d][i] = first index of block i in dimension d; the sentinel
  // starts_[d][grid_[d]] == dims_[d] closes the last block.
  std::vector<std::vector<std::int64_t>> starts_;
  // Node-aware mode: cell_to_proc_[row-major cell index] = owning process
  // (with proc_to_cell_ the inverse). Empty = identity (row-major order).
  std::vector<int> cell_to_proc_;
  std::vector<int> proc_to_cell_;

  int proc_of_cell(int cell) const noexcept {
    return cell_to_proc_.empty() ? cell
                                 : cell_to_proc_[static_cast<std::size_t>(cell)];
  }
  int cell_of_proc(int proc) const noexcept {
    return proc_to_cell_.empty() ? proc
                                 : proc_to_cell_[static_cast<std::size_t>(proc)];
  }
};

}  // namespace ga

#endif  // GA_DISTRIBUTION_HPP
