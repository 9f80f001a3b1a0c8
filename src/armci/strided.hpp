#ifndef ARMCI_STRIDED_HPP
#define ARMCI_STRIDED_HPP

/// \file strided.hpp
/// Strided-operation machinery (paper §VI-C, Table I, Algorithm 1).
///
/// ARMCI strided notation describes an n-dimensional patch as count[] units
/// per dimension (count[0] in bytes) with per-dimension byte strides for
/// source and destination. Two translation paths exist:
///
///  - Algorithm 1: enumerate the patch as an I/O vector of count[0]-byte
///    segments. StridedIter implements it as an iterator (constant space);
///    strided_to_iov materializes the full descriptor.
///
///  - Direct: translate "backwards" into an MPI subarray datatype by
///    reconstructing the parent array dimensions from the stride ratios
///    (paper §VI-C). When the strides are not expressible as array
///    dimensions, an equivalent nested-hvector type is built instead.

#include <span>

#include "src/armci/types.hpp"
#include "src/mpisim/datatype.hpp"

namespace armci {

/// Throw Errc::invalid_argument unless \p spec is well-formed: vector
/// lengths match stride_levels, counts are nonzero, and strides are large
/// enough that segments within one side cannot self-overlap.
void validate_spec(const StridedSpec& spec);

/// Payload bytes moved by one strided operation.
std::size_t strided_total_bytes(const StridedSpec& spec);

/// Number of contiguous segments (product of count[1..sl]).
std::size_t strided_segments(const StridedSpec& spec);

/// Bytes from the first to the last byte touched on the side with
/// \p strides: the extent of make_strided_type() for that side.
std::size_t strided_span(std::span<const std::size_t> strides,
                         const StridedSpec& spec);

/// Algorithm 1 as a constant-space iterator: yields the source and
/// destination byte displacement of each count[0]-byte segment, innermost
/// dimension fastest.
class StridedIter {
 public:
  explicit StridedIter(const StridedSpec& spec);

  /// Produce the next segment's displacements; false when exhausted.
  bool next(std::size_t& src_off, std::size_t& dst_off);

  /// Restart the iteration.
  void reset();

  /// Segment payload length (count[0]).
  std::size_t seg_bytes() const noexcept { return spec_->count[0]; }

 private:
  const StridedSpec* spec_;
  std::vector<std::size_t> idx_;  // per-level counters, length sl
  bool done_ = false;
};

/// Materialize Algorithm 1: the full generalized-IOV descriptor for a
/// strided transfer from \p src to \p dst.
Giov strided_to_iov(const void* src, void* dst, const StridedSpec& spec);

/// Parameters of the backward subarray translation (paper §VI-C), in
/// elements of the given size. Valid only if representable() is true.
struct SubarrayParams {
  bool representable = false;
  std::vector<std::size_t> sizes;     // parent array dims, outermost first
  std::vector<std::size_t> subsizes;  // patch dims
  std::vector<std::size_t> starts;    // all zero: src/dst point at the patch
};

/// Attempt the backward translation from one side's strides to subarray
/// dimensions: dim[i] must come out integral from the stride ratios and
/// large enough to contain the patch.
SubarrayParams strided_to_subarray(std::span<const std::size_t> strides,
                                   const StridedSpec& spec,
                                   std::size_t elem_size);

/// Build the direct-method datatype for one side of a strided transfer:
/// the subarray type when representable, else the equivalent nested
/// hvector. \p elem is the element type (byte_ for put/get; the accumulate
/// element type for acc, so the target reduction applies element-wise).
mpisim::Datatype make_strided_type(std::span<const std::size_t> strides,
                                   const StridedSpec& spec,
                                   mpisim::BasicType elem);

}  // namespace armci

#endif  // ARMCI_STRIDED_HPP
