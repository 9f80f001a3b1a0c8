#ifndef MPISIM_DATATYPE_HPP
#define MPISIM_DATATYPE_HPP

/// \file datatype.hpp
/// MPI-style derived datatypes.
///
/// ARMCI-MPI's "direct" transfer methods hand noncontiguous layouts to MPI as
/// a single RMA operation carrying an indexed or subarray derived datatype;
/// the MPI library then chooses how to move the data (pack/unpack, batched,
/// or hardware scatter/gather). This module provides exactly the datatype
/// machinery those methods need: basic types, contiguous, (h)vector,
/// (h)indexed, and C-order subarray constructors, with size/extent/bound
/// queries, contiguous-segment iteration, and pack/unpack.
///
/// Datatypes are immutable value handles (shared immutable tree underneath);
/// copying is cheap and thread-safe. Each basic type is one process-wide
/// immutable node, so basic() and the handles below allocate nothing.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/mpisim/op.hpp"

namespace mpisim {

namespace detail {
struct TypeImpl;
}

/// One contiguous piece of a flattened datatype.
struct Segment {
  std::ptrdiff_t offset;  ///< byte offset from the base address
  std::size_t length;     ///< bytes
};

/// Immutable handle to a (possibly derived) datatype.
class Datatype {
 public:
  /// A predefined basic type. Every call for one \p t shares one node.
  static Datatype basic(BasicType t);

  /// \p count consecutive copies of \p old.
  static Datatype contiguous(std::size_t count, const Datatype& old);

  /// \p count blocks of \p blocklen elements, regular stride measured in
  /// elements of \p old (MPI_Type_vector).
  static Datatype vector(std::size_t count, std::size_t blocklen,
                         std::ptrdiff_t stride_elems, const Datatype& old);

  /// Like vector() but the stride is given in bytes (MPI_Type_create_hvector).
  static Datatype hvector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride_bytes, const Datatype& old);

  /// Blocks of varying length at varying displacements, both measured in
  /// elements of \p old (MPI_Type_indexed).
  static Datatype indexed(std::span<const std::size_t> blocklens,
                          std::span<const std::ptrdiff_t> displs_elems,
                          const Datatype& old);

  /// Like indexed() but displacements are in bytes (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const std::size_t> blocklens,
                           std::span<const std::ptrdiff_t> displs_bytes,
                           const Datatype& old);

  /// An n-dimensional subarray of an n-dimensional C-order array
  /// (MPI_Type_create_subarray with MPI_ORDER_C). \p sizes are the full
  /// array dimensions, \p subsizes the patch dimensions, \p starts the
  /// patch origin, all in elements of \p old; dimension 0 is outermost.
  static Datatype subarray(std::span<const std::size_t> sizes,
                           std::span<const std::size_t> subsizes,
                           std::span<const std::size_t> starts,
                           const Datatype& old);

  /// Payload bytes carried by one instance of this type.
  std::size_t size() const noexcept;

  /// Distance in bytes from one instance to the next: instance i of a
  /// count starts at byte offset i * extent().
  std::ptrdiff_t extent() const noexcept;

  /// The bytes one instance touches lie in [true_lb(), true_ub()), relative
  /// to its start (MPI_Type_get_true_extent). true_lb() is negative when a
  /// negative hvector stride or hindexed displacement lays data below the
  /// start, and positive when the layout begins with a hole.
  std::ptrdiff_t true_lb() const noexcept;
  std::ptrdiff_t true_ub() const noexcept;

  /// Underlying element type (uniform across the whole tree).
  BasicType element_type() const noexcept;

  /// True if one instance occupies size() contiguous bytes at offset 0.
  bool contiguous_layout() const noexcept;

  /// Number of maximal contiguous segments in one instance.
  std::size_t segment_count() const noexcept;

  /// Call \p f(Segment) for every segment of \p count instances laid out
  /// back-to-back (instance i starts at byte offset i * extent()), instance
  /// by instance, each in tree order: a basic type is one segment, a block
  /// of contiguous children is one segment, and adjacent segments are not
  /// merged. \p f is any callable, taken by reference and never copied, so
  /// it may hold state; the walk is a template, so each segment is a direct
  /// call. It allocates nothing.
  template <typename F>
  void for_each_segment(std::size_t count, F&& f) const;

  /// Flatten \p count instances into \p out (cleared first) as an explicit
  /// segment list, adjacent segments merged. Reusing one \p out across
  /// calls reuses its capacity: a warm call allocates nothing.
  void flatten_into(std::size_t count, std::vector<Segment>& out) const;

  /// Gather \p count instances from \p base into the contiguous buffer
  /// \p out (which must hold count * size() bytes).
  void pack(const void* base, std::size_t count, void* out) const;

  /// Scatter the contiguous buffer \p in (count * size() bytes) into
  /// \p count instances at \p base.
  void unpack(const void* in, void* base, std::size_t count) const;

 private:
  explicit Datatype(std::shared_ptr<const detail::TypeImpl> impl);
  std::shared_ptr<const detail::TypeImpl> impl_;
};

/// Convenience handles for the common predefined types.
Datatype byte_type();
Datatype int32_type();
Datatype int64_type();
Datatype double_type();

}  // namespace mpisim

// The datatype tree and the template walk behind for_each_segment.
#include "src/mpisim/datatype_impl.hpp"  // IWYU pragma: export

#endif  // MPISIM_DATATYPE_HPP
