#ifndef MPISIM_DATATYPE_IMPL_HPP
#define MPISIM_DATATYPE_IMPL_HPP

/// \file datatype_impl.hpp
/// The datatype tree and its segment walk. Included by datatype.hpp, whose
/// Datatype::for_each_segment is a template over the caller's visitor: the
/// walk below is instantiated per visitor, so every segment reaches the
/// visitor through a direct (usually inlined) call.

#include <cstddef>
#include <memory>
#include <vector>

#include "src/mpisim/datatype.hpp"

namespace mpisim {
namespace detail {

/// Immutable node of a datatype tree. `extent` may exceed `size` when the
/// layout has holes; all fields describe exactly one instance of the type.
struct TypeImpl {
  enum class Kind { basic, hvector, hindexed } kind = Kind::basic;

  BasicType elem = BasicType::byte_;
  std::size_t size = 0;        // payload bytes per instance
  std::ptrdiff_t extent = 0;   // distance from one instance to the next
  std::ptrdiff_t lb = 0;       // lowest byte offset one instance touches
  std::ptrdiff_t ub = 0;       // one past the highest byte offset
  std::size_t nsegments = 1;   // maximal contiguous segments per instance
  bool contig = true;

  std::shared_ptr<const TypeImpl> child;  // null for Kind::basic

  // hvector parameters
  std::size_t count = 0;
  std::size_t blocklen = 0;
  std::ptrdiff_t stride_bytes = 0;

  // hindexed parameters
  std::vector<std::size_t> blocklens;
  std::vector<std::ptrdiff_t> displs;
};

/// Visit the segments of one instance of \p t placed at \p base, in tree
/// order. A block of contiguous children is one segment.
template <typename F>
void walk(const TypeImpl& t, std::ptrdiff_t base, F& f) {
  switch (t.kind) {
    case TypeImpl::Kind::basic:
      f(Segment{base, t.size});
      return;
    case TypeImpl::Kind::hvector: {
      const TypeImpl& c = *t.child;
      for (std::size_t i = 0; i < t.count; ++i) {
        const std::ptrdiff_t block =
            base + static_cast<std::ptrdiff_t>(i) * t.stride_bytes;
        if (c.contig) {
          f(Segment{block, t.blocklen * c.size});
        } else {
          for (std::size_t j = 0; j < t.blocklen; ++j)
            walk(c, block + static_cast<std::ptrdiff_t>(j) * c.extent, f);
        }
      }
      return;
    }
    case TypeImpl::Kind::hindexed: {
      const TypeImpl& c = *t.child;
      for (std::size_t i = 0; i < t.blocklens.size(); ++i) {
        const std::ptrdiff_t block = base + t.displs[i];
        if (c.contig) {
          f(Segment{block, t.blocklens[i] * c.size});
        } else {
          for (std::size_t j = 0; j < t.blocklens[i]; ++j)
            walk(c, block + static_cast<std::ptrdiff_t>(j) * c.extent, f);
        }
      }
      return;
    }
  }
}

}  // namespace detail

template <typename F>
void Datatype::for_each_segment(std::size_t count, F&& f) const {
  const detail::TypeImpl& t = *impl_;
  if (t.kind == detail::TypeImpl::Kind::basic) {
    // One segment per instance: no recursion, no dispatch.
    for (std::size_t i = 0; i < count; ++i)
      f(Segment{static_cast<std::ptrdiff_t>(i) * t.extent, t.size});
    return;
  }
  for (std::size_t i = 0; i < count; ++i)
    detail::walk(t, static_cast<std::ptrdiff_t>(i) * t.extent, f);
}

}  // namespace mpisim

#endif  // MPISIM_DATATYPE_IMPL_HPP
