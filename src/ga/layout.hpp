#ifndef GA_LAYOUT_HPP
#define GA_LAYOUT_HPP

/// \file layout.hpp
/// Local-block memory layout helpers shared by the GA implementation
/// files: every process stores its block in C row-major order.

#include <cstdint>
#include <span>
#include <vector>

#include "src/ga/distribution.hpp"

namespace ga::detail {

/// Byte strides (row-major) of the local storage of \p block.
inline std::vector<std::size_t> row_major_strides(const Patch& block,
                                                  std::size_t esz) {
  const std::size_t nd = block.lo.size();
  std::vector<std::size_t> s(nd);
  std::size_t acc = esz;
  for (std::size_t d = nd; d-- > 0;) {
    s[d] = acc;
    acc *= static_cast<std::size_t>(block.extent(d));
  }
  return s;
}

/// Byte offset of global element \p idx within the owner block \p block,
/// whose byte strides are \p strides.
inline std::size_t element_offset(const Patch& block,
                                  std::span<const std::size_t> strides,
                                  std::span<const std::int64_t> idx) {
  std::size_t off = 0;
  for (std::size_t d = 0; d < idx.size(); ++d)
    off += static_cast<std::size_t>(idx[d] - block.lo[d]) * strides[d];
  return off;
}

}  // namespace ga::detail

#endif  // GA_LAYOUT_HPP
