#include "src/armci/iov.hpp"

#include <cstdint>

namespace armci {

bool iov_has_overlap(std::span<const void* const> ptrs, std::size_t bytes) {
  mpisim::ConflictTree tree;
  return iov_has_overlap(ptrs, bytes, tree);
}

bool iov_has_overlap(std::span<const void* const> ptrs, std::size_t bytes,
                     mpisim::ConflictTree& tree) {
  if (bytes == 0) return false;
  tree.clear();
  for (const void* p : ptrs) {
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    if (!tree.insert(lo, lo + bytes - 1)) return true;
  }
  return false;
}

bool iov_has_overlap_naive(std::span<const void* const> ptrs,
                           std::size_t bytes) {
  if (bytes == 0) return false;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(ptrs[i]);
    for (std::size_t j = i + 1; j < ptrs.size(); ++j) {
      const auto b = reinterpret_cast<std::uintptr_t>(ptrs[j]);
      if (a < b + bytes && b < a + bytes) return true;
    }
  }
  return false;
}

}  // namespace armci
