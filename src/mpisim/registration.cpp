#include "src/mpisim/registration.hpp"

#include <algorithm>

namespace mpisim {

std::pair<std::uintptr_t, std::uintptr_t> RegistrationCache::page_range(
    const void* addr, std::size_t len) const {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const std::uintptr_t first = a / kPageBytes;
  const std::uintptr_t last = (a + (len == 0 ? 0 : len - 1)) / kPageBytes + 1;
  return {first, last};
}

std::size_t RegistrationCache::ensure_registered(const void* addr,
                                                 std::size_t len) {
  if (len == 0) return 0;
  auto [lo, hi] = page_range(addr, len);
  std::size_t newly = 0;

  // Walk existing intervals overlapping [lo, hi), counting gaps, then merge.
  // The first interval's map node is reused for the merged one, so a warm
  // call allocates nothing.
  auto it = pages_.upper_bound(lo);
  if (it != pages_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= lo) it = prev;
  }
  std::uintptr_t cur = lo;
  std::uintptr_t merged_lo = lo, merged_hi = hi;
  PageMap::node_type node;
  while (it != pages_.end() && it->first <= hi) {
    if (it->first > cur) newly += it->first - cur;
    cur = std::max(cur, it->second);
    merged_lo = std::min(merged_lo, it->first);
    merged_hi = std::max(merged_hi, it->second);
    if (node)
      it = pages_.erase(it);
    else
      node = pages_.extract(it++);
  }
  if (cur < hi) newly += hi - cur;
  if (node) {
    node.key() = merged_lo;
    node.mapped() = merged_hi;
    pages_.insert(std::move(node));
  } else {
    pages_.emplace(merged_lo, merged_hi);
  }
  return newly;
}

bool RegistrationCache::is_registered(const void* addr, std::size_t len) const {
  if (len == 0) return true;
  auto [lo, hi] = page_range(addr, len);
  auto it = pages_.upper_bound(lo);
  if (it == pages_.begin()) return false;
  --it;
  return it->first <= lo && it->second >= hi;
}

void RegistrationCache::register_prepinned(const void* addr, std::size_t len) {
  ensure_registered(addr, len);
}

std::size_t RegistrationCache::pinned_pages() const noexcept {
  std::size_t total = 0;
  for (const auto& [lo, hi] : pages_) total += hi - lo;
  return total;
}

}  // namespace mpisim
