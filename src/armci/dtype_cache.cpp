#include "src/armci/dtype_cache.hpp"

#include <algorithm>
#include <utility>

#include "src/armci/accops.hpp"
#include "src/armci/backend.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/scratch.hpp"

namespace armci {

namespace {

constexpr std::uint64_t kTagStrided = 1;
constexpr std::uint64_t kTagHindexed = 2;

/// Subtract the lowest displacement from every one; returns it.
std::ptrdiff_t rebase(std::span<std::ptrdiff_t> displs) {
  const std::ptrdiff_t lo = *std::min_element(displs.begin(), displs.end());
  for (std::ptrdiff_t& d : displs) d -= lo;
  return lo;
}

}  // namespace

mpisim::BasicType direct_elem(OneSided kind, AccType at) {
  return kind == OneSided::acc ? basic_type_of_acc(at)
                               : mpisim::BasicType::byte_;
}

std::size_t DatatypeCache::KeyHash::operator()(const Key& k) const noexcept {
  // FNV-1a over the shape words: cheap, and the keys are short.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t w : k.words) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

void DatatypeCache::set_capacity(std::size_t cap) {
  capacity_ = cap;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

template <typename Build>
mpisim::Datatype DatatypeCache::get_or_build(Stats& stats, Build&& build) {
  if (capacity_ == 0) return build();
  auto it = index_.find(probe_);
  if (it != index_.end()) {
    ++stats.dt_cache_hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  ++stats.dt_cache_misses;
  mpisim::Datatype dt = build();
  lru_.emplace_front(probe_, dt);
  index_.emplace(lru_.front().first, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return dt;
}

mpisim::Datatype DatatypeCache::strided_type(
    std::span<const std::size_t> strides, const StridedSpec& spec,
    mpisim::BasicType elem, Stats& stats) {
  std::vector<std::uint64_t>& w = probe_.words;
  w.clear();
  w.push_back(kTagStrided);
  w.push_back(static_cast<std::uint64_t>(elem));
  w.push_back(static_cast<std::uint64_t>(spec.stride_levels));
  w.insert(w.end(), spec.count.begin(), spec.count.end());
  w.insert(w.end(), strides.begin(), strides.end());
  return get_or_build(stats,
                      [&] { return make_strided_type(strides, spec, elem); });
}

mpisim::Datatype DatatypeCache::hindexed_type(
    std::span<const std::size_t> blocklens,
    std::span<const std::ptrdiff_t> displs_bytes, mpisim::BasicType elem,
    Stats& stats) {
  std::vector<std::uint64_t>& w = probe_.words;
  w.clear();
  w.push_back(kTagHindexed);
  w.push_back(static_cast<std::uint64_t>(elem));
  w.insert(w.end(), blocklens.begin(), blocklens.end());
  for (std::ptrdiff_t d : displs_bytes)
    w.push_back(static_cast<std::uint64_t>(d));
  return get_or_build(stats, [&] {
    return mpisim::Datatype::hindexed(blocklens, displs_bytes,
                                      mpisim::Datatype::basic(elem));
  });
}

StridedPlan DatatypeCache::strided_plan(OneSided kind, const void* src,
                                        void* dst, const StridedSpec& spec,
                                        mpisim::BasicType elem, Stats& stats) {
  const bool is_get = kind == OneSided::get;
  mpisim::Datatype rtype = strided_type(
      is_get ? spec.src_strides : spec.dst_strides, spec, elem, stats);
  mpisim::Datatype ltype = strided_type(
      is_get ? spec.dst_strides : spec.src_strides, spec, elem, stats);
  return {is_get ? src : dst, is_get ? dst : const_cast<void*>(src),
          std::move(rtype), std::move(ltype)};
}

IovPlan DatatypeCache::iov_plan(std::span<std::ptrdiff_t> rdispls,
                                std::span<const void* const> locals,
                                std::size_t seg_bytes, mpisim::BasicType elem,
                                Stats& stats) {
  const std::size_t n = rdispls.size();
  const std::size_t seg_elems = seg_bytes / mpisim::basic_type_size(elem);
  mpisim::Lease<std::vector<std::size_t>> blocklens(blocklens_);
  blocklens->assign(n, seg_elems);
  const auto disp = static_cast<std::size_t>(rebase(rdispls));
  mpisim::Datatype rtype = hindexed_type(*blocklens, rdispls, elem, stats);
  if (locals.empty())
    return {disp, std::move(rtype), nullptr, mpisim::Datatype::basic(elem),
            n * seg_elems};
  mpisim::Lease<std::vector<std::ptrdiff_t>> ldispls(ldispls_);
  ldispls->resize(n);
  for (std::size_t i = 0; i < n; ++i)
    (*ldispls)[i] = reinterpret_cast<std::intptr_t>(locals[i]);
  void* origin = reinterpret_cast<void*>(rebase(*ldispls));
  return {disp, std::move(rtype), origin,
          hindexed_type(*blocklens, *ldispls, elem, stats)};
}

}  // namespace armci
