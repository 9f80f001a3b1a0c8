#include "src/mpisim/datatype.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <numeric>

#include "src/mpisim/error.hpp"

namespace mpisim {

using detail::TypeImpl;

Datatype::Datatype(std::shared_ptr<const TypeImpl> impl) : impl_(std::move(impl)) {}

namespace {

std::shared_ptr<const TypeImpl> make_basic(BasicType t) {
  auto impl = std::make_shared<TypeImpl>();
  impl->kind = TypeImpl::Kind::basic;
  impl->elem = t;
  impl->size = basic_type_size(t);
  impl->extent = static_cast<std::ptrdiff_t>(impl->size);
  impl->ub = impl->extent;
  impl->nsegments = 1;
  impl->contig = true;
  return impl;
}

}  // namespace

Datatype Datatype::basic(BasicType t) {
  // Built once, never modified: the nodes are immutable, so sharing them
  // across ranks and runs is safe.
  static const std::shared_ptr<const TypeImpl> nodes[] = {
      make_basic(BasicType::byte_),  make_basic(BasicType::int32),
      make_basic(BasicType::int64),  make_basic(BasicType::uint64),
      make_basic(BasicType::float32), make_basic(BasicType::float64),
  };
  static_assert(static_cast<std::size_t>(BasicType::float64) + 1 ==
                std::size(nodes));
  const auto i = static_cast<std::size_t>(t);
  require_internal(i < std::size(nodes), "unknown basic type");
  return Datatype(nodes[i]);
}

Datatype Datatype::contiguous(std::size_t count, const Datatype& old) {
  // A contiguous type is an hvector with stride == child extent.
  return hvector(count, 1, old.extent(), old);
}

Datatype Datatype::vector(std::size_t count, std::size_t blocklen,
                          std::ptrdiff_t stride_elems, const Datatype& old) {
  return hvector(count, blocklen, stride_elems * old.extent(), old);
}

Datatype Datatype::hvector(std::size_t count, std::size_t blocklen,
                           std::ptrdiff_t stride_bytes, const Datatype& old) {
  if (count == 0 || blocklen == 0)
    raise(Errc::invalid_argument, "hvector with zero count or blocklen");
  const TypeImpl& c = *old.impl_;
  auto impl = std::make_shared<TypeImpl>();
  impl->kind = TypeImpl::Kind::hvector;
  impl->elem = c.elem;
  impl->child = old.impl_;
  impl->count = count;
  impl->blocklen = blocklen;
  impl->stride_bytes = stride_bytes;
  impl->size = count * blocklen * c.size;

  const std::ptrdiff_t block_extent =
      static_cast<std::ptrdiff_t>(blocklen) * c.extent;
  impl->extent = static_cast<std::ptrdiff_t>(count - 1) * stride_bytes + block_extent;
  if (impl->extent < block_extent)  // negative stride: span measured from 0
    impl->extent = block_extent - static_cast<std::ptrdiff_t>(count - 1) * stride_bytes;
  const std::ptrdiff_t last = static_cast<std::ptrdiff_t>(count - 1) * stride_bytes;
  impl->lb = std::min<std::ptrdiff_t>(0, last) + c.lb;
  impl->ub = std::max<std::ptrdiff_t>(0, last) + block_extent - c.extent + c.ub;

  const bool block_contig = c.contig;
  impl->contig = block_contig && (count == 1 || stride_bytes == block_extent);
  if (impl->contig) {
    impl->nsegments = 1;
  } else if (block_contig) {
    // Blocks separated by holes: one segment per block unless stride packs
    // them back-to-back (handled above).
    impl->nsegments = count;
  } else {
    impl->nsegments = count * blocklen * c.nsegments;
  }
  return Datatype(std::move(impl));
}

Datatype Datatype::indexed(std::span<const std::size_t> blocklens,
                           std::span<const std::ptrdiff_t> displs_elems,
                           const Datatype& old) {
  std::vector<std::ptrdiff_t> displs_bytes(displs_elems.size());
  for (std::size_t i = 0; i < displs_elems.size(); ++i)
    displs_bytes[i] = displs_elems[i] * old.extent();
  return hindexed(blocklens, displs_bytes, old);
}

Datatype Datatype::hindexed(std::span<const std::size_t> blocklens,
                            std::span<const std::ptrdiff_t> displs_bytes,
                            const Datatype& old) {
  if (blocklens.size() != displs_bytes.size())
    raise(Errc::invalid_argument, "hindexed blocklens/displs length mismatch");
  if (blocklens.empty())
    raise(Errc::invalid_argument, "hindexed with zero blocks");
  const TypeImpl& c = *old.impl_;
  auto impl = std::make_shared<TypeImpl>();
  impl->kind = TypeImpl::Kind::hindexed;
  impl->elem = c.elem;
  impl->child = old.impl_;
  impl->blocklens.assign(blocklens.begin(), blocklens.end());
  impl->displs.assign(displs_bytes.begin(), displs_bytes.end());

  std::size_t payload = 0;
  std::ptrdiff_t hi = 0;
  std::size_t nseg = 0;
  bool any = false;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    payload += blocklens[i] * c.size;
    const std::ptrdiff_t end =
        displs_bytes[i] + static_cast<std::ptrdiff_t>(blocklens[i]) * c.extent;
    hi = std::max(hi, end);
    nseg += c.contig ? 1 : blocklens[i] * c.nsegments;
    if (blocklens[i] == 0) continue;
    const std::ptrdiff_t lb = displs_bytes[i] + c.lb;
    const std::ptrdiff_t ub = end - c.extent + c.ub;
    impl->lb = any ? std::min(impl->lb, lb) : lb;
    impl->ub = any ? std::max(impl->ub, ub) : ub;
    any = true;
  }
  impl->size = payload;
  impl->extent = hi;
  impl->nsegments = nseg;
  impl->contig = (nseg == 1 && blocklens.size() == 1 && displs_bytes[0] == 0 &&
                  static_cast<std::size_t>(impl->extent) == impl->size);
  return Datatype(std::move(impl));
}

Datatype Datatype::subarray(std::span<const std::size_t> sizes,
                            std::span<const std::size_t> subsizes,
                            std::span<const std::size_t> starts,
                            const Datatype& old) {
  const std::size_t nd = sizes.size();
  if (nd == 0 || subsizes.size() != nd || starts.size() != nd)
    raise(Errc::invalid_argument, "subarray dimension mismatch");
  for (std::size_t d = 0; d < nd; ++d) {
    if (subsizes[d] == 0 || starts[d] + subsizes[d] > sizes[d])
      raise(Errc::invalid_argument, "subarray patch out of bounds");
  }

  // Build innermost (fastest-varying, C order) dimension first, then wrap
  // with hvectors. The start offsets accumulate into one leading hole,
  // expressed as a single-block hindexed at the end.
  Datatype t = Datatype::contiguous(subsizes[nd - 1], old);
  for (std::size_t d = nd - 1; d-- > 0;) {
    // Stride between consecutive index values of dimension d, in bytes:
    // product of sizes of all faster dimensions times the element extent.
    std::ptrdiff_t stride = old.extent();
    for (std::size_t k = d + 1; k < nd; ++k)
      stride *= static_cast<std::ptrdiff_t>(sizes[k]);
    t = Datatype::hvector(subsizes[d], 1, stride, t);
  }
  // Leading displacement of the patch origin.
  std::ptrdiff_t disp = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    std::ptrdiff_t stride = old.extent();
    for (std::size_t k = d + 1; k < nd; ++k)
      stride *= static_cast<std::ptrdiff_t>(sizes[k]);
    disp += static_cast<std::ptrdiff_t>(starts[d]) * stride;
  }
  if (disp == 0) return t;
  const std::size_t one = 1;
  return Datatype::hindexed(std::span<const std::size_t>(&one, 1),
                            std::span<const std::ptrdiff_t>(&disp, 1), t);
}

std::size_t Datatype::size() const noexcept { return impl_->size; }
std::ptrdiff_t Datatype::extent() const noexcept { return impl_->extent; }
std::ptrdiff_t Datatype::true_lb() const noexcept { return impl_->lb; }
std::ptrdiff_t Datatype::true_ub() const noexcept { return impl_->ub; }
BasicType Datatype::element_type() const noexcept { return impl_->elem; }
bool Datatype::contiguous_layout() const noexcept { return impl_->contig; }
std::size_t Datatype::segment_count() const noexcept { return impl_->nsegments; }

void Datatype::flatten_into(std::size_t count,
                            std::vector<Segment>& out) const {
  // Coalesce adjacent segments: consecutive instances of a contiguous type
  // (and steps of a packed stride) collapse into one long segment, so both
  // data movement and segment-based cost accounting see the true layout.
  out.clear();
  for_each_segment(count, [&](Segment s) {
    if (!out.empty() &&
        out.back().offset + static_cast<std::ptrdiff_t>(out.back().length) ==
            s.offset) {
      out.back().length += s.length;
    } else {
      out.push_back(s);
    }
  });
}

void Datatype::pack(const void* base, std::size_t count, void* out) const {
  const auto* src = static_cast<const std::uint8_t*>(base);
  auto* dst = static_cast<std::uint8_t*>(out);
  std::size_t pos = 0;
  for_each_segment(count, [&](Segment s) {
    std::memcpy(dst + pos, src + s.offset, s.length);
    pos += s.length;
  });
}

void Datatype::unpack(const void* in, void* base, std::size_t count) const {
  const auto* src = static_cast<const std::uint8_t*>(in);
  auto* dst = static_cast<std::uint8_t*>(base);
  std::size_t pos = 0;
  for_each_segment(count, [&](Segment s) {
    std::memcpy(dst + s.offset, src + pos, s.length);
    pos += s.length;
  });
}

Datatype byte_type() { return Datatype::basic(BasicType::byte_); }
Datatype int32_type() { return Datatype::basic(BasicType::int32); }
Datatype int64_type() { return Datatype::basic(BasicType::int64); }
Datatype double_type() { return Datatype::basic(BasicType::float64); }

}  // namespace mpisim
