#include "src/armci/strided.hpp"

#include "src/armci/accops.hpp"
#include "src/mpisim/error.hpp"

namespace armci {

using mpisim::Datatype;
using mpisim::Errc;

void validate_spec(const StridedSpec& spec) {
  const int sl = spec.stride_levels;
  if (sl < 0) mpisim::raise(Errc::invalid_argument, "negative stride_levels");
  if (spec.count.size() != static_cast<std::size_t>(sl) + 1)
    mpisim::raise(Errc::invalid_argument, "count[] must have sl + 1 entries");
  if (spec.src_strides.size() != static_cast<std::size_t>(sl) ||
      spec.dst_strides.size() != static_cast<std::size_t>(sl))
    mpisim::raise(Errc::invalid_argument, "stride arrays must have sl entries");
  for (std::size_t c : spec.count)
    if (c == 0) mpisim::raise(Errc::invalid_argument, "zero count");
  // Strides must be monotone and at least cover the inner extent, or
  // segments within one operation would self-overlap.
  std::size_t min_src = spec.count[0], min_dst = spec.count[0];
  for (int i = 0; i < sl; ++i) {
    if (spec.src_strides[static_cast<std::size_t>(i)] < min_src ||
        spec.dst_strides[static_cast<std::size_t>(i)] < min_dst)
      mpisim::raise(Errc::invalid_argument,
                    "stride smaller than the inner dimension extent");
    min_src = spec.src_strides[static_cast<std::size_t>(i)] *
              spec.count[static_cast<std::size_t>(i) + 1];
    min_dst = spec.dst_strides[static_cast<std::size_t>(i)] *
              spec.count[static_cast<std::size_t>(i) + 1];
  }
}

std::size_t strided_total_bytes(const StridedSpec& spec) {
  std::size_t total = 1;
  for (std::size_t c : spec.count) total *= c;
  return total;
}

std::size_t strided_segments(const StridedSpec& spec) {
  std::size_t n = 1;
  for (std::size_t i = 1; i < spec.count.size(); ++i) n *= spec.count[i];
  return n;
}

std::size_t strided_span(std::span<const std::size_t> strides,
                         const StridedSpec& spec) {
  std::size_t span = spec.count[0];
  for (std::size_t i = 0; i < strides.size(); ++i)
    span += (spec.count[i + 1] - 1) * strides[i];
  return span;
}

StridedIter::StridedIter(const StridedSpec& spec,
                         std::vector<std::size_t>& idx)
    : spec_(&spec), idx_(idx) {
  idx_.assign(static_cast<std::size_t>(spec.stride_levels), 0);
}

bool StridedIter::next(std::size_t& src_off, std::size_t& dst_off) {
  if (done_) return false;
  const int sl = spec_->stride_levels;

  // Displacements from the base pointers (Algorithm 1 body).
  src_off = 0;
  dst_off = 0;
  for (int i = 0; i < sl; ++i) {
    src_off += spec_->src_strides[static_cast<std::size_t>(i)] *
               idx_[static_cast<std::size_t>(i)];
    dst_off += spec_->dst_strides[static_cast<std::size_t>(i)] *
               idx_[static_cast<std::size_t>(i)];
  }

  // Increment the innermost index and propagate the carry.
  if (sl == 0) {
    done_ = true;
    return true;
  }
  idx_[0] += 1;
  for (int i = 0; i < sl - 1; ++i) {
    if (idx_[static_cast<std::size_t>(i)] >=
        spec_->count[static_cast<std::size_t>(i) + 1]) {
      idx_[static_cast<std::size_t>(i)] = 0;
      idx_[static_cast<std::size_t>(i) + 1] += 1;
    }
  }
  if (idx_[static_cast<std::size_t>(sl - 1)] >=
      spec_->count[static_cast<std::size_t>(sl)])
    done_ = true;
  return true;
}

void StridedIter::reset() {
  std::fill(idx_.begin(), idx_.end(), 0);
  done_ = false;
}

Giov strided_to_iov(const void* src, void* dst, const StridedSpec& spec) {
  validate_spec(spec);
  Giov giov;
  giov.bytes = spec.count[0];
  const std::size_t n = strided_segments(spec);
  giov.src.reserve(n);
  giov.dst.reserve(n);
  std::vector<std::size_t> idx;
  StridedIter it(spec, idx);
  std::size_t so = 0, to = 0;
  while (it.next(so, to)) {
    giov.src.push_back(static_cast<const std::uint8_t*>(src) + so);
    giov.dst.push_back(static_cast<std::uint8_t*>(dst) + to);
  }
  return giov;
}

SubarrayParams strided_to_subarray(std::span<const std::size_t> strides,
                                   const StridedSpec& spec,
                                   std::size_t elem_size) {
  SubarrayParams p;
  const int sl = spec.stride_levels;
  const std::size_t nd = static_cast<std::size_t>(sl) + 1;
  if (spec.count[0] % elem_size != 0) return p;

  // Paper §VI-C: the parent array's innermost dimension is stride[0] (in
  // elements); inner dimensions follow from consecutive stride ratios; the
  // outermost dimension can be taken as the patch's own outer count.
  std::vector<std::size_t> sizes(nd), subsizes(nd);
  if (sl > 0) {
    if (strides[0] % elem_size != 0) return p;
    sizes[nd - 1] = strides[0] / elem_size;
    for (int i = 1; i < sl; ++i) {
      if (strides[static_cast<std::size_t>(i)] %
              strides[static_cast<std::size_t>(i) - 1] !=
          0)
        return p;
      sizes[nd - 1 - static_cast<std::size_t>(i)] =
          strides[static_cast<std::size_t>(i)] /
          strides[static_cast<std::size_t>(i) - 1];
    }
  }
  // count[nd - 1] is the outer segment count for sl > 0 but the byte length
  // of the single contiguous run for sl == 0, where sizes[0] must be in
  // elements to match subsizes[0].
  sizes[0] = sl == 0 ? spec.count[0] / elem_size : spec.count[nd - 1];
  subsizes[nd - 1] = spec.count[0] / elem_size;
  for (std::size_t i = 1; i < nd; ++i) subsizes[nd - 1 - i] = spec.count[i];
  for (std::size_t d = 0; d < nd; ++d)
    if (subsizes[d] > sizes[d]) return p;

  p.representable = true;
  p.sizes = std::move(sizes);
  p.subsizes = std::move(subsizes);
  p.starts.assign(nd, 0);
  return p;
}

Datatype make_strided_type(std::span<const std::size_t> strides,
                           const StridedSpec& spec, mpisim::BasicType elem) {
  const std::size_t esz = mpisim::basic_type_size(elem);
  if (spec.count[0] % esz != 0)
    mpisim::raise(Errc::invalid_argument,
                  "count[0] not a multiple of the element size");

  SubarrayParams p = strided_to_subarray(strides, spec, esz);
  if (p.representable)
    return Datatype::subarray(p.sizes, p.subsizes, p.starts,
                              Datatype::basic(elem));

  // Irregular strides: equivalent nested hvector construction.
  Datatype t = Datatype::contiguous(spec.count[0] / esz, Datatype::basic(elem));
  for (int i = 0; i < spec.stride_levels; ++i)
    t = Datatype::hvector(spec.count[static_cast<std::size_t>(i) + 1], 1,
                          static_cast<std::ptrdiff_t>(
                              strides[static_cast<std::size_t>(i)]),
                          t);
  return t;
}

}  // namespace armci
