#include "src/ga/ga.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/armci/armci.hpp"
#include "src/armci/state.hpp"
#include "src/ga/ga_impl.hpp"
#include "src/ga/layout.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/scratch.hpp"

namespace ga {

using mpisim::Errc;

std::size_t elem_size(ElemType t) noexcept {
  return t == ElemType::dbl ? sizeof(double) : sizeof(std::int64_t);
}

using detail::GaImpl;

GlobalArray::GlobalArray(std::shared_ptr<GaImpl> impl)
    : impl_(std::move(impl)) {}

namespace {

/// Shared tail of the create() variants: compute the per-rank block sizes,
/// allocate the local block (plus the buddy replica for replicated arrays)
/// and zero it. Collective over the world; in survivable mode dead ranks
/// are excused by the FT collectives underneath.
std::shared_ptr<GaImpl> finish_create(std::shared_ptr<GaImpl> impl) {
  const int nprocs = detail::dist_nprocs(*impl);
  const std::size_t esz = elem_size(impl->type);
  const auto n = static_cast<std::size_t>(nprocs);
  impl->blocks.resize(n);
  impl->block_strides.resize(n);
  impl->block_bytes.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    impl->blocks[r] = impl->dist.patch_of(static_cast<int>(r));
    impl->block_strides[r] = detail::row_major_strides(impl->blocks[r], esz);
    impl->block_bytes[r] =
        static_cast<std::size_t>(impl->blocks[r].num_elems()) * esz;
  }

  const int me = detail::dist_rank_of(*impl, mpisim::rank());
  if (me >= 0) {
    impl->my_patch = impl->blocks[static_cast<std::size_t>(me)];
  } else {
    const std::size_t nd = static_cast<std::size_t>(impl->dist.ndim());
    impl->my_patch.lo.assign(nd, 0);
    impl->my_patch.hi.assign(nd, -1);  // empty: not in the distribution map
  }

  std::size_t bytes =
      me >= 0 ? impl->block_bytes[static_cast<std::size_t>(me)] : 0;
  if (detail::replicated(*impl) && me >= 0) {
    // This rank is the buddy of its ring predecessor: append its replica.
    const int pred = (me + nprocs - 1) % nprocs;
    bytes += impl->block_bytes[static_cast<std::size_t>(pred)];
  }
  impl->bases = armci::malloc_world(bytes);
  if (bytes > 0)
    std::memset(impl->bases[static_cast<std::size_t>(mpisim::rank())], 0,
                bytes);
  armci::barrier();
  return impl;
}

}  // namespace

GlobalArray GlobalArray::create(const std::string& name,
                                std::span<const std::int64_t> dims,
                                ElemType type,
                                std::span<const std::int64_t> chunk,
                                NodeMapping mapping, Resilience resilience) {
  auto impl = std::make_shared<GaImpl>();
  impl->name = name;
  impl->type = type;
  impl->dims.assign(dims.begin(), dims.end());
  impl->dist = Distribution(dims, mpisim::nranks(), chunk,
                            mapping == NodeMapping::node_aware
                                ? mpisim::model().ranks_per_node()
                                : 0);
  impl->resilience = resilience;
  return GlobalArray(finish_create(std::move(impl)));
}

GlobalArray GlobalArray::create_irregular(
    const std::string& name, std::span<const std::int64_t> dims,
    ElemType type, std::span<const std::vector<std::int64_t>> block_starts) {
  auto impl = std::make_shared<GaImpl>();
  impl->name = name;
  impl->type = type;
  impl->dims.assign(dims.begin(), dims.end());
  impl->dist = Distribution(dims, block_starts);
  if (impl->dist.owning_procs() > mpisim::nranks())
    mpisim::raise(Errc::invalid_argument,
                  "irregular distribution needs more processes than exist");
  return GlobalArray(finish_create(std::move(impl)));
}

GlobalArray GlobalArray::duplicate(const std::string& name,
                                   const GlobalArray& g) {
  auto impl = std::make_shared<GaImpl>();
  impl->name = name;
  impl->type = g.impl_->type;
  impl->dims = g.impl_->dims;
  impl->dist = g.impl_->dist;  // identical distribution, irregular or not
  impl->resilience = g.impl_->resilience;
  impl->procs = g.impl_->procs;
  return GlobalArray(finish_create(std::move(impl)));
}

void GlobalArray::destroy() {
  if (!impl_) return;
  armci::barrier();
  armci::free(impl_->bases[static_cast<std::size_t>(mpisim::rank())]);
  impl_.reset();
}

const std::string& GlobalArray::name() const { return impl_->name; }
int GlobalArray::ndim() const { return impl_->dist.ndim(); }
const std::vector<std::int64_t>& GlobalArray::dims() const {
  return impl_->dims;
}
ElemType GlobalArray::type() const { return impl_->type; }

Patch GlobalArray::distribution(int proc) const {
  const int r = detail::dist_rank_of(*impl_, proc);
  if (r >= 0) return impl_->blocks[static_cast<std::size_t>(r)];
  const std::size_t nd = static_cast<std::size_t>(impl_->dist.ndim());
  Patch empty;
  empty.lo.assign(nd, 0);
  empty.hi.assign(nd, -1);
  return empty;
}

int GlobalArray::locate(std::span<const std::int64_t> subscript) const {
  return detail::abs_proc(*impl_, impl_->dist.owner_of(subscript));
}

std::vector<OwnedPatch> GlobalArray::locate_region(const Patch& region) const {
  std::vector<OwnedPatch> out = impl_->dist.intersect(region);
  for (OwnedPatch& op : out) op.proc = detail::abs_proc(*impl_, op.proc);
  return out;
}

namespace detail {

const GaImpl& impl_of(const GlobalArray& g) { return *g.impl_; }

Route route(const GaImpl& ga, int owner, std::size_t offset) {
  Route r;
  r.owner_proc = abs_proc(ga, owner);
  r.primary = static_cast<std::uint8_t*>(
                  ga.bases[static_cast<std::size_t>(r.owner_proc)]) +
              offset;
  if (!replicated(ga)) return r;
  const int buddy = (owner + 1) % dist_nprocs(ga);
  r.buddy_proc = abs_proc(ga, buddy);
  if (auto* b = static_cast<std::uint8_t*>(
          ga.bases[static_cast<std::size_t>(r.buddy_proc)]))
    r.replica = b + ga.block_bytes[static_cast<std::size_t>(buddy)] + offset;
  r.owner_dead = armci::is_failed(r.owner_proc);
  r.buddy_dead = r.replica == nullptr || armci::is_failed(r.buddy_proc);
  return r;
}

void note_death_observed(int proc) {
  mpisim::SimCore& core = mpisim::ctx().core();
  core.sync();
  core.note_death_observed(proc);
}

armci::Request OwnerOps::finish() {
  if (owners >= 2) {
    armci::Stats& s = armci::state().stats;
    ++s.ga_multi_owner_ops;
    s.ga_owner_fanout += static_cast<std::uint64_t>(owners);
    s.ga_nb_batches += batches;
  }
  return std::move(req);
}

}  // namespace detail

namespace {

enum class XferKind { put, get, acc };

/// Decompose a region access into one ARMCI strided op per owner
/// (paper Fig. 2 / §VI-C). The ops go through the nonblocking aggregation
/// engine — one deferred batch per owner — and the returned covering
/// handle completes them all at one point, so the engine can overlap the
/// per-owner epochs instead of round-tripping serially (DART-style target
/// pipelining). region_xfer() waits on the handle to keep put/get/acc
/// blocking; nb_get() hands it to the caller.
armci::Request region_xfer_issue(GaImpl& ga, XferKind kind,
                                 const Patch& region, void* buf,
                                 std::span<const std::int64_t> ld,
                                 const void* alpha) {
  const std::size_t nd = static_cast<std::size_t>(ga.dist.ndim());
  const std::size_t esz = elem_size(ga.type);
  if (region.lo.size() != nd || region.hi.size() != nd)
    mpisim::raise(Errc::invalid_argument, "region rank mismatch");
  if (!ld.empty() && ld.size() != nd - 1)
    mpisim::raise(Errc::invalid_argument, "ld must have ndim-1 entries");

  // Byte strides of the caller's buffer: each dimension's extent, or its
  // leading dimension when given.
  for (std::size_t k = 0; k + 1 < nd; ++k) {
    if (!ld.empty() && ld[k] < region.extent(k + 1))
      mpisim::raise(Errc::invalid_argument,
                    "ld smaller than the patch extent");
  }
  mpisim::Lease<detail::GaImpl::XferScratch> scratch(ga.xfer);
  std::vector<std::size_t>& buf_strides = scratch->buf_strides;
  buf_strides.resize(nd);
  std::size_t stride = esz;
  for (std::size_t d = nd; d-- > 0;) {
    buf_strides[d] = stride;
    stride *= static_cast<std::size_t>(
        d > 0 && !ld.empty() ? ld[d - 1] : region.extent(d));
  }

  const armci::AccType at = detail::acc_type(ga);
  detail::OwnerOps ops;
  armci::StridedSpec& spec = scratch->spec;
  for (const OwnedPatch& op : ga.dist.intersect(region, scratch->owned)) {
    const auto owner = static_cast<std::size_t>(op.proc);
    const Patch& block = ga.blocks[owner];
    const std::vector<std::size_t>& rem_strides = ga.block_strides[owner];

    // Offset of the sub-patch start within the owner's block.
    std::size_t rem_off = 0;
    std::size_t loc_off = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      rem_off += static_cast<std::size_t>(op.patch.lo[d] - block.lo[d]) *
                 rem_strides[d];
      loc_off += static_cast<std::size_t>(op.patch.lo[d] - region.lo[d]) *
                 buf_strides[d];
    }
    auto* local = static_cast<std::uint8_t*>(buf) + loc_off;

    // ARMCI strided notation: count[0] in bytes over the innermost
    // dimension; stride level i covers dimension nd-2-i.
    spec.stride_levels = static_cast<int>(nd) - 1;
    spec.count.resize(nd);
    spec.count[0] = static_cast<std::size_t>(op.patch.extent(nd - 1)) * esz;
    for (std::size_t i = 1; i < nd; ++i)
      spec.count[i] = static_cast<std::size_t>(op.patch.extent(nd - 1 - i));
    spec.src_strides.resize(nd - 1);
    spec.dst_strides.resize(nd - 1);
    for (std::size_t i = 0; i + 1 < nd; ++i) {
      const std::size_t d = nd - 2 - i;
      const std::size_t local_stride = buf_strides[d];
      const std::size_t remote_stride = rem_strides[d];
      if (kind == XferKind::get) {
        spec.src_strides[i] = remote_stride;
        spec.dst_strides[i] = local_stride;
      } else {
        spec.src_strides[i] = local_stride;
        spec.dst_strides[i] = remote_stride;
      }
    }

    const detail::Route rt = detail::route(ga, op.proc, rem_off);
    ++ops.owners;
    if (kind == XferKind::get) {
      // Transparent failover: serve the read from the buddy replica when
      // the owner died (else surface the error the way a non-replicated
      // access would) and record the detection latency.
      const bool fo = rt.fails_over();
      const armci::Request r =
          fo ? armci::nb_get_strided(rt.replica, local, spec, rt.buddy_proc)
             : armci::nb_get_strided(rt.primary, local, spec, rt.owner_proc);
      if (fo) {
        ++armci::state().stats.failovers;
        detail::note_death_observed(rt.owner_proc);
      }
      ops.add(r);
      continue;
    }

    // put/acc: primary write unless the owner is gone, plus the
    // write-through replica copy that keeps failover reads exact.
    const auto write = [&](std::uint8_t* dst, int proc) {
      return kind == XferKind::put
                 ? armci::nb_put_strided(local, dst, spec, proc)
                 : armci::nb_acc_strided(at, alpha, local, dst, spec, proc);
    };
    if (!rt.owner_dead) ops.add(write(rt.primary, rt.owner_proc));
    if (rt.writes_replica()) {
      ops.add(write(rt.replica, rt.buddy_proc));
      ++armci::state().stats.replica_writes;
    }
  }
  return ops.finish();
}

/// Blocking region access: issue through the engine, complete at one
/// covering wait (the engine overlaps the per-owner epochs there).
void region_xfer(GaImpl& ga, XferKind kind, const Patch& region, void* buf,
                 std::span<const std::int64_t> ld, const void* alpha) {
  armci::Request req = region_xfer_issue(ga, kind, region, buf, ld, alpha);
  armci::wait(req);
}

}  // namespace

void GlobalArray::put(const Patch& region, const void* buf,
                      std::span<const std::int64_t> ld) {
  region_xfer(*impl_, XferKind::put, region, const_cast<void*>(buf), ld,
              nullptr);
}

void GlobalArray::get(const Patch& region, void* buf,
                      std::span<const std::int64_t> ld) const {
  region_xfer(*impl_, XferKind::get, region, buf, ld, nullptr);
}

armci::Request GlobalArray::nb_get(const Patch& region, void* buf,
                                   std::span<const std::int64_t> ld) const {
  return region_xfer_issue(*impl_, XferKind::get, region, buf, ld, nullptr);
}

void GlobalArray::acc(const Patch& region, const void* buf, const void* alpha,
                      std::span<const std::int64_t> ld) {
  if (alpha == nullptr)
    mpisim::raise(Errc::invalid_argument, "acc with null alpha");
  region_xfer(*impl_, XferKind::acc, region, const_cast<void*>(buf), ld,
              alpha);
}

void* GlobalArray::access(Patch& patch) {
  GaImpl& ga = *impl_;
  patch = ga.my_patch;
  void* base = ga.bases[static_cast<std::size_t>(mpisim::rank())];
  if (base == nullptr) return nullptr;
  if (ga.access_depth == 0) armci::access_begin(base);
  ++ga.access_depth;
  return base;
}

void GlobalArray::release() {
  GaImpl& ga = *impl_;
  void* base = ga.bases[static_cast<std::size_t>(mpisim::rank())];
  if (base == nullptr) return;
  if (ga.access_depth <= 0)
    mpisim::raise(Errc::invalid_argument, "release without access");
  if (--ga.access_depth == 0) armci::access_end(base);
}

void GlobalArray::release_update() { release(); }

std::int64_t GlobalArray::read_inc(std::span<const std::int64_t> subscript,
                                   std::int64_t inc) {
  GaImpl& ga = *impl_;
  if (ga.type != ElemType::int64)
    mpisim::raise(Errc::invalid_argument, "read_inc requires an int64 array");
  const int proc = ga.dist.owner_of(subscript);
  const int proc_abs = detail::abs_proc(ga, proc);
  const auto r = static_cast<std::size_t>(proc);
  const std::size_t off = detail::element_offset(
      ga.blocks[r], ga.block_strides[r], subscript);
  auto* remote = static_cast<std::uint8_t*>(
                     ga.bases[static_cast<std::size_t>(proc_abs)]) +
                 off;
  std::int64_t old = 0;
  armci::rmw(armci::RmwOp::fetch_and_add_long, &old, remote, inc, proc_abs);
  return old;
}

void GlobalArray::sync() const { armci::barrier(); }

void GlobalArray::rebuild() {
  GaImpl& old = *impl_;
  if (old.access_depth != 0)
    mpisim::raise(Errc::invalid_argument,
                  "rebuild with a direct-access epoch open");
  // Settle in-flight traffic and agree on the survivor set. The FT world
  // barrier excuses dead ranks, so every survivor leaves it having
  // observed at least the deaths that preceded its entry.
  armci::barrier();
  const std::vector<int> dead = armci::failed_ranks();
  std::vector<int> live;
  for (int r = 0; r < mpisim::nranks(); ++r)
    if (std::find(dead.begin(), dead.end(), r) == dead.end())
      live.push_back(r);

  // New distribution over the survivors, same policy as create().
  auto fresh = std::make_shared<GaImpl>();
  fresh->name = old.name;
  fresh->type = old.type;
  fresh->dims = old.dims;
  fresh->dist = Distribution(old.dims, static_cast<int>(live.size()));
  fresh->resilience = old.resilience;
  if (static_cast<int>(live.size()) != mpisim::nranks()) fresh->procs = live;
  fresh = finish_create(std::move(fresh));

  // Owner-computes copy: every survivor reads its new block from the old
  // array -- failing over to buddy replicas where the owner died -- and
  // writes it through the new array's put path, which also populates the
  // new replicas.
  GlobalArray fresh_handle(fresh);
  if (fresh->my_patch.num_elems() > 0) {
    std::vector<std::uint8_t> tmp(
        static_cast<std::size_t>(fresh->my_patch.num_elems()) *
        elem_size(fresh->type));
    region_xfer(old, XferKind::get, fresh->my_patch, tmp.data(), {}, nullptr);
    fresh_handle.put(fresh->my_patch, tmp.data());
  }
  armci::barrier();

  // Release the old storage and swing every handle copy to the new state.
  armci::free(old.bases[static_cast<std::size_t>(mpisim::rank())]);
  *impl_ = std::move(*fresh);
  armci::barrier();
}

// ---------------------------------------------------------------------------
// AtomicCounter
// ---------------------------------------------------------------------------

AtomicCounter AtomicCounter::create() {
  AtomicCounter c;
  c.bases_ =
      armci::malloc_world(mpisim::rank() == 0 ? sizeof(std::int64_t) : 0);
  if (mpisim::rank() == 0) *static_cast<std::int64_t*>(c.bases_[0]) = 0;
  armci::barrier();
  return c;
}

void AtomicCounter::destroy() {
  armci::barrier();
  armci::free(bases_[static_cast<std::size_t>(mpisim::rank())]);
  bases_.clear();
}

std::int64_t AtomicCounter::next(std::int64_t inc) {
  std::int64_t old = 0;
  armci::rmw(armci::RmwOp::fetch_and_add_long, &old, bases_[0], inc, 0);
  return old;
}

void AtomicCounter::reset(std::int64_t value) {
  armci::barrier();
  if (mpisim::rank() == 0) {
    armci::access_begin(bases_[0]);
    *static_cast<std::int64_t*>(bases_[0]) = value;
    armci::access_end(bases_[0]);
  }
  armci::barrier();
}

}  // namespace ga
