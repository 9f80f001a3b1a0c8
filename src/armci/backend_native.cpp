#include "src/armci/backend_native.hpp"

#include <cstring>

#include "src/armci/accops.hpp"
#include "src/armci/state.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/scratch.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

using mpisim::Errc;
using mpisim::TraceCat;
using mpisim::TraceScope;

namespace {

/// Charge a native transfer to the initiator's clock. Hardware-offloaded
/// RDMA pipelines aggressively across initiators, so (unlike the MPI
/// path's exclusive epochs, which serialize at the target by construction)
/// no target-side occupancy is modeled.
void charge_native_op(mpisim::RmaKind kind, std::size_t bytes,
                      std::size_t nseg, bool pinned, int proc) {
  (void)proc;
  mpisim::clock().advance(mpisim::model().rma_op_ns(
      kind, bytes, nseg, mpisim::Path::native, 0, pinned, mpisim::nranks()));
}

/// Happens-before channel key for a native mutex: the host rank and index
/// name the token; the tag bit keeps the key space disjoint from the
/// flag-address keys used by notify/wait.
std::uint64_t native_mutex_hb_key(int proc, int m) {
  return (1ull << 62) | (static_cast<std::uint64_t>(proc) << 32) |
         static_cast<std::uint32_t>(m);
}

}  // namespace

void NativeBackend::gmr_created(Gmr& gmr) {
  // Native ARMCI allocates from a pre-pinned, pre-registered pool.
  const int me = gmr.group.rank();
  mpisim::ctx().native_reg().register_prepinned(
      gmr.bases[static_cast<std::size_t>(me)],
      gmr.sizes[static_cast<std::size_t>(me)]);
  gmr.group.barrier();
}

void NativeBackend::gmr_freeing(Gmr& gmr) { gmr.group.barrier(); }

bool NativeBackend::local_pinned(const void* p, std::size_t bytes) const {
  return mpisim::ctx().native_reg().is_registered(p, bytes);
}

void NativeBackend::move_segment(OneSided kind, const Gmr& gmr,
                                 int target_rank, std::size_t offset,
                                 void* remote, void* local, std::size_t bytes,
                                 AccType at, const void* scale) const {
  // Direct access; one critical section stands in for the target NIC/CHT
  // applying the operation atomically with respect to other ops.
  mpisim::SimCore& core = mpisim::ctx().core();
  core.sync();
  core.check_failed();
  if (core.hb().enabled()) {
    // No window backs native memory: key the shadow space off the GMR id.
    const auto hk = kind == OneSided::put   ? mpisim::RmaChecker::OpKind::put
                    : kind == OneSided::get ? mpisim::RmaChecker::OpKind::get
                                            : mpisim::RmaChecker::OpKind::acc;
    const auto lo = static_cast<std::ptrdiff_t>(offset);
    core.hb().direct_op(
        mpisim::HbChecker::kNativeSpace | gmr.id,
        gmr.group.absolute_id(target_rank), gmr.group.rank(),
        mpisim::ctx().rank(), hk,
        kind == OneSided::acc ? mpisim::Op::sum : mpisim::Op::replace, lo,
        lo + static_cast<std::ptrdiff_t>(bytes),
        mpisim::tracer().enabled() ? mpisim::tracer().current_scope()
                                   : nullptr);
  }
  switch (kind) {
    case OneSided::put:
      std::memcpy(remote, local, bytes);
      break;
    case OneSided::get:
      std::memcpy(local, remote, bytes);
      break;
    case OneSided::acc:
      scaled_accumulate(at, scale, remote, local, bytes);
      break;
  }
}

void NativeBackend::contig(OneSided kind, const GmrLoc& loc, void* local,
                           std::size_t bytes, AccType at, const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "native.contig", bytes);
  auto* remote = static_cast<std::uint8_t*>(
                     loc.gmr->bases[static_cast<std::size_t>(loc.target_rank)]) +
                 loc.offset;
  move_segment(kind, *loc.gmr, loc.target_rank, loc.offset, remote, local,
               bytes, at, scale);

  const mpisim::RmaKind rk = kind == OneSided::put  ? mpisim::RmaKind::put
                             : kind == OneSided::get ? mpisim::RmaKind::get
                                                     : mpisim::RmaKind::acc;
  const int proc = loc.gmr->group.absolute_id(loc.target_rank);
  charge_native_op(rk, bytes, 1, local_pinned(local, bytes), proc);
  if (kind != OneSided::get) pending_remote_.insert(proc);
}

void NativeBackend::iov(OneSided kind, std::span<const Giov> vec, int proc,
                        AccType at, const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "native.iov",
                vec.size());
  const bool is_get = kind == OneSided::get;
  for (const Giov& g : vec) {
    if (g.src.size() != g.dst.size())
      mpisim::raise(Errc::invalid_argument, "IOV src/dst length mismatch");
    bool pinned = true;
    for (std::size_t i = 0; i < g.src.size(); ++i) {
      const void* remote_c = is_get ? g.src[i] : g.dst[i];
      void* local = is_get ? g.dst[i] : const_cast<void*>(g.src[i]);
      GmrLoc loc = st_->table.require(proc, remote_c, g.bytes);
      auto* remote =
          static_cast<std::uint8_t*>(
              loc.gmr->bases[static_cast<std::size_t>(loc.target_rank)]) +
          loc.offset;
      move_segment(kind, *loc.gmr, loc.target_rank, loc.offset, remote, local,
                   g.bytes, at, scale);
      pinned = pinned && local_pinned(local, g.bytes);
    }
    const mpisim::RmaKind rk = kind == OneSided::put  ? mpisim::RmaKind::put
                               : kind == OneSided::get ? mpisim::RmaKind::get
                                                       : mpisim::RmaKind::acc;
    charge_native_op(rk, g.bytes * g.src.size(), g.src.size(), pinned, proc);
  }
  if (kind != OneSided::get) pending_remote_.insert(proc);
}

void NativeBackend::strided(OneSided kind, const void* src, void* dst,
                            const StridedSpec& spec, int proc, AccType at,
                            const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "native.strided",
                static_cast<std::uint64_t>(spec.stride_levels));
  validate_spec(spec);
  const bool is_get = kind == OneSided::get;
  const void* remote_base_c = is_get ? src : dst;
  void* local_base = is_get ? dst : const_cast<void*>(src);

  // The whole remote footprint must be inside one slice.
  std::size_t rext = spec.count[0];
  const auto& rstrides = is_get ? spec.src_strides : spec.dst_strides;
  for (int i = 0; i < spec.stride_levels; ++i)
    rext = rstrides[static_cast<std::size_t>(i)] *
               (spec.count[static_cast<std::size_t>(i) + 1] - 1) +
           (i == 0 ? spec.count[0] : rext);
  GmrLoc loc = st_->table.require(proc, remote_base_c, rext);
  auto* remote_base =
      static_cast<std::uint8_t*>(
          loc.gmr->bases[static_cast<std::size_t>(loc.target_rank)]) +
      loc.offset;

  mpisim::Lease<std::vector<std::size_t>> idx(strided_idx_);
  StridedIter it(spec, *idx);
  std::size_t so = 0, to = 0;
  std::size_t nseg = 0;
  bool pinned = true;
  while (it.next(so, to)) {
    const std::size_t roff = is_get ? so : to;
    const std::size_t loff = is_get ? to : so;
    move_segment(kind, *loc.gmr, loc.target_rank, loc.offset + roff,
                 remote_base + roff,
                 static_cast<std::uint8_t*>(local_base) + loff, spec.count[0],
                 at, scale);
    pinned = pinned &&
             local_pinned(static_cast<std::uint8_t*>(local_base) + loff,
                          spec.count[0]);
    ++nseg;
  }
  const mpisim::RmaKind rk = kind == OneSided::put  ? mpisim::RmaKind::put
                             : kind == OneSided::get ? mpisim::RmaKind::get
                                                     : mpisim::RmaKind::acc;
  charge_native_op(rk, strided_total_bytes(spec), nseg, pinned, proc);
  if (kind != OneSided::get) pending_remote_.insert(proc);
}

void NativeBackend::fence(int proc) {
  if (pending_remote_.erase(proc) != 0)
    mpisim::clock().advance(2.0 * mpisim::model().p2p_ns(0));
}

void NativeBackend::fence_all() {
  if (!pending_remote_.empty()) {
    mpisim::clock().advance(2.0 * mpisim::model().p2p_ns(0));
    pending_remote_.clear();
  }
}

void NativeBackend::rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra,
                        int proc) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "native.rmw");
  const std::size_t bytes = (op == RmwOp::fetch_and_add_long ||
                             op == RmwOp::swap_long)
                                ? 8
                                : 4;
  const GmrLoc loc = st_->table.require(proc, prem, bytes);
  // Host-side atomic (CHT service): one critical section, one round trip.
  mpisim::SimCore& core = mpisim::ctx().core();
  core.sync();
  core.check_failed();
  if (core.hb().enabled()) {
    // Accumulate-class atomic: fetch_and_add mixes with itself (sum),
    // swap behaves like an atomic replace -- mixing the two is a race.
    const bool is_swap = op == RmwOp::swap || op == RmwOp::swap_long;
    const auto lo = static_cast<std::ptrdiff_t>(loc.offset);
    core.hb().direct_op(
        mpisim::HbChecker::kNativeSpace | loc.gmr->id,
        loc.gmr->group.absolute_id(loc.target_rank), loc.gmr->group.rank(),
        mpisim::ctx().rank(), mpisim::RmaChecker::OpKind::acc,
        is_swap ? mpisim::Op::replace : mpisim::Op::sum, lo,
        lo + static_cast<std::ptrdiff_t>(bytes), "native.rmw");
  }
  switch (op) {
    case RmwOp::fetch_and_add: {
      auto* r = static_cast<std::int32_t*>(prem);
      const std::int32_t old = *r;
      *r = old + static_cast<std::int32_t>(extra);
      *static_cast<std::int32_t*>(ploc) = old;
      break;
    }
    case RmwOp::fetch_and_add_long: {
      auto* r = static_cast<std::int64_t*>(prem);
      const std::int64_t old = *r;
      *r = old + extra;
      *static_cast<std::int64_t*>(ploc) = old;
      break;
    }
    case RmwOp::swap: {
      auto* r = static_cast<std::int32_t*>(prem);
      auto* l = static_cast<std::int32_t*>(ploc);
      std::swap(*r, *l);
      break;
    }
    case RmwOp::swap_long: {
      auto* r = static_cast<std::int64_t*>(prem);
      auto* l = static_cast<std::int64_t*>(ploc);
      std::swap(*r, *l);
      break;
    }
  }
  mpisim::clock().advance(2.0 * mpisim::model().p2p_ns(0));
}

void NativeBackend::mutexes_create(int count) {
  st_->native_mutexes.assign(static_cast<std::size_t>(count), {});
  st_->world.barrier();
}

void NativeBackend::mutexes_destroy() {
  st_->world.barrier();
  st_->native_mutexes.clear();
}

void NativeBackend::mutex_lock(int m, int proc) {
  mpisim::RankContext& me = mpisim::ctx();
  mpisim::SimCore& core = me.core();
  core.sync();
  // The host's helper thread services mutex requests; a dead host cannot.
  core.check_target_alive(proc, "native.mutex_lock");
  auto* host = static_cast<ProcState*>(core.rank_ctx(proc).user_state);
  if (host == nullptr || m < 0 ||
      m >= static_cast<int>(host->native_mutexes.size()))
    mpisim::raise(Errc::invalid_argument, "mutex index out of range");

  host->native_mutexes[static_cast<std::size_t>(m)].queue.push_back(me.rank());
  int reclaimed_from = -1;
  bool host_gone = false;
  // The host's death deletes its ProcState (user_state_cleanup runs when
  // its rank exits), so never hold a reference across a wait: re-resolve
  // the mutex row on every predicate evaluation and bail out first when the
  // host is gone. The predicate only flags; the throw happens after wait()
  // returns so the blocked-rank accounting stays balanced (same pattern as
  // comm.recv).
  core.wait([&] {
    auto* h = static_cast<ProcState*>(core.rank_ctx(proc).user_state);
    if (h == nullptr || m >= static_cast<int>(h->native_mutexes.size()) ||
        (core.survivable() && core.is_dead(proc))) {
      host_gone = true;
      return true;
    }
    auto& mx = h->native_mutexes[static_cast<std::size_t>(m)];
    if (core.survivable()) {
      // A dead holder never unlocks and a dead waiter never takes its
      // turn: reclaim the one, strip the others.
      if (mx.holder != -1 && core.is_dead(mx.holder)) {
        reclaimed_from = mx.holder;
        mx.holder = -1;
      }
      while (!mx.queue.empty() && mx.queue.front() != me.rank() &&
             core.is_dead(mx.queue.front()))
        mx.queue.pop_front();
    }
    return mx.holder == -1 && !mx.queue.empty() && mx.queue.front() == me.rank();
  }, "native.mutex");
  if (host_gone) {
    if (core.survivable() && core.is_dead(proc))
      core.observe_death(proc, "native.mutex_lock");  // throws crashed
    mpisim::raise(Errc::invalid_argument,
                  "mutex set destroyed or host exited while locking");
  }
  auto& mx = static_cast<ProcState*>(core.rank_ctx(proc).user_state)
                 ->native_mutexes[static_cast<std::size_t>(m)];
  mx.queue.pop_front();
  mx.holder = me.rank();
  // Critical-section edge: acquire the clock the previous holder released
  // at unlock (a dead holder never released -- correctly no edge).
  core.hb().channel_acquire(native_mutex_hb_key(proc, m), me.rank());
  if (reclaimed_from >= 0) core.note_death_observed(reclaimed_from);
  mpisim::clock().advance(2.0 * mpisim::model().p2p_ns(0));
}

void NativeBackend::mutex_unlock(int m, int proc) {
  mpisim::RankContext& me = mpisim::ctx();
  mpisim::SimCore& core = me.core();
  core.sync();
  core.check_target_alive(proc, "native.mutex_unlock");
  auto* host = static_cast<ProcState*>(core.rank_ctx(proc).user_state);
  if (host == nullptr || m < 0 ||
      m >= static_cast<int>(host->native_mutexes.size()))
    mpisim::raise(Errc::invalid_argument, "mutex index out of range");

  auto& mx = host->native_mutexes[static_cast<std::size_t>(m)];
  if (mx.holder != me.rank())
    mpisim::raise(Errc::invalid_argument, "unlock of a mutex not held");
  core.hb().channel_release(native_mutex_hb_key(proc, m), me.rank());
  mx.holder = -1;
  for (int r : mx.queue) core.wake(r);
  mpisim::clock().advance(mpisim::model().p2p_ns(0));
}

void NativeBackend::access_begin(const GmrLoc& /*loc*/) {
  // Native ARMCI permits direct load/store access to local global memory
  // without any epoch (cache-coherent platforms).
}

void NativeBackend::access_end(const GmrLoc& /*loc*/) {}

}  // namespace armci
