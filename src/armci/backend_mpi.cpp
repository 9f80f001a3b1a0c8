#include "src/armci/backend_mpi.hpp"

#include <cstring>

#include "src/armci/accops.hpp"
#include "src/armci/epoch_guard.hpp"
#include "src/armci/iov.hpp"
#include "src/armci/retry.hpp"
#include "src/armci/state.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/scratch.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

using mpisim::Datatype;
using mpisim::Errc;
using mpisim::LockType;
using mpisim::TraceCat;
using mpisim::TraceScope;

namespace {

/// The one window call per op kind on the MPI-2 backend: put, get, or
/// accumulate(SUM) of \p ocount \p otype instances at \p origin against
/// \p tcount \p ttype instances at \p disp on \p target.
void win_op(OneSided kind, const mpisim::Win& win, void* origin,
            std::size_t ocount, const Datatype& otype, int target,
            std::size_t disp, std::size_t tcount, const Datatype& ttype) {
  switch (kind) {
    case OneSided::put:
      win.put(origin, ocount, otype, target, disp, tcount, ttype);
      return;
    case OneSided::get:
      win.get(origin, ocount, otype, target, disp, tcount, ttype);
      return;
    case OneSided::acc:
      win.accumulate(origin, ocount, otype, target, disp, tcount, ttype,
                     mpisim::Op::sum);
      return;
  }
}

/// Contiguous form: \p bytes bytes for put and get (what Win::put(origin,
/// bytes, ...) issues), bytes / esz elements of the accumulate type for acc.
void win_op(OneSided kind, const mpisim::Win& win, void* origin,
            std::size_t bytes, AccType at, int target, std::size_t disp) {
  const Datatype t = Datatype::basic(direct_elem(kind, at));
  win_op(kind, win, origin, bytes / t.size(), t, target, disp,
         bytes / t.size(), t);
}

}  // namespace

void MpiBackend::gmr_created(Gmr& gmr) {
  const int me = gmr.group.rank();
  gmr.win = mpisim::Win::create(gmr.bases[static_cast<std::size_t>(me)],
                                gmr.sizes[static_cast<std::size_t>(me)],
                                gmr.group.comm());
  gmr.rmw_mutex = std::make_shared<QueueingMutexSet>(
      QueueingMutexSet::create(gmr.group.comm(), 1, 0));
}

void MpiBackend::gmr_freeing(Gmr& gmr) {
  gmr.rmw_mutex->destroy();
  gmr.rmw_mutex.reset();
  gmr.win.free();
}

LockType MpiBackend::epoch_lock(const Gmr& gmr, OneSided kind) const {
  // §VIII-A: access-mode hints permit shared-lock epochs for phases whose
  // operations cannot conflict with each other.
  if (gmr.mode == AccessMode::read_only && kind == OneSided::get)
    return LockType::shared;
  if (gmr.mode == AccessMode::accumulate_only && kind == OneSided::acc)
    return LockType::shared;
  return LockType::exclusive;
}

bool MpiBackend::local_is_global(const void* p, std::size_t bytes) const {
  return !st_->opts.no_local_copy &&
         st_->table.overlaps_global(mpisim::rank(), p, bytes);
}

void MpiBackend::staged_local_copy(void* dst, const void* src,
                                   std::size_t bytes,
                                   const void* global_side) const {
  // §V-E1: the only safe way to touch a local buffer that is itself in
  // global space is under an exclusive self-epoch on its window, released
  // before any other window is locked (avoiding deadlock from holding two
  // locks).
  ++st_->stats.staged_local_copies;
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.staged_copy",
                bytes);
  GmrLoc l = st_->table.require(mpisim::rank(), global_side, bytes);
  with_retry(*st_, "mpi.staged_copy", [&] {
    EpochGuard eg(l.gmr->win, LockType::exclusive, l.target_rank);
    LocalAccessGuard la(l.gmr->win, global_side, bytes,
                        /*write=*/dst == global_side);
    std::memcpy(dst, src, bytes);
    mpisim::clock().advance(mpisim::model().pack_ns(bytes));
    la.release();
    eg.release();
  });
}

void MpiBackend::contig(OneSided kind, const GmrLoc& loc, void* local,
                        std::size_t bytes, AccType at, const void* scale) {
  if (kind == OneSided::acc && bytes % acc_type_size(at) != 0)
    mpisim::raise(Errc::invalid_argument,
                  "accumulate length not a multiple of the element size");
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.contig", bytes);
  const Gmr& gmr = *loc.gmr;
  const LockType lt = epoch_lock(gmr, kind);

  mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
  void* buf = local;
  const bool staged = local_is_global(local, bytes);
  const bool scaled = kind == OneSided::acc && !scale_is_identity(at, scale);
  if (staged || scaled) temp->resize(bytes);
  if (staged) {
    if (kind != OneSided::get)
      staged_local_copy(temp->data(), local, bytes, local);
    buf = temp->data();
  }
  if (scaled) {
    scale_buffer(at, scale, temp->data(), buf, bytes);
    mpisim::clock().advance(mpisim::model().pack_ns(bytes));
    buf = temp->data();
  }

  with_retry(*st_, "mpi.contig", [&] {
    EpochGuard eg(gmr.win, lt, loc.target_rank);
    win_op(kind, gmr.win, buf, bytes, at, loc.target_rank, loc.offset);
    eg.release();
  });

  if (kind == OneSided::get && staged)
    staged_local_copy(local, temp->data(), bytes, local);
}

// ---------------------------------------------------------------------------
// IOV methods (paper §VI-A/B)
// ---------------------------------------------------------------------------

void MpiBackend::iov(OneSided kind, std::span<const Giov> vec, int proc,
                     AccType at, const void* scale) {
  for (const Giov& g : vec)
    iov_one(kind, g, proc, at, scale, st_->opts.iov_method);
}

void MpiBackend::iov_one(OneSided kind, const Giov& giov, int proc,
                         AccType at, const void* scale, IovMethod method) {
  if (giov.src.size() != giov.dst.size())
    mpisim::raise(Errc::invalid_argument, "IOV src/dst length mismatch");
  if (giov.src.empty() || giov.bytes == 0) return;

  if (method == IovMethod::auto_) {
    // §VI-B: the auto method scans the descriptor and falls back to the
    // conservative method when segments span multiple GMRs or overlap.
    const auto remote = remote_segments(giov, kind == OneSided::get);
    bool same_gmr = true;
    const Gmr* first = nullptr;
    for (std::size_t i = 0; i < remote.size() && same_gmr; ++i) {
      GmrLoc l = st_->table.find(proc, remote[i], giov.bytes);
      if (!l.gmr) {
        same_gmr = false;
      } else if (first == nullptr) {
        first = l.gmr.get();
      } else {
        same_gmr = l.gmr.get() == first;
      }
    }
    const bool overlap = [&] {
      mpisim::Lease<IovScratch> scratch(iov_);
      return iov_has_overlap(as_const_span(giov.dst), giov.bytes,
                             scratch->tree);
    }();
    method = (same_gmr && !overlap) ? IovMethod::direct
                                    : IovMethod::conservative;
  }

  switch (method) {
    case IovMethod::conservative:
      iov_conservative(kind, giov, proc, at, scale);
      return;
    case IovMethod::batched:
      iov_batched(kind, giov, proc, at, scale);
      return;
    case IovMethod::direct:
      iov_direct(kind, giov, proc, at, scale);
      return;
    case IovMethod::auto_:
      break;  // unreachable
  }
}

void MpiBackend::iov_conservative(OneSided kind, const Giov& giov, int proc,
                                  AccType at, const void* scale) {
  // One operation per segment, each within its own epoch. Segments may
  // live in different GMRs and may overlap (successive exclusive epochs
  // serialize, so overlap is not erroneous here).
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.iov_conservative",
                giov.src.size());
  const bool is_get = kind == OneSided::get;
  const auto remote = remote_segments(giov, is_get);
  const auto local = local_segments(giov, is_get);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    GmrLoc loc = st_->table.require(proc, remote[i], giov.bytes);
    contig(kind, loc, const_cast<void*>(local[i]), giov.bytes, at, scale);
  }
}

bool MpiBackend::stage_iov_in(OneSided kind, const Giov& giov, AccType at,
                              const void* scale,
                              std::vector<std::uint8_t>& temp) const {
  const bool is_get = kind == OneSided::get;
  const std::size_t n = giov.src.size();
  const std::size_t bytes = giov.bytes;
  const bool need_scale =
      kind == OneSided::acc && !scale_is_identity(at, scale);
  bool any_global = false;
  for (const void* local : local_segments(giov, is_get))
    any_global = any_global || local_is_global(local, bytes);
  if (!any_global && !need_scale) return false;
  temp.resize(n * bytes);
  if (is_get) return true;
  for (std::size_t i = 0; i < n; ++i) {
    if (local_is_global(giov.src[i], bytes))
      staged_local_copy(temp.data() + i * bytes, giov.src[i], bytes,
                        giov.src[i]);
    else
      std::memcpy(temp.data() + i * bytes, giov.src[i], bytes);
  }
  if (need_scale) {
    scale_buffer(at, scale, temp.data(), temp.data(), n * bytes);
    mpisim::clock().advance(mpisim::model().pack_ns(n * bytes));
  }
  return true;
}

void MpiBackend::unstage_iov_out(const Giov& giov,
                                 const std::vector<std::uint8_t>& temp) const {
  const std::size_t bytes = giov.bytes;
  for (std::size_t i = 0; i < giov.dst.size(); ++i) {
    if (local_is_global(giov.dst[i], bytes))
      staged_local_copy(giov.dst[i], temp.data() + i * bytes, bytes,
                        giov.dst[i]);
    else
      std::memcpy(giov.dst[i], temp.data() + i * bytes, bytes);
  }
}

void MpiBackend::iov_batched(OneSided kind, const Giov& giov, int proc,
                             AccType at, const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.iov_batched",
                giov.src.size());
  const bool is_get = kind == OneSided::get;
  const std::size_t n = giov.src.size();
  const std::size_t bytes = giov.bytes;

  // Stage or scale the local side up front, so no window lock is ever held
  // while another is requested (§V-E1).
  mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
  const bool staged = stage_iov_in(kind, giov, at, scale, *temp);

  // Resolve every remote segment and group by GMR, preserving order.
  mpisim::Lease<IovScratch> scratch(iov_);
  std::vector<GmrLoc>& locs = scratch->locs;
  const auto remote = remote_segments(giov, is_get);
  locs.clear();
  for (std::size_t i = 0; i < n; ++i)
    locs.push_back(st_->table.require(proc, remote[i], bytes));

  const std::size_t limit = st_->opts.iov_batched_limit;
  if (kind == OneSided::acc && bytes % acc_type_size(at) != 0)
    mpisim::raise(Errc::invalid_argument,
                  "IOV segment length not a multiple of the element size");
  const auto local = local_segments(giov, is_get);
  group_by_gmr(locs, scratch->groups);
  for (std::size_t g = 0; g < scratch->groups.size(); ++g) {
    const std::span<const std::size_t> idxs = scratch->groups[g];
    const Gmr& gmr = *locs[idxs.front()].gmr;
    const int grank = locs[idxs.front()].target_rank;
    const LockType lt = epoch_lock(gmr, kind);
    with_retry(*st_, "mpi.iov_batched", [&] {
      EpochGuard eg(gmr.win, lt, grank);
      std::size_t issued = 0;
      for (std::size_t i : idxs) {
        if (limit != 0 && issued == limit) {
          eg.cycle();
          issued = 0;
        }
        void* origin = staged ? temp->data() + i * bytes
                              : const_cast<void*>(local[i]);
        win_op(kind, gmr.win, origin, bytes, at, grank, locs[i].offset);
        ++issued;
      }
      eg.release();
    });
  }
  locs.clear();

  if (is_get && staged) unstage_iov_out(giov, *temp);
}

void MpiBackend::iov_direct(OneSided kind, const Giov& giov, int proc,
                            AccType at, const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.iov_direct",
                giov.src.size());
  const bool is_get = kind == OneSided::get;
  const std::size_t n = giov.src.size();
  const std::size_t bytes = giov.bytes;
  const mpisim::BasicType elem = direct_elem(kind, at);
  if (bytes % mpisim::basic_type_size(elem) != 0)
    mpisim::raise(Errc::invalid_argument,
                  "IOV segment length not a multiple of the element size");

  // All remote segments must resolve into one GMR (§VI-A: required by the
  // direct method; the auto method guarantees it before choosing direct).
  const auto remote = remote_segments(giov, is_get);
  mpisim::Lease<IovScratch> scratch(iov_);
  std::vector<std::ptrdiff_t>& rdispls = scratch->rdispls;
  rdispls.resize(n);
  GmrLoc loc0;
  for (std::size_t i = 0; i < n; ++i) {
    GmrLoc l = st_->table.require(proc, remote[i], bytes);
    if (i == 0) {
      loc0 = l;
    } else if (l.gmr.get() != loc0.gmr.get()) {
      mpisim::raise(Errc::invalid_argument,
                    "direct IOV method requires all segments in one GMR");
    }
    rdispls[i] = static_cast<std::ptrdiff_t>(l.offset);
  }

  // Local side: one hindexed datatype, or a staged/scaled packed buffer.
  mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
  const bool staged = stage_iov_in(kind, giov, at, scale, *temp);
  const IovPlan plan = st_->dt_cache.iov_plan(
      rdispls,
      staged ? std::span<const void* const>() : local_segments(giov, is_get),
      bytes, elem, st_->stats);
  void* origin = staged ? temp->data() : plan.origin;

  const Gmr& gmr = *loc0.gmr;
  const int grank = loc0.target_rank;
  const LockType lt = epoch_lock(gmr, kind);
  with_retry(*st_, "mpi.iov_direct", [&] {
    EpochGuard eg(gmr.win, lt, grank);
    win_op(kind, gmr.win, origin, plan.lcount, plan.ltype, grank, plan.disp,
           1, plan.rtype);
    eg.release();
  });
  if (is_get && staged) unstage_iov_out(giov, *temp);
}

// ---------------------------------------------------------------------------
// Deferred nonblocking batches (nb.hpp)
// ---------------------------------------------------------------------------

bool MpiBackend::issue_queue(const Gmr& gmr, int target_rank,
                             std::span<const NbOp> ops) {
  if (ops.empty()) return false;
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.nb_flush",
                ops.size());
  // A uniform-kind batch still qualifies for the §VIII-A shared-lock
  // downgrade; mixed batches need the exclusive default.
  LockType lt = epoch_lock(gmr, ops.front().kind);
  for (const NbOp& op : ops) {
    if (op.kind != ops.front().kind) {
      lt = LockType::exclusive;
      break;
    }
  }
  // The engine guarantees the batch is conflict-free, so one epoch is
  // legal; ops within it complete locally when the lock is released.
  with_retry(*st_, "mpi.nb_flush", [&] {
    EpochGuard eg(gmr.win, lt, target_rank);
    for (const NbOp& op : ops) {
      if (op.typed)
        win_op(op.kind, gmr.win, op.local, 1, op.ltype, target_rank,
               op.offset, 1, op.rtype);
      else
        win_op(op.kind, gmr.win, op.local, op.bytes, op.at, target_rank,
               op.offset);
    }
    eg.release();
  });
  return false;
}

// ---------------------------------------------------------------------------
// Strided methods (paper §VI-C)
// ---------------------------------------------------------------------------

void MpiBackend::strided(OneSided kind, const void* src, void* dst,
                         const StridedSpec& spec, int proc, AccType at,
                         const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.strided",
                static_cast<std::uint64_t>(spec.stride_levels));
  validate_spec(spec);
  const StridedMethod method = st_->opts.strided_method;
  if (method != StridedMethod::direct) {
    const Giov giov = strided_to_iov(src, dst, spec);
    const IovMethod m = method == StridedMethod::iov_direct
                            ? IovMethod::direct
                        : method == StridedMethod::iov_batched
                            ? IovMethod::batched
                            : IovMethod::conservative;
    iov_one(kind, giov, proc, at, scale, m);
    return;
  }

  const bool is_get = kind == OneSided::get;
  const mpisim::BasicType elem = direct_elem(kind, at);
  const StridedPlan p =
      st_->dt_cache.strided_plan(kind, src, dst, spec, elem, st_->stats);
  const std::size_t total = strided_total_bytes(spec);
  GmrLoc loc = st_->table.require(
      proc, p.remote, static_cast<std::size_t>(p.rtype.extent()));
  const Gmr& gmr = *loc.gmr;
  const LockType lt = epoch_lock(gmr, kind);

  // Local side: the strided datatype, or a packed buffer when the patch is
  // in global space (§V-E1) or must be scaled.
  const auto lextent = static_cast<std::size_t>(p.ltype.extent());
  const bool need_scale =
      kind == OneSided::acc && !scale_is_identity(at, scale);
  const bool local_global = local_is_global(p.local, lextent);
  const bool staged = local_global || need_scale;
  mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
  void* origin = p.local;
  std::size_t ocount = 1;
  Datatype otype = p.ltype;
  if (staged) {
    temp->resize(total);
    if (!is_get) {
      if (local_global) {
        ++st_->stats.staged_local_copies;
        GmrLoc l = st_->table.require(mpisim::rank(), p.local, lextent);
        with_retry(*st_, "mpi.strided_pack", [&] {
          EpochGuard eg(l.gmr->win, LockType::exclusive, l.target_rank);
          LocalAccessGuard la(l.gmr->win, p.local, lextent, /*write=*/false);
          p.ltype.pack(p.local, 1, temp->data());
          la.release();
          eg.release();
        });
      } else {
        p.ltype.pack(p.local, 1, temp->data());
      }
      mpisim::clock().advance(mpisim::model().pack_ns(total));
      if (need_scale) {
        scale_buffer(at, scale, temp->data(), temp->data(), total);
        mpisim::clock().advance(mpisim::model().pack_ns(total));
      }
    }
    // The packed buffer as elements of the shared basic type: the
    // segments one contiguous type of as many elements gives, with no
    // type built per op.
    origin = temp->data();
    otype = Datatype::basic(elem);
    ocount = total / otype.size();
  }

  with_retry(*st_, "mpi.strided", [&] {
    EpochGuard eg(gmr.win, lt, loc.target_rank);
    win_op(kind, gmr.win, origin, ocount, otype, loc.target_rank, loc.offset,
           1, p.rtype);
    eg.release();
  });

  if (is_get && staged) {
    if (local_global) {
      ++st_->stats.staged_local_copies;
      GmrLoc l = st_->table.require(mpisim::rank(), p.local, lextent);
      with_retry(*st_, "mpi.strided_unpack", [&] {
        EpochGuard eg(l.gmr->win, LockType::exclusive, l.target_rank);
        LocalAccessGuard la(l.gmr->win, p.local, lextent, /*write=*/true);
        p.ltype.unpack(temp->data(), p.local, 1);
        la.release();
        eg.release();
      });
    } else {
      p.ltype.unpack(temp->data(), p.local, 1);
    }
    mpisim::clock().advance(mpisim::model().pack_ns(total));
  }
}

// ---------------------------------------------------------------------------
// Completion, RMW, mutexes, DLA
// ---------------------------------------------------------------------------

void MpiBackend::fence(int /*proc*/) {
  // §V-F: every operation completes remotely inside its own epoch, so
  // ARMCI_Fence is a no-op on the MPI backend.
}

void MpiBackend::fence_all() {}

void MpiBackend::rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra,
                     int proc) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.rmw");
  const bool is_long =
      op == RmwOp::fetch_and_add_long || op == RmwOp::swap_long;
  const std::size_t width = is_long ? 8 : 4;
  GmrLoc loc = st_->table.require(proc, prem, width);

  // §V-D: MPI-2 has no atomic read-modify-write, and a get+put of the same
  // location in one epoch is erroneous; serialize via the GMR's mutex and
  // use two epochs.
  QueueingMutexSet& mset = *loc.gmr->rmw_mutex;
  mset.lock(0, loc.target_rank);

  std::int64_t oldv = 0;
  try {
    std::int64_t old64 = 0;
    std::int32_t old32 = 0;
    void* oldp =
        is_long ? static_cast<void*>(&old64) : static_cast<void*>(&old32);
    with_retry(*st_, "mpi.rmw_get", [&] {
      EpochGuard eg(loc.gmr->win, LockType::exclusive, loc.target_rank);
      loc.gmr->win.get(oldp, width, loc.target_rank, loc.offset);
      eg.release();
    });

    oldv = is_long ? old64 : old32;
    std::int64_t newv = 0;
    switch (op) {
      case RmwOp::fetch_and_add:
      case RmwOp::fetch_and_add_long:
        newv = oldv + extra;
        break;
      case RmwOp::swap:
        newv = *static_cast<std::int32_t*>(ploc);
        break;
      case RmwOp::swap_long:
        newv = *static_cast<std::int64_t*>(ploc);
        break;
    }

    std::int64_t new64 = newv;
    std::int32_t new32 = static_cast<std::int32_t>(newv);
    const void* newp = is_long ? static_cast<const void*>(&new64)
                               : static_cast<const void*>(&new32);
    with_retry(*st_, "mpi.rmw_put", [&] {
      EpochGuard eg(loc.gmr->win, LockType::exclusive, loc.target_rank);
      loc.gmr->win.put(newp, width, loc.target_rank, loc.offset);
      eg.release();
    });
  } catch (...) {
    // Do not leave the GMR's RMW mutex held: peers would queue forever on
    // a token this rank can no longer pass.
    try {
      mset.unlock(0, loc.target_rank);
    } catch (...) {
    }
    throw;
  }

  mset.unlock(0, loc.target_rank);

  if (is_long)
    *static_cast<std::int64_t*>(ploc) = oldv;
  else
    *static_cast<std::int32_t*>(ploc) = static_cast<std::int32_t>(oldv);
}

void MpiBackend::mutexes_create(int count) {
  user_mutexes_ = QueueingMutexSet::create(st_->world.comm(), count, 0);
}

void MpiBackend::mutexes_destroy() { user_mutexes_.destroy(); }

void MpiBackend::mutex_lock(int m, int proc) { user_mutexes_.lock(m, proc); }

void MpiBackend::mutex_unlock(int m, int proc) {
  user_mutexes_.unlock(m, proc);
}

void MpiBackend::access_begin(const GmrLoc& loc) {
  // §V-E: direct load/store access is safe only while the window is locked
  // for exclusive access on this process.
  loc.gmr->win.lock(LockType::exclusive, loc.target_rank);
}

void MpiBackend::access_end(const GmrLoc& loc) {
  loc.gmr->win.unlock(loc.target_rank);
}

}  // namespace armci
