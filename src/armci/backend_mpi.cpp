#include "src/armci/backend_mpi.hpp"

#include <algorithm>
#include <cstring>

#include "src/armci/accops.hpp"
#include "src/armci/epoch_guard.hpp"
#include "src/armci/iov.hpp"
#include "src/armci/retry.hpp"
#include "src/armci/state.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

using mpisim::Datatype;
using mpisim::Errc;
using mpisim::LockType;
using mpisim::TraceCat;
using mpisim::TraceScope;

namespace {

/// Span view of the written-side pointer array for the overlap scan
/// (puts/accs write remote dst; gets write local dst).
std::span<const void* const> as_const_span(const std::vector<void*>& v) {
  return {const_cast<const void* const*>(v.data()), v.size()};
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

  std::vector<std::uint8_t> temp;
  void* buf = local;
  const bool staged = local_is_global(local, bytes);
  if (staged) {
    temp.resize(bytes);
    if (kind != OneSided::get)
      staged_local_copy(temp.data(), local, bytes, local);
    buf = temp.data();
  }
  if (kind == OneSided::acc && !scale_is_identity(at, scale)) {
    if (temp.empty()) temp.resize(bytes);
    scale_buffer(at, scale, temp.data(), buf, bytes);
    mpisim::clock().advance(mpisim::model().pack_ns(bytes));
    buf = temp.data();
  }

  with_retry(*st_, "mpi.contig", [&] {
    EpochGuard eg(gmr.win, lt, loc.target_rank);
    switch (kind) {
      case OneSided::put:
        gmr.win.put(buf, bytes, loc.target_rank, loc.offset);
        break;
      case OneSided::get:
        gmr.win.get(buf, bytes, loc.target_rank, loc.offset);
        break;
      case OneSided::acc: {
        const std::size_t esz = acc_type_size(at);
        const Datatype d = Datatype::basic(basic_type_of_acc(at));
        gmr.win.accumulate(buf, bytes / esz, d, loc.target_rank, loc.offset,
                           bytes / esz, d, mpisim::Op::sum);
        break;
      }
    }
    eg.release();
  });

  if (kind == OneSided::get && staged)
    staged_local_copy(local, temp.data(), bytes, local);
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
    const bool is_get = kind == OneSided::get;
    bool same_gmr = true;
    const Gmr* first = nullptr;
    for (std::size_t i = 0; i < giov.src.size() && same_gmr; ++i) {
      const void* remote = is_get ? giov.src[i] : giov.dst[i];
      GmrLoc l = st_->table.find(proc, remote, giov.bytes);
      if (!l.gmr) {
        same_gmr = false;
      } else if (first == nullptr) {
        first = l.gmr.get();
      } else {
        same_gmr = l.gmr.get() == first;
      }
    }
    const bool overlap = iov_has_overlap(as_const_span(giov.dst), giov.bytes);
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
  for (std::size_t i = 0; i < giov.src.size(); ++i) {
    const void* remote = is_get ? giov.src[i] : giov.dst[i];
    void* local = is_get ? giov.dst[i] : const_cast<void*>(giov.src[i]);
    GmrLoc loc = st_->table.require(proc, remote, giov.bytes);
    contig(kind, loc, local, giov.bytes, at, scale);
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
  std::vector<std::uint8_t> temp;
  bool use_temp = false;
  {
    bool any_global = false;
    for (std::size_t i = 0; i < n; ++i) {
      const void* local = is_get ? giov.dst[i] : giov.src[i];
      any_global = any_global || local_is_global(local, bytes);
    }
    const bool need_scale =
        kind == OneSided::acc && !scale_is_identity(at, scale);
    if (any_global || need_scale) {
      temp.resize(n * bytes);
      use_temp = true;
      if (!is_get) {
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
      }
    }
  }

  // Resolve every remote segment and group by GMR, preserving order.
  std::vector<GmrLoc> locs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const void* remote = is_get ? giov.src[i] : giov.dst[i];
    locs[i] = st_->table.require(proc, remote, bytes);
  }

  const std::size_t limit = st_->opts.iov_batched_limit;
  const std::size_t esz = acc_type_size(at);
  if (kind == OneSided::acc && bytes % esz != 0)
    mpisim::raise(Errc::invalid_argument,
                  "IOV segment length not a multiple of the element size");
  const Datatype d = Datatype::basic(basic_type_of_acc(at));
  for (const auto& idxs : group_by_gmr(locs)) {
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
        void* local = use_temp
                          ? static_cast<void*>(temp.data() + i * bytes)
                          : (is_get ? giov.dst[i]
                                    : const_cast<void*>(giov.src[i]));
        switch (kind) {
          case OneSided::put:
            gmr.win.put(local, bytes, grank, locs[i].offset);
            break;
          case OneSided::get:
            gmr.win.get(local, bytes, grank, locs[i].offset);
            break;
          case OneSided::acc:
            gmr.win.accumulate(local, bytes / esz, d, grank, locs[i].offset,
                               bytes / esz, d, mpisim::Op::sum);
            break;
        }
        ++issued;
      }
      eg.release();
    });
  }

  if (is_get && use_temp) {
    for (std::size_t i = 0; i < n; ++i) {
      if (local_is_global(giov.dst[i], bytes))
        staged_local_copy(giov.dst[i], temp.data() + i * bytes, bytes,
                          giov.dst[i]);
      else
        std::memcpy(giov.dst[i], temp.data() + i * bytes, bytes);
    }
  }
}

void MpiBackend::iov_direct(OneSided kind, const Giov& giov, int proc,
                            AccType at, const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi.iov_direct",
                giov.src.size());
  const bool is_get = kind == OneSided::get;
  const std::size_t n = giov.src.size();
  const std::size_t bytes = giov.bytes;
  const bool is_acc = kind == OneSided::acc;
  const mpisim::BasicType elem =
      is_acc ? basic_type_of_acc(at) : mpisim::BasicType::byte_;
  const std::size_t esz = mpisim::basic_type_size(elem);
  if (bytes % esz != 0)
    mpisim::raise(Errc::invalid_argument,
                  "IOV segment length not a multiple of the element size");

  // All remote segments must resolve into one GMR (§VI-A: required by the
  // direct method; the auto method guarantees it before choosing direct).
  std::vector<std::ptrdiff_t> rdispls(n);
  GmrLoc loc0;
  for (std::size_t i = 0; i < n; ++i) {
    const void* remote = is_get ? giov.src[i] : giov.dst[i];
    GmrLoc l = st_->table.require(proc, remote, bytes);
    if (i == 0) {
      loc0 = l;
    } else if (l.gmr.get() != loc0.gmr.get()) {
      mpisim::raise(Errc::invalid_argument,
                    "direct IOV method requires all segments in one GMR");
    }
    rdispls[i] = static_cast<std::ptrdiff_t>(l.offset);
  }
  // Rebase displacements so the remote type is shape-only (cacheable across
  // base offsets); the minimum becomes the target displacement instead.
  const std::ptrdiff_t rmin = *std::min_element(rdispls.begin(), rdispls.end());
  for (std::ptrdiff_t& d : rdispls) d -= rmin;
  const auto rdisp = static_cast<std::size_t>(rmin);
  const std::vector<std::size_t> blocklens(n, bytes / esz);
  const Datatype rtype =
      st_->dt_cache.hindexed_type(blocklens, rdispls, elem, st_->stats);

  // Local side: one indexed datatype, or a staged/scaled contiguous buffer.
  std::vector<std::uint8_t> temp;
  bool use_temp = kind == OneSided::acc && !scale_is_identity(at, scale);
  for (std::size_t i = 0; i < n && !use_temp; ++i) {
    const void* local = is_get ? giov.dst[i] : giov.src[i];
    use_temp = local_is_global(local, bytes);
  }

  const Gmr& gmr = *loc0.gmr;
  const int grank = loc0.target_rank;
  const LockType lt = epoch_lock(gmr, kind);

  if (use_temp) {
    temp.resize(n * bytes);
    if (!is_get) {
      for (std::size_t i = 0; i < n; ++i) {
        if (local_is_global(giov.src[i], bytes))
          staged_local_copy(temp.data() + i * bytes, giov.src[i], bytes,
                            giov.src[i]);
        else
          std::memcpy(temp.data() + i * bytes, giov.src[i], bytes);
      }
      if (is_acc && !scale_is_identity(at, scale)) {
        scale_buffer(at, scale, temp.data(), temp.data(), n * bytes);
        mpisim::clock().advance(mpisim::model().pack_ns(n * bytes));
      }
    }
    const Datatype ltype =
        Datatype::contiguous(n * bytes / esz, Datatype::basic(elem));
    with_retry(*st_, "mpi.iov_direct", [&] {
      EpochGuard eg(gmr.win, lt, grank);
      switch (kind) {
        case OneSided::put:
          gmr.win.put(temp.data(), 1, ltype, grank, rdisp, 1, rtype);
          break;
        case OneSided::get:
          gmr.win.get(temp.data(), 1, ltype, grank, rdisp, 1, rtype);
          break;
        case OneSided::acc:
          gmr.win.accumulate(temp.data(), 1, ltype, grank, rdisp, 1, rtype,
                             mpisim::Op::sum);
          break;
      }
      eg.release();
    });
    if (is_get) {
      for (std::size_t i = 0; i < n; ++i) {
        if (local_is_global(giov.dst[i], bytes))
          staged_local_copy(giov.dst[i], temp.data() + i * bytes, bytes,
                            giov.dst[i]);
        else
          std::memcpy(giov.dst[i], temp.data() + i * bytes, bytes);
      }
    }
    return;
  }

  // Unstaged: indexed datatype on the local side too.
  const std::uint8_t* lbase = nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    const void* local = is_get ? giov.dst[i] : giov.src[i];
    const auto* p = static_cast<const std::uint8_t*>(local);
    if (lbase == nullptr || p < lbase) lbase = p;
  }
  std::vector<std::ptrdiff_t> ldispls(n);
  for (std::size_t i = 0; i < n; ++i) {
    const void* local = is_get ? giov.dst[i] : giov.src[i];
    ldispls[i] = static_cast<const std::uint8_t*>(local) - lbase;
  }
  const Datatype ltype =
      st_->dt_cache.hindexed_type(blocklens, ldispls, elem, st_->stats);

  auto* origin = const_cast<std::uint8_t*>(lbase);
  with_retry(*st_, "mpi.iov_direct", [&] {
    EpochGuard eg(gmr.win, lt, grank);
    switch (kind) {
      case OneSided::put:
        gmr.win.put(origin, 1, ltype, grank, rdisp, 1, rtype);
        break;
      case OneSided::get:
        gmr.win.get(origin, 1, ltype, grank, rdisp, 1, rtype);
        break;
      case OneSided::acc:
        gmr.win.accumulate(origin, 1, ltype, grank, rdisp, 1, rtype,
                           mpisim::Op::sum);
        break;
    }
    eg.release();
  });
}

// ---------------------------------------------------------------------------
// Deferred nonblocking batches (nb.hpp)
// ---------------------------------------------------------------------------

void MpiBackend::flush_queue(const Gmr& gmr, int target_rank,
                             std::span<const NbOp> ops) {
  if (ops.empty()) return;
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
      if (op.typed) {
        switch (op.kind) {
          case OneSided::put:
            gmr.win.put(op.local, 1, op.ltype, target_rank, op.offset, 1,
                        op.rtype);
            break;
          case OneSided::get:
            gmr.win.get(op.local, 1, op.ltype, target_rank, op.offset, 1,
                        op.rtype);
            break;
          case OneSided::acc:
            gmr.win.accumulate(op.local, 1, op.ltype, target_rank, op.offset,
                               1, op.rtype, mpisim::Op::sum);
            break;
        }
        continue;
      }
      switch (op.kind) {
        case OneSided::put:
          gmr.win.put(op.local, op.bytes, target_rank, op.offset);
          break;
        case OneSided::get:
          gmr.win.get(op.local, op.bytes, target_rank, op.offset);
          break;
        case OneSided::acc: {
          const std::size_t esz = acc_type_size(op.at);
          if (op.bytes % esz != 0)
            mpisim::raise(Errc::invalid_argument,
                          "accumulate length not a multiple of the element "
                          "size");
          const Datatype d = Datatype::basic(basic_type_of_acc(op.at));
          gmr.win.accumulate(op.local, op.bytes / esz, d, target_rank,
                             op.offset, op.bytes / esz, d, mpisim::Op::sum);
          break;
        }
      }
    }
    eg.release();
  });
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
  const bool is_acc = kind == OneSided::acc;
  const mpisim::BasicType elem =
      is_acc ? basic_type_of_acc(at) : mpisim::BasicType::byte_;
  const void* remote = is_get ? src : dst;
  void* local = is_get ? dst : const_cast<void*>(src);
  const auto& rstrides = is_get ? spec.src_strides : spec.dst_strides;
  const auto& lstrides = is_get ? spec.dst_strides : spec.src_strides;

  const Datatype rtype =
      st_->dt_cache.strided_type(rstrides, spec, elem, st_->stats);
  const Datatype ltype =
      st_->dt_cache.strided_type(lstrides, spec, elem, st_->stats);
  const std::size_t total = strided_total_bytes(spec);
  GmrLoc loc = st_->table.require(proc, remote,
                                  static_cast<std::size_t>(rtype.extent()));
  const Gmr& gmr = *loc.gmr;
  const LockType lt = epoch_lock(gmr, kind);

  const std::size_t lextent = static_cast<std::size_t>(ltype.extent());
  const bool need_scale = is_acc && !scale_is_identity(at, scale);
  const bool staged = local_is_global(local, lextent) || need_scale;

  if (staged) {
    std::vector<std::uint8_t> temp(total);
    const bool local_global = local_is_global(local, lextent);
    if (!is_get) {
      if (local_global) {
        ++st_->stats.staged_local_copies;
        GmrLoc l = st_->table.require(mpisim::rank(), local, lextent);
        with_retry(*st_, "mpi.strided_pack", [&] {
          EpochGuard eg(l.gmr->win, LockType::exclusive, l.target_rank);
          LocalAccessGuard la(l.gmr->win, local, lextent, /*write=*/false);
          ltype.pack(local, 1, temp.data());
          la.release();
          eg.release();
        });
      } else {
        ltype.pack(local, 1, temp.data());
      }
      mpisim::clock().advance(mpisim::model().pack_ns(total));
      if (need_scale) {
        scale_buffer(at, scale, temp.data(), temp.data(), total);
        mpisim::clock().advance(mpisim::model().pack_ns(total));
      }
    }
    const std::size_t esz = mpisim::basic_type_size(elem);
    const Datatype ctype =
        Datatype::contiguous(total / esz, Datatype::basic(elem));
    with_retry(*st_, "mpi.strided", [&] {
      EpochGuard eg(gmr.win, lt, loc.target_rank);
      switch (kind) {
        case OneSided::put:
          gmr.win.put(temp.data(), 1, ctype, loc.target_rank, loc.offset, 1,
                      rtype);
          break;
        case OneSided::get:
          gmr.win.get(temp.data(), 1, ctype, loc.target_rank, loc.offset, 1,
                      rtype);
          break;
        case OneSided::acc:
          gmr.win.accumulate(temp.data(), 1, ctype, loc.target_rank,
                             loc.offset, 1, rtype, mpisim::Op::sum);
          break;
      }
      eg.release();
    });
    if (is_get) {
      if (local_global) {
        ++st_->stats.staged_local_copies;
        GmrLoc l = st_->table.require(mpisim::rank(), local, lextent);
        with_retry(*st_, "mpi.strided_unpack", [&] {
          EpochGuard eg(l.gmr->win, LockType::exclusive, l.target_rank);
          LocalAccessGuard la(l.gmr->win, local, lextent, /*write=*/true);
          ltype.unpack(temp.data(), local, 1);
          la.release();
          eg.release();
        });
      } else {
        ltype.unpack(temp.data(), local, 1);
      }
      mpisim::clock().advance(mpisim::model().pack_ns(total));
    }
    return;
  }

  with_retry(*st_, "mpi.strided", [&] {
    EpochGuard eg(gmr.win, lt, loc.target_rank);
    switch (kind) {
      case OneSided::put:
        gmr.win.put(local, 1, ltype, loc.target_rank, loc.offset, 1, rtype);
        break;
      case OneSided::get:
        gmr.win.get(local, 1, ltype, loc.target_rank, loc.offset, 1, rtype);
        break;
      case OneSided::acc:
        gmr.win.accumulate(local, 1, ltype, loc.target_rank, loc.offset, 1,
                           rtype, mpisim::Op::sum);
        break;
    }
    eg.release();
  });
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
