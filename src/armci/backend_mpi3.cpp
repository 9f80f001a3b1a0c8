#include "src/armci/backend_mpi3.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/armci/accops.hpp"
#include "src/armci/retry.hpp"
#include "src/armci/state.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

using mpisim::Datatype;
using mpisim::Errc;
using mpisim::TraceCat;
using mpisim::TraceScope;

void Mpi3Backend::gmr_created(Gmr& gmr) {
  const int me = gmr.group.rank();
  // Node-aware allocation (MPI_Win_allocate_shared): the window owns one
  // block per node and co-located ranks' slices are carved out of the same
  // mapping, enabling the direct load/store fast path between them. The
  // window's bases replace the ones malloc exchanged (no local slice was
  // allocated; see uses_shared_windows()).
  gmr.win = mpisim::Win::allocate_shared(
      gmr.sizes[static_cast<std::size_t>(me)], gmr.group.comm());
  for (int r = 0; r < gmr.group.size(); ++r)
    gmr.bases[static_cast<std::size_t>(r)] = gmr.win.base(r);
  // Epochless mode: one shared lock_all epoch for the window's lifetime.
  gmr.win.lock_all();
  gmr.group.barrier();
  // No per-GMR RMW mutex: MPI-3 provides atomic fetch_and_op directly.
}

void Mpi3Backend::gmr_freeing(Gmr& gmr) {
  gmr.win.flush_all();
  gmr.group.barrier();
  gmr.win.unlock_all();
  gmr.win.free();
}

void Mpi3Backend::issue(OneSided kind, const Gmr& gmr, int grank,
                        std::size_t disp, void* local, std::size_t count,
                        const Datatype& ltype, const Datatype& rtype,
                        AccType at, const void* scale) const {
  // The standing lock_all epoch survives a transient fault, so a retry
  // simply reissues the operation (the injector fires before anything is
  // applied; see retry.hpp).
  with_retry(*st_, "mpi3.issue", [&] {
    switch (kind) {
      case OneSided::put:
        // Put as accumulate(REPLACE): element-atomic, so concurrent updates
        // under the shared lock_all epoch are defined (§VIII-B item 1).
        gmr.win.accumulate(local, count, ltype, grank, disp, count, rtype,
                           mpisim::Op::replace);
        return;
      case OneSided::get:
        gmr.win.get(local, count, ltype, grank, disp, count, rtype);
        gmr.win.flush(grank);  // blocking-get semantics
        return;
      case OneSided::acc: {
        if (!scale_is_identity(at, scale)) {
          const std::size_t bytes = count * ltype.size();
          std::vector<std::uint8_t> temp(bytes);
          ltype.pack(local, count, temp.data());
          scale_buffer(at, scale, temp.data(), temp.data(), bytes);
          mpisim::clock().advance(2.0 * mpisim::model().pack_ns(bytes));
          const std::size_t esz = acc_type_size(at);
          const Datatype ct = Datatype::contiguous(
              bytes / esz, Datatype::basic(basic_type_of_acc(at)));
          gmr.win.accumulate(temp.data(), 1, ct, grank, disp, count, rtype,
                             mpisim::Op::sum);
          return;
        }
        gmr.win.accumulate(local, count, ltype, grank, disp, count, rtype,
                           mpisim::Op::sum);
        return;
      }
    }
  });
}

void Mpi3Backend::flush_queue(const Gmr& gmr, int target_rank,
                              std::span<const NbOp> ops) {
  if (ops.empty()) return;
  // No per-batch lock under the standing lock_all epoch; the win over the
  // blocking path is deferring the get-side flush so the whole queue
  // pipelines into a single flush (§VIII-B item 3). Put/acc need none:
  // their blocking counterparts defer remote completion to fence too.
  bool have_get = false;
  for (const NbOp& op : ops) have_get = have_get || op.kind == OneSided::get;
  issue_ops(gmr, target_rank, ops, have_get);
}

void Mpi3Backend::issue_queue(const Gmr& gmr, int target_rank,
                              std::span<const NbOp> ops) {
  if (ops.empty()) return;
  // Progress-engine issue half: start everything (gets included) and leave
  // the single completing flush to complete_target(), so the target-side
  // wait lands under application compute instead of inside this call.
  issue_ops(gmr, target_rank, ops, false);
}

void Mpi3Backend::complete_target(const Gmr& gmr, int target_rank) {
  with_retry(*st_, "mpi3.nb_complete", [&] { gmr.win.flush(target_rank); });
}

void Mpi3Backend::issue_ops(const Gmr& gmr, int target_rank,
                            std::span<const NbOp> ops, bool flush_after) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.nb_flush",
                ops.size());
  // Exactly-once issuance under retry: with_retry replays its whole body
  // after a transient fault, but by then a prefix of the batch has already
  // been applied -- and Op::sum accumulates are not idempotent, so a replay
  // from op 0 would double-apply that prefix. The resume index lives
  // *outside* the retry body: each op consults the injector before it is
  // issued and advances `next` after, so a replay picks up at the first op
  // that has not been applied yet.
  std::size_t next = 0;
  mpisim::RankContext& me = mpisim::ctx();
  with_retry(*st_, "mpi3.nb_flush", [&] {
    for (std::size_t i = next; i < ops.size(); ++i) {
      // Per-op fault point: a transient fault can strike mid-batch, which
      // is exactly the schedule the resume index exists for.
      me.fault().maybe_transient(me.clock(), "mpi3.nb_flush.op");
      const NbOp& op = ops[i];
      Datatype lt = op.ltype;
      Datatype rt = op.rtype;
      if (!op.typed) {
        if (op.kind == OneSided::acc) {
          const std::size_t esz = acc_type_size(op.at);
          if (op.bytes % esz != 0)
            mpisim::raise(Errc::invalid_argument,
                          "accumulate length not a multiple of the element "
                          "size");
          lt = rt = Datatype::contiguous(
              op.bytes / esz, Datatype::basic(basic_type_of_acc(op.at)));
        } else {
          lt = rt = Datatype::contiguous(op.bytes, mpisim::byte_type());
        }
      }
      switch (op.kind) {
        case OneSided::put:
          gmr.win.accumulate(op.local, 1, lt, target_rank, op.offset, 1, rt,
                             mpisim::Op::replace);
          break;
        case OneSided::get:
          gmr.win.get(op.local, 1, lt, target_rank, op.offset, 1, rt);
          break;
        case OneSided::acc:
          gmr.win.accumulate(op.local, 1, lt, target_rank, op.offset, 1, rt,
                             mpisim::Op::sum);
          break;
      }
      next = i + 1;
    }
    if (flush_after) gmr.win.flush(target_rank);
  });
}

void Mpi3Backend::shm_contig(OneSided kind, const GmrLoc& loc, void* local,
                             std::size_t bytes, AccType at,
                             const void* scale) const {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.shm", bytes);
  const Gmr& gmr = *loc.gmr;
  // The direct path stays transient-faultable: a retry reissues the whole
  // access, which is safe because the injector fires before anything is
  // copied (retry.hpp) -- so chaos runs exercise the fast path too.
  with_retry(*st_, "mpi3.shm", [&] {
    switch (kind) {
      case OneSided::put:
        gmr.win.shm_put(local, bytes, loc.target_rank, loc.offset);
        return;
      case OneSided::get:
        gmr.win.shm_get(local, bytes, loc.target_rank, loc.offset);
        return;
      case OneSided::acc: {
        const mpisim::BasicType elem = basic_type_of_acc(at);
        if (!scale_is_identity(at, scale)) {
          std::vector<std::uint8_t> temp(bytes);
          scale_buffer(at, scale, temp.data(), local, bytes);
          mpisim::clock().advance(mpisim::model().pack_ns(bytes));
          gmr.win.shm_acc(mpisim::Op::sum, elem, temp.data(), bytes,
                          loc.target_rank, loc.offset);
          return;
        }
        gmr.win.shm_acc(mpisim::Op::sum, elem, local, bytes, loc.target_rank,
                        loc.offset);
        return;
      }
    }
  });
}

void Mpi3Backend::contig(OneSided kind, const GmrLoc& loc, void* local,
                         std::size_t bytes, AccType at, const void* scale) {
  if (kind == OneSided::acc && bytes % acc_type_size(at) != 0)
    mpisim::raise(Errc::invalid_argument,
                  "accumulate length not a multiple of the element size");
  // Locality routing: self and same-node targets bypass the lock/flush
  // machinery entirely and go through direct shared-memory access.
  if (direct_path(loc)) {
    shm_contig(kind, loc, local, bytes, at, scale);
    return;
  }
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.contig", bytes);
  const Gmr& gmr = *loc.gmr;
  if (kind == OneSided::acc) {
    const std::size_t esz = acc_type_size(at);
    const Datatype d = Datatype::basic(basic_type_of_acc(at));
    const Datatype ct = Datatype::contiguous(bytes / esz, d);
    issue(kind, gmr, loc.target_rank, loc.offset, local, 1, ct, ct, at,
          scale);
  } else {
    const Datatype bt = Datatype::contiguous(bytes, mpisim::byte_type());
    issue(kind, gmr, loc.target_rank, loc.offset, local, 1, bt, bt, at,
          scale);
  }
}

void Mpi3Backend::iov(OneSided kind, std::span<const Giov> vec, int proc,
                      AccType at, const void* scale) {
  // Direct datatype method per GMR group, under the standing epoch. No
  // overlap scan is needed: conflicting accumulate-class operations are
  // defined (same-op) or merely undefined (MPI-3), never fatal.
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.iov", vec.size());
  const bool is_get = kind == OneSided::get;
  for (const Giov& g : vec) {
    if (g.src.size() != g.dst.size())
      mpisim::raise(Errc::invalid_argument, "IOV src/dst length mismatch");
    if (g.src.empty() || g.bytes == 0) continue;

    const mpisim::BasicType elem = kind == OneSided::acc
                                       ? basic_type_of_acc(at)
                                       : mpisim::BasicType::byte_;
    const std::size_t esz = mpisim::basic_type_size(elem);
    if (g.bytes % esz != 0)
      mpisim::raise(Errc::invalid_argument,
                    "IOV segment length not a multiple of the element size");

    // Group segments by owning GMR.
    std::vector<GmrLoc> locs(g.src.size());
    for (std::size_t i = 0; i < g.src.size(); ++i) {
      const void* remote = is_get ? g.src[i] : g.dst[i];
      locs[i] = st_->table.require(proc, remote, g.bytes);
    }

    for (const auto& idxs : group_by_gmr(locs)) {
      if (direct_path(locs[idxs.front()])) {
        // Same-node IOV: each descriptor segment is a direct copy; the
        // per-segment GmrLoc already carries its displacement.
        for (std::size_t i : idxs) {
          const void* lseg = is_get ? g.dst[i] : g.src[i];
          shm_contig(kind, locs[i], const_cast<void*>(lseg), g.bytes, at,
                     scale);
        }
        continue;
      }
      const Gmr& gmr = *locs[idxs.front()].gmr;
      const int grank = locs[idxs.front()].target_rank;
      const std::vector<std::size_t> blocklens(idxs.size(), g.bytes / esz);
      std::vector<std::ptrdiff_t> rdispls(idxs.size());
      const std::uint8_t* lbase = nullptr;
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        rdispls[k] = static_cast<std::ptrdiff_t>(locs[idxs[k]].offset);
        const void* local = is_get ? g.dst[idxs[k]] : g.src[idxs[k]];
        const auto* p = static_cast<const std::uint8_t*>(local);
        if (lbase == nullptr || p < lbase) lbase = p;
      }
      // Rebase so both types are shape-only and hence cacheable; the
      // minimum remote displacement moves into the issue() disp.
      const std::ptrdiff_t rmin =
          *std::min_element(rdispls.begin(), rdispls.end());
      for (std::ptrdiff_t& d : rdispls) d -= rmin;
      std::vector<std::ptrdiff_t> ldispls(idxs.size());
      for (std::size_t k = 0; k < idxs.size(); ++k) {
        const void* local = is_get ? g.dst[idxs[k]] : g.src[idxs[k]];
        ldispls[k] = static_cast<const std::uint8_t*>(local) - lbase;
      }
      const Datatype rtype =
          st_->dt_cache.hindexed_type(blocklens, rdispls, elem, st_->stats);
      const Datatype ltype =
          st_->dt_cache.hindexed_type(blocklens, ldispls, elem, st_->stats);
      issue(kind, gmr, grank, static_cast<std::size_t>(rmin),
            const_cast<std::uint8_t*>(lbase), 1, ltype, rtype, at, scale);
    }
  }
}

void Mpi3Backend::strided(OneSided kind, const void* src, void* dst,
                          const StridedSpec& spec, int proc, AccType at,
                          const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.strided",
                static_cast<std::uint64_t>(spec.stride_levels));
  validate_spec(spec);
  const bool is_get = kind == OneSided::get;
  const mpisim::BasicType elem = kind == OneSided::acc
                                     ? basic_type_of_acc(at)
                                     : mpisim::BasicType::byte_;
  const void* remote = is_get ? src : dst;
  void* local = is_get ? dst : const_cast<void*>(src);
  const auto& rstrides = is_get ? spec.src_strides : spec.dst_strides;
  const auto& lstrides = is_get ? spec.dst_strides : spec.src_strides;

  const Datatype rtype =
      st_->dt_cache.strided_type(rstrides, spec, elem, st_->stats);
  const Datatype ltype =
      st_->dt_cache.strided_type(lstrides, spec, elem, st_->stats);
  GmrLoc loc = st_->table.require(proc, remote,
                                  static_cast<std::size_t>(rtype.extent()));
  if (direct_path(loc)) {
    // Same-node strided access: walk Algorithm 1's segments as direct
    // shared-memory copies instead of opening a datatype epoch.
    StridedIter it(spec);
    std::size_t s_off = 0, d_off = 0;
    auto* lbase = static_cast<std::uint8_t*>(local);
    GmrLoc seg = loc;
    while (it.next(s_off, d_off)) {
      seg.offset = loc.offset + (is_get ? s_off : d_off);
      shm_contig(kind, seg, lbase + (is_get ? d_off : s_off), spec.count[0],
                 at, scale);
    }
    return;
  }
  issue(kind, *loc.gmr, loc.target_rank, loc.offset, local, 1, ltype, rtype,
        at, scale);
}

void Mpi3Backend::fence(int proc) {
  // Remote completion = MPI_Win_flush on every GMR the target belongs to.
  for (const auto& gmr : st_->table.all()) {
    const int grank = gmr->group.rank_of(proc);
    if (grank >= 0) gmr->win.flush(grank);
  }
}

void Mpi3Backend::fence_all() {
  for (const auto& gmr : st_->table.all()) gmr->win.flush_all();
}

void Mpi3Backend::rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra,
                      int proc) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.rmw");
  const bool is_long =
      op == RmwOp::fetch_and_add_long || op == RmwOp::swap_long;
  const std::size_t width = is_long ? 8 : 4;
  GmrLoc loc = st_->table.require(proc, prem, width);
  const mpisim::BasicType t =
      is_long ? mpisim::BasicType::int64 : mpisim::BasicType::int32;

  // §VIII-B item 4: one atomic MPI_Fetch_and_op replaces the MPI-2
  // backend's mutex + two exclusive epochs.
  std::int64_t operand64 = extra;
  std::int32_t operand32 = static_cast<std::int32_t>(extra);
  if (op == RmwOp::swap) operand32 = *static_cast<std::int32_t*>(ploc);
  if (op == RmwOp::swap_long) operand64 = *static_cast<std::int64_t*>(ploc);
  const void* operand = is_long ? static_cast<const void*>(&operand64)
                                : static_cast<const void*>(&operand32);
  const mpisim::Op mop =
      (op == RmwOp::swap || op == RmwOp::swap_long) ? mpisim::Op::replace
                                                    : mpisim::Op::sum;
  std::int64_t old64 = 0;
  std::int32_t old32 = 0;
  void* result = is_long ? static_cast<void*>(&old64)
                         : static_cast<void*>(&old32);
  with_retry(*st_, "mpi3.rmw", [&] {
    loc.gmr->win.fetch_and_op(operand, result, t, loc.target_rank, loc.offset,
                              mop);
  });
  if (is_long)
    *static_cast<std::int64_t*>(ploc) = old64;
  else
    *static_cast<std::int32_t*>(ploc) = old32;
}

void Mpi3Backend::mutexes_create(int count) {
  user_mutexes_ = QueueingMutexSet::create(st_->world.comm(), count, 0);
}

void Mpi3Backend::mutexes_destroy() { user_mutexes_.destroy(); }

void Mpi3Backend::mutex_lock(int m, int proc) { user_mutexes_.lock(m, proc); }

void Mpi3Backend::mutex_unlock(int m, int proc) {
  user_mutexes_.unlock(m, proc);
}

void Mpi3Backend::access_begin(const GmrLoc& loc) {
  // Unified memory model: complete outstanding operations, then direct
  // load/store is permitted; no exclusive epoch is needed (or possible,
  // since the lifetime lock_all epoch is in force).
  loc.gmr->win.flush_all();
}

void Mpi3Backend::access_end(const GmrLoc& loc) { loc.gmr->win.flush_all(); }

}  // namespace armci
