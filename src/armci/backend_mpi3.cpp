#include "src/armci/backend_mpi3.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/armci/accops.hpp"
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
using mpisim::TraceCat;
using mpisim::TraceScope;

namespace {

/// The one window call per op kind under the standing lock_all epoch,
/// \p count \p ltype instances at \p origin against as many \p rtype
/// instances at \p disp: put as accumulate(REPLACE) -- element-atomic, so
/// concurrent updates are defined (§VIII-B item 1) --, get, or
/// accumulate(SUM).
void win_op(OneSided kind, const mpisim::Win& win, void* origin,
            std::size_t count, const Datatype& ltype, int target,
            std::size_t disp, const Datatype& rtype) {
  switch (kind) {
    case OneSided::put:
      win.accumulate(origin, count, ltype, target, disp, count, rtype,
                     mpisim::Op::replace);
      return;
    case OneSided::get:
      win.get(origin, count, ltype, target, disp, count, rtype);
      return;
    case OneSided::acc:
      win.accumulate(origin, count, ltype, target, disp, count, rtype,
                     mpisim::Op::sum);
      return;
  }
}

/// True when a batch needs the completing flush: gets fill their
/// destinations only at target completion.
bool has_get(std::span<const NbOp> ops) {
  return std::any_of(ops.begin(), ops.end(), [](const NbOp& op) {
    return op.kind == OneSided::get;
  });
}

}  // namespace

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
                        AccType at, const void* scale) {
  // The standing lock_all epoch survives a transient fault, so a retry
  // simply reissues the operation (the injector fires before anything is
  // applied; see retry.hpp).
  with_retry(*st_, "mpi3.issue", [&] {
    if (kind == OneSided::acc && !scale_is_identity(at, scale)) {
      const std::size_t bytes = count * ltype.size();
      mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
      temp->resize(bytes);
      ltype.pack(local, count, temp->data());
      scale_buffer(at, scale, temp->data(), temp->data(), bytes);
      mpisim::clock().advance(2.0 * mpisim::model().pack_ns(bytes));
      const Datatype t = Datatype::basic(direct_elem(kind, at));
      gmr.win.accumulate(temp->data(), bytes / t.size(), t, grank, disp,
                         count, rtype, mpisim::Op::sum);
      return;
    }
    win_op(kind, gmr.win, local, count, ltype, grank, disp, rtype);
    if (kind == OneSided::get) gmr.win.flush(grank);  // blocking-get semantics
  });
}

void Mpi3Backend::complete_target(const Gmr& gmr, int target_rank) {
  with_retry(*st_, "mpi3.nb_complete", [&] { gmr.win.flush(target_rank); });
}

bool Mpi3Backend::issue_queue(const Gmr& gmr, int target_rank,
                              std::span<const NbOp> ops) {
  if (ops.empty()) return false;
  // No per-batch lock under the standing lock_all epoch; the win over the
  // blocking path is deferring the get-side flush so the whole queue
  // pipelines into the single complete_target() flush (§VIII-B item 3).
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
      if (op.typed) {
        win_op(op.kind, gmr.win, op.local, 1, op.ltype, target_rank,
               op.offset, op.rtype);
      } else {
        const Datatype t = Datatype::basic(direct_elem(op.kind, op.at));
        win_op(op.kind, gmr.win, op.local, op.bytes / t.size(), t,
               target_rank, op.offset, t);
      }
      next = i + 1;
    }
  });
  return has_get(ops);
}

void Mpi3Backend::shm_contig(OneSided kind, const GmrLoc& loc, void* local,
                             std::size_t bytes, AccType at,
                             const void* scale) {
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
          mpisim::Lease<std::vector<std::uint8_t>> temp(stage_);
          temp->resize(bytes);
          scale_buffer(at, scale, temp->data(), local, bytes);
          mpisim::clock().advance(mpisim::model().pack_ns(bytes));
          gmr.win.shm_acc(mpisim::Op::sum, elem, temp->data(), bytes,
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
  // Contiguous bytes as elements of a shared basic type: bytes for put
  // and get, the accumulate type for acc.
  const Datatype t = Datatype::basic(direct_elem(kind, at));
  issue(kind, *loc.gmr, loc.target_rank, loc.offset, local, bytes / t.size(),
        t, t, at, scale);
}

void Mpi3Backend::iov(OneSided kind, std::span<const Giov> vec, int proc,
                      AccType at, const void* scale) {
  // Direct datatype method per GMR group, under the standing epoch. No
  // overlap scan is needed: conflicting accumulate-class operations are
  // defined (same-op) or merely undefined (MPI-3), never fatal.
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.iov", vec.size());
  const bool is_get = kind == OneSided::get;
  const mpisim::BasicType elem = direct_elem(kind, at);
  for (const Giov& g : vec) {
    if (g.src.size() != g.dst.size())
      mpisim::raise(Errc::invalid_argument, "IOV src/dst length mismatch");
    if (g.src.empty() || g.bytes == 0) continue;
    if (g.bytes % mpisim::basic_type_size(elem) != 0)
      mpisim::raise(Errc::invalid_argument,
                    "IOV segment length not a multiple of the element size");

    // Group segments by owning GMR.
    const auto remote = remote_segments(g, is_get);
    const auto local = local_segments(g, is_get);
    mpisim::Lease<IovScratch> scratch(iov_);
    std::vector<GmrLoc>& locs = scratch->locs;
    locs.clear();
    for (std::size_t i = 0; i < g.src.size(); ++i)
      locs.push_back(st_->table.require(proc, remote[i], g.bytes));

    group_by_gmr(locs, scratch->groups);
    for (std::size_t k = 0; k < scratch->groups.size(); ++k) {
      const std::span<const std::size_t> idxs = scratch->groups[k];
      if (direct_path(locs[idxs.front()])) {
        // Same-node IOV: each descriptor segment is a direct copy; the
        // per-segment GmrLoc already carries its displacement.
        for (std::size_t i : idxs)
          shm_contig(kind, locs[i], const_cast<void*>(local[i]), g.bytes, at,
                     scale);
        continue;
      }
      std::vector<std::ptrdiff_t>& rdispls = scratch->rdispls;
      std::vector<const void*>& lsegs = scratch->lsegs;
      rdispls.clear();
      lsegs.clear();
      for (std::size_t i : idxs) {
        rdispls.push_back(static_cast<std::ptrdiff_t>(locs[i].offset));
        lsegs.push_back(local[i]);
      }
      const IovPlan plan = st_->dt_cache.iov_plan(rdispls, lsegs, g.bytes,
                                                  elem, st_->stats);
      const GmrLoc& l = locs[idxs.front()];
      issue(kind, *l.gmr, l.target_rank, plan.disp, plan.origin, 1,
            plan.ltype, plan.rtype, at, scale);
    }
    locs.clear();
  }
}

void Mpi3Backend::strided(OneSided kind, const void* src, void* dst,
                          const StridedSpec& spec, int proc, AccType at,
                          const void* scale) {
  TraceScope ts(mpisim::tracer(), TraceCat::backend, "mpi3.strided",
                static_cast<std::uint64_t>(spec.stride_levels));
  validate_spec(spec);
  const bool is_get = kind == OneSided::get;
  const StridedPlan p = st_->dt_cache.strided_plan(
      kind, src, dst, spec, direct_elem(kind, at), st_->stats);
  GmrLoc loc = st_->table.require(proc, p.remote,
                                  static_cast<std::size_t>(p.rtype.extent()));
  if (direct_path(loc)) {
    // Same-node strided access: walk Algorithm 1's segments as direct
    // shared-memory copies instead of opening a datatype epoch.
    StridedIter it(spec);
    std::size_t s_off = 0, d_off = 0;
    auto* lbase = static_cast<std::uint8_t*>(p.local);
    GmrLoc seg = loc;
    while (it.next(s_off, d_off)) {
      seg.offset = loc.offset + (is_get ? s_off : d_off);
      shm_contig(kind, seg, lbase + (is_get ? d_off : s_off), spec.count[0],
                 at, scale);
    }
    return;
  }
  issue(kind, *loc.gmr, loc.target_rank, loc.offset, p.local, 1, p.ltype,
        p.rtype, at, scale);
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
