#include "src/armci/nb.hpp"

#include <algorithm>
#include <exception>
#include <mutex>

#include "src/armci/accops.hpp"
#include "src/armci/backend.hpp"
#include "src/armci/iov.hpp"
#include "src/armci/state.hpp"
#include "src/armci/strided.hpp"
#include "src/mpisim/hb.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/scratch.hpp"
#include "src/mpisim/trace.hpp"
#include "src/mpisim/win.hpp"

namespace armci {

namespace {

/// Inclusive local range of [p, p+span).
std::uintptr_t lo_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

/// Bit of \p at in NbQueue::acc_types.
std::uint8_t acc_bit(AccType at) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(at));
}

/// Drop a queue's range bookkeeping after its ops reach operation
/// completion (or park on an error).
void clear_ranges(NbQueue& q) {
  q.r_reads.clear();
  q.r_writes.clear();
  q.r_accs.clear();
  q.l_reads.clear();
  q.l_writes.clear();
  q.acc_types = 0;
}

/// Empties leased scratch when its use ends, however it ends: an issued
/// batch's storage is swapped into a queue again and ready callbacks must
/// not outlive their dispatch, so nothing may stay in it.
template <typename T>
struct ClearOnExit {
  std::vector<T>& v;
  ~ClearOnExit() { v.clear(); }
};

/// A queue died before its contract records could be published: drop the
/// persona's pending intervals silently (the mirror of the checker's
/// epoch_abandoned). Leaving them pending would make every later touch of
/// the buffers a false race against an operation that no longer exists.
void abandon_contract(NbQueue& q) {
  if (q.local_spaces.empty()) return;
  mpisim::SimCore& core = mpisim::ctx().core();
  mpisim::HbChecker& hb = core.hb();
  const int me = mpisim::rank();
  std::lock_guard lk(core.mu());
  for (const NbLocalSpace& s : q.local_spaces)
    hb.epoch_abandoned(s.space, s.target_rank, hb.persona(me));
  q.local_spaces.clear();
}

}  // namespace

bool Request::test() const noexcept {
  if (n_ == 0) return true;
  const ProcState* st = state_if_initialized();
  if (st == nullptr) return true;  // finalize drained or dropped the queues
  for (const NbTicket& t : tickets())
    if (!st->nb.ticket_complete(t)) return false;
  return true;
}

bool NbEngine::engine_enabled(const ProcState& st) const {
  return st.opts.nb_aggregation && st.backend->nb_defers();
}

bool NbEngine::local_needs_staging(const ProcState& st, const void* p,
                                   std::size_t bytes) const {
  return !st.opts.no_local_copy &&
         st.table.overlaps_global(mpisim::rank(), p, bytes);
}

bool NbEngine::ticket_complete(const NbTicket& t) const noexcept {
  auto it = queues_.find({t.gmr_id, t.proc});
  if (it == queues_.end()) return true;
  return it->second.seq_completed >= t.seq;
}

bool NbEngine::ticket_issued(const NbTicket& t) const noexcept {
  auto it = queues_.find({t.gmr_id, t.proc});
  if (it == queues_.end()) return true;
  const NbQueue& q = it->second;
  return q.seq_issued >= t.seq || q.seq_completed >= t.seq;
}

bool NbEngine::idle() const noexcept {
  return std::all_of(queues_.begin(), queues_.end(),
                     [](const auto& kv) { return !queue_live(kv.second); });
}

void NbEngine::flush(ProcState& st, NbQueue& q) {
  if (q.parked) {
    // Error-drain semantics: the persona already completed the queue's
    // tickets when it parked; the first flush point covering the queue
    // surfaces the error exactly once.
    std::exception_ptr e = std::move(q.parked);
    q.parked = nullptr;
    std::rethrow_exception(e);
  }
  bool pending = q.pending_flush;
  if (q.ops.empty() && !pending) return;
  // The batch takes the queue's ops; the queue takes the spare storage.
  mpisim::Lease<std::vector<NbOp>> lease(batch_);
  std::vector<NbOp>& batch = *lease;
  batch.swap(q.ops);
  ClearOnExit<NbOp> clear_batch{batch};
  clear_ranges(q);
  q.pending_flush = false;
  // Mark complete *before* executing: if the backend surfaces an error
  // (e.g. retry exhaustion) the queue stays consistent and the error
  // reaches the caller of the flush point, matching the blocking paths.
  q.seq_issued = q.seq_enqueued;
  q.seq_completed = q.seq_enqueued;
  try {
    if (!batch.empty()) {
      ++st.stats.flushed_queues;
      if (batch.size() >= 2) ++st.stats.coalesced_epochs;
      pending = st.backend->issue_queue(*q.gmr, q.target_rank, batch) ||
                pending;
    }
    // One target completion covers this batch and any an earlier progress
    // tick left pending.
    if (pending) st.backend->complete_target(*q.gmr, q.target_rank);
  } catch (...) {
    abandon_contract(q);
    throw;
  }
  retire_queue(st, q);
}

void NbEngine::flush_group(ProcState& st, std::vector<NbQueue*>& pending) {
  std::erase_if(pending, [](const NbQueue* q) { return !queue_live(*q); });
  if (pending.empty()) return;

  // Drain every queue even if one fails: a crashed owner must not leave
  // the other owners' batches queued behind the error (their tickets would
  // read incomplete forever). flush() marks the queue complete before the
  // backend call, so the failed queue is consistent too; the first error
  // surfaces once all queues are drained.
  std::exception_ptr first_error;
  auto drain = [&](NbQueue* q) {
    try {
      flush(st, *q);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  };
  if (pending.size() >= 2) {
    // One completion point covering several targets: overlap the epoch
    // round trips, as a real nonblocking runtime would.
    mpisim::EpochPipeline pipeline;
    for (NbQueue* q : pending) drain(q);
  } else {
    drain(pending.front());
  }
  if (first_error) std::rethrow_exception(first_error);
}

template <typename Match>
void NbEngine::flush_matching(ProcState& st, Match match) {
  {
    mpisim::Lease<std::vector<NbQueue*>> group(group_);
    group->clear();
    for (auto& [key, q] : queues_)
      if (match(key, q)) group->push_back(&q);
    flush_group(st, *group);
  }
  run_callbacks(st);
}

void NbEngine::flush_all(ProcState& st) {
  flush_matching(st, [](const QueueKey&, const NbQueue&) { return true; });
}

void NbEngine::flush_proc(ProcState& st, int proc) {
  flush_matching(st, [proc](const QueueKey&, const NbQueue& q) {
    return q.proc == proc;
  });
}

void NbEngine::flush_gmr(ProcState& st, std::uint64_t gmr_id) {
  flush_matching(st, [gmr_id](const QueueKey& key, const NbQueue&) {
    return key.first == gmr_id;
  });
}

void NbEngine::drop_gmr(ProcState& st, std::uint64_t gmr_id) {
  flush_gmr(st, gmr_id);
  for (auto it = queues_.begin(); it != queues_.end();) {
    if (it->first.first == gmr_id)
      it = queues_.erase(it);
    else
      ++it;
  }
}

void NbEngine::flush_for_blocking(ProcState& st, int proc, const void* local,
                                  std::size_t bytes, bool local_write) {
  const std::uintptr_t lo = lo_of(local);
  const std::uintptr_t hi = lo + (bytes == 0 ? 0 : bytes - 1);
  for (auto& [key, q] : queues_) {
    if (q.ops.empty() && !q.pending_flush && !q.parked) continue;
    // Same-target program order: a blocking op to proc must observe every
    // queued op to proc as already issued (and a parked error for proc
    // surface before new communication with it).
    bool hazard = q.proc == proc;
    // Local buffer hazards across targets (a queued get writing the range a
    // blocking op is about to read, or any queued use of a range the
    // blocking op is about to overwrite).
    if (!hazard && bytes > 0) {
      hazard = q.l_writes.conflicts(lo, hi) ||
               (local_write && q.l_reads.conflicts(lo, hi));
    }
    if (hazard) flush(st, q);
  }
}

void NbEngine::complete(ProcState& st, const Request& req) {
  {
    mpisim::Lease<std::vector<NbQueue*>> lease(group_);
    std::vector<NbQueue*>& group = *lease;
    group.clear();
    for (const NbTicket& t : RequestAccess::tickets(req)) {
      auto it = queues_.find({t.gmr_id, t.proc});
      if (it == queues_.end()) continue;
      NbQueue* q = &it->second;
      // A parked queue's tickets read complete, but wait() must still
      // visit it to surface the parked error. (A pending_flush queue with
      // seq_completed >= t.seq only has *later* ops in flight: skipping it
      // keeps wait(req) from completing more than the request covers.)
      if (q->seq_completed >= t.seq && !q->parked) continue;
      if (std::find(group.begin(), group.end(), q) == group.end())
        group.push_back(q);
    }
    flush_group(st, group);
  }
  run_callbacks(st);
}

std::uint64_t NbEngine::enqueue(ProcState& st, const std::shared_ptr<Gmr>& gmr,
                                int proc, int target_rank, NbOp op,
                                std::size_t r_span, std::uintptr_t l_lo,
                                std::uintptr_t l_hi) {
  const QueueKey key{gmr->id, proc};
  const std::uintptr_t r_lo = op.offset;
  const std::uintptr_t r_hi = op.offset + (r_span == 0 ? 0 : r_span - 1);
  const bool local_write = op.kind == OneSided::get;

  // Local footprint of the new op, as inclusive byte ranges. Typed ops
  // (strided / IOV) use their exact segment list rather than the bounding
  // box [l_lo, l_hi]: a multi-owner GA access interleaves several disjoint
  // footprints inside one user buffer, and bounding boxes would report
  // them as conflicting and serialize the whole pipeline. Very fragmented
  // types fall back to the bounding box to cap the cost. A gather's
  // segments come in the caller's order; sorted, they join the queue's set
  // in one O(N + M) merge.
  constexpr std::size_t kMaxPreciseSegments = 4096;
  mpisim::Lease<std::vector<mpisim::IntervalSet::Range>> lease(lsegs_);
  std::vector<mpisim::IntervalSet::Range>& lsegs = *lease;
  lsegs.clear();
  if (op.typed && op.ltype.segment_count() <= kMaxPreciseSegments) {
    const std::uintptr_t base = lo_of(op.local);
    op.ltype.for_each_segment(1, [&](mpisim::Segment s) {
      if (s.length == 0) return;
      const std::uintptr_t lo = base + static_cast<std::uintptr_t>(s.offset);
      lsegs.push_back({lo, lo + s.length - 1});
    });
  }
  if (lsegs.empty()) lsegs.push_back({l_lo, l_hi});
  const auto by_lo = [](const mpisim::IntervalSet::Range& a,
                        const mpisim::IntervalSet::Range& b) {
    return a.lo < b.lo;
  };
  if (!std::is_sorted(lsegs.begin(), lsegs.end(), by_lo))
    std::sort(lsegs.begin(), lsegs.end(), by_lo);
  const auto l_conflicts = [&lsegs](const mpisim::IntervalSet& t) {
    for (const auto& [lo, hi] : lsegs)
      if (t.conflicts(lo, hi)) return true;
    return false;
  };

  // Local-buffer hazards are checked against *every* queue: two queues
  // flush in unspecified order, so cross-queue buffer reuse must serialize
  // through a flush. Queues in the issued-awaiting-completion state keep
  // their range sets populated, so a newcomer conflicting with an in-flight
  // batch forces its completion here too.
  for (auto& [k, q] : queues_) {
    if (q.ops.empty() && !q.pending_flush) continue;
    bool hazard = l_conflicts(q.l_writes) ||
                  (local_write && l_conflicts(q.l_reads));
    // Remote-range hazards only exist within the op's own queue (other
    // queues are different windows or different targets): MPI-2 forbids
    // conflicting ops on one window in one epoch.
    if (!hazard && k == key) {
      switch (op.kind) {
        case OneSided::put:
          hazard = q.r_reads.conflicts(r_lo, r_hi) ||
                   q.r_writes.conflicts(r_lo, r_hi) ||
                   q.r_accs.conflicts(r_lo, r_hi);
          break;
        case OneSided::get:
          hazard = q.r_writes.conflicts(r_lo, r_hi) ||
                   q.r_accs.conflicts(r_lo, r_hi);
          break;
        case OneSided::acc:
          hazard = q.r_reads.conflicts(r_lo, r_hi) ||
                   q.r_writes.conflicts(r_lo, r_hi) ||
                   ((q.acc_types & ~acc_bit(op.at)) != 0 &&
                    q.r_accs.conflicts(r_lo, r_hi));
          break;
      }
    }
    if (hazard) {
      ++st.stats.nb_conflict_flushes;
      flush(st, q);
    }
  }

  auto [it, inserted] = queues_.try_emplace(key);
  NbQueue& q = it->second;
  if (inserted) {
    q.gmr = gmr;
    q.proc = proc;
    q.target_rank = target_rank;
  }
  (local_write ? q.l_writes : q.l_reads).insert_merge(lsegs);
  switch (op.kind) {
    case OneSided::put:
      q.r_writes.insert_merge(r_lo, r_hi);
      break;
    case OneSided::get:
      q.r_reads.insert_merge(r_lo, r_hi);
      break;
    case OneSided::acc:
      q.r_accs.insert_merge(r_lo, r_hi);
      q.acc_types |= acc_bit(op.at);
      break;
  }
  q.ops.push_back(std::move(op));
  return ++q.seq_enqueued;
}

bool NbEngine::try_defer_contig(ProcState& st, OneSided kind,
                                const void* remote, void* local,
                                std::size_t bytes, int proc, AccType at,
                                const void* scale, Request& req) {
  if (!engine_enabled(st) || bytes == 0) return false;
  if (proc == mpisim::rank()) return false;  // self ops alias local memory
  if (kind == OneSided::acc && !scale_is_identity(at, scale)) return false;
  if (local_needs_staging(st, local, bytes)) return false;
  GmrLoc loc = st.table.require(proc, remote, bytes);
  // Direct-path targets (same-node under a shared window) complete at
  // memcpy speed with no epoch to batch: deferring them buys nothing and
  // would delay their effects past the direct access. Fall to the eager
  // path, which routes them through the backend's shm fast path.
  if (st.backend->direct_path(loc)) return false;
  count_locality(st.stats, loc);

  NbOp op;
  op.kind = kind;
  op.at = at;
  op.local = local;
  op.bytes = bytes;
  op.offset = loc.offset;
  const std::uintptr_t l_lo = lo_of(local);
  const std::uint64_t seq = enqueue(st, loc.gmr, proc, loc.target_rank,
                                    std::move(op), bytes, l_lo,
                                    l_lo + bytes - 1);
  RequestAccess::add_ticket(req, loc.gmr->id, proc, seq);
  record_local_contract(st, queues_.find({loc.gmr->id, proc})->second, kind,
                        local, bytes);
  return true;
}

bool NbEngine::try_defer_strided(ProcState& st, OneSided kind,
                                 const void* src, void* dst,
                                 const StridedSpec& spec, int proc,
                                 AccType at, const void* scale,
                                 Request& req) {
  if (!engine_enabled(st)) return false;
  if (st.opts.strided_method != StridedMethod::direct) return false;
  if (proc == mpisim::rank()) return false;
  if (kind == OneSided::acc && !scale_is_identity(at, scale)) return false;
  validate_spec(spec);

  const mpisim::BasicType elem = direct_elem(kind, at);
  if (spec.count[0] % mpisim::basic_type_size(elem) != 0) return false;
  // Decide from the byte spans before building any datatype, so an op
  // that goes eager leaves the cache as its blocking call would.
  const bool is_get = kind == OneSided::get;
  const std::size_t lextent =
      strided_span(is_get ? spec.dst_strides : spec.src_strides, spec);
  if (local_needs_staging(st, is_get ? dst : src, lextent)) return false;
  const std::size_t rextent =
      strided_span(is_get ? spec.src_strides : spec.dst_strides, spec);
  GmrLoc loc = st.table.require(proc, is_get ? src : dst, rextent);
  // Direct-path targets complete at memcpy speed with no epoch to batch;
  // the eager path walks their segments through the backend's shm copies.
  if (st.backend->direct_path(loc)) return false;
  StridedPlan plan = st.dt_cache.strided_plan(kind, src, dst, spec, elem,
                                              st.stats);

  NbOp op;
  op.kind = kind;
  op.at = at;
  op.local = plan.local;
  op.bytes = strided_total_bytes(spec);
  op.offset = loc.offset;
  op.typed = true;
  op.ltype = std::move(plan.ltype);
  op.rtype = std::move(plan.rtype);
  const std::uintptr_t l_lo = lo_of(op.local);
  const std::uint64_t seq =
      enqueue(st, loc.gmr, proc, loc.target_rank, std::move(op), rextent,
              l_lo, l_lo + lextent - 1);
  RequestAccess::add_ticket(req, loc.gmr->id, proc, seq);
  return true;
}

bool NbEngine::try_defer_iov(ProcState& st, OneSided kind,
                             std::span<const Giov> vec, int proc, AccType at,
                             const void* scale, Request& req) {
  if (!engine_enabled(st)) return false;
  if (proc == mpisim::rank()) return false;
  if (kind == OneSided::acc && !scale_is_identity(at, scale)) return false;

  const bool is_get = kind == OneSided::get;
  const mpisim::BasicType elem = direct_elem(kind, at);
  const std::size_t esz = mpisim::basic_type_size(elem);

  // Resolve every descriptor first; defer all or none so one nb call never
  // splits between deferred and eager halves. Nothing is looked up in the
  // datatype cache until all of them qualify, so an op that goes eager
  // leaves the cache as its blocking call would. The descriptors' remote
  // displacements follow one another in the scratch rdispls.
  mpisim::Lease<std::vector<IovDeferral>> plans(iov_deferrals_);
  mpisim::Lease<IovScratch> scratch(iov_);
  std::vector<std::ptrdiff_t>& rdispls = scratch->rdispls;
  plans->clear();
  rdispls.clear();

  for (const Giov& g : vec) {
    if (g.src.size() != g.dst.size()) return false;  // eager path diagnoses
    if (g.src.empty() || g.bytes == 0) continue;
    if (g.bytes % esz != 0) return false;
    // The single hindexed op per side is erroneous if the *written* side
    // self-overlaps (same rule as the §VI-B direct method); the written
    // side is dst for every direction.
    if (iov_has_overlap(as_const_span(g.dst), g.bytes, scratch->tree))
      return false;

    // Resolve the remote side; all segments must land in one GMR.
    const std::size_t n = g.src.size();
    const std::size_t first = rdispls.size();
    GmrLoc loc0;
    const auto remote = remote_segments(g, is_get);
    for (std::size_t i = 0; i < n; ++i) {
      GmrLoc l = st.table.find(proc, remote[i], g.bytes);
      if (!l.gmr) return false;
      if (i == 0)
        loc0 = l;
      else if (l.gmr.get() != loc0.gmr.get())
        return false;
      rdispls.push_back(static_cast<std::ptrdiff_t>(l.offset));
    }
    // Direct-path targets (same GMR for every segment, so one check) go
    // eager: the backend copies each segment through shared memory.
    if (st.backend->direct_path(loc0)) return false;
    const auto local = local_segments(g, is_get);
    const auto [lo, hi] = std::minmax_element(
        local.begin(), local.end(), [](const void* a, const void* b) {
          return lo_of(a) < lo_of(b);
        });
    const std::uintptr_t l_lo = lo_of(*lo);
    const std::uintptr_t l_hi = lo_of(*hi) + g.bytes - 1;
    if (local_needs_staging(st, *lo, l_hi - l_lo + 1)) return false;
    plans->push_back({&g, std::move(loc0), first, l_lo, l_hi});
  }

  for (const IovDeferral& p : *plans) {
    IovPlan iov = st.dt_cache.iov_plan(
        std::span(rdispls).subspan(p.first, p.g->src.size()),
        local_segments(*p.g, is_get), p.g->bytes, elem, st.stats);
    NbOp op;
    op.kind = kind;
    op.at = at;
    op.local = iov.origin;
    op.bytes = p.g->src.size() * p.g->bytes;
    op.offset = iov.disp;
    op.typed = true;
    op.rtype = std::move(iov.rtype);
    op.ltype = std::move(iov.ltype);
    const auto r_span = static_cast<std::size_t>(op.rtype.extent());
    const std::uint64_t seq =
        enqueue(st, p.loc.gmr, proc, p.loc.target_rank, std::move(op), r_span,
                p.l_lo, p.l_hi);
    RequestAccess::add_ticket(req, p.loc.gmr->id, proc, seq);
  }
  plans->clear();  // drop the GMR references
  return true;
}

// ---- cooperative progress engine ----

void NbEngine::record_local_contract(ProcState& st, NbQueue& q, OneSided kind,
                                     void* local, std::size_t bytes) {
  if (!st.opts.progress || bytes == 0) return;
  mpisim::SimCore& core = mpisim::ctx().core();
  mpisim::HbChecker& hb = core.hb();
  if (!hb.enabled()) return;
  // Only local buffers that themselves live in global space have a shadow
  // space to record against (a deferred op whose buffer is global can only
  // be here under no_local_copy; otherwise staging blocked deferral).
  // Private-heap buffers get no coverage -- same blind spot every
  // space-indexed record in the detector has. Strided/IOV deferrals are
  // not covered either: their segment lists would need one interval per
  // segment, and the contig path is where the engine overlap lives.
  const GmrLoc lloc = st.table.find(mpisim::rank(), local, bytes);
  if (!lloc.gmr) return;
  const std::uint64_t space = lloc.gmr->win.id();
  const int me = mpisim::rank();
  // The engine will *write* a deferred get's destination and *read* a
  // deferred put/acc's source, concurrently with whatever the application
  // does next.
  const auto hbkind = kind == OneSided::get ? mpisim::HbChecker::OpKind::put
                                            : mpisim::HbChecker::OpKind::get;
  {
    std::lock_guard lk(core.mu());
    // Order the persona after the enqueue point, then record the contract
    // interval under the persona identity: it stays pending until
    // retirement publishes it, so an application touch in between is an
    // unordered cross-identity conflict.
    hb.persona_sync(me);
    hb.record_local_pending(
        space, lloc.target_rank, lloc.gmr->group.rank(), hb.persona(me),
        hbkind, mpisim::Op::sum, static_cast<std::ptrdiff_t>(lloc.offset),
        static_cast<std::ptrdiff_t>(lloc.offset + bytes),
        "nb deferred-op contract (progress engine)");
  }
  const NbLocalSpace ls{space, lloc.target_rank};
  const auto same = [&](const NbLocalSpace& s) {
    return s.space == ls.space && s.target_rank == ls.target_rank;
  };
  if (std::none_of(q.local_spaces.begin(), q.local_spaces.end(), same))
    q.local_spaces.push_back(ls);
}

void NbEngine::retire_queue(ProcState& st, NbQueue& q) {
  (void)st;
  if (q.local_spaces.empty()) return;
  mpisim::SimCore& core = mpisim::ctx().core();
  mpisim::HbChecker& hb = core.hb();
  const int me = mpisim::rank();
  std::lock_guard lk(core.mu());
  // Publish the persona's contract intervals (they become summaries
  // stamped with the persona clock), then hand the owner the retirement
  // edge: touches after this point are ordered, touches before it were
  // races. Publication is per <space, target>, so two queues sharing a
  // local space retire together -- coarser than per-op, never unsound.
  for (const NbLocalSpace& s : q.local_spaces)
    hb.epoch_flushed(s.space, s.target_rank, hb.persona(me));
  hb.persona_retire(me);
  q.local_spaces.clear();
}

void NbEngine::progress_tick(ProcState& st) {
  if (ticking_) return;  // a callback poked progress(); already inside
  ticking_ = true;
  struct Unguard {
    bool* flag;
    ~Unguard() { *flag = false; }
  } unguard{&ticking_};

  ++st.stats.progress_ticks;
  mpisim::Tracer& tr = mpisim::tracer();
  const bool traced = tr.enabled();
  if (traced) tr.begin(mpisim::TraceCat::progress, "progress.tick");

  const auto note_retired = [&](const NbQueue& q) {
    ++st.stats.progress_retires;
    if (traced) {
      tr.begin(mpisim::TraceCat::progress, "progress.retire",
               static_cast<std::uint64_t>(q.proc));
      tr.end(mpisim::TraceCat::progress, "progress.retire",
             static_cast<std::uint64_t>(q.proc));
    }
  };

  // Snapshot the stage set: backend calls can grow the queue map (std::map
  // nodes are stable, but newcomers belong to the next tick).
  {
    mpisim::Lease<std::vector<NbQueue*>> live(group_);
    live->clear();
    for (auto& [key, q] : queues_)
      if (!q.parked && (!q.ops.empty() || q.pending_flush))
        live->push_back(&q);

    for (NbQueue* qp : *live) {
      NbQueue& q = *qp;
      try {
        if (!q.ops.empty()) {
          // Issue stage: hand the queued batch to the transport. Source
          // completion for everything enqueued so far.
          mpisim::Lease<std::vector<NbOp>> lease(batch_);
          std::vector<NbOp>& batch = *lease;
          batch.swap(q.ops);
          ClearOnExit<NbOp> clear_batch{batch};
          q.seq_issued = q.seq_enqueued;
          ++st.stats.flushed_queues;
          if (batch.size() >= 2) ++st.stats.coalesced_epochs;
          // put/acc sources are captured at issue; only get destinations
          // stay covered until target completion. A batch the backend
          // completes at issue (MPI-2 exclusive epochs, or put/acc-only under
          // the standing MPI-3 epoch) is the whole completion; a pending flag
          // left by an earlier tick stays until its completion stage.
          if (st.backend->issue_queue(*q.gmr, q.target_rank, batch))
            q.pending_flush = true;
          q.l_reads.clear();
          if (!q.pending_flush) {
            q.seq_completed = q.seq_enqueued;
            clear_ranges(q);
            retire_queue(st, q);
            note_retired(q);
          }
        } else if (q.pending_flush) {
          // Completion stage: finish the batch issued on an earlier tick.
          st.backend->complete_target(*q.gmr, q.target_rank);
          q.pending_flush = false;
          q.seq_completed = q.seq_issued;
          clear_ranges(q);
          retire_queue(st, q);
          note_retired(q);
        }
      } catch (...) {
        // Park the error instead of throwing out of the persona: one dead
        // target must not stop progress on healthy queues, and the caller
        // of advance_compute() is charging compute, not communicating with
        // this target. Tickets read complete (error-drain, like a failed
        // flush); the error surfaces exactly once at the next test(),
        // callback, or flush point covering this queue.
        q.parked = std::current_exception();
        q.pending_flush = false;
        q.seq_issued = q.seq_enqueued;
        q.seq_completed = q.seq_enqueued;
        clear_ranges(q);
        abandon_contract(q);
      }
    }
  }
  if (traced) tr.end(mpisim::TraceCat::progress, "progress.tick");
  // Dispatch outside the stage loop and the trace span; callback
  // exceptions propagate to the compute site that drove the tick.
  run_callbacks(st);
}

bool NbEngine::test(ProcState& st, const Request& req, Completion level) {
  (void)st;
  const std::span<const NbTicket> tickets = RequestAccess::tickets(req);
  for (const NbTicket& t : tickets) {
    const bool ok =
        level == Completion::source ? ticket_issued(t) : ticket_complete(t);
    if (!ok) return false;
  }
  // Satisfied -- but a covered queue may have completed *by parking*;
  // surface that (exactly once) rather than reporting clean completion.
  if (std::exception_ptr err = take_parked(tickets))
    std::rethrow_exception(err);
  return true;
}

void NbEngine::on_complete(ProcState& st, const Request& req, Completion level,
                           std::function<void(std::exception_ptr)> fn) {
  (void)st;
  CallbackRec rec{req, level, std::move(fn)};
  bool done = true;
  for (const NbTicket& t : RequestAccess::tickets(rec.req)) {
    const bool ok =
        level == Completion::source ? ticket_issued(t) : ticket_complete(t);
    if (!ok) {
      done = false;
      break;
    }
  }
  if (done) {
    // Already satisfied: run in place.
    rec.fn(take_parked(RequestAccess::tickets(rec.req)));
    return;
  }
  callbacks_.push_back(std::move(rec));
}

std::exception_ptr NbEngine::take_parked(std::span<const NbTicket> tickets) {
  for (const NbTicket& t : tickets) {
    auto it = queues_.find({t.gmr_id, t.proc});
    if (it == queues_.end()) continue;
    if (it->second.parked) {
      std::exception_ptr e = std::move(it->second.parked);
      it->second.parked = nullptr;
      return e;
    }
  }
  return nullptr;
}

void NbEngine::run_callbacks(ProcState& st) {
  (void)st;
  if (callbacks_.empty()) return;
  // Collect the ready records and erase them *before* invoking anything: a
  // callback may issue nb ops, wait, or register further callbacks, all of
  // which re-enter this engine.
  mpisim::Lease<std::vector<CallbackRec>> lease(ready_);
  std::vector<CallbackRec>& ready = *lease;
  ClearOnExit<CallbackRec> clear_ready{ready};
  for (auto it = callbacks_.begin(); it != callbacks_.end();) {
    bool done = true;
    for (const NbTicket& t : RequestAccess::tickets(it->req)) {
      const bool ok = it->level == Completion::source ? ticket_issued(t)
                                                      : ticket_complete(t);
      if (!ok) {
        done = false;
        break;
      }
    }
    if (done) {
      ready.push_back(std::move(*it));
      it = callbacks_.erase(it);
    } else {
      ++it;
    }
  }
  for (CallbackRec& cb : ready)
    cb.fn(take_parked(RequestAccess::tickets(cb.req)));
}

}  // namespace armci
