#include "src/mpisim/win.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "src/mpisim/checker.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/scratch.hpp"

namespace mpisim {

namespace detail {

/// One origin's open access epoch on one target. Access-interval tracking
/// lives in the RMA checker (checker.hpp), keyed by <window, target,
/// origin>; the window only keeps what the lock protocol itself needs.
struct Epoch {
  LockType type = LockType::exclusive;
  std::size_t ops_issued = 0;
};

/// locked_target sentinel: the origin holds a lock_all epoch.
constexpr int kLockAll = -2;

using EpochMap = std::map<int, Epoch>;  // origin comm rank -> epoch

/// Per-target lock and epoch state.
struct TargetState {
  EpochMap open;
  // Queued lock requests, FIFO. A vector (the queue is a few ranks long)
  // keeps its storage, so a warm lock request allocates nothing.
  std::vector<std::pair<int, LockType>> waiters;
  double busy_until_ns = 0.0;  // virtual end of the last exclusive epoch
};

struct WinImpl {
  std::uint64_t id = 0;
  Comm comm;
  std::vector<void*> bases;
  std::vector<std::size_t> sizes;
  std::vector<TargetState> targets;
  std::vector<int> locked_target;  // per-origin: target locked, or -1
  bool freed = false;
  // allocate_shared() windows: the window owns one block per node, and
  // bases[] point into the block of the rank's node.
  bool shared = false;
  std::vector<std::unique_ptr<std::uint8_t[]>> node_blocks;
  /// Map nodes of closed epochs, reused by the next grants so a warm
  /// lock/unlock pair allocates nothing.
  NodePool<EpochMap> epoch_nodes;
};

namespace {

/// The caller's innermost traced operation, for checker diagnostics.
const char* trace_scope(RankContext& me) {
  return me.tracer().enabled() ? me.tracer().current_scope() : nullptr;
}

// ---- Access recording ------------------------------------------------------
// Every window event reaches both analyses -- the epoch checker
// (checker.hpp) and the happens-before detector (hb.hpp) -- through exactly
// one of these helpers. Callers hold the global lock. \p origin is always
// the window-group rank of the rank that opened the epoch or made the
// access. The detector is active only at RmaCheck::race, which enables the
// checker too, so the checker's enabled() gates the per-access work of
// both.

/// The window's operation kind as both analyses classify it.
RmaChecker::OpKind access_kind(RmaKind kind) {
  return kind == RmaKind::put   ? RmaChecker::OpKind::put
         : kind == RmaKind::get ? RmaChecker::OpKind::get
                                : RmaChecker::OpKind::acc;
}

/// A lock was granted; \p mpi3 marks a lock_all epoch.
void record_epoch_open(SimCore& core, const WinImpl& w, int target, int origin,
                       bool exclusive, bool mpi3) {
  core.checker().epoch_opened(w.id, target, origin, exclusive, mpi3);
  core.hb().lock_granted(w.id, target, w.comm.group().world_rank(origin),
                         exclusive);
}

/// unlock/unlock_all. Epoch completion is the MPI-2 reporting point for
/// erroneous accesses: raises Errc::rma_conflict in abort mode before
/// anything is released.
void record_epoch_close(SimCore& core, const WinImpl& w, int target,
                        int origin, bool exclusive) {
  core.checker().epoch_closing(w.id, target, origin);
  core.hb().lock_released(w.id, target, w.comm.group().world_rank(origin),
                          exclusive);
}

/// flush/flush_all: remote completion orders accesses across the flush, so
/// pending violations are reported and the conflict-tracking unit restarts.
void record_flush(SimCore& core, const WinImpl& w, int target, int origin) {
  core.checker().epoch_flushed(w.id, target, origin);
  core.hb().epoch_flushed(w.id, target, w.comm.group().world_rank(origin));
}

/// The epoch's origin died before completing it (survivable mode).
void record_epoch_abandoned(SimCore& core, const WinImpl& w, int target,
                            int origin) {
  core.checker().epoch_abandoned(w.id, target, origin);
  core.hb().epoch_abandoned(w.id, target, w.comm.group().world_rank(origin));
}

void record_window_freed(SimCore& core, const WinImpl& w) {
  core.checker().window_freed(w.id);
  core.hb().window_freed(w.id);
}

/// One RMA operation covering \p segs, offset by \p disp, of \p target's
/// slice. The checker takes the whole operation at once and checks each
/// segment before recording it, so conflicts *within* one operation (e.g. a
/// put datatype that writes the same bytes twice) are caught too; the
/// happens-before detector records segment by segment.
void record_rma(SimCore& core, const WinImpl& w, RankContext& me, int target,
                int origin, RmaChecker::OpKind kind, Op op, std::size_t disp,
                std::span<const Segment> segs) {
  if (!core.checker().enabled()) return;
  const char* scope = trace_scope(me);
  core.checker().record_op(w.id, target, origin, me.rank(), kind, op,
                           static_cast<std::ptrdiff_t>(disp), segs, scope);
  if (!core.hb().enabled()) return;
  for (const Segment& s : segs) {
    const std::ptrdiff_t lo = static_cast<std::ptrdiff_t>(disp) + s.offset;
    const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(s.length);
    core.hb().record_op(w.id, target, origin, me.rank(), kind, op, lo, hi,
                        scope);
  }
}

/// A declared direct load/store of [lo, hi) in \p rank's slice.
/// \p covered: the DLA discipline holds (an exclusive or lock_all
/// self-epoch). \p exclusive: an exclusive self-epoch, which also orders
/// the access through the lock slot; a lock_all-covered or bare access is
/// only ordered by whatever edges the program actually created, so the
/// happens-before detector records it.
void record_local_begin(SimCore& core, const WinImpl& w, RankContext& me,
                        int rank, int origin, std::ptrdiff_t lo,
                        std::ptrdiff_t hi, bool write, bool covered,
                        bool exclusive) {
  const char* scope = trace_scope(me);
  core.checker().local_begin(w.id, rank, me.rank(), lo, hi, write, covered,
                             scope);
  if (!exclusive)
    core.hb().access_begin(w.id, rank, origin, me.rank(), write, lo, hi,
                           scope);
}

/// A held-open same-node direct access (shm_access_begin).
void record_shm_begin(SimCore& core, const WinImpl& w, RankContext& me,
                      int target, int origin, bool write, std::ptrdiff_t lo,
                      std::ptrdiff_t hi) {
  const char* scope = trace_scope(me);
  core.checker().shm_begin(
      w.id, target, origin, me.rank(),
      write ? RmaChecker::OpKind::put : RmaChecker::OpKind::get, Op::replace,
      lo, hi, scope);
  core.hb().access_begin(w.id, target, origin, me.rank(), write, lo, hi,
                         scope);
}

/// End of a held-open direct access (local or shm) by \p accessor that
/// began at \p lo in \p target's slice: reports its pending violations
/// (may raise Errc::rma_conflict).
void record_access_end(SimCore& core, const WinImpl& w, RankContext& me,
                       int target, int accessor, std::ptrdiff_t lo) {
  core.checker().access_end(w.id, target, accessor, lo);
  core.hb().access_end(w.id, target, me.rank(), lo);
}

/// One shm fast-path operation, with no epoch to attribute it to. It
/// executes atomically under the core lock, so it begins and ends in one
/// step: it only ever conflicts with RMA already in flight (recorded since
/// its epoch's last flush), never with operations issued afterwards, and
/// leaves no record behind. The race detector goes first, so an access
/// both detectors flag raises Errc::rma_race, as RMA ops do.
void record_shm_op(SimCore& core, const WinImpl& w, RankContext& me,
                   int target, int origin, RmaChecker::OpKind kind, Op op,
                   std::ptrdiff_t lo, std::ptrdiff_t hi) {
  if (!core.checker().enabled()) return;
  const char* scope = trace_scope(me);
  core.hb().direct_op(w.id, target, origin, me.rank(), kind, op, lo, hi,
                      scope);
  core.checker().shm_op(w.id, target, origin, me.rank(), kind, op, lo, hi,
                        scope);
}

/// Survivor-side lock-state cleanup: a dead rank can neither complete the
/// epochs it holds nor consume the grants it queued for, so both would
/// stall every later requester forever. Abandon its open epochs (silently
/// -- see RmaChecker::epoch_abandoned) and drop its queued requests,
/// waking every rank when anything was dropped. Caller must hold the
/// global lock.
void purge_dead_locked(SimCore& core, WinImpl& w, int target) {
  TargetState& ts = w.targets[static_cast<std::size_t>(target)];
  const std::size_t before = ts.open.size() + ts.waiters.size();
  for (auto it = ts.open.begin(); it != ts.open.end();) {
    const int world = w.comm.group().world_rank(it->first);
    if (core.is_dead_locked(world)) {
      record_epoch_abandoned(core, w, target, it->first);
      w.epoch_nodes.erase(ts.open, it++);
    } else {
      ++it;
    }
  }
  std::erase_if(ts.waiters, [&](const std::pair<int, LockType>& wtr) {
    return core.is_dead_locked(w.comm.group().world_rank(wtr.first));
  });
  if (ts.open.size() + ts.waiters.size() != before) core.wake_all_locked();
}

/// Grant as many queued lock requests as compatibility allows (FIFO) and
/// wake each granted origin. Records each granted epoch here -- not after
/// the waiter's wait() returns -- so a ghost handoff by an epoch closing in
/// between already sees the new epoch as concurrent. An origin in lock_all
/// is marked kLockAll before it queues, so its epochs open as MPI-3 ones.
void grant_locked(SimCore& core, WinImpl& w, int target) {
  if (core.survivable()) purge_dead_locked(core, w, target);
  TargetState& ts = w.targets[static_cast<std::size_t>(target)];
  while (!ts.waiters.empty()) {
    auto [origin, type] = ts.waiters.front();
    const bool has_exclusive =
        std::any_of(ts.open.begin(), ts.open.end(), [](const auto& kv) {
          return kv.second.type == LockType::exclusive;
        });
    if (type == LockType::exclusive) {
      if (!ts.open.empty()) return;
    } else {
      if (has_exclusive) return;
    }
    w.epoch_nodes.acquire(ts.open, origin) = Epoch{type, 0};
    record_epoch_open(
        core, w, target, origin, type == LockType::exclusive,
        w.locked_target[static_cast<std::size_t>(origin)] == kLockAll);
    core.wake_locked(w.comm.group().world_rank(origin));
    ts.waiters.erase(ts.waiters.begin());
  }
}

/// Queue \p origin's \p type lock request on \p target, grant what is
/// grantable and block until the request is granted. In survivable mode
/// every wakeup purges dead holders and regrants, so a holder that died
/// inside its epoch cannot strand the queue behind it.
void queue_and_wait_locked(SimCore& core, WinImpl& w,
                           std::unique_lock<SimMutex>& lk, int origin,
                           int target, LockType type, const char* site) {
  TargetState& ts = w.targets[static_cast<std::size_t>(target)];
  ts.waiters.emplace_back(origin, type);
  grant_locked(core, w, target);
  core.wait(lk,
            [&] {
              if (ts.open.contains(origin)) return true;
              if (!core.survivable()) return false;
              grant_locked(core, w, target);
              return ts.open.contains(origin);
            },
            site);
}

/// Validate a target rank before indexing per-target window state.
void require_target(const WinImpl& w, int target_rank, const char* site) {
  if (target_rank < 0 || target_rank >= w.comm.size())
    raise(Errc::rank_out_of_range, std::string(site) + " target " +
                                       std::to_string(target_rank));
}

/// Window-group rank of the caller; raises if the caller is not in the
/// window's group (every passive-target entry point needs this before
/// indexing locked_target).
int require_member(const WinImpl& w, RankContext& me) {
  const int myrank = w.comm.group().rank_of_world(me.rank());
  if (myrank < 0) raise(Errc::rank_out_of_range, "caller not in window group");
  return myrank;
}

/// Validate a same-node direct access and return the target-segment pointer
/// at \p disp. The window must be an allocate_shared() window and the
/// target must live on the caller's node under the core's node map.
std::uint8_t* require_shm(const WinImpl& w, SimCore& core, RankContext& me,
                          int target_rank, std::size_t disp, std::size_t bytes,
                          const char* site) {
  require_target(w, target_rank, site);
  if (!w.shared)
    raise(Errc::invalid_argument,
          std::string(site) + " on a window not created by allocate_shared");
  const int target_world = w.comm.group().world_rank(target_rank);
  if (!core.model().same_node(me.rank(), target_world))
    raise(Errc::invalid_argument,
          std::string(site) + ": target rank " + std::to_string(target_rank) +
              " (world " + std::to_string(target_world) +
              ") is not on the caller's node");
  const std::size_t sz = w.sizes[static_cast<std::size_t>(target_rank)];
  if (disp + bytes > sz)
    raise(Errc::window_bounds,
          std::string(site) + " access [" + std::to_string(disp) + ", " +
              std::to_string(disp + bytes) + ") exceeds segment of " +
              std::to_string(sz) + " bytes on rank " +
              std::to_string(target_rank));
  return static_cast<std::uint8_t*>(
             w.bases[static_cast<std::size_t>(target_rank)]) +
         disp;
}

}  // namespace

}  // namespace detail

using detail::Epoch;
using detail::TargetState;
using detail::WinImpl;

// ---------------------------------------------------------------------------
// EpochPipeline
// ---------------------------------------------------------------------------

EpochPipeline::EpochPipeline()
    : first_(ctx().pipeline_chains.size()), prev_(ctx().active_pipeline) {
  ctx().active_pipeline = this;
}

EpochPipeline::~EpochPipeline() {
  RankContext& me = ctx();
  me.active_pipeline = prev_;
  const double ns = pending_ns();
  me.pipeline_chains.resize(first_);
  if (ns > 0.0) me.clock().advance(ns);
}

EpochPipeline* EpochPipeline::active() noexcept {
  return in_simulation() ? ctx().active_pipeline : nullptr;
}

void EpochPipeline::defer_round_trip(std::uint64_t win_id, int target_rank,
                                     double ns) {
  if (ns <= 0.0) return;
  std::vector<RankContext::PipelineChain>& chains = ctx().pipeline_chains;
  for (std::size_t i = first_; i < chains.size(); ++i) {
    if (chains[i].win_id == win_id && chains[i].target_rank == target_rank) {
      chains[i].ns += ns;
      return;
    }
  }
  chains.push_back({win_id, target_rank, ns});
}

double EpochPipeline::pending_ns() const {
  const std::vector<RankContext::PipelineChain>& chains =
      ctx().pipeline_chains;
  double mx = 0.0;
  for (std::size_t i = first_; i < chains.size(); ++i)
    mx = std::max(mx, chains[i].ns);
  return mx;
}

namespace detail {
namespace {

/// Charge \p round_trip_ns of initiator-blocked epoch wait: diverted into
/// the active pipeline scope's per-target chain, or straight to the clock.
void charge_round_trip(RankContext& me, const WinImpl& w, int target_rank,
                       double round_trip_ns) {
  if (EpochPipeline* pl = EpochPipeline::active())
    pl->defer_round_trip(w.id, target_rank, round_trip_ns);
  else
    me.clock().advance(round_trip_ns);
}

/// Shared body of the fetching accumulate-class operations (get_accumulate,
/// compare_and_swap) on the target bytes [disp, disp + bytes): record the
/// access as get_acc with \p op, then run \p apply on the target bytes --
/// accumulate-class atomicity: fetch and combine in one critical section.
/// Fetching semantics: the caller needs the reply, so unlike put-class
/// operations the round trip is always paid.
template <typename Apply>
void fetch_op(WinImpl& w, RankContext& me, int myrank, int target_rank,
              std::size_t disp, std::size_t bytes, Op op, const char* site,
              Apply&& apply) {
  if (disp + bytes > w.sizes[static_cast<std::size_t>(target_rank)])
    raise(Errc::window_bounds, std::string(site) + " outside the window");
  SimCore& core = *w.comm.impl()->core;
  std::unique_lock lk(core.mu());
  core.check_failed_locked();
  core.check_target_alive_locked(w.comm.group().world_rank(target_rank),
                                 "win.rma");
  TargetState& ts = w.targets[static_cast<std::size_t>(target_rank)];
  auto eit = ts.open.find(myrank);
  if (eit == ts.open.end())
    raise(Errc::no_epoch, "RMA operation outside a passive-target epoch");
  Epoch& ep = eit->second;

  const Segment seg{0, bytes};
  record_rma(core, w, me, target_rank, myrank, RmaChecker::OpKind::get_acc,
             op, disp, {&seg, 1});
  apply(static_cast<std::uint8_t*>(
            w.bases[static_cast<std::size_t>(target_rank)]) +
        disp);

  const NetworkModel& nm = core.model();
  me.clock().advance(nm.rma_op_ns(RmaKind::acc, bytes, 1, Path::mpi,
                                  ep.ops_issued, true, w.comm.size()) +
                     nm.p2p_ns(bytes));
  ++ep.ops_issued;
}

}  // namespace
}  // namespace detail

Win::Win(std::shared_ptr<WinImpl> impl) : impl_(std::move(impl)) {}

std::shared_ptr<WinImpl> Win::build(
    const Comm& comm, const void* info, std::size_t info_bytes,
    const std::function<void(WinImpl&, const CollCtx&)>& fill) {
  SimCore& core = *comm.impl()->core;
  const int n = comm.size();
  const auto un = static_cast<std::size_t>(n);
  const NetworkModel& nm = core.model();
  // Charged as the allgather of the inputs, the broadcast of the window id
  // and the barrier that the round replaces.
  const double cost = nm.tree_collective_ns(info_bytes * un, n) +
                      nm.tree_collective_ns(sizeof(std::uint64_t), n) +
                      nm.barrier_ns(n);
  std::shared_ptr<WinImpl> out;
  const bool root_dead = comm.collective_round(
      info, &out, 0, cost, [&](CollCtx& cc, const Group&) {
        if (cc.outbufs[0] == nullptr) {  // comm rank 0 is dead
          cc.dep_dead = true;
          return;
        }
        auto w = std::make_shared<WinImpl>();
        w->comm = comm;
        w->id = core.alloc_win_id_locked();
        w->bases.assign(un, nullptr);
        w->sizes.assign(un, 0);
        w->targets.resize(un);
        w->locked_target.assign(un, -1);
        fill(*w, cc);
        cc.hand_out(w);
      });
  if (root_dead) comm.raise_dead_root(0, "win.create");
  return out;
}

Win Win::create(void* base, std::size_t bytes, const Comm& comm) {
  if (base == nullptr && bytes != 0)
    raise(Errc::invalid_argument, "null window base with nonzero size");

  struct Info {
    void* base;
    std::size_t size;
  };
  const Info mine{base, bytes};
  std::shared_ptr<WinImpl> impl =
      build(comm, &mine, sizeof mine, [](WinImpl& w, const CollCtx& cc) {
        for (std::size_t r = 0; r < w.sizes.size(); ++r) {
          const auto* in = static_cast<const Info*>(cc.inbufs[r]);
          if (in == nullptr) continue;  // dead member: null base, size 0
          w.bases[r] = in->base;
          w.sizes[r] = in->size;
        }
      });

  // Window memory is registered at creation time (MPI_Alloc_mem-style);
  // Figure 5's on-demand costs concern *local* buffers used as RMA origins.
  ctx().mpi_reg().register_prepinned(base, bytes);
  return Win(std::move(impl));
}

Win Win::allocate_shared(std::size_t bytes, const Comm& comm) {
  const NetworkModel& nm = ctx().core().model();
  std::shared_ptr<WinImpl> impl = build(
      comm, &bytes, sizeof bytes, [&](WinImpl& w, const CollCtx& cc) {
        w.shared = true;
        const std::size_t n = w.sizes.size();
        for (std::size_t r = 0; r < n; ++r)
          if (cc.inbufs[r] != nullptr)  // dead member: size 0
            w.sizes[r] = *static_cast<const std::size_t*>(cc.inbufs[r]);
        // One allocation per node: group the comm's ranks by the node their
        // world rank lives on and carve each rank's segment, in comm-rank
        // order, out of its node's block. Co-located ranks therefore share
        // one contiguous mapping, which is what makes direct load/store
        // meaningful.
        std::vector<int> node(n);
        std::map<int, std::size_t> node_bytes;
        for (std::size_t r = 0; r < n; ++r) {
          node[r] = nm.node_of(comm.group().world_rank(static_cast<int>(r)));
          node_bytes[node[r]] += w.sizes[r];
        }
        std::map<int, std::uint8_t*> cursor;
        for (const auto& [nid, total] : node_bytes) {
          w.node_blocks.push_back(
              std::make_unique<std::uint8_t[]>(total > 0 ? total : 1));
          cursor[nid] = w.node_blocks.back().get();
        }
        for (std::size_t r = 0; r < n; ++r) {
          std::uint8_t*& cur = cursor[node[r]];
          if (w.sizes[r] > 0) w.bases[r] = cur;
          cur += w.sizes[r];
        }
      });

  // Shared mappings behave like MPI_Win_allocate memory: pre-pinned.
  ctx().mpi_reg().register_prepinned(
      impl->bases[static_cast<std::size_t>(comm.rank())],
      impl->sizes[static_cast<std::size_t>(comm.rank())]);
  return Win(std::move(impl));
}

bool Win::shared_memory() const noexcept {
  return impl_ != nullptr && impl_->shared;
}

void Win::free() {
  WinImpl& w = *impl_;
  SimCore& core = ctx().core();
  {
    std::lock_guard lk(core.mu());
    if (w.locked_target[static_cast<std::size_t>(w.comm.rank())] != -1) {
      core.checker().note_discipline(ctx().rank());
      raise(Errc::not_locked, "Win::free with an open epoch");
    }
  }
  w.comm.barrier();
  if (w.comm.rank() == 0) {
    std::lock_guard lk(core.mu());
    w.freed = true;
    detail::record_window_freed(core, w);
  }
  w.comm.barrier();
  impl_.reset();
}

void Win::lock(LockType type, int target_rank) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  detail::require_target(w, target_rank, "lock");
  me.fault().fault_point(me.clock());

  std::unique_lock lk(core.mu());
  // A dead target's window memory may already be released by its cleanup
  // hook; fail the epoch with Errc::crashed before queueing for it.
  core.check_target_alive_locked(w.comm.group().world_rank(target_rank),
                                 "win.lock");
  if (w.locked_target[static_cast<std::size_t>(myrank)] != -1) {
    core.checker().note_discipline(me.rank());
    raise(Errc::double_lock,
          "origin already holds a lock on this window (target " +
              std::to_string(w.locked_target[static_cast<std::size_t>(myrank)]) +
              ")");
  }
  const char* trace_name =
      type == LockType::exclusive ? "win.lock_excl" : "win.lock_shared";
  me.tracer().begin(TraceCat::window, trace_name, w.id);
  detail::queue_and_wait_locked(core, w, lk, myrank, target_rank, type,
                                "win.lock");
  const TargetState& ts = w.targets[static_cast<std::size_t>(target_rank)];
  w.locked_target[static_cast<std::size_t>(myrank)] = target_rank;

  // Virtual time: a lock round trip; exclusive epochs additionally serialize
  // behind the previous exclusive epoch's completion time. A fault plan may
  // charge an extra lock-grant stall here. The round trip may be diverted
  // into an EpochPipeline scope; the busy-until serialization never is.
  detail::charge_round_trip(me, w, target_rank,
                            core.model().lock_ns() +
                                me.fault().draw_lock_stall_ns());
  if (type == LockType::exclusive) me.clock().advance_to(ts.busy_until_ns);
  if (me.tracer().enabled()) {
    WinStats& ws = me.tracer().win(w.id);
    if (type == LockType::exclusive)
      ++ws.exclusive_locks;
    else
      ++ws.shared_locks;
    me.tracer().end(TraceCat::window, trace_name, w.id);
  }
}

void Win::unlock(int target_rank) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  detail::require_target(w, target_rank, "unlock");
  me.fault().fault_point(me.clock());

  std::unique_lock lk(core.mu());
  TargetState& ts = w.targets[static_cast<std::size_t>(target_rank)];
  auto it = ts.open.find(myrank);
  if (it == ts.open.end() ||
      w.locked_target[static_cast<std::size_t>(myrank)] != target_rank) {
    core.checker().note_discipline(me.rank());
    raise(Errc::not_locked, "unlock without a matching lock");
  }

  // May raise Errc::rma_conflict (before the trace 'B' event, so an
  // aborting unlock leaves the trace balanced).
  const bool was_exclusive = it->second.type == LockType::exclusive;
  detail::record_epoch_close(core, w, target_rank, myrank, was_exclusive);

  me.tracer().begin(TraceCat::window, "win.unlock", w.id);
  w.epoch_nodes.erase(ts.open, it);
  w.locked_target[static_cast<std::size_t>(myrank)] = -1;

  detail::charge_round_trip(me, w, target_rank, core.model().unlock_ns());
  if (was_exclusive)
    ts.busy_until_ns = std::max(ts.busy_until_ns, me.clock().now_ns());
  core.note_time_locked(me.clock().now_ns());

  detail::grant_locked(core, w, target_rank);
  if (me.tracer().enabled()) {
    ++me.tracer().win(w.id).epochs;
    me.tracer().end(TraceCat::window, "win.unlock", w.id);
  }
}

void Win::lock_all() const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  me.fault().fault_point(me.clock());

  std::unique_lock lk(core.mu());
  if (w.locked_target[static_cast<std::size_t>(myrank)] != -1) {
    core.checker().note_discipline(me.rank());
    raise(Errc::double_lock, "lock_all while holding a lock on this window");
  }
  me.tracer().begin(TraceCat::window, "win.lock_all", w.id);
  // Shared-mode epochs on every target; wait for each in turn (shared
  // requests only queue behind exclusive holders, so this cannot deadlock
  // against another lock_all). Marking the origin first makes each grant
  // open an MPI-3 epoch: conflicting accesses have undefined values but are
  // not erroneous, so the checker skips them.
  w.locked_target[static_cast<std::size_t>(myrank)] = detail::kLockAll;
  for (int t = 0; t < w.comm.size(); ++t)
    detail::queue_and_wait_locked(core, w, lk, myrank, t, LockType::shared,
                                  "win.lock_all");
  me.clock().advance(core.model().lock_ns() +
                     me.fault().draw_lock_stall_ns());
  if (me.tracer().enabled()) {
    ++me.tracer().win(w.id).lock_alls;
    me.tracer().end(TraceCat::window, "win.lock_all", w.id);
  }
}

void Win::unlock_all() const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);

  std::unique_lock lk(core.mu());
  if (w.locked_target[static_cast<std::size_t>(myrank)] != detail::kLockAll) {
    core.checker().note_discipline(me.rank());
    raise(Errc::not_locked, "unlock_all without lock_all");
  }
  me.tracer().begin(TraceCat::window, "win.unlock_all", w.id);
  for (int t = 0; t < w.comm.size(); ++t) {
    TargetState& ts = w.targets[static_cast<std::size_t>(t)];
    detail::record_epoch_close(core, w, t, myrank, /*exclusive=*/false);
    if (auto it = ts.open.find(myrank); it != ts.open.end())
      w.epoch_nodes.erase(ts.open, it);
    detail::grant_locked(core, w, t);
  }
  w.locked_target[static_cast<std::size_t>(myrank)] = -1;
  me.clock().advance(core.model().unlock_ns());
  core.note_time_locked(me.clock().now_ns());
  if (me.tracer().enabled()) {
    ++me.tracer().win(w.id).epochs;
    me.tracer().end(TraceCat::window, "win.unlock_all", w.id);
  }
}

void Win::flush(int target_rank) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  detail::require_target(w, target_rank, "flush");

  std::unique_lock lk(core.mu());
  TargetState& ts = w.targets[static_cast<std::size_t>(target_rank)];
  auto it = ts.open.find(myrank);
  if (it == ts.open.end())
    raise(Errc::no_epoch, "flush without an epoch on the target");
  detail::record_flush(core, w, target_rank, myrank);
  me.tracer().begin(TraceCat::window, "win.flush", w.id);
  // Remote completion of everything outstanding: one acknowledgement round
  // trip; afterwards the next operation pays wire latency again.
  if (it->second.ops_issued > 0) {
    it->second.ops_issued = 0;
    detail::charge_round_trip(me, w, target_rank,
                              core.model().unlock_ns() +
                                  core.model().p2p_ns(0));
  }
  if (me.tracer().enabled()) {
    ++me.tracer().win(w.id).flushes;
    me.tracer().end(TraceCat::window, "win.flush", w.id);
  }
}

void Win::flush_all() const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);

  std::unique_lock lk(core.mu());
  me.tracer().begin(TraceCat::window, "win.flush_all", w.id);
  bool any = false;
  for (int t = 0; t < w.comm.size(); ++t) {
    TargetState& ts = w.targets[static_cast<std::size_t>(t)];
    auto it = ts.open.find(myrank);
    if (it != ts.open.end()) {
      detail::record_flush(core, w, t, myrank);
      if (it->second.ops_issued > 0) {
        it->second.ops_issued = 0;
        any = true;
      }
    }
  }
  if (any)
    me.clock().advance(core.model().unlock_ns() + core.model().p2p_ns(0));
  if (me.tracer().enabled()) {
    ++me.tracer().win(w.id).flushes;
    me.tracer().end(TraceCat::window, "win.flush_all", w.id);
  }
}

void Win::put(const void* origin, std::size_t bytes, int target_rank,
              std::size_t target_disp) const {
  const Datatype t = byte_type();
  rma_op(RmaKind::put, origin, bytes, t, target_rank, target_disp, bytes, t,
         Op::replace);
}

void Win::get(void* origin, std::size_t bytes, int target_rank,
              std::size_t target_disp) const {
  const Datatype t = byte_type();
  rma_op(RmaKind::get, origin, bytes, t, target_rank, target_disp, bytes, t,
         Op::replace);
}

void Win::put(const void* origin, std::size_t origin_count,
              const Datatype& origin_type, int target_rank,
              std::size_t target_disp, std::size_t target_count,
              const Datatype& target_type) const {
  rma_op(RmaKind::put, origin, origin_count, origin_type, target_rank,
         target_disp, target_count, target_type, Op::replace);
}

void Win::get(void* origin, std::size_t origin_count,
              const Datatype& origin_type, int target_rank,
              std::size_t target_disp, std::size_t target_count,
              const Datatype& target_type) const {
  rma_op(RmaKind::get, origin, origin_count, origin_type, target_rank,
         target_disp, target_count, target_type, Op::replace);
}

void Win::accumulate(const void* origin, std::size_t origin_count,
                     const Datatype& origin_type, int target_rank,
                     std::size_t target_disp, std::size_t target_count,
                     const Datatype& target_type, Op op) const {
  rma_op(RmaKind::acc, origin, origin_count, origin_type, target_rank,
         target_disp, target_count, target_type, op);
}

void Win::get_accumulate(const void* origin, void* result, std::size_t count,
                         const Datatype& type, int target_rank,
                         std::size_t target_disp, Op op) const {
  RankContext& me = ctx();
  const int myrank = detail::require_member(*impl_, me);
  detail::require_target(*impl_, target_rank, "get_accumulate");
  const std::size_t bytes = count * type.size();
  if (bytes == 0) return;
  if (!type.contiguous_layout())
    raise(Errc::invalid_argument,
          "get_accumulate supports contiguous datatypes");
  if (op != Op::no_op && origin == nullptr)
    raise(Errc::invalid_argument, "null origin with a combining op");
  // Recorded under MPI's same_op_no_op mixing rule (no_op combines with any
  // accumulate operator).
  detail::fetch_op(*impl_, me, myrank, target_rank, target_disp, bytes, op,
                   "get_accumulate", [&](std::uint8_t* tptr) {
                     std::memcpy(result, tptr, bytes);
                     if (op != Op::no_op)
                       apply_op(op, type.element_type(), tptr, origin, count);
                   });
}

void Win::fetch_and_op(const void* origin, void* result, BasicType type,
                       int target_rank, std::size_t target_disp,
                       Op op) const {
  get_accumulate(origin, result, 1, Datatype::basic(type), target_rank,
                 target_disp, op);
}

void Win::compare_and_swap(const void* origin, const void* compare,
                           void* result, BasicType type, int target_rank,
                           std::size_t target_disp) const {
  RankContext& me = ctx();
  const int myrank = detail::require_member(*impl_, me);
  detail::require_target(*impl_, target_rank, "compare_and_swap");
  const std::size_t bytes = basic_type_size(type);
  // Accumulate-class: an atomic conditional replace.
  detail::fetch_op(*impl_, me, myrank, target_rank, target_disp, bytes,
                   Op::replace, "compare_and_swap", [&](std::uint8_t* tptr) {
                     std::memcpy(result, tptr, bytes);
                     if (std::memcmp(tptr, compare, bytes) == 0)
                       std::memcpy(tptr, origin, bytes);
                   });
}

void Win::rma_op(RmaKind kind, const void* origin, std::size_t origin_count,
                 const Datatype& origin_type, int target_rank,
                 std::size_t target_disp, std::size_t target_count,
                 const Datatype& target_type, Op op) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  detail::require_target(w, target_rank, "rma_op");
  const std::size_t bytes = origin_count * origin_type.size();

  if (bytes != target_count * target_type.size())
    raise(Errc::type_mismatch, "origin/target transfer sizes differ");
  if (bytes == 0) return;
  me.fault().fault_point(me.clock());
  if (kind == RmaKind::acc &&
      origin_type.element_type() != target_type.element_type())
    raise(Errc::type_mismatch, "accumulate element types differ");

  // The bytes the access touches: the first instance's true lower bound
  // (negative for a negative stride or displacement) to the last
  // instance's true upper bound.
  const auto disp = static_cast<std::ptrdiff_t>(target_disp);
  const std::ptrdiff_t lo = disp + target_type.true_lb();
  const std::ptrdiff_t hi =
      disp + static_cast<std::ptrdiff_t>(target_count - 1) * target_type.extent() +
      target_type.true_ub();
  const std::size_t wsize = w.sizes[static_cast<std::size_t>(target_rank)];
  if (lo < 0 || hi > static_cast<std::ptrdiff_t>(wsize))
    raise(Errc::window_bounds,
          "access [" + std::to_string(lo) + ", " + std::to_string(hi) +
              ") exceeds window of " + std::to_string(wsize) +
              " bytes on rank " + std::to_string(target_rank));

  auto* tbase = static_cast<std::uint8_t*>(
                    w.bases[static_cast<std::size_t>(target_rank)]) +
                target_disp;

  std::unique_lock lk(core.mu());
  core.check_failed_locked();
  core.check_target_alive_locked(w.comm.group().world_rank(target_rank),
                                 "win.rma");
  TargetState& ts = w.targets[static_cast<std::size_t>(target_rank)];
  auto eit = ts.open.find(myrank);
  if (eit == ts.open.end())
    raise(Errc::no_epoch, "RMA operation outside a passive-target epoch");
  Epoch& ep = eit->second;

  Lease<std::vector<Segment>> olease(me.rma_origin_segs);
  Lease<std::vector<Segment>> tlease(me.rma_target_segs);
  const std::vector<Segment>& osegs = *olease;
  const std::vector<Segment>& tsegs = *tlease;
  origin_type.flatten_into(origin_count, *olease);
  target_type.flatten_into(target_count, *tlease);

  // MPI-2 conflicting-access detection: reported when the epoch completes.
  detail::record_rma(core, w, me, target_rank, myrank,
                     detail::access_kind(kind), op, target_disp, tsegs);

  // ---- Data movement (safe under the global lock) ----
  {
    const std::size_t esz = basic_type_size(origin_type.element_type());
    auto* obase =
        static_cast<std::uint8_t*>(const_cast<void*>(origin));  // get writes
    std::size_t oi = 0, ti = 0, opos = 0, tpos = 0;
    while (oi < osegs.size() && ti < tsegs.size()) {
      const std::size_t chunk =
          std::min(osegs[oi].length - opos, tsegs[ti].length - tpos);
      std::uint8_t* optr = obase + osegs[oi].offset + opos;
      std::uint8_t* tptr = tbase + tsegs[ti].offset + tpos;
      switch (kind) {
        case RmaKind::put:
          std::memcpy(tptr, optr, chunk);
          break;
        case RmaKind::get:
          std::memcpy(optr, tptr, chunk);
          break;
        case RmaKind::acc:
          apply_op(op, origin_type.element_type(), tptr, optr, chunk / esz);
          break;
      }
      opos += chunk;
      tpos += chunk;
      if (opos == osegs[oi].length) { ++oi; opos = 0; }
      if (tpos == tsegs[ti].length) { ++ti; tpos = 0; }
    }
  }

  // ---- Virtual-time accounting ----
  const NetworkModel& nm = core.model();
  const PlatformProfile& prof = nm.profile();
  const std::size_t nseg = std::max(osegs.size(), tsegs.size());
  const bool contig = nseg == 1;
  double cost = nm.rma_op_ns(kind, bytes, nseg, Path::mpi, ep.ops_issued,
                             /*local_pinned=*/true, w.comm.size());
  if (!contig) {
    cost += nm.dtype_build_ns(nseg);
    // A noncontiguous side without hardware scatter/gather costs a pack at
    // the origin plus an unpack at the target (two host copies).
    if (osegs.size() > 1) cost += 2.0 * nm.pack_ns(bytes);
    if (tsegs.size() > 1) cost += 2.0 * nm.pack_ns(bytes);
  }
  if (prof.on_demand_registration) {
    if (bytes <= prof.bounce_threshold_bytes) {
      cost += nm.pack_ns(bytes);  // copy through pre-pinned bounce buffers
    } else {
      const std::size_t pages = me.mpi_reg().ensure_registered(origin, bytes);
      cost += nm.registration_ns(pages);
    }
  }
  me.clock().advance(cost);
  ++ep.ops_issued;
}

namespace {

/// Locate \p ptr inside one rank's window slice. Returns the slice's rank
/// and the byte interval [lo, hi) the access covers (bytes == 0 extends to
/// the end of the slice), or rank -1 when ptr is not window memory.
struct LocalSlice {
  int rank = -1;
  std::ptrdiff_t lo = 0;
  std::ptrdiff_t hi = 0;
};

LocalSlice find_slice(const WinImpl& w, const void* ptr, std::size_t bytes) {
  LocalSlice out;
  const auto p = reinterpret_cast<std::uintptr_t>(ptr);
  for (int r = 0; r < w.comm.size(); ++r) {
    const auto b =
        reinterpret_cast<std::uintptr_t>(w.bases[static_cast<std::size_t>(r)]);
    const std::size_t sz = w.sizes[static_cast<std::size_t>(r)];
    if (sz == 0 || p < b || p >= b + sz) continue;
    out.rank = r;
    out.lo = static_cast<std::ptrdiff_t>(p - b);
    out.hi = bytes == 0
                 ? static_cast<std::ptrdiff_t>(sz)
                 : std::min(out.lo + static_cast<std::ptrdiff_t>(bytes),
                            static_cast<std::ptrdiff_t>(sz));
    return out;
  }
  return out;
}

}  // namespace

void Win::local_access_begin(const void* ptr, std::size_t bytes,
                             bool write) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  if (!core.checker().enabled()) return;
  RankContext& me = ctx();
  const int myrank = w.comm.group().rank_of_world(me.rank());
  if (myrank < 0) return;
  const LocalSlice s = find_slice(w, ptr, bytes);
  if (s.rank < 0 || s.lo >= s.hi) return;  // not exposed through this window

  std::lock_guard lk(core.mu());
  // The DLA discipline (ARMCI_Access_begin): holding an exclusive self-lock
  // -- or a lock_all epoch, whose MPI-3 unified-model semantics permit
  // direct access -- makes the load/store safe; anything else is checked
  // against the epochs currently exposing this memory.
  const TargetState& ts = w.targets[static_cast<std::size_t>(s.rank)];
  auto it = ts.open.find(myrank);
  const bool exclusive =
      it != ts.open.end() && it->second.type == LockType::exclusive;
  const bool covered =
      exclusive ||
      (it != ts.open.end() &&
       w.locked_target[static_cast<std::size_t>(myrank)] == detail::kLockAll);
  detail::record_local_begin(core, w, me, s.rank, myrank, s.lo, s.hi, write,
                             covered, exclusive);
}

void Win::local_access_end(const void* ptr) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  if (!core.checker().enabled()) return;
  const LocalSlice s = find_slice(w, ptr, 1);
  if (s.rank < 0) return;

  std::lock_guard lk(core.mu());
  detail::record_access_end(core, w, ctx(), s.rank, s.rank, s.lo);
}

void Win::shm_put(const void* origin, std::size_t bytes, int target_rank,
                  std::size_t target_disp) const {
  shm_op(RmaKind::put, Op::replace, BasicType::byte_, origin, bytes,
         target_rank, target_disp);
}

void Win::shm_get(void* origin, std::size_t bytes, int target_rank,
                  std::size_t target_disp) const {
  shm_op(RmaKind::get, Op::replace, BasicType::byte_, origin, bytes,
         target_rank, target_disp);
}

void Win::shm_acc(Op op, BasicType type, const void* origin, std::size_t bytes,
                  int target_rank, std::size_t target_disp) const {
  shm_op(RmaKind::acc, op, type, origin, bytes, target_rank, target_disp);
}

void Win::shm_op(RmaKind kind, Op op, BasicType type, const void* origin,
                 std::size_t bytes, int target_rank,
                 std::size_t target_disp) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  if (bytes == 0) return;
  me.fault().fault_point(me.clock());
  const char* site = kind == RmaKind::put   ? "win.shm_put"
                     : kind == RmaKind::get ? "win.shm_get"
                                            : "win.shm_acc";
  std::uint8_t* tptr = detail::require_shm(w, core, me, target_rank,
                                           target_disp, bytes, site);
  std::size_t count = 0;
  if (kind == RmaKind::acc) {
    const std::size_t esz = basic_type_size(type);
    if (bytes % esz != 0)
      raise(Errc::invalid_argument,
            "shm_acc length not a multiple of the element size");
    count = bytes / esz;
  }

  std::lock_guard lk(core.mu());
  core.check_failed_locked();
  core.check_target_alive_locked(w.comm.group().world_rank(target_rank),
                                 "win.shm_op");
  const auto lo = static_cast<std::ptrdiff_t>(target_disp);
  detail::record_shm_op(core, w, me, target_rank, myrank,
                        detail::access_kind(kind), op, lo,
                        lo + static_cast<std::ptrdiff_t>(bytes));
  auto* obase = static_cast<std::uint8_t*>(const_cast<void*>(origin));
  switch (kind) {
    case RmaKind::put:
      std::memcpy(tptr, obase, bytes);
      break;
    case RmaKind::get:
      std::memcpy(obase, tptr, bytes);
      break;
    case RmaKind::acc:
      apply_op(op, type, tptr, obase, count);
      break;
  }
  // Direct load/store: no lock or flush round trips, just the intra-node
  // copy. WinStats epoch counters are deliberately untouched -- the fast
  // path completing without epochs is an observable property tests assert.
  me.clock().advance(core.model().shm_copy_ns(bytes));
  core.note_time_locked(me.clock().now_ns());
}

void Win::shm_access_begin(int target_rank, std::size_t target_disp,
                           std::size_t bytes, bool write) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  if (!core.checker().enabled()) return;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);
  if (bytes == 0) return;
  detail::require_shm(w, core, me, target_rank, target_disp, bytes,
                      "win.shm_access_begin");

  std::lock_guard lk(core.mu());
  const auto lo = static_cast<std::ptrdiff_t>(target_disp);
  detail::record_shm_begin(core, w, me, target_rank, myrank, write, lo,
                           lo + static_cast<std::ptrdiff_t>(bytes));
}

void Win::shm_access_end(int target_rank, std::size_t target_disp) const {
  WinImpl& w = *impl_;
  SimCore& core = *w.comm.impl()->core;
  if (!core.checker().enabled()) return;
  RankContext& me = ctx();
  const int myrank = detail::require_member(w, me);

  std::lock_guard lk(core.mu());
  detail::record_access_end(core, w, me, target_rank, myrank,
                            static_cast<std::ptrdiff_t>(target_disp));
}

void* Win::base(int rank) const {
  return impl_->bases.at(static_cast<std::size_t>(rank));
}

std::size_t Win::size(int rank) const {
  return impl_->sizes.at(static_cast<std::size_t>(rank));
}

Comm Win::comm() const { return impl_->comm; }

std::uint64_t Win::id() const noexcept { return impl_->id; }

}  // namespace mpisim
