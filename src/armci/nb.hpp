#ifndef ARMCI_NB_HPP
#define ARMCI_NB_HPP

/// \file nb.hpp
/// Nonblocking deferred-op aggregation engine with epoch coalescing.
///
/// The MPI-2 mapping pays one exclusive-lock passive epoch per ARMCI op
/// (paper §V-C), which makes per-op synchronization the dominant cost of
/// small-message streams. The nb_* API creates the opportunity to amortize
/// it: between two completion points the application has promised not to
/// touch the buffers involved, so ops bound for the same (GMR, target) can
/// be *deferred* into a queue and later coalesced into a single epoch --
/// N ops pay 1 lock/unlock instead of N.
///
/// Location consistency is preserved by construction:
///  - ops within one queue flush together in program order;
///  - each queue tracks the remote byte ranges it will read / write /
///    accumulate and the local ranges it will read / write in per-queue
///    flat range sets (mpisim::IntervalSet, as the RMA checker uses; they
///    keep their storage across flushes). A new op whose ranges conflict
///    -- under the MPI-2 same-origin rules: put vs anything, get vs
///    writes/accs, acc vs reads/writes or a different accumulate type --
///    forces the conflicting queue to flush *first*, so dependent ops are
///    never batched into one (unordered) epoch. This also keeps the RMA
///    validity checker silent: every batch handed to the backend is proven
///    conflict-free.
///  - blocking ops, fence/barrier, rmw, direct local access, frees, and the
///    wait family are flush points (api.cpp).
///
/// Each deferred op hands its Request a ticket (queue id + sequence
/// number); wait(req) drains exactly the queues the tickets name, and
/// Request::test() compares tickets against the queues' completed
/// sequence numbers.

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "src/armci/gmr.hpp"
#include "src/armci/types.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/interval_set.hpp"

namespace armci {

struct ProcState;
enum class OneSided;

/// One deferred operation, self-contained for later replay: the backend
/// needs no address translation at flush time.
struct NbOp {
  OneSided kind{};
  AccType at = AccType::float64;
  void* local = nullptr;     ///< origin base address
  std::size_t bytes = 0;     ///< payload bytes (stats / cost accounting)
  std::size_t offset = 0;    ///< displacement of the remote base in the
                             ///< target's slice
  bool typed = false;        ///< use ltype/rtype (strided and IOV ops)
  mpisim::Datatype ltype = mpisim::byte_type();
  mpisim::Datatype rtype = mpisim::byte_type();
};

/// Local-buffer contract coverage recorded for the race detector under the
/// rank's progress-persona identity: <space (window id), target rank in
/// that space> of a deferred op's local buffer that lies inside a global
/// allocation. Published (= retired) when the covering queue completes.
struct NbLocalSpace {
  std::uint64_t space = 0;
  int target_rank = -1;
};

/// Deferred ops bound for one (GMR, absolute target) pair, plus the range
/// bookkeeping that decides when a new op may join the batch.
struct NbQueue {
  std::shared_ptr<Gmr> gmr;
  int proc = -1;         ///< absolute target id
  int target_rank = -1;  ///< rank within gmr->group (== window rank)
  std::vector<NbOp> ops;

  // Remote coverage in target-slice offset space. Reads and writes are
  // kept disjoint from everything; accumulates may overlap each other
  // (same-op accumulate is well defined), so r_accs stores their union.
  mpisim::IntervalSet r_reads, r_writes, r_accs;
  // Local coverage in this process's address space: ranges queued ops will
  // read (put/acc sources) and write (get destinations).
  mpisim::IntervalSet l_reads, l_writes;

  /// Element types of the queued accs, one bit per AccType.
  std::uint8_t acc_types = 0;

  std::uint64_t seq_enqueued = 0;   ///< ticket of the newest queued op
  std::uint64_t seq_issued = 0;     ///< every ticket <= this is source-
                                    ///< complete (handed to the transport)
  std::uint64_t seq_completed = 0;  ///< every ticket <= this has flushed

  /// Progress-engine split completion: true between issue_queue() and the
  /// matching complete_target() (ops issued, target completion pending).
  /// Ops may keep arriving meanwhile; the range sets retain issued
  /// coverage until completion so conflicting newcomers force a flush.
  bool pending_flush = false;

  /// A persona-driven drain of this queue failed (e.g. Errc::crashed from
  /// a dead target): the error is parked here and surfaced exactly once at
  /// the next test()/callback/flush that covers the queue. The queue's
  /// tickets read complete (error-drain semantics, as after a failed
  /// flush).
  std::exception_ptr parked;

  /// Race-detector contract coverage awaiting retirement (see NbLocalSpace).
  std::vector<NbLocalSpace> local_spaces;
};

/// Per-process aggregation engine; lives in ProcState. All methods take the
/// owning state explicitly (the engine is a member of it).
class NbEngine {
 public:
  /// Try to defer a contiguous nb op. On success appends a ticket to
  /// \p req and returns true; on false the caller runs the eager path.
  /// May flush queues first when the new op conflicts with queued ones.
  bool try_defer_contig(ProcState& st, OneSided kind, const void* remote,
                        void* local, std::size_t bytes, int proc, AccType at,
                        const void* scale, Request& req);

  /// Strided variant (direct method only; others fall back to eager).
  bool try_defer_strided(ProcState& st, OneSided kind, const void* src,
                         void* dst, const StridedSpec& spec, int proc,
                         AccType at, const void* scale, Request& req);

  /// IOV variant: defers the whole descriptor list or none of it.
  bool try_defer_iov(ProcState& st, OneSided kind, std::span<const Giov> vec,
                     int proc, AccType at, const void* scale, Request& req);

  /// Drain every queue (wait_all, fence_all, barrier, finalize).
  void flush_all(ProcState& st);

  /// Drain every queue bound for \p proc (wait_proc, fence, rmw).
  void flush_proc(ProcState& st, int proc);

  /// Drain every queue on GMR \p gmr_id (access_begin, set_access_mode).
  void flush_gmr(ProcState& st, std::uint64_t gmr_id);

  /// flush_gmr + forget the queues: the GMR is being freed, so their
  /// tickets read as complete afterwards.
  void drop_gmr(ProcState& st, std::uint64_t gmr_id);

  /// Hazard fence ahead of a blocking operation: drains queues bound for
  /// \p proc (same-target program order) and queues whose local coverage
  /// conflicts with [local, local+bytes) -- any overlap when the blocking
  /// op writes the range, overlap with queued writes when it only reads.
  void flush_for_blocking(ProcState& st, int proc, const void* local,
                          std::size_t bytes, bool local_write);

  /// wait(req): drain the queues named by the request's tickets that have
  /// not already completed them.
  void complete(ProcState& st, const Request& req);

  /// Request::test() helper. Absent queues read as complete.
  bool ticket_complete(const NbTicket& t) const noexcept;

  /// Source-completion counterpart: true once the ticket's op has been
  /// handed to the transport (issued or completed). Absent queues read as
  /// complete.
  bool ticket_issued(const NbTicket& t) const noexcept;

  /// True when no op is queued anywhere.
  bool idle() const noexcept;

  // ---- cooperative progress engine ----

  /// One persona tick, fired from the rank's SimClock progress hook (under
  /// application compute) or an explicit armci::progress() poke. Advances
  /// every live queue by at most one stage -- issue the queued batch
  /// (source completion), or complete a previously issued batch at the
  /// target (operation completion + retirement) -- then dispatches any
  /// completion callbacks that became ready. A queue whose drain fails
  /// parks the error (NbQueue::parked) instead of throwing, so one dead
  /// target never stops progress on healthy queues. Re-entrant calls
  /// (a callback issuing communication) are no-ops.
  void progress_tick(ProcState& st);

  /// armci::test(): true once every ticket of \p req is satisfied at
  /// \p level. Surfaces (and consumes) a parked error from a covered queue
  /// by rethrowing it -- exactly once across test()/callback/flush.
  bool test(ProcState& st, const Request& req, Completion level);

  /// armci::on_complete(): invoke \p fn when every ticket of \p req is
  /// satisfied at \p level -- synchronously if that is already true,
  /// otherwise from a later progress tick or completion point. A parked
  /// error from a covered queue is consumed and delivered as the callback
  /// argument; nullptr on success.
  void on_complete(ProcState& st, const Request& req, Completion level,
                   std::function<void(std::exception_ptr)> fn);

 private:
  using QueueKey = std::pair<std::uint64_t, int>;  // (gmr id, absolute proc)

  /// True when deferral is even on the table for this op shape.
  bool engine_enabled(const ProcState& st) const;

  /// True if [p, p+bytes) must be staged (§V-E1) and is therefore not
  /// deferrable.
  bool local_needs_staging(const ProcState& st, const void* p,
                           std::size_t bytes) const;

  /// Flush queues conflicting with the new op, then append it. Returns the
  /// ticket sequence number.
  std::uint64_t enqueue(ProcState& st, const std::shared_ptr<Gmr>& gmr,
                        int proc, int target_rank, NbOp op,
                        std::size_t r_span, std::uintptr_t l_lo,
                        std::uintptr_t l_hi);

  /// Drain one queue through the backend.
  void flush(ProcState& st, NbQueue& q);

  /// Drain a set of queues at one completion point. With >= 2 non-empty
  /// queues the drains run under an mpisim::EpochPipeline, overlapping the
  /// per-target epoch round trips (the GA layer's owner pipelining). A
  /// failing queue (e.g. Errc::crashed from its target) does not stop the
  /// drain: every queue is flushed, and the first error is rethrown after.
  void flush_group(ProcState& st, std::span<NbQueue* const> group);

  /// True when \p q still needs a completion point (queued ops, an issued
  /// batch awaiting target completion, or a parked error to surface).
  static bool queue_live(const NbQueue& q) noexcept {
    return !q.ops.empty() || q.pending_flush || q.parked != nullptr;
  }

  /// Record the race-detector contract interval for a deferred op whose
  /// local buffer lies inside a global allocation (persona identity; see
  /// NbLocalSpace). No-op unless the progress engine and race detector are
  /// both on.
  void record_local_contract(ProcState& st, NbQueue& q, OneSided kind,
                             void* local, std::size_t bytes);

  /// Retirement: publish the queue's persona contract records and create
  /// the persona -> owner happens-before edge.
  void retire_queue(ProcState& st, NbQueue& q);

  /// Dispatch every registered completion callback whose request is now
  /// satisfied at its level. Called from progress ticks and completion
  /// points, never from enqueue paths (no user code re-entry mid-nb_put).
  void run_callbacks(ProcState& st);

  /// Take (and clear) the first parked error among the queues the tickets
  /// name; nullptr when none.
  std::exception_ptr take_parked(std::span<const NbTicket> tickets);

  /// One registered completion callback.
  struct CallbackRec {
    std::vector<NbTicket> tickets;
    Completion level = Completion::operation;
    std::function<void(std::exception_ptr)> fn;
  };

  std::map<QueueKey, NbQueue> queues_;
  std::vector<CallbackRec> callbacks_;
  bool ticking_ = false;  ///< progress_tick re-entrancy guard
};

/// Runtime-internal accessor for Request's ticket list.
class RequestAccess {
 public:
  static void add_ticket(Request& req, std::uint64_t gmr_id, int proc,
                         std::uint64_t seq) {
    req.tickets_.push_back(NbTicket{gmr_id, proc, seq});
  }
  static std::span<const NbTicket> tickets(const Request& req) noexcept {
    return req.tickets_;
  }
};

}  // namespace armci

#endif  // ARMCI_NB_HPP
