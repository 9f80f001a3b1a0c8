#ifndef ARMCI_TYPES_HPP
#define ARMCI_TYPES_HPP

/// \file types.hpp
/// Public types of the ARMCI layer: configuration, IOV descriptors,
/// strided-operation notation, accumulate types, nonblocking handles.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace armci {

/// Which runtime implements the one-sided operations.
enum class Backend {
  mpi,     ///< the paper's contribution: ARMCI over MPI-2 passive RMA
  native,  ///< baseline: aggressively tuned vendor ARMCI (direct access)
  mpi3,    ///< the paper's §VIII-B projection: ARMCI over MPI-3 RMA
           ///< (epochless lock_all/flush, accumulate-based puts, atomic
           ///< fetch_and_op -- the design production ARMCI-MPI adopted)
};

/// Transfer method for generalized I/O vector operations (paper §VI-A/B).
enum class IovMethod {
  conservative,  ///< one RMA op per segment, each in its own epoch
  batched,       ///< up to B ops per epoch; segments must not overlap
  direct,        ///< one RMA op with an indexed datatype per side
  auto_,         ///< conflict-tree scan, then direct or conservative
};

/// Transfer method for strided operations (paper §VI-C).
enum class StridedMethod {
  direct,            ///< one RMA op with subarray datatypes
  iov_direct,        ///< translate to IOV (Algorithm 1), then IovMethod::direct
  iov_batched,       ///< translate to IOV, then IovMethod::batched
  iov_conservative,  ///< translate to IOV, then IovMethod::conservative
};

/// Element type of an accumulate operation (ARMCI_ACC_* equivalents).
enum class AccType {
  int32,   ///< ARMCI_ACC_INT
  int64,   ///< ARMCI_ACC_LNG
  float32, ///< ARMCI_ACC_FLT
  float64, ///< ARMCI_ACC_DBL
};

/// Bytes per element of an AccType.
std::size_t acc_type_size(AccType t) noexcept;

/// Access-mode hints (paper §VIII-A extension). Exclusive is always
/// correct; the others let ARMCI-MPI use shared-lock epochs when the
/// application guarantees the corresponding usage pattern for a phase.
enum class AccessMode {
  exclusive,        ///< default: all ops under exclusive epochs
  read_only,        ///< only get operations will target this allocation
  accumulate_only,  ///< only same-operator accumulates will target it
};

/// Runtime configuration, fixed at init(). Mirrors the environment knobs of
/// the real ARMCI-MPI (ARMCI_IOV_METHOD, ARMCI_IOV_BATCHED_LIMIT, ...).
struct Options {
  Backend backend = Backend::mpi;
  IovMethod iov_method = IovMethod::auto_;
  StridedMethod strided_method = StridedMethod::direct;
  /// Max RMA ops per epoch for IovMethod::batched; 0 = unlimited.
  std::size_t iov_batched_limit = 0;
  /// Skip the global-local-buffer staging copy (paper §V-E1). Safe only on
  /// coherent platforms whose MPI allows concurrent local access; provided
  /// because many MPI implementations extend the standard this way.
  bool no_local_copy = false;
  /// Record per-op virtual-time latency histograms (metrics.hpp). Off, the
  /// probes cost one branch per operation.
  bool metrics = false;
  /// Record begin/end trace events into a per-rank ring buffer, exportable
  /// as Chrome trace_event JSON (mpisim/trace.hpp).
  bool trace = false;
  /// Ring capacity (events per rank) when trace is on.
  std::size_t trace_capacity = 1 << 16;
  /// Max retries of an epoch that failed with a transient fault (injected
  /// via mpisim::FaultPlan) before the error propagates to the caller.
  int transient_max_retries = 5;
  /// Virtual-time backoff charged before the first retry; doubles per
  /// attempt (capped at 2^10 times this base).
  double retry_backoff_ns = 500.0;
  /// Decorrelated jitter factor for the retry backoff: > 0 replaces the
  /// deterministic exponential delay with a draw uniform in
  /// [backoff, min(cap, 3 * previous_delay * jitter)] from the rank's
  /// deterministic fault RNG, decorrelating retry storms across ranks while
  /// keeping runs reproducible per seed. 0 = pure exponential (default).
  double retry_jitter = 0.0;
  /// Cap on the *cumulative* virtual time one with_retry() scope may spend
  /// backing off. Once the total would exceed it, the transient error
  /// propagates (counted in Stats::retry_exhausted) even if attempts
  /// remain. 0 = no deadline (default).
  double retry_deadline_ns = 0.0;
  /// Defer nb_* operations into per-(GMR, target) queues and coalesce each
  /// queue into a single epoch at the next completion point (nb.hpp). Off,
  /// every nb_* op executes eagerly like its blocking counterpart.
  bool nb_aggregation = true;
  /// Entries kept in the LRU derived-datatype cache used by the direct
  /// strided/IOV paths (dtype_cache.hpp); 0 disables the cache.
  std::size_t dt_cache_capacity = 64;
  /// Cooperative progress engine (nb.hpp progress_tick): deferred nb
  /// queues drain from virtual-time ticks (Config::progress_interval_ns of
  /// compute, charged via SimClock::advance_compute) and explicit
  /// armci::progress() pokes, instead of only inside wait()/flush points.
  /// Requires nb_aggregation and a deferring backend to have any effect.
  /// Overridable at run time by the MPISIM_PROGRESS environment variable
  /// (on|off; unknown values warn on stderr and fall back to off).
  bool progress = false;
};

/// Generalized I/O vector descriptor (armci_giov_t): ptr_array_len segment
/// pairs of `bytes` bytes each.
struct Giov {
  std::vector<const void*> src;  ///< source address of each segment
  std::vector<void*> dst;        ///< destination address of each segment
  std::size_t bytes = 0;         ///< length of every segment
};

/// Strided operation descriptor in GA/ARMCI notation (paper Table I).
/// stride_levels == dimensionality - 1; count[0] is in bytes; the stride
/// arrays give byte displacements of each dimension from the base address.
struct StridedSpec {
  int stride_levels = 0;
  std::vector<std::size_t> count;        ///< length stride_levels + 1
  std::vector<std::size_t> src_strides;  ///< length stride_levels
  std::vector<std::size_t> dst_strides;  ///< length stride_levels
};

/// Names one deferred operation inside the nonblocking aggregation engine
/// (nb.hpp): the queue is keyed by (GMR id, absolute target proc) and `seq`
/// is the op's enqueue ticket within that queue. Internal to the runtime;
/// user code only sees it through Request.
struct NbTicket {
  std::uint64_t gmr_id = 0;
  int proc = -1;
  std::uint64_t seq = 0;
};

/// Handle for nonblocking operations. A handle returned by a deferred nb_*
/// op is *live*: it carries the queue-generation tickets of the ops it
/// covers, wait(req) drains exactly the queues those tickets name, and
/// test() reports whether every covered op has been flushed. Ops the engine
/// cannot defer (native backend, staged local buffers, non-identity
/// accumulate scales, ...) execute eagerly and return an empty -- hence
/// born-complete -- handle.
class Request {
 public:
  Request() = default;

  /// True once every operation this handle covers is locally complete.
  bool test() const noexcept;

  /// Absorb \p other's pending ops into this handle, making it a covering
  /// handle: wait(*this) then completes both. Used by callers that issue a
  /// batch of nb ops (one per target) and want one completion point without
  /// the indiscriminate flush of wait_all().
  void merge(const Request& other) {
    for (const NbTicket& t : other.tickets()) add(t);
  }

 private:
  friend class RequestAccess;

  /// Tickets kept inside the handle before the list moves to the heap:
  /// enough for a few GA accesses that each span a few owners, so a warm
  /// nb op and its covering handle allocate nothing.
  static constexpr std::size_t kInlineTickets = 8;

  std::span<const NbTicket> tickets() const noexcept {
    if (n_ <= kInlineTickets) return {inline_.data(), n_};
    return spill_;
  }
  void add(const NbTicket& t) {
    if (n_ < kInlineTickets) {
      inline_[n_++] = t;
      return;
    }
    if (n_ == kInlineTickets) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(t);
    ++n_;
  }

  std::array<NbTicket, kInlineTickets> inline_{};
  std::vector<NbTicket> spill_;  ///< every ticket, once n_ > kInlineTickets
  std::size_t n_ = 0;            ///< 0: nothing pending (eager path)
};

/// Completion level of a nonblocking operation, for armci::test() and
/// armci::on_complete(). `source` is local completion: the operation has
/// been handed to the transport and its local buffers are reusable (puts:
/// source captured; gets: NOT yet filled). `operation` is full completion:
/// target-side effects applied and get destinations filled -- the level
/// wait() provides.
enum class Completion {
  source,     ///< local (source) completion: buffers reusable
  operation,  ///< full completion at the target
};

/// Read-modify-write operations (ARMCI_Rmw). The *_long variants operate on
/// std::int64_t, the others on std::int32_t.
enum class RmwOp {
  fetch_and_add,
  fetch_and_add_long,
  swap,
  swap_long,
};

}  // namespace armci

#endif  // ARMCI_TYPES_HPP
