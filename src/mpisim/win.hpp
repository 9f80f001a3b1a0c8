#ifndef MPISIM_WIN_HPP
#define MPISIM_WIN_HPP

/// \file win.hpp
/// Passive-target one-sided communication (MPI-2 RMA windows).
///
/// This is the API surface the paper's ARMCI-MPI port is written against,
/// with MPI-2 semantics enforced rather than merely documented:
///
///  - All data access must happen inside a passive-target access epoch
///    (lock() ... unlock()); an op outside an epoch raises Errc::no_epoch.
///  - An origin may hold at most one lock per window at a time; a second
///    lock() raises Errc::double_lock. This is the restriction that forces
///    ARMCI-MPI to stage communication whose *local* buffer is itself in
///    global space through a temporary buffer (paper §V-E1).
///  - Exclusive locks serialize with all other epochs on the target;
///    shared locks admit concurrent origins.
///  - Conflicting accesses (put/get overlap, put/put overlap, accumulate
///    mixed with put/get, accumulates with different ops on the same
///    location) -- whether within one epoch or across concurrent shared
///    epochs -- are *erroneous* in MPI-2; the RMA checker (Config::rma_check,
///    default abort) detects them and raises Errc::rma_conflict when the
///    epoch completes (unlock / flush / local-access end).
///  - Operations complete (locally and remotely) at unlock(); there is no
///    separate local-completion event, matching MPI-2.
///
/// Virtual-time accounting: lock/unlock charge epoch overheads, each
/// operation charges per-op issue cost, datatype-processing cost per
/// segment, serialization at the modeled MPI RMA bandwidth, and (on
/// registration-managed platforms) on-demand pinning of the local buffer.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/netmodel.hpp"

namespace mpisim {

/// Passive-target lock modes.
enum class LockType { shared, exclusive };

namespace detail {
struct WinImpl;
}

/// RAII scope that overlaps the initiator-blocked round-trip costs of
/// passive-target epochs opened to *distinct* targets.
///
/// Outside a scope, every lock/unlock (and MPI-3 flush) advances the
/// caller's virtual clock by the full request/acknowledge round trip, so k
/// epochs to k different targets serialize into k round trips even though a
/// real nonblocking runtime would have all k requests in flight at once.
/// Inside a scope those round-trip charges are diverted into per-(window,
/// target) chains instead; charges to the same target still sum (they
/// genuinely serialize at that target), and the scope's destructor advances
/// the clock once by the *longest* chain. Data-transfer, packing, and
/// target-occupancy costs are never diverted -- they stay serial on the
/// initiator -- and neither is the busy-until serialization of exclusive
/// locks, so contention semantics are unchanged.
///
/// Used by the ARMCI nonblocking aggregation engine when one completion
/// point drains queues bound for several targets (the GA layer's per-owner
/// pipelining). Scopes nest; an inner scope charges its own maximum at its
/// own exit. The active scope is per rank (RankContext::active_pipeline).
class EpochPipeline {
 public:
  EpochPipeline();
  ~EpochPipeline();
  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  /// The innermost scope on the calling rank, or nullptr.
  static EpochPipeline* active() noexcept;

  /// Divert \p ns of round-trip wait bound for \p target_rank of window
  /// \p win_id into that target's chain. Only the innermost scope
  /// (active()) takes charges.
  void defer_round_trip(std::uint64_t win_id, int target_rank, double ns);

  /// Longest chain accumulated so far (what the destructor will charge).
  double pending_ns() const;

 private:
  /// This scope's chains are RankContext::pipeline_chains[first_, end):
  /// scopes nest, so the rank's scopes share one stack and a warm scope
  /// allocates nothing.
  std::size_t first_ = 0;
  EpochPipeline* prev_ = nullptr;
};

/// Value handle to an RMA window. Cheap to copy; all copies refer to the
/// same collective window object.
class Win {
 public:
  Win() = default;

  /// Collectively create a window over \p comm exposing [base, base+bytes)
  /// on the calling rank. \p base may be null iff bytes == 0.
  static Win create(void* base, std::size_t bytes, const Comm& comm);

  /// Collectively allocate a shared-memory window exposing \p bytes on the
  /// calling rank (MPI_Win_allocate_shared with a node-spanning twist: one
  /// allocation per *node* of the NetworkModel's node map, with each
  /// co-located rank's segment carved out of its node's block). Ranks the
  /// model places on the same node may access each other's segments with
  /// direct loads and stores -- shm_put/shm_get/shm_acc -- without opening
  /// an epoch; cross-node access still requires ordinary RMA. The window
  /// owns the memory; base(rank) exposes each segment.
  static Win allocate_shared(std::size_t bytes, const Comm& comm);

  /// True when the window was created by allocate_shared().
  bool shared_memory() const noexcept;

  /// Collectively destroy the window. All epochs must be closed.
  void free();

  bool valid() const noexcept { return impl_ != nullptr; }

  /// Open a passive-target access epoch on \p target_rank.
  void lock(LockType type, int target_rank) const;

  /// Close the epoch on \p target_rank; completes all its operations.
  void unlock(int target_rank) const;

  // ---- MPI-3 epochless passive mode (paper §VIII-B) ----

  /// Open one shared-mode access epoch on *every* target at once
  /// (MPI_Win_lock_all). Cannot be combined with lock() by the same origin;
  /// close with unlock_all(). Together with flush() this is the epochless
  /// communication mode the MPI-3 RMA proposal introduced.
  void lock_all() const;

  /// Close the lock_all() epoch, completing all outstanding operations.
  void unlock_all() const;

  /// Complete all outstanding operations to \p target_rank without closing
  /// the epoch (MPI_Win_flush).
  void flush(int target_rank) const;

  /// flush() to every target (MPI_Win_flush_all).
  void flush_all() const;

  /// Contiguous byte put/get convenience wrappers.
  void put(const void* origin, std::size_t bytes, int target_rank,
           std::size_t target_disp) const;
  void get(void* origin, std::size_t bytes, int target_rank,
           std::size_t target_disp) const;

  /// General typed put: origin described by (origin, count, type), target
  /// by byte displacement + (count, type) relative to the target base.
  void put(const void* origin, std::size_t origin_count,
           const Datatype& origin_type, int target_rank,
           std::size_t target_disp, std::size_t target_count,
           const Datatype& target_type) const;

  void get(void* origin, std::size_t origin_count, const Datatype& origin_type,
           int target_rank, std::size_t target_disp, std::size_t target_count,
           const Datatype& target_type) const;

  /// Typed accumulate; \p op is applied element-wise at the target
  /// (Op::replace gives MPI_REPLACE).
  void accumulate(const void* origin, std::size_t origin_count,
                  const Datatype& origin_type, int target_rank,
                  std::size_t target_disp, std::size_t target_count,
                  const Datatype& target_type, Op op) const;

  // ---- MPI-3 atomic read-modify-write (paper §VIII-B) ----

  /// Atomically fetch the target data into \p result and combine \p origin
  /// into the target with \p op (MPI_Get_accumulate). Op::no_op with a null
  /// \p origin is an atomic fetch. Accumulate-class operations are
  /// element-atomic with respect to each other; no_op mixes with any other
  /// accumulate operator (MPI's same_op_no_op rule).
  void get_accumulate(const void* origin, void* result, std::size_t count,
                      const Datatype& type, int target_rank,
                      std::size_t target_disp, Op op) const;

  /// Single-element atomic fetch-and-op (MPI_Fetch_and_op).
  void fetch_and_op(const void* origin, void* result, BasicType type,
                    int target_rank, std::size_t target_disp, Op op) const;

  /// Single-element atomic compare-and-swap (MPI_Compare_and_swap): the
  /// target value is fetched into \p result, and replaced by \p origin iff
  /// it equals \p compare.
  void compare_and_swap(const void* origin, const void* compare, void* result,
                        BasicType type, int target_rank,
                        std::size_t target_disp) const;

  // ---- same-node direct access (shared-memory windows only) ----

  /// Direct store of \p bytes from \p origin into the segment of co-located
  /// \p target_rank at byte displacement \p target_disp. No epoch is taken
  /// and no lock/flush round trip is charged -- only the intra-node copy
  /// cost (NetworkModel::shm_copy_ns). Raises Errc::invalid_argument unless
  /// the window is shared_memory() and the target is on the caller's node.
  /// The RMA checker records the access (RmaChecker::shm_begin) and reports
  /// races against in-flight RMA on the same bytes.
  void shm_put(const void* origin, std::size_t bytes, int target_rank,
               std::size_t target_disp) const;

  /// Direct load counterpart of shm_put.
  void shm_get(void* origin, std::size_t bytes, int target_rank,
               std::size_t target_disp) const;

  /// Direct accumulate: applies \p op element-wise (element type \p type)
  /// into the co-located target's segment. Executed atomically with respect
  /// to RMA accumulates (the CPU-atomic path), so it conflicts only under
  /// the accumulate-mixing rules. \p bytes must be a multiple of the
  /// element size.
  void shm_acc(Op op, BasicType type, const void* origin, std::size_t bytes,
               int target_rank, std::size_t target_disp) const;

  /// Declare a held-open direct load/store of co-located \p target_rank's
  /// segment [target_disp, target_disp + bytes): the shared-memory analogue
  /// of local_access_begin for access that outlives one call (ARMCI access
  /// epochs onto a same-node slice). The checker reports conflicting RMA
  /// issued while the declaration is open.
  void shm_access_begin(int target_rank, std::size_t target_disp,
                        std::size_t bytes, bool write) const;

  /// End the declaration opened at \p target_disp; reports its pending
  /// violations (Errc::rma_conflict in abort mode).
  void shm_access_end(int target_rank, std::size_t target_disp) const;

  // ---- direct local access declaration (RMA validity checking) ----

  /// Declare that the caller is about to load/store [ptr, ptr+bytes) of its
  /// window memory directly (bytes == 0 extends to the end of the slice).
  /// With an exclusive self-epoch held -- the ARMCI DLA discipline -- the
  /// access is safe; otherwise the RMA checker (Config::rma_check) records
  /// it and reports conflicts with concurrent RMA epochs at
  /// local_access_end(). No-op when ptr is not window memory or checking is
  /// off.
  void local_access_begin(const void* ptr, std::size_t bytes,
                          bool write) const;

  /// End the direct access declared at \p ptr; reports its pending
  /// violations (Errc::rma_conflict in abort mode).
  void local_access_end(const void* ptr) const;

  /// Local base address exposed by \p rank (window-group rank). The caller
  /// must hold an appropriate epoch to actually dereference remote memory.
  void* base(int rank) const;

  /// Bytes exposed by \p rank.
  std::size_t size(int rank) const;

  /// The communicator the window was created over.
  Comm comm() const;

  /// Unique id (diagnostics).
  std::uint64_t id() const noexcept;

  bool operator==(const Win& other) const noexcept {
    return impl_ == other.impl_;
  }

 private:
  explicit Win(std::shared_ptr<detail::WinImpl> impl);

  /// The shared window state, built in one collective round over \p comm:
  /// the last member to arrive runs \p fill over every member's
  /// \p info_bytes input slot (null for a dead member) and hands the
  /// window to each live member. Raises Errc::crashed when comm rank 0 is
  /// dead, as the broadcast from rank 0 this round replaces did.
  static std::shared_ptr<detail::WinImpl> build(
      const Comm& comm, const void* info, std::size_t info_bytes,
      const std::function<void(detail::WinImpl&, const CollCtx&)>& fill);

  void rma_op(RmaKind kind, const void* origin, std::size_t origin_count,
              const Datatype& origin_type, int target_rank,
              std::size_t target_disp, std::size_t target_count,
              const Datatype& target_type, Op op) const;
  void shm_op(RmaKind kind, Op op, BasicType type, const void* origin,
              std::size_t bytes, int target_rank,
              std::size_t target_disp) const;

  std::shared_ptr<detail::WinImpl> impl_;
};

}  // namespace mpisim

#endif  // MPISIM_WIN_HPP
