#ifndef ARMCI_MUTEX_HPP
#define ARMCI_MUTEX_HPP

/// \file mutex.hpp
/// MPI-RMA queueing mutexes (paper §V-D; algorithm of Latham, Ross & Thakur).
///
/// Each mutex hosted on process h is a byte vector B of length nproc in an
/// RMA window on h; B[i] == 1 means process i has requested the lock.
///
/// lock:   one exclusive epoch sets B[me] = 1 and fetches all other entries
///         (nonoverlapping, so legal within one epoch). If any other entry
///         is set, the caller is enqueued and blocks in a wildcard-source
///         receive -- waiting locally, generating no network traffic.
/// unlock: one exclusive epoch clears B[me] and fetches the others; the
///         vector is scanned circularly from me+1 (fairness) and, if a
///         waiter is found, a zero-byte message forwards the lock.
///
/// This is the most scalable one-sided mutual exclusion algorithm known for
/// MPI-2 RMA, and it also backs the per-GMR RMW mutex.
///
/// Survivable mode (mpisim::FaultPlan::survivable) extends each byte vector
/// with a *holder byte* H at index nproc (H == holder + 1, 0 == free),
/// published by the acquirer on a direct claim and by the releaser before
/// the token send on a handoff. When a peer dies, every waiter blocked in
/// the token receive is woken with Errc::crashed (once per death epoch); it
/// refetches the row, and if H names a dead rank the first live requester
/// circularly after the dead holder claims the lock -- so a mutex held by a
/// crashed process is reclaimed within the failure-detection bound instead
/// of hanging to the deadlock deadline. A releaser that finds no live
/// requester frees the lock with a *conditional* clear (compare-and-swap on
/// H against the value it last published): a new requester whose claim
/// epoch raced in after the releaser's flag-clearing epoch keeps its own
/// holder byte intact. Residual windows that stay unrecoverable (and are
/// documented in DESIGN.md): a crash between the request epoch and the
/// holder-byte publication, and a handoff token in flight from a releaser
/// that then dies while a *new* requester arrives mid-recovery.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/win.hpp"

namespace armci {

/// A set of queueing mutexes: every member of the communicator hosts
/// \p count mutexes (matching ARMCI_Create_mutexes, where each process
/// contributes `count` and lock(m, p) names mutex m hosted on p).
class QueueingMutexSet {
 public:
  QueueingMutexSet() = default;

  /// Collective over \p comm: allocate the byte-vector windows. \p tag_base
  /// reserves a tag range (one tag per hosted mutex) for the notification
  /// messages; callers must keep it disjoint from application tags.
  static QueueingMutexSet create(const mpisim::Comm& comm, int count,
                                 int tag_base);

  /// Collective destroy. No mutex may be held.
  void destroy();

  bool valid() const noexcept { return win_.valid(); }

  /// Number of mutexes hosted per member.
  int count() const noexcept { return count_; }

  /// Acquire mutex \p m hosted on group rank \p host (blocking, fair).
  void lock(int m, int host);

  /// Release mutex \p m hosted on group rank \p host.
  void unlock(int m, int host);

 private:
  /// One exclusive epoch on \p host: set this member's request flag of
  /// mutex \p m to \p flag, then fetch the flags below it and those above
  /// it. Returns every member's flag, with this member's own entry 0, in
  /// storage the next call reuses.
  const std::vector<std::uint8_t>& swap_flag(int m, int host,
                                             std::uint8_t flag);

  /// Publish the holder byte of mutex \p m on \p host (survivable mode).
  void put_holder(int m, int host, std::uint8_t value);

  /// Atomically clear the holder byte iff it still equals \p expected
  /// (survivable mode): keeps a racing claimant's publication intact.
  void clear_holder_if(int m, int host, std::uint8_t expected);

  mpisim::Comm comm_;
  mpisim::Win win_;
  int count_ = 0;
  int tag_base_ = 0;
  /// Backing storage for this member's hosted byte vectors
  /// (count * (nproc + 1) bytes: nproc request flags plus the holder byte),
  /// shared so copies of the handle stay valid.
  std::shared_ptr<std::vector<std::uint8_t>> bytes_;
  /// swap_flag's result (per rank: each member keeps its own handle).
  std::vector<std::uint8_t> flags_;
};

}  // namespace armci

#endif  // ARMCI_MUTEX_HPP
