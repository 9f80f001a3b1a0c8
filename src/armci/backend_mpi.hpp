#ifndef ARMCI_BACKEND_MPI_HPP
#define ARMCI_BACKEND_MPI_HPP

/// \file backend_mpi.hpp
/// ARMCI over MPI-2 passive-target RMA — the paper's contribution (§V-§VI).
///
/// Responsibilities:
///  - each ARMCI op runs in its own (normally exclusive) lock epoch, which
///    yields location consistency and remote completion on return (§V-C/F);
///  - local buffers that are themselves in global space are staged through
///    a temporary buffer under a self-epoch, never holding two window locks
///    at once (§V-E1);
///  - IOV transfers via the conservative / batched(B) / direct / auto
///    methods (§VI-A/B) and strided transfers via subarray datatypes or
///    Algorithm-1 IOV translation (§VI-C);
///  - RMW through the per-GMR queueing mutex in two epochs (§V-D);
///  - access-mode hints downgrade exclusive to shared epochs (§VIII-A).

#include <cstdint>
#include <memory>
#include <vector>

#include "src/armci/backend.hpp"
#include "src/armci/iov.hpp"
#include "src/armci/mutex.hpp"

namespace armci {

class MpiBackend final : public CommBackend {
 public:
  explicit MpiBackend(ProcState* st) : st_(st) {}

  void gmr_created(Gmr& gmr) override;
  void gmr_freeing(Gmr& gmr) override;

  void contig(OneSided kind, const GmrLoc& loc, void* local,
              std::size_t bytes, AccType at, const void* scale) override;
  void iov(OneSided kind, std::span<const Giov> vec, int proc, AccType at,
           const void* scale) override;
  void strided(OneSided kind, const void* src, void* dst,
               const StridedSpec& spec, int proc, AccType at,
               const void* scale) override;

  void fence(int proc) override;
  void fence_all() override;

  void rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra,
           int proc) override;

  void mutexes_create(int count) override;
  void mutexes_destroy() override;
  void mutex_lock(int m, int proc) override;
  void mutex_unlock(int m, int proc) override;

  void access_begin(const GmrLoc& loc) override;
  void access_end(const GmrLoc& loc) override;

  /// Per-op exclusive epochs dominate small-op streams here, so deferred
  /// batches pay off: N ops in one epoch instead of N (§V-C amortized).
  bool nb_defers() const override { return true; }
  /// The whole batch in one epoch: complete at issue, hence false.
  bool issue_queue(const Gmr& gmr, int target_rank,
                   std::span<const NbOp> ops) override;

 private:
  /// Lock mode for an epoch on \p gmr given the op kind and the GMR's
  /// access-mode hint (§VIII-A).
  mpisim::LockType epoch_lock(const Gmr& gmr, OneSided kind) const;

  /// True if [p, p+bytes) intersects global space on this process, i.e.
  /// the op needs the §V-E1 staging path.
  bool local_is_global(const void* p, std::size_t bytes) const;

  /// Copy between a local global-space region and a private buffer under an
  /// exclusive self-epoch on the containing window.
  void staged_local_copy(void* dst, const void* src, std::size_t bytes,
                         const void* global_side) const;

  /// §V-E1 for an IOV descriptor: when a local segment is in global space
  /// or an accumulate needs scaling, size \p temp to hold every segment
  /// packed, gather the put/acc sources into it (scaled) and return true.
  /// Returns false, leaving \p temp untouched, when the descriptor needs no
  /// staging.
  bool stage_iov_in(OneSided kind, const Giov& giov, AccType at,
                    const void* scale, std::vector<std::uint8_t>& temp) const;

  /// Scatter a staged get's packed segments back to giov.dst.
  void unstage_iov_out(const Giov& giov,
                       const std::vector<std::uint8_t>& temp) const;

  /// One IOV descriptor with a forced method (strided ops delegate here).
  void iov_one(OneSided kind, const Giov& giov, int proc, AccType at,
               const void* scale, IovMethod method);

  void iov_conservative(OneSided kind, const Giov& giov, int proc, AccType at,
                        const void* scale);
  void iov_batched(OneSided kind, const Giov& giov, int proc, AccType at,
                   const void* scale);
  void iov_direct(OneSided kind, const Giov& giov, int proc, AccType at,
                  const void* scale);

  ProcState* st_;
  QueueingMutexSet user_mutexes_;
  IovScratch iov_;
  /// The staging buffer of §V-E1 copies and scaled accumulates, taken
  /// through mpisim::Lease so a warm staged op allocates nothing.
  std::vector<std::uint8_t> stage_;
};

}  // namespace armci

#endif  // ARMCI_BACKEND_MPI_HPP
