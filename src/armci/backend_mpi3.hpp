#ifndef ARMCI_BACKEND_MPI3_HPP
#define ARMCI_BACKEND_MPI3_HPP

/// \file backend_mpi3.hpp
/// ARMCI over MPI-3 RMA — the paper's §VIII-B projection, implemented.
///
/// The paper identifies four MPI-2 limitations and reports that the MPI-3
/// RMA proposal addresses all of them; this backend uses exactly those
/// features and is the shape the production ARMCI-MPI later took:
///
///  1. *Conflicting operations relaxed from erroneous to undefined* — all
///     communication runs inside one shared lock_all epoch per window;
///     puts are issued as accumulate(REPLACE) so concurrent updates are
///     element-atomic instead of erroneous.
///  2. *Epochless passive mode* — lock_all is taken once at allocation and
///     held for the window's lifetime; per-operation lock/unlock epochs
///     (and their serialization at the target) disappear. ARMCI's local
///     completion is the operation itself; remote completion (Fence) is
///     MPI_Win_flush.
///  3. *Operations pipeline between flushes* — only the first operation
///     after a flush pays wire latency.
///  4. *Atomic read-modify-write* — ARMCI_Rmw maps to MPI_Fetch_and_op
///     (SUM for fetch-and-add, REPLACE for swap): one operation instead of
///     the MPI-2 backend's mutex plus two exclusive epochs.
///
/// Direct local access needs no epoch gymnastics under the unified memory
/// model (flush + direct load/store), and global local buffers need no
/// staging copy: there is no second lock to acquire, hence no
/// double-locking or deadlock hazard (§V-E1 disappears).

#include <cstdint>
#include <vector>

#include "src/armci/backend.hpp"
#include "src/armci/iov.hpp"
#include "src/armci/mutex.hpp"

namespace armci {

class Mpi3Backend final : public CommBackend {
 public:
  explicit Mpi3Backend(ProcState* st) : st_(st) {}

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

  /// GMRs live in shared-memory windows (Win::allocate_shared): one block
  /// per node, so co-located ranks can load/store each other's slices.
  bool uses_shared_windows() const override { return true; }

  /// self and same-node contiguous ops take the direct load/store path
  /// (shm_contig) instead of the standing lock_all epoch.
  bool direct_path(const GmrLoc& loc) const override {
    return loc.locality != GmrLoc::Locality::remote &&
           loc.gmr->win.shared_memory();
  }

  /// Ops already pipeline under the standing lock_all epoch; deferral still
  /// pays off by batching the get-side flush: one flush per queue instead
  /// of one per blocking get (§VIII-B item 3).
  bool nb_defers() const override { return true; }

  /// Under the standing lock_all epoch a batch splits cleanly: issuing the
  /// operations is source completion, the single trailing flush is target
  /// completion -- exactly the halves the progress engine overlaps. Only a
  /// batch with a get leaves target completion pending: put/acc need no
  /// flush, as their blocking counterparts defer remote completion to
  /// fence too.
  bool issue_queue(const Gmr& gmr, int target_rank,
                   std::span<const NbOp> ops) override;
  void complete_target(const Gmr& gmr, int target_rank) override;

 private:
  /// One transfer against a resolved location under the standing lock_all
  /// epoch: \p count instances of \p ltype against as many of \p rtype.
  void issue(OneSided kind, const Gmr& gmr, int grank, std::size_t disp,
             void* local, std::size_t count, const mpisim::Datatype& ltype,
             const mpisim::Datatype& rtype, AccType at, const void* scale);

  /// The same-node fast path: a contiguous transfer against a self or
  /// co-located target via direct shared-memory access (Win::shm_put/
  /// shm_get/shm_acc) -- no epoch, no flush, memcpy-speed cost, with a
  /// CPU-atomic apply for accumulates.
  void shm_contig(OneSided kind, const GmrLoc& loc, void* local,
                  std::size_t bytes, AccType at, const void* scale);

  ProcState* st_;
  QueueingMutexSet user_mutexes_;
  IovScratch iov_;
  /// Scaled accumulates' staging buffer, taken through mpisim::Lease so a
  /// warm scaled op allocates nothing.
  std::vector<std::uint8_t> stage_;
};

}  // namespace armci

#endif  // ARMCI_BACKEND_MPI3_HPP
