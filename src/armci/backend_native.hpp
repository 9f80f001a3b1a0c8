#ifndef ARMCI_BACKEND_NATIVE_HPP
#define ARMCI_BACKEND_NATIVE_HPP

/// \file backend_native.hpp
/// The "ARMCI-Native" baseline: a model of the aggressively tuned vendor
/// ARMCI implementations the paper compares against.
///
/// Data movement is direct remote-memory access (the simulator's shared
/// address space stands in for RDMA), costed on the native path of the
/// platform profile: no epoch overheads, pre-pinned allocations, a
/// communication-helper-thread (CHT) rate for accumulates, and per-segment
/// costs for the natively tuned strided/IOV engines. Semantics follow
/// ARMCI: put/acc are *locally* complete on return and remotely complete
/// only after fence(); get is fully complete on return; mutexes and RMW are
/// serviced host-side (CHT), and direct local access needs no epochs.

#include <set>
#include <vector>

#include "src/armci/backend.hpp"

namespace armci {

class NativeBackend final : public CommBackend {
 public:
  explicit NativeBackend(ProcState* st) : st_(st) {}

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

 private:
  /// Move one segment directly, in one critical section. The
  /// <gmr, target_rank, offset> locate the remote bytes for the race
  /// detector: native transfers never open an epoch, so each segment is
  /// checked and published as one atomic direct access.
  void move_segment(OneSided kind, const Gmr& gmr, int target_rank,
                    std::size_t offset, void* remote, void* local,
                    std::size_t bytes, AccType at, const void* scale) const;

  /// True if the local buffer came from the pre-pinned pool (ARMCI_Malloc /
  /// ARMCI_Malloc_local); unpinned buffers take the slower path (Fig. 5).
  bool local_pinned(const void* p, std::size_t bytes) const;

  ProcState* st_;
  std::set<int> pending_remote_;  ///< targets with un-fenced put/acc
  /// Strided ops' StridedIter counters, taken through mpisim::Lease so a
  /// warm strided op allocates nothing.
  std::vector<std::size_t> strided_idx_;
};

}  // namespace armci

#endif  // ARMCI_BACKEND_NATIVE_HPP
