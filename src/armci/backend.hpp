#ifndef ARMCI_BACKEND_HPP
#define ARMCI_BACKEND_HPP

/// \file backend.hpp
/// The backend interface both ARMCI implementations satisfy.
///
/// The public ARMCI API (armci.hpp) validates arguments, resolves global
/// addresses through the GMR table, and dispatches here. MpiBackend
/// (backend_mpi.*) is the paper's contribution; NativeBackend
/// (backend_native.*) is the tuned-vendor-ARMCI baseline the paper
/// compares against.

#include <cstdint>
#include <span>

#include "src/armci/gmr.hpp"
#include "src/armci/nb.hpp"
#include "src/armci/types.hpp"

namespace armci {

struct ProcState;

/// Kind of one-sided data transfer.
enum class OneSided { put, get, acc };

/// Per-process backend instance. All methods are called by the owning
/// rank; collective methods are documented as such.
class CommBackend {
 public:
  virtual ~CommBackend() = default;

  /// Backend-specific GMR setup (window/mutex creation). Collective over
  /// gmr.group; called by malloc after the base-address exchange.
  virtual void gmr_created(Gmr& gmr) = 0;

  /// Backend-specific GMR teardown. Collective over gmr.group.
  virtual void gmr_freeing(Gmr& gmr) = 0;

  /// Contiguous transfer between the local buffer \p local and the global
  /// location \p loc. For acc, \p scale points to one AccType element
  /// (never null here; identity is still applied via MPI_SUM).
  virtual void contig(OneSided kind, const GmrLoc& loc, void* local,
                      std::size_t bytes, AccType at, const void* scale) = 0;

  /// Generalized I/O vector transfer to/from \p proc (absolute id).
  virtual void iov(OneSided kind, std::span<const Giov> vec, int proc,
                   AccType at, const void* scale) = 0;

  /// Strided transfer in GA/ARMCI notation to/from \p proc.
  virtual void strided(OneSided kind, const void* src, void* dst,
                       const StridedSpec& spec, int proc, AccType at,
                       const void* scale) = 0;

  /// Remote completion of prior put/acc to \p proc.
  virtual void fence(int proc) = 0;
  virtual void fence_all() = 0;

  /// Atomic read-modify-write on a global location (paper §V-D).
  virtual void rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra,
                   int proc) = 0;

  /// World mutexes (ARMCI_Create_mutexes family). create/destroy are
  /// collective over the world.
  virtual void mutexes_create(int count) = 0;
  virtual void mutexes_destroy() = 0;
  virtual void mutex_lock(int m, int proc) = 0;
  virtual void mutex_unlock(int m, int proc) = 0;

  /// Direct local access (paper §V-E): \p loc is on the calling process.
  virtual void access_begin(const GmrLoc& loc) = 0;
  virtual void access_end(const GmrLoc& loc) = 0;

  /// True when this backend exposes GMRs through shared-memory windows
  /// (Win::allocate_shared): malloc leaves the slice allocation to the
  /// window, which owns one node-spanning block per node, instead of
  /// allocating a private local slice.
  virtual bool uses_shared_windows() const { return false; }

  /// True when \p loc is served by the backend's direct same-node data path
  /// (shared-memory load/store instead of an epoch). The nb engine must not
  /// defer such ops: the eager path already completes them at memcpy speed,
  /// and batching them into a flush epoch would only add round trips.
  virtual bool direct_path(const GmrLoc& loc) const {
    (void)loc;
    return false;
  }

  /// True if this backend accepts deferred nb_* batches via issue_queue().
  /// False (the default) makes every nb_* op execute eagerly through the
  /// blocking entry points above -- correct for backends whose per-op
  /// synchronization is already cheap (native).
  virtual bool nb_defers() const { return false; }

  /// Issue one conflict-free batch of deferred ops bound for a target rank
  /// of a GMR, completing them locally before returning (nb.hpp). Returns
  /// true when target completion is still pending, to be finished by
  /// complete_target() (the MPI-3 split: issuing is source completion, the
  /// trailing flush is target completion, so the progress engine can land
  /// the wait under application compute). Only called when nb_defers() is
  /// true, hence the no-op default.
  virtual bool issue_queue(const Gmr& /*gmr*/, int /*target_rank*/,
                           std::span<const NbOp> /*ops*/) {
    return false;
  }

  /// Complete at the target everything previously started by issue_queue()
  /// for <gmr, target_rank>. Only called after issue_queue() returned true.
  virtual void complete_target(const Gmr& /*gmr*/, int /*target_rank*/) {}
};

}  // namespace armci

#endif  // ARMCI_BACKEND_HPP
