#ifndef ARMCI_GMR_HPP
#define ARMCI_GMR_HPP

/// \file gmr.hpp
/// Global Memory Regions (paper §V, §V-A, §V-B).
///
/// GMR is the layer that aligns ARMCI's PGAS address space with MPI RMA:
/// ARMCI communicates on global addresses <absolute proc id, address>, MPI
/// on <window, rank-in-window, displacement>. Every collective allocation
/// creates one GMR handle holding the MPI window, the allocation group, and
/// the per-member base addresses; a per-process translation table maps any
/// (proc, address) back to the owning GMR, its window rank, and the
/// displacement. The table is replicated on every process (as in real
/// ARMCI), since translation must work without communication.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/armci/groups.hpp"
#include "src/armci/mutex.hpp"
#include "src/armci/types.hpp"
#include "src/mpisim/win.hpp"

namespace armci {

/// Deleter for raw max-aligned storage from ::operator new.
struct OpDelete {
  void operator()(void* p) const noexcept { ::operator delete(p); }
};

/// One global allocation. Instances are replicated per process; the mpisim
/// handles inside (Win, Comm) refer to shared state.
struct Gmr {
  std::uint64_t id = 0;
  PGroup group;  ///< allocation group (absolute-id member list)

  /// Owning handle for *this* process's slice. bases[group.rank()] aliases
  /// it. Ownership lives here (not in the translation table) so the slice
  /// is released even when a fault aborts the run before the collective
  /// free -- ~ProcState tears down the table, which drops the last Gmr
  /// reference, which frees the memory.
  std::unique_ptr<void, OpDelete> local_slice;

  /// Base address and size of each member's slice, indexed by group rank;
  /// zero-size slices have null bases (paper §V-B).
  std::vector<void*> bases;
  std::vector<std::size_t> sizes;

  /// Backend::mpi only: the RMA window exposing the allocation.
  mpisim::Win win;

  /// Backend::mpi only: this GMR's RMW mutex (paper §V-D: "we associate a
  /// mutex with each GMR"). One mutex is hosted per member so RMW ops on
  /// different targets do not contend.
  std::shared_ptr<QueueingMutexSet> rmw_mutex;

  /// Access-mode hint for epoch lock selection (paper §VIII-A).
  AccessMode mode = AccessMode::exclusive;
};

/// Result of a global-address translation.
struct GmrLoc {
  /// Where the target's slice lives relative to the calling process, under
  /// the NetworkModel's node map. self and same_node targets are eligible
  /// for the shared-memory fast path (direct load/store instead of a
  /// lock/flush epoch) when the backend supports it.
  enum class Locality { self, same_node, remote };

  std::shared_ptr<Gmr> gmr;
  int target_rank = -1;    ///< rank in the GMR's group (== window rank)
  std::size_t offset = 0;  ///< byte displacement within the target's slice
  Locality locality = Locality::remote;
};

/// Indices into a GmrLoc list grouped by GMR (group_by_gmr). Reused from
/// call to call, it allocates nothing once warm.
struct GmrGroups {
  std::vector<const Gmr*> keys;       ///< each group's GMR
  std::vector<std::size_t> group_of;  ///< the group of each loc
  std::vector<std::size_t> index;     ///< loc indices, group after group
  std::vector<std::size_t> ends;      ///< where each group ends in index

  std::size_t size() const noexcept { return ends.size(); }
  /// The loc indices of group \p g, ascending.
  std::span<const std::size_t> operator[](std::size_t g) const noexcept {
    const std::size_t begin = g == 0 ? 0 : ends[g - 1];
    return {index.data() + begin, ends[g] - begin};
  }
};

/// Group the indices of \p locs by GMR into \p out, the groups in order of
/// first appearance. Never ordered by GMR address: that would tie the issue
/// order to the heap layout.
void group_by_gmr(std::span<const GmrLoc> locs, GmrGroups& out);

/// Per-process translation table from (absolute proc, address) to GMR.
class GmrTable {
 public:
  explicit GmrTable(int world_size);

  /// Register \p gmr for every member with a nonempty slice.
  void insert(std::shared_ptr<Gmr> gmr);

  /// Remove \p gmr from all indexes.
  void remove(const Gmr& gmr);

  /// Translate (proc, addr). Returns a loc with null gmr if the address is
  /// not global on \p proc. When \p bytes > 0 the whole range
  /// [addr, addr+bytes) must lie inside one slice.
  GmrLoc find(int proc, const void* addr, std::size_t bytes = 0) const;

  /// Translate or throw Errc::invalid_argument with a diagnostic.
  GmrLoc require(int proc, const void* addr, std::size_t bytes = 0) const;

  /// True if [addr, addr+bytes) intersects any global slice on \p proc
  /// (used for the local-buffer-in-global-space check, paper §V-E1).
  bool overlaps_global(int proc, const void* addr, std::size_t bytes) const;

  /// All distinct GMRs currently registered (finalize-time cleanup).
  std::vector<std::shared_ptr<Gmr>> all() const;

  bool empty() const noexcept;

 private:
  // Per absolute proc: slice base address -> owning GMR.
  std::vector<std::map<std::uintptr_t, std::shared_ptr<Gmr>>> by_proc_;
};

}  // namespace armci

#endif  // ARMCI_GMR_HPP
