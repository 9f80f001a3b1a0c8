#ifndef ARMCI_STATE_HPP
#define ARMCI_STATE_HPP

/// \file state.hpp
/// Per-process ARMCI runtime state, anchored in the simulated process's
/// RankContext (so independent ranks have independent ARMCI instances even
/// though they share an OS address space).

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/armci/backend.hpp"
#include "src/armci/dtype_cache.hpp"
#include "src/armci/gmr.hpp"
#include "src/armci/groups.hpp"
#include "src/armci/metrics.hpp"
#include "src/armci/nb.hpp"
#include "src/armci/stats.hpp"
#include "src/armci/types.hpp"

namespace armci {

/// Everything one simulated process knows about its ARMCI runtime.
struct ProcState {
  Options opts;
  PGroup world;
  GmrTable table;
  std::unique_ptr<CommBackend> backend;

  /// Open direct-local-access epochs: region base -> its GMR (paper §V-E).
  std::map<void*, GmrLoc> open_accesses;

  /// ARMCI_Malloc_local allocations (pre-pinned pool on the native path).
  std::map<void*, std::unique_ptr<std::uint8_t[]>> local_allocs;

  /// World mutex set status (ARMCI allows at most one at a time).
  bool mutexes_exist = false;
  int mutex_count = 0;

  /// Native-backend mutex state hosted by *this* process; peers reach it
  /// through the host's RankContext under the simulator's global lock
  /// (modeling the communication helper thread that services requests).
  struct NativeMutex {
    int holder = -1;
    std::deque<int> queue;
  };
  std::vector<NativeMutex> native_mutexes;

  /// Virtual time until which this process's NIC is busy serving native
  /// one-sided transfers (wire occupancy shared by all initiators).
  double nat_nic_busy_ns = 0.0;

  /// Deferred nonblocking-op queues (see nb.hpp).
  NbEngine nb;

  /// Derived-datatype cache for the direct strided/IOV paths; capacity set
  /// from Options::dt_cache_capacity at init().
  DatatypeCache dt_cache;

  /// Operation counters (see stats.hpp).
  Stats stats;

  /// RMA-checker violation total at the last reset_stats(): the checker's
  /// counters are cumulative per run, Stats::rma_conflicts is relative.
  std::uint64_t rma_conflicts_baseline = 0;

  /// Race-detector violation total at the last reset_stats() (same
  /// cumulative-to-relative conversion for Stats::rma_races).
  std::uint64_t rma_races_baseline = 0;

  /// SimClock overlap-gauge values at the last reset_stats(): the clock's
  /// progress_comm_ns/progress_hidden_ns accumulate per run, the Stats
  /// overlap fields are relative to the last reset.
  double overlap_comm_baseline = 0.0;
  double overlap_hidden_baseline = 0.0;

  /// Per-op latency histograms (see metrics.hpp), on when opts.metrics.
  MetricsRegistry metrics;

  /// Active-message layer state (src/am), attached by am::init(). Opaque
  /// here so armci does not depend on the layer above it; lifetime is tied
  /// to the ARMCI instance so an aborted run tears both down together.
  std::shared_ptr<void> am_state;

  /// Serve hook installed by am::init(): drains inbound active messages.
  /// Called from the progress persona and armci::progress() when set.
  std::function<void()> am_poll;

  explicit ProcState(int world_size) : table(world_size) {}
};

/// Count one contiguous op in the Stats locality split of its target.
inline void count_locality(Stats& s, const GmrLoc& loc) {
  switch (loc.locality) {
    case GmrLoc::Locality::self: ++s.ops_self; break;
    case GmrLoc::Locality::same_node: ++s.ops_same_node; break;
    case GmrLoc::Locality::remote: ++s.ops_remote; break;
  }
}

/// State of the calling process; throws unless init() has been called.
ProcState& state();

/// Null if ARMCI is not initialized on this process.
ProcState* state_if_initialized() noexcept;

}  // namespace armci

#endif  // ARMCI_STATE_HPP
