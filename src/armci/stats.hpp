#ifndef ARMCI_STATS_HPP
#define ARMCI_STATS_HPP

/// \file stats.hpp
/// Per-process operation statistics (the analogue of ARMCI's profiling
/// interface). Counters are incremented at the public API layer, so they
/// are backend-independent: one put() is one put regardless of how the
/// backend maps it onto epochs or datatypes. Useful for performance
/// debugging ("how many strided operations did this GA_Put decompose
/// into?") and exercised by the test suite to pin down the decomposition
/// behaviour of the layers above.

#include <cstdint>

namespace armci {

/// The counter table: one entry per Stats field, in armci-metrics-v1 order.
/// The struct below and the JSON writer (metrics.cpp) both expand it.
///  - C(section, name): a std::uint64_t counter, exported as "name" in the
///    armci-metrics-v1 object \p section (counters or am).
///  - P(type, name, key): a progress-engine entry, exported as progress.key.
///
/// The groups, in table order:
///  - Contiguous one-sided operations, then noncontiguous ones (one per
///    ARMCI_PutS/GetS/AccS or ARMCI_PutV/GetV/AccV call), with payload bytes.
///  - Synchronization, atomics and memory management.
///  - Direct local access epochs (ARMCI_Access_begin/end pairs, paper §V-E).
///  - Staging copies of local buffers that themselves live in global space
///    (paper §V-E1): each one is an extra exclusive self-epoch plus a
///    memcpy, so this counter exposes a hidden cost of the MPI mapping.
///  - Fault handling (mpisim::FaultPlan injection).
///  - RMA validity violations (mpisim checker, Config::rma_check) and
///    happens-before races (mpisim::HbChecker, MPISIM_RMA_CHECK=race)
///    attributed to this process since the last reset_stats(). Zero on
///    every correct run; stats() syncs them from the detectors.
///  - The nonblocking aggregation engine (nb.hpp), the derived-datatype
///    cache of the direct strided/IOV paths (dtype_cache.hpp) and GA-layer
///    owner pipelining (ga/ga.cpp, ga/ga_gather.cpp): ga_owner_fanout /
///    ga_multi_owner_ops is the mean owner count of a multi-owner access.
///  - Locality of contiguous operations (blocking and deferred) under the
///    NetworkModel's node map. self and same_node ops are eligible for the
///    backend's shared-memory fast path.
///  - Survivable-mode recovery (mpisim::FaultPlan::survivable).
///  - The active-message layer (src/am).
///  - The cooperative progress engine (nb.hpp progress_tick,
///    Options::progress) and the compute/communication overlap measured by
///    the virtual clock (SimClock::advance_compute): virtual time spent
///    communicating inside ticks, and the share of it that fell under
///    compute the application had already paid for, i.e. hidden latency.
#define ARMCI_STATS(C, P)                                                    \
  C(counters, puts)                                                          \
  C(counters, gets)                                                          \
  C(counters, accs)                                                          \
  C(counters, put_bytes)                                                     \
  C(counters, get_bytes)                                                     \
  C(counters, acc_bytes)                                                     \
  C(counters, strided_ops)           /* ARMCI_PutS/GetS/AccS calls */        \
  C(counters, strided_bytes)                                                 \
  C(counters, iov_ops)               /* ARMCI_PutV/GetV/AccV calls */        \
  C(counters, iov_bytes)                                                     \
  C(counters, iov_segments)          /* segments over all IOV calls */       \
  C(counters, rmws)                                                          \
  C(counters, mutex_locks)                                                   \
  C(counters, fences)                                                        \
  C(counters, barriers)                                                      \
  C(counters, allocations)                                                   \
  C(counters, frees)                                                         \
  C(counters, dla_epochs)            /* ARMCI_Access_begin/end pairs */      \
  C(counters, staged_local_copies)   /* self-epoch + memcpy each */          \
  C(counters, transient_faults)      /* transient faults hit */              \
  C(counters, retries)               /* epochs retried after one */          \
  C(counters, retry_exhausted)       /* ops that ran out of retries */       \
  C(counters, rma_conflicts)         /* checker violations */                \
  C(counters, rma_races)             /* happens-before races */              \
  C(counters, nb_ops)                /* nb_* API calls */                    \
  C(counters, nb_deferred)           /* deferred into a queue */             \
  C(counters, nb_eager)              /* executed eagerly */                  \
  C(counters, nb_conflict_flushes)   /* drains forced by a conflict */       \
  C(counters, flushed_queues)        /* queue drains, any cause */           \
  C(counters, coalesced_epochs)      /* drains of >= 2 ops in one epoch */   \
  C(counters, dt_cache_hits)         /* types served from the cache */       \
  C(counters, dt_cache_misses)       /* types built fresh */                 \
  C(counters, ga_multi_owner_ops)    /* accesses over >= 2 owners */         \
  C(counters, ga_owner_fanout)       /* owners summed over those */          \
  C(counters, ga_nb_batches)         /* owner batches via the nb engine */   \
  C(counters, ops_self)              /* target is the caller */              \
  C(counters, ops_same_node)         /* target on the caller's node */       \
  C(counters, ops_remote)            /* target on another node */            \
  C(counters, failovers)             /* GA reads served by a replica */      \
  C(counters, replica_writes)        /* write-through replica copies */      \
  C(am, am_sent)                     /* rpc + fire-and-forget requests */    \
  C(am, am_served)                   /* inbound requests served here */      \
  C(am, am_terminations)             /* am::quiesce waits completed */       \
  P(std::uint64_t, progress_ticks, ticks) /* persona ticks fired */          \
  P(std::uint64_t, progress_retires, retires) /* queues retired by a tick */ \
  P(double, overlap_comm_ns, overlap_comm_ns) /* tick comm time */           \
  P(double, overlap_hidden_ns, overlap_hidden_ns) /* of which hidden */

/// Cumulative operation counters for the calling process (see ARMCI_STATS).
struct Stats {
#define ARMCI_STATS_COUNTER_FIELD(section, name) std::uint64_t name = 0;
#define ARMCI_STATS_PROGRESS_FIELD(type, name, key) type name = 0;
  ARMCI_STATS(ARMCI_STATS_COUNTER_FIELD, ARMCI_STATS_PROGRESS_FIELD)
#undef ARMCI_STATS_COUNTER_FIELD
#undef ARMCI_STATS_PROGRESS_FIELD

  /// Fraction of progress-engine communication time hidden under
  /// application compute (0 when the engine never ran). 1.0 = perfect
  /// overlap: every communication nanosecond was paid for by compute.
  double overlap_efficiency() const noexcept {
    return overlap_comm_ns > 0.0 ? overlap_hidden_ns / overlap_comm_ns : 0.0;
  }

  /// Total one-sided data volume (all op classes).
  std::uint64_t total_bytes() const noexcept {
    return put_bytes + get_bytes + acc_bytes + strided_bytes + iov_bytes;
  }
};

/// Counters of the calling process (valid between init() and finalize()).
const Stats& stats();

/// Zero the calling process's counters.
void reset_stats();

}  // namespace armci

#endif  // ARMCI_STATS_HPP
