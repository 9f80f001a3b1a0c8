#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

/// \file layers.hpp
/// Turning run logs into named metrics. The end-to-end metrics come from
/// the untraced run; the per-layer metrics from the traced one. Every
/// per-layer metric is emitted for every workload, so a layer a workload
/// bypasses reads zero. The names here are the ones BENCHMARK.json lists;
/// run.py refuses a result whose names or units differ from it.

#include <cstdint>
#include <vector>

#include "harness.hpp"

namespace pb {

/// The ARMCI counters the metrics use, summed over ranks.
struct Counters {
  std::uint64_t rma_calls = 0;  ///< contiguous + strided + IOV + rmw calls
  std::uint64_t bytes = 0;
  std::uint64_t rmws = 0;
  std::uint64_t nb_ops = 0, nb_deferred = 0;
  std::uint64_t flushed_queues = 0, coalesced_epochs = 0;
  std::uint64_t dt_hits = 0, dt_misses = 0;
  std::uint64_t staged_local_copies = 0, retries = 0, rma_conflicts = 0;
  std::uint64_t ga_multi_owner_ops = 0, ga_owner_fanout = 0;
  std::uint64_t ga_nb_batches = 0;
  std::uint64_t am_sent = 0, am_served = 0;

  Counters& operator+=(const armci::Stats& s);
};

/// Counters of round \p round (0-based) alone, summed over ranks.
Counters round_counters(const RunResult& run, int round);

/// Counters of the whole timed phase, summed over ranks.
Counters phase_counters(const RunResult& run);

/// Per round, the slowest rank's virtual seconds.
std::vector<double> slowest_rank_rounds(const RunResult& run);

/// Exact mean, in microseconds, of the ARMCI virtual latencies of class
/// \p cls over every rank (the histograms' sum over count).
double hist_mean_us(const RunResult& run, armci::OpClass cls);

/// Quantile, in microseconds, of the merged ARMCI latency histograms of
/// every rank and of the classes \p classes, interpolated inside its
/// power-of-two bucket: it resolves a latency only to within its bucket.
double hist_quantile_us(const RunResult& run,
                        const std::vector<armci::OpClass>& classes, double q);

/// Rounds whose steal is at most this share of their wall are clean.
constexpr double kCleanStealShare = 0.01;

/// The host wall of one round the hypervisor left alone: the median wall
/// of the clean rounds, or of the least-stolen quarter of the rounds when
/// fewer are clean. Steal on one rank's CPU also stalls the ranks waiting
/// for it, so a round's wall grows by several times its mean steal, too
/// irregularly to subtract.
struct CleanRounds {
  double wall_s = 0.0;     ///< median wall of the rounds used
  std::size_t rounds = 0;  ///< rounds used
};
CleanRounds clean_round_wall(const RunResult& run);

/// Mean over the CPU placements of the median of \p per_round over the
/// rounds with that placement (round i has placement i mod \p slots): a
/// placement whose CPUs ran slow moves the figure by its share, not by a
/// jump of the median across placements.
double placement_median(const std::vector<double>& per_round, int slots);

/// Driver operation samples of every rank, concatenated.
std::vector<double> all_op_virtual_us(const RunResult& run);

/// Emit the end-to-end metrics. \p setup_s holds the set-up's host wall
/// seconds of each run; \p round_virtual_s is the modeled job time of each
/// round. host_cpu_s is the process CPU time of one round
/// (placement_median), which counts wakeup churn that overlapping ranks
/// hide from the wall.
void emit_end_to_end(Report& rep, const std::vector<double>& setup_s,
                     const RunResult& timed,
                     const std::vector<double>& round_virtual_s,
                     double op_p50_us, double op_p99_us);

/// nwproxy phase figures of one round (ccsd workload only).
struct NwproxyRound {
  double ccsd_virtual_s = 0.0;
  double triples_virtual_s = 0.0;
  double ccsd_host_s = 0.0;
  double triples_host_s = 0.0;
  double ccsd_balance = 0.0;
};

/// Inputs of the per-layer metrics that the traced run's logs lack.
struct LayerExtras {
  std::vector<NwproxyRound> nwproxy;
  /// Operations of a round per second of clean_round_wall() of the
  /// untraced run: host throughput that counts blocked time.
  double host_ops_per_s = 0.0;
  double trace_overhead_frac = 0.0;
  std::vector<double> spawn_s, join_s;  ///< one per run in this process
};

/// Emit every per-layer metric from the traced run \p traced.
void emit_layers(Report& rep, const RunResult& traced,
                 const LayerExtras& extra);

/// Fold every rank's correctness checks into \p rep.
void fold_checks(Report& rep, const RunResult& run);

}  // namespace pb

#endif  // PERFBENCH_LAYERS_HPP
