#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

/// \file workload.hpp
/// The interface each workload implements for the measuring loop in
/// main.cpp. A workload is a closed loop: every rank issues its next
/// operation only after the previous one completed.

#include <memory>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace pb {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Simulator configuration (rank count, platform) of every run.
  virtual mpisim::Config config() const = 0;

  /// Clear what the previous run's body left behind.
  virtual void reset() {}

  /// One rank's program: set-up, rk.end_setup(), the timed rounds
  /// (`while (rk.next_round())`), verification, teardown. Runs on every
  /// rank thread at once; shared members are written per rank slot only.
  virtual void body(Rank& rk) = 0;

  /// Workload operations completed in the timed phase of \p run.
  virtual double ops(const RunResult& run) const = 0;

  /// Modeled job time of each round of \p run.
  virtual std::vector<double> round_virtual_s(const RunResult& run) const {
    return slowest_rank_rounds(run);
  }

  /// Median and 99th percentile virtual latency of one operation (us).
  virtual std::pair<double, double> op_latency_us(const RunResult& run) const {
    const std::vector<double> v = all_op_virtual_us(run);
    return {quantile(v, 0.50), quantile(v, 0.99)};
  }

  /// Check the counts that must repeat exactly, round by round; each
  /// drift is a failure in \p rep.
  virtual void check_counts(const RunResult& run, Report& rep) const = 0;

  /// Per-layer inputs only the workload knows (nwproxy phases).
  virtual void layer_extras(LayerExtras& extra) const { (void)extra; }
};

std::unique_ptr<Workload> make_ccsd(const Args& args);
std::unique_ptr<Workload> make_dht(const Args& args);
std::unique_ptr<Workload> make_rma(const Args& args);

}  // namespace pb

#endif  // PERFBENCH_WORKLOAD_HPP
