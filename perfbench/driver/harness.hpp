#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

/// \file harness.hpp
/// The shape every workload shares: one mpisim::run per set-up, a timed
/// phase of closed-loop rounds that lasts a fixed host time (or a fixed
/// round count), and per-rank logs the main thread reads after the run.
///
/// Rank 0 alone decides whether another round runs and broadcasts the
/// decision, so every rank executes the same number of rounds. Counters are
/// read from the libraries' public accessors at round boundaries; nothing
/// inside src/ is instrumented.

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace pb {

/// Command-line arguments of the driver.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;     ///< smoke-test problem sizes
  bool corrupt = false;  ///< flip one readback bit (tests the checks)
  std::string spans_path;
};

/// SplitMix64: the benchmark's only source of randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Seed of the independent stream (seed, a, b): one per rank and round.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b);

/// Quantile \p q in [0, 1] of \p v; 0 when empty. Below 100 samples, the
/// order statistics are linearly interpolated. From 100 samples on, the
/// result is the mean of the order statistics within +-1 % of rank q
/// (narrower when q is nearer 0 or 1): virtual latencies take a few
/// discrete values, and a single order statistic would sit on one of
/// their plateaus instead of following the sample's composition.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Process user + system CPU seconds, and peak resident set in MB. In a
/// virtual machine the CPU time excludes what the hypervisor stole.
double process_cpu_s();
double peak_rss_mb();

/// Seconds the hypervisor has stolen from the CPUs \p cpus since boot,
/// averaged over them (the steal column of /proc/stat; 0 where absent).
double steal_s(const std::vector<int>& cpus);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// A uniform random sample of at most kCapacity values of a stream
/// (reservoir sampling), so memory -- and peak RSS -- does not grow with
/// the number of operations a run completes.
class Reservoir {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;

  void push_back(double x) {
    ++seen_;
    if (v_.size() < kCapacity) {
      v_.push_back(x);
      return;
    }
    const std::uint64_t j = rng_.below(seen_);
    if (j < kCapacity) v_[j] = x;
  }
  auto begin() const { return v_.begin(); }
  auto end() const { return v_.end(); }
  /// Values offered, kept or not.
  std::uint64_t seen() const noexcept { return seen_; }

 private:
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  Rng rng_{0x5eed};
};

/// What one workload process reports.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< failures and invariants, for humans

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    notes.push_back("FAIL " + why);
  }
};

/// Histograms of the ARMCI per-class virtual latencies at the end of the
/// timed phase (armci::metrics(); empty unless Options::metrics).
using ClassHistograms =
    std::array<armci::LatencyHistogram, armci::kOpClassCount>;

/// What one rank records during one run. Each rank thread writes only its
/// own slot; the main thread reads them after mpisim::run joins.
struct RankLog {
  double body_begin_s = 0.0;
  double body_end_s = 0.0;

  // Timed phase: counters (reset at its start) at each round end, and
  // this rank's virtual time per round; on rank 0 also the host wall, the
  // steal share of that wall (steal_s() over the process's CPUs) and the
  // process CPU time of each round.
  std::vector<armci::Stats> round_stats;
  std::vector<double> round_virtual_s;
  std::vector<double> round_host_s, round_steal_s, round_cpu_s;
  ClassHistograms hist{};
  mpisim::WinStats win;  ///< window counters over the timed phase (traced)
  std::size_t mailbox_high_water = 0;

  // Driver-side samples.
  Reservoir op_virtual_us;  ///< one per workload operation
  std::map<std::string, Reservoir> call_host_us;  ///< traced
  std::vector<double> barrier_host_s, barrier_virtual_us;
  Reservoir rpc_host_s, rpc_virtual_us;
  std::vector<double> quiesce_host_s, quiesce_virtual_us;
  std::vector<double> am_barrier_host_s;

  // Correctness checks made on this rank.
  std::uint64_t checks = 0;
  std::vector<std::string> failures;

  SpanLog spans;
};

/// How one mpisim::run is driven.
struct RunPlan {
  mpisim::Config cfg;
  bool timed = true;     ///< run the timed phase after set-up
  bool traced = false;   ///< spans, per-call host times, ARMCI metrics+trace
  double seconds = 0.0;  ///< timed-phase length when fixed_rounds == 0
  int fixed_rounds = 0;  ///< > 0: run exactly this many rounds
};

struct RunResult {
  double setup_s = 0.0;  ///< host wall, run() entry to end of set-up
  double timed_s = 0.0;  ///< host wall of the timed phase
  int rounds = 0;
  /// CPUs the ranks rotate over: round i runs rank r on CPU (r + i) mod
  /// cpu_slots, so rounds i and i + cpu_slots share a placement.
  int cpu_slots = 1;
  double spawn_s = 0.0;  ///< run() entry to the first rank body
  double join_s = 0.0;   ///< last rank body exit to run() return
  std::vector<RankLog> ranks;
};

struct Shared;

/// A rank's view of the run, handed to the workload body.
class Rank {
 public:
  Rank(const RunPlan& plan, Shared& sh, RankLog& log, int rank)
      : plan(plan), log(log), rank(rank), sh_(sh) {}

  const RunPlan& plan;
  RankLog& log;
  const int rank;

  /// \p base with metrics and trace switched on for a traced run.
  armci::Options options(armci::Options base) const;

  /// Collective end of set-up: a timed driver barrier, then (when the plan
  /// is timed) the counters reset and the timed phase's clocks start.
  void end_setup();

  /// Collective: close the running round (if any) and decide whether
  /// another runs. False ends the timed phase; its end-of-phase snapshots
  /// (histograms, window counters, mailbox high-water) are taken then.
  bool next_round();

  /// True between a next_round() that returned true and the next call.
  bool in_round() const noexcept { return in_round_; }

  /// Record one correctness check; \p what() describes a failure and is
  /// only called for one.
  template <typename Describe>
  void check(bool ok, Describe&& what) {
    ++log.checks;
    if (!ok) log.failures.push_back(what());
  }

  /// Run \p f as the wrapped library call \p name: a span, plus its host
  /// time in log.call_host_us when traced.
  template <typename F>
  void call(const char* name, F&& f) {
    SpanScope s(log.spans, name);
    if (!plan.traced) {
      f();
      return;
    }
    const std::int64_t h0 = host_now_ns();
    f();
    log.call_host_us[name].push_back(
        static_cast<double>(host_now_ns() - h0) * 1e-3);
  }

 private:
  Shared& sh_;
  bool in_round_ = false;
  int rounds_ = 0;
  double round_v0_ns_ = 0.0;
  double round_h0_s_ = 0.0;
  double round_steal0_s_ = 0.0;
  double round_cpu0_s_ = 0.0;
  mpisim::WinStats win0_;
};

/// Execute \p body on plan.cfg.nranks ranks and collect the logs. A rank
/// failure propagates as the exception mpisim::run rethrows.
RunResult run_plan(const RunPlan& plan,
                   const std::function<void(Rank&)>& body);

/// Sum of this rank's window counters over every window it has seen.
mpisim::WinStats win_totals();

/// Run \p f inside a span named \p name and append its host time to
/// \p host_s (seconds) and its virtual time to \p virt_us (microseconds).
template <typename Samples, typename F>
void timed_call(Rank& rk, const char* name, Samples& host_s, Samples& virt_us,
                F&& f) {
  SpanScope s(rk.log.spans, name);
  const std::int64_t h0 = host_now_ns();
  const double v0 = mpisim::clock().now_ns();
  f();
  virt_us.push_back((mpisim::clock().now_ns() - v0) * 1e-3);
  host_s.push_back(static_cast<double>(host_now_ns() - h0) * 1e-9);
}

}  // namespace pb

#endif  // PERFBENCH_HARNESS_HPP
