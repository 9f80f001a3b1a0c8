// ccsd: the paper's application (Fig 6). Each round runs the nwproxy CCSD
// phase and then the (T) phase on 4 ranks of the InfiniBand profile over
// ARMCI-MPI. It drives every RMA layer at once -- GA multi-owner strided
// get/acc with nb_get prefetch, ARMCI per-op exclusive epochs, the queueing
// mutex behind the nxtval counter, mpisim windows -- and sends no active
// messages. The problem is fixed (a scaled water pentamer), so the seed
// selects nothing; its pseudo-energies have a known reference. Set-up ends
// with a warm-up CCSD(T) on the smoke-test problem, which creates and
// frees the arrays, the counter and the mutexes the rounds use.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/nwproxy/ccsd.hpp"
#include "workload.hpp"

namespace pb {

namespace {

constexpr int kRanks = 4;

/// Relative tolerance on the pseudo-energies: dynamic load balancing
/// reorders the accumulates, so the sums differ in their last bits.
constexpr double kEnergyRelTol = 1e-9;

struct Problem {
  nwproxy::CcsdParams p;
  double ccsd_energy;     ///< reference pseudo-energy after the CCSD phase
  double triples_energy;  ///< reference (T) pseudo-energy
};

Problem problem(bool tiny) {
  Problem pr{};
  if (tiny) {
    pr.p.no = 4;
    pr.p.nv = 24;
    pr.p.tile = 8;
    pr.p.iterations = 1;
    pr.ccsd_energy = 4.1287163765749959;
    pr.triples_energy = 0.029471999696104766;
  } else {
    // bench_nwchem's Fig 6 problem: 325 CCSD tasks and 120 (T) triples.
    pr.p.no = 8;
    pr.p.nv = 80;
    pr.p.tile = 16;
    pr.p.iterations = 1;
    pr.ccsd_energy = 227.71094902572267;
    pr.triples_energy = 0.66805543096528608;
  }
  return pr;
}

bool close_to(double got, double ref) {
  return std::fabs(got - ref) <= kEnergyRelTol * std::fabs(ref);
}

/// Describe a pseudo-energy mismatch.
std::string mismatch(const char* what, double got, double ref) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s energy %.17g, reference %.17g", what, got,
                ref);
  return buf;
}

class Ccsd final : public Workload {
 public:
  explicit Ccsd(const Args& args)
      : args_(args), pr_(problem(args.tiny)), warm_(problem(true)) {}

  mpisim::Config config() const override {
    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::infiniband;
    return cfg;
  }

  void reset() override {
    rounds_.clear();
    ccsd_tasks_.assign(kRanks, {});
    triples_tasks_.assign(kRanks, {});
  }

  void body(Rank& rk) override {
    armci::Options o;
    o.backend = armci::Backend::mpi;
    o.metrics = true;  // op_virtual_us_*: the ARMCI calls nwproxy issues
    rk.call("armci.init", [&] { armci::init(rk.options(o)); });
    {
      SpanScope s(rk.log.spans, "nwproxy.warm_up");
      nwproxy::Amplitudes t2;
      const double cc = nwproxy::run_ccsd(warm_.p, t2).energy;
      const double tr = nwproxy::run_triples(warm_.p, t2).energy;
      t2.destroy();
      if (rk.rank == 0) {
        rk.check(close_to(cc, warm_.ccsd_energy), [&] {
          return mismatch("warm-up CCSD", cc, warm_.ccsd_energy);
        });
        rk.check(close_to(tr, warm_.triples_energy), [&] {
          return mismatch("warm-up (T)", tr, warm_.triples_energy);
        });
      }
    }
    rk.end_setup();

    const auto r = static_cast<std::size_t>(rk.rank);
    std::uint64_t round = 0;
    while (rk.next_round()) {
      ++round;
      nwproxy::Amplitudes t2;
      nwproxy::PhaseResult cc, tr;
      const double h0 = host_now_s();
      {
        SpanScope s(rk.log.spans, "nwproxy.run_ccsd", round);
        cc = nwproxy::run_ccsd(pr_.p, t2);
      }
      const double h1 = host_now_s();
      {
        SpanScope s(rk.log.spans, "nwproxy.run_triples", round);
        tr = nwproxy::run_triples(pr_.p, t2);
      }
      const double h2 = host_now_s();
      rk.call("ga.destroy", [&] { t2.destroy(); });

      ccsd_tasks_[r].push_back(cc.my_tasks);
      triples_tasks_[r].push_back(tr.my_tasks);
      if (rk.rank != 0) continue;
      NwproxyRound nr;
      nr.ccsd_virtual_s = cc.virtual_seconds;
      nr.triples_virtual_s = tr.virtual_seconds;
      nr.ccsd_host_s = h1 - h0;
      nr.triples_host_s = h2 - h1;
      nr.ccsd_balance = cc.virtual_seconds > 0.0
                            ? cc.virtual_seconds_mean / cc.virtual_seconds
                            : 0.0;
      rounds_.push_back(nr);
      // A corrupted run perturbs the first energy it reads back.
      const double cc_e = cc.energy * (args_.corrupt && round == 1
                                           ? 1.0 + 1e-6 : 1.0);
      const std::string at = "round " + std::to_string(round) + ": ";
      rk.check(close_to(cc_e, pr_.ccsd_energy), [&] {
        return at + mismatch("CCSD", cc_e, pr_.ccsd_energy);
      });
      rk.check(close_to(tr.energy, pr_.triples_energy), [&] {
        return at + mismatch("(T)", tr.energy, pr_.triples_energy);
      });
    }
    rk.call("armci.finalize", [] { armci::finalize(); });
  }

  double ops(const RunResult& run) const override {
    return static_cast<double>(run.rounds) *
           static_cast<double>(tasks_per_round());
  }

  std::vector<double> round_virtual_s(const RunResult&) const override {
    std::vector<double> v;
    for (const NwproxyRound& r : rounds_)
      v.push_back(r.ccsd_virtual_s + r.triples_virtual_s);
    return v;
  }

  /// nwproxy issues the ARMCI calls, so the driver has no per-call sample,
  /// and the histograms resolve a quantile only to a power-of-two bucket.
  /// Both figures are therefore exact means, not quantiles: the mean
  /// virtual latency of every ARMCI call, and that of the slowest class.
  std::pair<double, double> op_latency_us(
      const RunResult& run) const override {
    double sum_us = 0.0, calls = 0.0, slowest = 0.0;
    for (int c = 0; c < armci::kOpClassCount; ++c) {
      const auto cls = static_cast<armci::OpClass>(c);
      double n = 0.0;
      for (const RankLog& log : run.ranks)
        n += static_cast<double>(log.hist[static_cast<std::size_t>(c)].count());
      const double mean = hist_mean_us(run, cls);
      sum_us += mean * n;
      calls += n;
      slowest = std::max(slowest, mean);
    }
    return {calls > 0.0 ? sum_us / calls : 0.0, slowest};
  }

  void check_counts(const RunResult& run, Report& rep) const override {
    const std::int64_t want_cc =
        nwproxy::ccsd_tasks(pr_.p) * pr_.p.iterations;
    const std::int64_t want_tr = nwproxy::triples_tasks(pr_.p);
    const Counters first = round_counters(run, 0);
    for (int i = 0; i < run.rounds; ++i) {
      const auto k = static_cast<std::size_t>(i);
      std::int64_t cc = 0, tr = 0;
      for (int r = 0; r < kRanks; ++r) {
        cc += ccsd_tasks_[static_cast<std::size_t>(r)].at(k);
        tr += triples_tasks_[static_cast<std::size_t>(r)].at(k);
      }
      rep.attempted += 2;
      if (cc != want_cc || tr != want_tr)
        rep.fail("round " + std::to_string(i) + ": tasks " +
                 std::to_string(cc) + "+" + std::to_string(tr) +
                 ", expected " + std::to_string(want_cc) + "+" +
                 std::to_string(want_tr));
      const Counters c = round_counters(run, i);
      if (c.rma_calls != first.rma_calls || c.bytes != first.bytes ||
          c.rmws != first.rmws)
        rep.fail("round " + std::to_string(i) + ": ARMCI calls/bytes/rmw " +
                 std::to_string(c.rma_calls) + "/" + std::to_string(c.bytes) +
                 "/" + std::to_string(c.rmws) + " drifted from round 0's " +
                 std::to_string(first.rma_calls) + "/" +
                 std::to_string(first.bytes) + "/" +
                 std::to_string(first.rmws));
    }
    rep.notes.push_back("invariant tasks/round " +
                        std::to_string(tasks_per_round()) +
                        ", ARMCI calls/round " +
                        std::to_string(first.rma_calls) + ", bytes/round " +
                        std::to_string(first.bytes));
  }

  void layer_extras(LayerExtras& extra) const override {
    extra.nwproxy = rounds_;
  }

 private:
  std::int64_t tasks_per_round() const {
    return nwproxy::ccsd_tasks(pr_.p) * pr_.p.iterations +
           nwproxy::triples_tasks(pr_.p);
  }

  Args args_;
  Problem pr_;
  Problem warm_;  ///< the set-up's warm-up problem
  std::vector<NwproxyRound> rounds_;  ///< written by rank 0
  std::vector<std::vector<std::int64_t>> ccsd_tasks_, triples_tasks_;
};

}  // namespace

std::unique_ptr<Workload> make_ccsd(const Args& args) {
  return std::make_unique<Ccsd>(args);
}

}  // namespace pb
