// Chaos-test harness: seeded randomized fault schedules over representative
// ARMCI workloads. The invariant under every schedule is liveness with
// diagnosis: each rank either completes cleanly or raises a classified
// MpiError (aborted / wait_timeout / crashed / transient) -- no hangs, no
// leaks (the suite runs under ASan in CI), and the same seed reproduces the
// identical failure trace. Override the schedule seed with CHAOS_SEED.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Errc;
using mpisim::Platform;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("CHAOS_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260805ull;
}

enum class Kind { none, completed, aborted, timed_out, crashed, transient, other };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::none: return "none";
    case Kind::completed: return "completed";
    case Kind::aborted: return "aborted";
    case Kind::timed_out: return "timed_out";
    case Kind::crashed: return "crashed";
    case Kind::transient: return "transient";
    case Kind::other: return "other";
  }
  return "?";
}

Kind classify(Errc c) {
  switch (c) {
    case Errc::aborted: return Kind::aborted;
    case Errc::wait_timeout: return Kind::timed_out;
    case Errc::crashed: return Kind::crashed;
    case Errc::transient: return Kind::transient;
    default: return Kind::other;
  }
}

/// What one rank's run ended as.
struct Outcome {
  Kind kind = Kind::none;
  std::string what;  // empty when completed

  bool operator==(const Outcome& o) const {
    return kind == o.kind && what == o.what;
  }
};

struct ChaosResult {
  std::vector<Outcome> ranks;
  std::string top_error;  // what() rethrown by run(); empty on clean runs
  std::vector<std::uint64_t> retries;    // per-rank Stats::retries
  std::vector<std::uint64_t> exhausted;  // per-rank Stats::retry_exhausted
  std::string metrics;  // rank 0's metrics_json() (when Options::metrics)
};

/// Run \p workload on every rank under \p cfg's fault schedule, recording
/// per-rank outcomes. Completing ranks capture their retry counters and
/// finalize collectively; ranks that observe a peer failure (Errc::aborted)
/// exercise the abort-safe finalize path; other victims rethrow and rely on
/// the runtime's cleanup hook -- either way nothing may leak.
ChaosResult run_chaos(const mpisim::Config& cfg, const Options& opts,
                      const std::function<void()>& workload) {
  std::cout << "[chaos] seed=" << cfg.fault.seed
            << " (override with CHAOS_SEED)\n";
  ChaosResult res;
  res.ranks.assign(static_cast<std::size_t>(cfg.nranks), {});
  res.retries.assign(static_cast<std::size_t>(cfg.nranks), 0);
  res.exhausted.assign(static_cast<std::size_t>(cfg.nranks), 0);
  try {
    mpisim::run(cfg, [&] {
      const auto me = static_cast<std::size_t>(mpisim::rank());
      try {
        init(opts);
        workload();
        res.retries[me] = stats().retries;
        res.exhausted[me] = stats().retry_exhausted;
        if (me == 0 && opts.metrics) res.metrics = metrics_json();
        finalize();
        res.ranks[me] = {Kind::completed, ""};
      } catch (const mpisim::MpiError& e) {
        res.ranks[me] = {classify(e.code()), e.what()};
        if (e.code() == Errc::aborted) finalize();
        throw;
      }
    });
  } catch (const mpisim::MpiError& e) {
    res.top_error = e.what();
  }
  return res;
}

/// The liveness invariant: every rank ended in a classified state.
void expect_invariants(const ChaosResult& res) {
  for (std::size_t r = 0; r < res.ranks.size(); ++r) {
    const Kind k = res.ranks[r].kind;
    EXPECT_TRUE(k == Kind::completed || k == Kind::aborted ||
                k == Kind::timed_out || k == Kind::crashed ||
                k == Kind::transient)
        << "rank " << r << " ended as " << kind_name(k) << ": "
        << res.ranks[r].what;
  }
}

/// Representative workload: ring put/fence/get/acc plus a contended RMW
/// counter, a barrier per round. Data checks double as retry-correctness
/// checks: a transparently retried epoch must not lose or replay updates.
std::function<void()> ring_workload(int rounds) {
  return [rounds] {
    const int me = mpisim::rank();
    const int n = mpisim::nranks();
    const int right = (me + 1) % n;
    std::vector<void*> bases = malloc_world(512);
    if (me == 0) std::memset(bases[0], 0, 512);
    barrier();
    for (int r = 0; r < rounds; ++r) {
      std::int64_t v = me * 1000 + r;
      put(&v, bases[static_cast<std::size_t>(right)], sizeof v, right);
      fence(right);
      std::int64_t back = 0;
      get(bases[static_cast<std::size_t>(right)], &back, sizeof back, right);
      EXPECT_EQ(back, v);  // single writer per slice: must read our own put
      const double one = 1.0, inc = 1.0;
      acc(AccType::float64, &one, &inc,
          static_cast<char*>(bases[static_cast<std::size_t>(right)]) + 64,
          sizeof inc, right);
      std::int64_t old = 0;
      rmw(RmwOp::fetch_and_add_long, &old,
          static_cast<char*>(bases[0]) + 128, 1, 0);
      barrier();
    }
  };
}

/// Mutex-guarded shared-counter workload (queueing-mutex handoff paths).
std::function<void()> mutex_workload(int rounds) {
  return [rounds] {
    const int me = mpisim::rank();
    std::vector<void*> bases = malloc_world(sizeof(std::int64_t));
    if (me == 0) std::memset(bases[0], 0, sizeof(std::int64_t));
    create_mutexes(1);
    barrier();
    for (int r = 0; r < rounds; ++r) {
      lock(0, 0);
      std::int64_t c = 0;
      get(bases[0], &c, sizeof c, 0);
      ++c;
      put(&c, bases[0], sizeof c, 0);
      fence(0);
      unlock(0, 0);
      barrier();
    }
  };
}

/// Nonblocking-aggregation workload: each round defers a batch of puts plus
/// an identity-scale accumulate to the right neighbor (one coalesced queue),
/// completes with wait_proc, and verifies via blocking gets. A transient
/// fault at the coalesced flush epoch fires before any op issues, so the
/// whole batch replays; the data checks double as replay-correctness checks
/// and the accumulate slot catches double-application.
std::function<void()> nb_workload(int rounds) {
  return [rounds] {
    const int me = mpisim::rank();
    const int n = mpisim::nranks();
    const int right = (me + 1) % n;
    constexpr std::size_t kSlot = sizeof(std::int64_t);
    constexpr std::size_t kDepth = 8;
    std::vector<void*> bases = malloc_world(kSlot * (kDepth + 1));
    access_begin(bases[static_cast<std::size_t>(me)]);
    std::memset(bases[static_cast<std::size_t>(me)], 0, kSlot * (kDepth + 1));
    access_end(bases[static_cast<std::size_t>(me)]);
    barrier();
    char* rbase = static_cast<char*>(bases[static_cast<std::size_t>(right)]);
    for (int r = 0; r < rounds; ++r) {
      std::int64_t vals[kDepth];
      for (std::size_t i = 0; i < kDepth; ++i)
        vals[i] = me * 1000000 + r * 100 + static_cast<std::int64_t>(i);
      for (std::size_t i = 0; i < kDepth; ++i)
        nb_put(&vals[i], rbase + i * kSlot, kSlot, right);
      const std::int64_t one = 1, inc = 1;
      nb_acc(AccType::int64, &one, &inc, rbase + kDepth * kSlot, kSlot,
             right);
      wait_proc(right);
      for (std::size_t i = 0; i < kDepth; ++i) {
        std::int64_t back = 0;
        get(rbase + i * kSlot, &back, kSlot, right);
        EXPECT_EQ(back, vals[i]);  // single writer per slice
      }
      barrier();
    }
    // One increment per round, exactly once each, even under retries.
    std::int64_t count = 0;
    get(rbase + kDepth * kSlot, &count, kSlot, right);
    EXPECT_EQ(count, rounds);
  };
}

/// Multi-owner GA workload: a column-tiled array gives every rank one tile,
/// and each rank's working patch is its own row across ALL tiles, so every
/// put/get/acc fans out one pipelined per-owner batch to each rank while
/// keeping a single writer per element (conflict-free under the RMA
/// checker). The round-trip data checks double as per-owner batch replay
/// checks: a transiently failed owner epoch must replay without losing or
/// double-applying any other owner's batch, and the accumulate slot catches
/// double-application directly.
std::function<void()> ga_workload(int rounds) {
  return [rounds] {
    const int me = mpisim::rank();
    const int n = mpisim::nranks();
    const std::int64_t cols_per = 4;
    const std::int64_t cols = n * cols_per;
    const std::int64_t dims[] = {n, cols};
    const std::int64_t chunk[] = {n, 1};  // one column tile per rank
    ga::GlobalArray g =
        ga::GlobalArray::create("chaos", dims, ga::ElemType::dbl, chunk);
    g.zero();

    ga::Patch myrow;
    myrow.lo = {me, 0};
    myrow.hi = {me, cols - 1};
    std::vector<double> vals(static_cast<std::size_t>(cols));
    std::vector<double> back(static_cast<std::size_t>(cols));
    for (int r = 0; r < rounds; ++r) {
      for (std::int64_t c = 0; c < cols; ++c)
        vals[static_cast<std::size_t>(c)] =
            me * 1000000.0 + r * 100.0 + static_cast<double>(c);
      g.put(myrow, vals.data());
      g.sync();

      std::fill(back.begin(), back.end(), -1.0);
      g.get(myrow, back.data());
      EXPECT_EQ(back, vals);  // single writer per row

      const double one = 1.0;
      std::vector<double> inc(static_cast<std::size_t>(cols), 1.0);
      g.acc(myrow, inc.data(), &one);
      g.sync();

      // Element-wise gather across every owner, duplicate subscripts
      // included (each listed element must come back identically).
      std::vector<std::int64_t> subs;
      for (std::int64_t c = 0; c < cols; c += cols_per) {
        subs.push_back(me);
        subs.push_back(c);
        subs.push_back(me);
        subs.push_back(c);
      }
      const auto ng = static_cast<std::int64_t>(subs.size() / 2);
      std::vector<double> gathered(static_cast<std::size_t>(ng), 0.0);
      g.gather(gathered.data(), subs, ng);
      for (std::int64_t i = 0; i < ng; ++i) {
        const std::int64_t c = subs[static_cast<std::size_t>(2 * i + 1)];
        EXPECT_DOUBLE_EQ(gathered[static_cast<std::size_t>(i)],
                         vals[static_cast<std::size_t>(c)] + 1.0);
      }
      g.sync();
    }
    g.destroy();
  };
}

class ChaosBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(ChaosBackendTest, RankCrashAbortsEverySurvivor) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;  // ideal clocks never reach at_ns
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{1, 3000.0}};
  Options opts;
  opts.backend = GetParam();

  const ChaosResult res = run_chaos(cfg, opts, ring_workload(40));
  expect_invariants(res);
  EXPECT_FALSE(res.top_error.empty());
  EXPECT_EQ(res.ranks[1].kind, Kind::crashed) << res.ranks[1].what;
  for (const std::size_t r : {0u, 2u, 3u})
    EXPECT_EQ(res.ranks[r].kind, Kind::aborted)
        << "rank " << r << ": " << res.ranks[r].what;
}

TEST_P(ChaosBackendTest, TransientFaultsRecoverViaRetry) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.transient.rate = 0.05;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.stall_ns = 100.0;
  Options opts;
  opts.backend = GetParam();
  opts.metrics = true;

  const ChaosResult res = run_chaos(cfg, opts, ring_workload(50));
  expect_invariants(res);
  EXPECT_TRUE(res.top_error.empty()) << res.top_error;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(res.ranks[r].kind, Kind::completed)
        << "rank " << r << ": " << res.ranks[r].what;
    EXPECT_EQ(res.exhausted[r], 0u);
  }
  const std::uint64_t total_retries =
      std::accumulate(res.retries.begin(), res.retries.end(),
                      std::uint64_t{0});
  if (GetParam() == Backend::native) {
    // The native baseline issues no MPI epochs, so it has no transient
    // fault sites: the schedule must be a no-op for it.
    EXPECT_EQ(total_retries, 0u);
  } else {
    EXPECT_GT(total_retries, 0u)
        << "the schedule injected no transient faults; raise the rate";
  }
  // The retry counters are part of the armci-metrics-v1 export.
  EXPECT_NE(res.metrics.find("\"retries\":"), std::string::npos)
      << res.metrics;
  EXPECT_NE(res.metrics.find("\"transient_faults\":"), std::string::npos);
}

TEST_P(ChaosBackendTest, NbAggregationReplaysThroughTransientFaults) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.transient.rate = 0.05;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.stall_ns = 100.0;
  Options opts;
  opts.backend = GetParam();

  const ChaosResult res = run_chaos(cfg, opts, nb_workload(30));
  expect_invariants(res);
  EXPECT_TRUE(res.top_error.empty()) << res.top_error;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(res.ranks[r].kind, Kind::completed)
        << "rank " << r << ": " << res.ranks[r].what;
    EXPECT_EQ(res.exhausted[r], 0u);
  }
  const std::uint64_t total_retries =
      std::accumulate(res.retries.begin(), res.retries.end(),
                      std::uint64_t{0});
  if (GetParam() == Backend::native) {
    EXPECT_EQ(total_retries, 0u);
  } else {
    // The coalesced flush epochs are retry sites like any other: queued
    // batches must replay transparently.
    EXPECT_GT(total_retries, 0u)
        << "the schedule injected no transient faults; raise the rate";
  }
}

TEST_P(ChaosBackendTest, GaMultiOwnerCrashSurfacesClassifiedErrors) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{1, 3000.0}};
  Options opts;
  opts.backend = GetParam();

  // The crashed owner must surface Errc::crashed out of the GA-layer
  // covering wait on its own rank, and every survivor's multi-owner access
  // must end as a classified abort, not a hang: flush_group drains the
  // healthy owners' queues before rethrowing the failure.
  const ChaosResult res = run_chaos(cfg, opts, ga_workload(25));
  expect_invariants(res);
  EXPECT_FALSE(res.top_error.empty());
  EXPECT_EQ(res.ranks[1].kind, Kind::crashed) << res.ranks[1].what;
  for (const std::size_t r : {0u, 2u, 3u})
    EXPECT_EQ(res.ranks[r].kind, Kind::aborted)
        << "rank " << r << ": " << res.ranks[r].what;
}

TEST_P(ChaosBackendTest, GaMultiOwnerReplaysThroughTransientFaults) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.transient.rate = 0.05;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.stall_ns = 100.0;
  Options opts;
  opts.backend = GetParam();

  const ChaosResult res = run_chaos(cfg, opts, ga_workload(20));
  expect_invariants(res);
  EXPECT_TRUE(res.top_error.empty()) << res.top_error;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(res.ranks[r].kind, Kind::completed)
        << "rank " << r << ": " << res.ranks[r].what;
    EXPECT_EQ(res.exhausted[r], 0u);
  }
  const std::uint64_t total_retries =
      std::accumulate(res.retries.begin(), res.retries.end(),
                      std::uint64_t{0});
  if (GetParam() == Backend::native) {
    EXPECT_EQ(total_retries, 0u);
  } else {
    // Per-owner batches are replayed at their flush epochs; the workload's
    // round-trip checks prove nothing was lost or double-applied.
    EXPECT_GT(total_retries, 0u)
        << "the schedule injected no transient faults; raise the rate";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ChaosBackendTest,
                         ::testing::Values(Backend::mpi, Backend::native,
                                           Backend::mpi3),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::mpi: return "Mpi";
                             case Backend::native: return "Native";
                             case Backend::mpi3: return "Mpi3";
                           }
                           return "?";
                         });

TEST(ChaosTest, SameSeedReproducesIdenticalFailureTrace) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{2, 8000.0}};
  cfg.fault.transient.rate = 0.05;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.stall_ns = 100.0;
  Options opts;  // Backend::mpi

  const ChaosResult a = run_chaos(cfg, opts, ring_workload(40));
  const ChaosResult b = run_chaos(cfg, opts, ring_workload(40));
  expect_invariants(a);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].kind, b.ranks[r].kind) << "rank " << r;
    EXPECT_EQ(a.ranks[r].what, b.ranks[r].what) << "rank " << r;
  }
  EXPECT_EQ(a.top_error, b.top_error);
  EXPECT_EQ(a.retries, b.retries);
}

TEST(ChaosTest, CrashWhileHoldingMutexAbortsWaiters) {
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{2, 5000.0}};
  Options opts;

  const ChaosResult res = run_chaos(cfg, opts, mutex_workload(40));
  expect_invariants(res);
  EXPECT_EQ(res.ranks[2].kind, Kind::crashed) << res.ranks[2].what;
  for (const std::size_t r : {0u, 1u, 3u})
    EXPECT_EQ(res.ranks[r].kind, Kind::aborted)
        << "rank " << r << ": " << res.ranks[r].what;
}

TEST(ChaosTest, WaitNotifyHitsTheVirtualTimeDeadline) {
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::ideal;  // wait_notify advances its own clock
  cfg.wait_deadline_ns = 2e5;
  Options opts;

  const ChaosResult res = run_chaos(cfg, opts, [] {
    std::vector<void*> bases = malloc_world(sizeof(int));
    if (mpisim::rank() == 1) {
      access_begin(bases[1]);
      *static_cast<int*>(bases[1]) = 0;
      access_end(bases[1]);
      // No producer ever sets the flag: must raise wait_timeout, not hang.
      wait_notify(static_cast<const int*>(bases[1]), 1);
    } else {
      // Move our deadline reference point far past rank 1's, so the barrier
      // wait below cannot hit the global deadline before wait_notify does.
      mpisim::clock().advance(1e7);
      barrier();  // rank 1 never arrives; we are woken by its failure
    }
  });
  expect_invariants(res);
  EXPECT_EQ(res.ranks[1].kind, Kind::timed_out) << res.ranks[1].what;
  EXPECT_NE(res.ranks[1].what.find("wait_notify exceeded"), std::string::npos)
      << res.ranks[1].what;
  EXPECT_EQ(res.ranks[0].kind, Kind::aborted) << res.ranks[0].what;
}

TEST(ChaosTest, Mpi3NbFlushMidBatchTransientAccumulatesExactlyOnce) {
  // Regression for the MPI-3 nb batch replay bug: a transient fault
  // *inside* the batch (after some accumulates already issued) must resume
  // from the failed op, not replay the whole batch -- replaying would apply
  // the completed accumulates twice. The schedule is fully deterministic:
  // rate 1.0 aimed at the per-op fault site, two consults skipped, one
  // burst allowed, so on every rank exactly the 3rd op of its 4-op batch
  // fails exactly once mid-flush.
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.ranks_per_node = 1;  // all targets remote: ops defer into nb queues
  cfg.fault.seed = chaos_seed();
  cfg.fault.transient.rate = 1.0;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.stall_ns = 100.0;
  cfg.fault.transient.site = "mpi3.nb_flush.op";
  cfg.fault.transient.skip = 2;
  cfg.fault.transient.max_bursts = 1;
  Options opts;
  opts.backend = Backend::mpi3;

  constexpr std::size_t kSlots = 4;
  const ChaosResult res = run_chaos(cfg, opts, [] {
    const int me = mpisim::rank();
    const int right = (me + 1) % mpisim::nranks();
    constexpr std::size_t kSlot = sizeof(std::int64_t);
    std::vector<void*> bases = malloc_world(kSlot * kSlots);
    access_begin(bases[static_cast<std::size_t>(me)]);
    std::memset(bases[static_cast<std::size_t>(me)], 0, kSlot * kSlots);
    access_end(bases[static_cast<std::size_t>(me)]);
    barrier();
    char* rbase = static_cast<char*>(bases[static_cast<std::size_t>(right)]);
    const std::int64_t one = 1, inc = 1;
    for (std::size_t i = 0; i < kSlots; ++i)
      nb_acc(AccType::int64, &one, &inc, rbase + i * kSlot, kSlot, right);
    wait_proc(right);  // one coalesced flush; the fault fires mid-batch
    barrier();
    for (std::size_t i = 0; i < kSlots; ++i) {
      std::int64_t v = 0;
      get(rbase + i * kSlot, &v, kSlot, right);
      EXPECT_EQ(v, 1) << "slot " << i
                      << (v > 1 ? ": accumulate applied more than once"
                                : ": accumulate lost");
    }
    barrier();
  });
  expect_invariants(res);
  EXPECT_TRUE(res.top_error.empty()) << res.top_error;
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(res.ranks[r].kind, Kind::completed)
        << "rank " << r << ": " << res.ranks[r].what;
    EXPECT_EQ(res.retries[r], 1u) << "rank " << r;
    EXPECT_EQ(res.exhausted[r], 0u);
  }
}

TEST(ChaosTest, SameNodeCrashMidDirectAccessAbortsSurvivors) {
  // All four ranks share one node on the infiniband profile, so the ring
  // traffic rides the shared-memory direct path; a peer crashing mid-run
  // must still surface as classified outcomes (the fast path polls the
  // failure flag before every direct access), never as a hang.
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;  // ranks_per_node = 8: co-located
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{1, 2000.0}};
  Options opts;
  opts.backend = Backend::mpi3;

  const ChaosResult res = run_chaos(cfg, opts, ring_workload(40));
  expect_invariants(res);
  EXPECT_FALSE(res.top_error.empty());
  EXPECT_EQ(res.ranks[1].kind, Kind::crashed) << res.ranks[1].what;
  for (const std::size_t r : {0u, 2u, 3u})
    EXPECT_EQ(res.ranks[r].kind, Kind::aborted)
        << "rank " << r << ": " << res.ranks[r].what;
}

TEST(ChaosTest, CombinedScheduleKeepsTheInvariant) {
  // Everything on at once: a crash, transient bursts, delivery delays, and
  // lock stalls, under a generous global wait deadline.
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = Platform::infiniband;
  cfg.wait_deadline_ns = 1e9;
  cfg.fault.seed = chaos_seed();
  cfg.fault.crashes = {{3, 20000.0}};
  cfg.fault.transient.rate = 0.05;
  cfg.fault.transient.fail_count = 2;
  cfg.fault.transient.stall_ns = 200.0;
  cfg.fault.delay_rate = 0.1;
  cfg.fault.delay_ns = 5000.0;
  cfg.fault.lock_stall_rate = 0.1;
  cfg.fault.lock_stall_ns = 2000.0;
  Options opts;

  const ChaosResult res = run_chaos(cfg, opts, ring_workload(60));
  expect_invariants(res);
  EXPECT_FALSE(res.top_error.empty());
  EXPECT_EQ(res.ranks[3].kind, Kind::crashed) << res.ranks[3].what;
}

}  // namespace
}  // namespace armci
