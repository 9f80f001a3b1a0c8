// Kill-and-recover scenarios for the survivable runtime
// (mpisim::FaultPlan::survivable): an armed crash marks the victim dead,
// survivors observe Errc::crashed at the operations that depend on it, and
// the layers above recover -- replicated Global Arrays fail reads over to
// buddy replicas bit-exactly, rebuild() redistributes onto the live process
// set, crashed-holder mutexes are reclaimed within the detection bound, and
// the nonblocking engine drains healthy queues past a dead owner. Override
// the schedule seed with CHAOS_SEED (the nightly chaos job randomizes it).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <functional>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/groups.hpp"
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

enum class Kind { none, completed, crashed, other };

/// What one rank's run ended as.
struct Outcome {
  Kind kind = Kind::none;
  std::string what;
};

struct RecoveryResult {
  std::vector<Outcome> ranks;
  std::string top_error;  // what() rethrown by run(); empty on clean runs
  std::string metrics;    // rank 0's metrics_json() (when Options::metrics)
};

/// Die at the next fault point: arm the crash and enter armci::barrier(),
/// whose collective entry consults the injector before joining the
/// rendezvous (works on every backend, including native, which has no
/// window fault sites). Never returns.
void crash_self() {
  mpisim::ctx().fault().arm_crash();
  barrier();
  ADD_FAILURE() << "rank " << mpisim::rank()
                << " survived its armed crash";
}

/// Spin (host time) until the runtime has declared \p victim dead. The
/// caller is not blocked in a simulator wait, so deadlock detection is
/// unaffected; the victim's own death poke makes progress visible.
void await_death(int victim) {
  while (!is_failed(victim)) mpisim::yield();
}

/// Run \p workload in survivable mode; its victim dies in crash_self().
/// The victim's Errc::crashed is recorded and rethrown (the runtime
/// swallows it in survivable mode); every survivor is expected to finalize
/// cleanly.
RecoveryResult run_survivable(int nranks, const Options& opts,
                              const std::function<void()>& workload) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::infiniband;
  cfg.ranks_per_node = 1;  // all targets remote: no shared-memory shortcut
  cfg.fault.seed = chaos_seed();
  cfg.fault.survivable = true;

  RecoveryResult res;
  res.ranks.assign(static_cast<std::size_t>(nranks), {});
  try {
    mpisim::run(cfg, [&] {
      const auto me = static_cast<std::size_t>(mpisim::rank());
      try {
        init(opts);
        workload();
        if (me == 0 && opts.metrics) res.metrics = metrics_json();
        finalize();
        res.ranks[me] = {Kind::completed, ""};
      } catch (const mpisim::MpiError& e) {
        res.ranks[me] = {e.code() == Errc::crashed ? Kind::crashed
                                                   : Kind::other,
                         e.what()};
        throw;
      }
    });
  } catch (const mpisim::MpiError& e) {
    res.top_error = e.what();
  }
  return res;
}

/// The survivable-mode invariant: the victim died as Errc::crashed, every
/// survivor completed, and nothing escalated to a run-wide abort.
void expect_recovered(const RecoveryResult& res, int victim) {
  EXPECT_TRUE(res.top_error.empty()) << res.top_error;
  for (int r = 0; r < static_cast<int>(res.ranks.size()); ++r) {
    const Outcome& o = res.ranks[static_cast<std::size_t>(r)];
    if (r == victim) {
      EXPECT_EQ(o.kind, Kind::crashed) << "victim: " << o.what;
    } else {
      EXPECT_EQ(o.kind, Kind::completed)
          << "rank " << r << ": " << o.what;
    }
  }
}

class RecoveryBackendTest : public ::testing::TestWithParam<Backend> {};

TEST_P(RecoveryBackendTest, ReplicatedGaKillAndRecoverBitExact) {
  // Phase 1 (all ranks alive): every rank writes its own row of a
  // column-tiled replicated array, so each write fans out across every
  // owner and writes through to the buddy replicas. The victim then dies.
  // Phase 2 is read-only: survivors re-read every row; elements on the
  // dead owner come back through its replica, so the result must be
  // bit-exact against the no-fault values. rebuild() then redistributes
  // onto the survivors and the contents must still verify.
  constexpr int kN = 4;
  constexpr int kVictim = 2;
  Options opts;
  opts.backend = GetParam();
  opts.metrics = true;

  const RecoveryResult res = run_survivable(kN, opts, [] {
    const int me = mpisim::rank();
    const std::int64_t n = kN;
    const std::int64_t dims[] = {n, n};
    const std::int64_t chunk[] = {n, 1};  // one column tile per rank
    ga::GlobalArray g =
        ga::GlobalArray::create("recover", dims, ga::ElemType::dbl, chunk,
                                ga::NodeMapping::linear,
                                ga::Resilience::replicate);
    g.zero();

    const auto expected = [n](std::int64_t r) {
      std::vector<double> v(static_cast<std::size_t>(n));
      for (std::int64_t c = 0; c < n; ++c)
        v[static_cast<std::size_t>(c)] = static_cast<double>(r * 100 + c);
      return v;
    };
    ga::Patch row;
    row.lo = {me, 0};
    row.hi = {me, n - 1};
    const std::vector<double> mine = expected(me);
    g.put(row, mine.data());
    g.sync();

    if (me == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);
    EXPECT_EQ(failed_ranks(), std::vector<int>{kVictim});

    // Read-only recovery phase: bit-exact against the no-fault run.
    std::vector<double> back(static_cast<std::size_t>(n));
    for (std::int64_t r = 0; r < n; ++r) {
      row.lo = {r, 0};
      row.hi = {r, n - 1};
      std::fill(back.begin(), back.end(), -1.0);
      g.get(row, back.data());
      EXPECT_EQ(back, expected(r)) << "row " << r;
    }
    EXPECT_GT(stats().failovers, 0u);          // the dead column failed over
    EXPECT_GT(stats().replica_writes, 0u);     // phase 1 wrote through
    EXPECT_GE(mpisim::ctx().last_detect_latency_ns, 0.0);

    // Redistribute over the survivors; contents must be preserved.
    g.rebuild();
    const std::uint64_t failovers_before = stats().failovers;
    for (std::int64_t r = 0; r < n; ++r) {
      row.lo = {r, 0};
      row.hi = {r, n - 1};
      std::fill(back.begin(), back.end(), -1.0);
      g.get(row, back.data());
      EXPECT_EQ(back, expected(r)) << "post-rebuild row " << r;
    }
    // Every post-rebuild owner is alive: reads are primary again.
    EXPECT_EQ(stats().failovers, failovers_before);
    g.destroy();
  });
  expect_recovered(res, kVictim);

  // Recovery counters and the detection-latency gauge are part of the
  // armci-metrics-v1 export (captured on surviving rank 0).
  EXPECT_NE(res.metrics.find("\"failovers\":"), std::string::npos)
      << res.metrics;
  EXPECT_EQ(res.metrics.find("\"failovers\":0,"), std::string::npos)
      << res.metrics;
  EXPECT_NE(res.metrics.find("\"replica_writes\":"), std::string::npos);
  EXPECT_NE(res.metrics.find("\"detect_latency_ns\":"), std::string::npos);
  EXPECT_EQ(res.metrics.find("\"detect_latency_ns\":-1"), std::string::npos)
      << "gauge never stamped: " << res.metrics;
}

TEST_P(RecoveryBackendTest, ReplicatedScatterGatherFailOverBitExact) {
  // The element path (scatter / scatter_acc / gather) routes through the
  // buddy replicas like region access does, but counts per element: every
  // element written through is one replica write and every element read
  // from a replica one failover. A region get counts once per owner patch.
  constexpr int kN = 4;
  constexpr int kVictim = 2;  // its column's replica lives on rank 3
  Options opts;
  opts.backend = GetParam();

  const RecoveryResult res = run_survivable(kN, opts, [] {
    const int me = mpisim::rank();
    const std::int64_t n = kN;
    const std::int64_t dims[] = {n, n};
    const std::int64_t chunk[] = {n, 1};  // column c lives on rank c
    ga::GlobalArray g =
        ga::GlobalArray::create("scatter", dims, ga::ElemType::dbl, chunk,
                                ga::NodeMapping::linear,
                                ga::Resilience::replicate);
    g.zero();

    // Every element once, in row-major order.
    const auto n2 = static_cast<std::uint64_t>(n * n);
    std::vector<std::int64_t> subs;
    for (std::int64_t r = 0; r < n; ++r)
      for (std::int64_t c = 0; c < n; ++c) subs.insert(subs.end(), {r, c});
    const auto values = [n](double bias) {
      std::vector<double> v(static_cast<std::size_t>(n * n));
      for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i) * 10.0 + bias;
      return v;
    };
    const std::vector<double> before = values(0.25);
    std::vector<double> expected = values(0.75);  // scatter + scatter_acc

    if (me == 0) {
      reset_stats();
      g.scatter(before.data(), subs, n * n);
      EXPECT_EQ(stats().replica_writes, n2);
      const std::vector<double> half(static_cast<std::size_t>(n * n), 0.5);
      const double one = 1.0;
      g.scatter_acc(half.data(), subs, n * n, &one);
      EXPECT_EQ(stats().replica_writes, 2 * n2);
      EXPECT_EQ(stats().failovers, 0u);
    }
    g.sync();

    if (me == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);

    if (me == 0) {
      // The dead owner's column: every element fails over to the replica,
      // which holds both the scatter and the scatter_acc bit-exact.
      reset_stats();
      std::vector<std::int64_t> col;
      std::vector<double> col_expected;
      for (std::int64_t r = 0; r < n; ++r) {
        col.insert(col.end(), {r, kVictim});
        col_expected.push_back(
            expected[static_cast<std::size_t>(r * n + kVictim)]);
      }
      std::vector<double> back(static_cast<std::size_t>(n), -1.0);
      g.gather(back.data(), col, n);
      EXPECT_EQ(back, col_expected);
      EXPECT_EQ(stats().failovers, static_cast<std::uint64_t>(n));

      ga::Patch whole;
      whole.lo = {0, 0};
      whole.hi = {n - 1, n - 1};
      std::vector<double> all(static_cast<std::size_t>(n * n), -1.0);
      g.get(whole, all.data());
      EXPECT_EQ(all, expected);
      EXPECT_EQ(stats().failovers, static_cast<std::uint64_t>(n) + 1);

      // Writes after the death: the dead owner's elements land on its
      // replica only, and rank 1's elements lose their replica (rank 2
      // was its buddy), so three of the four columns write through.
      reset_stats();
      expected = values(0.125);
      g.scatter(expected.data(), subs, n * n);
      EXPECT_EQ(stats().replica_writes, static_cast<std::uint64_t>(3 * n));
      std::fill(all.begin(), all.end(), -1.0);
      g.gather(all.data(), subs, n * n);
      EXPECT_EQ(all, expected);
      EXPECT_EQ(stats().failovers, static_cast<std::uint64_t>(n));
    }
    g.sync();
    g.destroy();
  });
  expect_recovered(res, kVictim);
}

TEST_P(RecoveryBackendTest, MutexHeldByCrashedRankReclaimedWithinBound) {
  // Regression (satellite): an armci::Mutex held by a crashed rank must be
  // granted to a surviving waiter within the failure-detection bound --
  // blocked waiters may not hang and may not observe a run-wide abort. The
  // bound is checked in virtual time: acquisitions must land between the
  // victim's death and death + detect_period + a protocol allowance.
  constexpr int kN = 4;
  constexpr int kVictim = 2;
  Options opts;
  opts.backend = GetParam();
  auto observers = std::make_shared<std::atomic<int>>(0);
  auto death_ns = std::make_shared<double>(-1.0);

  const RecoveryResult res = run_survivable(kN, opts, [observers, death_ns] {
    const int me = mpisim::rank();
    std::vector<void*> bases = malloc_world(sizeof(std::int64_t));
    if (me == 0) {
      access_begin(bases[0]);
      std::memset(bases[0], 0, sizeof(std::int64_t));
      access_end(bases[0]);
    }
    create_mutexes(1);
    barrier();
    if (me == kVictim) lock(0, 0);
    barrier();  // every survivor sees the victim holding the mutex
    if (me == kVictim) {
      *death_ns = mpisim::clock().now_ns();  // no later than the death
      crash_self();
      return;
    }

    lock(0, 0);  // blocks on the dead holder until recovery hands over
    const double acquired_ns = mpisim::clock().now_ns();
    // The waiter that reclaimed the dead holder observed the death (gauge
    // stamped): its acquisition sits between the death and the detection
    // bound -- death time + detect_period (1e3) + an allowance for the
    // handoff protocol and predecessors' critical sections. Later waiters
    // take ordinary handoffs, which on the native backend do not propagate
    // the releaser's virtual time.
    if (mpisim::ctx().last_detect_latency_ns >= 0.0) {
      observers->fetch_add(1);
      EXPECT_GE(*death_ns, 0.0) << "observed a death before the victim died";
      EXPECT_GE(acquired_ns, *death_ns);
      EXPECT_LE(acquired_ns, *death_ns + 1e3 + 1e6)
          << "rank " << me << " acquired far past the detection bound";
    }

    std::int64_t c = 0;
    get(bases[0], &c, sizeof c, 0);
    ++c;
    put(&c, bases[0], sizeof c, 0);
    fence(0);
    unlock(0, 0);

    barrier();  // dead member excused
    if (me == 0) {
      std::int64_t total = 0;
      get(bases[0], &total, sizeof total, 0);
      EXPECT_EQ(total, kN - 1);  // every survivor's increment, exactly once
    }
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(me)]);
  });
  expect_recovered(res, kVictim);
  // At least one waiter (the reclaimer) must have observed the death.
  EXPECT_GE(observers->load(), 1);
}

TEST_P(RecoveryBackendTest, WaitersOnMutexHostedByCrashedRankRaiseCrashed) {
  // Regression: a mutex *hosted* on the crashed rank (here also held by it)
  // strands waiters against state that dies with the host -- survivors must
  // observe Errc::crashed instead of hanging. On the native backend the
  // waiters' wait predicate used to keep dereferencing the host's ProcState
  // after user_state_cleanup freed it (use-after-free).
  constexpr int kN = 4;
  constexpr int kVictim = 2;
  Options opts;
  opts.backend = GetParam();
  auto raised = std::make_shared<std::atomic<int>>(0);

  const RecoveryResult res = run_survivable(kN, opts, [raised] {
    const int me = mpisim::rank();
    create_mutexes(1);
    barrier();
    if (me == kVictim) lock(0, kVictim);  // hold our own hosted mutex
    barrier();  // every survivor sees the victim holding it
    if (me == kVictim) {
      crash_self();
      return;
    }
    try {
      lock(0, kVictim);
      ADD_FAILURE() << "lock on a dead host's mutex completed";
    } catch (const mpisim::MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      raised->fetch_add(1);
    }
    barrier();  // dead member excused
    destroy_mutexes();
  });
  expect_recovered(res, kVictim);
  EXPECT_EQ(raised->load(), kN - 1);
}

INSTANTIATE_TEST_SUITE_P(Backends, RecoveryBackendTest,
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

TEST(RecoveryTest, CounterDrivenTasksCompleteAfterCrash) {
  // NWChem-style dynamic load balancing under failure: workers draw task
  // ids from the shared counter (hosted on rank 0, which never dies) and
  // write one row of a replicated result array per task. The victim dies
  // before claiming any task, so the survivors drain the whole task pool
  // and the final array must be complete and bit-exact -- puts write
  // through to replicas where the dead rank owned the primary tile, and
  // the verification reads fail over to them.
  constexpr int kN = 4;
  constexpr int kVictim = 3;  // never the counter host
  constexpr std::int64_t kTasks = 9;
  Options opts;
  opts.metrics = true;

  const RecoveryResult res = run_survivable(kN, opts, [] {
    const int me = mpisim::rank();
    const std::int64_t dims[] = {kTasks, kN};
    const std::int64_t chunk[] = {kTasks, 1};  // one column tile per rank
    ga::GlobalArray g =
        ga::GlobalArray::create("tasks", dims, ga::ElemType::dbl, chunk,
                                ga::NodeMapping::linear,
                                ga::Resilience::replicate);
    g.zero();
    ga::AtomicCounter counter = ga::AtomicCounter::create();
    barrier();

    if (me == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);

    const auto task_row = [](std::int64_t t) {
      std::vector<double> v(kN);
      for (std::int64_t c = 0; c < kN; ++c)
        v[static_cast<std::size_t>(c)] = static_cast<double>(t * 1000 + c);
      return v;
    };
    ga::Patch row;
    std::int64_t claimed = 0;
    for (std::int64_t t; (t = counter.next()) < kTasks;) {
      row.lo = {t, 0};
      row.hi = {t, kN - 1};
      const std::vector<double> v = task_row(t);
      g.put(row, v.data());
      ++claimed;
    }
    g.sync();

    std::vector<double> back(kN);
    for (std::int64_t t = 0; t < kTasks; ++t) {
      row.lo = {t, 0};
      row.hi = {t, kN - 1};
      std::fill(back.begin(), back.end(), -1.0);
      g.get(row, back.data());
      EXPECT_EQ(back, task_row(t)) << "task " << t;
    }
    EXPECT_GT(stats().failovers, 0u);
    // Virtual-time racing can hand every task to one worker; only ranks
    // that actually claimed work are guaranteed write-throughs.
    if (claimed > 0) EXPECT_GT(stats().replica_writes, 0u);

    counter.destroy();
    g.destroy();
  });
  expect_recovered(res, kVictim);
}

TEST(RecoveryTest, NbFlushDrainsHealthyQueuesPastDeadOwner) {
  // Survivor-side nonblocking semantics after a death: a flush covering a
  // dead owner raises Errc::crashed, but batches queued to healthy owners
  // land -- the error must not strand them, and the survivor continues.
  constexpr int kVictim = 1;
  Options opts;

  const RecoveryResult res = run_survivable(3, opts, [] {
    const int me = mpisim::rank();
    std::vector<void*> bases = malloc_world(64);
    access_begin(bases[static_cast<std::size_t>(me)]);
    std::memset(bases[static_cast<std::size_t>(me)], 0, 64);
    access_end(bases[static_cast<std::size_t>(me)]);
    barrier();
    if (me == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);

    if (me == 0) {
      const std::int64_t healthy = 7, doomed = 9;
      try {
        nb_put(&healthy, bases[2], sizeof healthy, 2);
        nb_put(&doomed, bases[1], sizeof doomed, 1);
        wait_all();
        ADD_FAILURE() << "flush covering a dead owner did not raise";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      std::int64_t back = 0;
      get(bases[2], &back, sizeof back, 2);
      EXPECT_EQ(back, healthy) << "healthy owner's batch was stranded";
    }
    barrier();
    free(bases[static_cast<std::size_t>(me)]);
  });
  expect_recovered(res, kVictim);
}

TEST(RecoveryTest, ProgressPersonaParksDeadOwnerQueue) {
  // Progress-engine failure semantics: the persona's tick tries to drain a
  // queue whose owner died, parks the queue with the Errc::crashed it hit,
  // and keeps draining healthy queues. The parked error surfaces exactly
  // once -- from the first test() (round 1) or the completion callback
  // (round 2) -- after which the tickets read complete and the survivor
  // continues; no blocking wait()/flush ever runs against the dead owner.
  constexpr int kVictim = 1;
  Options opts;
  opts.progress = true;

  const RecoveryResult res = run_survivable(3, opts, [] {
    const int me = mpisim::rank();
    std::vector<void*> bases = malloc_world(64);
    access_begin(bases[static_cast<std::size_t>(me)]);
    std::memset(bases[static_cast<std::size_t>(me)], 0, 64);
    access_end(bases[static_cast<std::size_t>(me)]);
    barrier();
    if (me == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);

    if (me == 0) {
      // Round 1: the parked error surfaces from test(), exactly once.
      const std::int64_t healthy = 7, doomed = 9;
      Request rq_h = nb_put(&healthy, bases[2], sizeof healthy, 2);
      Request rq_d = nb_put(&doomed, bases[1], sizeof doomed, 1);
      // Tick from modeled compute: the healthy queue drains, the victim
      // queue parks. The error must NOT escape advance_compute itself.
      mpisim::clock().advance_compute(50'000.0);
      EXPECT_TRUE(test(rq_h)) << "healthy queue not drained by the tick";
      try {
        (void)test(rq_d);
        ADD_FAILURE() << "parked Errc::crashed never surfaced from test()";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      EXPECT_TRUE(test(rq_d));  // error already delivered: reads complete
      std::int64_t back = 0;
      get(bases[2], &back, sizeof back, 2);
      EXPECT_EQ(back, healthy) << "healthy owner's batch was stranded";

      // Round 2: the parked error is delivered through on_complete.
      Request rq2 = nb_put(&doomed, bases[1], sizeof doomed, 1);
      int fired = 0;
      std::exception_ptr seen;
      on_complete(rq2, [&](std::exception_ptr err) {
        ++fired;
        seen = err;
      });
      mpisim::clock().advance_compute(50'000.0);
      EXPECT_EQ(fired, 1);
      ASSERT_NE(seen, nullptr) << "callback ran without the parked error";
      try {
        std::rethrow_exception(seen);
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      EXPECT_TRUE(test(rq2));  // consumed by the callback: no rethrow
    }
    barrier();
    free(bases[static_cast<std::size_t>(me)]);
  });
  expect_recovered(res, kVictim);
}

TEST(RecoveryTest, PGroupShrinkBuildsLiveGroup) {
  // ARMCI groups over a shrunken communicator: survivors collectively
  // rebuild the world group minus the dead member and can run collectives
  // and absolute-id translation on it.
  constexpr int kVictim = 1;
  Options opts;

  const RecoveryResult res = run_survivable(3, opts, [] {
    if (mpisim::rank() == kVictim) {
      crash_self();
      return;
    }
    await_death(kVictim);

    const PGroup live = PGroup::shrink(PGroup::world());
    ASSERT_TRUE(live.valid());
    EXPECT_EQ(live.size(), 2);
    EXPECT_EQ(live.absolute_id(0), 0);
    EXPECT_EQ(live.absolute_id(1), 2);
    EXPECT_EQ(live.rank_of(kVictim), -1);
    EXPECT_EQ(live.absolute_id(live.rank()), mpisim::rank());
    live.barrier();
  });
  expect_recovered(res, kVictim);
}

}  // namespace
}  // namespace armci
