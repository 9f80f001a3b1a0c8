// ARMCI-level happens-before race tests (MPISIM_RMA_CHECK=race): the
// mutex-protected read-modify-write idiom is clean on every backend because
// the mutex handoff is a synchronization edge (token message on the queueing
// mutexes, release/acquire channel on the native backend), while the same
// read WITHOUT the mutex races against the critical section's published
// put. put_notify/wait_notify is likewise clean: the notify flag is a
// synchronization word (exempt from checking itself) whose channel edge
// orders the payload. Also pins the armci::stats()/armci-metrics-v1 export
// of the race counters.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/metrics.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Platform;

mpisim::Config race_cfg(int nranks) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::ideal;
  cfg.rma_check = mpisim::RmaCheck::race;
  return cfg;
}

class ArmciHbRaceTest : public ::testing::TestWithParam<Backend> {
 protected:
  Options opts() const {
    Options o;
    o.backend = GetParam();
    return o;
  }
};

// Negative: contended mutex-protected increments from both ranks. Every
// critical section's put is ordered into the next holder's reads by the
// mutex handoff, so the detector stays silent under real contention.
TEST_P(ArmciHbRaceTest, MutexProtectedRmwIsClean) {
  mpisim::run(race_cfg(2), [&] {
    init(opts());
    std::vector<void*> bases = malloc_world(sizeof(std::int64_t));
    if (mpisim::rank() == 0) *static_cast<std::int64_t*>(bases[0]) = 0;
    create_mutexes(1);
    barrier();
    const int iters = 10;
    for (int i = 0; i < iters; ++i) {
      lock(0, 0);
      std::int64_t v = 0;
      get(bases[0], &v, sizeof v, 0);
      ++v;
      put(&v, bases[0], sizeof v, 0);
      fence(0);
      unlock(0, 0);
    }
    barrier();
    if (mpisim::rank() == 0)
      EXPECT_EQ(*static_cast<std::int64_t*>(bases[0]), 2 * iters);
    EXPECT_EQ(stats().rma_races, 0u);
    // The per-class counters are exported under armci-metrics-v1.
    EXPECT_NE(metrics_json().find("\"rma_race\":{\"ww\":0,"),
              std::string::npos);
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    destroy_mutexes();
    finalize();
  });
}

// Negative: the producer/consumer notify idiom. The flag word itself is
// exempt (a sync word, like an atomic under TSan); the payload read after
// wait_notify is ordered by the notify channel edge.
TEST_P(ArmciHbRaceTest, NotifyOrdersThePayload) {
  mpisim::run(race_cfg(2), [&] {
    init(opts());
    std::vector<void*> data = malloc_world(sizeof(std::int64_t));
    std::vector<void*> flag = malloc_world(sizeof(int));
    if (mpisim::rank() == 1) *static_cast<int*>(flag[1]) = 0;
    barrier();
    if (mpisim::rank() == 0) {
      const std::int64_t v = 42;
      put_notify(&v, data[1], sizeof v, static_cast<int*>(flag[1]), 7, 1);
    } else {
      wait_notify(static_cast<const int*>(flag[1]), 7);
      access_begin(data[1]);
      EXPECT_EQ(*static_cast<const std::int64_t*>(data[1]), 42);
      access_end(data[1]);
    }
    barrier();
    EXPECT_EQ(stats().rma_races, 0u);
    free(flag[static_cast<std::size_t>(mpisim::rank())]);
    free(data[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, ArmciHbRaceTest,
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

// Positive: the same counter read WITHOUT the mutex. Restricted to the
// backends whose data path creates no per-op lock-slot edge (the mpi2
// backend serializes every op through an exclusive epoch, which IS an
// ordering, so the unprotected read there is merely lucky -- not a
// provable race).
class ArmciHbRacePositiveTest : public ArmciHbRaceTest {};

TEST_P(ArmciHbRacePositiveTest, UnprotectedReadOfMutexGuardedCounterRaces) {
  std::atomic<bool> ready{false};
  mpisim::Config cfg = race_cfg(3);
  // Separate nodes, and the counter hosted on an otherwise-idle third
  // rank, so BOTH contenders go through the true remote path. The native
  // backend is always a direct access (class shm); mpi3 implements put as
  // accumulate(replace) for element-wise atomicity, so the unordered get
  // against it classifies as acc_mix.
  cfg.ranks_per_node = 1;
  const char* want_class =
      GetParam() == Backend::native ? "[shm]" : "[acc_mix]";
  const int host = 2;
  mpisim::run(cfg, [&] {
    init(opts());
    std::vector<void*> bases = malloc_world(sizeof(std::int64_t));
    if (mpisim::rank() == host)
      *static_cast<std::int64_t*>(bases[static_cast<std::size_t>(host)]) = 0;
    void* const counter = bases[static_cast<std::size_t>(host)];
    create_mutexes(1);
    barrier();
    if (mpisim::rank() == 0) {
      lock(0, host);
      std::int64_t v = 0;
      get(counter, &v, sizeof v, host);
      ++v;
      put(&v, counter, sizeof v, host);
      fence(host);
      unlock(0, host);
      ready.store(true, std::memory_order_release);
    } else if (mpisim::rank() == 1) {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      std::int64_t v = 0;
      try {
        get(counter, &v, sizeof v, host);  // no mutex: nothing orders us
        ADD_FAILURE() << "expected Errc::rma_race";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rma_race) << e.what();
        const std::string msg = e.what();
        EXPECT_NE(msg.find(want_class), std::string::npos) << msg;
        EXPECT_NE(msg.find("races with rank 0's"), std::string::npos) << msg;
        EXPECT_NE(msg.find("missing edge"), std::string::npos) << msg;
      }
      EXPECT_GE(stats().rma_races, 1u);
      // The race count reaches the armci-metrics-v1 counters object.
      const std::string doc = metrics_json();
      EXPECT_NE(doc.find("\"rma_races\":" +
                         std::to_string(stats().rma_races) + ","),
                std::string::npos)
          << doc;
      reset_stats();
      EXPECT_EQ(stats().rma_races, 0u);  // baseline resets with the rest
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    destroy_mutexes();
    finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, ArmciHbRacePositiveTest,
                         ::testing::Values(Backend::native, Backend::mpi3),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::mpi: return "Mpi";
                             case Backend::native: return "Native";
                             case Backend::mpi3: return "Mpi3";
                           }
                           return "?";
                         });

// ---------------------------------------------------------------------------
// Progress-engine retirement edge (nb.cpp deferred-op contracts)
// ---------------------------------------------------------------------------

// The CI matrix re-runs this binary under MPISIM_RMA_CHECK=abort/warn,
// which overrides race_cfg's detector choice; the progress-race tests
// depend on race semantics specifically, so they skip themselves there.
#define SKIP_UNLESS_RACE_MODE()                                             \
  do {                                                                      \
    const char* rc_ = std::getenv("MPISIM_RMA_CHECK");                      \
    if (rc_ != nullptr && std::string(rc_) != "race")                       \
      GTEST_SKIP() << "MPISIM_RMA_CHECK=" << rc_                            \
                   << " overrides the race detector";                       \
  } while (0)

// Deferral-capable backends only: the native backend never defers, so the
// persona never holds a contract there.
class ArmciProgressRaceTest : public ::testing::TestWithParam<Backend> {
 protected:
  Options opts() const {
    Options o;
    o.backend = GetParam();
    o.progress = true;
    o.no_local_copy = true;  // the self-touch must hit the real data path
    return o;
  }
};

char* gslice(std::vector<void*>& bases, int r) {
  return static_cast<char*>(bases[static_cast<std::size_t>(r)]);
}

// Positive: a deferred nb_get's destination inside our own global slice is
// charged to the progress persona as a pending write. Touching that region
// before the engine retires the batch races -- the persona is a distinct
// identity, and nothing orders the app's read after its unretired write.
TEST_P(ArmciProgressRaceTest, TouchBeforeRetirementRaces) {
  SKIP_UNLESS_RACE_MODE();
  mpisim::Config cfg = race_cfg(2);
  cfg.ranks_per_node = 1;  // rank 1 remote: the nb_get actually defers
  mpisim::run(cfg, [&] {
    init(opts());
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = malloc_world(kBytes);
    std::memset(gslice(bases, mpisim::rank()), mpisim::rank() + 1, kBytes);
    barrier();
    if (mpisim::rank() == 0) {
      Request req = nb_get(gslice(bases, 1), gslice(bases, 0), kBytes, 1);
      char priv[kBytes] = {0};
      try {
        get(bases[0], priv, kBytes, 0);  // reads the contracted region
        ADD_FAILURE() << "expected Errc::rma_race";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rma_race) << e.what();
        EXPECT_NE(std::string(e.what()).find("progress persona"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_GE(stats().rma_races, 1u);
      // Draining the queue may re-report against the racy read's summary;
      // tolerate it -- the batch itself must still complete and land.
      try {
        wait(req);
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rma_race) << e.what();
      }
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Negative: the same touch from an operation-level completion callback.
// The callback runs from the tick AFTER the persona retired the batch
// (persona_retire joins owner <- persona), so the read is ordered and
// clean -- and the fetched data is already there to read.
TEST_P(ArmciProgressRaceTest, CallbackAfterRetirementIsClean) {
  SKIP_UNLESS_RACE_MODE();
  mpisim::Config cfg = race_cfg(2);
  cfg.ranks_per_node = 1;
  mpisim::run(cfg, [&] {
    init(opts());
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = malloc_world(kBytes);
    std::memset(gslice(bases, mpisim::rank()), mpisim::rank() + 1, kBytes);
    barrier();
    if (mpisim::rank() == 0) {
      Request req = nb_get(gslice(bases, 1), gslice(bases, 0), kBytes, 1);
      bool fired = false;
      on_complete(req, Completion::operation,
                  [&](std::exception_ptr err) {
                    EXPECT_EQ(err, nullptr);
                    char priv[kBytes] = {0};
                    get(bases[0], priv, kBytes, 0);  // post-retirement touch
                    EXPECT_EQ(priv[0], 2);  // rank 1's fill pattern
                    EXPECT_EQ(priv[kBytes - 1], 2);
                    fired = true;
                  });
      mpisim::clock().advance_compute(50'000.0);  // issue + complete ticks
      EXPECT_TRUE(fired);
      EXPECT_TRUE(req.test());
      EXPECT_EQ(stats().rma_races, 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, ArmciProgressRaceTest,
                         ::testing::Values(Backend::mpi, Backend::mpi3),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::mpi: return "Mpi";
                             case Backend::native: return "Native";
                             case Backend::mpi3: return "Mpi3";
                           }
                           return "?";
                         });

// Positive, mpi3 split completion: a SOURCE-level callback fires at the
// issue tick, while the get is still in flight to the target -- the
// persona's pending write is unretired, so touching the destination from
// that callback races. The throw propagates out of advance_compute.
TEST(ArmciProgressSourceRaceTest, SourceCallbackTouchRacesOnMpi3) {
  SKIP_UNLESS_RACE_MODE();
  mpisim::Config cfg = race_cfg(2);
  cfg.ranks_per_node = 1;
  mpisim::run(cfg, [&] {
    Options o;
    o.backend = Backend::mpi3;
    o.progress = true;
    o.no_local_copy = true;
    init(o);
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = malloc_world(kBytes);
    std::memset(gslice(bases, mpisim::rank()), mpisim::rank() + 1, kBytes);
    barrier();
    if (mpisim::rank() == 0) {
      Request req = nb_get(gslice(bases, 1), gslice(bases, 0), kBytes, 1);
      on_complete(req, Completion::source, [&](std::exception_ptr err) {
        EXPECT_EQ(err, nullptr);
        char priv[kBytes] = {0};
        get(bases[0], priv, kBytes, 0);  // destination still in flight
        ADD_FAILURE() << "source-level touch of an unretired get "
                         "destination was not flagged";
      });
      try {
        mpisim::clock().advance_compute(15'000.0);  // one tick: issue
        ADD_FAILURE() << "expected Errc::rma_race out of the tick";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rma_race) << e.what();
        EXPECT_NE(std::string(e.what()).find("progress persona"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_GE(stats().rma_races, 1u);
      try {
        wait(req);
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rma_race) << e.what();
      }
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

}  // namespace
}  // namespace armci
