// Positive and negative suite for the happens-before race detector
// (src/mpisim/hb.hpp, MPISIM_RMA_CHECK=race). One positive test per
// missing-edge class -- unordered put/put across epochs, get against an
// unflushed accumulate, serialized-by-luck shared epochs, shm direct store
// against a published-but-unsynchronized put, and post-crash access to a
// dead rank's data without a recovery edge -- plus negative twins proving
// every synchronization edge (barrier, exclusive lock handoff, message,
// channel, failure_ack) suppresses the report. Standalone HbChecker unit
// tests pin the shadow-store memory bounds: exact pruning, min-clock
// same-origin merging (no lost detections), and the hard cap's overflow
// accounting.

#include "src/mpisim/hb.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

Config race_cfg(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::ideal;
  cfg.rma_check = RmaCheck::race;
  return cfg;
}

HbRaceCounts my_races() { return ctx().core().hb().counts(rank()); }

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

/// Expects \p fn to raise Errc::rma_race and returns the message.
template <typename Fn>
std::string expect_race(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_race) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected Errc::rma_race";
  return {};
}

TEST(HbTest, RaceAndModeNamesAreStable) {
  EXPECT_STREQ(hb_race_name(HbRace::ww), "ww");
  EXPECT_STREQ(hb_race_name(HbRace::rw), "rw");
  EXPECT_STREQ(hb_race_name(HbRace::acc_mix), "acc_mix");
  EXPECT_STREQ(hb_race_name(HbRace::shm), "shm");
  EXPECT_STREQ(hb_race_name(HbRace::dead_origin), "dead_origin");
  EXPECT_STREQ(rma_check_name(RmaCheck::race), "race");
}

TEST(HbTest, ParseRmaCheckAcceptsKnownValuesOnly) {
  RmaCheck m = RmaCheck::warn;
  EXPECT_TRUE(parse_rma_check("off", &m));
  EXPECT_EQ(m, RmaCheck::off);
  EXPECT_TRUE(parse_rma_check("warn", &m));
  EXPECT_EQ(m, RmaCheck::warn);
  EXPECT_TRUE(parse_rma_check("abort", &m));
  EXPECT_EQ(m, RmaCheck::abort);
  EXPECT_TRUE(parse_rma_check("race", &m));
  EXPECT_EQ(m, RmaCheck::race);
  m = RmaCheck::abort;
  EXPECT_FALSE(parse_rma_check("bogus", &m));
  EXPECT_FALSE(parse_rma_check("", &m));
  EXPECT_FALSE(parse_rma_check("RACE", &m));
  EXPECT_FALSE(parse_rma_check(nullptr, &m));
  EXPECT_EQ(m, RmaCheck::abort);  // rejected values leave *out untouched
}

TEST(HbTest, EnvVarRaceEnablesTheDetector) {
  ASSERT_EQ(setenv("MPISIM_RMA_CHECK", "race", 1), 0);
  Config cfg = race_cfg(1);
  cfg.rma_check = RmaCheck::off;  // env must win
  run(cfg, [] {
    EXPECT_EQ(ctx().core().checker().mode(), RmaCheck::race);
    EXPECT_TRUE(ctx().core().hb().enabled());
  });
  unsetenv("MPISIM_RMA_CHECK");
}

TEST(HbTest, UnknownEnvValueFallsBackToOff) {
  ASSERT_EQ(setenv("MPISIM_RMA_CHECK", "frobnicate", 1), 0);
  Config cfg = race_cfg(1);
  cfg.rma_check = RmaCheck::abort;  // the bad env value must not silently win
  run(cfg, [] {
    EXPECT_EQ(ctx().core().checker().mode(), RmaCheck::off);
    EXPECT_FALSE(ctx().core().hb().enabled());
  });
  unsetenv("MPISIM_RMA_CHECK");
}

// Class ww, pending tier: two shared (lock_all) origins put to overlapping
// bytes and the first never flushes. No ordering can exist before the
// publication point, so the second put races no matter what collectives
// separate them -- the missing flush IS the missing edge.
TEST(HbTest, UnorderedLockAllPutsRace) {
  run(race_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);  // in flight, no flush
    world().barrier();  // an edge -- but pending conflicts race regardless
    if (rank() == 1) {
      const std::string msg = expect_race(
          [&] { win.put(src, sizeof src, 0, sizeof(double)); });
      EXPECT_TRUE(contains(msg, "[ww]")) << msg;
      EXPECT_TRUE(contains(msg, "in-flight")) << msg;
      EXPECT_TRUE(contains(msg, "never completed by a flush or unlock"))
          << msg;
      EXPECT_EQ(my_races().ww, 1u);
    }
    world().barrier();  // hold the unlock (publication) until after the check
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// Class rw, pending tier: a get against another origin's unflushed put.
TEST(HbTest, GetAgainstUnflushedPutRaces) {
  run(race_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);
    world().barrier();
    if (rank() == 1) {
      double out[2] = {0.0, 0.0};
      const std::string msg =
          expect_race([&] { win.get(out, sizeof out, 0, 0); });
      EXPECT_TRUE(contains(msg, "[rw]")) << msg;
      EXPECT_TRUE(contains(msg, "get")) << msg;
      EXPECT_EQ(my_races().rw, 1u);
    }
    world().barrier();  // hold the unlock (publication) until after the check
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// Class acc_mix, pending tier: a put lands on bytes another origin is
// accumulating into without having flushed.
TEST(HbTest, PutAgainstUnflushedAccumulateRaces) {
  run(race_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0)
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
    world().barrier();
    if (rank() == 1) {
      const std::string msg =
          expect_race([&] { win.put(src, sizeof src, 0, 0); });
      EXPECT_TRUE(contains(msg, "[acc_mix]")) << msg;
      EXPECT_TRUE(contains(msg, "accumulate")) << msg;
      EXPECT_EQ(my_races().acc_mix, 1u);
    }
    world().barrier();  // hold the unlock (publication) until after the check
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// Class ww, published tier: the first put IS flushed, but nothing orders
// the second origin after the publication -- the test forces the real-time
// order with a host-level atomic the simulator cannot see. This is the
// bug class the epoch checker is structurally blind to.
TEST(HbTest, PublishedPutWithoutAnEdgeRaces) {
  std::atomic<bool> ready{false};
  run(race_cfg(2), [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0) {
      win.put(src, sizeof src, 0, 0);
      win.flush(0);  // published -- but a flush creates no inter-rank edge
      ready.store(true, std::memory_order_release);
    } else {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      const std::string msg = expect_race(
          [&] { win.put(src, sizeof src, 0, sizeof(double)); });
      EXPECT_TRUE(contains(msg, "[ww]")) << msg;
      EXPECT_TRUE(contains(msg, "published at flush")) << msg;
      EXPECT_TRUE(contains(msg, "no synchronization")) << msg;
      EXPECT_EQ(my_races().ww, 1u);
    }
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

/// Ranks 1 and 2 each apply one accumulate-class operation to the same 8
/// bytes of rank 0 under lock_all: fetch_and_op(\p fop) and
/// accumulate(\p aop), the fetch first when \p fetch_first. The first is
/// flushed (published) before the second issues, with no edge between
/// them. Returns the second origin's acc_mix race count.
std::uint64_t published_acc_mixes(Op fop, Op aop, bool fetch_first) {
  std::atomic<bool> published{false};
  std::uint64_t mixes = 0;
  run(race_cfg(3), [&] {
    std::int64_t mem = 0;
    Win win = Win::create(&mem, sizeof mem, world());
    const std::int64_t one = 1;
    std::int64_t old = 0;
    const auto issue = [&](bool fetch) {
      if (fetch)
        win.fetch_and_op(&one, &old, BasicType::int64, 0, 0, fop);
      else
        win.accumulate(&one, 1, int64_type(), 0, 0, 1, int64_type(), aop);
      win.flush(0);
    };
    win.lock_all();
    if (rank() == 1) {
      issue(fetch_first);
      published.store(true, std::memory_order_release);
    } else if (rank() == 2) {
      while (!published.load(std::memory_order_acquire)) mpisim::yield();
      try {
        issue(!fetch_first);
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::rma_race) << e.what();
        EXPECT_TRUE(contains(e.what(), "[acc_mix]")) << e.what();
      }
      mixes = my_races().acc_mix;
    }
    win.unlock_all();
    world().barrier();
    win.free();
  });
  return mixes;
}

// MPI-3 same_op_no_op, as in the MPI-2 checker: no_op mixes with any
// accumulate operator, whichever operation was published first.
TEST(HbTest, NoOpMixesWithAnyAccumulateInEitherOrder) {
  for (const bool fetch_first : {true, false})
    EXPECT_EQ(published_acc_mixes(Op::no_op, Op::sum, fetch_first), 0u)
        << "fetch_and_op(no_op) first: " << fetch_first;
}

TEST(HbTest, DifferentOpAccumulatesRaceInEitherOrder) {
  for (const bool fetch_first : {true, false})
    EXPECT_EQ(published_acc_mixes(Op::max, Op::sum, fetch_first), 1u)
        << "fetch_and_op(max) first: " << fetch_first;
}

// A MuteScope mutes only the rank that opened it: every rank shares one
// host thread, so a host-thread-wide mute would hide this race.
TEST(HbTest, MuteScopeOnOneRankLeavesOthersRecording) {
  std::atomic<bool> muted{false};
  std::atomic<bool> raced{false};
  run(race_cfg(2), [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0) {
      win.put(src, sizeof src, 0, 0);
      win.flush(0);
      HbChecker::MuteScope mute(ctx().core().hb(), 0);
      muted.store(true, std::memory_order_release);
      while (!raced.load(std::memory_order_acquire)) mpisim::yield();
    } else {
      while (!muted.load(std::memory_order_acquire)) mpisim::yield();
      const std::string msg = expect_race(
          [&] { win.put(src, sizeof src, 0, sizeof(double)); });
      EXPECT_TRUE(contains(msg, "[ww]")) << msg;
      EXPECT_EQ(my_races().ww, 1u);
      raced.store(true, std::memory_order_release);
    }
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// Negative twin: the same flushed put followed by a barrier is ordered.
TEST(HbTest, BarrierOrdersPublishedPuts) {
  run(race_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == 0) {
      win.put(src, sizeof src, 0, 0);
      win.flush(0);
    }
    world().barrier();  // publication happens-before the second put
    if (rank() == 1) {
      win.put(src, sizeof src, 0, sizeof(double));
      win.flush(0);
    }
    win.unlock_all();
    world().barrier();
    win.free();
    EXPECT_EQ(ctx().core().hb().total_counts().total(), 0u);
  });
}

// Negative: an exclusive lock handoff is an edge (the unlock releases the
// clock into the target-side slot; the next grant acquires it), even when
// the interleaving is forced by a host atomic rather than any collective.
TEST(HbTest, ExclusiveLockHandoffOrdersEpochs) {
  std::atomic<bool> ready{false};
  run(race_cfg(2), [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::exclusive, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
      ready.store(true, std::memory_order_release);
    } else {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      win.lock(LockType::exclusive, 0);
      win.put(src, sizeof src, 0, 0);  // same bytes; ordered via the slot
      win.unlock(0);
    }
    world().barrier();
    win.free();
    EXPECT_EQ(ctx().core().hb().total_counts().total(), 0u);
  });
}

// Two shared epochs on the same bytes that only happen to be serialized in
// real time: MPI gives shared holders no mutual ordering, so the values
// are undefined -- a race. The epoch checker deliberately accepts this
// (serialized epochs look clean to it); the vector clocks do not, because
// no synchronization edge proves the order. Errc::rma_race (not
// rma_conflict) pins which detector fired.
TEST(HbTest, SerializedSharedEpochsWithoutAnEdgeRace) {
  std::atomic<bool> ready{false};
  run(race_cfg(2), [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);  // published -- but shared unlocks order nobody
      ready.store(true, std::memory_order_release);
    } else {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      win.lock(LockType::shared, 0);
      const std::string msg =
          expect_race([&] { win.put(src, sizeof src, 0, 0); });
      EXPECT_TRUE(contains(msg, "[ww]")) << msg;
      EXPECT_TRUE(contains(msg, "published at shared unlock")) << msg;
      EXPECT_EQ(my_races().ww, 1u);
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

// Negative: a shared unlock followed by an *exclusive* grant is ordered
// (the exclusive grant waited for every shared holder to drain).
TEST(HbTest, SharedUnlockToExclusiveGrantIsAnEdge) {
  std::atomic<bool> ready{false};
  run(race_cfg(2), [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
      ready.store(true, std::memory_order_release);
    } else {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      win.lock(LockType::exclusive, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    win.free();
    EXPECT_EQ(ctx().core().hb().total_counts().total(), 0u);
  });
}

// Negative: a two-sided message carries the sender's clock, so publication
// before a send is visible to accesses after the matching receive.
TEST(HbTest, MessageCreatesTheEdge) {
  run(race_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
      const char token = 1;
      world().send(&token, 1, 1, 9);
    } else {
      char token = 0;
      world().recv(&token, 1, 0, 9);
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);  // ordered via the message edge
      win.unlock(0);
    }
    world().barrier();
    win.free();
    EXPECT_EQ(ctx().core().hb().total_counts().total(), 0u);
  });
}

// Class shm: a direct store into bytes whose covering put was flushed (so
// the epoch checker sees nothing in flight) but never synchronized to the
// storing rank.
TEST(HbTest, ShmDirectStoreAgainstPublishedPutRaces) {
  Config cfg = race_cfg(2);
  cfg.ranks_per_node = 2;  // co-locate both ranks: the shm path is legal
  std::atomic<bool> ready{false};
  run(cfg, [&] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);
      win.flush(1);  // published: nothing in flight for the epoch checker
      ready.store(true, std::memory_order_release);
    } else {
      while (!ready.load(std::memory_order_acquire))
        mpisim::yield();
      const std::string msg =
          expect_race([&] { win.shm_put(src, sizeof src, 1, 0); });
      EXPECT_TRUE(contains(msg, "[shm]")) << msg;
      EXPECT_TRUE(contains(msg, "direct store")) << msg;
      EXPECT_EQ(my_races().shm, 1u);
    }
    world().barrier();
    if (rank() == 0) win.unlock(1);
    world().barrier();
    win.free();
  });
}

// A shm fast-path op by a rank holding an open shm declaration over the
// same bytes publishes only itself: the declaration stays in flight, so
// remote RMA landing on it races, and once shm_access_end published it a
// barrier orders the same RMA after it.
TEST(HbTest, ShmOpKeepsOwnOpenShmDeclaration) {
  Config cfg = race_cfg(2);
  cfg.ranks_per_node = 2;
  run(cfg, [&] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1) {
      win.shm_access_begin(1, 0, sizeof src, /*write=*/true);  // own segment
      win.shm_put(src, sizeof src, 1, 0);  // same rank, same bytes
    }
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      const std::string msg =
          expect_race([&] { win.put(src, sizeof src, 1, 0); });
      EXPECT_TRUE(contains(msg, "in-flight")) << msg;
      EXPECT_EQ(my_races().shm, 1u);
      // Race mode keeps the epoch checker on: the unlock reports the same
      // overlap as an epoch conflict, and the retry releases the lock.
      try {
        win.unlock(1);
        ADD_FAILURE() << "expected Errc::rma_conflict";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::rma_conflict) << e.what();
      }
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) win.shm_access_end(1, 0);
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // ordered by the barrier: clean
      win.unlock(1);
    }
    world().barrier();
    EXPECT_EQ(ctx().core().hb().total_counts().total(), 1u);
    win.free();
  });
}

// Class dead_origin: a rank publishes a put and dies; a survivor touching
// those bytes before any recovery edge races (the publication clock died
// with the victim), and the same access after failure_ack() is clean.
TEST(HbTest, DeadOriginRequiresARecoveryEdge) {
  const int victim = 0;
  std::atomic<bool> wrote{false};
  Config cfg = race_cfg(3);
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = 7;
  cfg.fault.survivable = true;
  run(cfg, [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    if (rank() == victim) {
      win.put(src, sizeof src, 2, 0);
      win.flush(2);
      wrote.store(true, std::memory_order_release);
      ctx().fault().arm_crash();  // die at the next fault point
      world().barrier();
      std::abort();  // unreachable: the fault point must throw
    }
    while (!wrote.load(std::memory_order_acquire)) mpisim::yield();
    while (!ctx().core().is_failed(victim)) mpisim::yield();
    if (rank() == 1) {
      const std::string msg =
          expect_race([&] { win.put(src, sizeof src, 2, 0); });
      EXPECT_TRUE(contains(msg, "[dead_origin]")) << msg;
      EXPECT_TRUE(contains(msg, "origin died")) << msg;
      EXPECT_EQ(my_races().dead_origin, 1u);
      world().failure_ack();  // the recovery edge: acquire the dead's clock
      win.put(src, sizeof src, 2, 0);
      win.flush(2);
    }
    world().barrier();
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// The interval cap operates inside the simulator: flood one target with
// disjoint published intervals under a tiny Config::rma_check_max_intervals
// and the oldest summaries are dropped and counted, never raised.
TEST(HbTest, IntervalCapDropsOldestAndCountsOverflow) {
  Config cfg = race_cfg(2);
  cfg.rma_check_max_intervals = 2;
  run(cfg, [] {
    std::vector<double> mem(64, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    if (rank() == 0) {
      const double v = 1.0;
      win.lock(LockType::exclusive, 0);
      for (int i = 0; i < 8; ++i) {
        // Non-adjacent displacements: no two intervals can coalesce.
        win.put(&v, sizeof v, 0, static_cast<std::size_t>(3 * i) * sizeof v);
        win.flush(0);  // one single-interval summary per iteration
      }
      win.unlock(0);
      std::lock_guard lk(ctx().core().mu());
      EXPECT_LE(ctx().core().hb().shadow_intervals(), 2u);
      EXPECT_GE(my_races().overflow, 1u);
      EXPECT_EQ(my_races().total(), 0u);  // overflow is not a race
    }
    world().barrier();
    win.free();
  });
}

// ---- standalone HbChecker unit tests (no simulation) ----

using OpKind = RmaChecker::OpKind;

/// Publish one single-interval put from \p world_origin on <space 7,
/// target 0> via a shared-epoch release.
void publish_put(HbChecker& hb, int world_origin, std::ptrdiff_t lo,
                 std::ptrdiff_t hi, bool exclusive = false) {
  hb.record_op(7, 0, world_origin, world_origin, OpKind::put, Op::replace,
               lo, hi, nullptr);
  hb.lock_released(7, 0, world_origin, exclusive);
}

TEST(HbCheckerUnit, SummariesAcquiredByEveryPeerArePruned) {
  // One rank: every summary is trivially acquired by all (zero) peers, so
  // crossing the prune threshold empties the list instead of growing it.
  HbChecker hb(true, 1, 0);
  for (int i = 0; i < 12; ++i)
    publish_put(hb, 0, 32 * i, 32 * i + 8, /*exclusive=*/true);
  EXPECT_LE(hb.shadow_intervals(), 9u);
  EXPECT_EQ(hb.total_counts().overflow, 0u);
}

TEST(HbCheckerUnit, MergedSummariesStillCatchRaces) {
  // Unacquired same-origin summaries merge under pressure with
  // component-wise minimum clocks: the store shrinks, and a genuinely
  // unordered peer access still races (merging may only lose precision
  // toward MORE reports, never fewer).
  HbChecker hb(true, 2, 0);
  for (int i = 0; i < 20; ++i) publish_put(hb, 0, 8 * i, 8 * i + 8);
  EXPECT_LE(hb.shadow_intervals(), 5u);
  try {
    hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 16, nullptr);
    FAIL() << "expected a ww race against the merged summary";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_race) << e.what();
    EXPECT_NE(std::string(e.what()).find("[ww]"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(hb.counts(1).ww, 1u);
}

TEST(HbCheckerUnit, HardCapDropsOldestAndCountsOverflow) {
  HbChecker hb(true, 2, 4);
  for (int i = 0; i < 8; ++i)
    publish_put(hb, 0, 32 * i, 32 * i + 8, /*exclusive=*/true);
  EXPECT_EQ(hb.shadow_intervals(), 4u);
  EXPECT_EQ(hb.counts(0).overflow, 4u);
  EXPECT_EQ(hb.total_counts().overflow, 4u);
  EXPECT_EQ(hb.total_counts().total(), 0u);
}

TEST(HbCheckerUnit, ChannelReleaseAcquireOrdersPublications) {
  HbChecker hb(true, 2, 0);
  publish_put(hb, 0, 0, 8);
  hb.channel_release(42, 0);
  hb.channel_acquire(42, 1);
  EXPECT_NO_THROW(
      hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr));
  EXPECT_EQ(hb.total_counts().total(), 0u);
}

TEST(HbCheckerUnit, AcquiringAnUnreleasedChannelIsNotAnEdge) {
  HbChecker hb(true, 2, 0);
  publish_put(hb, 0, 0, 8);
  hb.channel_acquire(99, 1);  // never released: must be a no-op
  EXPECT_THROW(
      hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr),
      MpiError);
}

TEST(HbCheckerUnit, CollectiveRoundJoinsAllArrivals) {
  HbChecker hb(true, 2, 0);
  publish_put(hb, 0, 0, 8);
  HbClock acc;
  hb.coll_arrive(acc, 0);
  hb.coll_arrive(acc, 1);
  hb.coll_depart(0, acc);
  hb.coll_depart(1, acc);
  EXPECT_NO_THROW(
      hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr));
}

TEST(HbCheckerUnit, WindowFreedDropsShadowState) {
  HbChecker hb(true, 2, 0);
  publish_put(hb, 0, 0, 8);
  EXPECT_GT(hb.shadow_intervals(), 0u);
  hb.window_freed(7);
  EXPECT_EQ(hb.shadow_intervals(), 0u);
  EXPECT_NO_THROW(
      hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr));
}

TEST(HbCheckerUnit, MuteScopeSuppressesRecording) {
  HbChecker hb(true, 2, 0);
  publish_put(hb, 0, 0, 8);
  {
    HbChecker::MuteScope mute(hb, 1);
    // Would race without the mute; sync-word accesses are exempt.
    EXPECT_NO_THROW(
        hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr));
  }
  EXPECT_THROW(
      hb.record_op(7, 0, 1, 1, OpKind::put, Op::replace, 0, 8, nullptr),
      MpiError);
}

}  // namespace
}  // namespace mpisim
