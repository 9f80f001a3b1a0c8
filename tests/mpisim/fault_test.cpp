// Tests for the deterministic fault-injection subsystem (fault.hpp) and the
// runtime machinery it drives: failure propagation to blocked peers,
// deadlock detection, and virtual-time wait deadlines.

#include "src/mpisim/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(FaultInjectorTest, DisabledPlanInjectsNothing) {
  FaultPlan plan;  // default: disabled
  EXPECT_FALSE(plan.enabled());
  FaultInjector fi;
  fi.configure(plan, 0);
  SimClock clock;
  EXPECT_NO_THROW(fi.fault_point(clock));
  EXPECT_NO_THROW(fi.maybe_transient(clock, "test"));
  EXPECT_DOUBLE_EQ(fi.draw_delivery_delay_ns(), 0.0);
  EXPECT_DOUBLE_EQ(fi.draw_lock_stall_ns(), 0.0);
  EXPECT_EQ(fi.transients_raised(), 0u);
  EXPECT_DOUBLE_EQ(clock.now_ns(), 0.0);
}

TEST(FaultInjectorTest, SameSeedSameRankReplaysIdenticalDraws) {
  FaultPlan plan;
  plan.seed = 42;
  plan.delay_rate = 0.5;
  plan.delay_ns = 100.0;
  plan.lock_stall_rate = 0.5;
  plan.lock_stall_ns = 250.0;

  FaultInjector a, b;
  a.configure(plan, 2);
  b.configure(plan, 2);
  for (int i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(a.draw_delivery_delay_ns(), b.draw_delivery_delay_ns());
    EXPECT_DOUBLE_EQ(a.draw_lock_stall_ns(), b.draw_lock_stall_ns());
  }
}

TEST(FaultInjectorTest, RankStreamsAreDecorrelated) {
  FaultPlan plan;
  plan.seed = 42;
  plan.delay_rate = 0.5;
  plan.delay_ns = 100.0;

  FaultInjector a, b;
  a.configure(plan, 0);
  b.configure(plan, 1);
  bool differed = false;
  for (int i = 0; i < 64 && !differed; ++i)
    differed = a.draw_delivery_delay_ns() != b.draw_delivery_delay_ns();
  EXPECT_TRUE(differed) << "rank 0 and rank 1 replayed the same fault stream";
}

TEST(FaultInjectorTest, TransientBurstFailsNTimesAndChargesStall) {
  FaultPlan plan;
  plan.seed = 9;
  plan.transient.rate = 1.0;
  plan.transient.fail_count = 3;
  plan.transient.stall_ns = 50.0;

  FaultInjector fi;
  fi.configure(plan, 0);
  SimClock clock;
  for (int i = 0; i < 3; ++i) {
    try {
      fi.maybe_transient(clock, "unit.site");
      FAIL() << "expected a transient fault on attempt " << i;
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::transient);
      EXPECT_TRUE(contains(e.what(), "[transient]")) << e.what();
      EXPECT_TRUE(contains(e.what(), "unit.site")) << e.what();
    }
  }
  EXPECT_EQ(fi.transients_raised(), 3u);
  EXPECT_DOUBLE_EQ(clock.now_ns(), 150.0);
}

TEST(FaultInjectorTest, ArmedCrashFiresOnceAtTheNextFaultPoint) {
  FaultPlan plan;  // disabled: arming needs no scheduled crash
  FaultInjector fi;
  fi.configure(plan, 3);
  SimClock clock;
  clock.advance(250.0);
  fi.arm_crash();
  try {
    fi.fault_point(clock);
    FAIL() << "the armed crash did not fire";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::crashed);
    EXPECT_TRUE(contains(e.what(), "rank 3 crashed")) << e.what();
    EXPECT_TRUE(contains(e.what(), "armed, fired at 250")) << e.what();
  }
  EXPECT_NO_THROW(fi.fault_point(clock));  // exactly once
  // Arming schedules nothing else.
  EXPECT_NO_THROW(fi.maybe_transient(clock, "test"));
  EXPECT_DOUBLE_EQ(fi.draw_delivery_delay_ns(), 0.0);
  EXPECT_DOUBLE_EQ(fi.draw_lock_stall_ns(), 0.0);
  EXPECT_DOUBLE_EQ(clock.now_ns(), 250.0);
}

// The victim arms, works locally (no fault point), then dies at its send:
// the death time is its own clock there, so the survivor blocked in recv
// is released exactly one detection period later.
TEST(FaultRuntimeTest, ArmedCrashDiesAtTheVictimsClock) {
  Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::infiniband;
  cfg.fault.survivable = true;
  double died_at = -1.0;
  int crashes = 0;
  run(cfg, [&] {
    char c = 0;
    if (rank() == 1) {
      ctx().fault().arm_crash();
      clock().advance(5e4);  // local work between arming and the fault point
      mpisim::yield();
      died_at = clock().now_ns();
      try {
        world().send(&c, 1, 0, 0);
      } catch (const MpiError& e) {
        if (e.code() == Errc::crashed) ++crashes;
        throw;
      }
      ADD_FAILURE() << "rank 1 outlived its armed crash";
      return;
    }
    try {
      world().recv(&c, 1, 1, 0);
      ADD_FAILURE() << "recv from a dead rank completed";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
    }
    EXPECT_DOUBLE_EQ(ctx().last_detect_latency_ns, cfg.fault.detect_period_ns);
    EXPECT_DOUBLE_EQ(clock().now_ns(), died_at + cfg.fault.detect_period_ns);
  });
  EXPECT_DOUBLE_EQ(died_at, 5e4);
  EXPECT_EQ(crashes, 1);
}

TEST(FaultRuntimeTest, ScheduledCrashAbortsEveryBlockedSurvivor) {
  enum class Outcome { none, completed, crashed, aborted, other };
  std::vector<Outcome> out(3, Outcome::none);

  Config cfg;
  cfg.nranks = 3;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = 1;
  cfg.fault.crashes = {{1, 2000.0}};

  try {
    run(cfg, [&] {
      const int me = rank();
      try {
        for (int i = 0; i < 50; ++i) world().barrier();
        out[static_cast<std::size_t>(me)] = Outcome::completed;
      } catch (const MpiError& e) {
        out[static_cast<std::size_t>(me)] =
            e.code() == Errc::crashed
                ? Outcome::crashed
                : (e.code() == Errc::aborted ? Outcome::aborted
                                             : Outcome::other);
        throw;
      }
    });
    FAIL() << "expected the run to fail";
  } catch (const MpiError& e) {
    // run() rethrows the *first* failure: the victim's crash.
    EXPECT_EQ(e.code(), Errc::crashed);
    EXPECT_TRUE(contains(e.what(), "[crashed]")) << e.what();
    EXPECT_TRUE(contains(e.what(), "rank 1")) << e.what();
  }
  EXPECT_EQ(out[1], Outcome::crashed);
  EXPECT_EQ(out[0], Outcome::aborted);
  EXPECT_EQ(out[2], Outcome::aborted);
}

TEST(FaultRuntimeTest, ReceiveWithNoSenderIsDetectedAsDeadlock) {
  try {
    run(1, Platform::ideal, [] {
      char b = 0;
      world().recv(&b, 1, 0, 5);  // no matching send can ever arrive
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::wait_timeout);
    EXPECT_TRUE(contains(e.what(), "deadlock detected")) << e.what();
  }
}

TEST(FaultRuntimeTest, PeerExitLeavingRankBlockedIsDetectedAsDeadlock) {
  try {
    run(2, Platform::ideal, [] {
      if (rank() == 0) {
        char b = 0;
        world().recv(&b, 1, 1, 5);  // rank 1 exits without ever sending
      }
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::wait_timeout);
    EXPECT_TRUE(contains(e.what(), "deadlock detected")) << e.what();
  }
}

TEST(FaultRuntimeTest, LockQueuedBehindBlockedHolderIsDetectedAsDeadlock) {
  // Rank 0 holds the only exclusive lock and waits for a message rank 1
  // never sends; rank 1 queues for the lock. Neither wait has a pending
  // wake, so quiescence detection must fire rather than the safety net
  // spinning forever.
  try {
    run(2, Platform::ideal, [] {
      int mem = 0;
      Win win = Win::create(&mem, sizeof mem, world());
      if (rank() == 0) {
        win.lock(LockType::exclusive, 0);
        world().barrier();
        char b = 0;
        world().recv(&b, 1, 1, 5);
      } else {
        world().barrier();
        win.lock(LockType::exclusive, 0);
      }
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::wait_timeout);
    EXPECT_TRUE(contains(e.what(), "deadlock detected")) << e.what();
  }
}

TEST(FaultRuntimeTest, VirtualTimeWaitDeadlineFires) {
  Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::infiniband;
  cfg.wait_deadline_ns = 1000.0;

  try {
    run(cfg, [] {
      char b = 0;
      if (rank() == 0) {
        // Waits for a tag that is never sent while global virtual time keeps
        // advancing past the deadline (driven by rank 1's sends).
        world().recv(&b, 1, 1, 7);
      } else {
        for (int i = 0; i < 50; ++i) world().send(&b, 1, 0, 1);
        world().recv(&b, 1, 0, 9);  // park until the peer's failure aborts us
      }
    });
    FAIL() << "expected a wait-deadline timeout";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::wait_timeout);
    EXPECT_TRUE(contains(e.what(), "deadline")) << e.what();
    EXPECT_TRUE(contains(e.what(), "comm.recv")) << e.what();
  }
}

TEST(FaultRuntimeTest, DeliveryDelayPostponesReceiveCompletion) {
  const double kDelay = 1e6;
  double recv_done_ns = 0.0;

  auto ping = [&recv_done_ns] {
    int v = 7;
    if (rank() == 0) {
      world().send(&v, sizeof v, 1, 0);
    } else {
      world().recv(&v, sizeof v, 0, 0);
      recv_done_ns = clock().now_ns();
    }
  };

  Config base;
  base.nranks = 2;
  base.platform = Platform::infiniband;
  run(base, ping);
  const double undelayed_ns = recv_done_ns;
  EXPECT_LT(undelayed_ns, kDelay);

  Config cfg = base;
  cfg.fault.seed = 3;
  cfg.fault.delay_rate = 1.0;  // every message is delayed
  cfg.fault.delay_ns = kDelay;
  run(cfg, ping);
  EXPECT_GE(recv_done_ns, kDelay);
  EXPECT_GT(recv_done_ns, undelayed_ns);
}

TEST(FaultRuntimeTest, LockStallChargesGrantLatency) {
  const double kStall = 5e5;
  double lock_cost_ns = 0.0;

  Config cfg;
  cfg.nranks = 1;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = 4;
  cfg.fault.lock_stall_rate = 1.0;  // every grant is stalled
  cfg.fault.lock_stall_ns = kStall;

  run(cfg, [&] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double t0 = clock().now_ns();
    win.lock(LockType::exclusive, 0);
    lock_cost_ns = clock().now_ns() - t0;
    win.unlock(0);
    win.free();
  });
  EXPECT_GE(lock_cost_ns, kStall);
}

}  // namespace
}  // namespace mpisim
