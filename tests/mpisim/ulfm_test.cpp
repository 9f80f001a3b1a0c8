// Survivable-failure mode and the ULFM-style recovery primitives: a
// crash marks the victim dead instead of aborting the run, blocked
// peers observe Errc::crashed after the detection period, collectives
// complete over the live members, and the layers above recover through
// revoke()/shrink()/agree()/failure_ack(). Fault and recovery actions are
// first-class trace events (TraceCat::fault).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

Config survivable_cfg(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = 7;
  cfg.fault.survivable = true;
  return cfg;
}

/// Die at the next fault point: arm the crash and enter a faultable
/// operation (collective entry). The barrier's fault point fires before the
/// rendezvous state is touched, so the round never sees a half-arrived
/// victim.
[[noreturn]] void crash_now() {
  ctx().fault().arm_crash();
  world().barrier();
  std::abort();  // unreachable: the fault point must throw
}

/// Spin (host time) until the core has declared \p victim dead. The caller
/// is not blocked in wait(), so quiescence detection is unaffected.
void await_death(int victim) {
  while (!ctx().core().is_failed(victim)) mpisim::yield();
}

TEST(SurvivableTest, CrashMarksVictimDeadAndLiveRanksComplete) {
  const int victim = 2;
  int completed = 0;
  run(survivable_cfg(4), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    EXPECT_TRUE(ctx().core().is_failed(victim));
    EXPECT_FALSE(ctx().core().is_failed(rank()));
    EXPECT_EQ(ctx().core().failed_ranks(), std::vector<int>{victim});
    EXPECT_TRUE(world().is_failed(victim));

    // Collectives complete over the live members: the dead rank's slot is
    // excused and its (stale) buffers are never read.
    world().barrier();
    std::int32_t in = 1, out = 0;
    world().allreduce(&in, &out, 1, BasicType::int32, Op::sum);
    EXPECT_EQ(out, 3);

    ctx().core().sync();
    ++completed;
  });
  EXPECT_EQ(completed, 3);
}

TEST(SurvivableTest, SendAndRecvOnDeadPeerRaiseCrashed) {
  const int victim = 1;
  run(survivable_cfg(3), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    if (rank() == 0) {
      char c = 0;
      try {
        world().recv(&c, 1, victim, 5);
        ADD_FAILURE() << "recv from a dead rank completed";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      // The detection-latency gauge was stamped by the observation, and the
      // observer's clock sits at (or past) the detector bound.
      EXPECT_GE(ctx().last_detect_latency_ns, 0.0);
      try {
        world().send(&c, 1, victim, 5);
        ADD_FAILURE() << "send to a dead rank completed";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
    }
    world().barrier();
  });
}

TEST(SurvivableTest, AnySourceRecvRaisesOncePerEpochUntilAcked) {
  const int victim = 2;
  run(survivable_cfg(3), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    // Rank 1 must not send until rank 0 has provably taken the
    // unacked-failure branch: match-first wildcard semantics (load-bearing
    // for the mutex token protocol) mean an already-delivered message from
    // a live sender completes the recv normally, so an unsynchronized send
    // would race the raise.
    if (rank() == 1) {
      char go = 0;
      world().recv(&go, 1, 0, 10);
      const std::int32_t v = 42;
      world().send(&v, sizeof v, 0, 9);
    }
    if (rank() == 0) {
      // ULFM failure-notification semantics: a wildcard receive must raise
      // Errc::crashed for the unacknowledged death (the awaited sender
      // might be the dead one) ...
      std::int32_t v = 0;
      try {
        world().recv(&v, sizeof v, kAnySource, 9);
        ADD_FAILURE() << "wildcard recv ignored an unacked failure";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      // ... and complete normally against live senders once acknowledged.
      world().failure_ack();
      const char go = 1;
      world().send(&go, 1, 1, 10);
      const Status st = world().recv(&v, sizeof v, kAnySource, 9);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 1);
    }
    world().barrier();
  });
}

TEST(SurvivableTest, RootedCollectiveWithDeadRootRaisesCrashed) {
  const int victim = 1;
  run(survivable_cfg(3), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    // ULFM: a collective that depends on a failed process must fail on the
    // survivors -- silently completing would hand them stale buffers.
    std::int32_t v = 7;
    try {
      world().bcast(&v, sizeof v, victim);
      ADD_FAILURE() << "bcast from a dead root completed";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
    }
    EXPECT_EQ(v, 7);  // the survivor's buffer is untouched, and it knows
    std::int32_t out = -1;
    try {
      world().reduce(&v, &out, 1, BasicType::int32, Op::sum, victim);
      ADD_FAILURE() << "reduce into a dead root completed";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
    }
    EXPECT_EQ(out, -1);
    // Rooted collectives with a live root still complete over survivors.
    std::int32_t b = rank() == 0 ? 33 : 0;
    world().bcast(&b, sizeof b, 0);
    EXPECT_EQ(b, 33);
    world().barrier();
  });
}

TEST(SurvivableTest, RevokeWakesBlockedReceiversAndIsSticky) {
  Config cfg = survivable_cfg(2);
  run(cfg, [] {
    Comm c = world().dup();
    if (rank() == 1) {
      char b = 0;
      try {
        c.recv(&b, 1, 0, 3);  // no matching send ever arrives
        ADD_FAILURE() << "recv on a revoked communicator completed";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::revoked) << e.what();
      }
      // Sticky: later entries fail immediately too.
      try {
        c.send(&b, 1, 0, 3);
        ADD_FAILURE() << "send on a revoked communicator completed";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::revoked) << e.what();
      }
    } else {
      clock().advance(1e5);  // let rank 1 block first (virtual ordering)
      c.revoke();
    }
    // The world communicator is unaffected by the dup's revocation.
    world().barrier();
    // shrink() works on a revoked communicator; with no deaths it simply
    // rebuilds the same membership under a fresh id.
    Comm fresh = c.shrink();
    EXPECT_EQ(fresh.size(), 2);
    fresh.barrier();
  });
}

TEST(SurvivableTest, ShrinkBuildsLiveCommAndAgreeCompletes) {
  const int victim = 1;
  run(survivable_cfg(4), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);

    Comm s = world().shrink();
    EXPECT_EQ(s.size(), 3);
    // Survivors keep their relative order: world ranks {0, 2, 3}.
    EXPECT_EQ(s.group().world_rank(0), 0);
    EXPECT_EQ(s.group().world_rank(1), 2);
    EXPECT_EQ(s.group().world_rank(2), 3);
    EXPECT_EQ(s.world_rank(s.rank()), rank());
    s.barrier();
    std::int32_t in = rank(), out = -1;
    s.allreduce(&in, &out, 1, BasicType::int32, Op::sum);
    EXPECT_EQ(out, 0 + 2 + 3);

    // agree() is the AND over the live members, completing despite the
    // death; it acknowledges the failure as a side effect.
    EXPECT_TRUE(world().agree(true));
    EXPECT_FALSE(world().agree(rank() != 0));
  });
}

TEST(SurvivableTest, FaultEventsAreFirstClassTraceEvents) {
  const int victim = 2;
  run(survivable_cfg(3), [&] {
    tracer().enable(1024);
    world().barrier();  // everyone's tracer is live before the crash
    if (rank() == victim) crash_now();
    await_death(victim);

    // Observing the death emits a fault.detect pair on the observer.
    char c = 0;
    try {
      world().recv(&c, 1, victim, 4);
      ADD_FAILURE() << "recv from a dead rank completed";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
    }
    // Shrinking emits a fault.shrink pair on every survivor.
    Comm s = world().shrink();
    EXPECT_EQ(s.size(), 2);
    if (rank() == 0) s.revoke();  // and revocation a fault.revoke pair

    const auto count = [](const std::vector<TraceEvent>& ev,
                          const char* name) {
      int begins = 0, ends = 0;
      for (const TraceEvent& e : ev) {
        if (std::strcmp(e.name, name) != 0) continue;
        EXPECT_EQ(e.cat, TraceCat::fault) << name;
        (e.phase == 'B' ? begins : ends) += 1;
      }
      EXPECT_EQ(begins, ends) << name;
      return begins;
    };
    const std::vector<TraceEvent> mine = tracer().events();
    EXPECT_GE(count(mine, "fault.detect"), 1) << "rank " << rank();
    EXPECT_EQ(count(mine, "fault.shrink"), 1) << "rank " << rank();
    if (rank() == 0) EXPECT_EQ(count(mine, "fault.revoke"), 1);
    // The victim's ring holds its crash marker. Its thread died before any
    // survivor could observe the death, so this read is race-free.
    const std::vector<TraceEvent> victims =
        ctx().core().rank_ctx(victim).tracer().events();
    EXPECT_EQ(count(victims, "fault.crash"), 1);
  });
}

TEST(SurvivableTest, OffByDefaultCrashStillAbortsTheRun) {
  // Without FaultPlan::survivable the pre-existing semantics hold: the
  // victim's escaped exception aborts every peer.
  Config cfg;
  cfg.nranks = 3;
  cfg.platform = Platform::infiniband;
  cfg.fault.seed = 7;
  int aborted = 0;
  try {
    run(cfg, [&] {
      if (rank() == 1) {
        ctx().fault().arm_crash();
        world().barrier();
      }
      try {
        char c = 0;
        world().recv(&c, 1, 1, 8);  // never satisfied: woken by the abort
      } catch (const MpiError& e) {
        if (e.code() == Errc::aborted) {
          ctx().core().sync();
          ++aborted;
        }
        throw;
      }
    });
    FAIL() << "run() must rethrow the victim's crash";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::crashed) << e.what();
  }
  EXPECT_EQ(aborted, 2);
}

TEST(SurvivableTest, AnySourceIrecvWaitRaisesOncePerEpochUntilAcked) {
  const int victim = 2;
  run(survivable_cfg(3), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    // Same go-message gating as the blocking-recv regression: rank 1 must
    // not send until rank 0 has provably taken the unacked-failure branch,
    // or the already-delivered message would complete the wait normally.
    if (rank() == 1) {
      char go = 0;
      world().recv(&go, 1, 0, 10);
      const std::int32_t v = 42;
      world().send(&v, sizeof v, 0, 9);
    }
    if (rank() == 0) {
      // A wildcard *posted* receive must surface the unacknowledged death
      // through wait() -- same Errc as the blocking form, instead of
      // blocking forever on a sender that can never arrive.
      std::int32_t v = 0;
      {
        Comm::Request req = world().irecv(&v, sizeof v, kAnySource, 9);
        try {
          req.wait();
          ADD_FAILURE() << "wildcard irecv wait ignored an unacked failure";
        } catch (const MpiError& e) {
          EXPECT_EQ(e.code(), Errc::crashed) << e.what();
        }
      }
      // ... and complete normally against live senders once acknowledged.
      world().failure_ack();
      const char go = 1;
      world().send(&go, 1, 1, 10);
      Comm::Request req = world().irecv(&v, sizeof v, kAnySource, 9);
      Status st;
      req.wait(&st);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 1);
    }
    world().barrier();
  });
}

TEST(SurvivableTest, SpecificSourceIrecvWaitOnDeadPeerRaisesCrashed) {
  const int victim = 1;
  run(survivable_cfg(3), [&] {
    if (rank() == victim) crash_now();
    await_death(victim);
    if (rank() == 0) {
      // A receive posted at a now-dead specific source can never be
      // matched; wait() must surface the death instead of hanging.
      char c = 0;
      Comm::Request req = world().irecv(&c, 1, victim, 5);
      try {
        req.wait();
        ADD_FAILURE() << "irecv wait on a dead sender completed";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      }
      // test() after the surfaced failure reads complete, not a re-raise.
      EXPECT_TRUE(req.test());
    }
    world().barrier();
  });
}

// Window construction is one rooted round: with comm rank 0 dead every
// survivor gets Errc::crashed, as from a broadcast whose root died.
TEST(SurvivableTest, CollectiveCreationWithDeadRootRaisesCrashed) {
  enum class Ctor { create, allocate_shared };
  for (const Ctor which : {Ctor::create, Ctor::allocate_shared}) {
    int raised = 0;
    run(survivable_cfg(3), [&] {
      if (rank() == 0) crash_now();
      await_death(0);
      std::vector<char> mem(64);
      try {
        switch (which) {
          case Ctor::create:
            Win::create(mem.data(), mem.size(), world());
            break;
          case Ctor::allocate_shared:
            Win::allocate_shared(mem.size(), world());
            break;
        }
        ADD_FAILURE() << "construction completed without comm rank 0";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::crashed) << e.what();
        ctx().core().sync();
        ++raised;
      }
    });
    EXPECT_EQ(raised, 2);
  }
}

// A dead non-root member contributes a null base and size 0; the survivors
// get a working window.
TEST(SurvivableTest, WindowOverSurvivorsOfADeadMember) {
  for (const bool shared : {false, true}) {
    int checked = 0;
    run(survivable_cfg(3), [&] {
      if (rank() == 2) crash_now();
      await_death(2);
      std::vector<std::int64_t> mem(4, 0);
      const std::size_t bytes = mem.size() * sizeof(std::int64_t);
      Win w = shared ? Win::allocate_shared(bytes, world())
                     : Win::create(mem.data(), bytes, world());
      EXPECT_EQ(w.base(2), nullptr);
      EXPECT_EQ(w.size(2), 0u);
      EXPECT_EQ(w.size(1 - rank()), bytes);
      const int peer = 1 - rank();
      const std::int64_t v = 100 + rank();
      w.lock(LockType::exclusive, peer);
      w.put(&v, sizeof v, peer, 0);
      w.unlock(peer);
      world().barrier();
      std::int64_t got = 0;
      w.lock(LockType::shared, peer);
      w.get(&got, sizeof got, peer, 0);
      w.unlock(peer);
      EXPECT_EQ(got, v);  // our own put, read back from the peer
      ctx().core().sync();
      ++checked;
    });
    EXPECT_EQ(checked, 2);
  }
}

// A lock_all queued behind an exclusive holder that then dies: the
// survivable grant path purges the dead holder's epoch and grants the
// shared request, as it does for a plain lock() waiter.
TEST(SurvivableTest, LockAllQueuedBehindDeadExclusiveHolderIsGranted) {
  for (const LockType held : {LockType::exclusive, LockType::shared}) {
    int granted = 0;
    run(survivable_cfg(2), [&] {
      std::vector<std::int64_t> mem(4, 0);
      Win w = Win::create(mem.data(), mem.size() * sizeof(std::int64_t),
                          world());
      if (rank() == 1) {
        w.lock(held, 1);
        clock().advance(1e5);  // rank 0 queues in lock_all meanwhile
        crash_now();
      }
      clock().advance(1e4);  // let rank 1 take its lock first
      w.lock_all();
      std::int64_t got = -1;
      w.get(&got, sizeof got, 0, 0);
      w.unlock_all();
      EXPECT_EQ(got, 0);
      ctx().core().sync();
      ++granted;
    });
    EXPECT_EQ(granted, 1);
  }
}

}  // namespace
}  // namespace mpisim
