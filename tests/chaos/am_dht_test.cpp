// Chaos: the sharded-DHT delegate workload (examples/dht walkthrough)
// under a survivable-mode crash, shrunk to test scale. A shard
// owner dies mid-request-stream; every in-flight rpc at the dead owner
// surfaces Errc::crashed through its handle exactly once, subsequent gets
// fail over to the buddy replica bit-exact, and no acknowledged write is
// lost or duplicated. A victim that dies with an rpc in flight on reused
// rpc state tears down cleanly. Also: flooding a stalled rank against a
// configured mailbox cap surfaces Errc::resource_exhausted cleanly and the
// victimized mailbox's high-water gauge records the pressure.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace am {
namespace {

using mpisim::Errc;
using mpisim::MpiError;

mpisim::Config survivable_cfg(int nranks) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = mpisim::Platform::infiniband;
  cfg.fault.seed = 7;
  cfg.fault.survivable = true;
  return cfg;
}

struct Slot {
  std::uint64_t ver = 0;
  std::int64_t val = 0;
};

struct PutArg {
  std::uint64_t slot = 0;
  std::uint64_t replica = 0;
  std::uint64_t ver = 0;
  std::int64_t val = 0;
};

TEST(AmDhtChaosTest, ShardOwnerCrashMidStreamFailsOverBitExact) {
  const int n = 6;
  const int victim = n - 1;
  const int buddy = 0;  // replica of the victim's shard lives on owner+1
  constexpr std::uint64_t kSlots = 64;
  mpisim::run(survivable_cfg(n), [&] {
    const int me = mpisim::rank();
    armci::init();
    am::init();
    std::vector<Slot> primary(kSlots), replica(kSlots);
    const int h_put = am::register_handler(
        [&](int, const void* a, std::size_t, void*, std::size_t) {
          PutArg arg;
          std::memcpy(&arg, a, sizeof arg);
          Slot& s =
              (arg.replica != 0 ? replica : primary).at(arg.slot);
          if (arg.ver > s.ver) {
            s.ver = arg.ver;
            s.val = arg.val;
          }
          return std::size_t{0};
        });
    const int h_get = am::register_handler(
        [&](int, const void* a, std::size_t, void* r, std::size_t) {
          PutArg arg;
          std::memcpy(&arg, a, sizeof arg);
          const Slot s =
              (arg.replica != 0 ? replica : primary).at(arg.slot);
          std::memcpy(r, &s, sizeof s);
          return sizeof s;
        });
    armci::barrier();

    if (me == victim) {
      // Serve the fill phase, then die at the next fault point (the
      // exception unwinds the rank).
      am::poll_wait([&] {
        std::uint64_t full = 0;
        for (const Slot& s : primary) full += s.ver != 0 ? 1 : 0;
        return full == kSlots;
      });
      mpisim::ctx().fault().arm_crash();
      mpisim::world().barrier();
      std::abort();  // unreachable: the fault point must throw
    }
    if (me == 1) {
      // Phase 1: fill the victim's shard (and its replica on the buddy)
      // with acknowledged writes -- these must survive the failover.
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        PutArg arg;
        arg.slot = s;
        arg.ver = 1;
        arg.val = static_cast<std::int64_t>(0x1000 + s);
        arg.replica = 0;
        am::rpc(victim, h_put, &arg, sizeof arg).wait();
        arg.replica = 1;
        am::rpc(buddy, h_put, &arg, sizeof arg).wait();
      }
      // Phase 2: keep streaming at the owner until the crash lands in the
      // middle of the stream. Each in-flight rpc surfaces Errc::crashed
      // through its handle exactly once.
      int crashed_raises = 0;
      Handle in_flight;
      for (int i = 0; i < 1 << 20; ++i) {
        PutArg arg;
        arg.slot = kSlots - 1;
        arg.ver = 2 + static_cast<std::uint64_t>(i);
        arg.val = -1;  // never acknowledged: allowed to be lost
        Handle h = rpc(victim, h_put, &arg, sizeof arg);
        try {
          h.wait();
        } catch (const MpiError& e) {
          EXPECT_EQ(e.code(), Errc::crashed) << e.what();
          ++crashed_raises;
          in_flight = h;
          break;
        }
      }
      EXPECT_EQ(crashed_raises, 1);
      // Exactly once: the surfaced handle now reads complete -- repeated
      // test() neither re-raises nor blocks.
      EXPECT_TRUE(in_flight.test());
      EXPECT_TRUE(in_flight.test());
      mpisim::world().failure_ack();
      // Failover: every acknowledged fill write is served bit-exact by the
      // buddy replica.
      for (std::uint64_t s = 0; s < kSlots; ++s) {
        PutArg arg;
        arg.slot = s;
        arg.replica = 1;
        Handle h = rpc(buddy, h_get, &arg, sizeof arg);
        h.wait();
        const Slot got = h.reply_as<Slot>();
        EXPECT_EQ(got.ver, 1u) << "slot " << s;
        EXPECT_EQ(got.val, static_cast<std::int64_t>(0x1000 + s))
            << "slot " << s;
      }
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

// The victim's first rpc completes, so its state is kept for reuse; the
// second rpc takes that state over and is still in flight when the victim
// dies. Unwinding drops the in-flight handle and then tears the layer down
// under the simulator lock: the kept state must not be the one holding the
// live reply receive. The survivor's own request to the victim is never
// served and surfaces Errc::crashed exactly once.
TEST(AmDhtChaosTest, VictimDiesWithReusedRpcStateInFlight) {
  const int survivor = 0;
  const int victim = 1;
  int crashed_raises = 0;
  mpisim::run(survivable_cfg(2), [&] {
    armci::init();
    am::init();
    std::uint64_t served = 0;
    const int h_echo = am::register_handler(
        [&](int, const void* a, std::size_t n, void* r, std::size_t) {
          std::memcpy(r, a, n);
          ++served;
          return n;
        });
    armci::barrier();
    const std::int64_t v = 7;
    if (mpisim::rank() == victim) {
      rpc(survivor, h_echo, &v, sizeof v).wait();
      Handle second = rpc(survivor, h_echo, &v, sizeof v);
      // Die at the next fault point -- the blocking receive -- while the
      // second rpc is outstanding.
      mpisim::ctx().fault().arm_crash();
      std::int64_t never = 0;
      mpisim::world().recv(&never, sizeof never, survivor, /*tag=*/99);
      std::abort();  // unreachable: the fault point must throw
    }
    am::poll_wait([&] { return served >= 1; });
    Handle h = rpc(victim, h_echo, &v, sizeof v);
    try {
      h.wait();
      ADD_FAILURE() << "an rpc to a rank that never served it completed";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::crashed) << e.what();
      ++crashed_raises;
    }
    EXPECT_TRUE(h.test());  // surfaced once: now reads complete
    h.wait();
    mpisim::world().failure_ack();
    am::barrier();
    am::finalize();
    armci::finalize();
  });
  EXPECT_EQ(crashed_raises, 1);
}

TEST(AmDhtChaosTest, FloodingAStalledRankHitsTheCapCleanly) {
  mpisim::Config cfg;
  cfg.nranks = 3;
  cfg.platform = mpisim::Platform::ideal;
  cfg.mailbox_cap_bytes = 8192;
  int raised = 0;
  std::atomic<bool> capped{false};
  mpisim::run(cfg, [&] {
    armci::init();
    am::init();
    std::uint64_t sunk = 0;
    const int h_sink = am::register_handler(
        [&](int, const void*, std::size_t, void*, std::size_t) {
          ++sunk;
          return std::size_t{0};
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      // Rank 2 is stalled (never polling): fire-and-forget delegates pile
      // up in its unexpected queue until the cap stops the flood at the
      // SENDER, with a clean error instead of unbounded buffering.
      std::vector<std::uint8_t> payload(1024, 0xab);
      try {
        for (int i = 0; i < 1 << 16; ++i)
          rpc_ff(2, h_sink, payload.data(), payload.size());
        ADD_FAILURE() << "eager delegate buffering is unbounded";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::resource_exhausted) << e.what();
        std::lock_guard lk(mpisim::ctx().core().mu());
        ++raised;
      }
      capped.store(true, std::memory_order_release);
    }
    if (mpisim::rank() == 2) {
      // Stall in host time until the flood has hit the cap, then drain:
      // everything that was accepted is still served, and the high-water
      // gauge recorded the pressure.
      while (!capped.load(std::memory_order_acquire))
        mpisim::yield();
      {
        std::lock_guard lk(mpisim::ctx().core().mu());
        EXPECT_GE(mpisim::ctx()
                      .core()
                      .mailbox(mpisim::rank())
                      .high_water_bytes(),
                  7000u);
      }
      am::poll_wait([&] { return sunk >= 7; });
      EXPECT_GE(sunk, 7u);
    }
    am::barrier();
    // finalize() quiesces the default termination counter: the delegates
    // refused at the cap were rolled out of the issued balance, so this
    // converges once the accepted ones are served.
    am::finalize();
    armci::finalize();
  });
  EXPECT_EQ(raised, 1);
}

}  // namespace
}  // namespace am
