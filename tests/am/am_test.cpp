// Active-message layer (src/am): rpc round trips and completion levels,
// reply ownership when rpc state is reused, fire-and-forget delegates
// under the termination detector, serve-while-waiting (mutual rpc without
// deadlock), the serving barrier, registry and argument bounds, metrics
// export, and the happens-before persona semantics of handler memory
// effects (MPISIM_RMA_CHECK=race).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/armci/metrics.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace am {
namespace {

using mpisim::Errc;
using mpisim::MpiError;

mpisim::Config cfg2(int nranks) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = mpisim::Platform::ideal;
  return cfg;
}

struct Pair {
  std::int64_t a = 0;
  std::int64_t b = 0;
};

TEST(AmTest, RpcRoundTripEchoesAndCounts) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    std::uint64_t served_here = 0;
    const int h_swap = am::register_handler(
        [&](int src, const void* a, std::size_t n, void* r, std::size_t) {
          EXPECT_EQ(n, sizeof(Pair));
          Pair p;
          std::memcpy(&p, a, sizeof p);
          std::swap(p.a, p.b);
          p.a += src;  // prove the handler saw the requester's rank
          std::memcpy(r, &p, sizeof p);
          ++served_here;
          return sizeof p;
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      Pair p{3, 4};
      Handle h = rpc(1, h_swap, &p, sizeof p);
      h.wait();
      const Pair out = h.reply_as<Pair>();
      EXPECT_EQ(out.a, 4);  // swapped, + src 0
      EXPECT_EQ(out.b, 3);
      EXPECT_EQ(h.reply().size(), sizeof(Pair));
      EXPECT_EQ(armci::stats().am_sent, 1u);
    } else {
      poll_wait([&] { return served_here >= 1; });
      EXPECT_GE(armci::stats().am_served, 1u);
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, CompletionLevelsSourceThenOperation) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    const int h_echo = am::register_handler(
        [](int, const void* a, std::size_t n, void* r, std::size_t) {
          std::memcpy(r, a, n);
          return n;
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      const std::int32_t v = 5;
      Handle h = rpc(1, h_echo, &v, sizeof v);
      // Local completion holds as soon as rpc() returns: the argument was
      // captured into the message.
      EXPECT_TRUE(h.test(armci::Completion::source));
      h.wait();
      EXPECT_TRUE(h.test(armci::Completion::operation));
      EXPECT_EQ(h.reply_as<std::int32_t>(), 5);
      bool fired = false;
      h.on_complete(armci::Completion::operation, [&](std::exception_ptr e) {
        EXPECT_EQ(e, nullptr);
        fired = true;
      });
      EXPECT_TRUE(fired);  // already complete: immediate
    } else {
      poll_wait([&] { return armci::stats().am_served >= 1; });
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, OnCompleteCallbackFiresAtReply) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    const int h_echo = am::register_handler(
        [](int, const void* a, std::size_t n, void* r, std::size_t) {
          std::memcpy(r, a, n);
          return n;
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      const std::int32_t v = 9;
      Handle h = rpc(1, h_echo, &v, sizeof v);
      bool fired = false;
      h.on_complete(armci::Completion::operation, [&](std::exception_ptr e) {
        EXPECT_EQ(e, nullptr);
        fired = true;
      });
      EXPECT_FALSE(fired);  // reply not yet here
      h.wait();
      EXPECT_TRUE(fired);  // fired by completion, before wait returned
    } else {
      poll_wait([&] { return armci::stats().am_served >= 1; });
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, FireAndForgetQuiescesUnderTerminationDetector) {
  mpisim::run(cfg2(4), [&] {
    armci::init();
    am::init();
    std::int64_t counter = 0;
    const int h_add = am::register_handler(
        [&](int, const void* a, std::size_t n, void*, std::size_t) {
          std::int64_t d = 0;
          std::memcpy(&d, a, n < sizeof d ? n : sizeof d);
          counter += d;
          return std::size_t{0};
        });
    armci::barrier();
    const int target = (mpisim::rank() + 1) % mpisim::nranks();
    const std::int64_t delta = 1;
    for (int i = 0; i < 10; ++i)
      rpc_ff(target, h_add, &delta, sizeof delta, /*gce=*/1);
    quiesce(1);
    // Termination: every delegate aimed at us has been served.
    EXPECT_EQ(counter, 10);
    EXPECT_EQ(armci::stats().am_terminations, 1u);
    EXPECT_GE(armci::stats().am_served, 10u);
    am::finalize();  // runs quiesce(0): empty counter, second termination
    EXPECT_EQ(armci::stats().am_terminations, 2u);
    armci::finalize();
  });
}

TEST(AmTest, MutualRpcServesWhileWaiting) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    const int h_double = am::register_handler(
        [](int, const void* a, std::size_t, void* r, std::size_t) {
          std::int64_t v = 0;
          std::memcpy(&v, a, sizeof v);
          v *= 2;
          std::memcpy(r, &v, sizeof v);
          return sizeof v;
        });
    armci::barrier();
    // Both ranks rpc each other and wait: wait() serves inbound requests,
    // so the cross pair cannot deadlock.
    const std::int64_t mine = 10 + mpisim::rank();
    Handle h = rpc(1 - mpisim::rank(), h_double, &mine, sizeof mine);
    h.wait();
    EXPECT_EQ(h.reply_as<std::int64_t>(), 2 * (10 + mpisim::rank()));
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, ServingBarrierReleasesStaggeredRanks) {
  mpisim::run(cfg2(4), [&] {
    armci::init();
    am::init();
    std::int64_t bumps = 0;
    const int h_bump = am::register_handler(
        [&](int, const void*, std::size_t, void*, std::size_t) {
          ++bumps;
          return std::size_t{0};
        });
    armci::barrier();
    // Every rank delegates one bump to every other, staggers its clock,
    // and enters the serving barrier: the barrier must keep serving, and
    // after quiesce + barrier everyone saw every bump.
    mpisim::clock().advance(1e6 * mpisim::rank());
    for (int r = 0; r < mpisim::nranks(); ++r)
      if (r != mpisim::rank()) rpc_ff(r, h_bump, nullptr, 0);
    quiesce();
    am::barrier();
    EXPECT_EQ(bumps, mpisim::nranks() - 1);
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, RegistryAndArgumentBounds) {
  mpisim::run(cfg2(1), [&] {
    armci::init();
    am::init();
    const Handler noop = [](int, const void*, std::size_t, void*,
                            std::size_t) { return std::size_t{0}; };
    // One slot is the layer's internal control handler.
    std::size_t registered = 0;
    try {
      for (std::size_t i = 0; i < kMaxHandlers + 1; ++i) {
        register_handler(noop);
        ++registered;
      }
      ADD_FAILURE() << "handler registry is unbounded";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::resource_exhausted) << e.what();
    }
    EXPECT_EQ(registered, kMaxHandlers - 1);
    const std::vector<std::uint8_t> big(kMaxArgBytes + 1);
    try {
      rpc_ff(0, 1, big.data(), big.size());
      ADD_FAILURE() << "oversized argument accepted";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::invalid_argument) << e.what();
    }
    try {
      rpc(7, 1, nullptr, 0);
      ADD_FAILURE() << "out-of-range target accepted";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rank_out_of_range) << e.what();
    }
    am::finalize();
    armci::finalize();
  });
}

TEST(AmTest, UsableOnlyBetweenInitAndFinalize) {
  mpisim::run(cfg2(1), [&] {
    armci::init();
    EXPECT_FALSE(initialized());
    EXPECT_EQ(poll(), 0);  // polling while detached is a harmless no-op
    try {
      rpc(0, 0, nullptr, 0);
      ADD_FAILURE() << "rpc before am::init succeeded";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::invalid_argument) << e.what();
    }
    am::init();
    EXPECT_TRUE(initialized());
    am::finalize();
    EXPECT_FALSE(initialized());
    armci::finalize();
  });
}

TEST(AmTest, MetricsJsonExportsAmCounters) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    const int h_echo = am::register_handler(
        [](int, const void* a, std::size_t n, void* r, std::size_t) {
          std::memcpy(r, a, n);
          return n;
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      const std::int32_t v = 1;
      rpc(1, h_echo, &v, sizeof v).wait();
      const std::string j = armci::metrics_json();
      EXPECT_NE(j.find("\"am\":{\"am_sent\":1,"), std::string::npos) << j;
    } else {
      poll_wait([&] { return armci::stats().am_served >= 1; });
      const std::string j = armci::metrics_json();
      EXPECT_NE(j.find("\"am_served\":1,"), std::string::npos) << j;
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

// Each rpc's reply stays with its own handle: A is still outstanding and B
// is still referenced while C runs, so neither may lend C its reply state.
TEST(AmTest, OutstandingHandleKeepsItsReply) {
  mpisim::run(cfg2(2), [&] {
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
    if (mpisim::rank() == 0) {
      const std::int64_t a = 11;
      const Pair b{22, 23};
      const std::int32_t c = 33;
      Handle ha = rpc(1, h_echo, &a, sizeof a);
      Handle hb = rpc(1, h_echo, &b, sizeof b);
      hb.wait();
      Handle hc = rpc(1, h_echo, &c, sizeof c);
      hc.wait();
      ha.wait();
      EXPECT_EQ(ha.reply_as<std::int64_t>(), 11);
      const Pair got = hb.reply_as<Pair>();
      EXPECT_EQ(got.a, 22);
      EXPECT_EQ(got.b, 23);
      EXPECT_EQ(hc.reply_as<std::int32_t>(), 33);
    } else {
      poll_wait([&] { return served >= 3; });
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

// A full-size reply round-trips intact, and the next rpc -- on the state
// the first one left behind -- reports only its own, 1-byte reply.
TEST(AmTest, MaxSizeReplyThenShortReply) {
  mpisim::run(cfg2(2), [&] {
    armci::init();
    am::init();
    std::uint64_t served = 0;
    const int h_fill = am::register_handler(
        [&](int, const void* a, std::size_t, void* r, std::size_t cap) {
          std::uint8_t big = 0;
          std::memcpy(&big, a, 1);
          auto* out = static_cast<std::uint8_t*>(r);
          ++served;
          if (big == 0) {
            out[0] = 0x5a;
            return std::size_t{1};
          }
          for (std::size_t i = 0; i < cap; ++i)
            out[i] = static_cast<std::uint8_t>(i * 7 + 3);
          return cap;
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      const std::uint8_t* first = nullptr;
      {
        const std::uint8_t big = 1;
        Handle h = rpc(1, h_fill, &big, sizeof big);
        h.wait();
        const std::span<const std::uint8_t> r = h.reply();
        EXPECT_EQ(r.size(), kMaxReplyBytes);
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < r.size(); ++i)
          wrong += r[i] != static_cast<std::uint8_t>(i * 7 + 3) ? 1 : 0;
        EXPECT_EQ(wrong, 0u);
        first = r.data();
      }
      const std::uint8_t small = 0;
      Handle h = rpc(1, h_fill, &small, sizeof small);
      h.wait();
      EXPECT_EQ(h.reply().size(), 1u);
      EXPECT_EQ(h.reply().front(), 0x5a);
      EXPECT_EQ(h.reply().data(), first)
          << "the second rpc should reuse the first one's released state";
    } else {
      poll_wait([&] { return served >= 2; });
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
}

// ---------------------------------------------------------------------------
// Happens-before persona semantics of handler memory effects
// ---------------------------------------------------------------------------

// Other CI legs re-run this binary under MPISIM_RMA_CHECK=abort/warn, which
// overrides the race detector these tests depend on.
#define SKIP_UNLESS_RACE_MODE()                                             \
  do {                                                                      \
    const char* rc_ = std::getenv("MPISIM_RMA_CHECK");                      \
    if (rc_ != nullptr && std::string(rc_) != "race")                       \
      GTEST_SKIP() << "MPISIM_RMA_CHECK=" << rc_                            \
                   << " overrides the race detector";                       \
  } while (0)

mpisim::Config race_cfg(int nranks) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = mpisim::Platform::ideal;
  cfg.rma_check = mpisim::RmaCheck::race;
  return cfg;
}

// Positive: a handler writes the target's global buffer (declared via
// am::touch) under the progress persona's identity. The origin reads that
// buffer after the handler ran but WITHOUT completing the handle: no edge
// hands it the persona's clock, so the read races -- exactly like touching
// an unretired nonblocking operation's destination.
TEST(AmHbRacePositiveTest, ReadOfHandlerWriteBeforeCompletionRaces) {
  SKIP_UNLESS_RACE_MODE();
  std::atomic<bool> handler_ran{false};
  mpisim::Config cfg = race_cfg(2);
  cfg.ranks_per_node = 1;
  mpisim::run(cfg, [&] {
    armci::Options o;
    o.backend = armci::Backend::mpi3;
    armci::init(o);
    am::init();
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = armci::malloc_world(kBytes);
    const int h_fill = am::register_handler(
        [&](int, const void*, std::size_t, void*, std::size_t) {
          void* mine = bases[static_cast<std::size_t>(mpisim::rank())];
          std::memset(mine, 0x5a, kBytes);
          am::touch(mine, kBytes, /*write=*/true);
          return std::size_t{0};
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      Handle h = rpc(1, h_fill, nullptr, 0);
      // Host-order the read after the handler without any simulator edge
      // (a sim message from rank 1 would hand us the persona clock via the
      // owner's post-serve join and hide the race).
      while (!handler_ran.load(std::memory_order_acquire))
        mpisim::yield();
      char priv[kBytes] = {0};
      try {
        armci::get(bases[1], priv, kBytes, 1);
        ADD_FAILURE() << "read of uncompleted handler write not flagged";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::rma_race) << e.what();
      }
      EXPECT_GE(armci::stats().rma_races, 1u);
      // The reply is still consumable; completion surfaces no error.
      h.wait();
    } else {
      poll_wait([&] { return armci::stats().am_served >= 1; });
      handler_ran.store(true, std::memory_order_release);
    }
    am::barrier();
    armci::free(bases[static_cast<std::size_t>(mpisim::rank())]);
    am::finalize();
    armci::finalize();
  });
}

// Negative: identical flow, but the origin completes the handle first. The
// reply carries the persona's clock, so the read is ordered and clean.
TEST(AmHbRaceTest, ReadAfterCompletionIsClean) {
  SKIP_UNLESS_RACE_MODE();
  mpisim::Config cfg = race_cfg(2);
  cfg.ranks_per_node = 1;
  mpisim::run(cfg, [&] {
    armci::Options o;
    o.backend = armci::Backend::mpi3;
    armci::init(o);
    am::init();
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = armci::malloc_world(kBytes);
    const int h_fill = am::register_handler(
        [&](int, const void*, std::size_t, void*, std::size_t) {
          void* mine = bases[static_cast<std::size_t>(mpisim::rank())];
          std::memset(mine, 0x5a, kBytes);
          am::touch(mine, kBytes, /*write=*/true);
          return std::size_t{0};
        });
    armci::barrier();
    if (mpisim::rank() == 0) {
      Handle h = rpc(1, h_fill, nullptr, 0);
      h.wait();  // completion edge: the reply hands us the persona clock
      char priv[kBytes] = {0};
      armci::get(bases[1], priv, kBytes, 1);
      EXPECT_EQ(priv[0], 0x5a);
      EXPECT_EQ(priv[kBytes - 1], 0x5a);
      EXPECT_EQ(armci::stats().rma_races, 0u);
    } else {
      poll_wait([&] { return armci::stats().am_served >= 1; });
    }
    am::barrier();
    EXPECT_EQ(armci::stats().rma_races, 0u);
    armci::free(bases[static_cast<std::size_t>(mpisim::rank())]);
    am::finalize();
    armci::finalize();
  });
}

}  // namespace
}  // namespace am
