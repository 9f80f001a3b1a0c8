// Missed-wake regression tests for the per-rank wake slots (runtime.hpp).
//
// A state change that forgets to wake the rank it unblocks does not hang
// the run. Either the rank sleeps until its 1 s host-time safety net, or,
// once every other rank blocks too, the detector misjudges a deadlock.
// Each test here runs hundreds of blocking handoffs through one wake site
// and requires the whole loop to finish in well under one safety-net
// period, so a single missed wake fails it either way.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

constexpr int kRanks = 8;
/// Host-time budget of a whole handoff loop: half a safety-net period.
constexpr double kBudgetS = 0.5;

/// Host seconds rank 0 spends in \p body, fenced by world barriers so the
/// span covers every rank's share.
template <typename Body>
double timed_on_all_ranks(Body body) {
  world().barrier();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  world().barrier();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(TargetedWakeTest, ExclusiveLockHandoffRingFinishesWithinBudget) {
  constexpr int kEpochsPerRank = 100;
  double elapsed_s = 0.0;
  std::int64_t total = 0;
  run(kRanks, Platform::ideal, [&] {
    std::int64_t counter = 0;
    Win win = Win::create(&counter, sizeof counter, world());
    const double s = timed_on_all_ranks([&] {
      // Every rank hammers one target: each unlock grants the next queued
      // origin, which must be woken by the grant itself.
      const std::int64_t one = 1;
      const Datatype i64 = int64_type();
      for (int i = 0; i < kEpochsPerRank; ++i) {
        win.lock(LockType::exclusive, 0);
        win.accumulate(&one, 1, i64, 0, 0, 1, i64, Op::sum);
        win.unlock(0);
      }
    });
    if (rank() == 0) {
      elapsed_s = s;
      total = counter;
    }
    win.free();
  });
  EXPECT_EQ(total, std::int64_t{kRanks} * kEpochsPerRank);
  EXPECT_LT(elapsed_s, kBudgetS)
      << kRanks * kEpochsPerRank
      << " lock/unlock handoffs hit the wait safety net";
}

TEST(TargetedWakeTest, P2pPingPongChainFinishesWithinBudget) {
  constexpr int kLaps = 50;
  double elapsed_s = 0.0;
  std::int64_t token_out = 0;
  run(kRanks, Platform::ideal, [&] {
    const int me = rank();
    const int next = (me + 1) % kRanks;
    const int prev = (me + kRanks - 1) % kRanks;
    std::int64_t token = 0;
    const double s = timed_on_all_ranks([&] {
      // The token visits every rank once per lap; each receive blocks until
      // its predecessor's send wakes it.
      for (int lap = 0; lap < kLaps; ++lap) {
        if (me == 0) {
          ++token;
          world().send(&token, sizeof token, next, 0);
          world().recv(&token, sizeof token, prev, 0);
        } else {
          world().recv(&token, sizeof token, prev, 0);
          ++token;
          world().send(&token, sizeof token, next, 0);
        }
      }
    });
    if (me == 0) {
      elapsed_s = s;
      token_out = token;
    }
  });
  EXPECT_EQ(token_out, std::int64_t{kLaps} * kRanks);
  EXPECT_LT(elapsed_s, kBudgetS)
      << kLaps * kRanks << " p2p handoffs hit the wait safety net";
}

TEST(TargetedWakeTest, BarrierChainFinishesWithinBudget) {
  constexpr int kRounds = 300;
  double elapsed_s = 0.0;
  run(kRanks, Platform::ideal, [&] {
    const double s = timed_on_all_ranks([&] {
      // Each completion must wake every member still blocked in the round.
      for (int i = 0; i < kRounds; ++i) world().barrier();
    });
    if (rank() == 0) elapsed_s = s;
  });
  EXPECT_LT(elapsed_s, kBudgetS)
      << kRounds << " barrier rounds hit the wait safety net";
}

}  // namespace
}  // namespace mpisim
