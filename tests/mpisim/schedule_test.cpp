// Tests of the deterministic rank scheduler (runtime.hpp). Every rank runs
// on one host thread in (virtual clock, rank) order, so who matches a
// message, who gets a lock and who claims a task follow the virtual clocks,
// and repeated runs of one program agree bit for bit. Per-rank state must
// not leak between ranks or runs through the shared host thread, and the
// C++ exception state must follow each rank across switches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/armci/metrics.hpp"
#include "src/armci/state.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

/// Source of the first message a wildcard receive on rank 0 matches when
/// ranks 1 and 2 send from clocks \p t1 and \p t2. Rank 0 posts first: it
/// starts with the smallest key and blocks in the receive.
int first_any_source_match(double t1, double t2) {
  int first = -1;
  run(3, Platform::ideal, [&] {
    Comm w = world();
    const int me = rank();
    std::int32_t v = me;
    if (me == 0) {
      const Status st = w.recv(&v, sizeof v, kAnySource, 5);
      first = st.source;
      w.recv(&v, sizeof v, kAnySource, 5);
    } else {
      clock().advance(me == 1 ? t1 : t2);
      w.send(&v, sizeof v, 0, 5);
    }
  });
  return first;
}

TEST(ScheduleTest, AnySourceMatchesTheEarlierClock) {
  EXPECT_EQ(first_any_source_match(200.0, 100.0), 2);
  EXPECT_EQ(first_any_source_match(100.0, 200.0), 1);
  // Equal clocks: the lower rank sends first.
  EXPECT_EQ(first_any_source_match(100.0, 100.0), 1);
}

TEST(ScheduleTest, ExclusiveLockGrantsFollowClockThenRank) {
  std::vector<int> order;
  run(4, Platform::ideal, [&] {
    std::int64_t cell = 0;
    Win win = Win::create(&cell, sizeof cell, world());
    world().barrier();
    const int me = rank();
    if (me == 0) {
      // Hold the target while the contenders queue behind it.
      win.lock(LockType::exclusive, 0);
      clock().advance(1000.0);
      win.unlock(0);
    } else {
      // Keys (100, 3) < (200, 1) < (200, 2).
      clock().advance(me == 3 ? 100.0 : 200.0);
      win.lock(LockType::exclusive, 0);
      order.push_back(me);
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
  EXPECT_EQ(order, (std::vector<int>{3, 1, 2}));
}

/// Task claims of a fetch_and_op counter loop in which rank 0's tasks cost
/// 9x the others'. No pace(): the scheduler alone orders the claims.
std::vector<int> claim_order() {
  constexpr std::int64_t kTasks = 57;
  std::vector<int> claims;
  run(3, Platform::ideal, [&] {
    std::int64_t counter = 0;
    Win win = Win::create(&counter, sizeof counter, world());
    world().barrier();
    win.lock_all();
    const std::int64_t one = 1;
    for (;;) {
      std::int64_t t = 0;
      win.fetch_and_op(&one, &t, BasicType::int64, 0, 0, Op::sum);
      win.flush(0);
      if (t >= kTasks) break;
      claims.push_back(rank());
      clock().advance(rank() == 0 ? 9000.0 : 1000.0);
    }
    win.unlock_all();
    world().barrier();
    win.free();
  });
  return claims;
}

TEST(ScheduleTest, FetchAndOpClaimsFollowVirtualClock) {
  const std::vector<int> claims = claim_order();
  std::vector<int> counts(3, 0);
  for (int r : claims) ++counts[static_cast<std::size_t>(r)];
  // As ScheduleTest.PacedUnevenCostsShiftClaims expects with pace().
  EXPECT_LT(counts[0], counts[1] / 2);
  EXPECT_NEAR(counts[1], counts[2], 3);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 57);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(claim_order(), claims);
}

/// One task claim of a paced loop: the claimer's clock and rank.
struct Claim {
  double ns;
  int rank;
};

/// Claim tasks from the host counter \p next until it reaches \p ntasks,
/// calling pace() before each claim; each task costs \p cost_ns. A host
/// counter is no scheduling point, so only pace() orders the claims.
void paced_loop(std::int64_t& next, std::int64_t ntasks, double cost_ns,
                std::vector<Claim>& log) {
  for (;;) {
    pace();
    if (next >= ntasks) return;
    ++next;
    log.push_back({clock().now_ns(), rank()});
    clock().advance(cost_ns);
  }
}

std::vector<int> claims_per_rank(const std::vector<Claim>& log, int nranks) {
  std::vector<int> counts(static_cast<std::size_t>(nranks), 0);
  for (const Claim& c : log) ++counts[static_cast<std::size_t>(c.rank)];
  return counts;
}

bool in_clock_order(const std::vector<Claim>& log) {
  return std::is_sorted(log.begin(), log.end(),
                        [](const Claim& a, const Claim& b) {
                          return a.ns < b.ns;
                        });
}

TEST(ScheduleTest, PacedUniformCostsSplitEvenly) {
  std::int64_t next = 0;
  std::vector<Claim> log;
  run(4, Platform::ideal, [&] { paced_loop(next, 40, 1000.0, log); });
  EXPECT_EQ(claims_per_rank(log, 4), (std::vector<int>{10, 10, 10, 10}));
  EXPECT_TRUE(in_clock_order(log));
}

TEST(ScheduleTest, PacedUnevenCostsShiftClaims) {
  std::int64_t next = 0;
  std::vector<Claim> log;
  run(3, Platform::ideal, [&] {
    paced_loop(next, 57, rank() == 0 ? 9000.0 : 1000.0, log);
  });
  const std::vector<int> counts = claims_per_rank(log, 3);
  EXPECT_LT(counts[0], counts[1] / 2);
  EXPECT_NEAR(counts[1], counts[2], 3);
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 57);
  EXPECT_TRUE(in_clock_order(log));
}

// Rank 0 never enters the loop: its pace time (0) holds the others until
// it blocks in the barrier, then the held ranks run in (clock, rank) order.
TEST(ScheduleTest, PacedLoopSurvivesAStragglerInABarrier) {
  std::int64_t next = 0;
  std::vector<Claim> log;
  run(4, Platform::ideal, [&] {
    if (rank() != 0) {
      clock().advance(1000.0);
      paced_loop(next, 30, 1000.0, log);
    }
    world().barrier();
  });
  EXPECT_EQ(claims_per_rank(log, 4), (std::vector<int>{0, 10, 10, 10}));
  EXPECT_TRUE(in_clock_order(log));
}

// Each phase's first pace() meets the others' pace times from the phase
// before; the claims of every phase still follow the clocks.
TEST(ScheduleTest, PacedPhasesBetweenBarriers) {
  constexpr int kPhases = 3;
  std::vector<std::int64_t> next(kPhases, 0);
  std::vector<std::vector<Claim>> logs(kPhases);
  run(4, Platform::ideal, [&] {
    for (int ph = 0; ph < kPhases; ++ph) {
      world().barrier();
      const auto u = static_cast<std::size_t>(ph);
      paced_loop(next[u], 20, 100.0 * (1 + (rank() + ph) % 4), logs[u]);
    }
    world().barrier();
  });
  for (int ph = 0; ph < kPhases; ++ph) {
    const std::vector<Claim>& log = logs[static_cast<std::size_t>(ph)];
    EXPECT_EQ(log.size(), 20u);
    EXPECT_TRUE(in_clock_order(log)) << "phase " << ph;
    // The rank with the cheapest tasks this phase claims the most.
    const std::vector<int> counts = claims_per_rank(log, 4);
    const int cheapest = (4 - ph) % 4;
    EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
              cheapest)
        << "phase " << ph;
  }
}

// Rank 0 spins in yield() on a flag that held rank 1 sets. With nothing
// else to run, the held rank must go before the spinner is requeued, or
// the run livelocks.
TEST(ScheduleTest, YieldSpinnerLetsAHeldRankRun) {
  bool flag = false;
  run(2, Platform::ideal, [&] {
    if (rank() == 0) {
      while (!flag) yield();
    } else {
      clock().advance(1000.0);
      pace();
      flag = true;
    }
  });
  EXPECT_TRUE(flag);
}

TEST(ScheduleTest, HeldRankSeesPeerFailure) {
  Errc seen = Errc::internal;
  try {
    run(2, Platform::ideal, [&] {
      if (rank() == 0) {
        // Let rank 1 pace ahead of this rank's pace time and be held.
        clock().advance(5000.0);
        yield();
        throw std::runtime_error("rank 0 failed");
      }
      clock().advance(1000.0);
      try {
        pace();
      } catch (const MpiError& e) {
        seen = e.code();
        throw;
      }
      ADD_FAILURE() << "pace() returned after the peer failed";
    });
    ADD_FAILURE() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 0 failed");
  }
  EXPECT_EQ(seen, Errc::aborted);
}

// Rank 0 never paces. Ranks 1 and 2 pace behind its pace time (0); once
// rank 0 blocks, the earliest held rank (1) runs, wakes rank 0 and goes
// far ahead in virtual time. Rank 0's death must release rank 2 at once,
// not when rank 1 next paces or finishes.
TEST(ScheduleTest, SurvivableDeathReleasesHeldRanks) {
  Config cfg;
  cfg.nranks = 3;
  cfg.platform = Platform::ideal;
  cfg.fault.survivable = true;
  bool rank1_back = false;
  bool seen_by_rank2 = true;
  run(cfg, [&] {
    Comm w = world();
    char token = 0;
    if (rank() == 0) {
      w.recv(&token, 1, 1, 0);
      ctx().fault().arm_crash();
      w.barrier();  // the fault point kills this rank
      ADD_FAILURE() << "rank 0 outlived its crash";
      return;
    }
    clock().advance(1000.0);
    pace();
    if (rank() == 1) {
      w.send(&token, 1, 0, 0);
      clock().advance(1e7);
      // A scheduling point: rank 0, now behind, runs and dies.
      (void)ctx().core().is_failed(0);
      rank1_back = true;
    } else {
      seen_by_rank2 = rank1_back;
    }
  });
  EXPECT_FALSE(seen_by_rank2);
}

/// Per-rank outcome of an rpc storm: final clock, am_sent, am_served.
struct StormResult {
  std::vector<double> clocks;
  std::vector<std::uint64_t> sent, served;
  bool operator==(const StormResult&) const = default;
};

StormResult rpc_storm() {
  constexpr int kRanks = 4;
  constexpr int kCalls = 200;
  StormResult res;
  res.clocks.resize(kRanks);
  res.sent.resize(kRanks);
  res.served.resize(kRanks);
  Config cfg;
  cfg.nranks = kRanks;
  cfg.platform = Platform::infiniband;
  run(cfg, [&] {
    armci::init({});
    am::init();
    const int h_add = am::register_handler(
        [](int src, const void* arg, std::size_t, void* reply, std::size_t) {
          std::int64_t v = 0;
          std::memcpy(&v, arg, sizeof v);
          v += src;
          std::memcpy(reply, &v, sizeof v);
          return sizeof v;
        });
    armci::barrier();
    const int me = rank();
    for (int i = 0; i < kCalls; ++i) {
      // Uneven per-rank compute between calls, varying targets.
      const int target = (me + 1 + i % (kRanks - 1)) % kRanks;
      const std::int64_t arg = i;
      am::Handle h = am::rpc(target, h_add, &arg, sizeof arg);
      clock().advance(100.0 * (me + 1));
      h.wait();
      EXPECT_EQ(h.reply_as<std::int64_t>(), i + me);
    }
    am::barrier();
    const auto u = static_cast<std::size_t>(me);
    res.clocks[u] = clock().now_ns();
    res.sent[u] = armci::stats().am_sent;
    res.served[u] = armci::stats().am_served;
    am::finalize();
    armci::finalize();
  });
  return res;
}

TEST(ScheduleTest, RpcStormIsBitIdenticalAcrossRuns) {
  const StormResult first = rpc_storm();
  for (std::uint64_t s : first.sent) EXPECT_GE(s, 200u);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(rpc_storm(), first);
}

TEST(ScheduleTest, RethrowAfterBlockingInCatchGetsOwnException) {
  std::vector<std::string> got(2);
  run(2, Platform::ideal, [&] {
    Comm w = world();
    const int me = rank();
    char token = 0;
    try {
      try {
        throw std::runtime_error("rank " + std::to_string(me));
      } catch (...) {
        // Both ranks block inside a catch block: rank 0 resumes and
        // rethrows while rank 1's exception is the most recently caught.
        if (me == 0) {
          w.recv(&token, 1, 1, 0);
        } else {
          w.send(&token, 1, 0, 0);
          w.recv(&token, 1, 0, 1);
        }
        throw;
      }
    } catch (const std::runtime_error& e) {
      got[static_cast<std::size_t>(me)] = e.what();
    }
    if (me == 0) w.send(&token, 1, 1, 1);
  });
  EXPECT_EQ(got[0], "rank 0");
  EXPECT_EQ(got[1], "rank 1");
}

/// 1/3 in the current rounding mode, computed in SSE (MXCSR) at run time.
double one_third() {
  volatile double one = 1.0;
  return one / 3.0;
}

TEST(ScheduleTest, FloatingPointControlIsPerRank) {
  // fegetround() reads the x87 control word and one_third() follows MXCSR,
  // so each check covers both halves of the FP control state. Rank 0 runs
  // first and blocks in the barrier in upward mode; rank 1 then checks its
  // own mode before and after the barrier, and rank 0 after it.
  struct Seen {
    int mode;
    double third;
  };
  std::vector<Seen> before(2), after(2);
  run(2, Platform::ideal, [&] {
    const auto me = static_cast<std::size_t>(rank());
    if (me == 0) std::fesetround(FE_UPWARD);
    before[me] = {std::fegetround(), one_third()};
    world().barrier();
    after[me] = {std::fegetround(), one_third()};
    std::fesetround(FE_TONEAREST);
  });
  for (const Seen& s : {before[0], after[0]}) {
    EXPECT_EQ(s.mode, FE_UPWARD);
    EXPECT_GT(s.third, 1.0 / 3.0);
  }
  for (const Seen& s : {before[1], after[1]}) {
    EXPECT_EQ(s.mode, FE_TONEAREST);
    EXPECT_EQ(s.third, 1.0 / 3.0);
  }
}

TEST(ScheduleTest, ThousandRanksOnSmallStacks) {
  constexpr int kRanks = 1024;
  Config cfg;
  cfg.nranks = kRanks;
  cfg.platform = Platform::ideal;
  cfg.stack_bytes = 64 * 1024;
  std::vector<std::int64_t> sums(kRanks, 0);
  run(cfg, [&] {
    world().barrier();
    const std::int64_t mine = rank();
    std::int64_t sum = 0;
    world().allreduce(&mine, &sum, 1, BasicType::int64, Op::sum);
    sums[static_cast<std::size_t>(rank())] = sum;
  });
  for (std::int64_t s : sums)
    EXPECT_EQ(s, std::int64_t{kRanks - 1} * kRanks / 2);
}

/// One 4-rank ARMCI program: a world allocation, then one allocation per
/// two-rank subgroup (leaders 0 and 2). Returns every rank's GMR ids and
/// metrics_json(). A GMR id is its leader's world rank in the high bits
/// over the leader's allocation count.
std::vector<std::string> armci_program() {
  std::vector<std::string> out(4);
  run(4, Platform::infiniband, [&] {
    armci::Options o;
    o.metrics = true;
    armci::init(o);
    const int me = rank();
    std::vector<void*> all = armci::malloc_world(64);
    const std::vector<int> members =
        me < 2 ? std::vector<int>{0, 1} : std::vector<int>{2, 3};
    armci::PGroup g = armci::PGroup::create_noncollective(members, 7 + me / 2);
    std::vector<void*> sub = armci::malloc_group(64, g);
    const double v = me;
    armci::put(&v, all[static_cast<std::size_t>((me + 1) % 4)], sizeof v,
               (me + 1) % 4);
    armci::barrier();
    std::vector<std::uint64_t> ids;
    for (const auto& gmr : armci::state().table.all()) ids.push_back(gmr->id);
    std::sort(ids.begin(), ids.end());
    // Rank 0 leads the world allocation and then its subgroup's; rank 2's
    // subgroup allocation is rank 2's first.
    const std::vector<std::uint64_t> want =
        me < 2 ? std::vector<std::uint64_t>{0, 1}
               : std::vector<std::uint64_t>{0, std::uint64_t{2} << 32};
    EXPECT_EQ(ids, want) << "rank " << me;
    std::string text;
    for (std::uint64_t id : ids) text += std::to_string(id) + ",";
    out[static_cast<std::size_t>(me)] = text + "\n" + armci::metrics_json();
    armci::free_group(sub[static_cast<std::size_t>(g.rank())], g);
    armci::free(all[static_cast<std::size_t>(me)]);
    armci::finalize();
  });
  return out;
}

TEST(ScheduleTest, ArmciStateIsPerRankAndPerRun) {
  const std::vector<std::string> first = armci_program();
  EXPECT_EQ(armci_program(), first);
}

}  // namespace
}  // namespace mpisim
