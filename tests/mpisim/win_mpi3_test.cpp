// Tests for the MPI-3 RMA extensions (paper §VIII-B): epochless passive
// mode (lock_all / flush) and atomic read-modify-write operations.

#include <gtest/gtest.h>

#include <vector>

#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

TEST(WinMpi3Test, LockAllOpensEpochsEverywhere) {
  run(4, Platform::ideal, [] {
    std::vector<double> mem(4, static_cast<double>(rank()));
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    win.lock_all();
    // Read every rank's first element without per-target locks.
    for (int t = 0; t < 4; ++t) {
      double v = -1;
      win.get(&v, sizeof v, t, 0);
      EXPECT_DOUBLE_EQ(v, static_cast<double>(t));
    }
    win.flush_all();
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

TEST(WinMpi3Test, LockAllThenLockIsDoubleLock) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) {
        win.lock_all();
        win.lock(LockType::exclusive, 1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::double_lock);
  }
}

TEST(WinMpi3Test, UnlockAllWithoutLockAllThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) win.unlock_all();
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::not_locked);
  }
}

TEST(WinMpi3Test, FlushRequiresAnEpoch) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) win.flush(1);
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::no_epoch);
  }
}

TEST(WinMpi3Test, AccumulateBasedPutsUnderLockAll) {
  // The ARMCI-MPI3 recipe: put == accumulate(REPLACE), usable concurrently
  // from all origins under shared lock_all epochs.
  run(8, Platform::ideal, [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), 64, world());
    world().barrier();
    win.lock_all();
    const Datatype d = double_type();
    const double mine = static_cast<double>(rank() + 1);
    // Each rank writes its own slot of rank 0 via accumulate(replace).
    win.accumulate(&mine, 1, d, 0, static_cast<std::size_t>(rank()) * 8, 1,
                   d, Op::replace);
    win.flush(0);
    win.unlock_all();
    world().barrier();
    if (rank() == 0)
      for (int r = 0; r < 8; ++r)
        EXPECT_DOUBLE_EQ(mem[static_cast<std::size_t>(r)], r + 1.0);
    win.free();
  });
}

TEST(WinMpi3Test, FetchAndOpIsAtomic) {
  run(8, Platform::ideal, [] {
    std::vector<std::int64_t> mem(1, 0);
    Win win = Win::create(mem.data(), 8, world());
    world().barrier();
    win.lock_all();
    std::set<std::int64_t> seen;
    const std::int64_t one = 1;
    for (int i = 0; i < 10; ++i) {
      std::int64_t old = -1;
      win.fetch_and_op(&one, &old, BasicType::int64, 0, 0, Op::sum);
      EXPECT_TRUE(seen.insert(old).second);  // my fetches are distinct
    }
    win.unlock_all();
    world().barrier();
    if (rank() == 0) { EXPECT_EQ(mem[0], 80); }
    win.free();
  });
}

TEST(WinMpi3Test, FetchAndOpReplaceSwaps) {
  run(2, Platform::ideal, [] {
    std::vector<std::int64_t> mem(1, 7);
    Win win = Win::create(mem.data(), 8, world());
    world().barrier();
    if (rank() == 1) {
      win.lock_all();
      std::int64_t mine = 42, old = 0;
      win.fetch_and_op(&mine, &old, BasicType::int64, 0, 0, Op::replace);
      EXPECT_EQ(old, 7);
      win.unlock_all();
    }
    world().barrier();
    if (rank() == 0) { EXPECT_EQ(mem[0], 42); }
    win.free();
  });
}

TEST(WinMpi3Test, NoOpFetchReadsAtomically) {
  run(2, Platform::ideal, [] {
    std::vector<std::int64_t> mem(1, 99);
    Win win = Win::create(mem.data(), 8, world());
    world().barrier();
    if (rank() == 1) {
      win.lock_all();
      std::int64_t old = 0;
      win.fetch_and_op(nullptr, &old, BasicType::int64, 0, 0, Op::no_op);
      EXPECT_EQ(old, 99);
      win.unlock_all();
    }
    world().barrier();
    if (rank() == 0) { EXPECT_EQ(mem[0], 99); }
    win.free();
  });
}

TEST(WinMpi3Test, CompareAndSwapOnlyOneWinner) {
  run(8, Platform::ideal, [] {
    std::vector<std::int64_t> mem(1, 0);
    Win win = Win::create(mem.data(), 8, world());
    world().barrier();
    win.lock_all();
    const std::int64_t zero = 0;
    const std::int64_t mine = rank() + 1;
    std::int64_t old = -1;
    win.compare_and_swap(&mine, &zero, &old, BasicType::int64, 0, 0);
    const int won = old == 0 ? 1 : 0;
    win.unlock_all();
    world().barrier();
    std::int64_t winners = 0;
    const std::int64_t w = won;
    world().allreduce(&w, &winners, 1, BasicType::int64, Op::sum);
    EXPECT_EQ(winners, 1);
    if (rank() == 0) {
      EXPECT_GE(mem[0], 1);
      EXPECT_LE(mem[0], 8);
    }
    win.free();
  });
}

TEST(WinMpi3Test, ConflictsAreUndefinedNotErroneousUnderLockAll) {
  // Under MPI-2 epochs this put/get overlap raises rma_conflict at epoch
  // completion; the MPI-3 lock_all epoch relaxes it to undefined -- no
  // error.
  run(2, Platform::ideal, [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    if (rank() == 0) {
      win.lock_all();
      double v[2] = {1, 2};
      double d[2];
      win.put(v, 16, 1, 0);
      win.get(d, 16, 1, 8);  // overlaps the put: undefined, not an error
      win.flush(1);
      win.unlock_all();
    }
    world().barrier();
    win.free();
  });
}

TEST(WinMpi3Test, FlushResetsLatencyPipelining) {
  run(2, Platform::cray_xt5, [] {
    std::vector<double> mem(64, 0.0);
    Win win = Win::create(mem.data(), 512, world());
    world().barrier();
    if (rank() == 0) {
      win.lock_all();
      double v = 1.0;
      win.put(&v, 8, 1, 0);
      const double t0 = clock().now_ns();
      win.put(&v, 8, 1, 16);  // pipelined: no wire latency
      const double pipelined = clock().now_ns() - t0;
      win.flush(1);
      const double t1 = clock().now_ns();
      win.put(&v, 8, 1, 32);  // first op after flush pays latency again
      const double after_flush = clock().now_ns() - t1;
      EXPECT_GT(after_flush, pipelined);
      win.unlock_all();
    }
    world().barrier();
    win.free();
  });
}

TEST(WinMpi3Test, FlushWithNothingOutstandingIsFree) {
  run(2, Platform::infiniband, [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    if (rank() == 0) {
      win.lock_all();
      const double t0 = clock().now_ns();
      win.flush(1);
      EXPECT_EQ(clock().now_ns(), t0);
      win.unlock_all();
    }
    world().barrier();
    win.free();
  });
}

TEST(WinMpi3Test, LockAllCoexistsWithExclusiveFromOthers) {
  // Rank 0 holds lock_all (shared everywhere); rank 1's exclusive lock on
  // rank 2 must wait for nothing incompatible once 0 releases -- exercise
  // the waiter queue interplay without deadlock.
  run(3, Platform::ideal, [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    if (rank() == 0) {
      win.lock_all();
      double v = 5.0;
      win.put(&v, 8, 2, 0);
      win.flush(2);
      win.unlock_all();
    }
    world().barrier();
    if (rank() == 1) {
      win.lock(LockType::exclusive, 2);
      double v = 0.0;
      win.get(&v, 8, 2, 0);
      win.unlock(2);
      EXPECT_DOUBLE_EQ(v, 5.0);
    }
    world().barrier();
    win.free();
  });
}

}  // namespace
}  // namespace mpisim
