// Integration tests for passive-target RMA windows, including MPI-2
// semantics enforcement (epoch discipline, lock rules, conflict detection).

#include "src/mpisim/win.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/mpisim/runtime.hpp"

namespace mpisim {
namespace {

TEST(WinTest, CreateExposesBasesAndSizes) {
  run(3, Platform::ideal, [] {
    std::vector<double> mem(16, static_cast<double>(rank()));
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    for (int r = 0; r < 3; ++r) {
      EXPECT_NE(win.base(r), nullptr);
      EXPECT_EQ(win.size(r), 16 * sizeof(double));
    }
    EXPECT_EQ(win.base(rank()), mem.data());
    win.free();
  });
}

TEST(WinTest, ZeroSizeRankParticipates) {
  run(3, Platform::ideal, [] {
    std::vector<double> mem(rank() == 1 ? 0 : 8);
    Win win = Win::create(mem.empty() ? nullptr : mem.data(),
                          mem.size() * sizeof(double), world());
    EXPECT_EQ(win.size(1), 0u);
    win.free();
  });
}

TEST(WinTest, PutThenGetRoundTrip) {
  run(2, Platform::ideal, [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<double> src{1.5, 2.5, 3.5};
      win.lock(LockType::exclusive, 1);
      win.put(src.data(), src.size() * sizeof(double), 1, 2 * sizeof(double));
      win.unlock(1);

      std::vector<double> dst(3, 0.0);
      win.lock(LockType::exclusive, 1);
      win.get(dst.data(), dst.size() * sizeof(double), 1, 2 * sizeof(double));
      win.unlock(1);
      EXPECT_EQ(dst, src);
    }
    world().barrier();
    if (rank() == 1) {
      EXPECT_DOUBLE_EQ(mem[2], 1.5);
      EXPECT_DOUBLE_EQ(mem[4], 3.5);
      EXPECT_DOUBLE_EQ(mem[0], 0.0);
    }
    win.free();
  });
}

TEST(WinTest, AccumulateSumsElementwise) {
  run(2, Platform::ideal, [] {
    std::vector<double> mem(4, 10.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<double> src{1.0, 2.0, 3.0, 4.0};
      const Datatype d = double_type();
      for (int iter = 0; iter < 3; ++iter) {
        win.lock(LockType::exclusive, 1);
        win.accumulate(src.data(), 4, d, 1, 0, 4, d, Op::sum);
        win.unlock(1);
      }
    }
    world().barrier();
    if (rank() == 1) {
      EXPECT_DOUBLE_EQ(mem[0], 13.0);
      EXPECT_DOUBLE_EQ(mem[3], 22.0);
    }
    win.free();
  });
}

TEST(WinTest, AccumulateReplaceActsAsPut) {
  run(2, Platform::ideal, [] {
    std::vector<std::int64_t> mem(4, -1);
    Win win = Win::create(mem.data(), mem.size() * sizeof(std::int64_t), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<std::int64_t> src{7, 8, 9, 10};
      const Datatype d = int64_type();
      win.lock(LockType::exclusive, 1);
      win.accumulate(src.data(), 4, d, 1, 0, 4, d, Op::replace);
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) { EXPECT_EQ(mem[3], 10); }
    win.free();
  });
}

TEST(WinTest, TypedPutScattersWithTargetDatatype) {
  run(2, Platform::ideal, [] {
    std::vector<double> mem(24, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      // Contiguous origin -> strided target (every other double).
      std::vector<double> src{1, 2, 3, 4};
      Datatype tt = Datatype::vector(4, 1, 2, double_type());
      win.lock(LockType::exclusive, 1);
      win.put(src.data(), 4, double_type(), 1, 0, 1, tt);
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) {
      EXPECT_DOUBLE_EQ(mem[0], 1.0);
      EXPECT_DOUBLE_EQ(mem[2], 2.0);
      EXPECT_DOUBLE_EQ(mem[4], 3.0);
      EXPECT_DOUBLE_EQ(mem[6], 4.0);
      EXPECT_DOUBLE_EQ(mem[1], 0.0);
    }
    win.free();
  });
}

TEST(WinTest, PutBelowWindowBaseThrowsAndLeavesGuardBytes) {
  run(2, Platform::ideal, [] {
    // 16 guard words, a 32-word window, 16 guard words.
    std::vector<std::int32_t> mem(64, -1);
    std::fill(mem.begin() + 16, mem.begin() + 48, 0);
    Win win = Win::create(mem.data() + 16, 32 * sizeof(std::int32_t), world());
    world().barrier();
    if (rank() == 0) {
      // 3 blocks of 2 words at byte offsets 0, -32 and -64: at
      // displacement 0 two of them fall below the window's base.
      const Datatype down = Datatype::hvector(3, 2, -32, int32_type());
      std::vector<std::int32_t> src{1, 2, 3, 4, 5, 6};
      win.lock(LockType::exclusive, 1);
      try {
        win.put(src.data(), 6, int32_type(), 1, 0, 1, down);
        ADD_FAILURE() << "expected window_bounds";
      } catch (const MpiError& e) {
        EXPECT_EQ(e.code(), Errc::window_bounds);
      }
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) {
      for (std::size_t i = 0; i < mem.size(); ++i)
        EXPECT_EQ(mem[i], i < 16 || i >= 48 ? -1 : 0) << "word " << i;
    }
    win.free();
  });
}

TEST(WinTest, NegativeStridePutLandsAboveItsLowerBound) {
  run(2, Platform::ideal, [] {
    std::vector<std::int32_t> mem(32, 0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(std::int32_t),
                          world());
    world().barrier();
    if (rank() == 0) {
      // Blocks at byte offsets 120, 88 and 56: the access ends exactly at
      // the window's end although disp + extent (120 + 72) is past it.
      const Datatype down = Datatype::hvector(3, 2, -32, int32_type());
      std::vector<std::int32_t> src{1, 2, 3, 4, 5, 6};
      win.lock(LockType::exclusive, 1);
      win.put(src.data(), 6, int32_type(), 1, 120, 1, down);
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) {
      std::vector<std::int32_t> want(32, 0);
      want[30] = 1;
      want[31] = 2;
      want[22] = 3;
      want[23] = 4;
      want[14] = 5;
      want[15] = 6;
      EXPECT_EQ(mem, want);
    }
    win.free();
  });
}

TEST(WinTest, SubarrayBothSidesTransposePatch) {
  run(2, Platform::ideal, [] {
    // Target holds an 8x8 row-major matrix; write a 3x4 patch at (2,1)
    // from a 3x4 patch at (0,2) of a local 4x8 matrix.
    std::vector<double> mem(64, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<double> local(32);
      std::iota(local.begin(), local.end(), 0.0);
      const std::size_t lsz[] = {4, 8}, lsub[] = {3, 4}, lst[] = {0, 2};
      const std::size_t tsz[] = {8, 8}, tsub[] = {3, 4}, tst[] = {2, 1};
      Datatype ot = Datatype::subarray(lsz, lsub, lst, double_type());
      Datatype tt = Datatype::subarray(tsz, tsub, tst, double_type());
      win.lock(LockType::exclusive, 1);
      win.put(local.data(), 1, ot, 1, 0, 1, tt);
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) {
      for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 4; ++j)
          EXPECT_DOUBLE_EQ(mem[(i + 2) * 8 + (j + 1)],
                           static_cast<double>(i * 8 + j + 2));
      EXPECT_DOUBLE_EQ(mem[0], 0.0);
      EXPECT_DOUBLE_EQ(mem[2 * 8 + 0], 0.0);
    }
    win.free();
  });
}

TEST(WinSemanticsTest, OpOutsideEpochThrows) {
  EXPECT_THROW(run(2, Platform::ideal,
                   [] {
                     std::vector<double> mem(4);
                     Win win = Win::create(mem.data(), 32, world());
                     if (rank() == 0) {
                       double v = 1.0;
                       win.put(&v, sizeof v, 1, 0);  // no lock held
                     }
                     world().barrier();
                     win.free();
                   }),
               MpiError);
}

TEST(WinSemanticsTest, DoubleLockSameWindowThrows) {
  try {
    run(3, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) {
        win.lock(LockType::exclusive, 1);
        win.lock(LockType::exclusive, 2);  // second lock, same window
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::double_lock);
  }
}

TEST(WinSemanticsTest, UnlockWithoutLockThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) win.unlock(1);
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::not_locked);
  }
}

TEST(WinSemanticsTest, OutOfBoundsAccessThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) {
        double v[2] = {1, 2};
        win.lock(LockType::exclusive, 1);
        win.put(v, sizeof v, 1, 24);  // [24, 40) exceeds 32
        win.unlock(1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::window_bounds);
  }
}

TEST(WinSemanticsTest, ConflictingPutPutInEpochThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(8);
      Win win = Win::create(mem.data(), 64, world());
      if (rank() == 0) {
        double v[4] = {1, 2, 3, 4};
        win.lock(LockType::exclusive, 1);
        win.put(v, 16, 1, 0);
        win.put(v, 16, 1, 8);  // overlaps [8, 16)
        win.unlock(1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict);
  }
}

TEST(WinSemanticsTest, PutGetOverlapInEpochThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(8);
      Win win = Win::create(mem.data(), 64, world());
      if (rank() == 0) {
        double v[2] = {1, 2};
        double d[2];
        win.lock(LockType::exclusive, 1);
        win.put(v, 16, 1, 0);
        win.get(d, 16, 1, 8);  // reads bytes the put wrote
        win.unlock(1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict);
  }
}

TEST(WinSemanticsTest, DisjointOpsInEpochAreLegal) {
  run(2, Platform::ideal, [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), 64, world());
    world().barrier();
    if (rank() == 0) {
      double a = 1.0, b = 2.0, c;
      win.lock(LockType::exclusive, 1);
      win.put(&a, 8, 1, 0);
      win.put(&b, 8, 1, 8);
      win.get(&c, 8, 1, 16);
      win.unlock(1);
    }
    world().barrier();
    win.free();
  });
}

TEST(WinSemanticsTest, SameOpAccumulateOverlapIsLegal) {
  run(2, Platform::ideal, [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    if (rank() == 0) {
      double v[4] = {1, 1, 1, 1};
      const Datatype d = double_type();
      win.lock(LockType::exclusive, 1);
      win.accumulate(v, 4, d, 1, 0, 4, d, Op::sum);
      win.accumulate(v, 4, d, 1, 0, 4, d, Op::sum);  // overlapping, same op
      win.unlock(1);
    }
    world().barrier();
    if (rank() == 1) { EXPECT_DOUBLE_EQ(mem[0], 2.0); }
    win.free();
  });
}

TEST(WinSemanticsTest, DifferentOpAccumulateOverlapThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(4, 0.0);
      Win win = Win::create(mem.data(), 32, world());
      if (rank() == 0) {
        double v[4] = {1, 1, 1, 1};
        const Datatype d = double_type();
        win.lock(LockType::exclusive, 1);
        win.accumulate(v, 4, d, 1, 0, 4, d, Op::sum);
        win.accumulate(v, 4, d, 1, 0, 4, d, Op::prod);
        win.unlock(1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict);
  }
}

TEST(WinSemanticsTest, ConcurrentSharedAccumulatesSameOpSum) {
  run(8, Platform::ideal, [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), 32, world());
    world().barrier();
    // Every rank accumulates into rank 0 under a shared lock.
    double one[4] = {1, 1, 1, 1};
    const Datatype d = double_type();
    win.lock(LockType::shared, 0);
    win.accumulate(one, 4, d, 0, 0, 4, d, Op::sum);
    win.unlock(0);
    world().barrier();
    if (rank() == 0) {
      for (double x : mem) EXPECT_DOUBLE_EQ(x, 8.0);
    }
    win.free();
  });
}

TEST(WinSemanticsTest, ExclusiveLocksSerializeConflictingWriters) {
  run(8, Platform::ideal, [] {
    std::vector<std::int64_t> mem(1, 0);
    Win win = Win::create(mem.data(), sizeof(std::int64_t), world());
    world().barrier();
    // Conflicting put+get to the same location from many ranks: legal only
    // because each runs under its own exclusive epoch.
    for (int iter = 0; iter < 20; ++iter) {
      std::int64_t v = 0;
      win.lock(LockType::exclusive, 0);
      win.get(&v, sizeof v, 0, 0);
      win.unlock(0);
      ++v;
      win.lock(LockType::exclusive, 0);
      win.put(&v, sizeof v, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    // Lost updates are expected (read-modify-write is not atomic), but the
    // final value must be within [20, 160] and memory must not be torn.
    if (rank() == 0) {
      EXPECT_GE(mem[0], 20);
      EXPECT_LE(mem[0], 160);
    }
    win.free();
  });
}

TEST(WinSemanticsTest, TypeSizeMismatchThrows) {
  try {
    run(2, Platform::ideal, [] {
      std::vector<double> mem(8);
      Win win = Win::create(mem.data(), 64, world());
      if (rank() == 0) {
        double v[2] = {1, 2};
        win.lock(LockType::exclusive, 1);
        win.put(v, 2, double_type(), 1, 0, 3, double_type());
        win.unlock(1);
      }
      world().barrier();
    });
    FAIL() << "expected MpiError";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::type_mismatch);
  }
}

TEST(WinTimeTest, ExclusiveEpochsAccrueVirtualTime) {
  run(2, Platform::infiniband, [] {
    std::vector<double> mem(1 << 16, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<double> src(1 << 16, 1.0);
      const double before = clock().now_ns();
      win.lock(LockType::exclusive, 1);
      win.put(src.data(), src.size() * sizeof(double), 1, 0);
      win.unlock(1);
      const double elapsed = clock().now_ns() - before;
      // 512 KiB at ~2.8 GiB/s plus overheads: at least 150 us.
      EXPECT_GT(elapsed, 150000.0);
      EXPECT_LT(elapsed, 10e6);
    }
    world().barrier();
    win.free();
  });
}

TEST(WinTimeTest, MoreSegmentsCostMoreVirtualTime) {
  run(2, Platform::bluegene_p, [] {
    std::vector<double> mem(4096, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      std::vector<double> src(1024, 1.0);
      win.lock(LockType::exclusive, 1);
      const double t0 = clock().now_ns();
      win.put(src.data(), src.size() * sizeof(double), 1, 0);
      const double contig = clock().now_ns() - t0;
      win.unlock(1);

      Datatype strided = Datatype::vector(512, 1, 2, double_type());
      win.lock(LockType::exclusive, 1);
      const double t1 = clock().now_ns();
      win.put(src.data(), 512, double_type(), 1, 0, 1, strided);
      const double noncontig = clock().now_ns() - t1;
      win.unlock(1);
      EXPECT_GT(noncontig, contig);
    }
    world().barrier();
    win.free();
  });
}

TEST(WinTest, MultipleWindowsCoexist) {
  run(2, Platform::ideal, [] {
    std::vector<double> a(4, 0.0), b(4, 0.0);
    Win wa = Win::create(a.data(), 32, world());
    Win wb = Win::create(b.data(), 32, world());
    world().barrier();
    if (rank() == 0) {
      double va = 1.0, vb = 2.0;
      wa.lock(LockType::exclusive, 1);
      wa.put(&va, 8, 1, 0);
      wa.unlock(1);
      wb.lock(LockType::exclusive, 1);
      wb.put(&vb, 8, 1, 0);
      wb.unlock(1);
    }
    world().barrier();
    if (rank() == 1) {
      EXPECT_DOUBLE_EQ(a[0], 1.0);
      EXPECT_DOUBLE_EQ(b[0], 2.0);
    }
    wa.free();
    wb.free();
  });
}

TEST(WinTest, WindowOnSubcommunicator) {
  run(4, Platform::ideal, [] {
    Comm sub = world().split(rank() % 2, rank());
    std::vector<double> mem(4, static_cast<double>(rank()));
    Win win = Win::create(mem.data(), 32, sub);
    sub.barrier();
    if (sub.rank() == 0) {
      double v = -1.0;
      win.lock(LockType::exclusive, 1);
      win.get(&v, 8, 1, 0);
      win.unlock(1);
      EXPECT_DOUBLE_EQ(v, static_cast<double>(rank() + 2));
    }
    sub.barrier();
    win.free();
  });
}

// A rank that fails before a collective construction while its peers wait
// inside it: the run rethrows that rank's own error, and nothing was built
// that could leak.
TEST(WinTest, FailureBeforeCollectiveCreationRethrowsThatError) {
  enum class Ctor { create, allocate_shared };
  for (const Ctor which : {Ctor::create, Ctor::allocate_shared}) {
    try {
      run(3, Platform::ideal, [which] {
        if (rank() == 1) throw std::runtime_error("rank 1 failed first");
        std::vector<char> mem(64);
        switch (which) {
          case Ctor::create:
            Win::create(mem.data(), mem.size(), world());
            break;
          case Ctor::allocate_shared:
            Win::allocate_shared(mem.size(), world());
            break;
        }
        ADD_FAILURE() << "construction completed without rank 1";
      });
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "rank 1 failed first");
    }
  }
}

}  // namespace
}  // namespace mpisim
