// Negative-path suite for the RMA validity checker (src/mpisim/checker.hpp):
// each MPI-2 conflict class must be detected and classified, abort mode must
// raise Errc::rma_conflict at the epoch boundary, warn mode must count and
// complete, off must record nothing, and the lock-state fixes must raise
// classified errors instead of indexing out of range.

#include "src/mpisim/checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/mpisim/datatype.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

/// abort is the default checker mode.
Config abort_cfg(int nranks) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.platform = Platform::ideal;
  return cfg;
}

/// Sets MPISIM_RMA_CHECK for one test and restores the previous value on
/// exit (CI legs run the whole suite with it set).
class ScopedRmaCheckEnv {
 public:
  explicit ScopedRmaCheckEnv(const char* value) {
    if (const char* old = std::getenv("MPISIM_RMA_CHECK")) saved_ = old;
    setenv("MPISIM_RMA_CHECK", value, 1);
  }
  ~ScopedRmaCheckEnv() {
    if (saved_)
      setenv("MPISIM_RMA_CHECK", saved_->c_str(), 1);
    else
      unsetenv("MPISIM_RMA_CHECK");
  }
  ScopedRmaCheckEnv(const ScopedRmaCheckEnv&) = delete;
  ScopedRmaCheckEnv& operator=(const ScopedRmaCheckEnv&) = delete;

 private:
  std::optional<std::string> saved_;
};

RmaCheckCounts my_counts() { return ctx().core().checker().counts(rank()); }

/// Expects \p fn to raise Errc::rma_conflict and returns the message.
template <typename Fn>
std::string expect_conflict(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::rma_conflict) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected Errc::rma_conflict";
  return {};
}

TEST(CheckerTest, SharedLockPutPutOverlapAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.put(src, sizeof src, 0, sizeof(double));  // overlaps [8, 16)
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);  // epoch record already retired; releases the lock
      EXPECT_EQ(my_counts().concurrent, 1u);
    } else {
      win.unlock(0);
      EXPECT_EQ(my_counts().total(), 0u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, SharedLockPutGetOverlapAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    double buf[2] = {0.0, 0.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(buf, sizeof buf, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.get(buf, sizeof buf, 0, 0);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().concurrent, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, AccumulateMixedWithPutAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0) win.put(src, sizeof src, 0, 0);
    world().barrier();
    if (rank() == 1) {
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().acc_mix, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, DifferentOpAccumulatesAbort) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 1.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    if (rank() == 0)
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
    world().barrier();
    if (rank() == 1) {
      win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::prod);
      expect_conflict([&] { win.unlock(0); });
      win.unlock(0);
      EXPECT_EQ(my_counts().acc_mix, 1u);
    } else {
      win.unlock(0);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, SameOpAccumulatesAreClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();
    win.accumulate(src, 2, double_type(), 0, 0, 2, double_type(), Op::sum);
    world().barrier();
    win.unlock(0);
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    if (rank() == 0) {
      EXPECT_DOUBLE_EQ(mem[0], 2.0);
      EXPECT_DOUBLE_EQ(mem[1], 4.0);
    }
    win.free();
  });
}

/// Ranks 1 and 2 each apply one accumulate-class operation to the same 8
/// bytes of rank 0 in concurrent shared epochs: fetch_and_op(\p fop) and
/// accumulate(\p aop), the fetch first when \p fetch_first. Returns the
/// acc_mix conflicts counted over all ranks.
std::uint64_t mixed_acc_conflicts(Op fop, Op aop, bool fetch_first) {
  const ScopedRmaCheckEnv env("abort");  // the MPI-2 checker on every CI leg
  std::uint64_t mixes = 0;
  run(abort_cfg(3), [&] {
    std::int64_t mem = 0;
    Win win = Win::create(&mem, sizeof mem, world());
    const std::int64_t one = 1;
    std::int64_t old = 0;
    win.lock(LockType::shared, 0);
    for (int turn = 1; turn <= 2; ++turn) {
      world().barrier();
      if (rank() != turn) continue;
      if ((turn == 1) == fetch_first)
        win.fetch_and_op(&one, &old, BasicType::int64, 0, 0, fop);
      else
        win.accumulate(&one, 1, int64_type(), 0, 0, 1, int64_type(), aop);
    }
    world().barrier();
    try {
      win.unlock(0);
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rma_conflict) << e.what();
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 0) mixes = ctx().core().checker().total_counts().acc_mix;
    win.free();
  });
  return mixes;
}

// MPI-3 same_op_no_op: no_op mixes with any accumulate operator, whichever
// of the two operations is recorded first.
TEST(CheckerTest, NoOpMixesWithAnyAccumulateInEitherOrder) {
  for (const bool fetch_first : {true, false})
    EXPECT_EQ(mixed_acc_conflicts(Op::no_op, Op::sum, fetch_first), 0u)
        << "fetch_and_op(no_op) first: " << fetch_first;
}

TEST(CheckerTest, DifferentOpAccumulatesConflictInEitherOrder) {
  for (const bool fetch_first : {true, false})
    EXPECT_EQ(mixed_acc_conflicts(Op::max, Op::sum, fetch_first), 1u)
        << "fetch_and_op(max) first: " << fetch_first;
}

TEST(CheckerTest, SameOriginOverlappingPutsAbort) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, sizeof(double));
      expect_conflict([&] { win.unlock(1); });
      win.unlock(1);
      EXPECT_EQ(my_counts().same_origin, 1u);
    }
    world().barrier();
    win.free();
  });
}

// One operation whose target datatype writes the same bytes twice conflicts
// with itself: the checker records an operation's segments one by one and
// checks each against those recorded before it.
TEST(CheckerTest, DatatypeWritingSameBytesTwiceAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      const std::size_t blocklens[2] = {sizeof(double), sizeof(double)};
      const std::ptrdiff_t displs[2] = {8, 8};  // both blocks: bytes [8, 16)
      const Datatype twice = Datatype::hindexed(blocklens, displs, byte_type());
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, byte_type(), 1, 0, 1, twice);
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("recorded earlier in the same epoch"),
                std::string::npos)
          << msg;
      win.unlock(1);
      EXPECT_EQ(my_counts().same_origin, 1u);
      EXPECT_EQ(my_counts().total(), 1u);
    }
    world().barrier();
    win.free();
  });
}

// The checker visits an operation's segments in offset order, whatever
// order its datatype lists them in (a gather's or an IOV's come in the
// caller's order): a repeated block that is not next to its twin still
// conflicts, and shuffled disjoint blocks leave exact coverage behind.
TEST(CheckerTest, OutOfOrderDatatypeSegmentsAreCheckedInOffsetOrder) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[4] = {1.0, 2.0, 3.0, 4.0};
      const std::size_t blocklens[4] = {8, 8, 8, 8};
      // Bytes [8, 16) twice, with another block between the two.
      const std::ptrdiff_t twice_displs[4] = {40, 8, 24, 8};
      const Datatype twice =
          Datatype::hindexed(blocklens, twice_displs, byte_type());
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, byte_type(), 1, 0, 1, twice);
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("put on bytes [8, 16)"), std::string::npos) << msg;
      win.unlock(1);
      EXPECT_EQ(my_counts().same_origin, 1u);

      // Disjoint blocks in shuffled order: clean, and the epoch then holds
      // exactly [0, 8), [16, 24), [32, 40) and [48, 56).
      const std::ptrdiff_t shuffled_displs[4] = {48, 0, 32, 16};
      const Datatype shuffled =
          Datatype::hindexed(blocklens, shuffled_displs, byte_type());
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, byte_type(), 1, 0, 1, shuffled);
      win.put(src, 8, 1, 8);    // a gap: clean
      win.put(src, 8, 1, 56);   // the gap above the last block: clean
      double buf = 0.0;
      win.get(&buf, 8, 1, 32);  // a recorded block: conflicts
      const std::string msg2 = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg2.find("get on bytes [32, 40)"), std::string::npos)
          << msg2;
      win.unlock(1);
      EXPECT_EQ(my_counts().same_origin, 2u);
      EXPECT_EQ(my_counts().total(), 2u);
    }
    world().barrier();
    win.free();
  });
}

// A conflicting access must be reported even when the other epoch has
// already closed: the closing epoch leaves its access summary ("ghost")
// with every epoch it was concurrent with.
TEST(CheckerTest, ClosedConcurrentEpochStillConflicts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock(LockType::shared, 0);
    world().barrier();  // both shared epochs are open and thus concurrent
    if (rank() == 0) {
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 1) {
      win.put(src, sizeof src, 0, 0);
      const std::string msg = expect_conflict([&] { win.unlock(0); });
      EXPECT_NE(msg.find("closed concurrent epoch"), std::string::npos) << msg;
      win.unlock(0);
      EXPECT_EQ(my_counts().concurrent, 1u);
    }
    world().barrier();
    win.free();
  });
}

// compare_and_swap is accumulate-class (an atomic conditional replace), so a
// put to the same bytes from a concurrent shared epoch mixes accumulate with
// non-accumulate. The put's epoch closes and a barrier orders it before the
// CAS: only the MPI-2 epoch rule is broken, not happens-before.
TEST(CheckerTest, CompareAndSwapMixedWithPutAborts) {
  run(abort_cfg(2), [] {
    std::vector<std::int64_t> mem(4, 0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(std::int64_t),
                          world());
    win.lock(LockType::shared, 0);
    world().barrier();  // both shared epochs are open and thus concurrent
    if (rank() == 0) {
      const std::int64_t v = 7;
      win.put(&v, sizeof v, 0, 0);  // bytes [0, 8)
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 1) {
      const std::int64_t swap = 9;
      const std::int64_t expected = 7;
      std::int64_t prev = 0;
      win.compare_and_swap(&swap, &expected, &prev, BasicType::int64, 0, 0);
      const std::string msg = expect_conflict([&] { win.unlock(0); });
      EXPECT_NE(msg.find("a put to bytes [0, 8)"), std::string::npos) << msg;
      win.unlock(0);
      EXPECT_EQ(my_counts().acc_mix, 1u);
      EXPECT_EQ(my_counts().total(), 1u);
    }
    world().barrier();
    win.free();
  });
}

// Serialized reuse stays legal: once an epoch closes, epochs opened *later*
// on the same bytes never see its ghost.
TEST(CheckerTest, SerializedEpochsOnSameBytesAreClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
    }
    world().barrier();
    if (rank() == 1) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
      win.unlock(0);
      EXPECT_EQ(my_counts().total(), 0u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, LocalStoreDuringExposureAborts) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1) {
      win.lock(LockType::shared, 0);
      win.put(src, sizeof src, 0, 0);
    }
    world().barrier();
    if (rank() == 0) {
      // Direct store into our exposed slice without an exclusive self-epoch.
      win.local_access_begin(mem.data(), 2 * sizeof(double), /*write=*/true);
      mem[0] = 42.0;
      const std::string msg =
          expect_conflict([&] { win.local_access_end(mem.data()); });
      EXPECT_NE(msg.find("direct local store"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
    }
    world().barrier();
    if (rank() == 1) win.unlock(0);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, CoveredLocalAccessIsClean) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    // The ARMCI direct-local-access discipline: take an exclusive self-epoch
    // first, then touch the memory with host instructions.
    win.lock(LockType::exclusive, rank());
    win.local_access_begin(mem.data(), 0, /*write=*/true);
    mem[3] = 7.0;
    win.local_access_end(mem.data());
    win.unlock(rank());
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    win.free();
  });
}

// MPI-3 lock_all epochs follow the MPI-3 memory model: conflicting accesses
// yield undefined values but are not erroneous, so the checker stays silent.
TEST(CheckerTest, LockAllConflictsAreNotFlagged) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    win.lock_all();
    world().barrier();
    win.put(src, sizeof src, 0, 0);  // both ranks write the same bytes
    world().barrier();
    win.unlock_all();
    EXPECT_EQ(my_counts().total(), 0u);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, FlushResetsTrackingUnit) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      double buf[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(buf, sizeof buf, 1, 0);
      win.flush(1);  // orders the put before everything after it
      win.get(buf, sizeof buf, 1, 0);
      win.unlock(1);
      EXPECT_EQ(my_counts().total(), 0u);
      EXPECT_DOUBLE_EQ(buf[0], 1.0);
    }
    world().barrier();
    win.free();
  });
}

// Direction 1: remote RMA already in flight, then a same-node direct access
// touches the same bytes. The shm fast path must be checked like a local
// access: the conflicting store is reported when the access ends,
// classified local.
TEST(CheckerTest, ShmAccessAgainstInFlightRmaAborts) {
  Config cfg = abort_cfg(2);
  cfg.ranks_per_node = 2;  // co-locate both ranks: the shm path is legal
  run(cfg, [] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // in flight: not yet flushed
    }
    world().barrier();
    if (rank() == 1) {
      // Direct store into the bytes the unflushed put targets.
      const std::string msg =
          expect_conflict([&] { win.shm_put(src, sizeof src, 1, 0); });
      EXPECT_NE(msg.find("direct"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
    }
    world().barrier();
    if (rank() == 0) win.unlock(1);
    world().barrier();
    win.free();
  });
}

// Direction 2: a held-open same-node direct access (shm_access_begin), then
// remote RMA lands on the declared bytes. The RMA origin is the violator;
// its epoch close reports the conflict.
TEST(CheckerTest, RmaAgainstOpenShmAccessAborts) {
  Config cfg = abort_cfg(2);
  cfg.ranks_per_node = 2;
  run(cfg, [] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1)
      win.shm_access_begin(1, 0, sizeof src, /*write=*/true);  // own segment
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // lands on the open declaration
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("direct"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
      win.unlock(1);  // record retired; releases the lock
    }
    world().barrier();
    if (rank() == 1) win.shm_access_end(1, 0);
    world().barrier();
    win.free();
  });
}

// The same, after the declaring rank also ran a shm fast-path op on its
// declared bytes: the momentary op is checked and gone, and the held-open
// declaration stays until shm_access_end retires it.
TEST(CheckerTest, ShmOpKeepsOwnOpenShmDeclaration) {
  const ScopedRmaCheckEnv env("abort");  // the MPI-2 checker on every CI leg
  Config cfg = abort_cfg(2);
  cfg.ranks_per_node = 2;
  run(cfg, [] {
    Win win = Win::allocate_shared(8 * sizeof(double), world());
    const double src[2] = {1.0, 2.0};
    if (rank() == 1) {
      win.shm_access_begin(1, 0, sizeof src, /*write=*/true);  // own segment
      win.shm_put(src, sizeof src, 1, 0);  // same rank, same offset
    }
    world().barrier();
    if (rank() == 0) {
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);  // lands on the open declaration
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("direct"), std::string::npos) << msg;
      EXPECT_EQ(my_counts().local, 1u);
      win.unlock(1);  // record retired; releases the lock
    }
    world().barrier();
    if (rank() == 1) win.shm_access_end(1, 0);
    world().barrier();
    if (rank() == 0) {
      // Retired by shm_access_end: the same put is now clean.
      win.lock(LockType::shared, 1);
      win.put(src, sizeof src, 1, 0);
      win.unlock(1);
    }
    world().barrier();
    EXPECT_EQ(ctx().core().checker().total_counts().total(), 1u);
    win.free();
  });
}

TEST(CheckerTest, WarnModeCountsAndCompletes) {
  Config cfg = abort_cfg(2);
  cfg.rma_check = RmaCheck::warn;
  run(cfg, [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, 0);
      win.unlock(1);  // warn mode: prints to stderr, does not raise
      EXPECT_EQ(my_counts().same_origin, 1u);
      EXPECT_EQ(my_counts().total(), 1u);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, DiagnosticNamesOpsAndEpochs) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, 0);
      const std::string msg = expect_conflict([&] { win.unlock(1); });
      EXPECT_NE(msg.find("put"), std::string::npos) << msg;
      EXPECT_NE(msg.find("bytes ["), std::string::npos) << msg;
      EXPECT_NE(msg.find("epoch #"), std::string::npos) << msg;
      EXPECT_NE(msg.find("origin"), std::string::npos) << msg;
      win.unlock(1);
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, CleanExclusiveEpochsZeroCounters) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      double buf[4] = {1.0, 2.0, 3.0, 4.0};
      win.lock(LockType::exclusive, 1);
      win.put(buf, sizeof buf, 1, 0);
      win.unlock(1);
      win.lock(LockType::exclusive, 1);
      win.get(buf, sizeof buf, 1, 0);
      win.unlock(1);
    }
    world().barrier();
    EXPECT_EQ(ctx().core().checker().total_counts().total(), 0u);
    win.free();
  });
}

// ---- Lock-state accounting fixes (previously unchecked index/UB holes) ----

TEST(CheckerTest, UnlockWithoutLockRaisesNotLocked) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.unlock(0);
      ADD_FAILURE() << "expected Errc::not_locked";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::not_locked) << e.what();
    }
    EXPECT_EQ(my_counts().discipline, 1u);
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, UnlockOutOfRangeTargetRaisesRankOutOfRange) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.unlock(5);
      ADD_FAILURE() << "expected Errc::rank_out_of_range";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rank_out_of_range) << e.what();
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, FlushOutOfRangeTargetRaises) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    try {
      win.flush(-3);
      ADD_FAILURE() << "expected Errc::rank_out_of_range";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::rank_out_of_range) << e.what();
    }
    world().barrier();
    win.free();
  });
}

TEST(CheckerTest, LockAllThenLockRaisesDoubleLock) {
  run(abort_cfg(2), [] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.lock_all();
    try {
      win.lock(LockType::exclusive, 0);
      ADD_FAILURE() << "expected Errc::double_lock";
    } catch (const MpiError& e) {
      EXPECT_EQ(e.code(), Errc::double_lock) << e.what();
    }
    EXPECT_EQ(my_counts().discipline, 1u);
    win.unlock_all();
    world().barrier();
    win.free();
  });
}

// The MPISIM_RMA_CHECK environment variable overrides Config::rma_check at
// SimCore construction (the hook the abort-mode CI job uses).
TEST(CheckerTest, EnvVarOverridesConfiguredMode) {
  const ScopedRmaCheckEnv env("off");
  Config cfg = abort_cfg(2);
  run(cfg, [] {
    EXPECT_EQ(ctx().core().checker().mode(), RmaCheck::off);
  });
}

// off turns conflict checking off entirely: a conflicting program completes
// and no violation is counted.
TEST(CheckerTest, OffModeLetsConflictingProgramComplete) {
  const ScopedRmaCheckEnv env("off");
  run(abort_cfg(2), [] {
    std::vector<double> mem(8, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    world().barrier();
    if (rank() == 0) {
      const double src[2] = {1.0, 2.0};
      win.lock(LockType::exclusive, 1);
      win.put(src, sizeof src, 1, 0);
      win.put(src, sizeof src, 1, sizeof(double));  // overlaps [8, 16)
      win.unlock(1);
    }
    world().barrier();
    EXPECT_EQ(my_counts().total(), 0u);
    win.free();
  });
}

TEST(CheckerTest, ViolationAndModeNamesAreStable) {
  EXPECT_STREQ(rma_check_name(RmaCheck::off), "off");
  EXPECT_STREQ(rma_check_name(RmaCheck::warn), "warn");
  EXPECT_STREQ(rma_check_name(RmaCheck::abort), "abort");
  EXPECT_STREQ(rma_violation_name(RmaViolation::same_origin), "same_origin");
  EXPECT_STREQ(rma_violation_name(RmaViolation::concurrent), "concurrent");
  EXPECT_STREQ(rma_violation_name(RmaViolation::acc_mix), "acc_mix");
  EXPECT_STREQ(rma_violation_name(RmaViolation::local), "local");
  EXPECT_STREQ(rma_violation_name(RmaViolation::discipline), "discipline");
}

}  // namespace
}  // namespace mpisim
