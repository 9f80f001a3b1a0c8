// Negative-path tests pinning the error classification: errc_name covers
// every enum value, MpiError::what() carries the class name, and the
// runtime raises the documented Errc for each MPI-2 usage violation.

#include "src/mpisim/error.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/win.hpp"

namespace mpisim {
namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(ErrcNameTest, EveryValueHasAName) {
  EXPECT_STREQ(errc_name(Errc::internal), "internal");
  EXPECT_STREQ(errc_name(Errc::invalid_argument), "invalid_argument");
  EXPECT_STREQ(errc_name(Errc::rank_out_of_range), "rank_out_of_range");
  EXPECT_STREQ(errc_name(Errc::type_mismatch), "type_mismatch");
  EXPECT_STREQ(errc_name(Errc::truncation), "truncation");
  EXPECT_STREQ(errc_name(Errc::window_bounds), "window_bounds");
  EXPECT_STREQ(errc_name(Errc::no_epoch), "no_epoch");
  EXPECT_STREQ(errc_name(Errc::double_lock), "double_lock");
  EXPECT_STREQ(errc_name(Errc::not_locked), "not_locked");
  EXPECT_STREQ(errc_name(Errc::rma_conflict), "rma_conflict");
  EXPECT_STREQ(errc_name(Errc::rma_race), "rma_race");
  EXPECT_STREQ(errc_name(Errc::comm_mismatch), "comm_mismatch");
  EXPECT_STREQ(errc_name(Errc::aborted), "aborted");
  EXPECT_STREQ(errc_name(Errc::wait_timeout), "wait_timeout");
  EXPECT_STREQ(errc_name(Errc::transient), "transient");
  EXPECT_STREQ(errc_name(Errc::crashed), "crashed");
}

TEST(ErrcNameTest, WhatIsPrefixedWithTheClassName) {
  const MpiError e(Errc::no_epoch, "boom");
  EXPECT_STREQ(e.what(), "[no_epoch] boom");
  EXPECT_EQ(e.code(), Errc::no_epoch);
  try {
    raise(Errc::window_bounds, "details here");
    FAIL() << "raise() must throw";
  } catch (const MpiError& r) {
    EXPECT_TRUE(contains(r.what(), "[window_bounds] mpisim: details here"))
        << r.what();
  }
}

/// Run \p body on one ideal-platform rank and return the MpiError it dies
/// with; fails the test if the run succeeds.
template <typename Body>
MpiError expect_run_error(Body&& body) {
  try {
    run(1, Platform::ideal, body);
  } catch (const MpiError& e) {
    return e;
  }
  ADD_FAILURE() << "expected the run to raise MpiError";
  return MpiError(Errc::internal, "run unexpectedly succeeded");
}

TEST(ErrorPathTest, SecondLockOnSameWindowIsDoubleLock) {
  const MpiError e = expect_run_error([] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.lock(LockType::exclusive, 0);
    win.lock(LockType::shared, 0);  // second lock by the same origin
  });
  EXPECT_EQ(e.code(), Errc::double_lock);
  EXPECT_TRUE(contains(e.what(), "[double_lock]")) << e.what();
}

TEST(ErrorPathTest, UnlockWithoutLockIsNotLocked) {
  const MpiError e = expect_run_error([] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.unlock(0);
  });
  EXPECT_EQ(e.code(), Errc::not_locked);
  EXPECT_TRUE(contains(e.what(), "[not_locked]")) << e.what();
}

TEST(ErrorPathTest, RmaOutsideAnEpochIsNoEpoch) {
  const MpiError e = expect_run_error([] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    const double v = 1.0;
    win.put(&v, sizeof v, 0, 0);  // no lock held
  });
  EXPECT_EQ(e.code(), Errc::no_epoch);
  EXPECT_TRUE(contains(e.what(), "[no_epoch]")) << e.what();
}

TEST(ErrorPathTest, AccessPastTheWindowEndIsWindowBounds) {
  const MpiError e = expect_run_error([] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.lock(LockType::exclusive, 0);
    const double v = 1.0;
    win.put(&v, sizeof v, 0, /*target_disp=*/4 * sizeof(double));
  });
  EXPECT_EQ(e.code(), Errc::window_bounds);
  EXPECT_TRUE(contains(e.what(), "[window_bounds]")) << e.what();
}

TEST(ErrorPathTest, PutGetOverlapInOneEpochIsConflictingAccess) {
  const MpiError e = expect_run_error([] {
    std::vector<double> mem(4, 0.0);
    Win win = Win::create(mem.data(), mem.size() * sizeof(double), world());
    win.lock(LockType::exclusive, 0);
    const double v = 1.0;
    double out = 0.0;
    win.put(&v, sizeof v, 0, 0);
    win.get(&out, sizeof out, 0, 0);  // overlaps the put: MPI-2 erroneous
    win.unlock(0);  // epoch completion reports the conflict
  });
  EXPECT_EQ(e.code(), Errc::rma_conflict);
  EXPECT_TRUE(contains(e.what(), "[rma_conflict]")) << e.what();
}

TEST(ErrorPathTest, UndersizedReceiveBufferIsTruncation) {
  try {
    run(2, Platform::ideal, [] {
      if (rank() == 0) {
        const std::int64_t big = 42;
        world().send(&big, sizeof big, 1, 0);
      } else {
        std::int32_t small = 0;
        world().recv(&small, sizeof small, 0, 0);
      }
    });
    FAIL() << "expected truncation";
  } catch (const MpiError& e) {
    EXPECT_EQ(e.code(), Errc::truncation);
    EXPECT_TRUE(contains(e.what(), "[truncation]")) << e.what();
  }
}

}  // namespace
}  // namespace mpisim
