// Tests for the cooperative progress engine (Options::progress, nb.hpp
// progress_tick): completion levels, explicit armci::progress() pokes,
// virtual-time ticks from SimClock::advance_compute, test()/on_complete()
// request probing, the overlap gauges, and the MPISIM_PROGRESS override.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/metrics.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {
namespace {

using mpisim::Platform;

/// One rank per node so every transfer takes the deferring remote path
/// (the shared-memory fast path would bypass the nb queues entirely).
mpisim::Config remote_cfg(int nranks,
                          Platform platform = Platform::ideal) {
  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = platform;
  cfg.ranks_per_node = 1;
  return cfg;
}

Options engine_opts(Backend backend) {
  Options o;
  o.backend = backend;
  o.progress = true;
  return o;
}

char* slice(std::vector<void*>& bases, int r, std::size_t off = 0) {
  return static_cast<char*>(bases[static_cast<std::size_t>(r)]) + off;
}

void fill_mine(std::vector<void*>& bases, std::size_t bytes,
               std::uint8_t seed) {
  auto* p = static_cast<std::uint8_t*>(
      bases[static_cast<std::size_t>(mpisim::rank())]);
  for (std::size_t i = 0; i < bytes; ++i)
    p[i] = static_cast<std::uint8_t>(seed + i * 13);
}

void expect_pattern(const std::uint8_t* p, std::size_t bytes,
                    std::uint8_t seed) {
  for (std::size_t i = 0; i < bytes; ++i)
    ASSERT_EQ(p[i], static_cast<std::uint8_t>(seed + i * 13)) << "i=" << i;
}

/// Save/clear/restore MPISIM_PROGRESS around a test body, so the suite
/// behaves the same under the CI leg that exports MPISIM_PROGRESS=on.
class ScopedProgressEnv {
 public:
  explicit ScopedProgressEnv(const char* value) {
    const char* old = std::getenv("MPISIM_PROGRESS");
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value)
      ::setenv("MPISIM_PROGRESS", value, 1);
    else
      ::unsetenv("MPISIM_PROGRESS");
  }
  ~ScopedProgressEnv() {
    if (had_)
      ::setenv("MPISIM_PROGRESS", saved_.c_str(), 1);
    else
      ::unsetenv("MPISIM_PROGRESS");
  }

 private:
  bool had_ = false;
  std::string saved_;
};

// ---------------------------------------------------------------------------
// Completion levels (source vs operation)
// ---------------------------------------------------------------------------

// On the split-completion mpi3 backend a deferred get becomes
// source-complete at the issue tick (buffers reusable) but
// operation-complete only after the target flush on the next tick.
// on_complete at source level must fire a full tick before operation level.
TEST(ArmciProgressTest, GetSplitsSourceAndOperationCompletionOnMpi3) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi3));
    constexpr std::size_t kBytes = 256;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, 5);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes, 0);
      Request req = nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      EXPECT_FALSE(req.test());  // deferred, nothing issued yet

      // One interval of compute -> exactly one tick: the batch issues.
      mpisim::clock().advance_compute(15'000.0);
      bool src_done = false, op_done = false;
      on_complete(req, Completion::source, [&](std::exception_ptr err) {
        EXPECT_EQ(err, nullptr);
        src_done = true;
      });
      on_complete(req, Completion::operation, [&](std::exception_ptr err) {
        EXPECT_EQ(err, nullptr);
        op_done = true;
      });
      EXPECT_TRUE(src_done);   // satisfied at registration: fired inline
      EXPECT_FALSE(op_done);   // get still in flight at the target
      EXPECT_FALSE(req.test());

      // Next tick completes the target flush and runs the callback.
      mpisim::clock().advance_compute(15'000.0);
      EXPECT_TRUE(op_done);
      EXPECT_TRUE(req.test());
      expect_pattern(dst.data(), kBytes, 5);
      EXPECT_GE(stats().progress_ticks, 2u);
      EXPECT_GE(stats().progress_retires, 1u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Put-only batches need no target flush on mpi3 (issue_queue semantics:
// only gets force one), so a single poke issues AND retires them.
TEST(ArmciProgressTest, PutOnlyBatchRetiresAtIssueOnMpi3) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi3));
    constexpr std::size_t kBytes = 128;
    std::vector<void*> bases = malloc_world(kBytes);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> src(kBytes);
      for (std::size_t i = 0; i < kBytes; ++i)
        src[i] = static_cast<std::uint8_t>(i * 13 + 9);
      Request req = nb_put(src.data(), slice(bases, 1), kBytes, 1);
      EXPECT_FALSE(req.test());
      progress();  // one poke: issue == operation completion for puts
      EXPECT_TRUE(req.test());
      EXPECT_TRUE(test(req, Completion::operation));
      EXPECT_GE(stats().progress_retires, 1u);
    }
    barrier();
    if (mpisim::rank() == 1)
      expect_pattern(static_cast<const std::uint8_t*>(bases[1]), kBytes, 9);
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// A tick left the first get's target flush pending when a second get
// joins the same queue: the wait issues the new batch and completes both
// with one window flush.
TEST(ArmciProgressTest, WaitAfterPendingTickFlushesOnceOnMpi3) {
  mpisim::run(remote_cfg(2), [] {
    Options o = engine_opts(Backend::mpi3);
    o.trace = true;  // WinStats (flush counters) record only under tracing
    init(o);
    constexpr std::size_t kBytes = 256;
    std::vector<void*> bases = malloc_world(2 * kBytes);
    fill_mine(bases, 2 * kBytes, 17);
    barrier();
    if (mpisim::rank() == 0) {
      const auto flushes = [] {
        std::uint64_t n = 0;
        for (const auto& [id, ws] : mpisim::tracer().win_stats())
          n += ws.flushes;
        return n;
      };
      std::vector<std::uint8_t> dst(2 * kBytes, 0);
      nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      progress();  // issues the first get; its target flush stays pending
      Request req =
          nb_get(slice(bases, 1, kBytes), dst.data() + kBytes, kBytes, 1);
      const std::uint64_t before = flushes();
      wait(req);
      EXPECT_EQ(flushes() - before, 1u);
      expect_pattern(dst.data(), 2 * kBytes, 17);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// The mpi (MPI-2) backend has no split completion: issue_queue runs the
// whole exclusive epoch, so one poke operation-completes even a get.
TEST(ArmciProgressTest, MpiBackendCompletesGetInOnePoke) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi));
    constexpr std::size_t kBytes = 256;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, 21);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes, 0);
      Request req = nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      EXPECT_FALSE(req.test());
      progress();
      EXPECT_TRUE(req.test());
      expect_pattern(dst.data(), kBytes, 21);
      EXPECT_GE(stats().progress_retires, 1u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// test() polling and merged handles
// ---------------------------------------------------------------------------

// ARMCI_Test-style poll loop: each test() pokes the engine, so the loop
// terminates without any wait()/flush call ever running.
TEST(ArmciProgressTest, TestPollLoopDrivesCompletion) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi3));
    constexpr std::size_t kBytes = 512;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, 33);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes, 0);
      Request req = nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      int polls = 0;
      while (!test(req)) {
        ++polls;
        ASSERT_LT(polls, 64) << "test() never completed the request";
      }
      EXPECT_GE(polls, 1);  // a get takes at least issue + complete
      expect_pattern(dst.data(), kBytes, 33);
      EXPECT_GE(stats().progress_ticks, 2u);
      EXPECT_GE(stats().progress_retires, 1u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// A merged multi-owner request holds tickets on several queues; test()
// reports true only once every owner's queue has drained.
TEST(ArmciProgressTest, MergedMultiOwnerRequestCompletes) {
  mpisim::run(remote_cfg(3), [] {
    init(engine_opts(Backend::mpi3));
    constexpr std::size_t kBytes = 128;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, static_cast<std::uint8_t>(mpisim::rank() * 40));
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> d1(kBytes, 0), d2(kBytes, 0);
      Request req = nb_get(slice(bases, 1), d1.data(), kBytes, 1);
      req.merge(nb_get(slice(bases, 2), d2.data(), kBytes, 2));
      EXPECT_FALSE(req.test());
      int polls = 0;
      while (!test(req)) ASSERT_LT(++polls, 64);
      expect_pattern(d1.data(), kBytes, 40);
      expect_pattern(d2.data(), kBytes, 80);
      EXPECT_GE(stats().progress_retires, 2u);  // one per owner queue
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Born-complete handles: an empty Request tests true at every level and
// fires on_complete synchronously -- queues for its tickets need not exist.
TEST(ArmciProgressTest, EmptyRequestIsBornComplete) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi3));
    Request req;
    EXPECT_TRUE(test(req, Completion::source));
    EXPECT_TRUE(test(req, Completion::operation));
    bool fired = false;
    on_complete(req, [&](std::exception_ptr err) {
      EXPECT_EQ(err, nullptr);
      fired = true;
    });
    EXPECT_TRUE(fired);
    finalize();
  });
}

// A request whose queue already drained through a blocking completion
// point stays testable after the queue state was retired.
TEST(ArmciProgressTest, TestAfterWaitIsTrueWithoutQueues) {
  mpisim::run(remote_cfg(2), [] {
    init(engine_opts(Backend::mpi3));
    constexpr std::size_t kBytes = 64;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, 11);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes, 0);
      Request req = nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      wait(req);
      EXPECT_TRUE(test(req, Completion::source));
      EXPECT_TRUE(test(req));
      expect_pattern(dst.data(), kBytes, 11);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Overlap accounting and the metrics export
// ---------------------------------------------------------------------------

// Ticks that fire under modeled compute hide their communication time:
// after an overlapped round the gauges show comm > 0, hidden > 0,
// efficiency in (0, 1], and the armci-metrics-v1 export carries them.
TEST(ArmciProgressTest, OverlapGaugesMeasureHiddenCommunication) {
  mpisim::run(remote_cfg(2, Platform::infiniband), [] {
    Options o = engine_opts(Backend::mpi3);
    o.metrics = true;
    o.trace = true;  // the ticks must land on the trace timeline too
    init(o);
    constexpr std::size_t kBytes = 4096, kDepth = 8;
    std::vector<void*> bases = malloc_world(kBytes * kDepth);
    std::memset(bases[static_cast<std::size_t>(mpisim::rank())], 7,
                kBytes * kDepth);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes * kDepth, 0);
      auto round = [&] {
        Request req;
        for (std::size_t i = 0; i < kDepth; ++i)
          req.merge(nb_get(slice(bases, 1, i * kBytes),
                           dst.data() + i * kBytes, kBytes, 1));
        mpisim::clock().advance_compute(100'000.0);  // 10 tick intervals
        wait(req);
      };
      round();  // warm-up
      reset_stats();
      EXPECT_EQ(stats().overlap_comm_ns, 0.0);  // baseline re-anchored
      round();
      const Stats& s = stats();
      EXPECT_GT(s.progress_ticks, 0u);
      EXPECT_GT(s.overlap_comm_ns, 0.0);
      EXPECT_GT(s.overlap_hidden_ns, 0.0);
      EXPECT_GT(s.overlap_efficiency(), 0.0);
      EXPECT_LE(s.overlap_efficiency(), 1.0);
      const std::string json = metrics_json();
      EXPECT_NE(json.find("\"progress\":{\"enabled\":true"),
                std::string::npos)
          << json;
      EXPECT_NE(json.find("\"overlap_efficiency\":"), std::string::npos);
      bool saw_tick = false, saw_retire = false;
      for (const mpisim::TraceEvent& ev : mpisim::tracer().events()) {
        if (std::string(ev.name) == "progress.tick") saw_tick = true;
        if (std::string(ev.name) == "progress.retire") saw_retire = true;
      }
      EXPECT_TRUE(saw_tick) << "no progress.tick trace events";
      EXPECT_TRUE(saw_retire) << "no progress.retire trace events";
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Enablement: Options::progress default and the MPISIM_PROGRESS override
// ---------------------------------------------------------------------------

// Engine off (the default): compute never ticks, explicit pokes are no-ops,
// and completion still happens entirely inside wait().
TEST(ArmciProgressTest, EngineOffByDefaultNeverTicks) {
  ScopedProgressEnv env(nullptr);  // neutralize a CI-exported MPISIM_PROGRESS
  mpisim::run(remote_cfg(2), [] {
    init(Options{});
    constexpr std::size_t kBytes = 128;
    std::vector<void*> bases = malloc_world(kBytes);
    fill_mine(bases, kBytes, 17);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> dst(kBytes, 0);
      Request req = nb_get(slice(bases, 1), dst.data(), kBytes, 1);
      mpisim::clock().advance_compute(100'000.0);
      progress();  // no-op with the engine off
      EXPECT_FALSE(req.test());
      wait(req);
      expect_pattern(dst.data(), kBytes, 17);
      EXPECT_EQ(stats().progress_ticks, 0u);
      EXPECT_EQ(stats().progress_retires, 0u);
      EXPECT_EQ(stats().overlap_comm_ns, 0.0);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// MPISIM_PROGRESS=off wins over Options::progress=true (same precedence
// convention as MPISIM_RMA_CHECK), and =on enables it with default opts.
TEST(ArmciProgressTest, EnvOverridesOptions) {
  {
    ScopedProgressEnv env("off");
    mpisim::run(remote_cfg(2), [] {
      init(engine_opts(Backend::mpi3));
      std::vector<void*> bases = malloc_world(64);
      barrier();
      if (mpisim::rank() == 0) {
        char src[64] = {1};
        Request req = nb_put(src, slice(bases, 1), sizeof src, 1);
        progress();
        EXPECT_FALSE(req.test());  // engine forced off: poke did nothing
        wait(req);
      }
      barrier();
      EXPECT_EQ(stats().progress_ticks, 0u);
      free(bases[static_cast<std::size_t>(mpisim::rank())]);
      finalize();
    });
  }
  {
    ScopedProgressEnv env("on");
    mpisim::run(remote_cfg(2), [] {
      init(Options{});  // progress defaults false; env forces it on
      std::vector<void*> bases = malloc_world(64);
      barrier();
      if (mpisim::rank() == 0) {
        char src[64] = {2};
        Request req = nb_put(src, slice(bases, 1), sizeof src, 1);
        progress();
        EXPECT_TRUE(req.test());
        EXPECT_GE(stats().progress_ticks, 1u);
      }
      barrier();
      free(bases[static_cast<std::size_t>(mpisim::rank())]);
      finalize();
    });
  }
}

}  // namespace
}  // namespace armci
