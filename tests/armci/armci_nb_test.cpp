// Tests for the nonblocking deferred-op aggregation engine (nb.hpp) and the
// derived-datatype cache (dtype_cache.hpp): epoch coalescing, conflict-forced
// flushes, location-consistency ordering under deferral, wait-ticket
// granularity, completion points, and the eager fallbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <random>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {
namespace {

using mpisim::Platform;

char* slice(std::vector<void*>& bases, int r, std::size_t off = 0) {
  return static_cast<char*>(bases[static_cast<std::size_t>(r)]) + off;
}

/// Sum of exclusive-lock epochs this rank has opened, over every window.
/// WinStats are only recorded when tracing is enabled (Options::trace).
std::uint64_t exclusive_lock_total() {
  std::uint64_t n = 0;
  for (const auto& [id, ws] : mpisim::tracer().win_stats())
    n += ws.exclusive_locks;
  return n;
}

void free_mine(std::vector<void*>& bases) {
  free(bases[static_cast<std::size_t>(mpisim::rank())]);
}

// ---------------------------------------------------------------------------
// Epoch coalescing (the tentpole claim)
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, CoalescesQueueIntoOneEpoch) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.trace = true;  // WinStats (lock counters) record only under tracing
    init(o);
    constexpr std::size_t kSlot = 64, kDepth = 8;
    std::vector<void*> bases = malloc_world(kSlot * kDepth);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> src(kSlot * kDepth);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 7 + 1);

      const std::uint64_t locks0 = exclusive_lock_total();
      for (std::size_t i = 0; i < kDepth; ++i)
        put(src.data() + i * kSlot, slice(bases, 1, i * kSlot), kSlot, 1);
      const std::uint64_t blocking = exclusive_lock_total() - locks0;
      EXPECT_EQ(blocking, kDepth);  // one exclusive epoch per blocking put

      reset_stats();
      const std::uint64_t locks1 = exclusive_lock_total();
      std::vector<Request> reqs(kDepth);
      for (std::size_t i = 0; i < kDepth; ++i)
        reqs[i] = nb_put(src.data() + i * kSlot, slice(bases, 1, i * kSlot),
                         kSlot, 1);
      EXPECT_EQ(exclusive_lock_total(), locks1);  // nothing issued yet
      for (const Request& r : reqs) EXPECT_FALSE(r.test());
      wait_all();
      const std::uint64_t coalesced = exclusive_lock_total() - locks1;
      EXPECT_EQ(coalesced, 1u);  // the whole queue in a single epoch
      EXPECT_GE(blocking, 4 * coalesced);
      for (const Request& r : reqs) EXPECT_TRUE(r.test());
      EXPECT_EQ(stats().nb_ops, kDepth);
      EXPECT_EQ(stats().nb_deferred, kDepth);
      EXPECT_EQ(stats().nb_eager, 0u);
      EXPECT_EQ(stats().nb_conflict_flushes, 0u);
      EXPECT_EQ(stats().flushed_queues, 1u);
      EXPECT_EQ(stats().coalesced_epochs, 1u);

      std::vector<std::uint8_t> back(kSlot * kDepth, 0);
      get(bases[1], back.data(), back.size(), 1);
      EXPECT_EQ(back, src);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Location consistency under deferral
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, ConflictingGetForcesQueueFlush) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(128);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v = 0x1122334455667788;
      nb_put(&v, bases[1], sizeof v, 1);
      std::int64_t back = -1;
      // Overlaps the queued put's remote range: the queue must flush before
      // the get enqueues, so the get observes the put (RAW ordering).
      Request g = nb_get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(stats().nb_conflict_flushes, 1u);
      wait(g);
      EXPECT_EQ(back, v);
      EXPECT_EQ(stats().flushed_queues, 2u);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, BlockingGetSeesDeferredPut) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v = 424242;
      Request r = nb_put(&v, bases[1], sizeof v, 1);
      EXPECT_FALSE(r.test());
      // A blocking op to the same target is a completion point: program
      // order to one process must hold without an explicit wait.
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, v);
      EXPECT_TRUE(r.test());
      EXPECT_EQ(stats().flushed_queues, 1u);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, OverlappingPutsKeepProgramOrder) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v1 = 111, v2 = 222;
      nb_put(&v1, bases[1], sizeof v1, 1);
      nb_put(&v2, bases[1], sizeof v2, 1);  // WAW: forces the first to issue
      EXPECT_EQ(stats().nb_conflict_flushes, 1u);
      wait_all();
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, v2);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, SameTypeAccumulatesCoalesceWithoutConflict) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    if (mpisim::rank() == 1) {
      access_begin(bases[1]);
      std::memset(bases[1], 0, 64);
      access_end(bases[1]);
    }
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t one = 1;
      const std::int64_t inc = 5;
      // Same-operator accumulates to one location may share an epoch (MPI
      // permits overlapping same-op accumulates), so no conflict flush.
      for (int i = 0; i < 4; ++i)
        nb_acc(AccType::int64, &one, &inc, bases[1], sizeof inc, 1);
      EXPECT_EQ(stats().nb_conflict_flushes, 0u);
      wait_all();
      EXPECT_EQ(stats().flushed_queues, 1u);
      EXPECT_EQ(stats().coalesced_epochs, 1u);
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, 20);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Wait-ticket granularity and completion points
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, WaitCompletesOnlyTheCoveredQueue) {
  mpisim::run(3, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t a = 101, b = 202;
      Request r1 = nb_put(&a, bases[1], sizeof a, 1);
      Request r2 = nb_put(&b, bases[2], sizeof b, 2);
      EXPECT_FALSE(r1.test());
      EXPECT_FALSE(r2.test());
      wait(r1);
      EXPECT_TRUE(r1.test());
      EXPECT_FALSE(r2.test());  // the queue to rank 2 stays deferred
      EXPECT_EQ(stats().flushed_queues, 1u);
      wait(r2);
      EXPECT_TRUE(r2.test());
      EXPECT_EQ(stats().flushed_queues, 2u);
    }
    barrier();
    if (mpisim::rank() != 0) {
      access_begin(bases[static_cast<std::size_t>(mpisim::rank())]);
      std::int64_t got = 0;
      std::memcpy(&got, bases[static_cast<std::size_t>(mpisim::rank())],
                  sizeof got);
      EXPECT_EQ(got, mpisim::rank() == 1 ? 101 : 202);
      access_end(bases[static_cast<std::size_t>(mpisim::rank())]);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, WaitProcValidatesTheRank) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    if (mpisim::rank() == 0) {
      try {
        wait_proc(-1);
        ADD_FAILURE() << "wait_proc(-1) did not throw";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rank_out_of_range);
      }
      try {
        wait_proc(mpisim::nranks());
        ADD_FAILURE() << "wait_proc(nranks) did not throw";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), mpisim::Errc::rank_out_of_range);
      }
      wait_proc(1);  // in range with nothing queued: a no-op
    }
    finalize();
  });
}

TEST(ArmciNbTest, FenceAndAccessBeginAreCompletionPoints) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      const std::int64_t v = 7;
      Request r = nb_put(&v, bases[1], sizeof v, 1);
      EXPECT_FALSE(r.test());
      fence(1);  // ARMCI_Fence completes queued ops to the target
      EXPECT_TRUE(r.test());

      Request r2 = nb_put(&v, bases[1], sizeof v, 1);
      EXPECT_FALSE(r2.test());
      // Direct local access to the same allocation flushes its queues, so
      // the self-epoch can never deadlock against our own deferred ops.
      access_begin(bases[0]);
      EXPECT_TRUE(r2.test());
      access_end(bases[0]);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Eager fallbacks
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, SelfTargetsAndScaledAccumulatesGoEager) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    std::vector<void*> bases = malloc_world(64);
    if (mpisim::rank() == 1) {
      access_begin(bases[1]);
      std::memset(bases[1], 0, 64);
      access_end(bases[1]);
    }
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v = 5;
      Request r = nb_put(&v, bases[0], sizeof v, 0);  // self target
      EXPECT_TRUE(r.test());
      EXPECT_EQ(stats().nb_eager, 1u);

      const std::int64_t scale = 3, inc = 2;
      Request r2 =
          nb_acc(AccType::int64, &scale, &inc, bases[1], sizeof inc, 1);
      EXPECT_TRUE(r2.test());  // non-identity scale: eager
      EXPECT_EQ(stats().nb_eager, 2u);

      const std::int64_t one = 1;
      Request r3 = nb_acc(AccType::int64, &one, &inc, bases[1], sizeof inc, 1);
      EXPECT_FALSE(r3.test());  // identity scale defers
      EXPECT_EQ(stats().nb_deferred, 1u);
      wait_all();
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, 3 * 2 + 2);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, NativeBackendExecutesEagerly) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.backend = Backend::native;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v = 7;
      Request r = nb_put(&v, bases[1], sizeof v, 1);
      EXPECT_TRUE(r.test());
      EXPECT_EQ(stats().nb_ops, 1u);
      EXPECT_EQ(stats().nb_eager, 1u);
      EXPECT_EQ(stats().nb_deferred, 0u);
      fence(1);  // native put needs fence for remote completion
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, v);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, AggregationOptionOffGoesEager) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.nb_aggregation = false;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      const std::int64_t v = 99;
      Request r = nb_put(&v, bases[1], sizeof v, 1);
      EXPECT_TRUE(r.test());
      EXPECT_EQ(stats().nb_eager, 1u);
      EXPECT_EQ(stats().nb_deferred, 0u);
      std::int64_t back = 0;
      get(bases[1], &back, sizeof back, 1);
      EXPECT_EQ(back, v);  // per-op epochs: already remotely complete
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

/// What one run of all nine nb_* calls leaves behind: the issuing rank's
/// counters, the target's slice, and the three get destinations.
struct NbRunResult {
  Stats stats;
  std::vector<std::uint8_t> image;
  std::vector<std::uint8_t> got;
};

/// Rank 0 issues every nb_* variant once to rank 1 on infiniband, then
/// wait_all(). Puts and accumulates write disjoint regions of rank 1's
/// slice; each get reads back the region its kind of put wrote.
NbRunResult run_every_nb_call(bool aggregation) {
  NbRunResult out;
  mpisim::run(2, Platform::infiniband, [&] {
    Options o;
    o.nb_aggregation = aggregation;
    init(o);
    constexpr std::size_t kRegion = 128, kSlice = 6 * kRegion;
    std::vector<void*> bases = malloc_world(kSlice);
    // malloc_world memory is uninitialized: zero it so images compare.
    void* mine = bases[static_cast<std::size_t>(mpisim::rank())];
    access_begin(mine);
    std::memset(mine, 0, kSlice);
    access_end(mine);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<double> src(kRegion / sizeof(double));
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = 1.0 + static_cast<double>(i);
      std::vector<std::uint8_t> got(3 * kRegion, 0);
      const double one = 1.0;
      constexpr std::size_t kSeg = 16, kN = 4;  // 4 segments, pitch 32

      nb_put(src.data(), slice(bases, 1, 0), kRegion, 1);
      nb_acc(AccType::float64, &one, src.data(), slice(bases, 1, kRegion),
             kRegion, 1);
      nb_get(slice(bases, 1, 0), got.data(), kRegion, 1);

      StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {kSeg, kN};
      spec.src_strides = {kSeg};
      spec.dst_strides = {2 * kSeg};
      nb_put_strided(src.data(), slice(bases, 1, 2 * kRegion), spec, 1);
      nb_acc_strided(AccType::float64, &one, src.data(),
                     slice(bases, 1, 3 * kRegion), spec, 1);
      StridedSpec back = spec;
      back.src_strides = {2 * kSeg};
      back.dst_strides = {kSeg};
      nb_get_strided(slice(bases, 1, 2 * kRegion), got.data() + kRegion,
                     back, 1);

      const auto iov_to = [&](std::size_t off) {
        Giov g;
        g.bytes = kSeg;
        for (std::size_t i = 0; i < kN; ++i) {
          g.src.push_back(reinterpret_cast<const char*>(src.data()) +
                          i * kSeg);
          g.dst.push_back(slice(bases, 1, off + i * 2 * kSeg));
        }
        return g;
      };
      const Giov put_v = iov_to(4 * kRegion);
      const Giov acc_v = iov_to(5 * kRegion);
      Giov get_v;
      get_v.bytes = kSeg;
      for (std::size_t i = 0; i < kN; ++i) {
        get_v.src.push_back(put_v.dst[i]);
        get_v.dst.push_back(got.data() + 2 * kRegion + i * kSeg);
      }
      nb_put_iov({&put_v, 1}, 1);
      nb_acc_iov(AccType::float64, &one, {&acc_v, 1}, 1);
      nb_get_iov({&get_v, 1}, 1);
      wait_all();
      out.stats = stats();
      out.got = got;
    }
    barrier();
    if (mpisim::rank() == 1) {
      access_begin(mine);
      const auto* p = static_cast<const std::uint8_t*>(mine);
      out.image.assign(p, p + kSlice);
      access_end(mine);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
  return out;
}

TEST(ArmciNbTest, CountersMatchAcrossAggregationModes) {
  // Deferred ops mirror the blocking entries' counters, so every op, byte
  // and locality counter -- and the data -- must not depend on whether the
  // engine deferred the op or ran it eagerly.
  const NbRunResult on = run_every_nb_call(/*aggregation=*/true);
  const NbRunResult off = run_every_nb_call(/*aggregation=*/false);
  EXPECT_GT(on.stats.nb_deferred, 0u);
  EXPECT_EQ(off.stats.nb_deferred, 0u);
  EXPECT_EQ(on.stats.nb_ops, 9u);
  EXPECT_EQ(on.stats.nb_ops, off.stats.nb_ops);
  EXPECT_EQ(on.stats.puts, off.stats.puts);
  EXPECT_EQ(on.stats.gets, off.stats.gets);
  EXPECT_EQ(on.stats.accs, off.stats.accs);
  EXPECT_EQ(on.stats.put_bytes, off.stats.put_bytes);
  EXPECT_EQ(on.stats.get_bytes, off.stats.get_bytes);
  EXPECT_EQ(on.stats.acc_bytes, off.stats.acc_bytes);
  EXPECT_EQ(on.stats.strided_ops, off.stats.strided_ops);
  EXPECT_EQ(on.stats.strided_bytes, off.stats.strided_bytes);
  EXPECT_EQ(on.stats.iov_ops, off.stats.iov_ops);
  EXPECT_EQ(on.stats.iov_segments, off.stats.iov_segments);
  EXPECT_EQ(on.stats.iov_bytes, off.stats.iov_bytes);
  EXPECT_EQ(on.stats.ops_self, off.stats.ops_self);
  EXPECT_EQ(on.stats.ops_same_node, off.stats.ops_same_node);
  EXPECT_EQ(on.stats.ops_remote, off.stats.ops_remote);
  EXPECT_EQ(on.image, off.image);
  EXPECT_EQ(on.got, off.got);
}

// ---------------------------------------------------------------------------
// Strided and IOV deferral
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, StridedOpsDeferAndKeepOrder) {
  mpisim::run(2, Platform::ideal, [] {
    init();  // StridedMethod::direct (default) is the deferrable method
    constexpr std::size_t kSeg = 32, kN = 8, kPitch = 64;
    std::vector<void*> bases = malloc_world(kPitch * kN);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<std::uint8_t> src(kSeg * kN), back(kSeg * kN, 0);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 13 + 5);

      StridedSpec pspec;
      pspec.stride_levels = 1;
      pspec.count = {kSeg, kN};
      pspec.src_strides = {kSeg};
      pspec.dst_strides = {kPitch};
      Request rp = nb_put_strided(src.data(), bases[1], pspec, 1);
      EXPECT_FALSE(rp.test());
      EXPECT_EQ(stats().nb_deferred, 1u);

      StridedSpec gspec = pspec;
      gspec.src_strides = {kPitch};
      gspec.dst_strides = {kSeg};
      // Overlapping remote range: the queued put must flush first (RAW).
      Request rg = nb_get_strided(bases[1], back.data(), gspec, 1);
      EXPECT_EQ(stats().nb_conflict_flushes, 1u);
      wait(rg);
      EXPECT_EQ(back, src);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, InterleavedLocalSegmentsAcrossTargetsStayDeferred) {
  mpisim::run(3, Platform::ideal, [] {
    init();
    constexpr std::size_t kSeg = 16, kN = 8;
    std::vector<void*> bases = malloc_world(kSeg * kN);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::uint8_t> s1(kSeg * kN), s2(kSeg * kN);
      for (std::size_t i = 0; i < s1.size(); ++i) {
        s1[i] = static_cast<std::uint8_t>(i * 3 + 1);
        s2[i] = static_cast<std::uint8_t>(i * 5 + 2);
      }
      put(s1.data(), bases[1], s1.size(), 1);
      put(s2.data(), bases[2], s2.size(), 2);

      // Two deferred gets from different targets interleave their local
      // segments in one buffer: target 1 fills the even kSeg-slots, target
      // 2 the odd ones. The bounding boxes overlap almost entirely, but
      // the per-segment local hazard tracking must see the footprints are
      // disjoint and keep both deferred -- no spurious conflict flush.
      reset_stats();
      std::vector<std::uint8_t> back(2 * kSeg * kN, 0);
      StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {kSeg, kN};
      spec.src_strides = {kSeg};
      spec.dst_strides = {2 * kSeg};
      Request r1 = nb_get_strided(bases[1], back.data(), spec, 1);
      Request r2 = nb_get_strided(bases[2], back.data() + kSeg, spec, 2);
      EXPECT_EQ(stats().nb_deferred, 2u);
      EXPECT_EQ(stats().nb_conflict_flushes, 0u);
      EXPECT_FALSE(r1.test());
      EXPECT_FALSE(r2.test());
      wait_all();
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t b = 0; b < kSeg; ++b) {
          EXPECT_EQ(back[(2 * i) * kSeg + b], s1[i * kSeg + b]);
          EXPECT_EQ(back[(2 * i + 1) * kSeg + b], s2[i * kSeg + b]);
        }
      }
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, IovOpsDeferAndComplete) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    constexpr std::size_t kSeg = 16, kN = 6, kPitch = 48;
    std::vector<void*> bases = malloc_world(kPitch * kN);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<std::uint8_t> src(kSeg * kN), back(kSeg * kN, 0);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i + 3);

      Giov pv;
      pv.bytes = kSeg;
      for (std::size_t i = 0; i < kN; ++i) {
        pv.src.push_back(src.data() + i * kSeg);
        pv.dst.push_back(slice(bases, 1, i * kPitch));
      }
      Request rp = nb_put_iov({&pv, 1}, 1);
      EXPECT_FALSE(rp.test());
      EXPECT_EQ(stats().nb_deferred, 1u);
      wait(rp);
      EXPECT_TRUE(rp.test());

      Giov gv;
      gv.bytes = kSeg;
      for (std::size_t i = 0; i < kN; ++i) {
        gv.src.push_back(slice(bases, 1, i * kPitch));
        gv.dst.push_back(back.data() + i * kSeg);
      }
      Request rg = nb_get_iov({&gv, 1}, 1);
      wait(rg);
      EXPECT_EQ(back, src);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// MPI-3 backend: flush-batched queues under the standing lock_all
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, Mpi3BackendCoalescesAndCompletes) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.backend = Backend::mpi3;
    init(o);
    constexpr std::size_t kSlot = 64, kDepth = 8;
    std::vector<void*> bases = malloc_world(kSlot * kDepth);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<std::uint8_t> src(kSlot * kDepth), back(kSlot * kDepth, 0);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 11 + 2);
      for (std::size_t i = 0; i < kDepth; ++i)
        nb_put(src.data() + i * kSlot, slice(bases, 1, i * kSlot), kSlot, 1);
      EXPECT_EQ(stats().nb_deferred, kDepth);
      wait_all();
      EXPECT_EQ(stats().flushed_queues, 1u);
      EXPECT_EQ(stats().coalesced_epochs, 1u);

      Request rg = nb_get(bases[1], back.data(), back.size(), 1);
      EXPECT_FALSE(rg.test());
      wait(rg);
      EXPECT_EQ(back, src);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Derived-datatype cache
// ---------------------------------------------------------------------------

TEST(ArmciNbTest, DatatypeCacheHitsOnRepeatedShapes) {
  mpisim::run(2, Platform::ideal, [] {
    init();  // direct strided method builds datatypes through the cache
    constexpr std::size_t kSeg = 32, kN = 8, kPitch = 64;
    std::vector<void*> bases = malloc_world(kPitch * kN);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<std::uint8_t> src(kSeg * kN), back(kSeg * kN, 0);
      for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::uint8_t>(i * 5 + 1);
      StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {kSeg, kN};
      spec.src_strides = {kSeg};
      spec.dst_strides = {kPitch};

      put_strided(src.data(), bases[1], spec, 1);
      const std::uint64_t misses0 = stats().dt_cache_misses;
      EXPECT_GT(misses0, 0u);  // first shape: cold
      EXPECT_EQ(stats().dt_cache_hits, 0u);

      for (int r = 0; r < 4; ++r) put_strided(src.data(), bases[1], spec, 1);
      EXPECT_GT(stats().dt_cache_hits, 0u);
      EXPECT_EQ(stats().dt_cache_misses, misses0);  // no new shapes built

      StridedSpec gspec = spec;
      gspec.src_strides = {kPitch};
      gspec.dst_strides = {kSeg};
      get_strided(bases[1], back.data(), gspec, 1);
      EXPECT_EQ(back, src);  // cached-type transfers move the same bytes
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

TEST(ArmciNbTest, DatatypeCacheEvictsAtCapacityOne) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.dt_cache_capacity = 1;
    init(o);
    constexpr std::size_t kSeg = 32, kN = 4, kPitch = 64;
    std::vector<void*> bases = malloc_world(kPitch * kN);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      std::vector<std::uint8_t> src(kSeg * kN, 9);
      StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {kSeg, kN};
      spec.src_strides = {kSeg};
      spec.dst_strides = {kPitch};
      // Each op needs two distinct shapes (packed local, pitched remote), so
      // a single-entry cache thrashes: every lookup evicts the other shape.
      for (int r = 0; r < 3; ++r) put_strided(src.data(), bases[1], spec, 1);
      EXPECT_EQ(stats().dt_cache_hits, 0u);
      EXPECT_EQ(stats().dt_cache_misses, 6u);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

/// Datatype-cache hits and misses of one put on a cold cache, from rank 0's
/// own slice (global space, so the local side is staged) to rank 1's:
/// strided or IOV, blocking or nonblocking.
std::pair<std::uint64_t, std::uint64_t> global_source_put_lookups(bool iov,
                                                                  bool nb) {
  std::pair<std::uint64_t, std::uint64_t> out;
  mpisim::run(2, Platform::ideal, [&] {
    init();
    constexpr std::size_t kSeg = 32, kN = 4, kPitch = 64;
    std::vector<void*> bases = malloc_world(kPitch * kN);
    barrier();
    if (mpisim::rank() == 0) {
      reset_stats();
      StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {kSeg, kN};
      spec.src_strides = {kPitch};
      spec.dst_strides = {kPitch};
      Giov g;
      g.bytes = kSeg;
      for (std::size_t i = 0; i < kN; ++i) {
        g.src.push_back(slice(bases, 0, i * kPitch));
        g.dst.push_back(slice(bases, 1, i * kPitch));
      }
      const std::span<const Giov> vec(&g, 1);
      Request req;
      if (iov && nb)
        req = nb_put_iov(vec, 1);
      else if (iov)
        put_iov(vec, 1);
      else if (nb)
        req = nb_put_strided(bases[0], bases[1], spec, 1);
      else
        put_strided(bases[0], bases[1], spec, 1);
      wait(req);
      out = {stats().dt_cache_hits, stats().dt_cache_misses};
    }
    barrier();
    free_mine(bases);
    finalize();
  });
  return out;
}

// An nb op whose local buffer needs staging goes eager; deciding that must
// not build datatypes the eager path then looks up again.
TEST(ArmciNbTest, StagedNbPutLooksUpTheCacheLikeItsBlockingCall) {
  for (const bool iov : {false, true}) {
    EXPECT_EQ(global_source_put_lookups(iov, true),
              global_source_put_lookups(iov, false))
        << (iov ? "iov" : "strided");
  }
}

// ---------------------------------------------------------------------------
// Randomized location-consistency property test
// ---------------------------------------------------------------------------

// Rank 0 issues a random mix of deferred puts/accumulates/gets and blocking
// gets against rank 1's slice while mirroring every op on a local model in
// program order. Location consistency requires each get -- deferred or
// blocking -- to observe exactly the mirror's state at its issue point.
TEST(ArmciNbTest, RandomizedOpsMatchSequentialMirror) {
  mpisim::run(2, Platform::ideal, [] {
    init();
    constexpr std::size_t kElems = 256;
    std::vector<void*> bases = malloc_world(kElems * sizeof(std::int64_t));
    if (mpisim::rank() == 1) {
      access_begin(bases[1]);
      std::memset(bases[1], 0, kElems * sizeof(std::int64_t));
      access_end(bases[1]);
    }
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<std::int64_t> mirror(kElems, 0);
      std::mt19937_64 rng(20260805);
      // Source buffers stay alive (and untouched) until their op completes.
      std::deque<std::vector<std::int64_t>> srcs;
      struct PendingGet {
        std::vector<std::int64_t> buf;
        std::vector<std::int64_t> expect;
        Request req;
      };
      std::deque<PendingGet> gets;

      for (int i = 0; i < 300; ++i) {
        const std::size_t lo = rng() % kElems;
        const std::size_t n =
            1 + rng() % std::min<std::size_t>(kElems - lo, 16);
        char* remote = slice(bases, 1, lo * sizeof(std::int64_t));
        switch (rng() % 4) {
          case 0: {  // deferred put
            auto& s = srcs.emplace_back(n);
            for (auto& x : s) x = static_cast<std::int64_t>(rng() % 100000);
            nb_put(s.data(), remote, n * sizeof(std::int64_t), 1);
            std::copy(s.begin(), s.end(),
                      mirror.begin() + static_cast<std::ptrdiff_t>(lo));
            break;
          }
          case 1: {  // deferred identity-scale accumulate
            auto& s = srcs.emplace_back(n);
            for (auto& x : s) x = static_cast<std::int64_t>(rng() % 1000);
            const std::int64_t one = 1;
            nb_acc(AccType::int64, &one, s.data(), remote,
                   n * sizeof(std::int64_t), 1);
            for (std::size_t j = 0; j < n; ++j) mirror[lo + j] += s[j];
            break;
          }
          case 2: {  // deferred get: must see the mirror at its issue point
            gets.emplace_back();
            PendingGet& g = gets.back();
            g.buf.assign(n, -1);
            g.expect.assign(mirror.begin() + static_cast<std::ptrdiff_t>(lo),
                            mirror.begin() +
                                static_cast<std::ptrdiff_t>(lo + n));
            g.req = nb_get(remote, g.buf.data(), n * sizeof(std::int64_t), 1);
            break;
          }
          default: {  // blocking get cross-check
            std::vector<std::int64_t> b(n, -1);
            get(remote, b.data(), n * sizeof(std::int64_t), 1);
            for (std::size_t j = 0; j < n; ++j)
              ASSERT_EQ(b[j], mirror[lo + j]) << "op " << i << " elem " << j;
            break;
          }
        }
      }
      wait_all();
      for (std::size_t k = 0; k < gets.size(); ++k) {
        EXPECT_TRUE(gets[k].req.test());
        EXPECT_EQ(gets[k].buf, gets[k].expect) << "deferred get " << k;
      }
      std::vector<std::int64_t> all(kElems, -1);
      get(bases[1], all.data(), kElems * sizeof(std::int64_t), 1);
      EXPECT_EQ(all, mirror);
    }
    barrier();
    free_mine(bases);
    finalize();
  });
}

}  // namespace
}  // namespace armci
