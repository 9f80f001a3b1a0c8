// Tests for the ARMCI operation-statistics interface, including its use as
// an observability probe: a GA patch access spanning K owners must issue
// exactly K strided ARMCI operations (paper Fig. 2).

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/stats.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Platform;

TEST(ArmciStatsTest, CountersStartAtZero) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    EXPECT_EQ(stats().puts, 0u);
    EXPECT_EQ(stats().total_bytes(), 0u);
    finalize();
  });
}

TEST(ArmciStatsTest, ContiguousOpsCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(256);
    barrier();
    reset_stats();
    if (mpisim::rank() == 0) {
      char buf[64] = {};
      put(buf, bases[1], 64, 1);
      put(buf, bases[1], 32, 1);
      get(bases[1], buf, 16, 1);
      const double one = 1.0;
      double d[2] = {1, 2};
      acc(AccType::float64, &one, d, bases[1], 16, 1);
      EXPECT_EQ(stats().puts, 2u);
      EXPECT_EQ(stats().put_bytes, 96u);
      EXPECT_EQ(stats().gets, 1u);
      EXPECT_EQ(stats().get_bytes, 16u);
      EXPECT_EQ(stats().accs, 1u);
      EXPECT_EQ(stats().acc_bytes, 16u);
      EXPECT_EQ(stats().total_bytes(), 128u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(ArmciStatsTest, StridedAndIovCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(1024);
    barrier();
    reset_stats();
    if (mpisim::rank() == 0) {
      std::vector<char> local(256);
      StridedSpec s;
      s.stride_levels = 1;
      s.count = {32, 4};
      s.src_strides = {32};
      s.dst_strides = {64};
      put_strided(local.data(), bases[1], s, 1);
      EXPECT_EQ(stats().strided_ops, 1u);
      EXPECT_EQ(stats().strided_bytes, 128u);

      Giov g;
      g.bytes = 16;
      for (int i = 0; i < 4; ++i) {
        g.src.push_back(local.data() + i * 16);
        g.dst.push_back(static_cast<char*>(bases[1]) + 512 + i * 32);
      }
      put_iov({&g, 1}, 1);
      EXPECT_EQ(stats().iov_ops, 1u);
      EXPECT_EQ(stats().iov_segments, 4u);
      EXPECT_EQ(stats().iov_bytes, 64u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(ArmciStatsTest, SyncAndAtomicsCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(8);
    create_mutexes(1);
    barrier();
    reset_stats();
    lock(0, 0);
    unlock(0, 0);
    std::int64_t old = 0;
    rmw(RmwOp::fetch_and_add_long, &old, bases[0], 1, 0);
    fence(0);
    barrier();
    EXPECT_EQ(stats().mutex_locks, 1u);
    EXPECT_EQ(stats().rmws, 1u);
    EXPECT_GE(stats().fences, 1u);
    EXPECT_GE(stats().barriers, 1u);
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(ArmciStatsTest, AllocationsAndFreesCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    reset_stats();
    std::vector<void*> a = malloc_world(64);
    std::vector<void*> b = malloc_world(64);
    EXPECT_EQ(stats().allocations, 2u);
    free(b[static_cast<std::size_t>(mpisim::rank())]);
    free(a[static_cast<std::size_t>(mpisim::rank())]);
    EXPECT_EQ(stats().frees, 2u);
    finalize();
  });
}

TEST(ArmciStatsTest, ResetZeroesEverything) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      put(&c, bases[1], 1, 1);
    }
    reset_stats();
    EXPECT_EQ(stats().puts, 0u);
    EXPECT_EQ(stats().barriers, 0u);
    EXPECT_EQ(stats().allocations, 0u);
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// reset_stats() zeroes every field of the ARMCI_STATS table, including the
// ones stats() derives from run-long sources minus a reset baseline: the
// checker's violation count (rma_conflicts), the race detector's
// (rma_races) and the clock's overlap gauges.
TEST(ArmciStatsTest, ResetZeroesEveryTableField) {
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::infiniband;
  cfg.ranks_per_node = 1;
  mpisim::run(cfg, [] {
    Options o;
    o.backend = Backend::mpi3;
    o.progress = true;
    init(o);
    std::vector<void*> bases = malloc_world(4096);
    create_mutexes(1);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> buf(4096, 1);
      const double one = 1.0;
      put(buf.data(), bases[1], 64, 1);
      acc(AccType::float64, &one, buf.data(), bases[1], 64, 1);
      Request req = nb_get(bases[1], buf.data(), buf.size(), 1);
      mpisim::clock().advance_compute(100'000.0);  // ticks retire the get
      wait(req);
      lock(0, 1);
      unlock(0, 1);
      // Lock-state misuse is counted without being raised in every mode.
      mpisim::ctx().core().checker().note_discipline(mpisim::rank());
      const Stats& s = stats();
      EXPECT_GT(s.puts, 0u);
      EXPECT_GT(s.rma_conflicts, 0u);
      EXPECT_GT(s.overlap_comm_ns, 0.0);
      reset_stats();
      const Stats& z = stats();
#define EXPECT_ZERO_COUNTER(section, name) EXPECT_EQ(z.name, 0u) << #name;
#define EXPECT_ZERO_PROGRESS(type, name, key) \
  EXPECT_EQ(z.name, type{}) << #name;
      ARMCI_STATS(EXPECT_ZERO_COUNTER, EXPECT_ZERO_PROGRESS)
#undef EXPECT_ZERO_COUNTER
#undef EXPECT_ZERO_PROGRESS
    }
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Observability: direct-local-access epochs (paper §V-E) are counted.
TEST(ArmciStatsTest, DlaEpochsCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(64);
    barrier();
    reset_stats();
    void* mine = bases[static_cast<std::size_t>(mpisim::rank())];
    access_begin(mine);
    static_cast<char*>(mine)[0] = 42;
    access_end(mine);
    EXPECT_EQ(stats().dla_epochs, 1u);
    access_begin(mine);
    access_end(mine);
    EXPECT_EQ(stats().dla_epochs, 2u);
    barrier();
    free(mine);
    finalize();
  });
}

// Observability: a put whose local buffer lives inside the global space
// must stage through a private copy (paper §V-E1), and says so.
TEST(ArmciStatsTest, StagedLocalCopiesCounted) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(256);
    barrier();
    reset_stats();
    if (mpisim::rank() == 0) {
      // Source inside rank 0's own global segment: the backend cannot pass
      // it to MPI while the window is locked, so it stages a copy.
      put(bases[0], bases[1], 64, 1);
      EXPECT_GE(stats().staged_local_copies, 1u);

      // A plain private buffer needs no staging.
      reset_stats();
      char buf[64] = {};
      put(buf, bases[1], 64, 1);
      EXPECT_EQ(stats().staged_local_copies, 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Observability: paper Fig. 2 -- one GA put spanning four owners issues
// exactly four strided ARMCI operations.
TEST(ArmciStatsTest, GaPatchDecompositionVisibleInCounters) {
  mpisim::run(4, Platform::ideal, [] {
    init({});
    const std::int64_t dims[] = {64, 64};
    ga::GlobalArray g = ga::GlobalArray::create("fig2", dims,
                                                ga::ElemType::dbl);
    g.sync();
    reset_stats();
    if (mpisim::rank() == 0) {
      ga::Patch r;
      r.lo = {16, 16};
      r.hi = {47, 47};
      std::vector<double> buf(32 * 32);
      std::iota(buf.begin(), buf.end(), 0.0);
      g.put(r, buf.data());
      EXPECT_EQ(stats().strided_ops, 4u);  // one per owner
      EXPECT_EQ(stats().strided_bytes, 32u * 32u * 8u);

      // A patch inside one owner: exactly one strided op.
      ga::Patch small;
      small.lo = {0, 0};
      small.hi = {7, 7};
      g.put(small, buf.data());
      EXPECT_EQ(stats().strided_ops, 5u);
    }
    g.sync();
    g.destroy();
    finalize();
  });
}

TEST(ArmciStatsTest, GaScatterUsesIovOps) {
  mpisim::run(4, Platform::ideal, [] {
    init({});
    const std::int64_t dims[] = {16, 16};
    ga::GlobalArray g = ga::GlobalArray::create("sc", dims, ga::ElemType::dbl);
    g.sync();
    reset_stats();
    if (mpisim::rank() == 0) {
      // One element in each quadrant: four owners -> four IOV operations.
      std::vector<std::int64_t> subs{2, 2, 2, 12, 12, 2, 12, 12};
      std::vector<double> vals{1, 2, 3, 4};
      g.scatter(vals.data(), subs, 4);
      EXPECT_EQ(stats().iov_ops, 4u);
      EXPECT_EQ(stats().iov_segments, 4u);
    }
    g.sync();
    g.destroy();
    finalize();
  });
}

}  // namespace
}  // namespace armci
