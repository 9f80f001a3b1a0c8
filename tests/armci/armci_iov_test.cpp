// Integration tests for generalized I/O vector operations across every
// transfer method (paper §VI-A/B) and both backends.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/gmr.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Platform;

struct IovCase {
  Backend backend;
  IovMethod method;
};

std::string iov_case_name(const ::testing::TestParamInfo<IovCase>& info) {
  std::string s = info.param.backend == Backend::mpi      ? "Mpi"
                  : info.param.backend == Backend::native ? "Native"
                                                          : "Mpi3";
  switch (info.param.method) {
    case IovMethod::conservative: return s + "Conservative";
    case IovMethod::batched: return s + "Batched";
    case IovMethod::direct: return s + "Direct";
    case IovMethod::auto_: return s + "Auto";
  }
  return s;
}

class ArmciIovTest : public ::testing::TestWithParam<IovCase> {
 protected:
  Options opts() const {
    Options o;
    o.backend = GetParam().backend;
    o.iov_method = GetParam().method;
    return o;
  }

  /// Build a descriptor of n disjoint `bytes`-sized segments: local
  /// segments packed, remote segments spread with gaps.
  static Giov make_spread(void* local, void* remote, std::size_t n,
                          std::size_t bytes, std::size_t remote_stride,
                          bool remote_is_dst) {
    Giov g;
    g.bytes = bytes;
    for (std::size_t i = 0; i < n; ++i) {
      void* l = static_cast<char*>(local) + i * bytes;
      void* r = static_cast<char*>(remote) + i * remote_stride;
      if (remote_is_dst) {
        g.src.push_back(l);
        g.dst.push_back(r);
      } else {
        g.src.push_back(r);
        g.dst.push_back(l);
      }
    }
    return g;
  }
};

TEST_P(ArmciIovTest, PutScattersSegments) {
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    std::vector<void*> bases = malloc_world(4096);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(512);
      std::iota(local.begin(), local.end(), 0);
      Giov g = make_spread(local.data(), bases[1], 16, 32, 128, true);
      put_iov({&g, 1}, 1);
      fence(1);
    }
    barrier();
    if (mpisim::rank() == 1) {
      const char* mine = static_cast<const char*>(bases[1]);
      for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t b = 0; b < 32; ++b)
          EXPECT_EQ(mine[i * 128 + b], static_cast<char>(i * 32 + b));
      // Gaps untouched (zero-initialized by the allocator? ensure via put).
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST_P(ArmciIovTest, GetGathersSegments) {
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    std::vector<void*> bases = malloc_world(4096);
    auto* mine = static_cast<char*>(
        bases[static_cast<std::size_t>(mpisim::rank())]);
    for (int i = 0; i < 4096; ++i)
      mine[i] = static_cast<char>((mpisim::rank() * 7 + i) % 127);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(16 * 64, 0);
      Giov g = make_spread(local.data(), bases[1], 16, 64, 256, false);
      get_iov({&g, 1}, 1);
      for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t b = 0; b < 64; ++b)
          EXPECT_EQ(local[i * 64 + b],
                    static_cast<char>((7 + i * 256 + b) % 127));
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST_P(ArmciIovTest, AccumulateWithScale) {
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    std::vector<void*> bases = malloc_world(1024 * sizeof(double));
    auto* mine = static_cast<double*>(
        bases[static_cast<std::size_t>(mpisim::rank())]);
    for (int i = 0; i < 1024; ++i) mine[i] = 5.0;
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<double> local(8 * 4);
      std::iota(local.begin(), local.end(), 1.0);
      Giov g = make_spread(local.data(), bases[1], 8, 4 * sizeof(double),
                           32 * sizeof(double), true);
      const double scale = 10.0;
      acc_iov(AccType::float64, &scale, {&g, 1}, 1);
      fence(1);
    }
    barrier();
    if (mpisim::rank() == 1) {
      for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t e = 0; e < 4; ++e)
          EXPECT_DOUBLE_EQ(mine[i * 32 + e], 5.0 + 10.0 * (i * 4 + e + 1));
      EXPECT_DOUBLE_EQ(mine[4], 5.0);  // gap untouched
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST_P(ArmciIovTest, SegmentsAcrossTwoAllocations) {
  // The conservative and auto methods must handle segments that live in
  // different GMRs; direct/batched require a single GMR, so restrict.
  const IovMethod m = GetParam().method;
  if (m == IovMethod::direct || m == IovMethod::batched) GTEST_SKIP();
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    std::vector<void*> a = malloc_world(256);
    std::vector<void*> b = malloc_world(256);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(64, 'q');
      Giov g;
      g.bytes = 32;
      g.src = {local.data(), local.data() + 32};
      g.dst = {a[1], b[1]};
      put_iov({&g, 1}, 1);
      fence(1);
    }
    barrier();
    if (mpisim::rank() == 1) {
      EXPECT_EQ(static_cast<char*>(a[1])[31], 'q');
      EXPECT_EQ(static_cast<char*>(b[1])[0], 'q');
    }
    barrier();
    free(b[static_cast<std::size_t>(mpisim::rank())]);
    free(a[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST_P(ArmciIovTest, GlobalLocalSegmentsAreStaged) {
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    std::vector<void*> a = malloc_world(512);
    std::vector<void*> b = malloc_world(512);
    auto* mine_a = static_cast<char*>(
        a[static_cast<std::size_t>(mpisim::rank())]);
    std::memset(mine_a, 'L', 512);
    barrier();
    if (mpisim::rank() == 0) {
      // Local segments live in my slice of `a` (global space).
      Giov g = make_spread(mine_a, b[1], 4, 64, 128, true);
      put_iov({&g, 1}, 1);
      fence(1);
    }
    barrier();
    if (mpisim::rank() == 1) { EXPECT_EQ(static_cast<char*>(b[1])[0], 'L'); }
    barrier();
    free(b[static_cast<std::size_t>(mpisim::rank())]);
    free(a[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST_P(ArmciIovTest, ManySmallSegments) {
  mpisim::run(2, Platform::ideal, [&] {
    init(opts());
    const std::size_t n = 1024;
    std::vector<void*> bases = malloc_world(n * 16);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(n * 8);
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] = static_cast<char>(i % 100);
      Giov g = make_spread(local.data(), bases[1], n, 8, 16, true);
      put_iov({&g, 1}, 1);
      std::vector<char> back(n * 8, 0);
      Giov r = make_spread(back.data(), bases[1], n, 8, 16, false);
      get_iov({&r, 1}, 1);
      EXPECT_EQ(back, local);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ArmciIovTest,
    ::testing::Values(IovCase{Backend::mpi, IovMethod::conservative},
                      IovCase{Backend::mpi, IovMethod::batched},
                      IovCase{Backend::mpi, IovMethod::direct},
                      IovCase{Backend::mpi, IovMethod::auto_},
                      IovCase{Backend::native, IovMethod::direct},
                      IovCase{Backend::mpi3, IovMethod::direct}),
    iov_case_name);

// Batched-limit plumbing: a small B forces epoch re-acquisition; results
// must be identical.
TEST(ArmciIovBatchTest, SmallBatchLimitStillCorrect) {
  for (std::size_t limit : {1u, 3u, 16u, 0u}) {
    mpisim::run(2, Platform::ideal, [&] {
      Options o;
      o.backend = Backend::mpi;
      o.iov_method = IovMethod::batched;
      o.iov_batched_limit = limit;
      init(o);
      std::vector<void*> bases = malloc_world(2048);
      barrier();
      if (mpisim::rank() == 0) {
        std::vector<char> local(640);
        std::iota(local.begin(), local.end(), 0);
        Giov g;
        g.bytes = 64;
        for (std::size_t i = 0; i < 10; ++i) {
          g.src.push_back(local.data() + i * 64);
          g.dst.push_back(static_cast<char*>(bases[1]) + i * 128);
        }
        put_iov({&g, 1}, 1);
        std::vector<char> back(640, 0);
        Giov r;
        r.bytes = 64;
        for (std::size_t i = 0; i < 10; ++i) {
          r.src.push_back(static_cast<char*>(bases[1]) + i * 128);
          r.dst.push_back(back.data() + i * 64);
        }
        get_iov({&r, 1}, 1);
        EXPECT_EQ(back, local);
      }
      barrier();
      free(bases[static_cast<std::size_t>(mpisim::rank())]);
      finalize();
    });
  }
}

// §VI-B: overlapping segments under the direct method are erroneous (the
// simulator's conflict checker plays the part of the MPI error); the auto
// method must detect the overlap and fall back to conservative, which
// handles it safely.
TEST(ArmciIovAutoTest, OverlapFallsBackToConservative) {
  mpisim::run(2, Platform::ideal, [&] {
    Options o;
    o.backend = Backend::mpi;
    o.iov_method = IovMethod::auto_;
    init(o);
    std::vector<void*> bases = malloc_world(256);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(64, 'x');
      Giov g;
      g.bytes = 32;
      g.src = {local.data(), local.data() + 32};
      g.dst = {bases[1], static_cast<char*>(bases[1]) + 16};  // overlap!
      put_iov({&g, 1}, 1);  // conservative fallback: no error
      fence(1);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// Regression for the batched staging predicate: an accumulate with the
// identity scale from private (non-global) buffers needs no temp copy --
// the segments go to MPI_Accumulate directly and no staging epoch is taken.
TEST(ArmciIovBatchedTest, IdentityScaleAccSkipsStaging) {
  mpisim::run(2, Platform::ideal, [&] {
    Options o;
    o.backend = Backend::mpi;
    o.iov_method = IovMethod::batched;
    init(o);
    std::vector<void*> bases = malloc_world(512);
    barrier();
    if (mpisim::rank() == 1) {
      auto* mine = static_cast<double*>(bases[1]);
      for (int i = 0; i < 64; ++i) mine[i] = 1.0;
    }
    barrier();
    reset_stats();
    if (mpisim::rank() == 0) {
      std::vector<double> local(16);
      std::iota(local.begin(), local.end(), 1.0);
      const double one = 1.0;
      Giov g;
      g.bytes = 4 * sizeof(double);
      for (int i = 0; i < 4; ++i) {
        g.src.push_back(local.data() + i * 4);
        g.dst.push_back(static_cast<double*>(bases[1]) + i * 8);
      }
      acc_iov(AccType::float64, &one, {&g, 1}, 1);
      fence(1);
      EXPECT_EQ(stats().staged_local_copies, 0u);
    }
    barrier();
    if (mpisim::rank() == 1) {
      const auto* mine = static_cast<const double*>(bases[1]);
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
          EXPECT_EQ(mine[i * 8 + j], 1.0 + (i * 4 + j + 1));
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(ArmciIovDirectTest, OverlapUnderDirectIsErroneous) {
  EXPECT_THROW(
      mpisim::run(2, Platform::ideal,
                  [&] {
                    Options o;
                    o.backend = Backend::mpi;
                    o.iov_method = IovMethod::direct;
                    init(o);
                    std::vector<void*> bases = malloc_world(256);
                    barrier();
                    if (mpisim::rank() == 0) {
                      std::vector<char> local(64, 'x');
                      Giov g;
                      g.bytes = 32;
                      g.src = {local.data(), local.data() + 32};
                      g.dst = {bases[1],
                               static_cast<char*>(bases[1]) + 16};
                      put_iov({&g, 1}, 1);
                    }
                    barrier();
                  }),
      mpisim::MpiError);
}

TEST(ArmciIovDirectTest, MultiGmrUnderDirectIsErroneous) {
  EXPECT_THROW(
      mpisim::run(2, Platform::ideal,
                  [&] {
                    Options o;
                    o.backend = Backend::mpi;
                    o.iov_method = IovMethod::direct;
                    init(o);
                    std::vector<void*> a = malloc_world(64);
                    std::vector<void*> b = malloc_world(64);
                    barrier();
                    if (mpisim::rank() == 0) {
                      std::vector<char> local(64, 'x');
                      Giov g;
                      g.bytes = 32;
                      g.src = {local.data(), local.data() + 32};
                      g.dst = {a[1], b[1]};
                      put_iov({&g, 1}, 1);
                    }
                    barrier();
                  }),
      mpisim::MpiError);
}

// Batched IOV issues one epoch per GMR, in the order the GMRs first appear
// in the descriptor, whatever their heap addresses: issue order fixes the
// virtual timeline, so it must not follow the allocator's layout.
TEST(ArmciIovGroupTest, GroupsFollowFirstAppearanceNotAddress) {
  auto lo = std::make_shared<Gmr>();
  auto hi = std::make_shared<Gmr>();
  if (hi.get() < lo.get()) std::swap(lo, hi);
  std::vector<GmrLoc> locs(4);
  locs[0].gmr = hi;
  locs[1].gmr = lo;
  locs[2].gmr = hi;
  locs[3].gmr = lo;
  GmrGroups groups;
  group_by_gmr(locs, groups);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(std::vector<std::size_t>(groups[0].begin(), groups[0].end()),
            (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(std::vector<std::size_t>(groups[1].begin(), groups[1].end()),
            (std::vector<std::size_t>{1, 3}));
}

}  // namespace
}  // namespace armci
