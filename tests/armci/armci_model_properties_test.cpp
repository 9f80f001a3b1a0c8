// Property sweeps over the virtual-time cost model and runtime options:
// invariants that must hold on EVERY platform profile regardless of
// calibration (monotonicity, method ordering, option semantics).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Platform;

class ModelPropertyTest : public ::testing::TestWithParam<Platform> {};

/// Virtual ns for one contiguous op of `bytes` on the MPI backend.
double op_ns(Platform plat, Backend backend, std::size_t bytes, bool is_get) {
  double result = 0.0;
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = plat;
  mpisim::run(cfg, [&] {
    Options o;
    o.backend = backend;
    init(o);
    std::vector<void*> bases = malloc_world(bytes);
    auto* local = static_cast<char*>(malloc_local(bytes));
    barrier();
    if (mpisim::rank() == 0) {
      // Warm-up (registration caches, allocator effects) for either kind.
      if (is_get)
        get(bases[1], local, bytes, 1);
      else
        put(local, bases[1], bytes, 1);
      const double t0 = mpisim::clock().now_ns();
      if (is_get)
        get(bases[1], local, bytes, 1);
      else
        put(local, bases[1], bytes, 1);
      result = mpisim::clock().now_ns() - t0;
    }
    barrier();
    free_local(local);
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
  return result;
}

TEST_P(ModelPropertyTest, CostIsMonotoneInSize) {
  const Platform plat = GetParam();
  for (Backend b : {Backend::mpi, Backend::native, Backend::mpi3}) {
    double prev = 0.0;
    for (std::size_t bytes : {64u, 4096u, 262144u}) {
      const double ns = op_ns(plat, b, bytes, /*is_get=*/false);
      EXPECT_GE(ns, prev) << "backend " << static_cast<int>(b) << " bytes "
                          << bytes;
      prev = ns;
    }
  }
}

TEST_P(ModelPropertyTest, GetAtLeastAsExpensiveAsPut) {
  // A blocking get must complete remotely; a put only needs local
  // completion, so per-op virtual cost of get >= put. This holds for the
  // MPI-2 and native backends; the MPI-3 backend is excluded because its
  // puts are accumulate(REPLACE), which pay the (slower) accumulate wire
  // rate and can legitimately exceed a get.
  const Platform plat = GetParam();
  for (Backend b : {Backend::mpi, Backend::native}) {
    const double put_ns = op_ns(plat, b, 4096, false);
    const double get_ns = op_ns(plat, b, 4096, true);
    EXPECT_GE(get_ns, put_ns * 0.99) << "backend " << static_cast<int>(b);
  }
}

/// Strided bandwidth proxy: virtual ns for a 64-segment transfer.
double strided_ns(Platform plat, StridedMethod m, std::size_t seg) {
  double result = 0.0;
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = plat;
  mpisim::run(cfg, [&] {
    Options o;
    o.backend = Backend::mpi;
    o.strided_method = m;
    init(o);
    const std::size_t nseg = 64;
    std::vector<void*> bases = malloc_world(nseg * seg * 2);
    auto* local = static_cast<char*>(malloc_local(nseg * seg));
    barrier();
    if (mpisim::rank() == 0) {
      StridedSpec s;
      s.stride_levels = 1;
      s.count = {seg, nseg};
      s.src_strides = {seg};
      s.dst_strides = {seg * 2};
      put_strided(local, bases[1], s, 1);  // warm-up
      const double t0 = mpisim::clock().now_ns();
      put_strided(local, bases[1], s, 1);
      result = mpisim::clock().now_ns() - t0;
    }
    barrier();
    free_local(local);
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
  return result;
}

TEST_P(ModelPropertyTest, ConservativeIsNeverTheFastestStridedMethod) {
  // One epoch per segment cannot beat methods that amortize epochs.
  const Platform plat = GetParam();
  for (std::size_t seg : {16u, 1024u}) {
    const double consrv =
        strided_ns(plat, StridedMethod::iov_conservative, seg);
    const double batched = strided_ns(plat, StridedMethod::iov_batched, seg);
    const double direct = strided_ns(plat, StridedMethod::direct, seg);
    EXPECT_GE(consrv, batched * 0.999) << "seg " << seg;
    EXPECT_GE(consrv, direct * 0.999) << "seg " << seg;
  }
}

TEST_P(ModelPropertyTest, DirectAndIovDirectAreEquivalent) {
  // Both hand one datatype-described operation to the runtime; their
  // virtual cost must agree to within datatype-construction noise.
  const Platform plat = GetParam();
  const double direct = strided_ns(plat, StridedMethod::direct, 256);
  const double iov_direct = strided_ns(plat, StridedMethod::iov_direct, 256);
  EXPECT_NEAR(direct, iov_direct, 0.05 * direct);
}

INSTANTIATE_TEST_SUITE_P(Platforms, ModelPropertyTest,
                         ::testing::ValuesIn(std::vector<Platform>(
                             std::begin(mpisim::kPaperPlatforms),
                             std::end(mpisim::kPaperPlatforms))),
                         [](const auto& info) {
                           return std::string(mpisim::platform_id(info.param));
                         });

// ---- Option semantics ----

TEST(ArmciOptionsTest, NoLocalCopySkipsStagingButStaysCorrect) {
  // On coherent platforms many MPI implementations allow concurrent local
  // access; no_local_copy uses the global buffer directly as the origin.
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.backend = Backend::mpi;
    o.no_local_copy = true;
    init(o);
    std::vector<void*> a = malloc_world(64);
    std::vector<void*> b = malloc_world(64);
    auto* mine_a = static_cast<char*>(
        a[static_cast<std::size_t>(mpisim::rank())]);
    std::memset(mine_a, 'N', 64);
    barrier();
    if (mpisim::rank() == 0) {
      put(mine_a, b[1], 64, 1);  // global local buffer, no staging copy
      char back[64] = {};
      get(b[1], back, 64, 1);
      EXPECT_EQ(back[0], 'N');
      EXPECT_EQ(back[63], 'N');
    }
    barrier();
    free(b[static_cast<std::size_t>(mpisim::rank())]);
    free(a[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(ArmciOptionsTest, ConflictCheckingCanBeDisabled) {
  // With Config::rma_check off, the MPI-2-erroneous overlap below is not
  // detected (production mode trades checking for speed); the run must
  // complete without raising.
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::ideal;
  cfg.rma_check = mpisim::RmaCheck::off;
  mpisim::run(cfg, [] {
    init({});
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      Options o;  // (defaults; direct method would error when checked)
      (void)o;
      std::vector<char> local(64, 'x');
      Giov g;
      g.bytes = 32;
      g.src = {local.data(), local.data() + 32};
      g.dst = {bases[1], static_cast<char*>(bases[1]) + 16};  // overlap
      // Force the direct method through the option-independent API.
      put_iov({&g, 1}, 1);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

}  // namespace
}  // namespace armci
