// Allocation guard for the warm RMA path: once warmed up, a GA nb_get +
// wait of a 2-D patch spanning two owners, and a GA acc of the same patch,
// allocate no heap block at all -- not in GA (cached owner blocks and
// strides, a reused intersect buffer and strided descriptor), not in ARMCI
// (engine scratch, tickets inside the request, the datatype cache's reused
// key) and not in mpisim (reused segment lists, shared basic types, reused
// epoch and registration records). Nor do blocking and nb IOV puts, gets
// and accumulates of one fixed shape (reused IOV scratch, overlap-check
// tree and datatype-plan buffers), nor staged ones: contiguous, IOV and
// strided puts, scaled accumulates and gets whose local buffers are in
// global space (a reused staging buffer, shared basic types for the packed
// side, pooled local-access records in the checker). 4 InfiniBand ranks
// (16 for the staged case, so its target is on another node), RMA checker
// on.
// This binary replaces the global operator new/delete (forwarding to
// malloc/free) to count blocks, so it is kept apart from the other test
// executables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

// Ranks are fibers on one host thread: plain counters suffice.
bool counting = false;
std::size_t allocs = 0;

void* counted_alloc(std::size_t bytes) {
  if (counting) ++allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ga {
namespace {

/// The counter must see this binary's own allocations; a sanitizer
/// runtime that keeps its own operator new would leave it blind.
bool counter_in_effect() {
  allocs = 0;
  counting = true;
  ::operator delete(::operator new(16));
  counting = false;
  const bool seen = allocs == 1;
  allocs = 0;
  return seen;
}

class ArmciAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(ArmciAllocTest, WarmGaNbGetAndAccAllocateNothing) {
  if (!counter_in_effect())
    GTEST_SKIP() << "operator new replacement not in effect "
                    "(sanitizer runtime)";

  constexpr int kWarmup = 20;
  constexpr int kOps = 200;
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = mpisim::Platform::infiniband;
  std::size_t seen = 0;
  double sum = 0.0;
  bool race_detector = false;
  mpisim::run(cfg, [&] {
    armci::Options o;
    o.backend = armci::Backend::mpi;
    o.metrics = GetParam();
    armci::init(o);
    race_detector = mpisim::ctx().core().hb().enabled();
    // 64 x 64 doubles on a 2 x 2 process grid: 32 x 32 blocks. The patch
    // lies in block row 1 and crosses the column split, so ranks 2 and 3
    // own it and rank 0 reaches both over the network.
    const std::int64_t dims[] = {64, 64};
    GlobalArray g = GlobalArray::create("a", dims, ElemType::dbl);
    const double one = 1.0;
    g.fill(&one);
    if (mpisim::rank() == 0) {
      Patch patch;
      patch.lo = {40, 20};
      patch.hi = {50, 40};
      ASSERT_EQ(g.locate_region(patch).size(), 2u);
      std::vector<double> buf(static_cast<std::size_t>(patch.num_elems()));
      const double alpha = 1.0;
      for (int i = 0; i < kWarmup + kOps; ++i) {
        if (i == kWarmup) counting = true;
        armci::Request req = g.nb_get(patch, buf.data());
        armci::wait(req);
        g.acc(patch, buf.data(), &alpha);
      }
      counting = false;
      seen = allocs;
      g.get(patch, buf.data());
      sum = buf.front() + buf.back();
    }
    armci::barrier();
    g.destroy();
    armci::finalize();
  });
  // Each acc doubles the patch: 1 -> 2^(kWarmup + kOps).
  EXPECT_DOUBLE_EQ(sum, 2.0 * std::ldexp(1.0, kWarmup + kOps));
  // The happens-before detector (MPISIM_RMA_CHECK=race) records vector
  // clocks per access by design; the guard holds with it off.
  if (race_detector)
    GTEST_SKIP() << "happens-before race detector on: it allocates per access";
  EXPECT_EQ(seen, 0u) << "heap blocks over " << kOps
                      << " warm GA nb_get + wait + acc triples";
}

INSTANTIATE_TEST_SUITE_P(Metrics, ArmciAllocTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "MetricsOn" : "MetricsOff";
                         });

struct IovAllocCase {
  armci::Backend backend;
  armci::IovMethod method;
  const char* name;
};

class ArmciIovAllocTest : public ::testing::TestWithParam<IovAllocCase> {};

TEST_P(ArmciIovAllocTest, WarmIovOpsAllocateNothing) {
  if (!counter_in_effect())
    GTEST_SKIP() << "operator new replacement not in effect "
                    "(sanitizer runtime)";

  constexpr int kWarmup = 20;
  constexpr int kOps = 200;
  // 16 segments of 8 doubles, every other 64-byte slot of the target's
  // slice, so neither side's datatype is contiguous.
  constexpr std::size_t kSegs = 16;
  constexpr std::size_t kSegDoubles = 8;
  constexpr std::size_t kSegBytes = kSegDoubles * sizeof(double);
  mpisim::Config cfg;
  cfg.nranks = 4;
  cfg.platform = mpisim::Platform::infiniband;
  std::size_t seen = 0;
  double value = 0.0;
  bool race_detector = false;
  mpisim::run(cfg, [&] {
    armci::Options o;
    o.backend = GetParam().backend;
    o.iov_method = GetParam().method;
    armci::init(o);
    race_detector = mpisim::ctx().core().hb().enabled();
    std::vector<void*> bases = armci::malloc_world(2 * kSegs * kSegBytes);
    armci::barrier();
    if (mpisim::rank() == 0) {
      // Rank 2 shares rank 0's node (8 InfiniBand ranks per node):
      // ARMCI-MPI still goes through its window, ARMCI-MPI3 takes the
      // direct shared-memory path.
      auto* remote = static_cast<std::uint8_t*>(bases[2]);
      std::vector<double> local(kSegs * kSegDoubles, 1.0);
      armci::Giov to_remote;
      armci::Giov from_remote;
      to_remote.bytes = from_remote.bytes = kSegBytes;
      for (std::size_t i = 0; i < kSegs; ++i) {
        void* l = local.data() + i * kSegDoubles;
        void* r = remote + 2 * i * kSegBytes;
        to_remote.src.push_back(l);
        to_remote.dst.push_back(r);
        from_remote.src.push_back(r);
        from_remote.dst.push_back(l);
      }
      const std::span<const armci::Giov> put(&to_remote, 1);
      const std::span<const armci::Giov> get(&from_remote, 1);
      const double one = 1.0;
      // Each pass doubles every local value twice: put, acc and get leave
      // 2x local behind, once blocking and once nonblocking.
      for (int i = 0; i < kWarmup + kOps; ++i) {
        if (i == kWarmup) counting = true;
        armci::put_iov(put, 2);
        armci::acc_iov(armci::AccType::float64, &one, put, 2);
        armci::get_iov(get, 2);
        armci::Request req = armci::nb_put_iov(put, 2);
        armci::wait(req);
        req = armci::nb_acc_iov(armci::AccType::float64, &one, put, 2);
        armci::wait(req);
        req = armci::nb_get_iov(get, 2);
        armci::wait(req);
      }
      counting = false;
      seen = allocs;
      value = local.back();
    }
    armci::barrier();
    armci::free(bases[static_cast<std::size_t>(mpisim::rank())]);
    armci::finalize();
  });
  EXPECT_DOUBLE_EQ(value, std::ldexp(1.0, 2 * (kWarmup + kOps)));
  if (race_detector)
    GTEST_SKIP() << "happens-before race detector on: it allocates per access";
  EXPECT_EQ(seen, 0u) << "heap blocks over " << kOps
                      << " warm passes of blocking and nb IOV put, acc, get";
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ArmciIovAllocTest,
    ::testing::Values(
        IovAllocCase{armci::Backend::mpi, armci::IovMethod::auto_, "MpiAuto"},
        IovAllocCase{armci::Backend::mpi, armci::IovMethod::batched,
                     "MpiBatched"},
        IovAllocCase{armci::Backend::mpi3, armci::IovMethod::auto_,
                     "Mpi3Auto"}),
    [](const auto& info) { return std::string(info.param.name); });

class ArmciStagedAllocTest : public ::testing::TestWithParam<IovAllocCase> {};

TEST_P(ArmciStagedAllocTest, WarmStagedOpsAllocateNothing) {
  if (!counter_in_effect())
    GTEST_SKIP() << "operator new replacement not in effect "
                    "(sanitizer runtime)";

  constexpr int kWarmup = 20;
  constexpr int kOps = 200;
  constexpr std::size_t kSegs = 16;
  constexpr std::size_t kSegDoubles = 8;
  constexpr std::size_t kSegBytes = kSegDoubles * sizeof(double);
  constexpr std::size_t kBytes = kSegs * kSegBytes;
  // Two InfiniBand nodes of 8 ranks: rank 8 is on the other node, so every
  // op from rank 0 goes over the network, on MPI-3 too.
  constexpr int kTarget = 8;
  mpisim::Config cfg;
  cfg.nranks = 16;
  cfg.platform = mpisim::Platform::infiniband;
  std::size_t seen = 0;
  std::vector<double> result;
  bool race_detector = false;
  mpisim::run(cfg, [&] {
    armci::Options o;
    o.backend = GetParam().backend;
    o.iov_method = GetParam().method;
    armci::init(o);
    race_detector = mpisim::ctx().core().hb().enabled();
    // Each slice: a packed source, a packed destination, then room for 16
    // segments in every other 64-byte slot.
    std::vector<void*> bases = armci::malloc_world(4 * kBytes);
    auto* mine = static_cast<std::uint8_t*>(
        bases[static_cast<std::size_t>(mpisim::rank())]);
    armci::access_begin(mine);
    std::fill_n(reinterpret_cast<double*>(mine), kBytes / sizeof(double), 1.0);
    armci::access_end(mine);
    armci::barrier();
    if (mpisim::rank() == 0) {
      // Both local buffers are in rank 0's own global slice, so ARMCI-MPI
      // stages every op (§V-E1); the accumulates scale by 2.
      std::uint8_t* src = mine;
      std::uint8_t* dst = mine + kBytes;
      auto* remote = static_cast<std::uint8_t*>(bases[kTarget]) + 2 * kBytes;
      armci::Giov to_remote;
      armci::Giov from_remote;
      to_remote.bytes = from_remote.bytes = kSegBytes;
      for (std::size_t i = 0; i < kSegs; ++i) {
        to_remote.src.push_back(src + i * kSegBytes);
        to_remote.dst.push_back(remote + 2 * i * kSegBytes);
        from_remote.src.push_back(remote + 2 * i * kSegBytes);
        from_remote.dst.push_back(dst + i * kSegBytes);
      }
      const std::span<const armci::Giov> put(&to_remote, 1);
      const std::span<const armci::Giov> get(&from_remote, 1);
      armci::StridedSpec out;  // packed local rows -> every other slot
      out.stride_levels = 1;
      out.count = {kSegBytes, kSegs};
      out.src_strides = {kSegBytes};
      out.dst_strides = {2 * kSegBytes};
      armci::StridedSpec in = out;
      std::swap(in.src_strides, in.dst_strides);
      const double two = 2.0;
      // Every form leaves 1 + 2 * 1 = 3 in each destination double.
      for (int i = 0; i < kWarmup + kOps; ++i) {
        if (i == kWarmup) counting = true;
        armci::put(src, remote, kBytes, kTarget);
        armci::acc(armci::AccType::float64, &two, src, remote, kBytes, kTarget);
        armci::get(remote, dst, kBytes, kTarget);
        armci::put_iov(put, kTarget);
        armci::acc_iov(armci::AccType::float64, &two, put, kTarget);
        armci::get_iov(get, kTarget);
        armci::put_strided(src, remote, out, kTarget);
        armci::acc_strided(armci::AccType::float64, &two, src, remote, out, kTarget);
        armci::get_strided(remote, dst, in, kTarget);
      }
      counting = false;
      seen = allocs;
      armci::access_begin(mine);
      const auto* d = reinterpret_cast<const double*>(dst);
      result.assign(d, d + kBytes / sizeof(double));
      armci::access_end(mine);
    }
    armci::barrier();
    armci::free(bases[static_cast<std::size_t>(mpisim::rank())]);
    armci::finalize();
  });
  EXPECT_EQ(result, std::vector<double>(kBytes / sizeof(double), 3.0));
  if (race_detector)
    GTEST_SKIP() << "happens-before race detector on: it allocates per access";
  EXPECT_EQ(seen, 0u) << "heap blocks over " << kOps
                      << " warm passes of staged contiguous, IOV and strided "
                         "put, scaled acc, get";
}

INSTANTIATE_TEST_SUITE_P(
    Methods, ArmciStagedAllocTest,
    ::testing::Values(
        IovAllocCase{armci::Backend::mpi, armci::IovMethod::auto_, "MpiAuto"},
        IovAllocCase{armci::Backend::mpi, armci::IovMethod::batched,
                     "MpiBatched"},
        IovAllocCase{armci::Backend::mpi3, armci::IovMethod::auto_,
                     "Mpi3Auto"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ga
