// Allocation guard for the warm RMA path: once warmed up, a GA nb_get +
// wait of a 2-D patch spanning two owners, and a GA acc of the same patch,
// allocate no heap block at all -- not in GA (cached owner blocks and
// strides, a reused intersect buffer and strided descriptor), not in ARMCI
// (engine scratch, tickets inside the request, the datatype cache's reused
// key) and not in mpisim (reused segment lists, shared basic types, reused
// epoch and registration records). 4 ranks on InfiniBand over ARMCI-MPI,
// RMA checker on. This binary replaces the global operator new/delete
// (forwarding to malloc/free) to count blocks, so it is kept apart from the
// other test executables.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
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

class ArmciAllocTest : public ::testing::TestWithParam<bool> {};

TEST_P(ArmciAllocTest, WarmGaNbGetAndAccAllocateNothing) {
  // The counter must see this binary's own allocations; a sanitizer
  // runtime that keeps its own operator new would leave it blind.
  allocs = 0;
  counting = true;
  ::operator delete(::operator new(16));
  counting = false;
  if (allocs != 1)
    GTEST_SKIP() << "operator new replacement not in effect "
                    "(sanitizer runtime)";
  allocs = 0;

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

}  // namespace
}  // namespace ga
