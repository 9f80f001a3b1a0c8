// Allocation guard for the active-message round trip: once warmed up, an
// rpc + wait pair -- request staging, serving, the reply and the handle's
// reply storage -- allocates no heap block of 1 KiB or more, and exactly
// two blocks of any size: the queued request's payload (the server has no
// receive posted for it) and the origin's posted reply receive. The reply
// itself is copied straight into that posted receive. This binary replaces
// the global operator new/delete (forwarding to malloc/free) to count
// blocks, so it is kept apart from the other test executables.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

constexpr std::size_t kLargeBytes = 1024;

// Ranks are fibers on one host thread: plain counters suffice.
bool counting = false;
std::size_t large_allocs = 0;
std::size_t all_allocs = 0;

void* counted_alloc(std::size_t bytes) {
  if (counting) ++all_allocs;
  if (counting && bytes >= kLargeBytes) ++large_allocs;
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

namespace am {
namespace {

TEST(AmAllocTest, WarmRpcRoundTripAllocatesNoLargeBlock) {
  // The counter must see this binary's own allocations; a sanitizer
  // runtime that keeps its own operator new would leave it blind.
  counting = true;
  ::operator delete(::operator new(kLargeBytes));
  counting = false;
  if (large_allocs != 1)
    GTEST_SKIP() << "operator new replacement not in effect "
                    "(sanitizer runtime)";
  large_allocs = 0;
  all_allocs = 0;

  constexpr int kWarmup = 100;
  constexpr int kPairs = 1000;
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = mpisim::Platform::infiniband;
  std::size_t seen = 0;
  std::size_t seen_all = 0;
  bool race_detector = false;
  mpisim::run(cfg, [&] {
    armci::init();
    am::init();
    std::uint64_t served = 0;
    const int h_inc = am::register_handler(
        [&](int, const void* a, std::size_t, void* r, std::size_t) {
          std::int64_t v = 0;
          std::memcpy(&v, a, sizeof v);
          ++v;
          std::memcpy(r, &v, sizeof v);
          ++served;
          return sizeof v;
        });
    armci::barrier();
    race_detector = mpisim::ctx().core().hb().enabled();
    if (mpisim::rank() == 0) {
      std::int64_t sum = 0;
      for (int i = 0; i < kWarmup + kPairs; ++i) {
        if (i == kWarmup) counting = true;
        const std::int64_t v = i;
        Handle h = rpc(1, h_inc, &v, sizeof v);
        h.wait();
        sum += h.reply_as<std::int64_t>() - v;
      }
      counting = false;
      seen = large_allocs;
      seen_all = all_allocs;
      EXPECT_EQ(sum, kWarmup + kPairs);
      // Release the server only now, so its teardown below is not counted.
      const std::int64_t v = 0;
      Handle h = rpc(1, h_inc, &v, sizeof v);
      h.wait();
    } else {
      poll_wait([&] { return served >= kWarmup + kPairs + 1; });
    }
    am::barrier();
    am::finalize();
    armci::finalize();
  });
  // The happens-before detector (MPISIM_RMA_CHECK=race) piggybacks a
  // vector clock on every message by design; the exact count holds with
  // it off.
  if (!race_detector)
    EXPECT_EQ(seen_all, 2u * kPairs)
        << "heap blocks of any size over " << kPairs
        << " warm rpc round trips";
  EXPECT_EQ(seen, 0u) << "heap blocks of >= " << kLargeBytes
                      << " bytes over " << kPairs << " warm rpc round trips";
}

}  // namespace
}  // namespace am
