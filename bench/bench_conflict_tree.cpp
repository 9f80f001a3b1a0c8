// Ablation A1 (paper §VI-B): IOV overlap detection cost -- the AVL
// conflict tree's O(N log N) check-and-insert versus the naive O(N^2)
// pairwise scan, over descriptor sizes up to NWChem scale (hundreds of
// thousands of segments). The flat IntervalSet, which holds the RMA
// checker's and nb queues' short-lived coverage, runs the same
// check-and-insert over the same segments for the trade-off: O(1) appends
// in address order, an O(N) shift per out-of-order insert. The checker
// points record one scattered put through the RMA checker itself, which
// visits its segments in offset order whatever order they arrive in. This
// is a real-wall-clock benchmark: the scan is local CPU work, not modeled
// communication.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "src/armci/iov.hpp"
#include "src/mpisim/checker.hpp"
#include "src/mpisim/interval_set.hpp"

namespace {

/// Record approximate wall time per iteration into the bench report (the
/// precise statistics remain google-benchmark's console/JSON output).
class WallPoint {
 public:
  WallPoint(const char* what, std::size_t n)
      : name_(std::string(what) + "/n:" + std::to_string(n)),
        start_(std::chrono::steady_clock::now()) {}

  void close(benchmark::IterationCount iters) {
    const std::chrono::duration<double> secs =
        std::chrono::steady_clock::now() - start_;
    if (iters > 0)
      bench::Reporter::instance().add_point(
          name_, secs.count() / static_cast<double>(iters), "s_per_iter");
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

std::vector<const void*> make_segments(std::size_t n, std::size_t bytes,
                                       bool shuffled) {
  std::vector<const void*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i)
    ptrs[i] = reinterpret_cast<const void*>(0x100000 + i * bytes * 2);
  if (shuffled) {
    std::mt19937_64 rng(12345);
    std::shuffle(ptrs.begin(), ptrs.end(), rng);
  }
  return ptrs;
}

void BM_ConflictTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/true);
  WallPoint point("ConflictTree", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

void BM_NaiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/true);
  WallPoint point("NaiveScan", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap_naive(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

/// iov_has_overlap() over the flat set: check, then record, each segment.
bool flat_has_overlap(const std::vector<const void*>& ptrs, std::size_t bytes) {
  mpisim::IntervalSet set;
  for (const void* p : ptrs) {
    const auto lo = reinterpret_cast<std::uintptr_t>(p);
    if (set.conflicts(lo, lo + bytes - 1)) return true;
    set.insert_merge(lo, lo + bytes - 1);
  }
  return false;
}

void BM_IntervalSet(benchmark::State& state, bool shuffled) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, shuffled);
  WallPoint point(shuffled ? "IntervalSet" : "IntervalSetSorted", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat_has_overlap(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

/// One put of n 64-byte segments, 64 bytes apart, recorded by the RMA
/// checker (abort mode) in one epoch: open, record, close.
void BM_CheckerScatter(benchmark::State& state, bool shuffled) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  std::vector<mpisim::Segment> segs(n);
  for (std::size_t i = 0; i < n; ++i)
    segs[i] = {static_cast<std::ptrdiff_t>(i * bytes * 2), bytes};
  if (shuffled) {
    std::mt19937_64 rng(12345);
    std::shuffle(segs.begin(), segs.end(), rng);
  }
  mpisim::RmaChecker checker(mpisim::RmaCheck::abort, 2);
  WallPoint point(shuffled ? "CheckerScatter" : "CheckerScatterSorted", n);
  for (auto _ : state) {
    checker.epoch_opened(1, 1, 0, /*exclusive=*/false, /*mpi3=*/false);
    checker.record_op(1, 1, 0, 0, mpisim::RmaChecker::OpKind::put,
                      mpisim::Op::replace, 0, segs, nullptr);
    checker.epoch_closing(1, 1, 0);
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

// Sorted (in-order) insertion: the adversarial case a non-balancing tree
// degrades on; the AVL tree must stay logarithmic.
void BM_ConflictTreeSorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t bytes = 64;
  const auto ptrs = make_segments(n, bytes, /*shuffled=*/false);
  WallPoint point("ConflictTreeSorted", n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(armci::iov_has_overlap(ptrs, bytes));
  }
  point.close(state.iterations());
  state.SetComplexityN(state.range(0));
}

}  // namespace

BENCHMARK(BM_ConflictTree)->RangeMultiplier(4)->Range(16, 1 << 17)
    ->Complexity(benchmark::oNLogN);
BENCHMARK(BM_ConflictTreeSorted)->RangeMultiplier(4)->Range(16, 1 << 17)
    ->Complexity(benchmark::oNLogN);
// The flat set stops at 2^16 segments: shuffled inserts are quadratic.
BENCHMARK_CAPTURE(BM_IntervalSet, shuffled, true)
    ->RangeMultiplier(4)->Range(16, 1 << 16)
    ->Complexity(benchmark::oNSquared);
BENCHMARK_CAPTURE(BM_IntervalSet, sorted, false)
    ->RangeMultiplier(4)->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);
BENCHMARK_CAPTURE(BM_CheckerScatter, shuffled, true)
    ->RangeMultiplier(4)->Range(16, 1 << 16)
    ->Complexity(benchmark::oNLogN);
BENCHMARK_CAPTURE(BM_CheckerScatter, sorted, false)
    ->RangeMultiplier(4)->Range(16, 1 << 16)
    ->Complexity(benchmark::oN);
// The naive scan is capped at 2^13 segments; beyond that the quadratic cost
// dominates the whole benchmark run (that is the point of the ablation).
BENCHMARK(BM_NaiveScan)->RangeMultiplier(4)->Range(16, 1 << 13)
    ->Complexity(benchmark::oNSquared);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  bench::write_report("bench_conflict_tree");
  benchmark::Shutdown();
  return 0;
}
