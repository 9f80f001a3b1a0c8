// Dynamic load balancing with a shared atomic counter -- the "nxtval"
// pattern NWChem uses over GA/ARMCI (paper §IV-A, §VII-D): tasks of wildly
// different sizes are claimed one-by-one from a fetch-and-add counter, so
// fast processes automatically take more tasks. Also demonstrates ARMCI
// mutexes (the Latham queueing algorithm, §V-D) protecting a shared
// accumulator that fetch-and-add alone could not update.
//
//     ./build/examples/dynamic_load_balance

#include <cstdio>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

int main() {
  mpisim::run(8, mpisim::Platform::infiniband, [] {
    armci::init({});

    // A shared counter hands out task ids; a mutex-protected global cell
    // collects a result that needs read-modify-write.
    ga::AtomicCounter counter = ga::AtomicCounter::create();
    std::vector<void*> accum = armci::malloc_world(sizeof(double));
    if (mpisim::rank() == 0) *static_cast<double*>(accum[0]) = 0.0;
    armci::create_mutexes(1);
    armci::barrier();

    // Tasks are claimed in virtual-clock order (mpisim::pace()) so the
    // modeled balance -- not host-thread scheduling -- decides who gets
    // what: processes whose previous task was short claim again sooner.
    const std::int64_t ntasks = 64;
    std::int64_t my_tasks = 0;
    double my_sum = 0.0;
    for (std::int64_t t = 0; (mpisim::pace(), t = counter.next()) < ntasks;) {
      // Task t: "work" proportional to t (simulated via the virtual clock).
      mpisim::clock().advance(1000.0 * static_cast<double>(t + 1));  // ns
      my_sum += static_cast<double>(t * t);
      ++my_tasks;
    }

    // Fold the partial result into the global accumulator under the mutex
    // (get-modify-put is not atomic by itself).
    armci::lock(0, 0);
    double v = 0.0;
    armci::get(accum[0], &v, sizeof v, 0);
    v += my_sum;
    armci::put(&v, accum[0], sizeof v, 0);
    armci::fence(0);
    armci::unlock(0, 0);
    armci::barrier();

    std::printf("[rank %d] claimed %ld of %ld tasks\n", mpisim::rank(),
                static_cast<long>(my_tasks), static_cast<long>(ntasks));
    if (mpisim::rank() == 0) {
      const double total = *static_cast<double*>(accum[0]);
      const double expect = 63.0 * 64.0 * 127.0 / 6.0;  // sum of t^2
      std::printf("[rank 0] global sum %.0f (expected %.0f)\n", total,
                  expect);
    }

    armci::destroy_mutexes();
    armci::free(accum[static_cast<std::size_t>(mpisim::rank())]);
    counter.destroy();
    armci::finalize();
  });
  std::puts("dynamic_load_balance: OK");
  return 0;
}
