#ifndef MPISIM_PACER_HPP
#define MPISIM_PACER_HPP

/// \file pacer.hpp
/// Virtual-time pacing for dynamically load-balanced loops.
///
/// Work distribution in a dynamically load-balanced loop (shared-counter
/// task claiming) should be decided by the *modeled* clocks: a rank whose
/// virtual clock is ahead has, in the modeled execution, not yet finished
/// its current task and must not claim the next one early. Pacer provides
/// that ordering: inside an enter()/leave() region, pace() blocks the
/// calling rank while its virtual clock is ahead of the minimum clock of
/// all ranks still in the region (plus an optional window). The rank at the
/// minimum never blocks, so progress is guaranteed; the result is a
/// deterministic, virtually-balanced task assignment -- a lightweight
/// conservative parallel-discrete-event scheme for the task loop. The rank
/// scheduler (runtime.hpp) runs ranks in virtual-clock order but sees only
/// the runnable ones; Pacer also holds a claim back while a rank *blocked*
/// at an earlier virtual time (waiting for a lock or a reply) is still in
/// the region, which the scheduler alone would let pass.

#include <memory>

#include "src/mpisim/comm.hpp"

namespace mpisim {

namespace detail {
struct PacerImpl;
}

/// Value handle; collective create over a communicator.
class Pacer {
 public:
  Pacer() = default;

  /// Collective over \p comm: create a pacing region descriptor.
  static Pacer create(const Comm& comm);

  /// Join the paced region (publishes this rank's clock). Collective over
  /// the communicator: blocks until every member has entered, so no rank
  /// can start claiming work while peers are still outside the region.
  void enter();

  /// Block while this rank's virtual clock exceeds the minimum clock of
  /// all ranks currently in the region by more than \p window_ns.
  void pace(double window_ns = 0.0);

  /// Leave the region (this rank's clock no longer constrains others).
  void leave();

  bool valid() const noexcept { return impl_ != nullptr; }

 private:
  explicit Pacer(std::shared_ptr<detail::PacerImpl> impl);
  std::shared_ptr<detail::PacerImpl> impl_;
};

}  // namespace mpisim

#endif  // MPISIM_PACER_HPP
