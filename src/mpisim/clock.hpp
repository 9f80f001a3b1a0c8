#ifndef MPISIM_CLOCK_HPP
#define MPISIM_CLOCK_HPP

/// \file clock.hpp
/// Per-rank virtual clocks.
///
/// The simulator models performance in *virtual time*: every communication
/// action charges nanoseconds (per the active PlatformProfile) to the
/// initiating rank's SimClock, and synchronizing operations reconcile clocks
/// (a receive cannot complete before the matching send's timestamp plus the
/// modeled flight time; a barrier advances everyone to the max). Benchmarks
/// read elapsed virtual time instead of wall-clock time, which makes every
/// figure deterministic and independent of host load.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace mpisim {

/// A monotonically advancing virtual clock, owned by exactly one rank;
/// other ranks may only read a published snapshot. The rank scheduler
/// (runtime.hpp) reads every runnable rank's clock to pick the next one.
///
/// The clock doubles as the scheduling point for the rank's cooperative
/// progress engine: a hook installed with set_progress_hook() fires every
/// `interval_ns` of virtual *compute* time charged through
/// advance_compute(). Communication time the hook itself charges counts as
/// overlapped with the surrounding compute -- the clock absorbs
/// min(hook_delta, remaining_compute) of it (total elapsed approximates
/// max(compute, comm), the ideal-overlap model) and tracks both sides in
/// the progress_comm_ns()/progress_hidden_ns() gauges.
class SimClock {
 public:
  SimClock() = default;

  /// Current virtual time in nanoseconds since simulation start.
  double now_ns() const noexcept { return now_ns_; }

  /// Advance by a nonnegative delta (negative deltas are clamped to zero).
  /// Never fires the progress hook: plain advances happen inside backend
  /// code paths (often mid-way through a shared-state update) where
  /// re-entering the communication engine would deadlock.
  void advance(double delta_ns) noexcept {
    if (delta_ns > 0) now_ns_ += delta_ns;
  }

  /// Advance by \p delta_ns of application *compute* time, firing the
  /// progress hook at every `interval_ns` boundary crossed. Not noexcept:
  /// the hook runs user-visible communication and may throw (the compute
  /// charge and overlap accounting are completed before rethrowing).
  void advance_compute(double delta_ns) {
    if (!(delta_ns > 0)) return;
    if (!hook_ || in_hook_ || !(interval_ns_ > 0)) {
      advance(delta_ns);
      return;
    }
    double remaining = delta_ns;
    if (next_tick_ns_ <= now_ns_) next_tick_ns_ = now_ns_ + interval_ns_;
    while (remaining > 0) {
      const double to_tick = next_tick_ns_ - now_ns_;
      if (remaining < to_tick) {
        now_ns_ += remaining;
        return;
      }
      now_ns_ = next_tick_ns_;
      remaining -= to_tick;
      const double t0 = now_ns_;
      in_hook_ = true;
      try {
        hook_();
      } catch (...) {
        in_hook_ = false;
        hide(now_ns_ - t0, remaining);
        throw;
      }
      in_hook_ = false;
      hide(now_ns_ - t0, remaining);
    }
  }

  /// Install the per-rank progress hook (see advance_compute()). The hook
  /// must be re-entry safe at the call site; the clock itself suppresses
  /// recursive firing.
  void set_progress_hook(std::function<void()> hook, double interval_ns) {
    hook_ = std::move(hook);
    interval_ns_ = interval_ns;
    next_tick_ns_ = 0.0;
  }

  /// Remove the progress hook (rank teardown).
  void clear_progress_hook() noexcept {
    hook_ = nullptr;
    interval_ns_ = 0.0;
    next_tick_ns_ = 0.0;
  }

  /// Credit \p delta_ns of communication time driven by an explicit
  /// progress poke (armci::progress()) to the comm gauge. Not hidden:
  /// the poke ran in the caller's own time, not under compute.
  void note_progress_comm(double delta_ns) noexcept {
    if (delta_ns > 0) progress_comm_ns_ += delta_ns;
  }

  /// Communication virtual time charged from progress ticks and pokes.
  double progress_comm_ns() const noexcept { return progress_comm_ns_; }

  /// The subset of progress_comm_ns() that was absorbed into (hidden
  /// under) surrounding compute time. hidden/comm is overlap efficiency.
  double progress_hidden_ns() const noexcept { return progress_hidden_ns_; }

  /// Move forward to at least \p t_ns (never moves backward).
  void advance_to(double t_ns) noexcept { now_ns_ = std::max(now_ns_, t_ns); }

  /// Reset to zero (benchmark harness use only, between measurement phases).
  void reset() noexcept {
    now_ns_ = 0.0;
    next_tick_ns_ = 0.0;
    progress_comm_ns_ = 0.0;
    progress_hidden_ns_ = 0.0;
  }

 private:
  /// Account a progress tick that charged \p comm_ns: overlap it with the
  /// remaining compute budget and rebase the next tick boundary.
  void hide(double comm_ns, double& remaining) noexcept {
    next_tick_ns_ = now_ns_ + interval_ns_;
    if (comm_ns <= 0) return;
    progress_comm_ns_ += comm_ns;
    const double hidden = std::min(comm_ns, remaining);
    progress_hidden_ns_ += hidden;
    remaining -= hidden;
  }

  double now_ns_ = 0.0;
  std::function<void()> hook_;
  double interval_ns_ = 0.0;
  double next_tick_ns_ = 0.0;
  bool in_hook_ = false;
  double progress_comm_ns_ = 0.0;
  double progress_hidden_ns_ = 0.0;
};

/// Elapsed virtual seconds between two clock readings.
inline double elapsed_seconds(double start_ns, double end_ns) noexcept {
  return (end_ns - start_ns) * 1e-9;
}

}  // namespace mpisim

#endif  // MPISIM_CLOCK_HPP
