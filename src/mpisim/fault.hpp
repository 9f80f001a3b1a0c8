#ifndef MPISIM_FAULT_HPP
#define MPISIM_FAULT_HPP

/// \file fault.hpp
/// Deterministic fault injection for the simulated runtime.
///
/// A FaultPlan (part of Config) schedules rank crashes at virtual times and
/// parameterizes transient faults: delayed message delivery, lock-grant
/// stalls, and operations that fail N times before succeeding. Each rank
/// owns a FaultInjector seeded from (plan seed, rank), so a given plan
/// produces the *identical* fault sequence on every run -- chaos-test
/// failures reproduce from their printed seed. All randomness is drawn from
/// a private splitmix64 stream; wall-clock time is never consulted.
///
/// Fault sites are the runtime's communication entry points (send, recv,
/// collectives, window lock/unlock, RMA issue). A scheduled crash fires at
/// the first fault point at or after its virtual time; a crash armed by the
/// victim's own code (FaultInjector::arm_crash) fires at its next fault
/// point. Either raises Errc::crashed on the victim, with the victim's clock
/// as the death time; the runtime's abort propagation then wakes every
/// blocked peer with Errc::aborted. Transient faults raise
/// Errc::transient, which the ARMCI layer absorbs with bounded
/// retry-with-backoff (retry.hpp).

#include <cstdint>
#include <vector>

#include "src/mpisim/clock.hpp"

namespace mpisim {

class SimCore;
class Tracer;

/// Kill one rank at (or after) a virtual time.
struct RankCrashSpec {
  int rank = -1;        ///< victim world rank
  double at_ns = 0.0;   ///< earliest virtual time the crash may fire
};

/// N-times-then-succeed operation failures.
struct TransientFaultSpec {
  /// Probability that a faultable operation starts a failure burst.
  double rate = 0.0;
  /// Failures per burst: the op raises Errc::transient this many times,
  /// then the next attempt succeeds (assuming the caller retries).
  int fail_count = 1;
  /// Virtual time charged to the victim per failed attempt.
  double stall_ns = 0.0;
  /// Non-null: only fault points whose site name matches exactly are
  /// eligible; all other sites pass through untouched. Lets a regression
  /// test aim a deterministic fault at one operation (e.g. the k-th op of
  /// an MPI-3 nonblocking batch) without perturbing the rest of the run.
  const char* site = nullptr;
  /// Number of eligible consults to let through before the first burst may
  /// start (with rate = 1.0 this pinpoints exactly which consult fails).
  int skip = 0;
  /// > 0: total bursts allowed; later consults pass untouched once spent.
  /// Together with rate = 1.0 and skip this makes the (skip+1)-th consult
  /// fail exactly fail_count times and everything else succeed -- the
  /// retried operation itself would otherwise re-draw and fail forever.
  int max_bursts = 0;
};

/// Complete fault schedule for one run. Default-constructed plans are
/// disabled and cost one branch per fault point.
struct FaultPlan {
  /// Seed for every rank's private fault stream.
  std::uint64_t seed = 0;

  /// Scheduled rank crashes.
  std::vector<RankCrashSpec> crashes;

  /// Transient (retryable) operation failures.
  TransientFaultSpec transient;

  /// Probability that a message's delivery is delayed by delay_ns.
  double delay_rate = 0.0;
  double delay_ns = 0.0;

  /// Probability that a lock grant is stalled by lock_stall_ns.
  double lock_stall_rate = 0.0;
  double lock_stall_ns = 0.0;

  /// Survivable-failure mode: a crash, scheduled or armed, marks the victim
  /// dead in the core instead of tearing down the whole run. Blocked peers
  /// that depend on the dead rank observe Errc::crashed (after the detection
  /// period below) rather than the blanket Errc::aborted, collectives
  /// complete over the live members, and the layers above may recover
  /// (ULFM-style shrink/agree, ARMCI mutex reclaim, GA replica failover).
  /// Off by default: the victim's escaped exception aborts the run as
  /// before. Intentionally NOT part of enabled() -- survivable alone
  /// schedules no faults.
  bool survivable = false;

  /// Failure-detection period (virtual ns): how long after a rank's death
  /// any observer's clock is advanced before it may raise Errc::crashed
  /// about that rank. Models an eventually-perfect heartbeat detector
  /// piggybacked on the virtual clock without per-message heartbeats.
  double detect_period_ns = 1000.0;

  bool enabled() const noexcept {
    return !crashes.empty() || transient.rate > 0.0 || delay_rate > 0.0 ||
           lock_stall_rate > 0.0;
  }
};

/// Per-rank deterministic fault source. Owned by RankContext; all methods
/// must be called by the owning rank.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Bind this injector to \p rank's slice of \p plan. \p core (may be
  /// null in unit tests) receives the death notification when a survivable
  /// crash fires; \p tracer (may be null) gets fault-category trace events.
  void configure(const FaultPlan& plan, int rank, SimCore* core = nullptr,
                 Tracer* tracer = nullptr);

  bool enabled() const noexcept { return enabled_; }

  /// Crash fault point: raises Errc::crashed when this rank's scheduled
  /// crash time has been reached on \p clock.
  void fault_point(const SimClock& clock) {
    if (!enabled_) return;
    fault_point_slow(clock);
  }

  /// Crash this rank at its next fault point, whatever its clock reads
  /// there (the death time). Places a crash at a program point rather than
  /// a virtual time; works under any plan, a disabled one included.
  void arm_crash() noexcept {
    enabled_ = true;
    armed_ = true;
    crash_at_ns_ = 0.0;  // due at any clock: fires at the next fault point
  }

  /// Transient fault point: with plan probability, raises Errc::transient
  /// (charging the configured stall to \p clock) fail_count times in a row
  /// before letting the operation through. Named \p site for diagnostics.
  void maybe_transient(SimClock& clock, const char* site) {
    if (!enabled_ || rate_ <= 0.0) return;
    maybe_transient_slow(clock, site);
  }

  /// Extra delivery latency to add to the message being sent (ns; usually 0).
  double draw_delivery_delay_ns();

  /// Extra stall to charge after a lock grant (ns; usually 0).
  double draw_lock_stall_ns();

  /// Number of transient faults raised so far on this rank.
  std::uint64_t transients_raised() const noexcept { return transients_; }

  /// Uniform draw in [0, 1) from this rank's private stream. Seeded even
  /// when the plan is disabled, so deterministic consumers outside the
  /// injector (retry-backoff jitter) always have a stream to draw from.
  double draw_unit() noexcept { return next_unit(); }

 private:
  void fault_point_slow(const SimClock& clock);
  void maybe_transient_slow(SimClock& clock, const char* site);

  /// Next value of the private splitmix64 stream.
  std::uint64_t next_u64() noexcept;
  /// Uniform draw in [0, 1).
  double next_unit() noexcept;

  bool enabled_ = false;
  int rank_ = -1;
  std::uint64_t rng_ = 0;
  SimCore* core_ = nullptr;    ///< death sink for survivable crashes
  Tracer* tracer_ = nullptr;   ///< fault-event trace sink
  bool survivable_ = false;
  bool armed_ = false;  ///< the pending crash came from arm_crash()

  double crash_at_ns_ = -1.0;  ///< < 0: no crash scheduled for this rank

  double rate_ = 0.0;
  int fail_count_ = 1;
  double stall_ns_ = 0.0;
  const char* site_ = nullptr;  ///< non-null: transients hit this site only
  int skip_ = 0;                ///< eligible consults to pass before faulting
  int max_bursts_ = 0;          ///< > 0: bursts remaining; 0 once spent
  bool bounded_bursts_ = false;  ///< max_bursts was configured > 0
  int pending_failures_ = 0;  ///< remaining failures of the current burst

  double delay_rate_ = 0.0;
  double delay_ns_ = 0.0;
  double lock_stall_rate_ = 0.0;
  double lock_stall_ns_ = 0.0;

  std::uint64_t transients_ = 0;
};

}  // namespace mpisim

#endif  // MPISIM_FAULT_HPP
