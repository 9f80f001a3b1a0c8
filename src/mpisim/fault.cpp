#include "src/mpisim/fault.hpp"

#include <cstring>
#include <string>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace mpisim {

void FaultInjector::configure(const FaultPlan& plan, int rank, SimCore* core,
                              Tracer* tracer) {
  rank_ = rank;
  enabled_ = plan.enabled();
  core_ = core;
  tracer_ = tracer;
  survivable_ = plan.survivable;

  // Decorrelate the per-rank streams: rank 0 with seed S must not replay
  // rank 1's draws with seed S - 1. Seeded even for disabled plans so
  // draw_unit() consumers (retry jitter) stay deterministic.
  rng_ = plan.seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(
                                                  rank) + 1));
  if (!enabled_) return;

  crash_at_ns_ = -1.0;
  for (const RankCrashSpec& c : plan.crashes) {
    if (c.rank == rank && (crash_at_ns_ < 0.0 || c.at_ns < crash_at_ns_))
      crash_at_ns_ = c.at_ns;
  }

  rate_ = plan.transient.rate;
  fail_count_ = plan.transient.fail_count > 0 ? plan.transient.fail_count : 1;
  stall_ns_ = plan.transient.stall_ns;
  site_ = plan.transient.site;
  skip_ = plan.transient.skip > 0 ? plan.transient.skip : 0;
  bounded_bursts_ = plan.transient.max_bursts > 0;
  max_bursts_ = plan.transient.max_bursts;
  pending_failures_ = 0;

  delay_rate_ = plan.delay_rate;
  delay_ns_ = plan.delay_ns;
  lock_stall_rate_ = plan.lock_stall_rate;
  lock_stall_ns_ = plan.lock_stall_ns;
  transients_ = 0;
}

std::uint64_t FaultInjector::next_u64() noexcept {
  // splitmix64 (Steele et al.): tiny, full-period, and seedable per rank.
  std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double FaultInjector::next_unit() noexcept {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void FaultInjector::fault_point_slow(const SimClock& clock) {
  if (crash_at_ns_ < 0.0 || clock.now_ns() < crash_at_ns_) return;
  const std::string when =
      armed_ ? "armed" : "scheduled at " + std::to_string(crash_at_ns_) + " ns";
  crash_at_ns_ = -1.0;  // crash exactly once
  if (tracer_ != nullptr) {
    tracer_->begin(TraceCat::fault, "fault.crash",
                   static_cast<std::uint64_t>(rank_));
    tracer_->end(TraceCat::fault, "fault.crash",
                 static_cast<std::uint64_t>(rank_));
  }
  // Survivable mode: record the death in the core *before* unwinding, so
  // peers blocked on this rank wake with Errc::crashed instead of waiting
  // for the victim's fiber to exit.
  if (survivable_ && core_ != nullptr)
    core_->rank_crashed(rank_, clock.now_ns());
  throw MpiError(Errc::crashed,
                 "rank " + std::to_string(rank_) +
                     " crashed by fault plan (" + when + ", fired at " +
                     std::to_string(clock.now_ns()) + " ns)");
}

void FaultInjector::maybe_transient_slow(SimClock& clock, const char* site) {
  if (site_ != nullptr && std::strcmp(site_, site) != 0) return;
  if (pending_failures_ == 0) {
    if (skip_ > 0) {
      --skip_;
      return;
    }
    if (bounded_bursts_ && max_bursts_ == 0) return;  // allowance spent
    if (next_unit() >= rate_) return;
    if (bounded_bursts_) --max_bursts_;
    pending_failures_ = fail_count_;
    if (tracer_ != nullptr) {
      tracer_->begin(TraceCat::fault, "fault.transient_burst",
                     static_cast<std::uint64_t>(fail_count_));
      tracer_->end(TraceCat::fault, "fault.transient_burst",
                   static_cast<std::uint64_t>(fail_count_));
    }
  }
  --pending_failures_;
  ++transients_;
  clock.advance(stall_ns_);
  throw MpiError(Errc::transient,
                 std::string(site) + ": transient fault injected on rank " +
                     std::to_string(rank_) + " (" +
                     std::to_string(pending_failures_) +
                     " more before success)");
}

double FaultInjector::draw_delivery_delay_ns() {
  if (!enabled_ || delay_rate_ <= 0.0) return 0.0;
  return next_unit() < delay_rate_ ? delay_ns_ : 0.0;
}

double FaultInjector::draw_lock_stall_ns() {
  if (!enabled_ || lock_stall_rate_ <= 0.0) return 0.0;
  return next_unit() < lock_stall_rate_ ? lock_stall_ns_ : 0.0;
}

}  // namespace mpisim
