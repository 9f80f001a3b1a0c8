#include "src/mpisim/pacer.hpp"

#include <limits>
#include <vector>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace mpisim {

namespace detail {

struct PacerImpl {
  Comm comm;
  // Guarded by the simulator's global lock.
  std::vector<double> clocks;
  std::vector<bool> active;
  // Generation barrier for enter(): a fast rank may pace and leave() again
  // before slow ranks observe the rendezvous, so "everyone active" is not
  // a stable predicate -- the generation count is.
  int arrived = 0;
  std::uint64_t generation = 0;
};

}  // namespace detail

using detail::PacerImpl;

namespace {

/// Minimum clock of the ranks inside the region. Caller holds the global
/// lock.
double min_active_clock(const PacerImpl& p) {
  double min_clock = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < p.clocks.size(); ++r)
    if (p.active[r]) min_clock = std::min(min_clock, p.clocks[r]);
  return min_clock;
}

}  // namespace

Pacer::Pacer(std::shared_ptr<PacerImpl> impl) : impl_(std::move(impl)) {}

Pacer Pacer::create(const Comm& comm) {
  const int n = comm.size();
  const NetworkModel& nm = comm.impl()->core->model();
  std::shared_ptr<PacerImpl> impl;
  // One round, charged as the broadcast from rank 0 and the barrier it
  // replaces; the last member to arrive builds the region descriptor.
  const bool root_dead = comm.collective_round(
      nullptr, &impl, 0,
      nm.tree_collective_ns(sizeof(std::uint64_t), n) + nm.barrier_ns(n),
      [&](CollCtx& cc, const Group&) {
        if (cc.outbufs[0] == nullptr) {  // comm rank 0 is dead
          cc.dep_dead = true;
          return;
        }
        auto p = std::make_shared<PacerImpl>();
        p->comm = comm;
        p->clocks.assign(static_cast<std::size_t>(n), 0.0);
        p->active.assign(static_cast<std::size_t>(n), false);
        cc.hand_out(p);
      });
  if (root_dead) comm.raise_dead_root(0, "pacer.create");
  return Pacer(std::move(impl));
}

void Pacer::enter() {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  const auto me = static_cast<std::size_t>(p.comm.rank());
  std::unique_lock lk(core.mu());
  p.active[me] = true;
  p.clocks[me] = ctx().clock().now_ns();
  // Rendezvous: without it, the first rank to enter would see only itself
  // active, consider itself the minimum, and race ahead of the region.
  const std::uint64_t my_gen = p.generation;
  if (++p.arrived == p.comm.size()) {
    p.arrived = 0;
    ++p.generation;
    core.wake_locked(p.comm.group().members());
  } else {
    core.wait(lk, [&] { return p.generation != my_gen; }, "pacer.enter");
  }
}

void Pacer::pace(double window_ns) {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  RankContext& rc = ctx();
  const auto me = static_cast<std::size_t>(p.comm.rank());

  std::unique_lock lk(core.mu());
  require_internal(p.active[me], "Pacer::pace outside enter/leave");
  // Clocks only move forward, so the region minimum -- the one input of a
  // peer's pace predicate that this call changes -- can rise only if this
  // rank held it. Otherwise no peer can unblock and none is woken.
  const bool held_min = p.clocks[me] <= min_active_clock(p);
  p.clocks[me] = rc.clock().now_ns();
  core.note_time_locked(rc.clock().now_ns());
  if (held_min) core.wake_locked(p.comm.group().members());
  core.wait(lk, [&] { return p.clocks[me] <= min_active_clock(p) + window_ns; },
            "pacer.pace");
}

void Pacer::leave() {
  PacerImpl& p = *impl_;
  SimCore& core = *p.comm.impl()->core;
  const auto me = static_cast<std::size_t>(p.comm.rank());
  std::lock_guard lk(core.mu());
  p.active[me] = false;
  core.wake_locked(p.comm.group().members());
}

}  // namespace mpisim
