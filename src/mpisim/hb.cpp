#include "src/mpisim/hb.hpp"

#include <algorithm>
#include <climits>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace mpisim {

namespace {

/// List lengths at which the shadow store starts compacting itself.
constexpr std::size_t kPruneThreshold = 8;
constexpr std::size_t kMergeThreshold = 16;

std::string byte_range(std::uintptr_t lo, std::uintptr_t hi) {
  // Inclusive storage back to the half-open form diagnostics use.
  return "bytes [" + std::to_string(lo) + ", " + std::to_string(hi + 1) + ")";
}

std::string space_name(std::uint64_t space) {
  if ((space & HbChecker::kNativeSpace) != 0)
    return "gmr " + std::to_string(space & ~HbChecker::kNativeSpace);
  return "win " + std::to_string(space);
}

std::string scope_suffix(const char* scope) {
  return scope != nullptr ? std::string(", in ") + scope : std::string();
}

bool is_acc_class(HbChecker::OpKind k) noexcept {
  return k == HbChecker::OpKind::acc || k == HbChecker::OpKind::get_acc;
}

/// Pairwise MPI conflict rule (as RmaChecker::conflict_with): only
/// read/read and compatible accumulate/accumulate overlap is blessed.
bool ops_conflict(HbChecker::OpKind k1, Op o1, HbChecker::OpKind k2, Op o2) {
  using OpKind = HbChecker::OpKind;
  if (k1 == OpKind::get && k2 == OpKind::get) return false;
  if (is_acc_class(k1) && is_acc_class(k2)) return !acc_ops_compatible(o1, o2);
  return true;
}

}  // namespace

const char* hb_race_name(HbRace c) noexcept {
  static constexpr const char* kNames[] = {MPISIM_HB_RACES(MPISIM_TABLE_NAME)};
  return table_name(kNames, c);
}

std::size_t HbChecker::Summary::interval_count() const noexcept {
  std::size_t n = reads.size() + writes.size();
  for (const auto& [o, tree] : accs) {
    (void)o;
    n += tree.size();
  }
  return n;
}

HbChecker::HbChecker(bool enabled, int nranks, std::size_t max_intervals)
    // Rows nranks..2*nranks-1 are the per-rank progress personas (see the
    // persona() section in hb.hpp); clock components span both halves.
    : enabled_(enabled),
      nranks_(nranks),
      max_intervals_(max_intervals),
      clocks_(static_cast<std::size_t>(2 * nranks),
              HbClock(static_cast<std::size_t>(2 * nranks), 0)),
      dead_(static_cast<std::size_t>(2 * nranks), 0),
      muted_(static_cast<std::size_t>(nranks), 0),
      per_rank_(static_cast<std::size_t>(2 * nranks)) {}

void HbChecker::tick(int world_rank) {
  auto& row = clocks_[static_cast<std::size_t>(world_rank)];
  ++row[static_cast<std::size_t>(world_rank)];
}

void HbChecker::join(HbClock& into, const HbClock& from) const {
  if (from.empty()) return;
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i)
    into[i] = std::max(into[i], from[i]);
}

bool HbChecker::ordered(const HbClock& vc, int world_rank) const {
  const HbClock& mine = clocks_[static_cast<std::size_t>(world_rank)];
  for (std::size_t i = 0; i < vc.size(); ++i)
    if (vc[i] > mine[i]) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Synchronization edges
// ---------------------------------------------------------------------------

HbClock HbChecker::send_snapshot(int world_src) {
  if (!enabled_) return {};
  tick(world_src);
  return clocks_[static_cast<std::size_t>(world_src)];
}

void HbChecker::recv_join(int world_dst, const HbClock& vc) {
  if (!enabled_ || vc.empty()) return;
  join(clocks_[static_cast<std::size_t>(world_dst)], vc);
}

void HbChecker::coll_arrive(HbClock& acc, int world_rank) {
  if (!enabled_) return;
  tick(world_rank);
  join(acc, clocks_[static_cast<std::size_t>(world_rank)]);
}

void HbChecker::coll_depart(int world_rank, const HbClock& acc) {
  if (!enabled_) return;
  join(clocks_[static_cast<std::size_t>(world_rank)], acc);
}

void HbChecker::channel_release(std::uint64_t key, int world_src) {
  if (!enabled_) return;
  tick(world_src);
  join(channels_[key], clocks_[static_cast<std::size_t>(world_src)]);
}

void HbChecker::channel_acquire(std::uint64_t key, int world_dst) {
  if (!enabled_) return;
  auto it = channels_.find(key);
  if (it == channels_.end()) return;
  join(clocks_[static_cast<std::size_t>(world_dst)], it->second);
}

void HbChecker::note_death(int world_rank) {
  if (!enabled_) return;
  if (world_rank >= 0 && world_rank < nranks_) {
    dead_[static_cast<std::size_t>(world_rank)] = 1;
    // The rank's progress persona dies with it.
    dead_[static_cast<std::size_t>(persona(world_rank))] = 1;
  }
}

void HbChecker::ack_deaths(int world_observer) {
  if (!enabled_) return;
  auto& mine = clocks_[static_cast<std::size_t>(world_observer)];
  for (int r = 0; r < 2 * nranks_; ++r)
    if (dead_[static_cast<std::size_t>(r)] != 0)
      join(mine, clocks_[static_cast<std::size_t>(r)]);
}

void HbChecker::persona_sync(int owner) {
  if (!enabled_) return;
  join(clocks_[static_cast<std::size_t>(persona(owner))],
       clocks_[static_cast<std::size_t>(owner)]);
}

void HbChecker::persona_retire(int owner) {
  if (!enabled_) return;
  join(clocks_[static_cast<std::size_t>(owner)],
       clocks_[static_cast<std::size_t>(persona(owner))]);
}

void HbChecker::record_local_pending(std::uint64_t space, int target,
                                     int origin, int world_origin, OpKind kind,
                                     Op op, std::ptrdiff_t lo,
                                     std::ptrdiff_t hi, const char* scope) {
  if (!enabled_ || muted(world_origin) || lo >= hi) return;
  Pending a;
  a.origin = origin;
  a.world_origin = world_origin;
  a.kind = kind;
  a.op = op;
  a.direct = false;
  a.lo = static_cast<std::uintptr_t>(lo);
  a.hi = static_cast<std::uintptr_t>(hi) - 1;
  a.scope = scope;
  // Deliberately no check(): the contract record itself races with
  // nothing at recording time (it mirrors an operation the application
  // just legally issued); conflicts fire when a later access checks
  // against it.
  spaces_[{space, target}].pending.push_back(a);
  ++intervals_;
}

// ---------------------------------------------------------------------------
// Epoch lifecycle
// ---------------------------------------------------------------------------

void HbChecker::lock_granted(std::uint64_t win, int target, int world_origin,
                             bool exclusive) {
  if (!enabled_) return;
  Slot& slot = spaces_[{win, target}].slot;
  auto& mine = clocks_[static_cast<std::size_t>(world_origin)];
  // Every grant waited for the last exclusive holder; an exclusive grant
  // waited for every shared holder too.
  join(mine, slot.excl);
  if (exclusive) join(mine, slot.shared_join);
}

void HbChecker::lock_released(std::uint64_t win, int target, int world_origin,
                              bool exclusive) {
  if (!enabled_) return;
  auto it = spaces_.find({win, target});
  if (it == spaces_.end()) return;
  TargetRec& t = it->second;
  publish(t, world_origin, exclusive ? "unlock" : "shared unlock");
  tick(world_origin);
  Slot& slot = t.slot;
  const HbClock& mine = clocks_[static_cast<std::size_t>(world_origin)];
  if (exclusive) {
    slot.excl = mine;
    slot.shared_join.clear();
  } else {
    join(slot.shared_join, mine);
  }
}

void HbChecker::epoch_flushed(std::uint64_t win, int target,
                              int world_origin) {
  if (!enabled_) return;
  auto it = spaces_.find({win, target});
  if (it == spaces_.end()) return;
  publish(it->second, world_origin, "flush");
}

void HbChecker::epoch_abandoned(std::uint64_t win, int target,
                                int world_origin) {
  if (!enabled_) return;
  auto it = spaces_.find({win, target});
  if (it == spaces_.end()) return;
  auto& pending = it->second.pending;
  // The dead origin's in-flight accesses never completed; survivors must
  // not be charged with races against them (checker.hpp epoch_abandoned).
  for (auto pit = pending.begin(); pit != pending.end();) {
    if (pit->world_origin == world_origin) {
      --intervals_;
      pit = pending.erase(pit);
    } else {
      ++pit;
    }
  }
}

void HbChecker::window_freed(std::uint64_t win) {
  if (!enabled_) return;
  auto it = spaces_.lower_bound({win, INT_MIN});
  while (it != spaces_.end() && it->first.first == win) {
    intervals_ -= it->second.pending.size();
    for (const Summary& s : it->second.summaries)
      intervals_ -= s.interval_count();
    it = spaces_.erase(it);
  }
}

// ---------------------------------------------------------------------------
// Access recording
// ---------------------------------------------------------------------------

namespace {

std::string kind_desc(HbChecker::OpKind kind, Op op, bool direct) {
  using OpKind = HbChecker::OpKind;
  if (direct) {
    if (kind == OpKind::put) return "direct store to";
    if (kind == OpKind::get) return "direct load of";
    return std::string("cpu-atomic accumulate(") + op_name(op) + ") on";
  }
  switch (kind) {
    case OpKind::put: return "put to";
    case OpKind::get: return "get of";
    case OpKind::acc:
      return std::string("accumulate(") + op_name(op) + ") on";
    case OpKind::get_acc:
      return std::string("get_accumulate(") + op_name(op) + ") on";
  }
  return "access to";
}

}  // namespace

std::string HbChecker::rank_desc(int world) const {
  if (world >= nranks_)
    return "rank " + std::to_string(world - nranks_) + "'s progress persona";
  return "rank " + std::to_string(world);
}

void HbChecker::check(const TargetRec& t, std::uint64_t space, int target,
                      const Pending& a) {
  const std::string what =
      rank_desc(a.world_origin) + "'s " +
      kind_desc(a.kind, a.op, a.direct) + " " + byte_range(a.lo, a.hi) +
      " in rank " + std::to_string(target) + "'s slice of " +
      space_name(space) + scope_suffix(a.scope);

  // (a) In-flight accesses by other origins: no synchronization edge can
  // order an operation that has not been completed yet -- the missing
  // flush/unlock IS the race, regardless of clocks.
  for (const Pending& p : t.pending) {
    if (p.world_origin == a.world_origin) continue;
    if (p.hi < a.lo || a.hi < p.lo) continue;
    if (!ops_conflict(a.kind, a.op, p.kind, p.op)) continue;
    HbRace cls;
    if (dead_[static_cast<std::size_t>(p.world_origin)] != 0)
      cls = HbRace::dead_origin;
    else if (a.direct || p.direct)
      cls = HbRace::shm;
    else if (is_acc_class(a.kind) || is_acc_class(p.kind))
      cls = HbRace::acc_mix;
    else if (a.kind == OpKind::put && p.kind == OpKind::put)
      cls = HbRace::ww;
    else
      cls = HbRace::rw;
    report(cls, a.world_origin,
           what + " races with " + rank_desc(p.world_origin) +
               "'s in-flight " + kind_desc(p.kind, p.op, p.direct) + " " +
               byte_range(p.lo, p.hi) + scope_suffix(p.scope) +
               "; missing edge: the prior operation was never completed by "
               "a flush or unlock that happens-before this access");
  }

  // (b) Published summaries the accessor has not synchronized with.
  for (const Summary& s : t.summaries) {
    if (s.world_origin == a.world_origin) continue;
    if (ordered(s.vc, a.world_origin)) continue;
    std::uintptr_t olo = 0;
    std::uintptr_t ohi = 0;
    const char* prior_kind = nullptr;
    Op prior_op = Op::sum;
    bool prior_write = false;
    bool prior_acc = false;
    if (a.kind != OpKind::get && s.reads.overlapping(a.lo, a.hi, &olo, &ohi)) {
      prior_kind = "get of";
    } else if (s.writes.overlapping(a.lo, a.hi, &olo, &ohi)) {
      prior_kind = "put to";
      prior_write = true;
    } else {
      for (const auto& [o, tree] : s.accs) {
        if (!ops_conflict(a.kind, a.op, OpKind::acc, o)) continue;
        if (tree.overlapping(a.lo, a.hi, &olo, &ohi)) {
          prior_kind = "accumulate on";
          prior_op = o;
          prior_acc = true;
          break;
        }
      }
    }
    if (prior_kind == nullptr) continue;
    const bool prior_dead =
        dead_[static_cast<std::size_t>(s.world_origin)] != 0;
    HbRace cls;
    if (prior_dead)
      cls = HbRace::dead_origin;
    else if (a.direct || s.any_direct)
      cls = HbRace::shm;
    else if (prior_acc || is_acc_class(a.kind))
      cls = HbRace::acc_mix;
    else if (a.kind == OpKind::put && prior_write)
      cls = HbRace::ww;
    else
      cls = HbRace::rw;
    std::string msg =
        what + " races with " + rank_desc(s.world_origin) +
        "'s " + prior_kind + " " + byte_range(olo, ohi) + " (epoch #" +
        std::to_string(s.id) + ", published at " + s.how +
        scope_suffix(s.scope) + ")";
    if (prior_acc) msg += " [op " + std::string(op_name(prior_op)) + "]";
    if (prior_dead)
      msg += "; missing edge: the origin died and no failure_ack/agree/"
             "shrink recovery edge precedes this access";
    else
      msg += "; missing edge: no synchronization (message, collective, lock "
             "handoff, or notify) from that publication to rank " +
             std::to_string(a.world_origin) + " before this access";
    report(cls, a.world_origin, std::move(msg));
  }
}

void HbChecker::record_op(std::uint64_t space, int target, int origin,
                          int world_origin, OpKind kind, Op op,
                          std::ptrdiff_t lo, std::ptrdiff_t hi,
                          const char* scope) {
  if (!enabled_ || muted(world_origin) || lo >= hi) return;
  Pending a;
  a.origin = origin;
  a.world_origin = world_origin;
  a.kind = kind;
  a.op = op;
  a.direct = false;
  a.lo = static_cast<std::uintptr_t>(lo);
  a.hi = static_cast<std::uintptr_t>(hi) - 1;
  a.scope = scope;
  TargetRec& t = spaces_[{space, target}];
  check(t, space, target, a);
  t.pending.push_back(a);
  ++intervals_;
}

void HbChecker::direct_op(std::uint64_t space, int target, int origin,
                          int world_origin, OpKind kind, Op op,
                          std::ptrdiff_t lo, std::ptrdiff_t hi,
                          const char* scope) {
  if (!enabled_ || muted(world_origin) || lo >= hi) return;
  Pending a;
  a.origin = origin;
  a.world_origin = world_origin;
  a.kind = kind;
  a.op = op;
  a.direct = true;
  a.lo = static_cast<std::uintptr_t>(lo);
  a.hi = static_cast<std::uintptr_t>(hi) - 1;
  a.scope = scope;
  TargetRec& t = spaces_[{space, target}];
  check(t, space, target, a);
  // The operation completes within one critical section: publish it
  // immediately with the origin's clock at this instant. It never enters
  // the pending set, so a held-open access by the same origin over the
  // same bytes stays pending.
  publish_one(t, a, "direct access");
}

void HbChecker::access_begin(std::uint64_t space, int target, int origin,
                             int world_origin, bool write, std::ptrdiff_t lo,
                             std::ptrdiff_t hi, const char* scope) {
  if (!enabled_ || muted(world_origin) || lo >= hi) return;
  Pending a;
  a.origin = origin;
  a.world_origin = world_origin;
  a.kind = write ? OpKind::put : OpKind::get;
  a.op = Op::sum;
  a.direct = true;
  a.lo = static_cast<std::uintptr_t>(lo);
  a.hi = static_cast<std::uintptr_t>(hi) - 1;
  a.scope = scope;
  TargetRec& t = spaces_[{space, target}];
  check(t, space, target, a);
  t.pending.push_back(a);
  ++intervals_;
}

void HbChecker::access_end(std::uint64_t space, int target, int world_origin,
                           std::ptrdiff_t lo) {
  if (!enabled_ || muted(world_origin)) return;
  auto it = spaces_.find({space, target});
  if (it == spaces_.end()) return;
  TargetRec& t = it->second;
  const auto ulo = static_cast<std::uintptr_t>(lo);
  for (auto pit = t.pending.begin(); pit != t.pending.end(); ++pit) {
    if (pit->direct && pit->world_origin == world_origin && pit->lo == ulo) {
      const Pending a = *pit;
      t.pending.erase(pit);
      --intervals_;
      publish_one(t, a, "access-end");
      return;
    }
  }
}

void HbChecker::publish(TargetRec& t, int world_origin, const char* how) {
  bool any = false;
  for (const Pending& p : t.pending)
    if (!p.direct && p.world_origin == world_origin) {
      any = true;
      break;
    }
  if (!any) return;
  tick(world_origin);
  Summary s;
  s.id = next_id_++;
  s.world_origin = world_origin;
  s.how = how;
  s.vc = clocks_[static_cast<std::size_t>(world_origin)];
  for (auto pit = t.pending.begin(); pit != t.pending.end();) {
    if (pit->direct || pit->world_origin != world_origin) {
      ++pit;
      continue;
    }
    s.origin = pit->origin;
    if (pit->scope != nullptr) s.scope = pit->scope;
    switch (pit->kind) {
      case OpKind::get:
        s.reads.insert_coalesce(pit->lo, pit->hi);
        break;
      case OpKind::put:
        s.writes.insert_coalesce(pit->lo, pit->hi);
        break;
      case OpKind::acc:
      case OpKind::get_acc:
        s.accs[pit->op].insert_coalesce(pit->lo, pit->hi);
        break;
    }
    --intervals_;
    pit = t.pending.erase(pit);
  }
  intervals_ += s.interval_count();
  t.summaries.push_back(std::move(s));
  bound_memory(t, world_origin);
}

void HbChecker::publish_one(TargetRec& t, const Pending& a,
                            const char* how) {
  tick(a.world_origin);
  Summary s;
  s.id = next_id_++;
  s.origin = a.origin;
  s.world_origin = a.world_origin;
  s.any_direct = a.direct;
  s.how = how;
  s.scope = a.scope;
  s.vc = clocks_[static_cast<std::size_t>(a.world_origin)];
  switch (a.kind) {
    case OpKind::get:
      s.reads.insert_coalesce(a.lo, a.hi);
      break;
    case OpKind::put:
      s.writes.insert_coalesce(a.lo, a.hi);
      break;
    case OpKind::acc:
    case OpKind::get_acc:
      s.accs[a.op].insert_coalesce(a.lo, a.hi);
      break;
  }
  intervals_ += s.interval_count();
  t.summaries.push_back(std::move(s));
  bound_memory(t, a.world_origin);
}

void HbChecker::bound_memory(TargetRec& t, int world_origin) {
  // Exact pruning: a summary every live peer has already acquired can
  // never race again (any future access is ordered after it).
  if (t.summaries.size() > kPruneThreshold) {
    for (auto it = t.summaries.begin(); it != t.summaries.end();) {
      bool acquired = true;
      for (int r = 0; r < nranks_ && acquired; ++r) {
        if (r == it->world_origin ||
            dead_[static_cast<std::size_t>(r)] != 0)
          continue;
        acquired = ordered(it->vc, r);
      }
      if (acquired) {
        intervals_ -= it->interval_count();
        it = t.summaries.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Under pressure, merge same-origin summaries with component-wise
  // *minimum* clocks. Taking the older clock only widens the set of
  // accessors considered synchronized-after -- false negatives, never
  // false positives -- and keeps serial epoch loops at O(1) summaries.
  if (t.summaries.size() > kMergeThreshold) {
    for (auto it = t.summaries.begin(); it != t.summaries.end(); ++it) {
      auto jt = std::next(it);
      while (jt != t.summaries.end()) {
        if (jt->world_origin != it->world_origin) {
          ++jt;
          continue;
        }
        intervals_ -= it->interval_count() + jt->interval_count();
        for (std::size_t i = 0;
             i < it->vc.size() && i < jt->vc.size(); ++i)
          it->vc[i] = std::min(it->vc[i], jt->vc[i]);
        ConflictTree* into_r = &it->reads;
        ConflictTree* into_w = &it->writes;
        jt->reads.visit([into_r](std::uintptr_t lo, std::uintptr_t hi) {
          into_r->insert_coalesce(lo, hi);
        });
        jt->writes.visit([into_w](std::uintptr_t lo, std::uintptr_t hi) {
          into_w->insert_coalesce(lo, hi);
        });
        for (auto& [o, tree] : jt->accs) {
          ConflictTree* into_a = &it->accs[o];
          tree.visit([into_a](std::uintptr_t lo, std::uintptr_t hi) {
            into_a->insert_coalesce(lo, hi);
          });
        }
        it->any_direct = it->any_direct || jt->any_direct;
        it->how = "merged publications";
        intervals_ += it->interval_count();
        jt = t.summaries.erase(jt);
      }
    }
  }

  // Hard cap: drop the oldest summaries and record the lost coverage.
  if (max_intervals_ == 0) return;
  auto& overflow = per_rank_[static_cast<std::size_t>(world_origin)].overflow;
  while (intervals_ > max_intervals_ && !t.summaries.empty()) {
    intervals_ -= t.summaries.front().interval_count();
    t.summaries.pop_front();
    ++overflow;
  }
  // Other targets may hold the remaining weight; sweep them oldest-first.
  for (auto& [key, other] : spaces_) {
    (void)key;
    while (intervals_ > max_intervals_ && !other.summaries.empty()) {
      intervals_ -= other.summaries.front().interval_count();
      other.summaries.pop_front();
      ++overflow;
    }
    if (intervals_ <= max_intervals_) break;
  }
}

void HbChecker::report(HbRace cls, int world_rank, std::string msg) {
  ++per_rank_[static_cast<std::size_t>(world_rank)].v[static_cast<int>(cls)];
  if (in_simulation()) {
    Tracer& tr = ctx().tracer();
    if (tr.enabled()) {
      tr.begin(TraceCat::race, "race.detect",
               static_cast<std::uint64_t>(cls));
      tr.end(TraceCat::race, "race.detect", static_cast<std::uint64_t>(cls));
    }
  }
  raise(Errc::rma_race,
        std::string("happens-before race [") + hb_race_name(cls) + "]: " +
            msg);
}

HbRaceCounts HbChecker::counts(int world_rank) const noexcept {
  HbRaceCounts out;
  if (world_rank < 0 || world_rank >= nranks_) return out;
  // A rank's progress-persona row folds into the rank's own counters: the
  // persona acts on the rank's behalf, and callers index by world rank.
  for (const int row : {world_rank, nranks_ + world_rank}) {
    const PerRankCounts& c = per_rank_[static_cast<std::size_t>(row)];
#define MPISIM_LOAD(name) out.name += c.v[static_cast<int>(HbRace::name)];
    MPISIM_HB_RACES(MPISIM_LOAD)
#undef MPISIM_LOAD
    out.overflow += c.overflow;
  }
  return out;
}

HbRaceCounts HbChecker::total_counts() const noexcept {
  HbRaceCounts out;
  for (int r = 0; r < nranks_; ++r) out += counts(r);
  return out;
}

}  // namespace mpisim
