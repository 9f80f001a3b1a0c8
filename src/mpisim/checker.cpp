#include "src/mpisim/checker.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "src/mpisim/error.hpp"

namespace mpisim {

namespace {

std::string byte_range(std::ptrdiff_t lo, std::ptrdiff_t hi) {
  return "bytes [" + std::to_string(lo) + ", " + std::to_string(hi) + ")";
}

/// Inclusive tree range back to the half-open form diagnostics use.
std::string byte_range_incl(std::uintptr_t lo, std::uintptr_t hi) {
  return byte_range(static_cast<std::ptrdiff_t>(lo),
                    static_cast<std::ptrdiff_t>(hi) + 1);
}

std::string scope_suffix(const char* scope) {
  return scope != nullptr ? std::string(", in ") + scope : std::string();
}

}  // namespace

const char* rma_check_name(RmaCheck m) noexcept {
  switch (m) {
    case RmaCheck::off: return "off";
    case RmaCheck::warn: return "warn";
    case RmaCheck::abort: return "abort";
    case RmaCheck::race: return "race";
  }
  return "?";
}

bool parse_rma_check(const char* text, RmaCheck* out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "off") == 0) { *out = RmaCheck::off; return true; }
  if (std::strcmp(text, "warn") == 0) { *out = RmaCheck::warn; return true; }
  if (std::strcmp(text, "abort") == 0) { *out = RmaCheck::abort; return true; }
  if (std::strcmp(text, "race") == 0) { *out = RmaCheck::race; return true; }
  return false;
}

const char* rma_violation_name(RmaViolation v) noexcept {
  static constexpr const char* kNames[] = {
      MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_NAME)};
  return table_name(kNames, v);
}

RmaChecker::RmaChecker(RmaCheck mode, int nranks)
    : mode_(mode),
      per_rank_(static_cast<std::size_t>(nranks > 0 ? nranks : 1)) {}

void RmaChecker::Sets::clear() noexcept {
  reads.clear();
  writes.clear();
  for (IntervalSet& set : accs) set.clear();
  begin = 0;
  end = 0;
}

std::size_t RmaChecker::Sets::capacity() const noexcept {
  std::size_t n = reads.ranges().capacity() + writes.ranges().capacity();
  for (const IntervalSet& set : accs) n += set.ranges().capacity();
  return n;
}

void RmaChecker::retire(EpochRec& ep) {
  ep.ghosts.clear();
  ep.pending.clear();
  if (ep.sets.capacity() > kMaxSpareRanges)
    ep.sets = Sets();
  else
    ep.sets.clear();
}

void RmaChecker::epoch_opened(std::uint64_t win, int target, int origin,
                              bool exclusive, bool mpi3) {
  if (!enabled()) return;
  EpochRec& ep =
      epoch_nodes_.acquire(wins_[win].targets[target].open, origin);
  retire(ep);  // a no-op on a node that erase() retired
  ep.id = next_epoch_id_++;
  ep.origin = origin;
  ep.exclusive = exclusive;
  ep.mpi3 = mpi3;
  ep.scope = nullptr;
}

void RmaChecker::epoch_closing(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  EpochMap& open = tit->second.open;
  auto eit = open.find(origin);
  if (eit == open.end()) return;
  EpochRec& ep = eit->second;

  // Hand this epoch's access summary to every other epoch still open on the
  // target: those epochs were concurrent with it, and MPI-2 makes the
  // conflicting pair erroneous no matter which side's accesses landed
  // first. Epochs opened later never see this ghost, which is what keeps
  // properly serialized (lock-ordered) reuse of the same bytes legal.
  if (!ep.mpi3 && !ep.sets.empty()) {
    std::shared_ptr<Ghost> g;
    for (auto& [orank, oe] : open) {
      if (orank == origin || oe.mpi3) continue;
      if (g == nullptr) {
        g = std::make_shared<Ghost>();
        g->epoch_id = ep.id;
        g->origin = ep.origin;
        g->exclusive = ep.exclusive;
        g->scope = ep.scope;
        g->sets = std::move(ep.sets);
      }
      oe.ghosts.push_back(g);
    }
  }
  std::vector<Violation> pending = std::move(ep.pending);
  epoch_nodes_.erase(open, eit, retire);
  report(pending);
}

void RmaChecker::epoch_flushed(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto eit = tit->second.open.find(origin);
  if (eit == tit->second.open.end()) return;
  // A flush remotely completes everything outstanding: operations on the
  // two sides of it are ordered, so they no longer form a conflicting pair.
  // The epoch's tracking unit restarts empty (ghosts included -- the closed
  // epochs they summarize are now also ordered before the later accesses).
  EpochRec& ep = eit->second;
  ep.sets.clear();
  ep.ghosts.clear();
  report(ep.pending);
}

void RmaChecker::epoch_abandoned(std::uint64_t win, int target, int origin) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto eit = tit->second.open.find(origin);
  if (eit == tit->second.open.end()) return;
  epoch_nodes_.erase(tit->second.open, eit, retire);
}

void RmaChecker::window_freed(std::uint64_t win) { wins_.erase(win); }

bool RmaChecker::conflict_with(const Sets& s, OpKind kind, Op op,
                               std::uintptr_t lo, std::uintptr_t hi,
                               Hit* hit) {
  if (!s.meets(lo, hi)) return false;
  std::uintptr_t olo = 0;
  std::uintptr_t ohi = 0;
  // MPI-2 access rules: get conflicts with writes and accumulates; put with
  // everything; accumulates conflict with reads, writes, and accumulates
  // whose operator is not compatible (acc_ops_compatible: same operator, or
  // no_op on either side).
  if (kind != OpKind::get && s.reads.overlapping(lo, hi, &olo, &ohi)) {
    *hit = Hit{Hit::Kind::read, Op::sum, olo, ohi};
    return true;
  }
  if (s.writes.overlapping(lo, hi, &olo, &ohi)) {
    *hit = Hit{Hit::Kind::write, Op::sum, olo, ohi};
    return true;
  }
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const IntervalSet& set = s.accs[i];
    if (set.empty()) continue;
    const auto o = static_cast<Op>(i);
    const bool mixes = kind == OpKind::put || kind == OpKind::get ||
                       !acc_ops_compatible(o, op);
    if (mixes && set.overlapping(lo, hi, &olo, &ohi)) {
      *hit = Hit{Hit::Kind::acc, o, olo, ohi};
      return true;
    }
  }
  return false;
}

RmaViolation RmaChecker::classify(OpKind kind, const Hit& hit,
                                  bool same_origin, bool local) {
  if (local) return RmaViolation::local;
  if (hit.kind == Hit::Kind::acc || kind == OpKind::acc ||
      kind == OpKind::get_acc)
    return RmaViolation::acc_mix;
  return same_origin ? RmaViolation::same_origin : RmaViolation::concurrent;
}

std::string RmaChecker::describe_direct(const LocalRec& lrec) {
  return std::string(lrec.shm ? "direct shared-memory " : "direct local ") +
         (lrec.acc ? "accumulate to " : lrec.write ? "store to " : "load of ") +
         byte_range(lrec.lo, lrec.hi);
}

std::string RmaChecker::describe_hit(const Hit& hit) {
  switch (hit.kind) {
    case Hit::Kind::read:
      return "a get of " + byte_range_incl(hit.lo, hit.hi);
    case Hit::Kind::write:
      return "a put to " + byte_range_incl(hit.lo, hit.hi);
    case Hit::Kind::acc:
      return std::string("an accumulate(") + op_name(hit.op) + ") on " +
             byte_range_incl(hit.lo, hit.hi);
    case Hit::Kind::none:
      break;
  }
  return "an access";
}

void RmaChecker::flag(std::vector<Violation>& pending, RmaViolation cls,
                      int world_rank, std::string msg) {
  if (world_rank >= 0 &&
      world_rank < static_cast<int>(per_rank_.size()))
    ++per_rank_[static_cast<std::size_t>(world_rank)]
          .v[static_cast<int>(cls)];
  pending.push_back({cls, std::move(msg)});
}

void RmaChecker::report(std::vector<Violation>& pending) {
  if (pending.empty()) return;
  std::vector<Violation> v;
  v.swap(pending);
  if (mode_ == RmaCheck::warn) {
    for (const Violation& x : v)
      std::fprintf(stderr, "mpisim rma_check [%s]: %s\n",
                   rma_violation_name(x.cls), x.msg.c_str());
    return;
  }
  // race includes abort: the HB detector adds cross-epoch coverage on top
  // of the epoch-local rules, it never relaxes them.
  if (mode_ == RmaCheck::abort || mode_ == RmaCheck::race) {
    std::string msg = v.front().msg;
    if (v.size() > 1)
      msg += " (+" + std::to_string(v.size() - 1) + " more violations)";
    raise(Errc::rma_conflict, msg);
  }
}

void RmaChecker::record_op(std::uint64_t win, int target, int origin,
                           int world_origin, OpKind kind, Op op,
                           std::ptrdiff_t disp, std::span<const Segment> segs,
                           const char* scope) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  TargetRec& tr = wit->second.targets[target];
  auto eit = tr.open.find(origin);
  if (eit == tr.open.end()) return;  // win.cpp raises no_epoch before this
  EpochRec& ep = eit->second;
  ep.scope = scope;

  const bool writes_target =
      kind == OpKind::put || kind == OpKind::acc ||
      (kind == OpKind::get_acc && op != Op::no_op);
  const bool acc_class = kind == OpKind::acc || kind == OpKind::get_acc;
  const auto set_of = [&](Sets& sets) -> IntervalSet& {
    return kind == OpKind::get   ? sets.reads
           : kind == OpKind::put ? sets.writes
                                 : sets.accs[static_cast<std::size_t>(op)];
  };

  // One pass finds the operation's hull [hull_lo, hull_hi) and whether its
  // nonempty segments ascend without overlapping (they may touch: such
  // ranges stay separate). Offsets lie in the target's slice, so they are
  // not negative.
  bool sorted = true;
  bool ascending = true;
  std::ptrdiff_t prev_offset = std::numeric_limits<std::ptrdiff_t>::min();
  std::ptrdiff_t hull_lo = std::numeric_limits<std::ptrdiff_t>::max();
  std::ptrdiff_t hull_hi = 0;
  for (const Segment& seg : segs) {
    sorted = sorted && seg.offset >= prev_offset;
    prev_offset = seg.offset;
    const std::ptrdiff_t lo = disp + seg.offset;
    const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(seg.length);
    if (lo >= hi) continue;
    ascending = ascending && lo >= hull_hi;
    hull_lo = std::min(hull_lo, lo);
    hull_hi = std::max(hull_hi, hi);
  }
  if (hull_lo >= hull_hi) return;  // no byte to record
  // Visit overlapping segments in ascending offset order. A gather's or an
  // IOV's target segments come in the caller's order.
  if (!ascending && !sorted) {
    sorted_.assign(segs.begin(), segs.end());
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Segment& a, const Segment& b) {
                return a.offset < b.offset;
              });
    segs = sorted_;
  }
  const auto ulo_hull = static_cast<std::uintptr_t>(hull_lo);
  const auto uhi_hull = static_cast<std::uintptr_t>(hull_hi) - 1;

  // Select, once for the operation, the coverage its hull meets; no other
  // recorded byte can conflict with any of its segments. Epoch-vs-epoch
  // rules apply to MPI-2 lock epochs only: under an MPI-3 lock_all epoch
  // conflicting operations have undefined values but are not erroneous.
  // The op is still recorded below so a concurrent direct shared-memory
  // access (shm_begin) can be checked against it.
  const bool check_epoch = !ep.mpi3 && ep.sets.meets(ulo_hull, uhi_hull);
  // Only overlapping segments can conflict with the operation's own
  // earlier ones, which it then stages in op_sets_.
  const bool check_self = !ep.mpi3 && !ascending;
  near_epochs_.clear();
  near_ghosts_.clear();
  if (!ep.mpi3) {
    for (const auto& [orank, oe] : tr.open)
      if (orank != origin && !oe.mpi3 && oe.sets.meets(ulo_hull, uhi_hull))
        near_epochs_.push_back(&oe);
    for (const auto& g : ep.ghosts)
      if (g->sets.meets(ulo_hull, uhi_hull)) near_ghosts_.push_back(g.get());
  }
  // Direct accesses to the target's exposed memory. A get conflicts only
  // with a direct store; put/accumulate write the bytes, so a direct load
  // conflicts too (get_accumulate with no_op is a pure fetch). An MPI-3
  // epoch only checks shared-memory records: plain local access under the
  // unified memory model is legal after a flush (the backend's
  // discipline), while a same-node direct access has no such ordering
  // against in-flight RMA from third ranks. The shm accumulate path is
  // element-atomic with RMA accumulates (both apply under the runtime's
  // accumulate atomicity), so only the MPI acc-mixing rule makes it a
  // conflict: an incompatible operator, or a non-accumulate access.
  near_locals_.clear();
  for (const auto& [lkey, lrec] : tr.locals) {
    if (lrec.covered) continue;
    if (ep.mpi3 && !lrec.shm) continue;
    if (lrec.shm && lrec.accessor == origin) continue;  // its own access
    if (lrec.hi <= hull_lo || hull_hi <= lrec.lo) continue;
    if (!lrec.write && !writes_target) continue;
    if (lrec.acc && acc_class && acc_ops_compatible(op, lrec.op)) continue;
    near_locals_.push_back(&lrec);
  }

  // An operation above everything its epoch recorded, with no segment
  // overlapping another, is appended to the epoch's coverage as it goes.
  // Any other is staged in op_sets_ and joins it in one merge.
  const bool staged = !ascending || ulo_hull < ep.sets.end;
  IntervalSet& into = set_of(staged ? op_sets_ : ep.sets);
  op_sets_.extend(ulo_hull, uhi_hull);  // so check_self queries reach it
  const bool check_any = check_epoch || check_self || !near_epochs_.empty() ||
                         !near_ghosts_.empty() || !near_locals_.empty();

  for (const Segment& seg : segs) {
    const std::ptrdiff_t lo = disp + seg.offset;
    const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(seg.length);
    if (lo >= hi) continue;
    const auto ulo = static_cast<std::uintptr_t>(lo);
    const auto uhi = static_cast<std::uintptr_t>(hi) - 1;
    if (check_any) {
      // Diagnostics are built only on the (rare) conflict path.
      const auto what = [&] {
        const char* kind_str = kind == OpKind::put   ? "put"
                               : kind == OpKind::get ? "get"
                               : kind == OpKind::acc ? "accumulate"
                                                     : "get_accumulate";
        return std::string(kind_str) + " on " + byte_range(lo, hi) +
               " of rank " + std::to_string(target) + " (win " +
               std::to_string(win) + ", epoch #" + std::to_string(ep.id) +
               " by origin " + std::to_string(origin) + scope_suffix(scope) +
               ")";
      };
      Hit hit;
      if ((check_epoch && conflict_with(ep.sets, kind, op, ulo, uhi, &hit)) ||
          (check_self && conflict_with(op_sets_, kind, op, ulo, uhi, &hit)))
        flag(ep.pending, classify(kind, hit, /*same_origin=*/true, false),
             world_origin,
             what() + " conflicts with " + describe_hit(hit) +
                 " recorded earlier in the same epoch");
      for (const EpochRec* oe : near_epochs_) {
        if (conflict_with(oe->sets, kind, op, ulo, uhi, &hit))
          flag(ep.pending, classify(kind, hit, false, false), world_origin,
               what() + " conflicts with " + describe_hit(hit) +
                   " by concurrent epoch #" + std::to_string(oe->id) +
                   " of origin " + std::to_string(oe->origin) +
                   scope_suffix(oe->scope));
      }
      for (const Ghost* g : near_ghosts_) {
        if (conflict_with(g->sets, kind, op, ulo, uhi, &hit))
          flag(ep.pending, classify(kind, hit, false, false), world_origin,
               what() + " conflicts with " + describe_hit(hit) +
                   " by closed concurrent epoch #" +
                   std::to_string(g->epoch_id) + " of origin " +
                   std::to_string(g->origin) + scope_suffix(g->scope));
      }
      for (const LocalRec* lrec : near_locals_) {
        if (lrec->hi <= lo || hi <= lrec->lo) continue;
        flag(ep.pending, RmaViolation::local, world_origin,
             what() + " conflicts with a " + describe_direct(*lrec) +
                 (lrec->shm ? " by rank " + std::to_string(lrec->accessor)
                            : "") +
                 " on rank " + std::to_string(target) +
                 scope_suffix(lrec->scope));
      }
    }
    into.insert_merge(ulo, uhi);
  }  if (staged) {
    set_of(ep.sets).insert_merge(into.ranges());
    // Only `into` was written; drop it outright after a large operation.
    if (into.ranges().capacity() > kMaxSpareRanges)
      into = IntervalSet();
    else
      into.clear();
  }
  op_sets_.begin = 0;
  op_sets_.end = 0;
  ep.sets.extend(ulo_hull, uhi_hull);
}

void RmaChecker::check_direct(std::uint64_t win, int target, TargetRec& tr,
                              LocalRec& lrec, OpKind kind, Op op,
                              int world_rank) {
  // A direct access takes no epoch of its own: check it against every epoch
  // open on the target's memory -- and the closed epochs those were
  // concurrent with -- exactly as if it were a same-address RMA op. A local
  // access skips MPI-3 lock_all epochs (plain local access under the
  // unified memory model is legal after a flush, the backend's discipline);
  // a same-node shm access races their recorded in-flight operations too,
  // since nothing orders the two until the next flush, except its own
  // standing lock_all epoch. conflict_with applies the acc-mixing rules, so
  // the CPU-atomic accumulate path coexists with same-operator RMA
  // accumulates.
  const auto ulo = static_cast<std::uintptr_t>(lrec.lo);
  const auto uhi = static_cast<std::uintptr_t>(lrec.hi) - 1;
  // Diagnostics are built only on the (rare) conflict path.
  const auto what = [&] {
    return describe_direct(lrec) + " on rank " + std::to_string(target) +
           " (win " + std::to_string(win) +
           (lrec.shm ? ", by rank " + std::to_string(lrec.accessor) +
                           ", no epoch"
                     : std::string(", no exclusive self-epoch")) +
           scope_suffix(lrec.scope) + ")";
  };
  Hit hit;
  for (auto& [orank, oe] : tr.open) {
    if (oe.mpi3 && (!lrec.shm || orank == lrec.accessor)) continue;
    if (conflict_with(oe.sets, kind, op, ulo, uhi, &hit))
      flag(lrec.pending, RmaViolation::local, world_rank,
           what() + " conflicts with " + describe_hit(hit) +
               " by open epoch #" + std::to_string(oe.id) + " of origin " +
               std::to_string(orank) + scope_suffix(oe.scope));
    for (const auto& g : oe.ghosts) {
      if (conflict_with(g->sets, kind, op, ulo, uhi, &hit))
        flag(lrec.pending, RmaViolation::local, world_rank,
             what() + " conflicts with " + describe_hit(hit) +
                 " by closed concurrent epoch #" +
                 std::to_string(g->epoch_id) + " of origin " +
                 std::to_string(g->origin) + scope_suffix(g->scope));
    }
  }
}

void RmaChecker::local_begin(std::uint64_t win, int rank, int world_rank,
                             std::ptrdiff_t lo, std::ptrdiff_t hi, bool write,
                             bool covered, const char* scope) {
  if (!enabled() || lo >= hi) return;
  TargetRec& tr = wins_[win].targets[rank];
  LocalRec lrec;
  lrec.lo = lo;
  lrec.hi = hi;
  lrec.write = write;
  lrec.covered = covered;
  lrec.accessor = rank;
  lrec.scope = scope;
  // An undisciplined direct access: a local store behaves like a put, a
  // local load like a get.
  if (!covered)
    check_direct(win, rank, tr, lrec, write ? OpKind::put : OpKind::get,
                 Op::replace, world_rank);
  local_nodes_.acquire(tr.locals, LocalKey{rank, lo}) = std::move(lrec);
}

RmaChecker::LocalRec RmaChecker::check_shm(
    std::uint64_t win, int target, TargetRec& tr, int origin,
    int world_origin, OpKind kind, Op op, std::ptrdiff_t lo,
    std::ptrdiff_t hi, const char* scope) {
  LocalRec lrec;
  lrec.lo = lo;
  lrec.hi = hi;
  lrec.write = kind != OpKind::get;
  lrec.shm = true;
  lrec.acc = kind == OpKind::acc || kind == OpKind::get_acc;
  lrec.op = op;
  lrec.accessor = origin;
  lrec.scope = scope;
  // A same-node access takes no epoch, so it is never "covered".
  check_direct(win, target, tr, lrec, kind, op, world_origin);
  return lrec;
}

void RmaChecker::shm_begin(std::uint64_t win, int target, int origin,
                           int world_origin, OpKind kind, Op op,
                           std::ptrdiff_t lo, std::ptrdiff_t hi,
                           const char* scope) {
  if (!enabled() || lo >= hi) return;
  TargetRec& tr = wins_[win].targets[target];
  LocalRec lrec = check_shm(win, target, tr, origin, world_origin, kind, op,
                            lo, hi, scope);
  local_nodes_.acquire(tr.locals, LocalKey{origin, lo}) = std::move(lrec);
}

void RmaChecker::shm_op(std::uint64_t win, int target, int origin,
                        int world_origin, OpKind kind, Op op,
                        std::ptrdiff_t lo, std::ptrdiff_t hi,
                        const char* scope) {
  if (!enabled() || lo >= hi) return;
  TargetRec& tr = wins_[win].targets[target];
  LocalRec lrec = check_shm(win, target, tr, origin, world_origin, kind, op,
                            lo, hi, scope);
  report(lrec.pending);
}

void RmaChecker::access_end(std::uint64_t win, int target, int accessor,
                            std::ptrdiff_t lo) {
  if (!enabled()) return;
  auto wit = wins_.find(win);
  if (wit == wins_.end()) return;
  auto tit = wit->second.targets.find(target);
  if (tit == wit->second.targets.end()) return;
  auto lit = tit->second.locals.find(LocalKey{accessor, lo});
  if (lit == tit->second.locals.end()) return;
  std::vector<Violation> pending = std::move(lit->second.pending);
  local_nodes_.erase(tit->second.locals, lit);
  report(pending);
}

void RmaChecker::note_discipline(int world_rank) noexcept {
  if (world_rank >= 0 && world_rank < static_cast<int>(per_rank_.size()))
    ++per_rank_[static_cast<std::size_t>(world_rank)]
          .v[static_cast<int>(RmaViolation::discipline)];
}

RmaCheckCounts RmaChecker::counts(int world_rank) const noexcept {
  RmaCheckCounts c;
  if (world_rank < 0 || world_rank >= static_cast<int>(per_rank_.size()))
    return c;
  const PerRankCounts& p = per_rank_[static_cast<std::size_t>(world_rank)];
#define MPISIM_LOAD(name) c.name = p.v[static_cast<int>(RmaViolation::name)];
  MPISIM_RMA_VIOLATIONS(MPISIM_LOAD)
#undef MPISIM_LOAD
  return c;
}

RmaCheckCounts RmaChecker::total_counts() const noexcept {
  RmaCheckCounts t;
  for (std::size_t r = 0; r < per_rank_.size(); ++r)
    t += counts(static_cast<int>(r));
  return t;
}

}  // namespace mpisim
