#ifndef MPISIM_HB_HPP
#define MPISIM_HB_HPP

/// \file hb.hpp
/// Happens-before race detector for the simulated PGAS memory model.
///
/// The epoch checker (checker.hpp) validates MPI-2 access rules *within* a
/// <window, target, epoch>: it is blind to conflicts whose only defense is a
/// missing synchronization edge between epochs -- the class of bugs the PGAS
/// memory-model literature identifies as dominant in real RMA codes. This
/// detector closes that gap with vector clocks: one clock per world rank,
/// advanced by every synchronization edge the simulator observes:
///
///  - exclusive lock epochs: the target-side lock slot serializes them, so
///    an unlock releases its clock into the slot and a later lock acquires
///    it (this also orders armci::Mutex critical sections for free -- the
///    mutex protocol runs on exclusive epochs plus token messages);
///  - shared/lock_all epochs: a shared unlock releases into the slot's
///    shared-join; a later *exclusive* lock acquires it (shared holders do
///    not order each other, and a flush publishes accesses without creating
///    any inter-rank edge -- exactly MPI's semantics);
///  - two-sided messages (including the runtime's internal channels): every
///    send carries the sender's clock, every matching receive joins it;
///  - collectives: all arrivals join into a round accumulator that every
///    departer acquires (barrier = full join);
///  - notify/wait: an explicit named-channel edge keyed by the flag address
///    (the MPI-3 backend posts the flag under lock_all, where no lock-slot
///    edge exists);
///  - failure recovery (survivable mode): failure_ack / agree / shrink
///    acquire the final clocks of the dead, so post-recovery accesses to a
///    dead rank's published data are ordered -- and accesses *without* the
///    recovery edge are reported as dead_origin races.
///
/// Accesses are recorded in a two-tier shadow store per <space, target>
/// (space = window id, or a synthetic id for the native backend's
/// window-less memory): in-flight accesses stay *pending* from issue until
/// their epoch publishes them (unlock / flush / access-guard end), then
/// become *summaries* stamped with the publisher's clock. A new access races
/// with (a) any other-origin pending access that conflicts under the MPI
/// accumulate-aware rules -- no ordering can exist before the publication
/// point, the missing flush IS the edge -- and (b) any conflicting summary
/// whose clock the accessor has not acquired. Races raise Errc::rma_race at
/// the issuing operation with both access sites and the missing edge named.
///
/// Memory is bounded three ways (Config::rma_check_max_intervals):
/// summaries every live peer has already acquired are pruned exactly;
/// under pressure same-origin summaries merge with component-wise *minimum*
/// clocks (provably only false negatives, never false positives) and
/// coalesced intervals; past the hard cap the oldest summaries drop and the
/// overflow counter records the lost coverage.

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/mpisim/checker.hpp"
#include "src/mpisim/conflict_tree.hpp"
#include "src/mpisim/op.hpp"

namespace mpisim {

/// Vector clock: one component per world rank.
using HbClock = std::vector<std::uint64_t>;

/// Race classes (counter buckets; also named in diagnostics).
#define MPISIM_HB_RACES(X)                                                   \
  X(ww) /* unordered write vs write (put/put) */                             \
  X(rw) /* unordered read vs write (get vs put or accumulate) */             \
  X(acc_mix) /* accumulate vs non-accumulate or different-op accumulate */   \
  X(shm) /* a direct (shared-memory or local) access is involved */          \
  X(dead_origin) /* conflicts with a dead rank's data, no recovery edge */

enum class HbRace { MPISIM_HB_RACES(MPISIM_TABLE_ENUMERATOR) };
inline constexpr int kHbRaceCount = 0 MPISIM_HB_RACES(MPISIM_TABLE_COUNT);

const char* hb_race_name(HbRace c) noexcept;

/// The HbRaceCounts fields: one counter per race class, then the summaries
/// dropped by the interval cap (coverage silently lost), which is not a race
/// class and so stays out of total().
#define MPISIM_HB_RACE_COUNTS(X) MPISIM_HB_RACES(X) X(overflow)

/// Snapshot of race counters (per rank or totalled).
struct HbRaceCounts {
  MPISIM_HB_RACE_COUNTS(MPISIM_TABLE_U64_FIELD)

  std::uint64_t total() const noexcept {
    return 0 MPISIM_HB_RACES(MPISIM_TABLE_SUM);
  }

  HbRaceCounts& operator+=(const HbRaceCounts& o) noexcept {
    MPISIM_HB_RACE_COUNTS(MPISIM_TABLE_ADD)
    return *this;
  }
};

/// The detector. One instance per SimCore, active at RmaCheck::race.
class HbChecker {
 public:
  using OpKind = RmaChecker::OpKind;

  /// \p max_intervals caps the shadow store's total recorded intervals
  /// (Config::rma_check_max_intervals); 0 means unbounded.
  HbChecker(bool enabled, int nranks, std::size_t max_intervals);

  HbChecker(const HbChecker&) = delete;
  HbChecker& operator=(const HbChecker&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Space-id tag for the native backend's window-less memory regions: the
  /// top bit over the GMR id keeps them disjoint from window ids.
  static constexpr std::uint64_t kNativeSpace = 1ull << 63;

  /// RAII: suppress the access recording of world rank \p world_rank
  /// (other ranks keep recording). Used for synchronization-word accesses
  /// (notify flags): like an atomic in TSan, a sync word orders other data
  /// and is exempt from race checking itself -- its ordering is expressed
  /// through channel_release/channel_acquire.
  class MuteScope {
   public:
    MuteScope(HbChecker& hb, int world_rank) noexcept
        : muted_(hb.muted_[static_cast<std::size_t>(world_rank)]) {
      ++muted_;
    }
    ~MuteScope() { --muted_; }
    MuteScope(const MuteScope&) = delete;
    MuteScope& operator=(const MuteScope&) = delete;

   private:
    int& muted_;
  };

  // ---- synchronization edges ----

  /// Release for a message send: tick, snapshot the sender's clock.
  HbClock send_snapshot(int world_src);

  /// Acquire on the matching receive: join \p vc into the receiver.
  void recv_join(int world_dst, const HbClock& vc);

  /// A rank arrived at a collective round: tick and join its clock into
  /// the round accumulator \p acc (resized on first arrival).
  void coll_arrive(HbClock& acc, int world_rank);

  /// A rank departs the completed round: acquire the accumulator.
  void coll_depart(int world_rank, const HbClock& acc);

  /// Release half of a named synchronization channel (notify/wait pairs,
  /// keyed by the flag's address).
  void channel_release(std::uint64_t key, int world_src);

  /// Acquire half: join the channel's clock into \p world_dst (no-op if
  /// the channel was never released).
  void channel_acquire(std::uint64_t key, int world_dst);

  /// \p world_rank died: freeze its clock (and its progress persona's) and
  /// mark both for dead_origin classification.
  void note_death(int world_rank);

  /// Recovery edge (failure_ack / agree / shrink): the observer acquires
  /// every dead rank's final clock (persona rows included).
  void ack_deaths(int world_observer);

  // ---- progress persona ----
  //
  // A rank's cooperative progress engine acts on deferred operations'
  // *local* buffers after the application call has returned. Those
  // deferred-contract accesses are recorded under a distinct clock
  // identity -- the rank's "progress persona", clock row nranks + r -- so
  // an application touch of a busy buffer before the engine retires the
  // operation is an unordered cross-identity conflict (a real race), while
  // retirement creates an explicit persona -> owner happens-before edge
  // that makes later touches clean. Target-side records of persona-issued
  // operations keep the application identity: the engine runs
  // cooperatively on the owner's thread and only publishes earlier than
  // wait() would have.

  /// Clock identity of \p world_rank's progress persona.
  int persona(int world_rank) const noexcept { return nranks_ + world_rank; }

  /// Order the persona after its owner's current program point (call
  /// before the persona records on the owner's behalf).
  void persona_sync(int owner);

  /// The retirement edge: the owner acquires its persona's clock. Call
  /// after publishing the persona's pending accesses.
  void persona_retire(int owner);

  /// Record a deferred-operation local-buffer contract interval under the
  /// persona identity WITHOUT checking it (recording never reports; the
  /// race fires when a conflicting access checks against it later).
  void record_local_pending(std::uint64_t space, int target, int origin,
                            int world_origin, OpKind kind, Op op,
                            std::ptrdiff_t lo, std::ptrdiff_t hi,
                            const char* scope);

  // ---- epoch lifecycle ----

  /// A lock was granted on <win, target>. Every grant acquires the last
  /// exclusive release; an exclusive grant additionally acquires the joined
  /// shared releases (the grant waited for all of them). lock_all grants
  /// are shared grants on every target.
  void lock_granted(std::uint64_t win, int target, int world_origin,
                    bool exclusive);

  /// unlock/unlock_all on <win, target>: publish the origin's pending
  /// accesses and release its clock into the slot.
  void lock_released(std::uint64_t win, int target, int world_origin,
                     bool exclusive);

  /// flush/flush_all: publish pending accesses -- publication only, a
  /// flush creates no inter-rank edge.
  void epoch_flushed(std::uint64_t win, int target, int world_origin);

  /// The epoch's origin died before completing: drop its pending accesses
  /// silently (they never completed; see checker.hpp epoch_abandoned).
  void epoch_abandoned(std::uint64_t win, int target, int world_origin);

  /// Window destroyed (collective): drop all its shadow state.
  void window_freed(std::uint64_t win);

  // ---- access recording ----

  /// Record one target-side byte interval of an RMA operation issued by
  /// \p world_origin (window-communicator rank \p origin, for diagnostics):
  /// check it against the shadow store, raising Errc::rma_race on an
  /// unordered conflict, then add it to the origin's pending set.
  void record_op(std::uint64_t space, int target, int origin,
                 int world_origin, OpKind kind, Op op, std::ptrdiff_t lo,
                 std::ptrdiff_t hi, const char* scope);

  /// An atomically-completing direct access (shm fast path, native
  /// backend): check and publish in one step.
  void direct_op(std::uint64_t space, int target, int origin,
                 int world_origin, OpKind kind, Op op, std::ptrdiff_t lo,
                 std::ptrdiff_t hi, const char* scope);

  /// A direct access held open over an interval (DLA local access without
  /// exclusive-epoch coverage, shm access guards): check and record as
  /// pending until access_end(). \p write selects store vs load.
  void access_begin(std::uint64_t space, int target, int origin,
                    int world_origin, bool write, std::ptrdiff_t lo,
                    std::ptrdiff_t hi, const char* scope);

  /// End of the guard access that began at \p lo: publish it.
  void access_end(std::uint64_t space, int target, int world_origin,
                  std::ptrdiff_t lo);

  // ---- counters ----

  HbRaceCounts counts(int world_rank) const noexcept;
  HbRaceCounts total_counts() const noexcept;

  /// Total intervals currently held in the shadow store (tests).
  std::size_t shadow_intervals() const noexcept { return intervals_; }

 private:
  /// One recorded, not-yet-published access.
  struct Pending {
    int origin = -1;        ///< communicator rank (diagnostics)
    int world_origin = -1;  ///< clock identity
    OpKind kind = OpKind::put;
    Op op = Op::sum;
    bool direct = false;  ///< guard-style direct access (not RMA)
    std::uintptr_t lo = 0;  ///< inclusive, matching ConflictTree
    std::uintptr_t hi = 0;
    const char* scope = nullptr;
  };

  /// Published coverage of one origin's epoch (or one direct access),
  /// stamped with the publisher's clock at publication.
  struct Summary {
    std::uint64_t id = 0;   ///< publication number (diagnostics)
    int origin = -1;
    int world_origin = -1;
    bool any_direct = false;
    const char* how = nullptr;  ///< "unlock", "flush", "access-end", ...
    const char* scope = nullptr;
    HbClock vc;
    ConflictTree reads;
    ConflictTree writes;
    std::map<Op, ConflictTree> accs;

    std::size_t interval_count() const noexcept;
  };

  /// Target-side lock slot: the release clocks later grants acquire.
  struct Slot {
    HbClock excl;         ///< last exclusive release
    HbClock shared_join;  ///< join of shared releases since then
  };

  struct TargetRec {
    Slot slot;
    std::vector<Pending> pending;
    std::list<Summary> summaries;
  };

  using SpaceKey = std::pair<std::uint64_t, int>;  ///< <space id, target>

  struct PerRankCounts {
    std::uint64_t v[kHbRaceCount] = {};
    std::uint64_t overflow = 0;
  };

  void tick(int world_rank);
  void join(HbClock& into, const HbClock& from) const;
  bool ordered(const HbClock& vc, int world_rank) const;

  /// Check one new access against \p t's pending and published state;
  /// raises Errc::rma_race on an unordered conflict.
  void check(const TargetRec& t, std::uint64_t space, int target,
             const Pending& a);

  /// Move \p world_origin's pending RMA accesses into a summary stamped
  /// with its (ticked) clock, then enforce the memory bound.
  void publish(TargetRec& t, int world_origin, const char* how);

  /// Publish a single access (atomic direct op, or a guard access ending
  /// and already removed from the pending set) as its own summary.
  void publish_one(TargetRec& t, const Pending& a, const char* how);

  /// Prune acquired-everywhere summaries, merge same-origin summaries
  /// under pressure, and enforce the hard cap (counting overflow against
  /// \p world_origin).
  void bound_memory(TargetRec& t, int world_origin);

  [[noreturn]] void report(HbRace cls, int world_rank, std::string msg);

  /// True inside a MuteScope of \p world (a rank or its persona).
  bool muted(int world) const noexcept {
    return muted_[static_cast<std::size_t>(world % nranks_)] != 0;
  }

  /// "rank N", or "rank N's progress persona" for persona identities.
  std::string rank_desc(int world) const;

  bool enabled_;
  int nranks_;
  std::size_t max_intervals_;
  std::size_t intervals_ = 0;  ///< current shadow-store interval total
  std::uint64_t next_id_ = 1;
  std::vector<HbClock> clocks_;
  std::vector<std::uint8_t> dead_;
  std::vector<int> muted_;  ///< per world rank: open MuteScopes
  std::map<SpaceKey, TargetRec> spaces_;
  std::map<std::uint64_t, HbClock> channels_;
  std::vector<PerRankCounts> per_rank_;
};

}  // namespace mpisim

#endif  // MPISIM_HB_HPP
