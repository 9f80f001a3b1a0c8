#ifndef MPISIM_CHECKER_HPP
#define MPISIM_CHECKER_HPP

/// \file checker.hpp
/// RMA validity checker: a conflict/epoch race detector for mpisim windows.
///
/// The paper's central contribution is bridging ARMCI's conflict-tolerant,
/// location-consistent model onto MPI-2 RMA, where *concurrent conflicting
/// accesses are erroneous*. A backend bug that violates those access rules
/// (an overlapping put/put under a shared lock, a direct store to window
/// memory during another origin's exposure) produces wrong answers only for
/// schedules that happen to interleave badly -- it passes tests
/// nondeterministically. The checker turns every run into a semantics audit:
/// it records the byte interval of every put/get/accumulate/fetch-op and
/// every declared direct load/store (Win::local_access_begin/end), tagged
/// with <window, target, epoch, lock type, origin>, and detects the MPI-2
/// conflict rules:
///
///  - overlapping put/put and put/get from different origins inside
///    concurrent shared-lock epochs (including epochs that already closed:
///    a closing epoch hands its access summary to the epochs it was
///    concurrent with, so ordering within the overlap window cannot hide a
///    conflict);
///  - accumulate mixed with non-accumulate (or a different accumulate
///    operator) on overlapping bytes;
///  - same-origin overlapping conflicting operations within one epoch;
///  - direct local access to exposed window memory without the DLA
///    discipline (an exclusive self-epoch, as ARMCI_Access_begin takes);
///  - lock-discipline misuse (counted here; the window layer raises the
///    classified Errc).
///
/// Per-epoch coverage lives in flat sorted-range sets (interval_set.hpp),
/// each with the extent it covers. An operation first selects, from those
/// extents, the coverage its own extent meets; its segments are checked
/// against that alone. A closed or flushed epoch's storage is kept for the
/// next epoch, so steady-state recording allocates nothing.
///
/// One knob, Config::rma_check (or MPISIM_RMA_CHECK), selects how violations
/// are reported; they become structured diagnostics reported when the access
/// epoch completes -- at unlock / flush / local_access_end -- which is where
/// MPI-2 places erroneous-access detection. abort (the default) raises
/// Errc::rma_conflict; warn prints to stderr and counts; off records
/// nothing. Every window event reaches this checker and the happens-before
/// detector (hb.hpp) through one recording path in win.cpp.
///
/// Epochs opened by lock_all() follow MPI-3 semantics (conflicting accesses
/// have undefined *values* but are not erroneous) and are not tracked.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/mpisim/counter_table.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/interval_set.hpp"
#include "src/mpisim/op.hpp"
#include "src/mpisim/scratch.hpp"

namespace mpisim {

/// Checker reporting mode (Config::rma_check).
enum class RmaCheck {
  off,   ///< record nothing
  warn,  ///< print each violation to stderr at epoch completion and count it
  abort, ///< raise Errc::rma_conflict at epoch completion (the default)
  race   ///< abort, plus the vector-clock happens-before detector (hb.hpp)
         ///< raising Errc::rma_race on cross-epoch unordered conflicts
};

const char* rma_check_name(RmaCheck m) noexcept;

/// Parse an MPISIM_RMA_CHECK value. Returns false (and leaves \p out
/// untouched) for anything other than off|warn|abort|race, so callers can
/// reject typos loudly instead of silently running unchecked.
bool parse_rma_check(const char* text, RmaCheck* out) noexcept;

/// Violation classes (counter buckets; also named in diagnostics).
#define MPISIM_RMA_VIOLATIONS(X)                                             \
  X(same_origin) /* overlapping conflicting ops of one origin, one epoch */  \
  X(concurrent) /* put/put or put/get overlap across concurrent epochs */    \
  X(acc_mix) /* accumulate vs non-accumulate or different-op accumulate */   \
  X(local) /* direct local access conflicting with an RMA access */          \
  X(discipline) /* lock-state misuse (unlock mismatch, double lock, ...) */

enum class RmaViolation { MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_ENUMERATOR) };
inline constexpr int kRmaViolationCount =
    0 MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_COUNT);

const char* rma_violation_name(RmaViolation v) noexcept;

/// Snapshot of violation counters (per rank or totalled).
struct RmaCheckCounts {
  MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_U64_FIELD)

  std::uint64_t total() const noexcept {
    return 0 MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_SUM);
  }

  RmaCheckCounts& operator+=(const RmaCheckCounts& o) noexcept {
    MPISIM_RMA_VIOLATIONS(MPISIM_TABLE_ADD)
    return *this;
  }
};

/// The detector. One instance per SimCore; all window state flows through
/// it when enabled().
class RmaChecker {
 public:
  RmaChecker(RmaCheck mode, int nranks);

  RmaChecker(const RmaChecker&) = delete;
  RmaChecker& operator=(const RmaChecker&) = delete;

  bool enabled() const noexcept { return mode_ != RmaCheck::off; }
  RmaCheck mode() const noexcept { return mode_; }

  /// Operation kinds recorded by the window layer. get_acc is
  /// accumulate-class but follows MPI's same_op_no_op mixing rule.
  enum class OpKind { put, get, acc, get_acc };

  // ---- epoch lifecycle ----

  /// A lock was granted: open epoch <win, target, origin>. \p mpi3 marks
  /// an epoch of lock_all (MPI-3 semantics: untracked).
  void epoch_opened(std::uint64_t win, int target, int origin, bool exclusive,
                    bool mpi3);

  /// The epoch is closing (unlock/unlock_all): report its pending
  /// violations (raising Errc::rma_conflict in abort mode), hand its access
  /// summary to the still-open epochs it was concurrent with, and drop it.
  void epoch_closing(std::uint64_t win, int target, int origin);

  /// flush/flush_all: report pending violations and reset the epoch's
  /// tracking unit (operations separated by a flush no longer conflict).
  void epoch_flushed(std::uint64_t win, int target, int origin);

  /// The epoch's origin died before completing it (survivable mode): drop
  /// the epoch silently -- no violation report, no ghost handoff. The dead
  /// rank's in-flight accesses never completed, and survivors must not be
  /// charged with conflicts against an origin that no longer exists.
  void epoch_abandoned(std::uint64_t win, int target, int origin);

  /// Window destroyed: drop all its state.
  void window_freed(std::uint64_t win);

  // ---- access recording ----

  /// Record the target-side byte intervals of one RMA operation -- each of
  /// \p segs, offset by \p disp -- and check each against the origin's own
  /// epoch, concurrent epochs, closed concurrent epochs' summaries, and
  /// open local accesses *before* recording it, so an operation whose
  /// datatype touches the same bytes twice conflicts with itself. Segments
  /// are visited in ascending offset (sorted into a reused buffer when
  /// \p segs is not). Once per operation, the hull of its segments picks
  /// the coverage whose extent it meets; only that is queried per segment,
  /// so a segment costs O(1) when the hull meets nothing and O(log N) per
  /// selected set of N ranges otherwise. Segments that ascend without
  /// overlapping, at or above everything the epoch recorded, are appended
  /// to the epoch's set as they are checked: O(M) for M segments. Any other
  /// operation is staged and joins the epoch in one O(N + M) merge, after
  /// an O(M log M) sort when unsorted. \p origin is the window-communicator
  /// rank, \p world_origin the world rank (counter attribution), \p scope
  /// the origin's innermost open trace scope (may be null when tracing is
  /// off).
  void record_op(std::uint64_t win, int target, int origin, int world_origin,
                 OpKind kind, Op op, std::ptrdiff_t disp,
                 std::span<const Segment> segs, const char* scope);

  /// A direct local load/store of [lo, hi) in \p rank's window slice was
  /// declared (Win::local_access_begin). \p covered means the caller holds
  /// an exclusive (or lock_all) self-epoch -- the DLA discipline -- making
  /// the access safe and unrecorded.
  void local_begin(std::uint64_t win, int rank, int world_rank,
                   std::ptrdiff_t lo, std::ptrdiff_t hi, bool write,
                   bool covered, const char* scope);

  /// A held-open direct shared-memory access of [lo, hi) in \p target's
  /// slice of a shared window by co-located \p origin
  /// (Win::shm_access_begin). It bypasses epochs entirely, so this is the
  /// only record of the access; it is checked against every epoch open on
  /// the target -- including MPI-3 lock_all epochs, whose in-flight
  /// operations a concurrent direct load/store genuinely races -- and
  /// in-flight RMA issued later is checked back against it (record_op).
  void shm_begin(std::uint64_t win, int target, int origin, int world_origin,
                 OpKind kind, Op op, std::ptrdiff_t lo, std::ptrdiff_t hi,
                 const char* scope);

  /// One shm_put/shm_get/shm_acc fast-path operation, checked as
  /// shm_begin checks. It completes atomically under the core lock, so
  /// its violations are reported at once and nothing is recorded: a
  /// held-open access by \p origin at the same offset stays in place.
  /// \p kind put/get/acc mirrors RMA recording: an OpKind::acc access is
  /// the CPU-atomic accumulate path, which is element-atomic with
  /// accumulates of the same \p op and so conflicts only under the
  /// acc-mixing rules.
  void shm_op(std::uint64_t win, int target, int origin, int world_origin,
              OpKind kind, Op op, std::ptrdiff_t lo, std::ptrdiff_t hi,
              const char* scope);

  /// End of the direct access by \p accessor (local_begin's \p rank, or
  /// shm_begin's \p origin) that began at \p lo in \p target's slice:
  /// report its pending violations and drop the record.
  void access_end(std::uint64_t win, int target, int accessor,
                  std::ptrdiff_t lo);

  /// Lock-discipline misuse detected by the window layer (which raises the
  /// classified Errc itself); the checker only counts it.
  void note_discipline(int world_rank) noexcept;

  // ---- counters ----

  RmaCheckCounts counts(int world_rank) const noexcept;
  RmaCheckCounts total_counts() const noexcept;

 private:
  /// Per-epoch (or per-ghost) recorded coverage. clear() keeps the
  /// storage, so an epoch record reused from epoch_nodes_ records without
  /// allocating.
  struct Sets {
    IntervalSet reads;
    IntervalSet writes;
    std::array<IntervalSet, kOpCount> accs;  ///< indexed by Op
    /// The lowest recorded byte, and one past the highest (0 when empty):
    /// an access outside [begin, end) conflicts with nothing here.
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;

    bool empty() const noexcept { return end == 0; }
    /// True when inclusive [lo, hi] meets the recorded extent.
    bool meets(std::uintptr_t lo, std::uintptr_t hi) const noexcept {
      return lo < end && hi >= begin;
    }
    /// Widen the extent by inclusive [lo, hi].
    void extend(std::uintptr_t lo, std::uintptr_t hi) noexcept {
      begin = empty() ? lo : std::min(begin, lo);
      end = std::max(end, hi + 1);
    }
    void clear() noexcept;
    /// Ranges the storage holds without reallocating, over all the sets.
    std::size_t capacity() const noexcept;
  };

  /// Summary of a closed epoch, shared by every epoch it was concurrent
  /// with (conflicts across the overlap window are erroneous regardless of
  /// the order the accesses actually happened in).
  struct Ghost {
    std::uint64_t epoch_id = 0;
    int origin = -1;
    bool exclusive = false;
    const char* scope = nullptr;
    Sets sets;
  };

  struct Violation {
    RmaViolation cls = RmaViolation::concurrent;
    std::string msg;
  };

  struct EpochRec {
    std::uint64_t id = 0;
    int origin = -1;
    bool exclusive = false;
    bool mpi3 = false;
    const char* scope = nullptr;  ///< innermost trace scope of the last op
    Sets sets;
    std::vector<std::shared_ptr<const Ghost>> ghosts;
    std::vector<Violation> pending;
  };

  struct LocalRec {
    std::ptrdiff_t lo = 0;
    std::ptrdiff_t hi = 0;
    bool write = false;
    bool covered = false;
    bool shm = false;    ///< same-node direct access (not the owner's own)
    bool acc = false;    ///< shm accumulate (CPU-atomic): acc-mixing rules
    Op op = Op::sum;     ///< accumulate operator when acc
    int accessor = -1;   ///< rank doing the load/store (== target unless shm)
    const char* scope = nullptr;
    std::vector<Violation> pending;
  };

  /// Open direct accesses are keyed by (accessor rank, region offset):
  /// several co-located ranks may hold shm accesses to one target slice at
  /// once, and the owner's own local access must not collide with them.
  using LocalKey = std::pair<int, std::ptrdiff_t>;

  using EpochMap = std::map<int, EpochRec>;  ///< origin rank -> epoch
  using LocalMap = std::map<LocalKey, LocalRec>;  ///< (accessor, offset)

  struct TargetRec {
    EpochMap open;
    LocalMap locals;  ///< open direct accesses
  };

  struct WinRec {
    std::map<int, TargetRec> targets;
  };

  struct PerRankCounts {
    std::uint64_t v[kRmaViolationCount] = {};
  };

  /// What a conflict query matched: which set, and for accumulates which op.
  struct Hit {
    enum class Kind { none, read, write, acc } kind = Kind::none;
    Op op = Op::sum;
    std::uintptr_t lo = 0;  ///< the previously recorded interval (inclusive)
    std::uintptr_t hi = 0;
  };

  static bool conflict_with(const Sets& s, OpKind kind, Op op,
                            std::uintptr_t lo, std::uintptr_t hi, Hit* hit);
  static RmaViolation classify(OpKind kind, const Hit& hit, bool same_origin,
                               bool local);
  static std::string describe_hit(const Hit& hit);
  static std::string describe_direct(const LocalRec& lrec);

  /// Check the direct access \p lrec on \p target, as a \p kind / \p op
  /// access, against the epochs open on \p tr and the closed epochs they
  /// were concurrent with; violations are deferred into lrec.pending.
  void check_direct(std::uint64_t win, int target, TargetRec& tr,
                    LocalRec& lrec, OpKind kind, Op op, int world_rank);

  /// The record of a same-node direct access by \p origin, checked by
  /// check_direct (shm_begin, shm_op).
  LocalRec check_shm(std::uint64_t win, int target, TargetRec& tr,
                     int origin, int world_origin, OpKind kind, Op op,
                     std::ptrdiff_t lo, std::ptrdiff_t hi, const char* scope);

  /// Count, and defer the message into \p pending.
  void flag(std::vector<Violation>& pending, RmaViolation cls, int world_rank,
            std::string msg);

  /// warn: print and clear; abort: print, clear and raise Errc::rma_conflict.
  void report(std::vector<Violation>& pending);

  /// Ready a closed epoch's record, left in its pooled map node, for the
  /// next epoch: drop its ghosts and violations, and clear its coverage,
  /// keeping the storage unless it grew past kMaxSpareRanges (one large
  /// scatter must not pin its peak storage for the rest of the run). Sets
  /// a ghost took are not kept: they die with the last epoch that was
  /// concurrent with them.
  static void retire(EpochRec& ep);

  static constexpr std::size_t kMaxSpareRanges = 1024;

  RmaCheck mode_;
  std::uint64_t next_epoch_id_ = 1;
  std::map<std::uint64_t, WinRec> wins_;
  /// Map nodes of closed epochs with their coverage storage, reused by
  /// epoch_opened so a warm epoch record allocates nothing.
  NodePool<EpochMap> epoch_nodes_;
  /// Map nodes of ended direct accesses, reused so a warm staged copy
  /// (a local access per copy) allocates nothing.
  NodePool<LocalMap> local_nodes_;
  // record_op scratch, empty between calls: the operation's staged
  // coverage, its segments in offset order when they came unsorted, and
  // the coverage its hull meets.
  Sets op_sets_;
  std::vector<Segment> sorted_;
  std::vector<const EpochRec*> near_epochs_;
  std::vector<const Ghost*> near_ghosts_;
  std::vector<const LocalRec*> near_locals_;
  std::vector<PerRankCounts> per_rank_;
};

}  // namespace mpisim

#endif  // MPISIM_CHECKER_HPP
