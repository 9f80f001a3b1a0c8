#ifndef MPISIM_RUNTIME_HPP
#define MPISIM_RUNTIME_HPP

/// \file runtime.hpp
/// The simulator core: thread-per-rank SPMD execution.
///
/// mpisim::run(cfg, fn) launches cfg.nranks OS threads; each runs \p fn as
/// one "MPI process". All mpisim calls locate their rank's context through a
/// thread-local pointer, so user code reads like ordinary SPMD MPI code:
///
///     mpisim::run({.nranks = 4}, [] {
///       if (mpisim::rank() == 0) ...
///       mpisim::world().barrier();
///     });
///
/// Shared simulator state is serialized by a single global mutex
/// (SimCore::mu). This coarse locking is deliberate: the simulator's
/// performance story is told in *virtual* time (SimClock + NetworkModel),
/// while a single lock makes the many blocking-rendezvous protocols
/// (receives, window locks, collectives) trivially race-free.
///
/// Blocking is per rank. Each rank owns a wake slot (a condition variable
/// plus a pending-wake flag), and every state change wakes only the ranks
/// it can unblock: a mailbox push wakes the destination, a lock grant the
/// granted origin, a collective completion the communicator's members.
/// Only abort, rank exit, rank death, the survivable lock purge and the
/// deadlock verdict wake every rank. A run is deadlocked once every live
/// rank is blocked and none has a pending wake.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/mpisim/checker.hpp"
#include "src/mpisim/clock.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/fault.hpp"
#include "src/mpisim/hb.hpp"
#include "src/mpisim/mailbox.hpp"
#include "src/mpisim/netmodel.hpp"
#include "src/mpisim/platform.hpp"
#include "src/mpisim/registration.hpp"
#include "src/mpisim/trace.hpp"

namespace mpisim {

class Comm;
struct CommImpl;
class SimCore;

/// Simulation parameters.
struct Config {
  int nranks = 4;
  Platform platform = Platform::ideal;
  /// RMA validity checker mode (checker.hpp), the one conflict-checking
  /// knob: record every RMA byte interval and declared direct local access,
  /// and report MPI-2 conflict violations when the access epoch completes
  /// (unlock / flush / local-access end). abort (the default) raises
  /// Errc::rma_conflict; warn prints to stderr and counts; off records
  /// nothing; race adds the vector-clock happens-before detector (hb.hpp),
  /// raising Errc::rma_race on cross-epoch unordered conflicts. Overridable
  /// at run time by the MPISIM_RMA_CHECK environment variable
  /// (off|warn|abort|race; unknown values warn on stderr and fall back to
  /// off).
  RmaCheck rma_check = RmaCheck::abort;
  /// Cap on the happens-before shadow store's total recorded byte
  /// intervals (pending accesses plus published summaries): past it the
  /// oldest summaries are dropped and counted in the race overflow
  /// counter. 0 disables the cap.
  std::size_t rma_check_max_intervals = 1 << 16;
  /// Ranks per node for the NetworkModel's node map: consecutive ranks in
  /// groups of this size share a node (and its shared-memory windows).
  /// 0 (the default) takes the platform profile's ranks_per_node; > 0
  /// overrides it, letting tests co-locate or separate ranks at will.
  int ranks_per_node = 0;
  /// Per-rank thread stack size in bytes (large rank counts need small
  /// stacks; user code must keep big arrays on the heap).
  std::size_t stack_bytes = 1 << 20;
  /// Deterministic fault schedule (fault.hpp). Disabled by default.
  FaultPlan fault;
  /// Virtual-time deadline for any single blocking wait: when global
  /// virtual time advances this far past a wait's entry while its predicate
  /// stays false, the wait raises Errc::wait_timeout instead of hanging
  /// silently. 0 disables the deadline. Independently, a wait whose every
  /// live peer is also blocked is detected as a deadlock and raises
  /// Errc::wait_timeout regardless of this setting.
  double wait_deadline_ns = 0.0;
  /// Byte cap on any one destination's queued (unconsumed) eager-send
  /// payload: a send whose message would push the destination mailbox's
  /// queued_bytes() past this raises Errc::resource_exhausted at the
  /// *sender* instead of buffering without bound (a client flooding one
  /// stalled server rank gets clean backpressure, not OOM). Messages
  /// consumed directly by a posted receive never queue and are exempt, as
  /// is the runtime-internal system channel. 0 (the default) is unlimited.
  std::size_t mailbox_cap_bytes = 0;
  /// Virtual-time interval between cooperative progress-engine ticks: a
  /// rank's progress hook (SimClock::set_progress_hook) fires each time
  /// this much *compute* time accumulates through advance_compute().
  /// Communication layers above (armci's nb engine) install the hook when
  /// their progress engine is enabled.
  double progress_interval_ns = 10'000.0;
};

/// Per-rank state. One instance per simulated process, owned by SimCore and
/// bound to its thread via a thread_local pointer.
class RankContext {
 public:
  RankContext(SimCore& core, int rank);
  ~RankContext();

  RankContext(const RankContext&) = delete;
  RankContext& operator=(const RankContext&) = delete;

  int rank() const noexcept { return rank_; }
  SimCore& core() noexcept { return *core_; }
  SimClock& clock() noexcept { return clock_; }

  /// This rank's trace sink (disabled unless the layer above enables it).
  Tracer& tracer() noexcept { return tracer_; }

  /// Registration cache of the MPI runtime on this rank.
  RegistrationCache& mpi_reg() noexcept { return mpi_reg_; }
  /// Registration cache of the native ARMCI runtime on this rank.
  RegistrationCache& native_reg() noexcept { return native_reg_; }

  /// This rank's fault stream (configured from Config::fault).
  FaultInjector& fault() noexcept { return fault_; }

  /// Slot for the layer above (ARMCI keeps its per-process state here).
  void* user_state = nullptr;
  /// Cleanup hook invoked when the rank thread finishes (even on error).
  std::function<void()> user_state_cleanup;

  /// Virtual-time latency of this rank's most recent failure observation
  /// (observation clock minus the victim's death time; < 0 until this rank
  /// observes a death). Survivable mode's detection-latency gauge.
  double last_detect_latency_ns = -1.0;
  /// Death epoch acknowledged via Comm::failure_ack(): any-source receives
  /// raise Errc::crashed once per unacknowledged epoch (ULFM
  /// MPI_Comm_failure_ack semantics), then proceed.
  std::uint64_t acked_death_epoch = 0;

 private:
  SimCore* core_;
  int rank_;
  SimClock clock_;
  Tracer tracer_{clock_};
  RegistrationCache mpi_reg_;
  RegistrationCache native_reg_;
  FaultInjector fault_;
};

/// Shared simulation state for one run().
class SimCore {
 public:
  SimCore(const Config& cfg);
  ~SimCore();

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  const Config& config() const noexcept { return cfg_; }
  int nranks() const noexcept { return cfg_.nranks; }
  const PlatformProfile& profile() const noexcept { return prof_; }
  const NetworkModel& model() const noexcept { return model_; }

  /// The RMA validity checker (checker.hpp). Stateful methods require mu();
  /// counter reads and note_discipline() are lock-free.
  RmaChecker& checker() noexcept { return checker_; }

  /// The happens-before race detector (hb.hpp), active at RmaCheck::race.
  /// Stateful methods require mu(); counter reads are lock-free.
  HbChecker& hb() noexcept { return hb_; }

  /// The global lock guarding all shared simulator state.
  std::mutex& mu() noexcept { return mu_; }

  /// Announce a state change that can satisfy world rank \p r's blocking
  /// predicate: flags a pending wake (so the deadlock detector knows \p r
  /// still has to re-evaluate) and wakes \p r if it is blocked. Caller must
  /// hold mu(). Every mutation site must wake each rank whose predicate it
  /// can flip; a missed rank sleeps until the 1 s safety net and can be
  /// misjudged deadlocked.
  void wake_locked(int r) noexcept {
    WakeSlot& s = slots_[static_cast<std::size_t>(r)];
    s.pending = true;
    if (s.waiting) s.cv.notify_one();
  }

  /// wake_locked() for each world rank in \p ranks.
  void wake_locked(std::span<const int> ranks) noexcept {
    for (int r : ranks) wake_locked(r);
  }

  /// Wake every rank (abort, rank exit or death, survivable purge,
  /// deadlock verdict). Caller must hold mu().
  void wake_all_locked() noexcept;

  /// Block until \p pred() holds, waking when a peer wakes this rank.
  /// Raises Errc::aborted if another rank failed meanwhile, and
  /// Errc::wait_timeout when every live rank is blocked (deadlock) or when
  /// the virtual-time deadline (Config::wait_deadline_ns) expires first.
  /// \p lk must hold mu() and the caller must be a rank thread; \p site
  /// names the wait in diagnostics.
  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& lk, Pred pred,
            const char* site = "blocking wait") {
    if (aborted_) throw_aborted();
    if (pred()) return;
    WakeSlot& slot = wait_enter_locked();
    for (;;) {
      if (deadlocked_) {
        wait_exit_locked(slot);
        throw_wait_timeout(site, /*deadlock=*/true, slot.t0_ns);
      }
      if (cfg_.wait_deadline_ns > 0.0 &&
          latest_ns_ - slot.t0_ns > cfg_.wait_deadline_ns) {
        wait_exit_locked(slot);
        throw_wait_timeout(site, /*deadlock=*/false, slot.t0_ns);
      }
      // Our predicate is false against the current state and no wake is
      // pending for us. Deadlock is certain -- not merely suspected -- once
      // that holds for every live rank: all mutations run under mu() on a
      // live rank and wake the ranks they can unblock, so no predicate can
      // ever become true again. A peer woken but not yet rescheduled still
      // carries its pending flag, which defers the verdict until it
      // actually re-evaluates, so host-scheduling stalls cannot fake one.
      if (quiescent_locked()) {
        deadlocked_ = true;
        wake_all_locked();
        wait_exit_locked(slot);
        throw_wait_timeout(site, /*deadlock=*/true, slot.t0_ns);
      }
      // The timeout is only a safety net: every relevant transition wakes
      // the ranks it concerns.
      slot.cv.wait_for(lk, std::chrono::seconds(1),
                       [&] { return slot.pending; });
      slot.pending = false;
      if (aborted_) {
        wait_exit_locked(slot);
        throw_aborted();
      }
      if (pred()) {
        wait_exit_locked(slot);
        return;
      }
    }
  }

  /// Record the first failure and wake all blocked ranks.
  void abort(std::exception_ptr err) noexcept;

  /// True once any rank failed. Safe to poll without holding mu().
  bool aborted() const noexcept { return aborted_; }

  /// Raise Errc::aborted if a peer already failed; caller must hold mu().
  /// RMA data movement calls this so no operation copies into memory a
  /// crashed rank's cleanup hook may have released.
  void check_failed_locked() const {
    if (aborted_) throw_aborted();
  }

  // ---- Survivable-failure support (Config::fault.survivable) ----

  /// True when scheduled crashes mark the victim dead instead of aborting
  /// the whole run.
  bool survivable() const noexcept { return cfg_.fault.survivable; }

  /// Record that \p rank died at virtual time \p now_ns and wake every
  /// rank so failure-aware predicates can observe it. Called by
  /// the victim's FaultInjector before its crash exception unwinds.
  void rank_crashed(int rank, double now_ns) noexcept;

  /// True when \p r has been declared dead. Caller must hold mu().
  bool is_dead_locked(int r) const noexcept {
    return r >= 0 && r < static_cast<int>(dead_.size()) &&
           dead_[static_cast<std::size_t>(r)] != 0;
  }

  /// Locking convenience around is_dead_locked().
  bool is_failed(int r);

  /// World ranks declared dead so far, ascending.
  std::vector<int> failed_ranks();

  /// Monotone count of deaths; any-source receives compare it against the
  /// caller's acked_death_epoch. Caller must hold mu().
  std::uint64_t death_epoch_locked() const noexcept { return death_epoch_; }

  /// Most recently declared dead rank (diagnostics; -1 if none). Caller
  /// must hold mu().
  int latest_dead_locked() const noexcept { return latest_dead_; }

  /// Virtual time by which every rank's detector has declared \p r dead.
  /// Caller must hold mu(); \p r must be dead.
  double detection_bound_locked(int r) const noexcept {
    return death_ns_[static_cast<std::size_t>(r)] +
           cfg_.fault.detect_period_ns;
  }

  /// The calling rank observes \p dead_rank's death without failing: its
  /// clock advances to the detector bound and its detection-latency gauge
  /// is stamped (read-failover sites survive the death, so no throw).
  /// Caller must hold mu() and be a rank thread.
  void note_death_observed_locked(int dead_rank);

  /// The calling rank observes \p dead_rank's death: its clock advances to
  /// the detector bound (death time + FaultPlan::detect_period_ns), its
  /// detection-latency gauge is stamped, and Errc::crashed is raised.
  /// Caller must hold mu() and be a rank thread.
  [[noreturn]] void observe_death_locked(int dead_rank, const char* site);

  /// Raise Errc::crashed via observe_death_locked() when \p target is
  /// dead; otherwise no-op. The survivable-mode analogue of
  /// check_failed_locked() for operations addressing one specific rank.
  void check_target_alive_locked(int target, const char* site) {
    if (survivable() && is_dead_locked(target))
      observe_death_locked(target, site);
  }

  /// Fold \p now_ns into the global high-water virtual time that wait
  /// deadlines measure against, waking the waiters whose deadline it
  /// passes. Caller must hold mu().
  void note_time_locked(double now_ns) noexcept {
    if (now_ns <= latest_ns_) return;
    latest_ns_ = now_ns;
    if (now_ns > next_deadline_ns_) wake_expired_locked();
  }

  /// A rank's thread is exiting (normally or after a failure).
  void rank_exited() noexcept;

  /// Mailbox of world rank \p r (access under mu()).
  Mailbox& mailbox(int r);

  /// Context of world rank \p r.
  RankContext& rank_ctx(int r);

  /// Fresh communicator id; caller must hold mu().
  std::uint64_t alloc_comm_id_locked() noexcept { return next_comm_id_++; }

  /// Fresh window id; caller must hold mu().
  std::uint64_t alloc_win_id_locked() noexcept { return next_win_id_++; }

  /// Fresh object-publication key suffix; caller must hold mu().
  std::uint64_t alloc_obj_key_locked() noexcept { return next_obj_key_++; }

  /// The world communicator's shared state.
  const std::shared_ptr<CommImpl>& world_impl() const noexcept {
    return world_impl_;
  }

  /// Publish a communicator impl under \p key for peers to fetch (used by
  /// intercomm construction, where one leader builds the shared state).
  /// Caller must hold mu() and wake the fetching ranks afterwards.
  void publish_comm_locked(std::uint64_t key, std::shared_ptr<CommImpl> impl);

  /// Block until a peer publishes \p key, then return the shared impl.
  std::shared_ptr<CommImpl> fetch_published_comm(std::uint64_t key);

  /// Key namespaces for publish_obj_locked: window and pacer ids come from
  /// independent counters, so tag the high bits to keep keys unique.
  static constexpr std::uint64_t kWinPublishTag = 1ull << 62;
  static constexpr std::uint64_t kPacerPublishTag = 2ull << 62;

  /// Publish an arbitrary shared object under \p key for peers to fetch
  /// (windows, pacers: one leader builds the shared state, peers copy it).
  /// The core holds a strong reference until retire_published_obj(), so an
  /// abort mid-rendezvous can neither leak the object nor free it under a
  /// peer still copying. Caller must hold mu() and wake the fetching ranks
  /// afterwards.
  void publish_obj_locked(std::uint64_t key, std::shared_ptr<void> obj);

  /// Block until a peer publishes \p key, then return the shared object.
  std::shared_ptr<void> fetch_published_obj(std::uint64_t key);

  /// Drop the core's reference to a published object (after every peer has
  /// copied it). Skipping this on an error path is safe: the entry is
  /// released when the core is destroyed.
  void retire_published_obj(std::uint64_t key);

 private:
  friend void run(const Config&, const std::function<void()>&);

  /// One rank's blocking state.
  struct WakeSlot {
    std::condition_variable cv;
    bool waiting = false;  ///< inside wait()
    bool pending = false;  ///< woken since its last predicate evaluation
    double t0_ns = 0.0;    ///< entry time of the current wait
  };

  /// Count the calling rank as blocked, clear its pending wake (its
  /// predicate was just found false) and publish its clock as the wait's
  /// entry time (deadline reference point). Caller must hold mu() and be a
  /// rank thread.
  WakeSlot& wait_enter_locked();
  void wait_exit_locked(WakeSlot& slot) noexcept;
  /// True when every live rank is blocked and none has a pending wake: a
  /// certain deadlock. Caller must hold mu().
  bool quiescent_locked() const noexcept;
  /// Wake the waiters whose virtual-time deadline latest_ns_ has passed and
  /// recompute next_deadline_ns_. Caller must hold mu().
  void wake_expired_locked() noexcept;
  [[noreturn]] static void throw_aborted();
  [[noreturn]] void throw_wait_timeout(const char* site, bool deadlock,
                                       double t0_ns) const;

  Config cfg_;
  const PlatformProfile& prof_;
  NetworkModel model_;
  RmaChecker checker_;
  HbChecker hb_;

  std::mutex mu_;
  std::atomic<bool> aborted_{false};
  std::exception_ptr first_error_;

  // Liveness accounting (all under mu_ except the atomic aborted_ above).
  std::vector<WakeSlot> slots_;  ///< per rank
  int running_ = 0;            ///< rank threads not yet exited
  int blocked_ = 0;            ///< ranks currently inside wait()
  bool deadlocked_ = false;    ///< sticky: quiescence was detected
  double latest_ns_ = 0.0;     ///< high-water published virtual time
  /// Earliest wait deadline (entry + Config::wait_deadline_ns) among the
  /// blocked ranks not yet woken for it; +inf when deadlines are off.
  double next_deadline_ns_ = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> dead_;  ///< per rank: declared dead? (survivable)
  std::vector<double> death_ns_;    ///< per rank: virtual death time
  std::uint64_t death_epoch_ = 0;   ///< total deaths so far
  int latest_dead_ = -1;            ///< most recently declared dead rank

  std::vector<std::unique_ptr<RankContext>> ranks_;
  std::vector<Mailbox> mailboxes_;
  std::uint64_t next_comm_id_ = 1;
  std::uint64_t next_win_id_ = 1;
  std::uint64_t next_obj_key_ = 1;
  std::shared_ptr<CommImpl> world_impl_;
  std::map<std::uint64_t, std::shared_ptr<CommImpl>> published_;
  std::map<std::uint64_t, std::shared_ptr<void>> published_objs_;
};

/// Run \p rank_main on cfg.nranks simulated processes. Blocks until all
/// finish; rethrows the first rank failure (after shutting down the rest).
void run(const Config& cfg, const std::function<void()>& rank_main);

/// Convenience overload.
void run(int nranks, Platform platform, const std::function<void()>& rank_main);

/// Context of the calling simulated process (throws outside run()).
RankContext& ctx();

/// True when called from inside a simulated process.
bool in_simulation() noexcept;

/// Rank of the calling simulated process in the world communicator.
int rank();

/// Number of simulated processes.
int nranks();

/// The world communicator.
Comm world();

/// This rank's virtual clock.
SimClock& clock();

/// This rank's trace sink.
Tracer& tracer();

/// The active cost model.
const NetworkModel& model();

}  // namespace mpisim

#endif  // MPISIM_RUNTIME_HPP
