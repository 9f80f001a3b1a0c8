#ifndef MPISIM_RUNTIME_HPP
#define MPISIM_RUNTIME_HPP

/// \file runtime.hpp
/// The simulator core: deterministic fiber-per-rank SPMD execution.
///
/// mpisim::run(cfg, fn) runs \p fn as cfg.nranks "MPI processes". Each rank
/// is a fiber with its own stack, and all fibers share one host thread that
/// run() spawns and joins (the caller's thread, and its CPU affinity, are
/// left alone). A switch is a short x86-64 routine that saves only the
/// callee-saved registers and the floating-point control state (rounding
/// mode, exception masks), so each rank keeps its own FP control state but
/// all ranks share the host thread's signal mask. All mpisim calls locate
/// their rank's context through the scheduler's current-rank pointer, so
/// user code reads like ordinary SPMD MPI code:
///
///     mpisim::run({.nranks = 4}, [] {
///       if (mpisim::rank() == 0) ...
///       mpisim::world().barrier();
///     });
///
/// Exactly one rank runs at a time, and the order is a pure function of
/// the config and seed. Every acquisition of the core lock (SimCore::mu())
/// is a scheduling point: the caller first hands off to any runnable rank
/// with a smaller (virtual clock, rank) key. A blocking wait marks the rank
/// blocked, releases the lock and switches to the next rank in that order.
/// So lock grants, any-source matches and shared-counter claims happen in
/// virtual-time order, and a handoff costs a context switch. The lock
/// itself never contends; it marks the critical sections that must not
/// switch.
///
/// A state change wakes only the ranks it can unblock: a mailbox push wakes
/// the destination, a lock grant the granted origin, a collective
/// completion the communicator's members. Only abort, rank death, the
/// survivable lock purge and the deadlock verdict wake every rank. A run is
/// deadlocked when no rank is runnable while some are blocked.
///
/// mpisim::pace() adds one rule for dynamically load-balanced loops: a
/// rank that paces at a later virtual time than another live rank's latest
/// pace is held until that rank paces again, finishes, or nothing else can
/// run. Task claims then follow the modeled clocks even while the earlier
/// rank is blocked, which the (clock, rank) order alone would let pass.

#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
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
class EpochPipeline;
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
  /// Per-rank fiber stack size in bytes. Each stack is mmap'ed with a
  /// PROT_NONE guard page below it, so an overflow faults instead of
  /// corrupting a neighbour. Pages are committed on first touch: large rank
  /// counts can take small stacks, and user code must keep big arrays on
  /// the heap.
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
/// current while its fiber runs.
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
  /// Cleanup hook invoked when the rank finishes (even on error).
  std::function<void()> user_state_cleanup;
  /// Per-run sequence counter for the layer above; unlike user_state it
  /// survives the layer's teardown (ARMCI numbers its GMRs with it).
  std::uint64_t user_seq = 0;

  /// Innermost EpochPipeline scope open on this rank (win.hpp).
  EpochPipeline* active_pipeline = nullptr;
  /// Round-trip chains of this rank's open EpochPipeline scopes, one per
  /// (window, target), kept as one stack: each scope owns the entries from
  /// where the stack stood when it opened, and drops them when it closes.
  struct PipelineChain {
    std::uint64_t win_id = 0;
    int target_rank = -1;
    double ns = 0.0;
  };
  std::vector<PipelineChain> pipeline_chains;

  /// Win::rma_op's flattened origin and target segment lists, reused from
  /// op to op (per rank, see scratch.hpp).
  std::vector<Segment> rma_origin_segs;
  std::vector<Segment> rma_target_segs;

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

/// The lock around shared simulator state (SimCore::mu()). Ranks share one
/// host thread, so it never contends: lock() is the scheduler's hand-off
/// point, and holding it marks a section that must not switch ranks.
class SimMutex {
 public:
  explicit SimMutex(SimCore& core) noexcept : core_(&core) {}
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  /// Hand off to every runnable rank ordered before the caller, then take
  /// the lock. Raises Errc::internal on a recursive acquisition.
  void lock();
  void unlock() noexcept { held_ = false; }

 private:
  friend class SimCore;
  SimCore* core_;
  bool held_ = false;
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

  /// The RMA validity checker (checker.hpp). Stateful methods require mu().
  RmaChecker& checker() noexcept { return checker_; }

  /// The happens-before race detector (hb.hpp), active at RmaCheck::race.
  /// Stateful methods require mu().
  HbChecker& hb() noexcept { return hb_; }

  /// The global lock guarding all shared simulator state.
  SimMutex& mu() noexcept { return mu_; }

  /// Announce a state change that can satisfy world rank \p r's blocking
  /// predicate: a blocked \p r becomes runnable and re-evaluates it when
  /// its turn comes. Caller must hold mu(). Every mutation site must wake
  /// each rank whose predicate it can flip; a missed rank stays blocked
  /// and can be judged deadlocked.
  void wake_locked(int r) noexcept {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    if (f.state != Fiber::State::blocked) return;
    make_runnable(r);
  }

  /// wake_locked() for each world rank in \p ranks.
  void wake_locked(std::span<const int> ranks) noexcept {
    for (int r : ranks) wake_locked(r);
  }

  /// Wake every rank (abort, rank death, survivable purge, deadlock
  /// verdict). Caller must hold mu().
  void wake_all_locked() noexcept;

  /// Block until \p pred() holds, re-evaluating it whenever a peer wakes
  /// this rank. Raises Errc::aborted if another rank failed meanwhile, and
  /// Errc::wait_timeout when no rank is left runnable (deadlock) or when
  /// the virtual-time deadline (Config::wait_deadline_ns) expires first.
  /// \p lk must hold mu() and the caller must be a rank; \p site names the
  /// wait in diagnostics.
  template <typename Pred>
  void wait(std::unique_lock<SimMutex>& lk, Pred pred,
            const char* site = "blocking wait") {
    if (aborted_) throw_aborted();
    if (pred()) return;
    Fiber& me = wait_enter_locked();
    for (;;) {
      if (deadlocked_) {
        wait_exit_locked(me);
        throw_wait_timeout(site, /*deadlock=*/true, me.t0_ns);
      }
      if (cfg_.wait_deadline_ns > 0.0 &&
          latest_ns_ - me.t0_ns > cfg_.wait_deadline_ns) {
        wait_exit_locked(me);
        throw_wait_timeout(site, /*deadlock=*/false, me.t0_ns);
      }
      block(lk);
      if (aborted_) {
        wait_exit_locked(me);
        throw_aborted();
      }
      if (pred()) {
        wait_exit_locked(me);
        return;
      }
    }
  }

  /// The calling rank continues only after every other runnable rank has
  /// run to its next handoff or blocked, whatever its clock (see
  /// mpisim::yield()). Raises Errc::aborted once a peer failed. Caller
  /// must be a rank and must not hold mu().
  void yield();

  /// Publish the calling rank's clock as its pace time and hold the rank
  /// while another live rank's pace time is smaller (see mpisim::pace()).
  /// Raises Errc::aborted once a peer failed. Caller must be a rank and
  /// must not hold mu().
  void pace();

  /// Record the first failure and wake all blocked ranks.
  void abort(std::exception_ptr err) noexcept;

  /// True once any rank failed.
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
  /// Caller must hold mu() and be a rank.
  void note_death_observed_locked(int dead_rank);

  /// The calling rank observes \p dead_rank's death: its clock advances to
  /// the detector bound (death time + FaultPlan::detect_period_ns), its
  /// detection-latency gauge is stamped, and Errc::crashed is raised.
  /// Caller must hold mu() and be a rank.
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


  /// Mailbox of world rank \p r (access under mu()).
  Mailbox& mailbox(int r);

  /// Context of world rank \p r.
  RankContext& rank_ctx(int r);

  /// Fresh communicator id; caller must hold mu().
  std::uint64_t alloc_comm_id_locked() noexcept { return next_comm_id_++; }

  /// Fresh window id; caller must hold mu().
  std::uint64_t alloc_win_id_locked() noexcept { return next_win_id_++; }

  /// The world communicator's shared state.
  const std::shared_ptr<CommImpl>& world_impl() const noexcept {
    return world_impl_;
  }

  /// The system channel's shared state (comm id kSystemChannel, world
  /// group): runtime-internal leader handshakes, exempt from
  /// Config::mailbox_cap_bytes.
  const std::shared_ptr<CommImpl>& system_impl() const noexcept {
    return system_impl_;
  }

  /// Publish a communicator impl under \p key for peers to fetch. Only for
  /// the constructions a collective round on one communicator cannot
  /// serve: merge() shares one impl across the two groups of an
  /// intercommunicator, and shrink() must work on a revoked communicator.
  /// (Comm::dup/split/create and Win hand their shared state out through
  /// the round itself.) Caller must hold mu() and wake the fetching
  /// ranks afterwards.
  void publish_comm_locked(std::uint64_t key, std::shared_ptr<CommImpl> impl);

  /// Block until a peer publishes \p key, then return the shared impl.
  std::shared_ptr<CommImpl> fetch_published_comm(std::uint64_t key);

 private:
  friend void run(const Config&, const std::function<void()>&);
  friend class SimMutex;

  /// The layout of the C++ runtime's per-thread exception state
  /// (__cxa_get_globals(): the caught-exception stack and the uncaught
  /// count), copied out and in on every switch so a rank that blocks
  /// inside a catch block gets its own exception back.
  struct EhGlobals {
    void* caught = nullptr;
    unsigned int uncaught = 0;
  };

  /// One rank's fiber and scheduling state. Switching out saves the
  /// callee-saved registers, MXCSR and x87 control word on the fiber's own
  /// stack (fiber_switch.S) and keeps only the stack pointer here; the
  /// signal mask is not part of a fiber.
  struct Fiber {
    enum class State : std::uint8_t {
      runnable,  ///< in the run queue
      running,   ///< the current rank
      blocked,   ///< inside wait(), not yet woken
      yielded,   ///< inside yield(), waiting for its peers' turns
      held,      ///< inside pace(), behind a smaller pace time
      done,      ///< returned from the rank body
    };
    State state = State::runnable;
    bool waiting = false;      ///< inside wait() (blocked or woken)
    double t0_ns = 0.0;        ///< entry time of the current wait
    double paced_ns = 0.0;     ///< clock at the latest pace()
    std::uint64_t out_seq = 0; ///< switch count when it last switched out
    void* sp = nullptr;        ///< saved stack pointer while switched out
    void* stack = nullptr;     ///< lowest stack address (guard page below)
    std::size_t stack_bytes = 0;
    EhGlobals eh;
    void* tsan_fiber = nullptr;
  };

  /// Rank \p r's fiber, or the host context's for -1.
  Fiber& fiber(int r) noexcept {
    return r < 0 ? host_ : fibers_[static_cast<std::size_t>(r)];
  }

  /// Scheduling key: the runnable rank with the smallest one runs next.
  using Key = std::pair<double, int>;
  Key key(int r) const noexcept {
    return {ranks_[static_cast<std::size_t>(r)]->clock().now_ns(), r};
  }

  /// Queue \p r as runnable under its current key.
  void make_runnable(int r) noexcept;
  /// The calling rank reached a scheduling point (SimMutex::lock): hand
  /// off if a runnable rank's key is below its own.
  void maybe_hand_off();
  /// The current rank leaves the running state for \p s and the next rank
  /// runs; returns when the caller is scheduled again.
  void reschedule(Fiber::State s);
  /// Make the oldest yielded rank runnable once every queued rank has
  /// switched out since it yielded.
  void release_yielded() noexcept;
  /// Make every held rank runnable whose pace time no live, unfinished
  /// rank undercuts; returns the smallest such rank's pace time.
  double release_paced() noexcept;
  /// Mark the caller blocked, release mu(), run other ranks until one wakes
  /// the caller, then re-take mu() without a hand-off (\p lk owns it
  /// throughout).
  void block(std::unique_lock<SimMutex>& lk);
  /// The next rank to run (-1 if none is runnable): the smallest key among
  /// the queued ranks and the yielded ranks whose peers have all had a turn
  /// since. When no rank is queued, the held rank with the smallest key
  /// runs first. Declares a deadlock (waking every blocked rank) when only
  /// blocked ranks remain.
  int pick_next() noexcept;
  /// Leave the current context (its state already set) for \p next, or
  /// for the host context when \p next is -1; returns when the caller is
  /// next scheduled.
  void switch_to(int next);
  /// Fiber entry and exit of rank \p r; never returns.
  [[noreturn]] void fiber_main(int r);
  /// First code on a new fiber's stack (\p self is the SimCore): runs
  /// fiber_main() for the current rank.
  [[noreturn]] static void fiber_start(void* self);
  /// Create the fibers, run them to completion on the calling host thread
  /// and release their stacks.
  void run_fibers(const std::function<void()>& rank_main);

  /// Count the calling rank as waiting and publish its clock as the wait's
  /// entry time (deadline reference point). Caller must hold mu() and be a
  /// rank.
  Fiber& wait_enter_locked();
  void wait_exit_locked(Fiber& f) noexcept;
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

  SimMutex mu_{*this};
  bool aborted_ = false;
  std::exception_ptr first_error_;

  // Scheduler state. The scheduler runs between critical sections (see
  // runtime.cpp); inside one, wake_locked() only queues ranks.
  std::vector<Fiber> fibers_;   ///< per rank
  std::vector<Key> runq_;       ///< min-heap of the runnable ranks' keys
  std::vector<int> yielded_;    ///< ranks inside yield()
  std::vector<int> held_;       ///< ranks inside pace()
  int current_ = -1;            ///< running rank; -1 = the host context
  std::uint64_t switches_ = 0;  ///< switch-outs so far (Fiber::out_seq)
  Fiber host_;                  ///< the host thread's own context
  const std::function<void()>* rank_main_ = nullptr;

  bool deadlocked_ = false;    ///< sticky: no rank was left runnable
  double latest_ns_ = 0.0;     ///< high-water published virtual time
  /// Earliest wait deadline (entry + Config::wait_deadline_ns) among the
  /// waiting ranks not yet woken for it; +inf when deadlines are off.
  double next_deadline_ns_ = std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> dead_;  ///< per rank: declared dead? (survivable)
  std::vector<double> death_ns_;    ///< per rank: virtual death time
  std::uint64_t death_epoch_ = 0;   ///< total deaths so far
  int latest_dead_ = -1;            ///< most recently declared dead rank

  std::vector<std::unique_ptr<RankContext>> ranks_;
  std::vector<Mailbox> mailboxes_;
  std::uint64_t next_comm_id_ = 1;
  std::uint64_t next_win_id_ = 1;
  std::shared_ptr<CommImpl> system_impl_;
  std::shared_ptr<CommImpl> world_impl_;
  std::map<std::uint64_t, std::shared_ptr<CommImpl>> published_;
};

/// Run \p rank_main on cfg.nranks simulated processes. Blocks until all
/// finish; rethrows the first rank failure (after shutting down the rest).
void run(const Config& cfg, const std::function<void()>& rank_main);

/// Convenience overload.
void run(int nranks, Platform platform, const std::function<void()>& rank_main);

/// Let every other runnable rank run to its next handoff or block before
/// the caller continues, whatever the clocks. A loop that spins on host
/// state another rank sets must call this each iteration: ranks share one
/// host thread, so a spin that never hands off never lets the setter run.
void yield();

/// Call before each task claim of a dynamically load-balanced loop, so the
/// claims follow the modeled clocks. The caller is held while another live
/// rank's latest pace() was at a smaller virtual time (equal times pass):
/// a rank whose clock is ahead is, in the modeled run, still busy with its
/// current task and must not claim early. A held rank goes once those
/// ranks pace again or finish, or, when no rank is left to run, in
/// (clock, rank) order; so the first pace() of a loop waits until every
/// live rank has paced or blocked. Meant for loops that every live rank
/// runs: a rank that skips the loop or leaves it early holds the others'
/// pace() calls until it blocks or finishes.
void pace();

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
