#include "src/mpisim/runtime.hpp"

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>
#include <xmmintrin.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <thread>

#include "src/mpisim/comm.hpp"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif
#ifdef __SANITIZE_THREAD__
#include <sanitizer/tsan_interface.h>
#endif

#ifndef __x86_64__
#error "mpisim fibers switch stacks with an x86-64 routine (fiber_switch.S) only"
#endif

extern "C" {
/// Save the caller's callee-saved registers and FP control state on its
/// stack, store that stack pointer in *save_sp and resume the fiber saved
/// at \p to_sp (fiber_switch.S).
void mpisim_fiber_switch(void** save_sp, void* to_sp);
/// A new fiber's first resume point: calls r12(rbx) (fiber_switch.S).
void mpisim_fiber_entry();
}

namespace mpisim {

namespace {

/// mpisim_fiber_switch's saved frame, lowest address first.
struct SwitchFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t pad = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void* r13 = nullptr;
  void* r12 = nullptr;
  void* rbx = nullptr;
  void* rbp = nullptr;
  void* ret = nullptr;
};
static_assert(sizeof(SwitchFrame) == 8 * sizeof(void*),
              "six pushed registers and the return address over one "
              "8-byte FP-control slot");

/// The running rank's context: the scheduler's current-rank pointer, set on
/// every switch (null in the host context and outside run()).
thread_local RankContext* t_ctx = nullptr;

/// Config::rma_check, unless MPISIM_RMA_CHECK overrides it
/// (off|warn|abort|race). The env hook lets CI rerun the whole suite in
/// abort or race mode with no code changes. An unknown value is almost
/// certainly a typo of an *enabling* level, so it must not silently run
/// unchecked at the config default: warn loudly and force off, making the
/// misconfiguration visible in any log that compares checked runs.
RmaCheck effective_rma_check(const Config& cfg) {
  const char* env = std::getenv("MPISIM_RMA_CHECK");
  if (env != nullptr) {
    RmaCheck parsed = RmaCheck::off;
    if (parse_rma_check(env, &parsed)) return parsed;
    std::fprintf(stderr,
                 "mpisim: unknown MPISIM_RMA_CHECK value \"%s\" "
                 "(expected off|warn|abort|race); checker disabled\n",
                 env);
    return RmaCheck::off;
  }
  return cfg.rma_check;
}

}  // namespace

RankContext::RankContext(SimCore& core, int rank) : core_(&core), rank_(rank) {
  fault_.configure(core.config().fault, rank, &core, &tracer_);
}

RankContext::~RankContext() = default;

SimCore::SimCore(const Config& cfg)
    : cfg_(cfg),
      prof_(platform_profile(cfg.platform)),
      model_(prof_, cfg.ranks_per_node),
      checker_(effective_rma_check(cfg), cfg.nranks),
      hb_(effective_rma_check(cfg) == RmaCheck::race, cfg.nranks,
          cfg.rma_check_max_intervals),
      fibers_(static_cast<std::size_t>(cfg.nranks)),
      mailboxes_(static_cast<std::size_t>(cfg.nranks)) {
  if (cfg.nranks < 1) raise(Errc::invalid_argument, "nranks < 1");
  runq_.reserve(static_cast<std::size_t>(cfg.nranks));
  yielded_.reserve(static_cast<std::size_t>(cfg.nranks));
  held_.reserve(static_cast<std::size_t>(cfg.nranks));
  dead_.assign(static_cast<std::size_t>(cfg.nranks), 0);
  death_ns_.assign(static_cast<std::size_t>(cfg.nranks), 0.0);
  ranks_.reserve(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r)
    ranks_.push_back(std::make_unique<RankContext>(*this, r));
  const Group everyone = Group::range(0, cfg.nranks);
  system_impl_ = make_intracomm(*this, kSystemChannel, everyone);
  world_impl_ = make_intracomm(*this, next_comm_id_++, everyone);
}

SimCore::~SimCore() = default;

void SimCore::abort(std::exception_ptr err) noexcept {
  std::lock_guard lk(mu_);
  if (!aborted_) {
    aborted_ = true;
    first_error_ = err;
  }
  wake_all_locked();
}

void SimCore::wake_all_locked() noexcept {
  for (int r = 0; r < cfg_.nranks; ++r) wake_locked(r);
}

SimCore::Fiber& SimCore::wait_enter_locked() {
  require_internal(t_ctx != nullptr, "blocking wait outside a rank");
  Fiber& f = fibers_[static_cast<std::size_t>(t_ctx->rank())];
  f.waiting = true;
  f.t0_ns = t_ctx->clock().now_ns();
  note_time_locked(f.t0_ns);
  if (cfg_.wait_deadline_ns > 0.0)
    next_deadline_ns_ =
        std::min(next_deadline_ns_, f.t0_ns + cfg_.wait_deadline_ns);
  return f;
}

void SimCore::wait_exit_locked(Fiber& f) noexcept { f.waiting = false; }

// ---- scheduler ----
//
// The scheduler runs between critical sections: on a rank's fiber inside
// SimMutex::lock() before the lock is taken, inside block() after it is
// released, and at rank exit. It never switches with mu_ held.

void SimMutex::lock() {
  core_->maybe_hand_off();
  require_internal(!held_, "recursive SimCore::mu() acquisition");
  held_ = true;
}

void SimCore::make_runnable(int r) noexcept {
  fibers_[static_cast<std::size_t>(r)].state = Fiber::State::runnable;
  runq_.push_back(key(r));
  std::push_heap(runq_.begin(), runq_.end(), std::greater<>{});
}

void SimCore::maybe_hand_off() {
  if (current_ < 0) return;
  // Reaching this point counts as the caller's handoff for the yielded.
  if (!yielded_.empty()) release_yielded();
  if (runq_.empty() || !(runq_.front() < key(current_))) return;
  reschedule(Fiber::State::runnable);
}

void SimCore::block(std::unique_lock<SimMutex>& lk) {
  require_internal(lk.mutex() == &mu_ && lk.owns_lock(),
                   "wait() without holding SimCore::mu()");
  // Release and re-take behind \p lk's back: the re-take must not hand
  // off again, and \p lk still owns the lock when the caller resumes.
  mu_.held_ = false;
  reschedule(Fiber::State::blocked);
  mu_.held_ = true;
}

void SimCore::yield() {
  require_internal(current_ >= 0 && !mu_.held_,
                   "yield() outside a rank or under SimCore::mu()");
  if (aborted_) throw_aborted();
  if (runq_.empty() && yielded_.empty() && held_.empty())
    return;  // nobody else can run
  reschedule(Fiber::State::yielded);
}

void SimCore::pace() {
  require_internal(current_ >= 0 && !mu_.held_,
                   "pace() outside a rank or under SimCore::mu()");
  {
    std::lock_guard lk(mu_);
    if (aborted_) throw_aborted();
    Fiber& me = fibers_[static_cast<std::size_t>(current_)];
    me.paced_ns = t_ctx->clock().now_ns();
    note_time_locked(me.paced_ns);
    if (me.paced_ns <= release_paced()) return;
  }
  reschedule(Fiber::State::held);
  if (aborted_) throw_aborted();
}

void SimCore::reschedule(Fiber::State s) {
  require_internal(!mu_.held_, "rank switch under SimCore::mu()");
  const int me = current_;
  Fiber& f = fibers_[static_cast<std::size_t>(me)];
  f.out_seq = ++switches_;
  if (s == Fiber::State::runnable) {
    make_runnable(me);
  } else {
    f.state = s;
    if (s == Fiber::State::yielded) yielded_.push_back(me);
    if (s == Fiber::State::held) held_.push_back(me);
  }
  const int next = pick_next();
  if (next == me) {
    f.state = Fiber::State::running;
    return;
  }
  switch_to(next);
}

void SimCore::release_yielded() noexcept {
  const int y = yielded_.front();
  const std::uint64_t since = fibers_[static_cast<std::size_t>(y)].out_seq;
  for (const Key& k : runq_)
    if (fibers_[static_cast<std::size_t>(k.second)].out_seq < since) return;
  yielded_.erase(yielded_.begin());
  make_runnable(y);
}

double SimCore::release_paced() noexcept {
  double floor = std::numeric_limits<double>::infinity();
  for (int r = 0; r < cfg_.nranks; ++r) {
    const Fiber& f = fibers_[static_cast<std::size_t>(r)];
    if (f.state != Fiber::State::done && !is_dead_locked(r))
      floor = std::min(floor, f.paced_ns);
  }
  std::size_t kept = 0;
  for (const int r : held_) {
    if (fibers_[static_cast<std::size_t>(r)].paced_ns <= floor)
      make_runnable(r);
    else
      held_[kept++] = r;
  }
  held_.resize(kept);
  return floor;
}

int SimCore::pick_next() noexcept {
  // A held rank can wait on a rank that has left its paced loop and
  // blocked, or has not reached the loop yet: with nothing else to run,
  // the earliest held rank goes. This comes before the yielded release, or
  // a rank yielding in a spin on a held rank's progress would be requeued
  // forever.
  if (runq_.empty() && !held_.empty()) {
    const auto first = std::min_element(
        held_.begin(), held_.end(),
        [&](int a, int b) { return key(a) < key(b); });
    make_runnable(*first);
    held_.erase(first);
  }
  if (!yielded_.empty()) release_yielded();
  if (runq_.empty()) {
    // Only blocked (or finished) ranks remain. If any is blocked, no
    // predicate can ever become true again: every mutation runs on a
    // rank, and none is left to run. Wake them all to raise the verdict.
    const bool any_blocked =
        std::any_of(fibers_.begin(), fibers_.end(), [](const Fiber& f) {
          return f.state == Fiber::State::blocked;
        });
    if (!any_blocked) return -1;
    deadlocked_ = true;
    wake_all_locked();
  }
  std::pop_heap(runq_.begin(), runq_.end(), std::greater<>{});
  const int next = runq_.back().second;
  runq_.pop_back();
  return next;
}

void SimCore::switch_to(int next) {
  Fiber& from = fiber(current_);
  Fiber& to = fiber(next);
  void* eh = abi::__cxa_get_globals();
  std::memcpy(&from.eh, eh, sizeof(EhGlobals));
  std::memcpy(eh, &to.eh, sizeof(EhGlobals));
  current_ = next;
  t_ctx = next < 0 ? nullptr : ranks_[static_cast<std::size_t>(next)].get();
  to.state = Fiber::State::running;
#ifdef __SANITIZE_ADDRESS__
  // A finished fiber never resumes: passing no save slot frees its fake
  // stack.
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      from.state == Fiber::State::done ? nullptr : &fake_stack, to.stack,
      to.stack_bytes);
#endif
#ifdef __SANITIZE_THREAD__
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
  mpisim_fiber_switch(&from.sp, to.sp);
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void SimCore::wake_expired_locked() noexcept {
  next_deadline_ns_ = std::numeric_limits<double>::infinity();
  for (int r = 0; r < cfg_.nranks; ++r) {
    const Fiber& f = fibers_[static_cast<std::size_t>(r)];
    if (!f.waiting) continue;
    const double deadline = f.t0_ns + cfg_.wait_deadline_ns;
    if (latest_ns_ > deadline)
      wake_locked(r);
    else
      next_deadline_ns_ = std::min(next_deadline_ns_, deadline);
  }
}

void SimCore::throw_aborted() {
  throw MpiError(Errc::aborted, "mpisim: aborted by peer failure");
}

void SimCore::throw_wait_timeout(const char* site, bool deadlock,
                                 double t0_ns) const {
  if (deadlock)
    throw MpiError(Errc::wait_timeout,
                   std::string("mpisim: deadlock detected: every live rank "
                               "is blocked and no progress is possible "
                               "(site: ") +
                       site + ")");
  throw MpiError(
      Errc::wait_timeout,
      std::string("mpisim: ") + site +
          " exceeded the virtual-time wait deadline of " +
          std::to_string(cfg_.wait_deadline_ns) + " ns (entered at " +
          std::to_string(t0_ns) + " ns, virtual time now " +
          std::to_string(latest_ns_) + " ns)");
}

void SimCore::rank_crashed(int rank, double now_ns) noexcept {
  std::lock_guard lk(mu_);
  if (rank < 0 || rank >= cfg_.nranks ||
      dead_[static_cast<std::size_t>(rank)] != 0)
    return;
  dead_[static_cast<std::size_t>(rank)] = 1;
  death_ns_[static_cast<std::size_t>(rank)] = now_ns;
  // Freeze the victim's vector clock: its final value is what recovery
  // edges (failure_ack / agree / shrink) hand to the survivors.
  hb_.note_death(rank);
  latest_dead_ = rank;
  ++death_epoch_;
  note_time_locked(now_ns);
  // A death can satisfy failure-aware wait predicates anywhere (recv from
  // the dead rank, collectives completing over the survivors).
  wake_all_locked();
}

bool SimCore::is_failed(int r) {
  std::lock_guard lk(mu_);
  return is_dead_locked(r);
}

std::vector<int> SimCore::failed_ranks() {
  std::lock_guard lk(mu_);
  std::vector<int> out;
  for (int r = 0; r < cfg_.nranks; ++r)
    if (dead_[static_cast<std::size_t>(r)] != 0) out.push_back(r);
  return out;
}

void SimCore::note_death_observed_locked(int dead_rank) {
  require_internal(t_ctx != nullptr && is_dead_locked(dead_rank),
                   "observe_death on a live rank");
  const double died_at = death_ns_[static_cast<std::size_t>(dead_rank)];
  // The observer cannot learn of the death before the detector bound.
  t_ctx->clock().advance_to(detection_bound_locked(dead_rank));
  note_time_locked(t_ctx->clock().now_ns());
  t_ctx->last_detect_latency_ns = t_ctx->clock().now_ns() - died_at;
  Tracer& tr = t_ctx->tracer();
  if (tr.enabled()) {
    tr.begin(TraceCat::fault, "fault.detect",
             static_cast<std::uint64_t>(dead_rank));
    tr.end(TraceCat::fault, "fault.detect",
           static_cast<std::uint64_t>(dead_rank));
  }
}

void SimCore::observe_death_locked(int dead_rank, const char* site) {
  note_death_observed_locked(dead_rank);
  throw MpiError(
      Errc::crashed,
      std::string("mpisim: ") + site + ": rank " +
          std::to_string(dead_rank) + " is dead (died at " +
          std::to_string(death_ns_[static_cast<std::size_t>(dead_rank)]) +
          " ns, detected at " + std::to_string(t_ctx->clock().now_ns()) +
          " ns)");
}

Mailbox& SimCore::mailbox(int r) {
  if (r < 0 || r >= cfg_.nranks)
    raise(Errc::rank_out_of_range, "mailbox rank " + std::to_string(r));
  return mailboxes_[static_cast<std::size_t>(r)];
}

RankContext& SimCore::rank_ctx(int r) {
  if (r < 0 || r >= cfg_.nranks)
    raise(Errc::rank_out_of_range, "rank " + std::to_string(r));
  return *ranks_[static_cast<std::size_t>(r)];
}

void SimCore::publish_comm_locked(std::uint64_t key,
                                  std::shared_ptr<CommImpl> impl) {
  auto [it, inserted] = published_.emplace(key, std::move(impl));
  (void)it;
  require_internal(inserted, "duplicate comm publication key");
}

std::shared_ptr<CommImpl> SimCore::fetch_published_comm(std::uint64_t key) {
  std::unique_lock lk(mu_);
  wait(lk, [&] { return published_.contains(key); }, "comm.publish");
  return published_.at(key);
}

void SimCore::fiber_start(void* self) {
  // Before any [[noreturn]] call: ASan's no-return handling reads the stack
  // bounds this switch has not yet published.
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  auto* core = static_cast<SimCore*>(self);
  core->fiber_main(core->current_);
}

void SimCore::fiber_main(int r) {
  RankContext& me = *ranks_[static_cast<std::size_t>(r)];
  // No exception may leave the fiber: it has nowhere to unwind to.
  try {
    (*rank_main_)();
  } catch (const MpiError& e) {
    // A survivable crash is an expected, per-rank failure: the victim is
    // already marked dead, peers observe Errc::crashed at their own
    // failure-aware sites, and the run continues over the survivors.
    // Anything else still tears the run down.
    if (!(e.code() == Errc::crashed && survivable() && is_failed(r)))
      abort(std::current_exception());
  } catch (...) {
    abort(std::current_exception());
  }
  if (me.user_state_cleanup) {
    // Run the layer-above cleanup under the global lock: after a peer
    // failure other ranks can still be mid-RMA, and holding mu() orders
    // their aborted check (check_failed_locked) before this rank releases
    // the global memory they would copy into.
    std::exception_ptr cleanup_err;
    {
      std::lock_guard lk(mu_);
      try {
        me.user_state_cleanup();
      } catch (...) {
        // Cleanup failures after an abort are expected; keep the first error.
        cleanup_err = std::current_exception();
      }
      me.user_state_cleanup = nullptr;
    }
    if (cleanup_err) abort(cleanup_err);
  }
  fibers_[static_cast<std::size_t>(r)].state = Fiber::State::done;
  // This rank's pace time no longer holds anyone back.
  if (!held_.empty()) release_paced();
  switch_to(pick_next());
  std::abort();  // unreachable: a finished fiber is never resumed
}

void SimCore::run_fibers(const std::function<void()>& rank_main) {
  rank_main_ = &rank_main;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t stack =
      (std::max<std::size_t>(cfg_.stack_bytes, 4 * page) + page - 1) / page *
      page;
#ifdef __SANITIZE_ADDRESS__
  pthread_attr_t attr;
  pthread_getattr_np(pthread_self(), &attr);
  pthread_attr_getstack(&attr, &host_.stack, &host_.stack_bytes);
  pthread_attr_destroy(&attr);
#endif
#ifdef __SANITIZE_THREAD__
  host_.tsan_fiber = __tsan_get_current_fiber();
#endif
  // New fibers start with the host thread's FP control state.
  std::uint16_t x87_cw = 0;
  asm("fnstcw %0" : "=m"(x87_cw));
  const std::uint32_t mxcsr = _mm_getcsr();
  bool mapped = true;
  for (int r = 0; r < cfg_.nranks && mapped; ++r) {
    Fiber& f = fibers_[static_cast<std::size_t>(r)];
    void* map = mmap(nullptr, page + stack, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    mapped = map != MAP_FAILED;
    if (!mapped) {
      abort(std::make_exception_ptr(MpiError(
          Errc::internal,
          "mpisim: cannot map the fiber stack of rank " + std::to_string(r))));
      break;
    }
    mprotect(map, page, PROT_NONE);  // guard page: an overflow faults
    f.stack = static_cast<char*>(map) + page;
    f.stack_bytes = stack;
#ifdef __SANITIZE_ADDRESS__
    // A fiber never unwinds, so an earlier run's stack at this address may
    // have left its redzones poisoned.
    __asan_unpoison_memory_region(f.stack, stack);
#endif
    // The first switch to the fiber pops this frame and "returns" into
    // mpisim_fiber_entry, which calls fiber_start(this). A null word above
    // it ends backtraces.
    f.sp = new (static_cast<char*>(f.stack) + stack - sizeof(void*) -
                sizeof(SwitchFrame)) SwitchFrame{
        .mxcsr = mxcsr,
        .x87_cw = x87_cw,
        .r12 = reinterpret_cast<void*>(&SimCore::fiber_start),
        .rbx = this,
        .ret = reinterpret_cast<void*>(&mpisim_fiber_entry),
    };
#ifdef __SANITIZE_THREAD__
    f.tsan_fiber = __tsan_create_fiber(0);
#endif
    make_runnable(r);
  }
  if (mapped) switch_to(pick_next());  // returns once every rank finished
  for (Fiber& f : fibers_) {
    if (f.stack == nullptr) continue;
#ifdef __SANITIZE_THREAD__
    __tsan_destroy_fiber(f.tsan_fiber);
#endif
    munmap(static_cast<char*>(f.stack) - page, page + f.stack_bytes);
  }
}

void run(const Config& cfg, const std::function<void()>& rank_main) {
  if (t_ctx != nullptr)
    raise(Errc::invalid_argument, "nested mpisim::run() is not supported");
  SimCore core(cfg);
  // One fresh host thread runs every rank, leaving the caller's thread (and
  // its CPU affinity) untouched.
  std::thread host([&] { core.run_fibers(rank_main); });
  host.join();
  if (core.first_error_) std::rethrow_exception(core.first_error_);
}

void run(int nranks, Platform platform,
         const std::function<void()>& rank_main) {
  Config cfg;
  cfg.nranks = nranks;
  cfg.platform = platform;
  run(cfg, rank_main);
}

RankContext& ctx() {
  if (t_ctx == nullptr)
    raise(Errc::invalid_argument, "mpisim call outside of mpisim::run()");
  return *t_ctx;
}

bool in_simulation() noexcept { return t_ctx != nullptr; }

void yield() { ctx().core().yield(); }

void pace() { ctx().core().pace(); }

int rank() { return ctx().rank(); }

int nranks() { return ctx().core().nranks(); }

Comm world() { return Comm(ctx().core().world_impl()); }

SimClock& clock() { return ctx().clock(); }

Tracer& tracer() { return ctx().tracer(); }

const NetworkModel& model() { return ctx().core().model(); }

}  // namespace mpisim
