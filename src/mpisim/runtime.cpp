#include "src/mpisim/runtime.hpp"

#include <limits.h>
#include <pthread.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/mpisim/comm.hpp"

namespace mpisim {

namespace {

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

std::shared_ptr<CommImpl> make_world_impl(SimCore& core, int nranks,
                                          std::uint64_t id) {
  auto impl = std::make_shared<CommImpl>();
  impl->id = id;
  impl->core = &core;
  impl->group = Group::range(0, nranks);
  const auto n = static_cast<std::size_t>(nranks);
  impl->coll.inbufs.resize(n);
  impl->coll.outbufs.resize(n);
  impl->coll.incounts.resize(n);
  impl->coll.present.assign(n, 0);
  impl->shrink_calls.assign(n, 0);
  return impl;
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
      slots_(static_cast<std::size_t>(cfg.nranks)),
      mailboxes_(static_cast<std::size_t>(cfg.nranks)) {
  if (cfg.nranks < 1) raise(Errc::invalid_argument, "nranks < 1");
  running_ = cfg.nranks;
  dead_.assign(static_cast<std::size_t>(cfg.nranks), 0);
  death_ns_.assign(static_cast<std::size_t>(cfg.nranks), 0.0);
  ranks_.reserve(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r)
    ranks_.push_back(std::make_unique<RankContext>(*this, r));
  // Comm id 0 is the runtime-internal system channel; world gets id 1.
  world_impl_ = make_world_impl(*this, cfg.nranks, next_comm_id_++);
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

SimCore::WakeSlot& SimCore::wait_enter_locked() {
  require_internal(t_ctx != nullptr, "blocking wait outside a rank thread");
  WakeSlot& slot = slots_[static_cast<std::size_t>(t_ctx->rank())];
  ++blocked_;
  slot.waiting = true;
  slot.pending = false;
  slot.t0_ns = t_ctx->clock().now_ns();
  note_time_locked(slot.t0_ns);
  if (cfg_.wait_deadline_ns > 0.0)
    next_deadline_ns_ =
        std::min(next_deadline_ns_, slot.t0_ns + cfg_.wait_deadline_ns);
  return slot;
}

void SimCore::wait_exit_locked(WakeSlot& slot) noexcept {
  --blocked_;
  slot.waiting = false;
}

bool SimCore::quiescent_locked() const noexcept {
  if (running_ <= 0 || blocked_ != running_) return false;
  for (const WakeSlot& s : slots_)
    if (s.waiting && s.pending) return false;
  return true;
}

void SimCore::wake_expired_locked() noexcept {
  next_deadline_ns_ = std::numeric_limits<double>::infinity();
  for (int r = 0; r < cfg_.nranks; ++r) {
    const WakeSlot& s = slots_[static_cast<std::size_t>(r)];
    if (!s.waiting) continue;
    const double deadline = s.t0_ns + cfg_.wait_deadline_ns;
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

void SimCore::rank_exited() noexcept {
  std::lock_guard lk(mu_);
  --running_;
  // An exit satisfies no predicate, but the survivors must re-evaluate
  // quiescence: a rank leaving a rendezvous unmatched is how deadlocks from
  // early exits arise.
  wake_all_locked();
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

void SimCore::publish_obj_locked(std::uint64_t key, std::shared_ptr<void> obj) {
  auto [it, inserted] = published_objs_.emplace(key, std::move(obj));
  (void)it;
  require_internal(inserted, "duplicate object publication key");
}

std::shared_ptr<void> SimCore::fetch_published_obj(std::uint64_t key) {
  std::unique_lock lk(mu_);
  wait(lk, [&] { return published_objs_.contains(key); }, "obj.publish");
  return published_objs_.at(key);
}

void SimCore::retire_published_obj(std::uint64_t key) {
  std::lock_guard lk(mu_);
  published_objs_.erase(key);
}

namespace {

struct ThreadArg {
  SimCore* core;
  int rank;
  const std::function<void()>* fn;
};

void* rank_thread_main(void* p) {
  auto* arg = static_cast<ThreadArg*>(p);
  SimCore& core = *arg->core;
  RankContext& me = core.rank_ctx(arg->rank);
  t_ctx = &me;
  try {
    (*arg->fn)();
  } catch (const MpiError& e) {
    // A survivable crash is an expected, per-rank failure: the victim is
    // already marked dead, peers observe Errc::crashed at their own
    // failure-aware sites, and the run continues over the survivors.
    // Anything else still tears the run down.
    if (!(e.code() == Errc::crashed && core.survivable() &&
          core.is_failed(me.rank())))
      core.abort(std::current_exception());
  } catch (...) {
    core.abort(std::current_exception());
  }
  if (me.user_state_cleanup) {
    // Run the layer-above cleanup under the global lock: after a peer
    // failure other ranks can still be mid-RMA, and holding mu() orders
    // their aborted check (check_failed_locked) before this rank releases
    // the global memory they would copy into.
    std::exception_ptr cleanup_err;
    {
      std::lock_guard lk(core.mu());
      try {
        me.user_state_cleanup();
      } catch (...) {
        // Cleanup failures after an abort are expected; keep the first error.
        cleanup_err = std::current_exception();
      }
      me.user_state_cleanup = nullptr;
    }
    if (cleanup_err) core.abort(cleanup_err);
  }
  core.rank_exited();
  t_ctx = nullptr;
  return nullptr;
}

}  // namespace

void run(const Config& cfg, const std::function<void()>& rank_main) {
  if (t_ctx != nullptr)
    raise(Errc::invalid_argument, "nested mpisim::run() is not supported");
  SimCore core(cfg);

  pthread_attr_t attr;
  pthread_attr_init(&attr);
  const std::size_t stack =
      std::max<std::size_t>(cfg.stack_bytes, PTHREAD_STACK_MIN);
  pthread_attr_setstacksize(&attr, stack);

  std::vector<pthread_t> threads(static_cast<std::size_t>(cfg.nranks));
  std::vector<ThreadArg> args(static_cast<std::size_t>(cfg.nranks));
  for (int r = 0; r < cfg.nranks; ++r) {
    args[static_cast<std::size_t>(r)] = {&core, r, &rank_main};
    const int rc = pthread_create(&threads[static_cast<std::size_t>(r)], &attr,
                                  rank_thread_main,
                                  &args[static_cast<std::size_t>(r)]);
    if (rc != 0) {
      core.abort(std::make_exception_ptr(
          MpiError(Errc::internal, "pthread_create failed")));
      for (int j = 0; j < r; ++j)
        pthread_join(threads[static_cast<std::size_t>(j)], nullptr);
      pthread_attr_destroy(&attr);
      raise(Errc::internal, "pthread_create failed for rank " +
                                std::to_string(r));
    }
  }
  pthread_attr_destroy(&attr);
  for (pthread_t t : threads) pthread_join(t, nullptr);

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

int rank() { return ctx().rank(); }

int nranks() { return ctx().core().nranks(); }

Comm world() { return Comm(ctx().core().world_impl()); }

SimClock& clock() { return ctx().clock(); }

Tracer& tracer() { return ctx().tracer(); }

const NetworkModel& model() { return ctx().core().model(); }

}  // namespace mpisim
