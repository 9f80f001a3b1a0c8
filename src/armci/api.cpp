#include "src/armci/armci.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "src/armci/accops.hpp"
#include "src/armci/backend_mpi.hpp"
#include "src/armci/backend_mpi3.hpp"
#include "src/armci/backend_native.hpp"
#include "src/armci/metrics.hpp"
#include "src/armci/state.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {

using mpisim::Errc;

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

namespace {

/// Options::progress, unless MPISIM_PROGRESS overrides it (on|off). The
/// env hook lets CI rerun the whole suite with the progress engine forced
/// on with no code changes. An unknown value is almost certainly a typo of
/// an enabling one, so warn loudly and force off rather than silently run
/// at the config default (the MPISIM_RMA_CHECK convention).
bool effective_progress(const Options& opts) {
  const char* env = std::getenv("MPISIM_PROGRESS");
  if (env != nullptr) {
    const std::string v(env);
    if (v == "on" || v == "1" || v == "true") return true;
    if (v == "off" || v == "0" || v == "false") return false;
    std::fprintf(stderr,
                 "armci: unknown MPISIM_PROGRESS value \"%s\" "
                 "(expected on|off); progress engine disabled\n",
                 env);
    return false;
  }
  return opts.progress;
}

}  // namespace

void init(const Options& opts) {
  mpisim::RankContext& me = mpisim::ctx();
  if (me.user_state != nullptr)
    mpisim::raise(Errc::invalid_argument, "ARMCI already initialized");

  auto st = std::make_unique<ProcState>(mpisim::nranks());
  st->opts = opts;
  st->opts.progress = effective_progress(opts);
  st->dt_cache.set_capacity(opts.dt_cache_capacity);
  st->world = PGroup::world();
  switch (opts.backend) {
    case Backend::mpi:
      st->backend = std::make_unique<MpiBackend>(st.get());
      break;
    case Backend::native:
      st->backend = std::make_unique<NativeBackend>(st.get());
      break;
    case Backend::mpi3:
      st->backend = std::make_unique<Mpi3Backend>(st.get());
      break;
  }
  if (opts.metrics) st->metrics.enable();
  if (opts.trace) me.tracer().enable(opts.trace_capacity);
  ProcState* stp = st.release();
  me.user_state = stp;
  me.user_state_cleanup = [&me] {
    me.clock().clear_progress_hook();
    delete static_cast<ProcState*>(me.user_state);
    me.user_state = nullptr;
  };
  // Arm the cooperative progress engine: the rank's own clock fires the
  // persona every progress_interval_ns of *compute* time charged through
  // advance_compute(). The nb tick drains deferred queues (pointless
  // without deferral, so it keeps its own gate); the am hook -- installed
  // later by am::init(), if at all -- serves inbound active messages.
  if (stp->opts.progress) {
    const bool nb_ticks =
        stp->opts.nb_aggregation && stp->backend->nb_defers();
    me.clock().set_progress_hook(
        [stp, nb_ticks] {
          if (nb_ticks) stp->nb.progress_tick(*stp);
          if (stp->am_poll) stp->am_poll();
        },
        me.core().config().progress_interval_ns);
  }
  mpisim::world().barrier();
}

namespace {

/// Process-local half of finalize(): everything that needs no cooperation
/// from peers and is therefore safe after an aborted run.
void release_local_state() {
  mpisim::RankContext& me = mpisim::ctx();
  // Disarm the progress hook first: it captures the ProcState deleted below.
  me.clock().clear_progress_hook();
  // Capture traces before finalize(): the sink dies with the ARMCI instance.
  me.tracer().disable();
  delete static_cast<ProcState*>(me.user_state);
  me.user_state = nullptr;
  me.user_state_cleanup = nullptr;
}

}  // namespace

void finalize() {
  ProcState* stp = state_if_initialized();
  if (stp == nullptr) return;  // idempotent: second finalize is a no-op
  ProcState& st = *stp;
  mpisim::SimCore& core = mpisim::ctx().core();
  if (core.aborted()) {
    // A peer already failed: every collective below would raise
    // Errc::aborted (or worse, rendezvous with ranks that are gone).
    // Release the local half only; Gmr ownership frees the slices.
    release_local_state();
    return;
  }
  try {
    // Complete deferred nonblocking work before tearing anything down.
    st.nb.flush_all(st);
    // Free any remaining allocations (collective, in consistent order since
    // the tables are replicated).
    for (const auto& gmr : st.table.all()) {
      st.backend->gmr_freeing(*gmr);
      st.table.remove(*gmr);
    }
    if (st.mutexes_exist) {
      st.backend->mutexes_destroy();
      st.mutexes_exist = false;
    }
    mpisim::world().barrier();
  } catch (...) {
    release_local_state();
    throw;
  }
  release_local_state();
}

bool initialized() noexcept { return state_if_initialized() != nullptr; }

const Options& options() { return state().opts; }

const Stats& stats() {
  ProcState& st = state();
  // The checker counts violations per world rank for the whole run; the
  // Stats view is relative to the last reset_stats().
  st.stats.rma_conflicts =
      mpisim::ctx().core().checker().counts(mpisim::rank()).total() -
      st.rma_conflicts_baseline;
  st.stats.rma_races =
      mpisim::ctx().core().hb().counts(mpisim::rank()).total() -
      st.rma_races_baseline;
  // The overlap gauges live on the rank's clock (advance_compute maintains
  // them); like the checker counters they accumulate per run, so subtract
  // the reset_stats() baselines. Clamped at 0: SimClock::reset() between
  // runs zeros the gauges while the baselines persist in ProcState.
  const mpisim::SimClock& ck = mpisim::clock();
  st.stats.overlap_comm_ns =
      std::max(0.0, ck.progress_comm_ns() - st.overlap_comm_baseline);
  st.stats.overlap_hidden_ns =
      std::max(0.0, ck.progress_hidden_ns() - st.overlap_hidden_baseline);
  return st.stats;
}

const MetricsRegistry& metrics() { return state().metrics; }

void reset_stats() {
  ProcState& st = state();
  st.rma_conflicts_baseline =
      mpisim::ctx().core().checker().counts(mpisim::rank()).total();
  st.rma_races_baseline =
      mpisim::ctx().core().hb().counts(mpisim::rank()).total();
  st.overlap_comm_baseline = mpisim::clock().progress_comm_ns();
  st.overlap_hidden_baseline = mpisim::clock().progress_hidden_ns();
  st.stats = Stats{};
  st.metrics.reset();
}

// ---------------------------------------------------------------------------
// Global memory
// ---------------------------------------------------------------------------

namespace {

std::vector<void*> malloc_impl(std::size_t bytes, const PGroup& group) {
  ProcState& st = state();
  const int n = group.size();

  auto gmr = std::make_shared<Gmr>();
  gmr->group = group;
  gmr->bases.resize(static_cast<std::size_t>(n));
  gmr->sizes.resize(static_cast<std::size_t>(n));

  // Allocate the local slice. The Gmr record owns it, so it is released
  // both on the collective armci::free path and when an aborted run tears
  // down ProcState with allocations still live. Shared-window backends
  // allocate nothing here: the window owns one block per node, and
  // gmr_created() overwrites the bases with the window's (the exchange
  // below still agrees on the sizes).
  if (bytes > 0 && !st.backend->uses_shared_windows())
    gmr->local_slice.reset(::operator new(bytes));
  void* base = gmr->local_slice.get();

  // §V-B: all participants exchange their base addresses to build the base
  // address vector returned to the user; zero-size slices contribute NULL.
  struct Info {
    std::uintptr_t base;
    std::size_t size;
  };
  Info mine{reinterpret_cast<std::uintptr_t>(base), bytes};
  std::vector<Info> all(static_cast<std::size_t>(n));
  group.comm().allgather(&mine, all.data(), sizeof(Info));
  for (int r = 0; r < n; ++r) {
    gmr->bases[static_cast<std::size_t>(r)] =
        reinterpret_cast<void*>(all[static_cast<std::size_t>(r)].base);
    gmr->sizes[static_cast<std::size_t>(r)] =
        all[static_cast<std::size_t>(r)].size;
  }

  // Agree on an id (leader's counter, unique via leader world rank).
  // The counter lives in the rank context, not ProcState, so ids stay
  // unique across init/finalize cycles within one run.
  std::uint64_t& seq = mpisim::ctx().user_seq;
  std::uint64_t id =
      (static_cast<std::uint64_t>(group.absolute_id(0)) << 32) | seq;
  group.comm().bcast(&id, sizeof id, 0);
  if (group.rank() == 0) ++seq;
  gmr->id = id;

  st.backend->gmr_created(*gmr);
  st.table.insert(gmr);
  ++st.stats.allocations;
  return gmr->bases;
}

}  // namespace

std::vector<void*> malloc_world(std::size_t bytes) {
  return malloc_impl(bytes, state().world);
}

std::vector<void*> malloc_group(std::size_t bytes, const PGroup& group) {
  return malloc_impl(bytes, group);
}

void free(void* ptr) { free_group(ptr, state().world); }

void free_group(void* ptr, const PGroup& group) {
  ProcState& st = state();

  // §V-B: a zero-size participant passes NULL and cannot identify the GMR
  // itself (its table may hold several NULL-base entries). Locate it via
  // leader election: processes holding a non-NULL address put forward
  // their group rank; the maximum wins and broadcasts its address, and
  // everyone looks the handle up by <leader, address> in the replicated
  // table.
  GmrLoc loc;
  if (ptr != nullptr) loc = st.table.find(mpisim::rank(), ptr, 0);

  if (ptr != nullptr && !loc.gmr)
    mpisim::raise(Errc::invalid_argument,
                  "armci::free of a non-global pointer");

  const std::int64_t my_vote = loc.gmr ? group.rank() : -1;
  std::int64_t leader = -1;
  group.comm().allreduce(&my_vote, &leader, 1, mpisim::BasicType::int64,
                         mpisim::Op::max);
  if (leader < 0)
    mpisim::raise(Errc::invalid_argument,
                  "armci::free: no process supplied a valid pointer");
  std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(ptr);
  group.comm().bcast(&addr, sizeof addr, static_cast<int>(leader));
  const int leader_proc = group.absolute_id(static_cast<int>(leader));
  GmrLoc found =
      st.table.require(leader_proc, reinterpret_cast<void*>(addr), 0);
  std::shared_ptr<Gmr> gmr = found.gmr;

  // Flush and forget this GMR's deferred queues: tickets into a freed GMR
  // read as complete.
  st.nb.drop_gmr(st, gmr->id);
  st.backend->gmr_freeing(*gmr);
  st.table.remove(*gmr);
  ++st.stats.frees;
  // The local slice is owned by the Gmr record and dies with it here.
}

void* malloc_local(std::size_t bytes) {
  ProcState& st = state();
  auto buf = std::make_unique<std::uint8_t[]>(bytes);
  void* p = buf.get();
  // Local buffers from ARMCI's allocator come from the pre-pinned pool
  // (paper Fig. 5: "ARMCI Alloc" local buffers take the fast path).
  mpisim::ctx().native_reg().register_prepinned(p, bytes);
  st.local_allocs.emplace(p, std::move(buf));
  return p;
}

void free_local(void* ptr) {
  ProcState& st = state();
  if (st.local_allocs.erase(ptr) == 0)
    mpisim::raise(Errc::invalid_argument,
                  "free_local of an unknown pointer");
}

// ---------------------------------------------------------------------------
// Data movement: one blocking and one nonblocking entry per shape
// ---------------------------------------------------------------------------
//
// Every public put/get/acc function forwards to the entry of its shape
// (contiguous, strided, IOV). A blocking entry validates, opens the OpTimer
// probe, counts the op, orders itself after queued nb ops
// (flush_for_blocking) and calls the backend. A nonblocking entry asks the
// nb engine (nb.hpp) to defer the op; ops the engine cannot defer (native
// backend, aggregation disabled, self targets, staged local buffers, scaled
// accumulates, fallback transfer methods) run eagerly through the blocking
// entry -- itself a flush point -- and return an empty, born-complete
// handle.

namespace {

const double kUnitScaleD = 1.0;

/// What a transfer does: its kind, and the accumulate element type and
/// scale (put and get carry the float64 identity, which they ignore).
struct Xfer {
  OneSided kind;
  AccType at = AccType::float64;
  const void* scale = &kUnitScaleD;
};

/// OpTimer classes and span names of the blocking entries, indexed by
/// OneSided.
constexpr OpClass kContigClass[] = {OpClass::put, OpClass::get, OpClass::acc};
constexpr const char* kContigProbe[] = {"armci.put", "armci.get", "armci.acc"};
constexpr const char* kStridedProbe[] = {
    "armci.put_strided", "armci.get_strided", "armci.acc_strided"};
constexpr const char* kIovProbe[] = {"armci.put_iov", "armci.get_iov",
                                     "armci.acc_iov"};

std::size_t ix(OneSided kind) { return static_cast<std::size_t>(kind); }

void check_scale(const Xfer& x) {
  if (x.scale == nullptr)
    mpisim::raise(Errc::invalid_argument, "accumulate scale is null");
}

void check_contig(const Xfer& x, std::size_t bytes) {
  check_scale(x);
  if (x.kind == OneSided::acc && bytes % acc_type_size(x.at) != 0)
    mpisim::raise(Errc::invalid_argument,
                  "accumulate length not a multiple of the element size");
}

void count_contig(Stats& s, OneSided kind, std::size_t bytes) {
  switch (kind) {
    case OneSided::put: ++s.puts; s.put_bytes += bytes; break;
    case OneSided::get: ++s.gets; s.get_bytes += bytes; break;
    case OneSided::acc: ++s.accs; s.acc_bytes += bytes; break;
  }
}

std::uint64_t count_strided(Stats& s, const StridedSpec& spec) {
  ++s.strided_ops;
  std::uint64_t bytes = 1;
  for (std::size_t c : spec.count) bytes *= c;
  s.strided_bytes += bytes;
  return bytes;
}

std::uint64_t count_iov(Stats& s, std::span<const Giov> iov) {
  ++s.iov_ops;
  std::uint64_t bytes = 0;
  for (const Giov& g : iov) {
    s.iov_segments += g.src.size();
    bytes += g.bytes * g.src.size();
  }
  s.iov_bytes += bytes;
  return bytes;
}

/// Conservative local bounding box of one side of a strided transfer:
/// count[0] + sum((count[i+1]-1) * stride[i]) bytes from the base. Returns
/// 0 when the spec is malformed (the backend will diagnose it).
std::size_t strided_extent(const StridedSpec& spec,
                           std::span<const std::size_t> strides) {
  const auto sl = static_cast<std::size_t>(spec.stride_levels);
  if (spec.stride_levels < 0 || spec.count.size() != sl + 1 ||
      strides.size() != sl)
    return 0;
  for (std::size_t c : spec.count)
    if (c == 0) return 0;
  std::size_t ext = spec.count[0];
  for (std::size_t i = 0; i < sl; ++i)
    ext += (spec.count[i + 1] - 1) * strides[i];
  return ext;
}

/// flush_for_blocking ahead of a blocking IOV op: one bounding box over
/// each descriptor's local segment list.
void flush_for_iov(ProcState& st, OneSided kind, std::span<const Giov> vec,
                   int proc) {
  const bool is_get = kind == OneSided::get;
  bool flushed_any_range = false;
  for (const Giov& g : vec) {
    std::uintptr_t lo = 0, hi = 0;
    bool have = false;
    const std::size_t n = std::min(g.src.size(), g.dst.size());
    for (std::size_t i = 0; i < n; ++i) {
      const void* local = is_get ? g.dst[i] : g.src[i];
      const auto p = reinterpret_cast<std::uintptr_t>(local);
      if (!have || p < lo) lo = p;
      if (!have || p + g.bytes > hi) hi = p + g.bytes;
      have = true;
    }
    if (have) {
      st.nb.flush_for_blocking(st, proc, reinterpret_cast<const void*>(lo),
                               hi - lo, /*local_write=*/is_get);
      flushed_any_range = true;
    }
  }
  // Empty descriptors still order against queued ops to the same target.
  if (!flushed_any_range) st.nb.flush_proc(st, proc);
}

void contig_op(const Xfer& x, const void* remote, void* local,
               std::size_t bytes, int proc) {
  check_contig(x, bytes);
  ProcState& st = state();
  OpTimer probe(st, kContigClass[ix(x.kind)], kContigProbe[ix(x.kind)],
                bytes);
  count_contig(st.stats, x.kind, bytes);
  if (bytes == 0) return;
  // Location consistency: queued nb ops to this target (or touching this
  // local buffer) must be issued before a blocking op runs.
  st.nb.flush_for_blocking(st, proc, local, bytes,
                           /*local_write=*/x.kind == OneSided::get);
  GmrLoc loc = st.table.require(proc, remote, bytes);
  count_locality(st.stats, loc);
  st.backend->contig(x.kind, loc, local, bytes, x.at, x.scale);
}

void strided_op(const Xfer& x, const void* src, void* dst,
                const StridedSpec& spec, int proc) {
  check_scale(x);
  ProcState& st = state();
  OpTimer probe(st, OpClass::strided, kStridedProbe[ix(x.kind)],
                count_strided(st.stats, spec));
  const bool is_get = x.kind == OneSided::get;
  st.nb.flush_for_blocking(
      st, proc, is_get ? dst : src,
      strided_extent(spec, is_get ? spec.dst_strides : spec.src_strides),
      /*local_write=*/is_get);
  st.backend->strided(x.kind, src, dst, spec, proc, x.at, x.scale);
}

void iov_op(const Xfer& x, std::span<const Giov> iov, int proc) {
  check_scale(x);
  ProcState& st = state();
  OpTimer probe(st, OpClass::iov, kIovProbe[ix(x.kind)],
                count_iov(st.stats, iov));
  flush_for_iov(st, x.kind, iov, proc);
  st.backend->iov(x.kind, iov, proc, x.at, x.scale);
}

/// The nb policy. \p defer asks the engine to queue the op; if it does, the
/// op counts as deferred and \p count mirrors the blocking entry's counters
/// so Stats totals do not depend on aggregation. Otherwise the op counts as
/// eager and \p eager runs the blocking entry.
template <class Defer, class Count, class Eager>
Request defer_or_run(Defer&& defer, Count&& count, Eager&& eager) {
  ProcState& st = state();
  ++st.stats.nb_ops;
  Request req;
  if (defer(st, req)) {
    ++st.stats.nb_deferred;
    count(st.stats);
  } else {
    ++st.stats.nb_eager;
    eager();
  }
  return req;
}

Request nb_contig_op(const Xfer& x, const void* remote, void* local,
                     std::size_t bytes, int proc) {
  check_contig(x, bytes);
  return defer_or_run(
      [&](ProcState& st, Request& req) {
        return st.nb.try_defer_contig(st, x.kind, remote, local, bytes, proc,
                                      x.at, x.scale, req);
      },
      [&](Stats& s) { count_contig(s, x.kind, bytes); },
      [&] { contig_op(x, remote, local, bytes, proc); });
}

Request nb_strided_op(const Xfer& x, const void* src, void* dst,
                      const StridedSpec& spec, int proc) {
  check_scale(x);
  return defer_or_run(
      [&](ProcState& st, Request& req) {
        return st.nb.try_defer_strided(st, x.kind, src, dst, spec, proc, x.at,
                                       x.scale, req);
      },
      [&](Stats& s) { count_strided(s, spec); },
      [&] { strided_op(x, src, dst, spec, proc); });
}

Request nb_iov_op(const Xfer& x, std::span<const Giov> iov, int proc) {
  check_scale(x);
  return defer_or_run(
      [&](ProcState& st, Request& req) {
        return st.nb.try_defer_iov(st, x.kind, iov, proc, x.at, x.scale, req);
      },
      [&](Stats& s) { count_iov(s, iov); },
      [&] { iov_op(x, iov, proc); });
}

}  // namespace

void put(const void* src, void* dst, std::size_t bytes, int proc) {
  contig_op({OneSided::put}, dst, const_cast<void*>(src), bytes, proc);
}

void get(const void* src, void* dst, std::size_t bytes, int proc) {
  contig_op({OneSided::get}, src, dst, bytes, proc);
}

void acc(AccType type, const void* scale, const void* src, void* dst,
         std::size_t bytes, int proc) {
  contig_op({OneSided::acc, type, scale}, dst, const_cast<void*>(src), bytes,
            proc);
}

void put_strided(const void* src, void* dst, const StridedSpec& spec,
                 int proc) {
  strided_op({OneSided::put}, src, dst, spec, proc);
}

void get_strided(const void* src, void* dst, const StridedSpec& spec,
                 int proc) {
  strided_op({OneSided::get}, src, dst, spec, proc);
}

void acc_strided(AccType type, const void* scale, const void* src, void* dst,
                 const StridedSpec& spec, int proc) {
  strided_op({OneSided::acc, type, scale}, src, dst, spec, proc);
}

void put_iov(std::span<const Giov> iov, int proc) {
  iov_op({OneSided::put}, iov, proc);
}

void get_iov(std::span<const Giov> iov, int proc) {
  iov_op({OneSided::get}, iov, proc);
}

void acc_iov(AccType type, const void* scale, std::span<const Giov> iov,
             int proc) {
  iov_op({OneSided::acc, type, scale}, iov, proc);
}

Request nb_put(const void* src, void* dst, std::size_t bytes, int proc) {
  return nb_contig_op({OneSided::put}, dst, const_cast<void*>(src), bytes,
                      proc);
}

Request nb_get(const void* src, void* dst, std::size_t bytes, int proc) {
  return nb_contig_op({OneSided::get}, src, dst, bytes, proc);
}

Request nb_acc(AccType type, const void* scale, const void* src, void* dst,
               std::size_t bytes, int proc) {
  return nb_contig_op({OneSided::acc, type, scale}, dst,
                      const_cast<void*>(src), bytes, proc);
}

Request nb_put_strided(const void* src, void* dst, const StridedSpec& spec,
                       int proc) {
  return nb_strided_op({OneSided::put}, src, dst, spec, proc);
}

Request nb_get_strided(const void* src, void* dst, const StridedSpec& spec,
                       int proc) {
  return nb_strided_op({OneSided::get}, src, dst, spec, proc);
}

Request nb_acc_strided(AccType type, const void* scale, const void* src,
                       void* dst, const StridedSpec& spec, int proc) {
  return nb_strided_op({OneSided::acc, type, scale}, src, dst, spec, proc);
}

Request nb_put_iov(std::span<const Giov> iov, int proc) {
  return nb_iov_op({OneSided::put}, iov, proc);
}

Request nb_get_iov(std::span<const Giov> iov, int proc) {
  return nb_iov_op({OneSided::get}, iov, proc);
}

Request nb_acc_iov(AccType type, const void* scale, std::span<const Giov> iov,
                   int proc) {
  return nb_iov_op({OneSided::acc, type, scale}, iov, proc);
}

void wait(Request& req) {
  ProcState& st = state();
  st.nb.complete(st, req);
}

void wait_proc(int proc) {
  ProcState& st = state();
  if (proc < 0 || proc >= mpisim::nranks())
    mpisim::raise(Errc::rank_out_of_range,
                  "wait_proc: rank " + std::to_string(proc) +
                      " outside [0, " + std::to_string(mpisim::nranks()) +
                      ")");
  st.nb.flush_proc(st, proc);
}

void wait_all() {
  ProcState& st = state();
  st.nb.flush_all(st);
}

// ---------------------------------------------------------------------------
// Asynchronous progress (Options::progress, nb.hpp progress engine)
// ---------------------------------------------------------------------------

void progress() {
  ProcState& st = state();
  const bool nb_ticks = st.opts.progress && st.opts.nb_aggregation &&
                        st.backend->nb_defers();
  if (!nb_ticks && !st.am_poll) return;
  // An explicit poke is communication the caller chose to stand in for:
  // charge its virtual time to the overlap gauge as (unhidden) comm so
  // overlap_efficiency only credits ticks that ran under compute.
  mpisim::SimClock& ck = mpisim::ctx().clock();
  const double t0 = ck.now_ns();
  if (nb_ticks) st.nb.progress_tick(st);
  if (st.am_poll) st.am_poll();
  ck.note_progress_comm(ck.now_ns() - t0);
}

bool test(Request& req, Completion level) {
  ProcState& st = state();
  progress();  // drive the engine: a poll loop must itself make progress
  return st.nb.test(st, req, level);
}

bool test(Request& req) { return test(req, Completion::operation); }

void on_complete(Request& req, Completion level,
                 std::function<void(std::exception_ptr)> fn) {
  if (fn == nullptr)
    mpisim::raise(Errc::invalid_argument, "on_complete callback is null");
  ProcState& st = state();
  st.nb.on_complete(st, req, level, std::move(fn));
}

void on_complete(Request& req, std::function<void(std::exception_ptr)> fn) {
  on_complete(req, Completion::operation, std::move(fn));
}

// ---------------------------------------------------------------------------
// Completion and synchronization
// ---------------------------------------------------------------------------

void fence(int proc) {
  ProcState& st = state();
  ++st.stats.fences;
  st.nb.flush_proc(st, proc);
  st.backend->fence(proc);
}

void fence_all() {
  ProcState& st = state();
  ++st.stats.fences;
  st.nb.flush_all(st);
  st.backend->fence_all();
}

void barrier() {
  ProcState& st = state();
  ++st.stats.barriers;
  st.nb.flush_all(st);
  st.backend->fence_all();
  st.world.barrier();
}

void msg_send(const void* buf, std::size_t bytes, int proc, int tag) {
  state().world.comm().send(buf, bytes, proc, tag);
}

void msg_recv(void* buf, std::size_t bytes, int proc, int tag) {
  state().world.comm().recv(buf, bytes, proc, tag);
}

void put_notify(const void* src, void* dst, std::size_t bytes, int* flag,
                int value, int proc) {
  // Location consistency: the target observes this origin's operations in
  // issue order, so data-then-flag is safe. On the MPI backend each op
  // completes remotely inside its own epoch before the next is issued
  // (§V-F); the native backend needs an explicit fence between the two.
  put(src, dst, bytes, proc);
  fence(proc);
  // Happens-before: release the notify channel (keyed by the flag address)
  // after the payload is published and before the flag lands, so a waiter
  // that observes the flag always acquires the payload's publication. The
  // flag word itself is a synchronization object, exempt from race
  // checking -- its ordering is exactly this channel edge.
  mpisim::SimCore& core = mpisim::ctx().core();
  if (core.hb().enabled()) {
    std::lock_guard lk(core.mu());
    core.hb().channel_release(reinterpret_cast<std::uintptr_t>(flag),
                              mpisim::ctx().rank());
  }
  {
    mpisim::HbChecker::MuteScope mute(core.hb(), mpisim::rank());
    put(&value, flag, sizeof value, proc);
    fence(proc);
  }
}

void wait_notify(const int* flag, int value) {
  ProcState& st = state();
  mpisim::SimCore& core = mpisim::ctx().core();
  // The flag must be globally accessible local memory; poll it under
  // direct local access so the poll does not race the remote flag write.
  GmrLoc loc = st.table.require(mpisim::rank(), flag, sizeof(int));
  const double deadline_ns = core.config().wait_deadline_ns;
  const double t0 = mpisim::clock().now_ns();
  for (;;) {
    if (core.aborted())
      mpisim::raise(Errc::aborted, "wait_notify: peer failure");
    int v;
    {
      // Sync-word access: mute the race detector for the poll itself (the
      // flag is ordered by the notify channel, not by data-race rules).
      mpisim::HbChecker::MuteScope mute(core.hb(), mpisim::rank());
      st.backend->access_begin(loc);
      {
        // The remote flag write lands as a memcpy under the simulator's
        // global lock (the stand-in for the target NIC); polling under the
        // same lock gives data-then-flag delivery a real happens-before
        // edge, so the payload the flag guards is visible too.
        std::lock_guard lk(core.mu());
        v = *flag;
        // Acquire the producer's channel release: orders every payload
        // access after this wait against the publications that preceded
        // the notify.
        if (v == value)
          core.hb().channel_acquire(reinterpret_cast<std::uintptr_t>(flag),
                                    mpisim::rank());
      }
      st.backend->access_end(loc);
    }
    if (v == value) return;
    if (deadline_ns > 0.0 && mpisim::clock().now_ns() - t0 > deadline_ns)
      mpisim::raise(Errc::wait_timeout,
                    "wait_notify exceeded the virtual-time wait deadline of " +
                        std::to_string(deadline_ns) + " ns");
    // Charge a poll interval to the virtual clock and let the producer run:
    // ranks share one host thread, so a spin that never yields would
    // starve it.
    mpisim::clock().advance(100.0);
    mpisim::yield();
  }
}

// ---------------------------------------------------------------------------
// Mutexes and RMW
// ---------------------------------------------------------------------------

void create_mutexes(int count) {
  ProcState& st = state();
  if (st.mutexes_exist)
    mpisim::raise(Errc::invalid_argument,
                  "a mutex set already exists (ARMCI allows one)");
  if (count < 0) mpisim::raise(Errc::invalid_argument, "negative mutex count");
  st.backend->mutexes_create(count);
  st.mutexes_exist = true;
  st.mutex_count = count;
}

void destroy_mutexes() {
  ProcState& st = state();
  if (!st.mutexes_exist)
    mpisim::raise(Errc::invalid_argument, "no mutex set exists");
  st.backend->mutexes_destroy();
  st.mutexes_exist = false;
  st.mutex_count = 0;
}

void lock(int mutex, int proc) {
  ProcState& st = state();
  if (!st.mutexes_exist || mutex < 0 || mutex >= st.mutex_count)
    mpisim::raise(Errc::invalid_argument, "invalid mutex");
  OpTimer probe(st, OpClass::mutex, "armci.lock",
                static_cast<std::uint64_t>(mutex));
  ++st.stats.mutex_locks;
  st.backend->mutex_lock(mutex, proc);
}

void unlock(int mutex, int proc) {
  ProcState& st = state();
  if (!st.mutexes_exist || mutex < 0 || mutex >= st.mutex_count)
    mpisim::raise(Errc::invalid_argument, "invalid mutex");
  st.backend->mutex_unlock(mutex, proc);
}

void rmw(RmwOp op, void* ploc, void* prem, std::int64_t extra, int proc) {
  if (ploc == nullptr || prem == nullptr)
    mpisim::raise(Errc::invalid_argument, "rmw with null pointer");
  ProcState& st = state();
  OpTimer probe(st, OpClass::rmw, "armci.rmw");
  ++st.stats.rmws;
  const bool is_long =
      op == RmwOp::fetch_and_add_long || op == RmwOp::swap_long;
  st.nb.flush_for_blocking(st, proc, ploc, is_long ? 8 : 4,
                           /*local_write=*/true);
  st.backend->rmw(op, ploc, prem, extra, proc);
}

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

bool is_failed(int proc) {
  state();  // ARMCI must be initialized on the calling process
  mpisim::SimCore& core = mpisim::ctx().core();
  if (proc < 0 || proc >= core.config().nranks)
    mpisim::raise(Errc::invalid_argument, "is_failed: process out of range");
  return core.is_failed(proc);
}

std::vector<int> failed_ranks() {
  state();
  return mpisim::ctx().core().failed_ranks();
}

// ---------------------------------------------------------------------------
// Direct local access and access modes
// ---------------------------------------------------------------------------

void access_begin(void* ptr) {
  ProcState& st = state();
  GmrLoc loc = st.table.require(mpisim::rank(), ptr, 0);
  if (st.open_accesses.contains(ptr))
    mpisim::raise(Errc::invalid_argument,
                  "access_begin: region already open");
  ++st.stats.dla_epochs;
  // Direct load/store must observe queued nb ops on this allocation.
  st.nb.flush_gmr(st, loc.gmr->id);
  st.backend->access_begin(loc);
  // Declare the direct access to the RMA checker. The backend call above
  // establishes the covering epoch (exclusive self-lock on the MPI backend,
  // standing lock_all on mpi3), so the declaration is an audit record; the
  // native backend has no window and the hook is skipped.
  if (loc.gmr->win.valid())
    loc.gmr->win.local_access_begin(ptr, 0, /*write=*/true);
  st.open_accesses.emplace(ptr, loc);
}

void access_end(void* ptr) {
  ProcState& st = state();
  auto it = st.open_accesses.find(ptr);
  if (it == st.open_accesses.end())
    mpisim::raise(Errc::invalid_argument,
                  "access_end without matching access_begin");
  if (it->second.gmr->win.valid())
    it->second.gmr->win.local_access_end(ptr);
  st.backend->access_end(it->second);
  st.open_accesses.erase(it);
}

void set_access_mode(AccessMode mode, void* ptr) {
  ProcState& st = state();
  GmrLoc loc = st.table.require(mpisim::rank(), ptr, 0);
  // Ops queued under the old mode must not flush under the new one (the
  // epoch lock choice depends on it).
  st.nb.flush_gmr(st, loc.gmr->id);
  // Collective over the allocation group: all members must agree on the
  // mode before any further operation targets the GMR.
  loc.gmr->group.barrier();
  loc.gmr->mode = mode;
  loc.gmr->group.barrier();
}

}  // namespace armci
