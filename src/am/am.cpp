#include "src/am/am.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/armci/gmr.hpp"
#include "src/armci/state.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/hb.hpp"
#include "src/mpisim/runtime.hpp"

namespace am {

using mpisim::Errc;

namespace {

/// Tag of every request message on the layer's private communicator.
constexpr int kReqTag = 1;

/// Reply tags: base + (seq mod kReplyTagMod). Together with the specific
/// source rank of the posted receive, collisions would need 2^20
/// concurrently outstanding rpcs from one origin to one target.
constexpr int kReplyTagBase = 1000;
constexpr std::uint64_t kReplyTagMod = 1ull << 20;

constexpr std::uint32_t kFlagWantsReply = 1u;
constexpr std::uint32_t kFlagCounted = 2u;

/// On-wire request header, followed by arg_bytes of argument payload.
struct WireHeader {
  std::uint64_t seq = 0;
  std::uint32_t handler = 0;
  std::uint32_t flags = 0;
  std::uint32_t gce = 0;
  std::uint32_t arg_bytes = 0;
};

/// On-wire reply: this header followed by the handler's reply bytes.
struct WireReply {
  std::uint64_t seq = 0;
};

/// Argument of the layer's internal control handler (serving barrier).
struct CtlArg {
  std::uint64_t kind = 0;  ///< 0 = barrier token, 1 = barrier release
  std::uint64_t gen = 0;   ///< barrier generation the message belongs to
};

int reply_tag(std::uint64_t seq) {
  return kReplyTagBase + static_cast<int>(seq % kReplyTagMod);
}

/// One termination counter: delegates issued per target by this rank, and
/// counted delegates served by this rank.
struct GceState {
  std::vector<std::uint64_t> issued;
  std::uint64_t served = 0;
};

/// Per-process layer state, anchored in ProcState::am_state.
struct AmState {
  mpisim::Comm comm;  ///< private dup of the world communicator
  std::vector<Handler> handlers;
  std::uint64_t next_seq = 1;
  bool serving = false;  ///< re-entrancy guard for the serve loop
  GceState gce[kNumGces];

  /// Virtual-time frontier of the progress persona. With the cooperative
  /// engine on, handlers run at request *arrival* time, hidden under the
  /// owner's concurrent compute -- the serve advances this timeline, not
  /// the application clock. Engine off, serving is serial: the application
  /// clock pays for delivery and the reply.
  double persona_now_ns = 0.0;

  // Serving-barrier state (see am::barrier()).
  int ctl_handler = -1;       ///< internal handler id (registered by init)
  std::uint64_t barrier_gen = 0;
  std::unordered_map<std::uint64_t, int> barrier_tokens;  ///< root: per gen
  std::uint64_t barrier_releases = 0;  ///< non-root: releases received

  /// Request staging (header + argument); Comm::send copies it out.
  std::array<std::uint8_t, sizeof(WireHeader) + kMaxArgBytes> send_buf;
  /// Reply staging (header + handler reply); serve_one is never re-entered
  /// while it holds a reply here.
  std::array<std::uint8_t, sizeof(WireReply) + kMaxReplyBytes> serve_buf;
  /// One completed rpc state kept for reuse (see take_op). Only a
  /// successful wait() puts an op here, after its reply receive was reset:
  /// this slot is torn down under SimCore::mu(), where destroying a live
  /// Comm::Request would take that lock again.
  std::shared_ptr<OpState> spare;
};

AmState& require_am() {
  armci::ProcState& st = armci::state();
  if (st.am_state == nullptr)
    mpisim::raise(Errc::invalid_argument, "am layer not initialized");
  return *static_cast<AmState*>(st.am_state.get());
}

int require_gce(int gce) {
  if (gce < 0 || gce >= kNumGces)
    mpisim::raise(Errc::invalid_argument,
                  "gce id " + std::to_string(gce) + " outside [0, " +
                      std::to_string(kNumGces) + ")");
  return gce;
}

}  // namespace

/// Shared completion state of one rpc(), owned by its Handle copies and,
/// once waited for, possibly by AmState::spare.
struct OpState {
  mpisim::Comm::Request rreq;  ///< posted reply receive; reset at completion
  /// Reply receive buffer. Created without zero-filling
  /// (make_shared_for_overwrite): only delivered bytes are read.
  std::array<std::uint8_t, sizeof(WireReply) + kMaxReplyBytes> rbuf;
  int target = -1;  ///< world rank
  std::uint64_t seq = 0;
  bool completed = false;
  std::size_t reply_bytes = 0;
  std::exception_ptr error;  ///< parked transport failure
  bool error_surfaced = false;
  std::vector<std::function<void(std::exception_ptr)>> callbacks;
};

namespace {

/// Fire and clear the operation-level callbacks (never under the lock).
void fire_callbacks(OpState& op, std::exception_ptr e) {
  std::vector<std::function<void(std::exception_ptr)>> cbs;
  cbs.swap(op.callbacks);
  for (auto& cb : cbs) cb(e);
}

/// Complete \p op with a transport error. Registered callbacks consume it
/// (the error counts as surfaced through them); otherwise it is rethrown
/// here -- exactly once either way.
void fail(OpState& op, std::exception_ptr e) {
  op.completed = true;
  op.error = e;
  if (!op.callbacks.empty()) {
    op.error_surfaced = true;
    fire_callbacks(op, e);
    return;
  }
  op.error_surfaced = true;
  std::rethrow_exception(e);
}

/// Decode the delivered reply into \p op and run success callbacks.
void finish_reply(OpState& op) {
  mpisim::Status st;
  op.rreq.test(&st);  // already complete; fetches the status
  if (st.bytes < sizeof(WireReply))
    mpisim::raise(Errc::internal, "am reply shorter than its header");
  WireReply rh;
  std::memcpy(&rh, op.rbuf.data(), sizeof rh);
  if (rh.seq != op.seq)
    mpisim::raise(Errc::internal, "am reply sequence mismatch");
  op.reply_bytes = st.bytes - sizeof(WireReply);
  op.completed = true;
  op.rreq = {};  // never leave a finished receive for the spare slot
  fire_callbacks(op, nullptr);
}

/// Nonblocking completion attempt: serve-loop progress is the caller's
/// job. Returns true when \p op is fully complete; surfaces a parked or
/// newly observed transport failure per the exactly-once contract.
bool try_complete(OpState& op) {
  if (op.completed) {
    if (op.error != nullptr && !op.error_surfaced) {
      op.error_surfaced = true;
      std::rethrow_exception(op.error);
    }
    return true;
  }
  try {
    if (!op.rreq.test()) return false;
  } catch (...) {
    // A rank's *own* scheduled death must unwind the rank, never park.
    if (mpisim::ctx().core().is_failed(mpisim::rank())) throw;
    fail(op, std::current_exception());
    return true;  // reached only when callbacks consumed the error
  }
  finish_reply(op);
  return true;
}

/// Serve one queued inbound request; false when none is queued. The
/// request is consumed and the handler executed under the receiver's
/// progress-persona identity (happens-before detector), so an application
/// touch of handler-written memory is racy until a completion edge -- the
/// reply at the origin, the persona retirement here.
bool serve_one(AmState& am, armci::ProcState& st) {
  mpisim::RankContext& me = mpisim::ctx();
  mpisim::SimCore& core = me.core();
  const std::uint64_t cid = am.comm.id();
  mpisim::Message m;
  {
    std::unique_lock lk(core.mu());
    mpisim::Mailbox& mb = core.mailbox(me.rank());
    if (!mb.has_match(cid, mpisim::kAnySource, kReqTag)) return false;
    m = mb.pop_match(cid, mpisim::kAnySource, kReqTag);
    if (core.hb().enabled()) {
      // The persona acts for the owner: order it after the owner's current
      // point, then acquire the requester's clock at the receive.
      core.hb().persona_sync(me.rank());
      core.hb().recv_join(core.hb().persona(me.rank()), m.vc);
    }
  }
  // Delivery time is node-aware: same-node delegates ride the shared-memory
  // copy cost. With the cooperative progress engine the persona serves at
  // arrival time on its own timeline (the tick that would have drained the
  // queue), overlapped with the owner's compute; without it the owner's
  // application clock pays for the delivery serially.
  const double delivery_ns =
      m.send_ts_ns +
      core.model().p2p_ns(m.payload.size(), m.src_comm_rank, me.rank());
  double serve_ns;
  if (st.opts.progress) {
    am.persona_now_ns = std::max(am.persona_now_ns, delivery_ns);
    serve_ns = am.persona_now_ns;
  } else {
    me.clock().advance_to(delivery_ns);
    serve_ns = me.clock().now_ns();
  }

  if (m.payload.size() < sizeof(WireHeader))
    mpisim::raise(Errc::internal, "am request shorter than its header");
  WireHeader h;
  std::memcpy(&h, m.payload.data(), sizeof h);
  if (h.handler >= am.handlers.size())
    mpisim::raise(Errc::invalid_argument,
                  "am request names unregistered handler " +
                      std::to_string(h.handler));
  if (sizeof(WireHeader) + h.arg_bytes != m.payload.size())
    mpisim::raise(Errc::internal, "am request argument size mismatch");

  std::uint8_t* const reply = am.serve_buf.data() + sizeof(WireReply);
  std::size_t reply_bytes = 0;
  {
    am.serving = true;
    struct Unguard {
      bool* flag;
      ~Unguard() { *flag = false; }
    } unguard{&am.serving};
    reply_bytes = am.handlers[h.handler](
        m.src_comm_rank, m.payload.data() + sizeof(WireHeader), h.arg_bytes,
        reply, kMaxReplyBytes);
  }
  if (reply_bytes > kMaxReplyBytes)
    mpisim::raise(Errc::invalid_argument,
                  "handler reply of " + std::to_string(reply_bytes) +
                      " bytes exceeds kMaxReplyBytes");
  ++st.stats.am_served;
  if ((h.flags & kFlagCounted) != 0) ++am.gce[h.gce].served;

  if ((h.flags & kFlagWantsReply) != 0) {
    WireReply rh;
    rh.seq = h.seq;
    std::memcpy(am.serve_buf.data(), &rh, sizeof rh);
    mpisim::Envelope r;
    r.comm_id = cid;
    r.src_comm_rank = me.rank();
    r.tag = reply_tag(h.seq);
    const double send_cost_ns = core.model().p2p_ns(0);
    if (st.opts.progress) {
      am.persona_now_ns += send_cost_ns;
      serve_ns = am.persona_now_ns;
    } else {
      me.clock().advance(send_cost_ns);
      serve_ns = me.clock().now_ns();
    }
    r.send_ts_ns = serve_ns + me.fault().draw_delivery_delay_ns();
    std::lock_guard lk(core.mu());
    core.note_time_locked(std::max(serve_ns, me.clock().now_ns()));
    if (core.survivable() && core.is_dead_locked(m.src_comm_rank)) {
      // The requester died while we served: nobody will consume the
      // reply, and its handle already surfaces Errc::crashed. Drop it.
    } else {
      if (core.hb().enabled()) {
        // The reply carries the *persona's* clock: receiving it hands the
        // origin the handler's publications (completion edge).
        r.vc = core.hb().send_snapshot(core.hb().persona(me.rank()));
      }
      core.mailbox(m.src_comm_rank)
          .push(std::move(r), am.serve_buf.data(), sizeof rh + reply_bytes);
      core.wake_locked(m.src_comm_rank);
    }
  }
  if (core.hb().enabled()) {
    // The handler ran on this thread: the owner continues sequenced after
    // it, so it acquires the persona clock (no false race with own serve).
    std::lock_guard lk(core.mu());
    core.hb().persona_retire(me.rank());
  }
  return true;
}

int poll_impl() {
  armci::ProcState* stp = armci::state_if_initialized();
  if (stp == nullptr || stp->am_state == nullptr) return 0;
  AmState& am = *static_cast<AmState*>(stp->am_state.get());
  if (am.serving) return 0;  // no nested serving: handlers must not block
  int served = 0;
  while (serve_one(am, *stp)) ++served;
  return served;
}

}  // namespace

void init() {
  armci::ProcState& st = armci::state();
  if (st.am_state != nullptr)
    mpisim::raise(Errc::invalid_argument, "am layer already initialized");
  auto am = std::make_shared<AmState>();
  am->comm = mpisim::world().dup();
  for (GceState& g : am->gce)
    g.issued.assign(static_cast<std::size_t>(mpisim::nranks()), 0);
  // Internal control handler (barrier tokens/releases); registered first so
  // it holds the same id on every rank regardless of user registrations.
  AmState* amp = am.get();
  am->handlers.push_back([amp](int, const void* a, std::size_t bytes, void*,
                               std::size_t) -> std::size_t {
    CtlArg c;
    std::memcpy(&c, a, std::min(bytes, sizeof c));
    if (c.kind == 0)
      ++amp->barrier_tokens[c.gen];
    else
      ++amp->barrier_releases;
    return 0;
  });
  am->ctl_handler = 0;
  st.am_state = am;
  st.am_poll = [] { poll_impl(); };
  am->comm.barrier();
}

void finalize() {
  armci::ProcState* stp = armci::state_if_initialized();
  if (stp == nullptr || stp->am_state == nullptr) return;
  quiesce(0);
  AmState& am = *static_cast<AmState*>(stp->am_state.get());
  am.comm.barrier();
  stp->am_poll = nullptr;
  stp->am_state.reset();
}

bool initialized() noexcept {
  armci::ProcState* stp = armci::state_if_initialized();
  return stp != nullptr && stp->am_state != nullptr;
}

int register_handler(Handler fn) {
  if (fn == nullptr)
    mpisim::raise(Errc::invalid_argument, "null am handler");
  AmState& am = require_am();
  if (am.handlers.size() >= kMaxHandlers)
    mpisim::raise(Errc::resource_exhausted,
                  "handler registry full (kMaxHandlers = " +
                      std::to_string(kMaxHandlers) + ")");
  am.handlers.push_back(std::move(fn));
  return static_cast<int>(am.handlers.size()) - 1;
}

namespace {

/// Argument validation shared by rpc()/rpc_ff(). Runs before any state is
/// mutated (in particular before a termination counter is bumped: a
/// rejected request must not leave a phantom issue quiesce() waits on).
void validate_request(const AmState& am, int target, int handler,
                      const void* arg, std::size_t bytes) {
  if (handler < 0 ||
      static_cast<std::size_t>(handler) >= am.handlers.size())
    mpisim::raise(Errc::invalid_argument,
                  "unregistered handler id " + std::to_string(handler));
  if (bytes > kMaxArgBytes)
    mpisim::raise(Errc::invalid_argument,
                  "argument of " + std::to_string(bytes) +
                      " bytes exceeds kMaxArgBytes");
  if (bytes > 0 && arg == nullptr)
    mpisim::raise(Errc::invalid_argument, "null argument with bytes > 0");
  if (target < 0 || target >= mpisim::nranks())
    mpisim::raise(Errc::rank_out_of_range,
                  "am target " + std::to_string(target) + " outside [0, " +
                      std::to_string(mpisim::nranks()) + ")");
}

/// Build and send one pre-validated request message; parks a transport
/// failure (e.g. target dead) in \p op instead of throwing when \p op is
/// non-null, so the error surfaces through the handle exactly once.
void send_request(AmState& am, armci::ProcState& st, int target, int handler,
                  const void* arg, std::size_t bytes, std::uint32_t flags,
                  int gce, std::uint64_t seq, OpState* op) {
  WireHeader h;
  h.seq = seq;
  h.handler = static_cast<std::uint32_t>(handler);
  h.flags = flags;
  h.gce = static_cast<std::uint32_t>(gce);
  h.arg_bytes = static_cast<std::uint32_t>(bytes);
  std::memcpy(am.send_buf.data(), &h, sizeof h);
  if (bytes > 0) std::memcpy(am.send_buf.data() + sizeof h, arg, bytes);
  ++st.stats.am_sent;
  try {
    am.comm.send(am.send_buf.data(), sizeof h + bytes, target, kReqTag);
  } catch (...) {
    // Park a transport failure (dead target) in the handle; the sender's
    // own scheduled death must keep unwinding the rank instead.
    if (op == nullptr || mpisim::ctx().core().is_failed(mpisim::rank()))
      throw;
    op->completed = true;
    op->error = std::current_exception();
  }
}

/// State for a new rpc: the spare when no Handle references it any more
/// (moved out, so the slot never owns the op while its receive is live),
/// else a fresh one.
std::shared_ptr<OpState> take_op(AmState& am) {
  if (am.spare == nullptr || am.spare.use_count() > 1)
    return std::make_shared_for_overwrite<OpState>();
  std::shared_ptr<OpState> op = std::move(am.spare);
  op->completed = false;
  op->reply_bytes = 0;
  return op;
}

}  // namespace

Handle rpc(int target, int handler, const void* arg, std::size_t bytes) {
  armci::ProcState& st = armci::state();
  AmState& am = require_am();
  validate_request(am, target, handler, arg, bytes);
  std::shared_ptr<OpState> op = take_op(am);
  op->target = target;
  op->seq = am.next_seq++;
  // Post the reply receive *before* the request leaves: the reply can
  // never pile up in the unexpected queue (or trip the mailbox cap), and
  // the posted-receive fast path delivers it straight into the handle.
  op->rreq = am.comm.irecv(op->rbuf.data(), op->rbuf.size(), target,
                           reply_tag(op->seq));
  send_request(am, st, target, handler, arg, bytes, kFlagWantsReply,
               /*gce=*/0, op->seq, op.get());
  Handle h;
  h.op_ = std::move(op);
  return h;
}

void rpc_ff(int target, int handler, const void* arg, std::size_t bytes,
            int gce) {
  armci::ProcState& st = armci::state();
  AmState& am = require_am();
  require_gce(gce);
  validate_request(am, target, handler, arg, bytes);
  // Count the issue before the send so a crash observed mid-send cannot
  // leave a served-but-never-issued delegate in the global balance; roll it
  // back if the send itself fails (mailbox cap, dead target) -- a delegate
  // that never entered the channel must not hold up termination.
  ++am.gce[gce].issued[static_cast<std::size_t>(target)];
  try {
    send_request(am, st, target, handler, arg, bytes, kFlagCounted, gce,
                 am.next_seq++, /*op=*/nullptr);
  } catch (...) {
    --am.gce[gce].issued[static_cast<std::size_t>(target)];
    throw;
  }
}

int poll() { return poll_impl(); }

bool Handle::test(armci::Completion level) {
  if (op_ == nullptr)
    mpisim::raise(Errc::invalid_argument, "test on an empty am::Handle");
  if (op_->completed || level == armci::Completion::source)
    return try_complete(*op_) || level == armci::Completion::source;
  poll();  // a poll loop must itself serve inbound requests
  return try_complete(*op_);
}

void Handle::wait() {
  if (op_ == nullptr)
    mpisim::raise(Errc::invalid_argument, "wait on an empty am::Handle");
  OpState& op = *op_;
  AmState& am = require_am();
  mpisim::RankContext& me = mpisim::ctx();
  mpisim::SimCore& core = me.core();
  const std::uint64_t cid = am.comm.id();
  for (;;) {
    if (try_complete(op)) {
      if (op.error == nullptr) am.spare = op_;
      return;
    }
    if (poll() > 0) continue;  // serving may have unblocked our reply
    // Block until the reply is delivered, an inbound request arrives
    // (serve-while-waiting), or -- in survivable mode -- the target dies;
    // rreq.test() then surfaces Errc::crashed through the handle.
    std::unique_lock lk(core.mu());
    core.wait(lk,
              [&] {
                if (op.rreq.ready_locked()) return true;
                if (core.mailbox(me.rank())
                        .has_match(cid, mpisim::kAnySource, kReqTag))
                  return true;
                return core.survivable() &&
                       core.is_dead_locked(op.target);
              },
              "am.wait");
  }
}

void Handle::on_complete(armci::Completion level,
                         std::function<void(std::exception_ptr)> fn) {
  if (fn == nullptr)
    mpisim::raise(Errc::invalid_argument, "on_complete callback is null");
  if (op_ == nullptr)
    mpisim::raise(Errc::invalid_argument,
                  "on_complete on an empty am::Handle");
  OpState& op = *op_;
  if (level == armci::Completion::source && !op.completed) {
    fn(nullptr);  // local completion held since rpc() returned
    return;
  }
  if (op.completed) {
    std::exception_ptr e = op.error;
    if (e != nullptr) op.error_surfaced = true;
    fn(e);
    return;
  }
  op.callbacks.push_back(std::move(fn));
}

std::span<const std::uint8_t> Handle::reply() const {
  if (op_ == nullptr || !op_->completed || op_->error != nullptr)
    mpisim::raise(Errc::invalid_argument,
                  "reply() before successful completion");
  return {op_->rbuf.data() + sizeof(WireReply), op_->reply_bytes};
}

void Handle::decode_reply(void* out, std::size_t bytes) const {
  const std::span<const std::uint8_t> r = reply();
  if (r.size() != bytes)
    mpisim::raise(Errc::invalid_argument,
                  "reply of " + std::to_string(r.size()) +
                      " bytes decoded as " + std::to_string(bytes));
  std::memcpy(out, r.data(), bytes);
}

void quiesce(int gce) {
  armci::ProcState& st = armci::state();
  AmState& am = require_am();
  require_gce(gce);
  mpisim::SimCore& core = mpisim::ctx().core();
  const auto n = static_cast<std::size_t>(mpisim::nranks());
  const int me = mpisim::rank();
  // Counting rounds: allreduce [issued_to[0..n), served@me] and converge
  // when every live target's global served count has caught up with the
  // global issue count aimed at it. Ranks inside the allreduce neither
  // issue nor serve, so an equal round is a consistent cut; an in-flight
  // delegate keeps its target's issue count ahead and forces another
  // round. Dead targets are skipped (their queued delegates are lost), and
  // dead *issuers* drop out of the sum -- served can then exceed issued,
  // hence >= rather than ==.
  std::vector<std::uint64_t> in(2 * n), out(2 * n);
  for (;;) {
    poll();
    GceState& g = am.gce[gce];
    std::copy(g.issued.begin(), g.issued.end(), in.begin());
    std::fill(in.begin() + static_cast<std::ptrdiff_t>(n), in.end(), 0);
    in[n + static_cast<std::size_t>(me)] = g.served;
    am.comm.allreduce(in.data(), out.data(), 2 * n,
                      mpisim::BasicType::uint64, mpisim::Op::sum);
    bool converged = true;
    {
      std::lock_guard lk(core.mu());
      for (std::size_t t = 0; t < n; ++t) {
        if (core.is_dead_locked(static_cast<int>(t))) continue;
        if (out[n + t] < out[t]) {
          converged = false;
          break;
        }
      }
    }
    if (converged) break;
  }
  ++st.stats.am_terminations;
  if (core.hb().enabled()) {
    // Termination is the collective completion edge for fire-and-forget
    // delegates: every rank retires its persona, and the allreduce just
    // completed crosses the persona clocks to every other rank.
    std::lock_guard lk(core.mu());
    core.hb().persona_retire(me);
  }
}

void poll_wait(const std::function<bool()>& pred) {
  if (pred == nullptr)
    mpisim::raise(Errc::invalid_argument, "poll_wait predicate is null");
  AmState& am = require_am();
  mpisim::RankContext& me = mpisim::ctx();
  mpisim::SimCore& core = me.core();
  const std::uint64_t cid = am.comm.id();
  for (;;) {
    {
      std::lock_guard lk(core.mu());
      if (pred()) return;
    }
    if (poll_impl() > 0) continue;  // serving may have flipped pred
    std::unique_lock lk(core.mu());
    core.wait(lk,
              [&] {
                return pred() ||
                       core.mailbox(me.rank())
                           .has_match(cid, mpisim::kAnySource, kReqTag);
              },
              "am.poll_wait");
  }
}

void barrier() {
  armci::ProcState& st = armci::state();
  AmState& am = require_am();
  mpisim::SimCore& core = mpisim::ctx().core();
  const int n = mpisim::nranks();
  const int me = mpisim::rank();
  const std::uint64_t gen = ++am.barrier_gen;
  if (n == 1) return;
  if (me == 0) {
    // Root: gather one token per live non-root rank; ranks observed dead
    // count as arrived (they can never enter this generation).
    poll_wait([&] {
      int present = am.barrier_tokens[gen];
      for (int r = 1; r < n; ++r)
        if (core.is_dead_locked(r)) ++present;
      return present >= n - 1;
    });
    am.barrier_tokens.erase(gen);
    CtlArg rel;
    rel.kind = 1;
    rel.gen = gen;
    for (int r = 1; r < n; ++r) {
      if (core.is_failed(r)) continue;
      try {
        send_request(am, st, r, am.ctl_handler, &rel, sizeof rel,
                     /*flags=*/0, /*gce=*/0, am.next_seq++, /*op=*/nullptr);
      } catch (const mpisim::MpiError& e) {
        // Died after sending its token: nobody is waiting for the release.
        if (e.code() != Errc::crashed) throw;
      }
    }
  } else {
    CtlArg tok;
    tok.kind = 0;
    tok.gen = gen;
    send_request(am, st, 0, am.ctl_handler, &tok, sizeof tok, /*flags=*/0,
                 /*gce=*/0, am.next_seq++, /*op=*/nullptr);
    poll_wait([&] { return am.barrier_releases >= gen; });
  }
}

void touch(const void* ptr, std::size_t bytes, bool write) {
  armci::ProcState& st = armci::state();
  mpisim::SimCore& core = mpisim::ctx().core();
  if (!core.hb().enabled()) return;
  const armci::GmrLoc loc = st.table.require(mpisim::rank(), ptr, bytes);
  const bool native = !loc.gmr->win.valid();
  const std::uint64_t space =
      native ? (mpisim::HbChecker::kNativeSpace | loc.gmr->id)
             : loc.gmr->win.id();
  const int target = native ? loc.gmr->group.absolute_id(loc.target_rank)
                            : loc.target_rank;
  const auto lo = static_cast<std::ptrdiff_t>(loc.offset);
  const auto hi = static_cast<std::ptrdiff_t>(loc.offset + bytes);
  std::lock_guard lk(core.mu());
  core.hb().direct_op(space, target, loc.gmr->group.rank(),
                      core.hb().persona(mpisim::rank()),
                      write ? mpisim::HbChecker::OpKind::put
                            : mpisim::HbChecker::OpKind::get,
                      mpisim::Op::replace, lo, hi, "am handler access");
}

}  // namespace am
