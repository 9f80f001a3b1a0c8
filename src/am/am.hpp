#ifndef AM_AM_HPP
#define AM_AM_HPP

/// \file am.hpp
/// Active-message / RPC layer over the simulator's two-sided channel.
///
/// The one-sided ARMCI substrate moves bytes; this layer moves *work*: a
/// caller delegates a registered handler to a target process, optionally
/// waiting for a small reply (an RPC) or firing-and-forgetting under a
/// GlobalCompletionEvent-style termination detector (a delegate). Targets
/// serve requests cooperatively from the same progress persona that drives
/// the nonblocking aggregation engine: every armci::progress() poke, every
/// blocking am wait, and -- with Options::progress -- every
/// progress_interval_ns of application compute drains the request queue, so
/// a rank that is busy computing still serves its shard.
///
/// Arguments and replies are POD byte strings with hard size bounds
/// (kMaxArgBytes / kMaxReplyBytes): the layer copies them eagerly into the
/// message, so handlers never see caller memory. Handlers execute on the
/// receiving rank under its *progress persona* identity for the
/// happens-before race detector (MPISIM_RMA_CHECK=race): memory a handler
/// touches (declared via am::touch) is published with the persona's clock,
/// the reply carries that clock to the origin, and the termination detector
/// retires the persona -- so an application read of handler-written memory
/// is racy until the covering completion point, exactly like a deferred
/// nonblocking operation.
///
/// Restrictions, by design:
///  - handlers must not block, send messages, or issue collective or
///    blocking one-sided operations; they run inside the serve loop and
///    re-entrant serving is suppressed (a nested poll() is a no-op);
///  - handler ids come from SPMD-ordered register_handler() calls and are
///    bounded by kMaxHandlers;
///  - init() is collective over the world and requires armci::init() first.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>

#include "src/armci/types.hpp"

namespace am {

/// Hard bound on the handler-id registry (bounded dispatch table).
inline constexpr std::size_t kMaxHandlers = 64;

/// Hard bound on one request's argument payload.
inline constexpr std::size_t kMaxArgBytes = 4096;

/// Hard bound on one reply payload.
inline constexpr std::size_t kMaxReplyBytes = 4096;

/// Number of independent termination-detector counters (gce ids 0..3).
inline constexpr int kNumGces = 4;

/// A request handler. Runs on the target rank; \p src is the
/// requester's world rank, [arg, arg+bytes) the argument bytes. Writes at
/// most \p reply_capacity bytes into \p reply and returns the reply size
/// (ignored for fire-and-forget delegates).
using Handler = std::function<std::size_t(
    int src, const void* arg, std::size_t bytes, void* reply,
    std::size_t reply_capacity)>;

/// Collectively attach the AM layer to the initialized ARMCI runtime:
/// duplicates a private world communicator and hooks the serve loop into
/// the cooperative progress persona.
void init();

/// Collectively detach: quiesces the default termination counter, then
/// unhooks. Call before armci::finalize().
void finalize();

/// True between init() and finalize() on this process.
bool initialized() noexcept;

/// Register \p fn and return its handler id. Must be called in the same
/// order on every process (SPMD registry); bounded by kMaxHandlers.
int register_handler(Handler fn);

/// Completion handle of one rpc(). Copyable value; all copies share the
/// operation's state. A transport failure (e.g. the target died,
/// Errc::crashed) surfaces exactly once through the handle -- at the first
/// wait()/test() that observes it, or through an on_complete callback --
/// after which the handle reads complete.
class Handle {
 public:
  Handle() = default;

  /// True once the operation reached \p level. Completion::source is local
  /// completion (argument bytes captured; always true for a live handle).
  /// Completion::operation is full completion: the handler ran and its
  /// reply arrived. Polls the serve loop, so spinning on test() makes
  /// progress for inbound requests too.
  bool test(armci::Completion level = armci::Completion::operation);

  /// Block until full completion, serving inbound requests while waiting
  /// (two ranks rpc-ing each other cannot deadlock). Failure-aware: raises
  /// Errc::crashed once if the target died before replying.
  void wait();

  /// Invoke \p fn when the operation reaches \p level (immediately if it
  /// already has), passing the transport error or nullptr. An error
  /// delivered to a callback counts as surfaced.
  void on_complete(armci::Completion level,
                   std::function<void(std::exception_ptr)> fn);

  /// Reply bytes (valid after full completion).
  std::span<const std::uint8_t> reply() const;

  /// Decode the reply as a POD \p T (size-checked).
  template <typename T>
  T reply_as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    T out;
    decode_reply(&out, sizeof out);
    return out;
  }

 private:
  friend Handle rpc(int, int, const void*, std::size_t);
  void decode_reply(void* out, std::size_t bytes) const;
  std::shared_ptr<struct OpState> op_;
};

/// Delegate handler \p handler to world rank \p target with argument bytes
/// [arg, arg+bytes) and return a completion handle carrying the reply.
Handle rpc(int target, int handler, const void* arg, std::size_t bytes);

/// Fire-and-forget delegate: no reply, completion tracked collectively by
/// termination counter \p gce (see quiesce()).
void rpc_ff(int target, int handler, const void* arg, std::size_t bytes,
            int gce = 0);

/// Serve all currently queued inbound requests; returns the number served.
/// Called automatically from the progress persona, blocking am waits, and
/// armci::progress(); call it explicitly inside request-free compute loops.
int poll();

/// Termination detection for fire-and-forget delegates (collective over
/// the world): returns when every delegate issued to a *live* rank under
/// counter \p gce has been served, alternating serving with failure-aware
/// global counting rounds. Dead ranks' unserved delegates are excluded --
/// in survivable mode the caller learns about the loss through its own
/// failure observations, not by hanging here. On return the caller has
/// acquired its persona's clock (handler effects are ordered).
void quiesce(int gce = 0);

/// Serve inbound requests while waiting for \p pred to become true -- the
/// blocking primitive for code that must stay responsive as a server (a
/// rank waiting on handler-updated local state, a phase fence). \p pred is
/// evaluated with the simulator lock held: it may read rank-local state a
/// handler updates and _locked simulator accessors, and must not block,
/// send, or serve itself.
void poll_wait(const std::function<bool()>& pred);

/// Serving barrier over the live world ranks: returns once every live rank
/// has entered it, serving inbound requests the whole time. Use this --
/// never a plain mpisim barrier/collective -- to fence phases of an
/// RPC-heavy program: a rank blocked in an ordinary collective stops
/// serving, and stragglers still waiting on its shard would deadlock.
/// Centralized at world rank 0, which must be alive; ranks that died
/// before entering are excluded, consistent with survivable collectives.
void barrier();

/// Declare that the running handler reads (\p write false) or writes
/// (\p write true) [ptr, ptr+bytes), which must lie in a global allocation
/// on this process. Records the access under the progress persona for the
/// happens-before race detector; no-op when the detector is off.
void touch(const void* ptr, std::size_t bytes, bool write);

}  // namespace am

#endif  // AM_AM_HPP
