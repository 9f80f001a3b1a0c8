#ifndef MPISIM_COMM_HPP
#define MPISIM_COMM_HPP

/// \file comm.hpp
/// Communicators: intra- and inter-communicators with two-sided messaging
/// and collectives.
///
/// ARMCI-MPI backs every ARMCI process group with a communicator. Collective
/// group creation maps to split()/create_from_group(); noncollective group
/// creation uses intercomm_create() + merge() recursively (Dinan et al.,
/// EuroMPI'11), both of which are provided here with MPI semantics.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/mpisim/group.hpp"
#include "src/mpisim/mailbox.hpp"
#include "src/mpisim/op.hpp"

namespace mpisim {

class SimCore;
class Win;

/// Communicator id of the runtime-internal system channel: a communicator
/// over the world group that SimCore owns and never hands to user code.
/// The leader handshakes of intercomm_create() and merge() run on it.
inline constexpr std::uint64_t kSystemChannel = 0;

/// Rendezvous state for in-progress collectives on one communicator.
struct CollCtx {
  std::uint64_t gen = 0;       ///< completed-collective generation
  int arrived = 0;             ///< ranks arrived in the current round
  double max_clock_ns = 0.0;   ///< max arrival clock this round
  double result_clock_ns = 0.0;  ///< departure clock of the finished round
  std::vector<const void*> inbufs;
  std::vector<void*> outbufs;
  std::vector<std::size_t> incounts;  ///< per-rank scalar argument slot
  /// Per group rank: arrived in the current round? Survivable mode
  /// completes a round once every member is present *or dead*; the
  /// completer nulls the absent members' buffer slots so leader functions
  /// skip them (stale pointers from prior rounds must never be read).
  std::vector<std::uint8_t> present;
  /// Set by a rooted collective's leader function when the rank the result
  /// depends on (bcast source, reduce destination) is dead this round:
  /// survivors raise Errc::crashed instead of silently keeping stale
  /// buffers (ULFM: a collective that depends on a failed process fails).
  bool dep_dead = false;
  /// Happens-before accumulator (hb.hpp): every arrival joins its vector
  /// clock here; the completer moves it to hb_result, which every departer
  /// acquires. Safe as a single result slot: the next round cannot
  /// complete before every live member departed this one.
  std::vector<std::uint64_t> hb_acc;
  std::vector<std::uint64_t> hb_result;

  /// Object-building rounds (Comm::dup, Win::create): store \p obj in
  /// every live member's output slot, each a std::shared_ptr<T>.
  template <typename T>
  void hand_out(const std::shared_ptr<T>& obj) const {
    for (void* slot : outbufs)
      if (slot != nullptr) *static_cast<std::shared_ptr<T>*>(slot) = obj;
  }
};

/// Shared state of one communicator, identical on every member rank.
struct CommImpl {
  std::uint64_t id = 0;
  SimCore* core = nullptr;
  Group group;  ///< local group (world ranks)

  // Intercommunicator support.
  bool is_inter = false;
  Group remote_group;

  // Survivable-failure support.
  bool revoked = false;  ///< sticky ULFM-style revocation flag
  /// Per group rank: number of shrink() calls made, used to derive the
  /// publication key of each shrink round (collective, so all live members
  /// agree on the sequence number).
  std::vector<std::uint32_t> shrink_calls;

  CollCtx coll;
};

/// Fresh shared state of an intracommunicator over \p group (simulator
/// internals: the world and system channel, dup/split/create/merge/shrink).
std::shared_ptr<CommImpl> make_intracomm(SimCore& core, std::uint64_t id,
                                         Group group);

/// Value handle to a communicator, bound to the calling rank. Cheap to copy.
class Comm {
 public:
  Comm() = default;

  /// Wrap shared state for the calling rank (internal; used by run()).
  explicit Comm(std::shared_ptr<CommImpl> impl);

  bool valid() const noexcept { return impl_ != nullptr; }

  /// My rank in this communicator's (local) group.
  int rank() const;

  /// Size of the (local) group.
  int size() const noexcept;

  /// True for an intercommunicator.
  bool is_inter() const noexcept;

  /// Size of the remote group (intercommunicators only).
  int remote_size() const;

  /// The local group.
  const Group& group() const noexcept;

  /// The remote group (intercommunicators only).
  const Group& remote_group() const;

  /// World rank of \p r in the local group.
  int world_rank(int r) const;

  /// Unique id (diagnostics; matches message envelopes).
  std::uint64_t id() const noexcept;

  // ---- Two-sided messaging (intra; on intercomms ranks are remote) ----

  /// Blocking standard-mode send of \p bytes to \p dest.
  void send(const void* buf, std::size_t bytes, int dest, int tag) const;

  /// Blocking receive; \p src / \p tag may be kAnySource / kAnyTag.
  /// Exactly irecv() followed by the request's wait(), so receives match
  /// in post order whether they block or not; diagnostics name the site
  /// comm.recv.
  Status recv(void* buf, std::size_t capacity, int src, int tag) const;

  /// Nonblocking probe: true if a matching message is queued.
  bool iprobe(int src, int tag, Status* st = nullptr) const;

  // ---- Nonblocking point-to-point ----

  /// Handle for isend()/irecv(). A receive is truly *posted*: the matching
  /// message -- even one arriving later -- is delivered straight into the
  /// buffer by the sender, and wait()/test() complete it on the
  /// posting rank (clock advance, happens-before join). Complete each
  /// receive exactly once, via wait() or a successful test(); a second
  /// wait() raises Errc::invalid_argument. Destroying a never-completed
  /// receive deterministically cancels the posting (a message already
  /// delivered is consumed so its happens-before edge is not lost). Sends
  /// are eager and born complete; their wait() is an idempotent no-op.
  /// Move-only: the handle owns the posting.
  class Request {
   public:
    Request() = default;
    ~Request();
    Request(Request&&) noexcept = default;
    Request& operator=(Request&&) noexcept = default;
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

    /// Block until the operation completes; fills \p st for receives.
    /// Failure-aware: raises Errc::revoked on a revoked communicator, and
    /// in survivable mode Errc::crashed when the awaited specific sender
    /// is dead -- or, for wildcard-source receives, once per death epoch
    /// not yet covered by failure_ack().
    void wait(Status* st = nullptr);

    /// True once complete (receives: a matching message has been consumed
    /// into the buffer). A successful test() completes the request in
    /// place of wait(); afterwards test() keeps returning true. Surfaces
    /// the same failure errors as wait() without blocking.
    bool test(Status* st = nullptr);

    /// True when wait()/test() will complete without blocking (a message
    /// has been delivered, the request already completed, or it is a
    /// send). Not a scheduling point: this is the nonblocking peek
    /// multi-event wait predicates need (e.g. the AM layer's
    /// serve-while-waiting loop).
    bool ready() const noexcept;

   private:
    friend class Comm;
    /// wait(), naming \p site in diagnostics (Comm::recv passes comm.recv).
    void wait_at(Status* st, const char* site);
    /// Join the delivered message's happens-before clock and advance to its
    /// delivery time.
    void consume_delivery() const;
    void complete_matched(Status* st);
    std::shared_ptr<CommImpl> impl_;
    std::shared_ptr<PostedRecv> rec_;
    bool is_recv_ = false;
    bool completed_ = false;
    Status status_;
  };

  /// Nonblocking standard-mode send (eager: the payload is copied out and
  /// the request is born complete, matching this simulator's send()).
  Request isend(const void* buf, std::size_t bytes, int dest, int tag) const;

  /// Nonblocking receive: posts the match; wait()/test() complete it.
  Request irecv(void* buf, std::size_t capacity, int src, int tag) const;

  /// Complete every request in \p reqs (MPI_Waitall).
  static void wait_all(std::span<Request> reqs);

  // ---- Collectives (intracommunicators) ----

  void barrier() const;
  void bcast(void* buf, std::size_t bytes, int root) const;

  /// Element-wise reduction to \p root; in == out allowed on no rank.
  void reduce(const void* in, void* out, std::size_t count, BasicType t,
              Op op, int root) const;
  void allreduce(const void* in, void* out, std::size_t count, BasicType t,
                 Op op) const;

  /// Gather \p bytes from every rank into rank-ordered \p out (all ranks).
  void allgather(const void* in, void* out, std::size_t bytes) const;

  /// Variable-size allgather; \p counts gives each rank's contribution.
  void allgatherv(const void* in, std::size_t my_bytes, void* out,
                  std::span<const std::size_t> counts) const;

  /// Personalized exchange: rank i sends in[j*bytes..] to rank j.
  void alltoall(const void* in, void* out, std::size_t bytes) const;

  /// Inclusive prefix reduction.
  void scan(const void* in, void* out, std::size_t count, BasicType t,
            Op op) const;

  // ---- Communicator construction ----

  /// Singleton communicator containing only the calling rank
  /// (MPI_COMM_SELF equivalent). Noncollective; usable as the leaf of
  /// recursive intercommunicator constructions.
  static Comm self();

  /// Duplicate (new id, same group). Collective.
  Comm dup() const;

  /// Split by color/key (color < 0: the caller gets no communicator back).
  /// Collective over this communicator.
  Comm split(int color, int key) const;

  /// Create a subcommunicator for \p group (subset of this comm's group,
  /// given as world ranks). Collective over this communicator; ranks not in
  /// \p group receive an invalid Comm.
  Comm create(const Group& subgroup) const;

  /// Build an intercommunicator. Collective over this (local) communicator.
  /// \p remote_leader_world is the world rank of the remote group's leader;
  /// the two leaders rendezvous with \p tag on a world channel.
  Comm intercomm_create(int local_leader, int remote_leader_world,
                        int tag) const;

  /// Merge an intercommunicator into an intracommunicator. The group that
  /// passes high=true is ordered after the other. Collective over both sides.
  Comm merge(bool high) const;

  // ---- ULFM-style fault-tolerance primitives (survivable mode) ----

  /// True when the member \p r (local group rank) has been declared dead.
  bool is_failed(int r) const;

  /// Mark this communicator revoked (MPIX_Comm_revoke): sticky; blocked
  /// receives on it wake with Errc::revoked and later point-to-point and
  /// collective entries raise Errc::revoked. Noncollective — any member
  /// may call it after observing a failure.
  void revoke() const;

  /// Build a new intracommunicator over the surviving members
  /// (MPIX_Comm_shrink). Collective over the *live* members; works on a
  /// revoked communicator. The lowest-ranked survivor constructs the new
  /// shared state and publishes it for the rest.
  Comm shrink() const;

  /// Fault-tolerant AND-agreement (MPIX_Comm_agree): returns the logical
  /// AND of every live member's \p flag, completing over the survivors
  /// even when members died. Acknowledges observed failures on return.
  bool agree(bool flag) const;

  /// Acknowledge all failures observed so far (MPIX_Comm_failure_ack):
  /// any-source receives stop raising Errc::crashed for already-observed
  /// deaths and may complete against messages from live senders.
  void failure_ack() const;

  /// Shared-state accessor (simulator internals and Window).
  const std::shared_ptr<CommImpl>& impl() const noexcept { return impl_; }

 private:
  // Windows build their shared state in one collective round.
  friend class Win;

  /// Run one rendezvous collective round: every member contributes
  /// (in, out, count); the last arriver executes \p leader_fn in the same
  /// critical section, then everyone's clock advances to the common result
  /// time (max arrival + \p cost_ns). Returns this round's
  /// CollCtx::dep_dead verdict (true when a rooted collective's dependency
  /// rank was dead; always false for unrooted collectives).
  bool collective_round(
      const void* in, void* out, std::size_t count, double cost_ns,
      const std::function<void(CollCtx&, const Group&)>& leader_fn) const;

  /// A rooted round reported its dependency rank \p root dead: raise
  /// Errc::crashed at \p site (the detection bound is already folded into
  /// the round's result clock).
  [[noreturn]] void raise_dead_root(int root, const char* site) const;

  std::shared_ptr<CommImpl> impl_;
};

}  // namespace mpisim

#endif  // MPISIM_COMM_HPP
