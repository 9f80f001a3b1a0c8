#ifndef MPISIM_MAILBOX_HPP
#define MPISIM_MAILBOX_HPP

/// \file mailbox.hpp
/// Tag-matched message queues for two-sided communication.
///
/// One mailbox per world rank; ranks share one host thread and switch only
/// at scheduling points (see runtime.hpp), so the mailbox itself is a plain
/// data structure. Matching follows MPI rules: (communicator, source, tag) with
/// wildcard source/tag, FIFO per (source, tag) pair.
///
/// Every receive is a *posted* receive (a blocking recv() is irecv() plus
/// wait()). A posting first takes the oldest matching message from the
/// unexpected-message queue; failing that it is registered here, and a
/// later push() delivers the payload straight into the poster's buffer
/// without ever queueing it (the MPI posted-receive fast path). A rank's
/// receives therefore match in post order (MPI's non-overtaking rule), and
/// a message consumed by a posting is invisible to iprobe().

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

namespace mpisim {

/// Wildcards accepted by receive operations.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Everything about a message but its payload.
struct Envelope {
  std::uint64_t comm_id = 0;  ///< communicator the send was posted on
  int src_comm_rank = 0;      ///< sender's rank in that communicator
  int tag = 0;
  double send_ts_ns = 0.0;  ///< sender's virtual clock at send
  /// Sender's vector clock at send, joined by the matching receive
  /// (happens-before piggyback, hb.hpp). Empty unless the race detector
  /// is enabled.
  std::vector<std::uint64_t> vc;
};

/// A message on the unexpected queue. The payload is copied at send time
/// (eager protocol); a message a posted receive takes is copied straight
/// into that receive's buffer and never becomes a Message.
struct Message : Envelope {
  std::vector<std::uint8_t> payload;
};

/// Completion information returned by receives.
struct Status {
  int source = kAnySource;  ///< matched sender (comm rank)
  int tag = kAnyTag;
  std::size_t bytes = 0;  ///< matched message size
};

/// Shared state of one posted (nonblocking) receive. Owned jointly by the
/// poster's Comm::Request and -- until matched or cancelled -- by the
/// destination mailbox's posted list. Delivery copies the payload into
/// `buf` and fills the completion fields; the posting rank finishes the
/// receive (clock advance, happens-before join, truncation raise) at
/// wait()/test().
struct PostedRecv {
  std::uint64_t comm_id = 0;
  int src = kAnySource;  ///< comm rank or kAnySource
  int tag = kAnyTag;
  void* buf = nullptr;
  std::size_t capacity = 0;

  bool matched = false;    ///< a message has been delivered
  bool cancelled = false;  ///< deregistered before matching (Request dtor)
  bool truncated = false;  ///< message exceeded capacity (raised at wait)
  std::size_t msg_bytes = 0;
  double send_ts_ns = 0.0;
  std::vector<std::uint64_t> vc;  ///< sender's clock (joined at completion)
  Status st;
};

/// Unexpected-message queue plus posted-receive registry for one
/// destination rank.
class Mailbox {
 public:
  /// Deliver a message: \p env and the \p bytes at \p data. The first
  /// matching posted receive (post order) takes it by one copy straight
  /// from \p data into its buffer, and no payload vector is built;
  /// otherwise the bytes are copied into a Message appended to the
  /// unexpected queue (preserving per-(src,tag) FIFO order). Returns true
  /// when a posted receive took it. Comm::send and the am layer's replies
  /// both deliver through here.
  bool push(Envelope env, const void* data, std::size_t bytes);

  /// The first queued message matching (comm, src, tag), or null; \p src
  /// and \p tag may be wildcards. A peek: the queue is left as it is.
  /// Posted receives do not participate: a message they consumed was never
  /// queued.
  const Message* find_match(std::uint64_t comm_id, int src, int tag) const;

  /// True if a queued message matches (comm, src, tag).
  bool has_match(std::uint64_t comm_id, int src, int tag) const {
    return find_match(comm_id, src, tag) != nullptr;
  }

  /// Remove and return the first matching queued message. Requires
  /// has_match().
  Message pop_match(std::uint64_t comm_id, int src, int tag);

  /// Register a posted receive (irecv with no queued match). The mailbox
  /// holds a reference until delivery or cancel_posted().
  void post(std::shared_ptr<PostedRecv> rec);

  /// Deliver \p msg into \p rec immediately (irecv that found a queued
  /// match; \p rec must not be registered).
  static void deliver(PostedRecv& rec, Message msg) {
    deliver(rec, msg, msg.payload.data(), msg.payload.size());
  }

  /// True when a currently posted receive would match a message with this
  /// envelope (the send-side cap check: such a message bypasses queueing).
  bool has_posted_match(std::uint64_t comm_id, int src_comm_rank,
                        int tag) const;

  /// Deregister \p rec if it is still posted (Request destructor/error
  /// paths; idempotent). Marks it cancelled.
  void cancel_posted(const std::shared_ptr<PostedRecv>& rec);

  /// Number of queued messages (diagnostics).
  std::size_t size() const noexcept { return queue_.size(); }

  /// Payload bytes currently buffered in the unexpected queue (the eager
  /// protocol's copy-out debt; posted-receive deliveries never count).
  std::size_t queued_bytes() const noexcept { return queued_bytes_; }

  /// High-water mark of queued_bytes() over this mailbox's lifetime.
  std::size_t high_water_bytes() const noexcept { return high_water_bytes_; }

 private:
  bool matches(const Message& m, std::uint64_t comm_id, int src,
               int tag) const;

  /// Fill \p rec from \p env (its clock is moved) and the \p bytes at
  /// \p data.
  static void deliver(PostedRecv& rec, Envelope& env, const void* data,
                      std::size_t bytes);

  std::deque<Message> queue_;
  /// Posted receives in post order (matching scans front to back).
  std::vector<std::shared_ptr<PostedRecv>> posted_;
  std::size_t queued_bytes_ = 0;
  std::size_t high_water_bytes_ = 0;
};

}  // namespace mpisim

#endif  // MPISIM_MAILBOX_HPP
