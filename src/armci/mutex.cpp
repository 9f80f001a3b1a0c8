#include "src/armci/mutex.hpp"

#include <mutex>

#include "src/armci/epoch_guard.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

using mpisim::Errc;
using mpisim::LockType;
using mpisim::TraceCat;
using mpisim::TraceScope;

QueueingMutexSet QueueingMutexSet::create(const mpisim::Comm& comm, int count,
                                          int tag_base) {
  if (count < 0) mpisim::raise(Errc::invalid_argument, "negative mutex count");
  QueueingMutexSet set;
  set.comm_ = comm.dup();  // private tag space for notification messages
  set.count_ = count;
  set.tag_base_ = tag_base;
  // Row layout: nproc request flags plus the survivable-mode holder byte.
  const std::size_t stride = static_cast<std::size_t>(comm.size()) + 1;
  set.bytes_ = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(count) * stride, 0);
  set.win_ = mpisim::Win::create(
      set.bytes_->empty() ? nullptr : set.bytes_->data(), set.bytes_->size(),
      comm);
  return set;
}

void QueueingMutexSet::destroy() {
  win_.free();
  win_ = mpisim::Win();
  bytes_.reset();
  count_ = 0;
}

const std::vector<std::uint8_t>& QueueingMutexSet::swap_flag(
    int m, int host, std::uint8_t flag) {
  const int n = comm_.size();
  const int me = comm_.rank();
  const std::size_t row =
      static_cast<std::size_t>(m) * (static_cast<std::size_t>(n) + 1);
  // The put and the gets touch disjoint bytes, so this is a legal epoch.
  std::vector<std::uint8_t>& others = flags_;
  others.assign(static_cast<std::size_t>(n), 0);
  EpochGuard eg(win_, LockType::exclusive, host);
  win_.put(&flag, 1, host, row + static_cast<std::size_t>(me));
  if (me > 0) win_.get(others.data(), static_cast<std::size_t>(me), host, row);
  if (me < n - 1)
    win_.get(others.data() + me + 1, static_cast<std::size_t>(n - 1 - me),
             host, row + static_cast<std::size_t>(me) + 1);
  eg.release();
  return others;
}

void QueueingMutexSet::put_holder(int m, int host, std::uint8_t value) {
  const std::size_t stride = static_cast<std::size_t>(comm_.size()) + 1;
  const std::size_t hoff = static_cast<std::size_t>(m) * stride +
                           static_cast<std::size_t>(comm_.size());
  EpochGuard eg(win_, LockType::exclusive, host);
  win_.put(&value, 1, host, hoff);
  eg.release();
}

void QueueingMutexSet::clear_holder_if(int m, int host, std::uint8_t expected) {
  const std::size_t stride = static_cast<std::size_t>(comm_.size()) + 1;
  const std::size_t hoff = static_cast<std::size_t>(m) * stride +
                           static_cast<std::size_t>(comm_.size());
  const std::uint8_t zero = 0;
  std::uint8_t prev = 0;
  EpochGuard eg(win_, LockType::exclusive, host);
  win_.compare_and_swap(&zero, &expected, &prev, mpisim::BasicType::byte_,
                        host, hoff);
  eg.release();
}

void QueueingMutexSet::lock(int m, int host) {
  if (m < 0 || m >= count_)
    mpisim::raise(Errc::invalid_argument, "mutex index out of range");
  TraceScope ts(mpisim::tracer(), TraceCat::mutex, "qmutex.lock",
                static_cast<std::uint64_t>(m));
  const int n = comm_.size();
  const int me = comm_.rank();
  const bool surv = mpisim::ctx().core().survivable();
  const std::size_t stride = static_cast<std::size_t>(n) + 1;
  const std::size_t row = static_cast<std::size_t>(m) * stride;

  // Request: set B[me] = 1 and fetch every other member's flag.
  const std::vector<std::uint8_t>& others = swap_flag(m, host, 1);

  bool contended = false;
  int dead_seen = -1;
  for (int i = 0; i < n; ++i) {
    if (i == me || others[static_cast<std::size_t>(i)] == 0) continue;
    // A dead rank's request flag is permanent litter; it must not make us
    // wait for a token that can never arrive.
    if (surv && comm_.is_failed(i)) {
      dead_seen = i;
      continue;
    }
    contended = true;
    break;
  }
  if (!contended) {
    // No other live requester: the lock is ours. Publish the holder byte so
    // waiters can reclaim it if we die while holding.
    if (surv) {
      if (dead_seen >= 0) {
        // Skipping the dead rank's flag (possibly reclaiming the mutex it
        // held) is an act of failure detection: charge the detector bound
        // and stamp the latency gauge, as the blocked-waiter path does.
        mpisim::SimCore& core = mpisim::ctx().core();
        std::lock_guard lk(core.mu());
        core.note_death_observed_locked(comm_.world_rank(dead_seen));
      }
      put_holder(m, host, static_cast<std::uint8_t>(me + 1));
    }
    return;
  }

  std::uint8_t token = 0;
  if (!surv) {
    // Enqueued: wait locally for the current holder to forward the lock.
    comm_.recv(&token, 1, mpisim::kAnySource, tag_base_ + m);
    return;
  }
  for (;;) {
    try {
      // The releaser publishes H = me + 1 before sending, so a received
      // token means the holder byte already names us.
      comm_.recv(&token, 1, mpisim::kAnySource, tag_base_ + m);
      return;
    } catch (const mpisim::MpiError& e) {
      if (e.code() != Errc::crashed) throw;
    }
    // A peer died while we were queued. Refetch the row to learn whether
    // the dead rank held this mutex; epochs are serialized, so every woken
    // waiter sees a consistent snapshot.
    std::vector<std::uint8_t> rowbuf(stride, 0);
    {
      EpochGuard eg(win_, LockType::exclusive, host);
      win_.get(rowbuf.data(), stride, host, row);
      eg.release();
    }
    const int holder = static_cast<int>(rowbuf[static_cast<std::size_t>(n)]) - 1;
    if (holder == me) {
      // The releaser handed the lock to us and died before (or while) the
      // token was delivered: the published holder byte is authoritative.
      comm_.failure_ack();
      return;
    }
    if (holder >= 0 && comm_.is_failed(holder)) {
      // Reclaim: the first live requester circularly after the dead holder
      // becomes the new holder; everyone computes the same successor from
      // the serialized snapshot.
      int successor = -1;
      for (int k = 1; k <= n; ++k) {
        const int i = (holder + k) % n;
        if (rowbuf[static_cast<std::size_t>(i)] != 0 && !comm_.is_failed(i)) {
          successor = i;
          break;
        }
      }
      if (successor == me) {
        put_holder(m, host, static_cast<std::uint8_t>(me + 1));
        comm_.failure_ack();
        return;
      }
    }
    // Holder alive (a death elsewhere woke us) or handoff in progress:
    // acknowledge the death epoch and keep waiting.
    comm_.failure_ack();
  }
}

void QueueingMutexSet::unlock(int m, int host) {
  if (m < 0 || m >= count_)
    mpisim::raise(Errc::invalid_argument, "mutex index out of range");
  TraceScope ts(mpisim::tracer(), TraceCat::mutex, "qmutex.unlock",
                static_cast<std::uint64_t>(m));
  const int n = comm_.size();
  const int me = comm_.rank();
  const bool surv = mpisim::ctx().core().survivable();

  // Release: clear B[me] and fetch every other member's flag.
  const std::vector<std::uint8_t>& others = swap_flag(m, host, 0);

  // Fair handoff: scan circularly starting at me+1 and forward the lock to
  // the first enqueued requester, if any. Survivable mode skips dead
  // requesters (their flags are litter) and publishes the holder byte
  // before the token send, so the handoff survives our own crash.
  std::uint8_t published = static_cast<std::uint8_t>(me + 1);
  for (int k = 1; k < n; ++k) {
    const int i = (me + k) % n;
    if (others[static_cast<std::size_t>(i)] == 0) continue;
    if (surv && comm_.is_failed(i)) continue;
    if (surv) {
      put_holder(m, host, static_cast<std::uint8_t>(i + 1));
      published = static_cast<std::uint8_t>(i + 1);
    }
    try {
      const std::uint8_t token = 1;
      comm_.send(&token, 1, i, tag_base_ + m);
      return;
    } catch (const mpisim::MpiError& e) {
      if (!surv || e.code() != Errc::crashed) throw;
      // The chosen successor died between the epoch and the send. Its own
      // wake-up (or another waiter's) reclaims from the published holder
      // byte; still try the remaining requesters so an uncontended row
      // ends free.
    }
  }
  // No live requester in the snapshot: free the lock -- but conditionally.
  // A new requester whose claim epoch ran after our flag-clearing epoch has
  // already claimed the lock and published (or is about to publish) its own
  // holder byte; an unconditional H = 0 here would mark a held lock free
  // and strand a later crash recovery. The compare-and-swap only clears H
  // while it still carries the value this releaser last published.
  if (surv) clear_holder_if(m, host, published);
}

}  // namespace armci
