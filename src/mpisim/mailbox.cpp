#include "src/mpisim/mailbox.hpp"

#include <algorithm>
#include <cstring>

#include "src/mpisim/error.hpp"

namespace mpisim {

bool Mailbox::matches(const Message& m, std::uint64_t comm_id, int src,
                      int tag) const {
  return m.comm_id == comm_id && (src == kAnySource || m.src_comm_rank == src) &&
         (tag == kAnyTag || m.tag == tag);
}

void Mailbox::deliver(PostedRecv& rec, Message msg) {
  require_internal(!rec.matched && !rec.cancelled,
                   "delivery into a completed posted receive");
  rec.matched = true;
  rec.msg_bytes = msg.payload.size();
  rec.truncated = msg.payload.size() > rec.capacity;
  // A truncating message still delivers the prefix (diagnosability); the
  // poster raises Errc::truncation when it completes the request.
  std::memcpy(rec.buf, msg.payload.data(),
              std::min(msg.payload.size(), rec.capacity));
  rec.send_ts_ns = msg.send_ts_ns;
  rec.vc = std::move(msg.vc);
  rec.st.source = msg.src_comm_rank;
  rec.st.tag = msg.tag;
  rec.st.bytes = msg.payload.size();
}

bool Mailbox::push(Message msg) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    PostedRecv& rec = **it;
    if (rec.comm_id != msg.comm_id) continue;
    if (rec.src != kAnySource && rec.src != msg.src_comm_rank) continue;
    if (rec.tag != kAnyTag && rec.tag != msg.tag) continue;
    deliver(rec, std::move(msg));
    posted_.erase(it);
    return true;
  }
  queued_bytes_ += msg.payload.size();
  high_water_bytes_ = std::max(high_water_bytes_, queued_bytes_);
  queue_.push_back(std::move(msg));
  return false;
}

const Message* Mailbox::find_match(std::uint64_t comm_id, int src,
                                   int tag) const {
  for (const Message& m : queue_)
    if (matches(m, comm_id, src, tag)) return &m;
  return nullptr;
}

Message Mailbox::pop_match(std::uint64_t comm_id, int src, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, comm_id, src, tag)) {
      Message m = std::move(*it);
      queue_.erase(it);
      queued_bytes_ -= m.payload.size();
      return m;
    }
  }
  raise(Errc::internal, "pop_match without has_match");
}

void Mailbox::post(std::shared_ptr<PostedRecv> rec) {
  posted_.push_back(std::move(rec));
}

bool Mailbox::has_posted_match(std::uint64_t comm_id, int src_comm_rank,
                               int tag) const {
  for (const auto& rec : posted_) {
    if (rec->comm_id != comm_id) continue;
    if (rec->src != kAnySource && rec->src != src_comm_rank) continue;
    if (rec->tag != kAnyTag && rec->tag != tag) continue;
    return true;
  }
  return false;
}

void Mailbox::cancel_posted(const std::shared_ptr<PostedRecv>& rec) {
  rec->cancelled = true;
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->get() == rec.get()) {
      posted_.erase(it);
      return;
    }
  }
}

}  // namespace mpisim

