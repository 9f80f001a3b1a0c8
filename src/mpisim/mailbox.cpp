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

void Mailbox::deliver(PostedRecv& rec, Envelope& env, const void* data,
                      std::size_t bytes) {
  require_internal(!rec.matched && !rec.cancelled,
                   "delivery into a completed posted receive");
  rec.matched = true;
  rec.msg_bytes = bytes;
  rec.truncated = bytes > rec.capacity;
  // A truncating message still delivers the prefix (diagnosability); the
  // poster raises Errc::truncation when it completes the request.
  if (bytes > 0) std::memcpy(rec.buf, data, std::min(bytes, rec.capacity));
  rec.send_ts_ns = env.send_ts_ns;
  rec.vc = std::move(env.vc);
  rec.st.source = env.src_comm_rank;
  rec.st.tag = env.tag;
  rec.st.bytes = bytes;
}

bool Mailbox::push(Envelope env, const void* data, std::size_t bytes) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    PostedRecv& rec = **it;
    if (rec.comm_id != env.comm_id) continue;
    if (rec.src != kAnySource && rec.src != env.src_comm_rank) continue;
    if (rec.tag != kAnyTag && rec.tag != env.tag) continue;
    deliver(rec, env, data, bytes);
    posted_.erase(it);
    return true;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  queue_.push_back(
      Message{std::move(env), std::vector<std::uint8_t>(p, p + bytes)});
  queued_bytes_ += bytes;
  high_water_bytes_ = std::max(high_water_bytes_, queued_bytes_);
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

