#include "src/mpisim/comm.hpp"

#include <algorithm>
#include <cstring>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace mpisim {

namespace {

/// Survivable mode: a collective round may complete once every member has
/// either arrived or died -- the survivors must not block forever on a
/// dead peer.
bool round_satisfied(const CollCtx& cc, const CommImpl& c) {
  for (int r = 0; r < c.group.size(); ++r) {
    if (cc.present[static_cast<std::size_t>(r)] != 0) continue;
    if (!c.core->is_dead(c.group.world_rank(r))) return false;
  }
  return true;
}

[[noreturn]] void throw_revoked(const char* site) {
  throw MpiError(Errc::revoked, std::string("mpisim: ") + site +
                                    " on a revoked communicator");
}

}  // namespace

Comm::Comm(std::shared_ptr<CommImpl> impl) : impl_(std::move(impl)) {}

int Comm::rank() const {
  const int r = impl_->group.rank_of_world(ctx().rank());
  if (r < 0) raise(Errc::rank_out_of_range, "caller not in communicator");
  return r;
}

int Comm::size() const noexcept { return impl_->group.size(); }

bool Comm::is_inter() const noexcept { return impl_->is_inter; }

int Comm::remote_size() const {
  if (!impl_->is_inter) raise(Errc::comm_mismatch, "remote_size on intracomm");
  return impl_->remote_group.size();
}

const Group& Comm::group() const noexcept { return impl_->group; }

const Group& Comm::remote_group() const {
  if (!impl_->is_inter) raise(Errc::comm_mismatch, "remote_group on intracomm");
  return impl_->remote_group;
}

int Comm::world_rank(int r) const { return impl_->group.world_rank(r); }

std::uint64_t Comm::id() const noexcept { return impl_->id; }

// ---------------------------------------------------------------------------
// Two-sided messaging
// ---------------------------------------------------------------------------

void Comm::send(const void* buf, std::size_t bytes, int dest, int tag) const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  const Group& dest_group = c.is_inter ? c.remote_group : c.group;
  const int dest_world = dest_group.world_rank(dest);

  Envelope m;
  m.comm_id = c.id;
  m.src_comm_rank = rank();
  m.tag = tag;
  RankContext& me = ctx();
  me.fault().fault_point(me.clock());
  m.send_ts_ns = me.clock().now_ns() + me.fault().draw_delivery_delay_ns();
  // Eager protocol: the sender pays injection overhead only.
  me.clock().advance(core.model().p2p_ns(0));

  core.sync();
  if (c.revoked) throw_revoked("comm.send");
  core.check_target_alive(dest_world, "comm.send");
  Mailbox& mb = core.mailbox(dest_world);
  // Eager-flow control: refuse to buffer without bound. A message that a
  // posted receive consumes never queues and is exempt, as is the system
  // channel; the cap applies only to unexpected-queue growth at the
  // destination.
  const std::size_t cap = core.config().mailbox_cap_bytes;
  if (cap > 0 && c.id != kSystemChannel &&
      !mb.has_posted_match(m.comm_id, m.src_comm_rank, m.tag) &&
      mb.queued_bytes() + bytes > cap) {
    raise(Errc::resource_exhausted,
          "eager send of " + std::to_string(bytes) +
              " bytes to world rank " + std::to_string(dest_world) +
              " would exceed the mailbox cap (" +
              std::to_string(mb.queued_bytes()) + " of " +
              std::to_string(cap) + " bytes already queued)");
  }
  core.note_time(me.clock().now_ns());
  if (core.hb().enabled()) m.vc = core.hb().send_snapshot(me.rank());
  mb.push(std::move(m), buf, bytes);
  core.wake(dest_world);
}

Status Comm::recv(void* buf, std::size_t capacity, int src, int tag) const {
  Request r = irecv(buf, capacity, src, tag);
  Status st;
  r.wait_at(&st, "comm.recv");
  return st;
}

bool Comm::iprobe(int src, int tag, Status* st) const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  core.sync();
  const Message* m = core.mailbox(me.rank()).find_match(c.id, src, tag);
  if (m == nullptr) return false;
  if (st != nullptr) {
    st->source = m->src_comm_rank;
    st->tag = m->tag;
    st->bytes = m->payload.size();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Nonblocking point-to-point
// ---------------------------------------------------------------------------

Comm::Request Comm::isend(const void* buf, std::size_t bytes, int dest,
                          int tag) const {
  // Eager protocol: identical to send(); the handle exists for symmetry.
  send(buf, bytes, dest, tag);
  return Request();
}

Comm::Request Comm::irecv(void* buf, std::size_t capacity, int src,
                          int tag) const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();

  Request r;
  r.impl_ = impl_;
  r.is_recv_ = true;
  auto rec = std::make_shared<PostedRecv>();
  rec->comm_id = c.id;
  rec->src = src;
  rec->tag = tag;
  rec->buf = buf;
  rec->capacity = capacity;
  r.rec_ = rec;

  core.sync();
  if (c.revoked) throw_revoked("comm.irecv");
  Mailbox& mb = core.mailbox(me.rank());
  if (mb.has_match(c.id, src, tag))
    Mailbox::deliver(*rec, mb.pop_match(c.id, src, tag));
  else
    mb.post(std::move(rec));
  return r;
}

namespace {

/// Survivable-mode failure check shared by Request wait()/test(): the
/// world rank whose death this unmatched receive must surface, or -1.
int pending_death(const SimCore& core, const CommImpl& c,
                  const PostedRecv& p) {
  if (!core.survivable()) return -1;
  if (p.src != kAnySource) {
    const Group& g = c.is_inter ? c.remote_group : c.group;
    const int w = g.world_rank(p.src);
    return core.is_dead(w) ? w : -1;
  }
  if (core.death_epoch() > ctx().acked_death_epoch)
    return core.latest_dead();
  return -1;
}

}  // namespace

void Comm::Request::consume_delivery() const {
  const CommImpl& c = *impl_;
  RankContext& me = ctx();
  const PostedRecv& p = *rec_;
  c.core->hb().recv_join(me.rank(), p.vc);
  const Group& sg = c.is_inter ? c.remote_group : c.group;
  me.clock().advance_to(p.send_ts_ns +
                        c.core->model().p2p_ns(p.msg_bytes,
                                               sg.world_rank(p.st.source),
                                               me.rank()));
}

/// Finish a matched receive on the posting rank: consume the delivery, then
/// raise a truncation or publish the status.
void Comm::Request::complete_matched(Status* st) {
  consume_delivery();
  completed_ = true;
  const PostedRecv& p = *rec_;
  if (p.truncated)
    raise(Errc::truncation, "message of " + std::to_string(p.msg_bytes) +
                                " bytes into " + std::to_string(p.capacity) +
                                "-byte buffer");
  status_ = p.st;
  if (st != nullptr) *st = status_;
}

void Comm::Request::wait(Status* st) { wait_at(st, "comm.irecv_wait"); }

void Comm::Request::wait_at(Status* st, const char* site) {
  if (!is_recv_) {  // sends are eager and born complete; wait is a no-op
    if (st != nullptr) *st = status_;
    return;
  }
  if (completed_)
    raise(Errc::invalid_argument,
          "Request::wait on an already-completed receive");
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  me.fault().fault_point(me.clock());

  core.sync();
  PostedRecv& p = *rec_;
  // Failure-aware wait: wake on delivery, but also on revocation and -- in
  // survivable mode -- on the death of the awaited sender (specific source)
  // or any unacked death (wildcard source, since the sender we wait for
  // might be the one that died), so a receive cannot block forever on a
  // dead peer. The predicate only flags; the throw comes after wait().
  int dead_src = -1;
  bool was_revoked = false;
  core.wait(
      [&] {
        if (p.matched) return true;
        if (c.revoked) {
          was_revoked = true;
          return true;
        }
        dead_src = pending_death(core, c, p);
        return dead_src >= 0;
      },
      site);
  if (!p.matched) {
    // Error completion: deregister the posting so it cannot dangle, then
    // surface the failure exactly once through this handle.
    core.mailbox(me.rank()).cancel_posted(rec_);
    completed_ = true;
    if (was_revoked) throw_revoked(site);
    core.observe_death(dead_src, site);  // throws
  }
  complete_matched(st);
}

bool Comm::Request::test(Status* st) {
  if (!is_recv_ || completed_) {
    if (st != nullptr) *st = status_;
    return true;
  }
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  core.sync();
  PostedRecv& p = *rec_;
  if (!p.matched) {
    // Nonblocking failure surface: the same conditions wait() wakes on.
    if (c.revoked) {
      core.mailbox(me.rank()).cancel_posted(rec_);
      completed_ = true;
      throw_revoked("comm.irecv_test");
    }
    const int dead_src = pending_death(core, c, p);
    if (dead_src >= 0) {
      core.mailbox(me.rank()).cancel_posted(rec_);
      completed_ = true;
      core.observe_death(dead_src, "comm.irecv_test");  // throws
    }
    return false;
  }
  complete_matched(st);
  return true;
}

bool Comm::Request::ready() const noexcept {
  return !is_recv_ || completed_ || (rec_ != nullptr && rec_->matched);
}

Comm::Request::~Request() {
  if (!is_recv_ || completed_ || rec_ == nullptr || impl_ == nullptr) return;
  if (!in_simulation()) return;  // simulator already torn down
  SimCore& core = *impl_->core;
  RankContext& me = ctx();
  core.sync();
  if (!rec_->matched) {
    // Never matched: deregister deterministically so the mailbox holds no
    // dangling posting aimed at a dead stack frame.
    core.mailbox(me.rank()).cancel_posted(rec_);
    return;
  }
  // Delivered but never completed: consume the message here so dropping the
  // handle cannot erase a communication the buffer already observed.
  consume_delivery();
}

void Comm::wait_all(std::span<Request> reqs) {
  for (Request& r : reqs) {
    if (r.is_recv_ && r.completed_) continue;  // tolerate test()-completed
    r.wait();
  }
}

// ---------------------------------------------------------------------------
// Collectives
// ---------------------------------------------------------------------------

bool Comm::collective_round(
    const void* in, void* out, std::size_t count, double cost_ns,
    const std::function<void(CollCtx&, const Group&)>& leader_fn) const {
  // On intercommunicators this rendezvous runs over the *local* group
  // (coll buffers are sized for it), which is exactly what merge() needs.
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  me.fault().fault_point(me.clock());
  const int n = c.group.size();
  const int myrank = rank();

  core.sync();
  if (c.revoked) throw_revoked("comm.collective");
  CollCtx& cc = c.coll;
  const std::uint64_t my_gen = cc.gen;
  cc.inbufs[static_cast<std::size_t>(myrank)] = in;
  cc.outbufs[static_cast<std::size_t>(myrank)] = out;
  cc.incounts[static_cast<std::size_t>(myrank)] = count;
  cc.present[static_cast<std::size_t>(myrank)] = 1;
  cc.max_clock_ns = std::max(cc.max_clock_ns, me.clock().now_ns());
  core.note_time(me.clock().now_ns());
  if (core.hb().enabled()) core.hb().coll_arrive(cc.hb_acc, me.rank());
  ++cc.arrived;

  // Complete the round: null the buffer slots of members that never
  // arrived (dead; their pointers are stale from earlier rounds) so
  // leader functions skip them, fold the detector bound of each dead
  // member into the departure clock, run the leader body, and open the
  // next generation.
  const auto complete_round = [&] {
    double detect_ns = cc.max_clock_ns;
    if (core.survivable()) {
      for (int r = 0; r < n; ++r) {
        const auto ri = static_cast<std::size_t>(r);
        if (cc.present[ri] != 0) continue;
        cc.inbufs[ri] = nullptr;
        cc.outbufs[ri] = nullptr;
        cc.incounts[ri] = 0;
        detect_ns = std::max(
            detect_ns, core.detection_bound(c.group.world_rank(r)));
      }
    }
    cc.dep_dead = false;
    if (leader_fn) leader_fn(cc, c.group);
    cc.hb_result = std::move(cc.hb_acc);
    cc.hb_acc.clear();
    cc.result_clock_ns = detect_ns + cost_ns;
    cc.arrived = 0;
    cc.max_clock_ns = 0.0;
    std::fill(cc.present.begin(), cc.present.end(), 0);
    ++cc.gen;
    core.wake(c.group.members());
  };

  if (cc.arrived == n ||
      (core.survivable() && round_satisfied(cc, c))) {
    complete_round();
  } else {
    // Survivable mode: a waiter may become the completer when the last
    // missing member dies rather than arrives (the death wakes it).
    core.wait(
        [&] {
          if (cc.gen != my_gen) return true;
          if (core.survivable() && round_satisfied(cc, c)) {
            complete_round();
            return true;
          }
          return false;
        },
        "comm.collective");
  }
  me.clock().advance_to(cc.result_clock_ns);
  if (core.hb().enabled()) core.hb().coll_depart(me.rank(), cc.hb_result);
  // Safe to read after the wait: the next round on this comm cannot
  // complete (and overwrite the flag) until every live member -- including
  // this one -- has arrived at it, i.e. has left this call.
  return cc.dep_dead;
}

void Comm::barrier() const {
  collective_round(nullptr, nullptr, 0,
                   ctx().core().model().barrier_ns(size()), nullptr);
}

/// A rooted round completed over the survivors but its dependency rank
/// (bcast source, reduce destination, object builder) was dead: raise
/// Errc::crashed on every surviving caller rather than returning stale
/// buffers. The observation advances nothing; it stamps the latency gauge
/// and the trace event before throwing.
void Comm::raise_dead_root(int root, const char* site) const {
  impl_->core->sync();
  impl_->core->observe_death(impl_->group.world_rank(root), site);
}

void Comm::bcast(void* buf, std::size_t bytes, int root) const {
  const double cost = ctx().core().model().tree_collective_ns(bytes, size());
  const bool root_dead = collective_round(
      buf, buf, bytes, cost, [root, bytes](CollCtx& cc, const Group& g) {
        const void* src = cc.outbufs[static_cast<std::size_t>(root)];
        if (src == nullptr) {  // root died; data is gone
          cc.dep_dead = true;
          return;
        }
        for (int r = 0; r < g.size(); ++r) {
          if (r == root) continue;
          void* dst = cc.outbufs[static_cast<std::size_t>(r)];
          if (dst == nullptr) continue;  // dead member
          std::memcpy(dst, src, bytes);
        }
      });
  if (root_dead) raise_dead_root(root, "comm.bcast");
}

void Comm::reduce(const void* in, void* out, std::size_t count, BasicType t,
                  Op op, int root) const {
  const std::size_t bytes = count * basic_type_size(t);
  const double cost = ctx().core().model().tree_collective_ns(bytes, size());
  const bool root_dead = collective_round(
      in, out, count, cost, [=](CollCtx& cc, const Group& g) {
        auto* dst = static_cast<std::uint8_t*>(
            cc.outbufs[static_cast<std::size_t>(root)]);
        if (dst == nullptr) {  // root died; nowhere to reduce into
          cc.dep_dead = true;
          return;
        }
        bool first = true;
        for (int r = 0; r < g.size(); ++r) {
          const void* src = cc.inbufs[static_cast<std::size_t>(r)];
          if (src == nullptr) continue;  // dead member contributes nothing
          if (first) {
            std::memcpy(dst, src, bytes);
            first = false;
          } else {
            apply_op(op, t, dst, src, count);
          }
        }
      });
  if (root_dead) raise_dead_root(root, "comm.reduce");
}

void Comm::allreduce(const void* in, void* out, std::size_t count, BasicType t,
                     Op op) const {
  const std::size_t bytes = count * basic_type_size(t);
  const double cost =
      2.0 * ctx().core().model().tree_collective_ns(bytes, size());
  collective_round(
      in, out, count, cost, [=](CollCtx& cc, const Group& g) {
        std::vector<std::uint8_t> acc(bytes);
        bool first = true;
        for (int r = 0; r < g.size(); ++r) {
          const void* src = cc.inbufs[static_cast<std::size_t>(r)];
          if (src == nullptr) continue;  // dead member contributes nothing
          if (first) {
            std::memcpy(acc.data(), src, bytes);
            first = false;
          } else {
            apply_op(op, t, acc.data(), src, count);
          }
        }
        if (first) return;  // no live contributions at all
        for (int r = 0; r < g.size(); ++r) {
          void* dst = cc.outbufs[static_cast<std::size_t>(r)];
          if (dst != nullptr) std::memcpy(dst, acc.data(), bytes);
        }
      });
}

void Comm::allgather(const void* in, void* out, std::size_t bytes) const {
  const double cost = ctx().core().model().tree_collective_ns(
      bytes * static_cast<std::size_t>(size()), size());
  collective_round(
      in, out, bytes, cost, [bytes](CollCtx& cc, const Group& g) {
        for (int r = 0; r < g.size(); ++r) {
          const void* src = cc.inbufs[static_cast<std::size_t>(r)];
          if (src == nullptr) continue;  // dead member's slice stays as-is
          for (int w = 0; w < g.size(); ++w) {
            auto* base = static_cast<std::uint8_t*>(
                cc.outbufs[static_cast<std::size_t>(w)]);
            if (base == nullptr) continue;
            std::memcpy(base + static_cast<std::size_t>(r) * bytes, src,
                        bytes);
          }
        }
      });
}

void Comm::allgatherv(const void* in, std::size_t my_bytes, void* out,
                      std::span<const std::size_t> counts) const {
  if (static_cast<int>(counts.size()) != size())
    raise(Errc::invalid_argument, "allgatherv counts size mismatch");
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  const double cost = ctx().core().model().tree_collective_ns(total, size());
  std::vector<std::size_t> offsets(counts.size());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i] = pos;
    pos += counts[i];
  }
  collective_round(
      in, out, my_bytes, cost, [&](CollCtx& cc, const Group& g) {
        for (int r = 0; r < g.size(); ++r) {
          const void* src = cc.inbufs[static_cast<std::size_t>(r)];
          if (src == nullptr) continue;  // dead member's slice stays as-is
          require_internal(cc.incounts[static_cast<std::size_t>(r)] ==
                               counts[static_cast<std::size_t>(r)],
                           "allgatherv inconsistent counts");
          for (int w = 0; w < g.size(); ++w) {
            auto* base = static_cast<std::uint8_t*>(
                cc.outbufs[static_cast<std::size_t>(w)]);
            if (base == nullptr) continue;
            std::memcpy(base + offsets[static_cast<std::size_t>(r)], src,
                        counts[static_cast<std::size_t>(r)]);
          }
        }
      });
}

void Comm::alltoall(const void* in, void* out, std::size_t bytes) const {
  const double cost = ctx().core().model().alltoall_ns(bytes, size());
  collective_round(
      in, out, bytes, cost, [bytes](CollCtx& cc, const Group& g) {
        for (int r = 0; r < g.size(); ++r) {
          const auto* src =
              static_cast<const std::uint8_t*>(cc.inbufs[static_cast<std::size_t>(r)]);
          if (src == nullptr) continue;  // dead member sends nothing
          for (int w = 0; w < g.size(); ++w) {
            auto* base = static_cast<std::uint8_t*>(
                cc.outbufs[static_cast<std::size_t>(w)]);
            if (base == nullptr) continue;
            std::memcpy(base + static_cast<std::size_t>(r) * bytes,
                        src + static_cast<std::size_t>(w) * bytes, bytes);
          }
        }
      });
}

void Comm::scan(const void* in, void* out, std::size_t count, BasicType t,
                Op op) const {
  const std::size_t bytes = count * basic_type_size(t);
  const double cost = ctx().core().model().tree_collective_ns(bytes, size());
  collective_round(
      in, out, count, cost, [=](CollCtx& cc, const Group& g) {
        std::vector<std::uint8_t> acc(bytes);
        bool first = true;
        for (int r = 0; r < g.size(); ++r) {
          const void* src = cc.inbufs[static_cast<std::size_t>(r)];
          if (src != nullptr) {
            if (first) {
              std::memcpy(acc.data(), src, bytes);
              first = false;
            } else {
              apply_op(op, t, acc.data(), src, count);
            }
          }
          void* dst = cc.outbufs[static_cast<std::size_t>(r)];
          if (dst != nullptr && !first)
            std::memcpy(dst, acc.data(), bytes);
        }
      });
}

// ---------------------------------------------------------------------------
// Communicator construction
// ---------------------------------------------------------------------------

std::shared_ptr<CommImpl> make_intracomm(SimCore& core, std::uint64_t id,
                                         Group group) {
  auto impl = std::make_shared<CommImpl>();
  impl->id = id;
  impl->core = &core;
  impl->group = std::move(group);
  const auto n = static_cast<std::size_t>(impl->group.size());
  impl->coll.inbufs.resize(n);
  impl->coll.outbufs.resize(n);
  impl->coll.incounts.resize(n);
  impl->coll.present.assign(n, 0);
  impl->shrink_calls.assign(n, 0);
  return impl;
}

Comm Comm::self() {
  RankContext& me = ctx();
  SimCore& core = me.core();
  core.sync();
  const std::uint64_t id = core.alloc_comm_id();
  return Comm(make_intracomm(core, id, Group({me.rank()})));
}

Comm Comm::dup() const {
  SimCore& core = *impl_->core;
  std::shared_ptr<CommImpl> result;
  collective_round(nullptr, &result, 0, core.model().barrier_ns(size()),
                   [&core](CollCtx& cc, const Group& g) {
                     cc.hand_out(
                         make_intracomm(core, core.alloc_comm_id(), g));
                   });
  return Comm(std::move(result));
}

Comm Comm::split(int color, int key) const {
  SimCore& core = *impl_->core;
  struct In {
    int color, key;
  } my{color, key};
  std::shared_ptr<CommImpl> result;
  collective_round(
      &my, &result, 0, core.model().barrier_ns(size()),
      [&core](CollCtx& cc, const Group& g) {
        // Gather (color, key, group rank), bucket by color, order each
        // bucket by (key, rank), and build one communicator per color.
        struct Entry {
          int color, key, grank;
        };
        std::vector<Entry> entries;
        entries.reserve(static_cast<std::size_t>(g.size()));
        for (int r = 0; r < g.size(); ++r) {
          const auto* in =
              static_cast<const In*>(cc.inbufs[static_cast<std::size_t>(r)]);
          if (in == nullptr) continue;  // dead member joins no color
          entries.push_back({in->color, in->key, r});
        }
        std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                                     const Entry& b) {
          if (a.color != b.color) return a.color < b.color;
          if (a.key != b.key) return a.key < b.key;
          return a.grank < b.grank;
        });
        std::size_t i = 0;
        while (i < entries.size()) {
          std::size_t j = i;
          while (j < entries.size() && entries[j].color == entries[i].color)
            ++j;
          if (entries[i].color >= 0) {
            std::vector<int> members;
            members.reserve(j - i);
            for (std::size_t k = i; k < j; ++k)
              members.push_back(g.world_rank(entries[k].grank));
            auto impl = make_intracomm(core, core.alloc_comm_id(),
                                       Group(std::move(members)));
            for (std::size_t k = i; k < j; ++k) {
              void* slot =
                  cc.outbufs[static_cast<std::size_t>(entries[k].grank)];
              if (slot == nullptr) continue;
              *static_cast<std::shared_ptr<CommImpl>*>(slot) = impl;
            }
          }
          i = j;
        }
      });
  return Comm(std::move(result));
}

Comm Comm::create(const Group& subgroup) const {
  SimCore& core = *impl_->core;
  std::shared_ptr<CommImpl> result;
  collective_round(
      &subgroup, &result, 0, core.model().barrier_ns(size()),
      [&core, &subgroup](CollCtx& cc, const Group& g) {
        auto impl =
            subgroup.size() > 0
                ? make_intracomm(core, core.alloc_comm_id(), subgroup)
                : nullptr;
        for (int r = 0; r < g.size(); ++r) {
          void* slot = cc.outbufs[static_cast<std::size_t>(r)];
          if (slot != nullptr && impl && subgroup.contains(g.world_rank(r)))
            *static_cast<std::shared_ptr<CommImpl>*>(slot) = impl;
        }
      });
  return Comm(std::move(result));
}

Comm Comm::intercomm_create(int local_leader, int remote_leader_world,
                            int tag) const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  const int my_leader_world = c.group.world_rank(local_leader);
  const bool i_allocate = my_leader_world < remote_leader_world;

  // Leaders exchange (comm id, member list) on the system channel; the
  // lower-world-rank leader allocates the id for both sides.
  std::int64_t agreed_id = 0;
  std::vector<std::int64_t> remote_members;
  if (rank() == local_leader) {
    std::int64_t proposed = 0;
    if (i_allocate) {
      core.sync();
      proposed = static_cast<std::int64_t>(core.alloc_comm_id());
    }
    std::vector<std::int64_t> msg;
    msg.push_back(proposed);
    for (int wr : c.group.members()) msg.push_back(wr);
    const Comm sys(core.system_impl());
    sys.send(msg.data(), msg.size() * sizeof(std::int64_t),
             remote_leader_world, tag);
    std::vector<std::int64_t> reply(
        1 + static_cast<std::size_t>(core.nranks()));
    const Status st = sys.recv(reply.data(),
                               reply.size() * sizeof(std::int64_t),
                               remote_leader_world, tag);
    reply.resize(st.bytes / sizeof(std::int64_t));
    agreed_id = i_allocate ? proposed : reply[0];
    remote_members.assign(reply.begin() + 1, reply.end());
  }

  // Leader broadcasts (id, remote member list) within the local group.
  std::int64_t remote_count =
      static_cast<std::int64_t>(remote_members.size());
  bcast(&agreed_id, sizeof agreed_id, local_leader);
  bcast(&remote_count, sizeof remote_count, local_leader);
  remote_members.resize(static_cast<std::size_t>(remote_count));
  bcast(remote_members.data(),
        remote_members.size() * sizeof(std::int64_t), local_leader);

  // Each side shares one impl, published by its leader.
  const std::uint64_t side =
      my_leader_world < remote_leader_world ? 0u : 1u;
  const std::uint64_t key = static_cast<std::uint64_t>(agreed_id) * 2 + side;
  std::shared_ptr<CommImpl> impl;
  if (rank() == local_leader) {
    std::vector<int> rm(remote_members.begin(), remote_members.end());
    impl = make_intracomm(core, static_cast<std::uint64_t>(agreed_id), c.group);
    impl->is_inter = true;
    impl->remote_group = Group(std::move(rm));
    core.sync();
    core.publish_comm(key, impl);
    core.wake(c.group.members());
  } else {
    impl = core.fetch_published_comm(key);
  }
  barrier();
  return Comm(std::move(impl));
}

Comm Comm::merge(bool high) const {
  CommImpl& c = *impl_;
  if (!c.is_inter) raise(Errc::comm_mismatch, "merge on intracommunicator");
  SimCore& core = *c.core;

  // Use the lowest-ranked member of each side as its leader. Leaders
  // handshake on the system channel; intra-side broadcasts reuse this
  // intercomm's local-group rendezvous context.
  const int local_leader = 0;
  const int my_leader_world = c.group.world_rank(0);
  const int remote_leader_world = c.remote_group.world_rank(0);
  const bool i_allocate = my_leader_world < remote_leader_world;

  std::int64_t merged_id = 0;
  std::int64_t remote_high = 0;
  const int tag = static_cast<int>(c.id % 1000000) + 7;
  if (rank() == local_leader) {
    std::int64_t proposed = 0;
    if (i_allocate) {
      core.sync();
      proposed = static_cast<std::int64_t>(core.alloc_comm_id());
    }
    const std::int64_t msg[2] = {proposed, high ? 1 : 0};
    std::int64_t reply[2] = {0, 0};
    const Comm sys(core.system_impl());
    sys.send(msg, sizeof msg, remote_leader_world, tag);
    sys.recv(reply, sizeof reply, remote_leader_world, tag);
    merged_id = i_allocate ? proposed : reply[0];
    remote_high = reply[1];
  }
  bcast(&merged_id, sizeof merged_id, local_leader);
  bcast(&remote_high, sizeof remote_high, local_leader);

  // Combined order: the high group second; on a tie, the side with the
  // lower leader world rank first (deterministic stand-in for MPI's
  // implementation-defined ordering).
  const bool my_side_first =
      (high != (remote_high != 0)) ? !high : i_allocate;
  std::vector<int> members;
  members.reserve(c.group.members().size() + c.remote_group.members().size());
  const auto& first = my_side_first ? c.group.members() : c.remote_group.members();
  const auto& second = my_side_first ? c.remote_group.members() : c.group.members();
  members.insert(members.end(), first.begin(), first.end());
  members.insert(members.end(), second.begin(), second.end());

  // The allocating side's leader publishes the single merged impl.
  const std::uint64_t key = static_cast<std::uint64_t>(merged_id) * 2;
  std::shared_ptr<CommImpl> impl;
  if (rank() == local_leader && i_allocate) {
    impl = make_intracomm(core, static_cast<std::uint64_t>(merged_id),
                          Group(std::move(members)));
    core.sync();
    core.publish_comm(key, impl);
    core.wake(impl->group.members());
  } else {
    impl = core.fetch_published_comm(key);
  }
  Comm merged(std::move(impl));
  merged.barrier();
  return merged;
}

// ---------------------------------------------------------------------------
// ULFM-style fault-tolerance primitives
// ---------------------------------------------------------------------------

bool Comm::is_failed(int r) const {
  CommImpl& c = *impl_;
  return c.core->is_failed(c.group.world_rank(r));
}

void Comm::revoke() const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  Tracer& tr = me.tracer();
  if (tr.enabled()) {
    tr.begin(TraceCat::fault, "fault.revoke", c.id);
    tr.end(TraceCat::fault, "fault.revoke", c.id);
  }
  core.sync();
  c.revoked = true;
  core.note_time(me.clock().now_ns());
  // Blocked members must wake and observe the revocation.
  core.wake(c.group.members());
}

Comm Comm::shrink() const {
  CommImpl& c = *impl_;
  SimCore& core = *c.core;
  RankContext& me = ctx();
  me.fault().fault_point(me.clock());
  Tracer& tr = me.tracer();
  if (tr.enabled()) {
    tr.begin(TraceCat::fault, "fault.shrink", c.id);
    tr.end(TraceCat::fault, "fault.shrink", c.id);
  }

  // Snapshot the survivor set and this round's sequence number in one
  // critical section: liveness is global shared state, so every live member
  // calling this collective sees the same set (assuming no new failure
  // mid-shrink; see DESIGN.md for the failure model).
  core.sync();
  std::vector<int> live;
  for (int wr : c.group.members())
    if (!core.is_dead(wr)) live.push_back(wr);
  // Recovery edge: shrinking acknowledges every observed death, so the
  // survivors acquire the dead ranks' final clocks (post-shrink accesses
  // to data the dead published are ordered, not dead_origin races).
  core.hb().ack_deaths(me.rank());
  const int myrank = c.group.rank_of_world(me.rank());
  if (myrank < 0)
    raise(Errc::rank_out_of_range, "shrink caller not in communicator");
  const std::uint32_t seq = c.shrink_calls[static_cast<std::size_t>(myrank)]++;
  require_internal(!live.empty(), "shrink with no survivors");

  // The lowest-ranked survivor builds the shrunken shared state; the rest
  // fetch it. No parent-comm collectives are used, so shrink() works on a
  // revoked communicator (as ULFM requires). Key layout: [63:62] publish
  // namespace tag, [61:32] comm id, [31:0] per-comm shrink sequence --
  // explicit widths, checked, so neither field can silently clobber the
  // other and fetch a stale publication.
  require_internal(c.id < (1ull << 30), "comm id overflows shrink key");
  const std::uint64_t key = (3ull << 62) | (c.id << 32) | seq;
  std::shared_ptr<CommImpl> impl;
  if (live.front() == me.rank()) {
    core.sync();
    impl = make_intracomm(core, core.alloc_comm_id(), Group(live));
    core.publish_comm(key, impl);
    core.wake(live);
  } else {
    impl = core.fetch_published_comm(key);
  }
  Comm out(std::move(impl));
  out.barrier();  // synchronize the survivors' clocks on the new comm
  return out;
}

bool Comm::agree(bool flag) const {
  // Fault-tolerant AND-agreement: allreduce(min) completes over the live
  // members in survivable mode, so survivors reach the same verdict even
  // when peers died before contributing.
  std::int32_t v = flag ? 1 : 0;
  std::int32_t out = 1;
  allreduce(&v, &out, 1, BasicType::int32, Op::min);
  failure_ack();
  return out != 0;
}

void Comm::failure_ack() const {
  SimCore& core = *impl_->core;
  RankContext& me = ctx();
  core.sync();
  me.acked_death_epoch = core.death_epoch();
  core.hb().ack_deaths(me.rank());
}

}  // namespace mpisim
