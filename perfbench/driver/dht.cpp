// dht: a key-value store served by active messages, on 4 ranks of the
// InfiniBand profile with no crash. Every rank is a shard server and a
// client. Set-up fills the store with fire-and-forget delegates closed by
// termination detection; each timed round is a seeded stream of 50 % get,
// 25 % replicated put and 25 % replicated fetch-add per client, every leg
// an am::rpc finished with wait(). Keys hash to an owner; writes go to the
// owner and its buddy (owner + 1). As in examples/dht, values are 8-byte
// integers, a fixed function of (key, version), so every read can be
// checked. No RMA window is opened, so datatype and epoch changes must
// leave this workload unchanged.

#include <algorithm>
#include <cstring>

#include "src/am/am.hpp"
#include "workload.hpp"

namespace pb {

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kReplica = 1;  // LegArg::role of the buddy copy

struct Sizes {
  std::uint64_t put_keys;  ///< put/get keys owned (written) per client
  std::uint64_t fma_keys;  ///< fetch-add counters per client
  std::uint64_t ops;       ///< client ops per rank per round (multiple of 4)
};

Sizes sizes(bool tiny) {
  return tiny ? Sizes{64, 32, 200} : Sizes{2048, 1024, 4000};
}

/// One put/get/fetch-add leg's argument.
struct LegArg {
  std::uint64_t slot = 0;
  std::uint64_t role = 0;
  std::int64_t val = 0;   // put: value; fetch-add: delta
  std::uint64_t ver = 0;  // put: version (last writer wins)
};

/// A put/get slot; a get replies with it.
struct Slot {
  std::uint64_t ver = 0;
  std::int64_t val = 0;
};

/// The value version \p ver of \p key holds, so any reader can check a
/// version and value it sees.
std::int64_t value_of(std::uint64_t key, std::uint64_t ver) {
  return static_cast<std::int64_t>(key ^ (ver * 0x51ed2701ull));
}

/// One rank's storage: its primary shard and its predecessor's replica.
struct Store {
  std::vector<Slot> put_primary, put_replica;
  std::vector<std::int64_t> fma_primary, fma_replica;
};

class Dht final : public Workload {
 public:
  explicit Dht(const Args& args) : args_(args), sz_(sizes(args.tiny)) {}

  mpisim::Config config() const override {
    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::infiniband;
    return cfg;
  }

  void body(Rank& rk) override {
    const int me = rk.rank;
    const auto n = static_cast<std::uint64_t>(kRanks);
    rk.call("armci.init", [&] { armci::init(rk.options({})); });
    rk.call("am.init", [] { am::init(); });

    const std::uint64_t put_space = sz_.put_keys * n;
    const std::uint64_t fma_space = sz_.fma_keys * n;
    Store st;
    st.put_primary.resize(put_space / n + 1);
    st.put_replica.resize(put_space / n + 1);
    st.fma_primary.assign(fma_space / n + 1, 0);
    st.fma_replica.assign(fma_space / n + 1, 0);
    const int h_put = am::register_handler(
        [&st](int, const void* a, std::size_t bytes, void*, std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          Slot& s = (arg.role == kReplica ? st.put_replica
                                          : st.put_primary).at(arg.slot);
          if (arg.ver > s.ver) s = Slot{arg.ver, arg.val};
          return std::size_t{0};
        });
    const int h_get = am::register_handler(
        [&st](int, const void* a, std::size_t bytes, void* reply,
              std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          const Slot& s = (arg.role == kReplica ? st.put_replica
                                                : st.put_primary).at(arg.slot);
          std::memcpy(reply, &s, sizeof s);
          return sizeof s;
        });
    const int h_fma = am::register_handler(
        [&st](int, const void* a, std::size_t bytes, void* reply,
              std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          std::int64_t& c = (arg.role == kReplica ? st.fma_replica
                                                  : st.fma_primary)
                                .at(arg.slot);
          const std::int64_t old = c;
          c += arg.val;
          std::memcpy(reply, &old, sizeof old);
          return sizeof old;
        });
    const auto owner = [n](std::uint64_t key) {
      return static_cast<int>(key % n);
    };
    const auto buddy = [n](std::uint64_t key) {
      return static_cast<int>((key % n + 1) % n);
    };

    // One closed-loop leg: rpc, wait, reply.
    std::vector<std::uint8_t> reply;
    const auto leg = [&](int target, int handler, const LegArg& arg) {
      const auto go = [&] {
        am::Handle h = am::rpc(target, handler, &arg, sizeof arg);
        h.wait();
        reply.assign(h.reply().begin(), h.reply().end());
      };
      if (rk.plan.traced && rk.in_round())
        timed_call(rk, "am.rpc", rk.log.rpc_host_s, rk.log.rpc_virtual_us,
                   go);
      else
        go();
    };
    const auto reply_slot = [&reply] {
      Slot s;
      if (reply.size() == sizeof s) std::memcpy(&s, reply.data(), sizeof s);
      return s;  // version 0 when malformed
    };
    // True when \p got is exactly version \p ver of \p key.
    const auto holds = [](const Slot& got, std::uint64_t key,
                          std::uint64_t ver) {
      return got.ver == ver && got.val == value_of(key, ver);
    };
    const auto reply_i64 = [&reply] {
      std::int64_t v = -1;
      std::memcpy(&v, reply.data(), std::min(reply.size(), sizeof v));
      return v;
    };

    // ---- Set-up: fire-and-forget fill, closed by termination detection.
    const std::uint64_t pk0 = static_cast<std::uint64_t>(me) * sz_.put_keys;
    const std::uint64_t fk0 = static_cast<std::uint64_t>(me) * sz_.fma_keys;
    {
      SpanScope s(rk.log.spans, "bench.fill");
      for (std::uint64_t i = 0; i < sz_.put_keys; ++i) {
        const std::uint64_t key = pk0 + i;
        LegArg arg;
        arg.slot = key / n;
        arg.ver = 1;
        arg.val = value_of(key, 1);
        am::rpc_ff(owner(key), h_put, &arg, sizeof arg);
        arg.role = kReplica;
        am::rpc_ff(buddy(key), h_put, &arg, sizeof arg);
      }
    }
    timed_call(rk, "am.quiesce", rk.log.quiesce_host_s,
               rk.log.quiesce_virtual_us, [] { am::quiesce(); });
    rk.end_setup();

    // ---- Timed rounds: the seeded client stream.
    std::vector<std::uint64_t> put_ver(sz_.put_keys, 1);
    std::vector<std::int64_t> fma_count(sz_.fma_keys, 0);
    std::vector<std::uint8_t> kinds(sz_.ops);
    std::uint64_t round = 0;
    std::uint64_t op_id = 0;
    while (rk.next_round()) {
      Rng rng(stream_seed(args_.seed, static_cast<std::uint64_t>(me), round));
      // Exact mix, seeded order: 1/2 get (0), 1/4 put (1), 1/4 fetch-add (2).
      for (std::uint64_t i = 0; i < sz_.ops; ++i)
        kinds[i] = i < sz_.ops / 2 ? 0 : i < sz_.ops * 3 / 4 ? 1 : 2;
      for (std::uint64_t i = sz_.ops - 1; i > 0; --i)
        std::swap(kinds[i], kinds[rng.below(i + 1)]);

      for (std::uint64_t i = 0; i < sz_.ops; ++i) {
        SpanScope s(rk.log.spans, "bench.client_op", ++op_id);
        const double v0 = mpisim::clock().now_ns();
        LegArg arg;
        if (kinds[i] == 0) {
          // Get any key from its owner.
          const std::uint64_t key = rng.below(put_space);
          arg.slot = key / n;
          leg(owner(key), h_get, arg);
          const Slot got = reply_slot();
          rk.check(got.ver >= 1 && holds(got, key, got.ver), [&] {
            return "get of key " + std::to_string(key) +
                   " read a value no put wrote";
          });
        } else if (kinds[i] == 1) {
          // Replicated put to one of my keys: the next version.
          const std::uint64_t ki = rng.below(sz_.put_keys);
          const std::uint64_t key = pk0 + ki;
          arg.slot = key / n;
          arg.ver = ++put_ver[ki];
          arg.val = value_of(key, arg.ver);
          leg(owner(key), h_put, arg);
          arg.role = kReplica;
          leg(buddy(key), h_put, arg);
        } else {
          // Replicated fetch-add on one of my counters: both copies must
          // return exactly the adds acknowledged so far.
          const std::uint64_t ki = rng.below(sz_.fma_keys);
          const std::uint64_t key = fk0 + ki;
          arg.slot = key / n;
          arg.val = 1;
          leg(owner(key), h_fma, arg);
          const std::int64_t o = reply_i64();
          arg.role = kReplica;
          leg(buddy(key), h_fma, arg);
          const std::int64_t b = reply_i64();
          rk.check(o == fma_count[ki] && b == fma_count[ki], [&] {
            return "fetch-add on key " + std::to_string(key) + " returned " +
                   std::to_string(o) + "/" + std::to_string(b) +
                   ", expected " + std::to_string(fma_count[ki]);
          });
          ++fma_count[ki];
        }
        rk.log.op_virtual_us.push_back((mpisim::clock().now_ns() - v0) * 1e-3);
      }
      // Serving barrier: a plain collective would stop serving this shard
      // while other clients still stream requests at it.
      {
        SpanScope s(rk.log.spans, "am.barrier");
        const double h0 = host_now_s();
        am::barrier();
        rk.log.am_barrier_host_s.push_back(host_now_s() - h0);
      }
      ++round;
    }

    // ---- Verification: every acknowledged write is on owner and buddy.
    for (std::uint64_t ki = 0; ki < sz_.put_keys; ++ki) {
      const std::uint64_t key = pk0 + ki;
      for (std::uint64_t role : {std::uint64_t{0}, kReplica}) {
        LegArg arg;
        arg.slot = key / n;
        arg.role = role;
        leg(role == kReplica ? buddy(key) : owner(key), h_get, arg);
        Slot got = reply_slot();
        if (args_.corrupt && me == 0 && ki == 0 && role == 0) got.val ^= 1;
        rk.check(holds(got, key, put_ver[ki]), [&] {
          return "key " + std::to_string(key) + (role ? " replica" : "") +
                 " holds version " + std::to_string(got.ver) +
                 ", last acknowledged " + std::to_string(put_ver[ki]);
        });
      }
    }
    for (std::uint64_t ki = 0; ki < sz_.fma_keys; ++ki) {
      const std::uint64_t key = fk0 + ki;
      for (std::uint64_t role : {std::uint64_t{0}, kReplica}) {
        LegArg arg;  // val (the delta) 0: a pure read
        arg.slot = key / n;
        arg.role = role;
        leg(role == kReplica ? buddy(key) : owner(key), h_fma, arg);
        const std::int64_t got = reply_i64();
        rk.check(got == fma_count[ki], [&] {
          return "counter " + std::to_string(key) + (role ? " replica" : "") +
                 " holds " + std::to_string(got) + ", acknowledged adds " +
                 std::to_string(fma_count[ki]);
        });
      }
    }
    am::barrier();  // keep serving until every rank finished verifying
    rk.call("am.finalize", [] { am::finalize(); });
    rk.call("armci.finalize", [] { armci::finalize(); });
  }

  double ops(const RunResult& run) const override {
    return static_cast<double>(run.rounds) * kRanks *
           static_cast<double>(sz_.ops);
  }

  void check_counts(const RunResult& run, Report& rep) const override {
    // Per round: one leg per get, two per put and fetch-add, plus the
    // serving barrier's 2 (n - 1) control messages.
    const std::uint64_t want = kRanks * (sz_.ops / 2 + 2 * (sz_.ops / 2)) +
                               2 * (kRanks - 1);
    for (int i = 0; i < run.rounds; ++i) {
      const Counters c = round_counters(run, i);
      rep.attempted += 1;
      if (c.am_sent != want || c.am_served != want)
        rep.fail("round " + std::to_string(i) + ": delegates sent/served " +
                 std::to_string(c.am_sent) + "/" +
                 std::to_string(c.am_served) + ", expected " +
                 std::to_string(want));
    }
    rep.notes.push_back("invariant delegates/round " + std::to_string(want));
  }

 private:
  Args args_;
  Sizes sz_;
};

}  // namespace

std::unique_ptr<Workload> make_dht(const Args& args) {
  return std::make_unique<Dht>(args);
}

}  // namespace pb
