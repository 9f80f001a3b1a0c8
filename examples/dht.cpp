// Sharded distributed hash table served by active-message delegates
// (src/am): every rank is simultaneously a shard server and a client
// streaming millions of simulated ops -- puts, gets, and fused
// fetch-modify chains -- at the key's owner. Writes are client-driven
// replicated onto the owner's buddy (rank owner+1), so a
// survivable-mode crash of one server mid-stream loses nothing that was
// acknowledged: clients observe Errc::crashed through their delegate
// handles exactly once, fail over to the buddy replica, and the final
// verification phase proves zero lost and zero duplicated acknowledged
// writes.
//
//     ./build/examples/dht [nranks] [total_ops] [crash 0|1]
//
// Defaults: 8 ranks, 1,000,000 ops, crash enabled. Exit status is nonzero
// on any verification failure.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/am/am.hpp"
#include "src/armci/armci.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace {

using mpisim::Errc;

constexpr std::uint64_t kRoleReplica = 1;  // arg.role: primary otherwise

/// One put/get/fma leg's argument (POD, fits kMaxArgBytes).
struct LegArg {
  std::uint64_t slot = 0;
  std::uint64_t role = 0;  // primary shard or buddy replica table
  std::int64_t val = 0;    // put: value; fma: delta
  std::uint64_t ver = 0;   // put: last-writer-wins version
};

/// Put/get slot state.
struct Slot {
  std::uint64_t ver = 0;
  std::int64_t val = 0;
};

/// One rank's storage: its primary shard plus the replica of the shard
/// owned by its predecessor (it is that rank's buddy).
struct Store {
  std::vector<Slot> put_primary, put_replica;
  std::vector<std::int64_t> fma_primary, fma_replica;
};

int verify_failures = 0;  // summed under the simulator lock

void check(bool ok, const char* what, std::uint64_t key) {
  if (ok) return;
  std::lock_guard lk(mpisim::ctx().core().mu());
  ++verify_failures;
  std::fprintf(stderr, "dht: VERIFY FAILED rank %d key %llu: %s\n",
               mpisim::rank(), (unsigned long long)key, what);
}

struct Topology {
  int n = 0;
  int owner(std::uint64_t key) const { return static_cast<int>(key % n); }
  int buddy(std::uint64_t key) const { return (owner(key) + 1) % n; }
  std::uint64_t slot(std::uint64_t key) const { return key / n; }
};

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const long total_ops = argc > 2 ? std::atol(argv[2]) : 1'000'000;
  const bool crash = argc > 3 ? std::atoi(argv[3]) != 0 : true;
  const int victim = nranks - 1;

  mpisim::Config cfg;
  cfg.nranks = nranks;
  cfg.platform = mpisim::Platform::infiniband;
  cfg.fault.seed = 7;
  cfg.fault.survivable = crash;

  const Topology topo{nranks};
  // Key spaces: even keys are put/get slots, odd keys are fma counters
  // (disjoint tables). Each client owns a contiguous stripe of each, so
  // per-key write sequences are single-writer and verifiable.
  const std::uint64_t put_keys_per_client = 2048;
  const std::uint64_t fma_keys_per_client = 1024;
  const auto n64 = static_cast<std::uint64_t>(nranks);
  const std::uint64_t put_keys = put_keys_per_client * n64;
  const std::uint64_t fma_keys = fma_keys_per_client * n64;
  const long ops_per_client = total_ops / nranks;

  std::uint64_t served_total = 0;
  mpisim::run(cfg, [&] {
    const int me = mpisim::rank();
    armci::init();
    am::init();

    Store store;
    store.put_primary.resize((put_keys + n64 - 1) / n64 + 1);
    store.put_replica.resize(store.put_primary.size());
    store.fma_primary.assign((fma_keys + n64 - 1) / n64 + 1, 0);
    store.fma_replica.assign(store.fma_primary.size(), 0);

    const int h_put = am::register_handler(
        [&store](int, const void* a, std::size_t bytes, void*, std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          auto& tab = arg.role == kRoleReplica ? store.put_replica
                                               : store.put_primary;
          Slot& s = tab.at(arg.slot);
          if (arg.ver > s.ver) {  // last-writer-wins: retries idempotent
            s.ver = arg.ver;
            s.val = arg.val;
          }
          return std::size_t{0};
        });
    const int h_get = am::register_handler(
        [&store](int, const void* a, std::size_t bytes, void* r,
                 std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          const auto& tab = arg.role == kRoleReplica ? store.put_replica
                                                     : store.put_primary;
          const Slot s = tab.at(arg.slot);
          std::memcpy(r, &s, sizeof s);
          return sizeof s;
        });
    // Fused fetch-modify: one delegate does the read-modify-write at the
    // data instead of a get/put round-trip pair.
    const int h_fma = am::register_handler(
        [&store](int, const void* a, std::size_t bytes, void* r,
                 std::size_t) {
          LegArg arg;
          std::memcpy(&arg, a, std::min(bytes, sizeof arg));
          auto& tab = arg.role == kRoleReplica ? store.fma_replica
                                               : store.fma_primary;
          std::int64_t& c = tab.at(arg.slot);
          const std::int64_t old = c;
          c += arg.val;
          std::memcpy(r, &old, sizeof old);
          return sizeof old;
        });

    // A client's view of the cluster: ranks it has observed dead.
    std::vector<bool> dead(static_cast<std::size_t>(nranks), false);
    const auto note_crashed = [&](int target) {
      dead[static_cast<std::size_t>(target)] = true;
      mpisim::world().failure_ack();
    };
    // Issue one leg and wait; true on ack, false if the target died.
    const auto leg = [&](int target, int handler, const LegArg& arg,
                         std::int64_t* out) {
      if (dead[static_cast<std::size_t>(target)]) return false;
      am::Handle h = am::rpc(target, handler, &arg, sizeof arg);
      try {
        h.wait();
      } catch (const mpisim::MpiError& e) {
        if (e.code() != Errc::crashed) throw;
        note_crashed(target);
        return false;
      }
      if (out != nullptr) {
        const auto r = h.reply();
        if (r.size() == sizeof(std::int64_t))
          std::memcpy(out, r.data(), sizeof *out);
      }
      return true;
    };
    // Replicated write: a leg to the owner and one to the buddy.
    // Acknowledged iff every leg aimed at a live rank succeeded and the
    // key's live authority (owner, or buddy once the owner died) holds
    // it -- so an acked write survives the failover by construction.
    const auto write2 = [&](std::uint64_t key, int handler, LegArg arg,
                            std::int64_t* fetched) {
      const int o = topo.owner(key), b = topo.buddy(key);
      arg.role = 0;
      const bool o_ok = leg(o, handler, arg, fetched);
      arg.role = kRoleReplica;
      std::int64_t replica_fetch = 0;
      const bool b_ok = leg(b, handler, arg, &replica_fetch);
      const bool o_dead = dead[static_cast<std::size_t>(o)];
      const bool b_dead = dead[static_cast<std::size_t>(b)];
      if (fetched != nullptr && o_dead && b_ok) *fetched = replica_fetch;
      return o_dead ? b_ok : (o_ok && (b_dead || b_ok));
    };

    // ---- Phase 1: fire-and-forget fill + termination detection --------
    const std::uint64_t pk0 = static_cast<std::uint64_t>(me) *
                              put_keys_per_client;
    for (std::uint64_t i = 0; i < put_keys_per_client; ++i) {
      const std::uint64_t key = pk0 + i;
      LegArg arg;
      arg.slot = topo.slot(key);
      arg.val = static_cast<std::int64_t>(key * 3 + 1);
      arg.ver = 1;
      arg.role = 0;
      am::rpc_ff(topo.owner(key), h_put, &arg, sizeof arg);
      arg.role = kRoleReplica;
      am::rpc_ff(topo.buddy(key), h_put, &arg, sizeof arg);
    }
    am::quiesce();

    // ---- Phase 2: mixed client stream with a mid-stream server crash --
    std::vector<std::uint64_t> put_acked_ver(put_keys_per_client, 1);
    std::vector<std::int64_t> put_acked_val(put_keys_per_client);
    std::vector<std::uint64_t> put_attempt_ver(put_keys_per_client, 1);
    for (std::uint64_t i = 0; i < put_keys_per_client; ++i)
      put_acked_val[i] = static_cast<std::int64_t>((pk0 + i) * 3 + 1);
    std::vector<std::int64_t> put_attempt_val = put_acked_val;
    std::vector<std::int64_t> fma_acked(fma_keys_per_client, 0);
    std::vector<std::int64_t> fma_attempted(fma_keys_per_client, 0);
    const std::uint64_t fk0 = static_cast<std::uint64_t>(me) *
                              fma_keys_per_client;

    std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (std::uint64_t)me;
    const auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (long i = 0; i < ops_per_client; ++i) {
      if (crash && me == victim && i == ops_per_client / 2) {
        // Deterministic mid-stream death: the next leg's fault point
        // kills this rank.
        mpisim::ctx().fault().arm_crash();
      }
      const std::uint64_t r = next();
      const int kind = static_cast<int>(r % 4);  // 50% get, 25% put, 25% fma
      if (kind <= 1) {
        // Get a random put-key from its live authority.
        const std::uint64_t key = r / 4 % put_keys;
        const int o = topo.owner(key);
        LegArg arg;
        arg.slot = topo.slot(key);
        const bool use_replica = dead[static_cast<std::size_t>(o)];
        arg.role = use_replica ? kRoleReplica : 0;
        const int target = use_replica ? topo.buddy(key) : o;
        Slot got;
        if (!dead[static_cast<std::size_t>(target)]) {
          am::Handle h = am::rpc(target, h_get, &arg, sizeof arg);
          try {
            h.wait();
            std::memcpy(&got, h.reply().data(), sizeof got);
          } catch (const mpisim::MpiError& e) {
            if (e.code() != Errc::crashed) throw;
            note_crashed(target);
          }
        }
      } else if (kind == 2) {
        // Put to one of MY put keys: next version, deterministic value.
        const std::uint64_t ki = r / 4 % put_keys_per_client;
        const std::uint64_t key = pk0 + ki;
        LegArg arg;
        arg.slot = topo.slot(key);
        arg.ver = ++put_attempt_ver[ki];
        arg.val = static_cast<std::int64_t>(key ^ (arg.ver * 0x51ed'2701));
        put_attempt_val[ki] = arg.val;
        if (write2(key, h_put, arg, nullptr)) {
          put_acked_ver[ki] = arg.ver;
          put_acked_val[ki] = arg.val;
        }
      } else {
        // Fused fetch-and-add on one of MY fma keys.
        const std::uint64_t ki = r / 4 % fma_keys_per_client;
        const std::uint64_t key = fk0 + ki;
        LegArg arg;
        arg.slot = topo.slot(key);
        arg.val = 1;
        std::int64_t old = -1;
        ++fma_attempted[ki];
        if (write2(key, h_fma, arg, &old)) ++fma_acked[ki];
      }
    }
    // Serving barrier: a plain collective would stop serving this rank's
    // shard while stragglers still stream requests at it.
    am::barrier();

    // ---- Phase 3: verification reads from the live authority ----------
    for (std::uint64_t ki = 0; ki < put_keys_per_client; ++ki) {
      const std::uint64_t key = pk0 + ki;
      const int o = topo.owner(key);
      const bool failover = dead[static_cast<std::size_t>(o)];
      LegArg arg;
      arg.slot = topo.slot(key);
      arg.role = failover ? kRoleReplica : 0;
      const int target = failover ? topo.buddy(key) : o;
      am::Handle h = am::rpc(target, h_get, &arg, sizeof arg);
      h.wait();
      Slot got;
      std::memcpy(&got, h.reply().data(), sizeof got);
      // Zero lost acknowledged writes: the authority can never be behind
      // the last acked version...
      check(got.ver >= put_acked_ver[ki], "acked put lost", key);
      // ...and whatever version it holds must be a value this client
      // actually wrote (acked, or the one later unacked attempt).
      if (got.ver == put_acked_ver[ki])
        check(got.val == put_acked_val[ki], "acked put corrupted", key);
      else if (got.ver == put_attempt_ver[ki])
        check(got.val == put_attempt_val[ki], "unacked put corrupted", key);
      else
        check(false, "version from nowhere", key);
    }
    for (std::uint64_t ki = 0; ki < fma_keys_per_client; ++ki) {
      const std::uint64_t key = fk0 + ki;
      const int o = topo.owner(key);
      const bool failover = dead[static_cast<std::size_t>(o)];
      LegArg arg;
      arg.slot = topo.slot(key);
      arg.role = failover ? kRoleReplica : 0;
      const int target = failover ? topo.buddy(key) : o;
      am::Handle h = am::rpc(target, h_fma, &arg, sizeof arg);
      h.wait();  // delta 0 fetch: arg.val defaults to 0
      const auto final_count = h.reply_as<std::int64_t>();
      // No lost acked adds, no duplicated adds.
      check(final_count >= fma_acked[ki], "acked fma adds lost", key);
      check(final_count <= fma_attempted[ki], "fma adds duplicated", key);
    }

    am::barrier();  // keep serving until every rank finished verifying

    const std::uint64_t sent = armci::stats().am_sent;
    const std::uint64_t served = armci::stats().am_served;
    std::uint64_t tot[2] = {0, 0};
    const std::uint64_t mine[2] = {sent, served};
    mpisim::world().allreduce(mine, tot, 2, mpisim::BasicType::uint64,
                              mpisim::Op::sum);
    if (me == 0) {
      served_total = tot[1];
      std::printf(
          "dht: %d ranks, %ld client ops/rank, crash=%d -> %llu delegates "
          "sent, %llu served, %llu terminations, virtual time %.1f ms\n",
          nranks, ops_per_client, crash ? 1 : 0,
          (unsigned long long)tot[0], (unsigned long long)tot[1],
          (unsigned long long)armci::stats().am_terminations,
          mpisim::clock().now_ns() / 1e6);
    }
    am::finalize();
    armci::finalize();
  });

  if (verify_failures != 0) {
    std::fprintf(stderr, "dht: FAILED (%d verification failures)\n",
                 verify_failures);
    return 1;
  }
  std::printf("dht: OK (zero lost or duplicated acknowledged writes; "
              "%llu ops served)\n",
              (unsigned long long)served_total);
  return 0;
}
