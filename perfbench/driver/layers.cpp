#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

namespace pb {

Counters& Counters::operator+=(const armci::Stats& s) {
  rma_calls += s.puts + s.gets + s.accs + s.strided_ops + s.iov_ops + s.rmws;
  bytes += s.total_bytes();
  rmws += s.rmws;
  nb_ops += s.nb_ops;
  nb_deferred += s.nb_deferred;
  flushed_queues += s.flushed_queues;
  coalesced_epochs += s.coalesced_epochs;
  dt_hits += s.dt_cache_hits;
  dt_misses += s.dt_cache_misses;
  staged_local_copies += s.staged_local_copies;
  retries += s.retries;
  rma_conflicts += s.rma_conflicts;
  ga_multi_owner_ops += s.ga_multi_owner_ops;
  ga_owner_fanout += s.ga_owner_fanout;
  ga_nb_batches += s.ga_nb_batches;
  am_sent += s.am_sent;
  am_served += s.am_served;
  return *this;
}

namespace {

Counters minus(const Counters& a, const Counters& b) {
  Counters d;
  d.rma_calls = a.rma_calls - b.rma_calls;
  d.bytes = a.bytes - b.bytes;
  d.rmws = a.rmws - b.rmws;
  d.nb_ops = a.nb_ops - b.nb_ops;
  d.nb_deferred = a.nb_deferred - b.nb_deferred;
  d.flushed_queues = a.flushed_queues - b.flushed_queues;
  d.coalesced_epochs = a.coalesced_epochs - b.coalesced_epochs;
  d.dt_hits = a.dt_hits - b.dt_hits;
  d.dt_misses = a.dt_misses - b.dt_misses;
  d.staged_local_copies = a.staged_local_copies - b.staged_local_copies;
  d.retries = a.retries - b.retries;
  d.rma_conflicts = a.rma_conflicts - b.rma_conflicts;
  d.ga_multi_owner_ops = a.ga_multi_owner_ops - b.ga_multi_owner_ops;
  d.ga_owner_fanout = a.ga_owner_fanout - b.ga_owner_fanout;
  d.ga_nb_batches = a.ga_nb_batches - b.ga_nb_batches;
  d.am_sent = a.am_sent - b.am_sent;
  d.am_served = a.am_served - b.am_served;
  return d;
}

/// Cumulative counters at the end of round \p round, summed over ranks.
Counters cumulative(const RunResult& run, int round) {
  Counters c;
  if (round < 0) return c;
  for (const RankLog& log : run.ranks)
    if (static_cast<std::size_t>(round) < log.round_stats.size())
      c += log.round_stats[static_cast<std::size_t>(round)];
  return c;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Member>
std::vector<double> gather(const RunResult& run, Member m) {
  std::vector<double> out;
  for (const RankLog& log : run.ranks)
    out.insert(out.end(), (log.*m).begin(), (log.*m).end());
  return out;
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

constexpr std::array<armci::OpClass, armci::kOpClassCount> kClasses = {
    armci::OpClass::put,     armci::OpClass::get, armci::OpClass::acc,
    armci::OpClass::strided, armci::OpClass::iov, armci::OpClass::rmw,
    armci::OpClass::mutex};

/// The ARMCI calls the rma workload wraps (armci.<call>.host_us_*).
constexpr std::array<const char*, 9> kRmaCalls = {
    "put",         "get",     "acc",     "put_strided", "get_strided",
    "acc_strided", "put_iov", "get_iov", "acc_iov"};

/// Layers whose self time the spans report (trace.<layer>.self_host_s).
constexpr std::array<const char*, 5> kSpanLayers = {"nwproxy", "armci", "am",
                                                    "mpisim", "bench"};

}  // namespace

Counters round_counters(const RunResult& run, int round) {
  return minus(cumulative(run, round), cumulative(run, round - 1));
}

Counters phase_counters(const RunResult& run) {
  return cumulative(run, run.rounds - 1);
}

std::vector<double> slowest_rank_rounds(const RunResult& run) {
  std::vector<double> out(static_cast<std::size_t>(run.rounds), 0.0);
  for (const RankLog& log : run.ranks)
    for (std::size_t i = 0; i < out.size() && i < log.round_virtual_s.size();
         ++i)
      out[i] = std::max(out[i], log.round_virtual_s[i]);
  return out;
}

double hist_mean_us(const RunResult& run, armci::OpClass cls) {
  double sum_ns = 0.0, count = 0.0;
  for (const RankLog& log : run.ranks) {
    const armci::LatencyHistogram& h = log.hist[static_cast<std::size_t>(cls)];
    sum_ns += h.sum_ns();
    count += static_cast<double>(h.count());
  }
  return count > 0.0 ? sum_ns / count * 1e-3 : 0.0;
}

double hist_quantile_us(const RunResult& run,
                        const std::vector<armci::OpClass>& classes,
                        double q) {
  constexpr int kB = armci::LatencyHistogram::kBuckets;
  std::array<double, kB> buckets{};
  double count = 0.0, max_ns = 0.0;
  for (const RankLog& log : run.ranks) {
    for (armci::OpClass c : classes) {
      const armci::LatencyHistogram& h = log.hist[static_cast<std::size_t>(c)];
      for (int i = 0; i < kB; ++i)
        buckets[static_cast<std::size_t>(i)] +=
            static_cast<double>(h.bucket(i));
      count += static_cast<double>(h.count());
      max_ns = std::max(max_ns, h.max_ns());
    }
  }
  if (count == 0.0) return 0.0;
  // Bucket i holds [2^i, 2^(i+1)) ns; place the target rank linearly
  // inside its bucket so the figure moves with the bucket counts instead of
  // snapping to a power of two. It still resolves a latency only to its
  // bucket: a change that keeps every sample in its bucket reads as none.
  const double target = q * count;
  double cum = 0.0;
  for (int i = 0; i < kB; ++i) {
    const double n = buckets[static_cast<std::size_t>(i)];
    if (n > 0.0 && cum + n >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, i);
      const double hi = std::ldexp(1.0, i + 1);
      const double v = lo + (target - cum) / n * (hi - lo);
      return std::min(v, max_ns) * 1e-3;
    }
    cum += n;
  }
  return max_ns * 1e-3;
}

std::vector<double> all_op_virtual_us(const RunResult& run) {
  return gather(run, &RankLog::op_virtual_us);
}

CleanRounds clean_round_wall(const RunResult& run) {
  const RankLog& r0 = run.ranks.at(0);
  const std::size_t n = std::min(r0.round_host_s.size(), r0.round_steal_s.size());
  // (steal share of the round's wall, wall), least stolen first.
  std::vector<std::pair<double, double>> rounds;
  for (std::size_t i = 0; i < n; ++i)
    rounds.emplace_back(ratio(r0.round_steal_s[i], r0.round_host_s[i]),
                        r0.round_host_s[i]);
  std::sort(rounds.begin(), rounds.end());
  CleanRounds c;
  std::vector<double> walls;
  for (const auto& [share, wall] : rounds)
    if (share <= kCleanStealShare || walls.size() < (n + 3) / 4)
      walls.push_back(wall);
  c.rounds = walls.size();
  c.wall_s = median(walls);
  return c;
}

double placement_median(const std::vector<double>& per_round, int slots) {
  double sum = 0.0;
  int used = 0;
  for (int s = 0; s < slots; ++s) {
    std::vector<double> v;
    for (std::size_t i = static_cast<std::size_t>(s); i < per_round.size();
         i += static_cast<std::size_t>(slots))
      v.push_back(per_round[i]);
    if (v.empty()) continue;
    sum += median(v);
    ++used;
  }
  return used > 0 ? sum / used : 0.0;
}

void emit_end_to_end(Report& rep, const std::vector<double>& setup_s,
                     const RunResult& timed,
                     const std::vector<double>& round_virtual_s,
                     double op_p50_us, double op_p99_us) {
  // Host figures are medians over rounds: a round that a neighbour on the
  // machine slowed moves the mean, not the median.
  rep.set("setup_s", median(setup_s), "s");
  rep.set("host_cpu_s", placement_median(timed.ranks.at(0).round_cpu_s,
                                         timed.cpu_slots),
          "s");
  rep.set("virtual_s", median(round_virtual_s), "s");
  rep.set("op_virtual_us_p50", op_p50_us, "us");
  rep.set("op_virtual_us_p99", op_p99_us, "us");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
}

void emit_layers(Report& rep, const RunResult& tr, const LayerExtras& extra) {
  const double rounds = std::max(tr.rounds, 1);
  const Counters c = phase_counters(tr);
  const auto per_round = [rounds](double v) { return v / rounds; };

  // nwproxy: medians over rounds.
  const auto nw = [&](double NwproxyRound::*m) {
    std::vector<double> v;
    for (const NwproxyRound& r : extra.nwproxy) v.push_back(r.*m);
    return median(v);
  };
  rep.set("nwproxy.ccsd.virtual_s", nw(&NwproxyRound::ccsd_virtual_s), "s");
  rep.set("nwproxy.triples.virtual_s", nw(&NwproxyRound::triples_virtual_s),
          "s");
  rep.set("nwproxy.ccsd.host_s", nw(&NwproxyRound::ccsd_host_s), "s");
  rep.set("nwproxy.triples.host_s", nw(&NwproxyRound::triples_host_s), "s");
  rep.set("nwproxy.ccsd.balance", nw(&NwproxyRound::ccsd_balance), "ratio");

  // ga: owner decomposition, from armci::stats() deltas.
  rep.set("ga.multi_owner_ops", per_round(double(c.ga_multi_owner_ops)),
          "count/round");
  rep.set("ga.owner_fanout_mean",
          ratio(double(c.ga_owner_fanout), double(c.ga_multi_owner_ops)),
          "owners");
  rep.set("ga.nb_batches", per_round(double(c.ga_nb_batches)), "count/round");

  // armci: per-class calls and virtual latency (metrics histograms).
  for (armci::OpClass cls : kClasses) {
    const std::string p = std::string("armci.") + armci::op_class_name(cls);
    std::uint64_t calls = 0;
    for (const RankLog& log : tr.ranks)
      calls += log.hist[static_cast<std::size_t>(cls)].count();
    rep.set(p + ".calls", per_round(double(calls)), "count/round");
    rep.set(p + ".virtual_us_mean", hist_mean_us(tr, cls), "us");
    rep.set(p + ".virtual_us_p50", hist_quantile_us(tr, {cls}, 0.50), "us");
    rep.set(p + ".virtual_us_p99", hist_quantile_us(tr, {cls}, 0.99), "us");
  }
  rep.set("armci.bytes", per_round(double(c.bytes)), "B/round");
  for (const char* call : kRmaCalls) {
    std::vector<double> v;
    for (const RankLog& log : tr.ranks) {
      const auto it = log.call_host_us.find(std::string("armci.") + call);
      if (it != log.call_host_us.end())
        v.insert(v.end(), it->second.begin(), it->second.end());
    }
    const std::string p = std::string("armci.") + call;
    rep.set(p + ".host_us_p50", quantile(v, 0.50), "us");
    rep.set(p + ".host_us_p99", quantile(v, 0.99), "us");
  }
  rep.set("armci.nb.deferred_frac",
          ratio(double(c.nb_deferred), double(c.nb_ops)), "ratio");
  rep.set("armci.nb.coalesced_frac",
          ratio(double(c.coalesced_epochs), double(c.flushed_queues)),
          "ratio");
  rep.set("armci.dt_cache.hit_frac",
          ratio(double(c.dt_hits), double(c.dt_hits + c.dt_misses)), "ratio");
  rep.set("armci.staged_local_copies", per_round(double(c.staged_local_copies)),
          "count/round");
  rep.set("armci.retries", per_round(double(c.retries)), "count/round");
  rep.set("armci.rma_conflicts", per_round(double(c.rma_conflicts)),
          "count/round");

  // mpisim: window counters, run spawn/join, mailboxes, driver barriers.
  mpisim::WinStats w;
  std::size_t high_water = 0;
  for (const RankLog& log : tr.ranks) {
    w.exclusive_locks += log.win.exclusive_locks;
    w.shared_locks += log.win.shared_locks;
    w.flushes += log.win.flushes;
    w.epochs += log.win.epochs;
    high_water = std::max(high_water, log.mailbox_high_water);
  }
  rep.set("mpisim.win.exclusive_locks", per_round(double(w.exclusive_locks)),
          "count/round");
  rep.set("mpisim.win.shared_locks", per_round(double(w.shared_locks)),
          "count/round");
  rep.set("mpisim.win.flushes", per_round(double(w.flushes)), "count/round");
  rep.set("mpisim.win.epochs", per_round(double(w.epochs)), "count/round");
  rep.set("mpisim.win.epochs_per_op",
          ratio(double(w.epochs), double(c.rma_calls)), "ratio");
  rep.set("mpisim.run.spawn_s", median(extra.spawn_s), "s");
  rep.set("mpisim.run.join_s", median(extra.join_s), "s");
  rep.set("mpisim.mailbox.high_water_bytes", double(high_water), "B");
  rep.set("mpisim.barrier.host_us",
          median(scaled(gather(tr, &RankLog::barrier_host_s), 1e6)), "us");
  rep.set("mpisim.barrier.virtual_us",
          median(gather(tr, &RankLog::barrier_virtual_us)), "us");

  // am: the driver's rpc legs, counters, termination and barriers.
  const std::vector<double> rpc_v = gather(tr, &RankLog::rpc_virtual_us);
  const std::vector<double> rpc_h =
      scaled(gather(tr, &RankLog::rpc_host_s), 1e6);
  std::uint64_t rpc_calls = 0;
  for (const RankLog& log : tr.ranks) rpc_calls += log.rpc_virtual_us.seen();
  rep.set("am.rpc.calls", per_round(double(rpc_calls)), "count/round");
  rep.set("am.rpc.virtual_us_p50", quantile(rpc_v, 0.50), "us");
  rep.set("am.rpc.virtual_us_p99", quantile(rpc_v, 0.99), "us");
  rep.set("am.rpc.host_us_p50", quantile(rpc_h, 0.50), "us");
  rep.set("am.rpc.host_us_p99", quantile(rpc_h, 0.99), "us");
  rep.set("am.sent", per_round(double(c.am_sent)), "count/round");
  rep.set("am.served", per_round(double(c.am_served)), "count/round");
  rep.set("am.quiesce.host_s", median(gather(tr, &RankLog::quiesce_host_s)),
          "s");
  rep.set("am.quiesce.virtual_us",
          median(gather(tr, &RankLog::quiesce_virtual_us)), "us");
  rep.set("am.barrier.host_s", median(gather(tr, &RankLog::am_barrier_host_s)),
          "s");

  // Span self time per layer, summed over ranks, per round.
  for (const char* layer : kSpanLayers) {
    const std::string prefix = std::string(layer) + ".";
    double self_ns = 0.0;
    for (const RankLog& log : tr.ranks)
      for (const auto& [name, t] : log.spans.totals())
        if (name.compare(0, prefix.size(), prefix) == 0)
          self_ns += t.self_host_ns;
    rep.set(std::string("trace.") + layer + ".self_host_s",
            per_round(self_ns * 1e-9), "s/round");
  }
  rep.set("bench.host_ops_per_s", extra.host_ops_per_s, "1/s");
  rep.set("bench.trace_overhead_frac", extra.trace_overhead_frac, "ratio");
}

void fold_checks(Report& rep, const RunResult& run) {
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const RankLog& log = run.ranks[r];
    rep.attempted += log.checks;
    for (const std::string& f : log.failures)
      rep.fail("rank " + std::to_string(r) + ": " + f);
  }
}

}  // namespace pb
