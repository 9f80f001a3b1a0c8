// perfbench driver: runs one workload in this process and prints its
// metrics as one JSON line.
//
//     perfbench_driver --workload ccsd|dht|rma --seed N --seconds S
//                      --trace 0|1 [--tiny] [--corrupt] [--spans PATH]
//
// --trace 0 measures the end-to-end metrics: set-up repeated kSetups times
// (the median is reported), the middle one followed by a timed phase of S
// seconds. --trace 1 measures the per-layer metrics: an untraced timed
// phase of S/2 seconds, then a traced run of the same number of rounds; the
// ratio of their round CPU times is the tracing overhead. Exit
// status is nonzero on any failed check.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

using namespace pb;

/// Set-ups per untraced run; the middle one is followed by the timed phase.
constexpr int kSetups = 15;
constexpr int kSetupsTiny = 2;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "ccsd|dht|rma --seed N --seconds S --trace 0|1 [--tiny] "
               "[--corrupt] [--spans PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(value().c_str());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--spans") a.spans_path = value();
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--corrupt") a.corrupt = true;
    else usage(("unknown argument " + k).c_str());
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Fold a run's checks, exact counts and operations into the report.
void account(Workload& w, const RunResult& run, Report& rep) {
  fold_checks(rep, run);
  w.check_counts(run, rep);
  rep.attempted += static_cast<std::uint64_t>(w.ops(run));
}

RunResult run_once(Workload& w, RunPlan plan) {
  w.reset();
  return run_plan(plan, [&w](Rank& rk) { w.body(rk); });
}

void measure_end_to_end(Workload& w, const Args& a, Report& rep) {
  RunPlan plan;
  plan.cfg = w.config();
  plan.seconds = a.seconds;
  std::vector<double> setups;
  const auto setup_only = [&] {
    plan.timed = false;
    const RunResult r = run_once(w, plan);
    setups.push_back(r.setup_s);
    fold_checks(rep, r);  // a set-up-only run still verifies
  };
  // The timed phase follows the middle set-up, so a burst of contention
  // at the start of the run cannot cover every set-up. The workload's
  // per-run state is read before the next run resets it.
  const int n = a.tiny ? kSetupsTiny : kSetups;
  for (int k = 0; k < n / 2; ++k) setup_only();
  plan.timed = true;
  const RunResult timed = run_once(w, plan);
  setups.push_back(timed.setup_s);
  account(w, timed, rep);
  const auto [p50, p99] = w.op_latency_us(timed);
  const std::vector<double> round_virtual_s = w.round_virtual_s(timed);
  for (int k = n / 2 + 1; k < n; ++k) setup_only();
  emit_end_to_end(rep, setups, timed, round_virtual_s, p50, p99);
  const RankLog& r0 = timed.ranks.at(0);
  const CleanRounds clean = clean_round_wall(timed);
  double steal = 0.0;
  for (double x : r0.round_steal_s) steal += x;
  rep.notes.push_back(
      "rounds " + std::to_string(timed.rounds) + ", timed wall " +
      std::to_string(timed.timed_s) + " s, steal (mean over rank CPUs) " +
      std::to_string(steal) + " s; round wall p50 " +
      std::to_string(median(r0.round_host_s)) + " s, p50 of " +
      std::to_string(clean.rounds) + " least-stolen rounds " +
      std::to_string(clean.wall_s) + " s, round CPU p50 " +
      std::to_string(median(r0.round_cpu_s)) + " s");
}

void measure_layers(Workload& w, const Args& a, Report& rep) {
  RunPlan plan;
  plan.cfg = w.config();
  plan.seconds = a.seconds / 2;
  const RunResult plain = run_once(w, plan);
  account(w, plain, rep);
  LayerExtras extra;
  extra.host_ops_per_s = w.ops(plain) / std::max(plain.rounds, 1) /
                         clean_round_wall(plain).wall_s;

  plan.traced = true;
  plan.fixed_rounds = plain.rounds;
  const RunResult traced = run_once(w, plan);
  account(w, traced, rep);

  extra.trace_overhead_frac =
      placement_median(traced.ranks.at(0).round_cpu_s, traced.cpu_slots) /
          placement_median(plain.ranks.at(0).round_cpu_s, plain.cpu_slots) -
      1.0;
  extra.spawn_s = {plain.spawn_s, traced.spawn_s};
  extra.join_s = {plain.join_s, traced.join_s};
  w.layer_extras(extra);
  emit_layers(rep, traced, extra);
  rep.notes.push_back("rounds " + std::to_string(traced.rounds) +
                      " untraced+traced");

  if (!a.spans_path.empty()) {
    std::vector<const SpanLog*> logs;
    for (const RankLog& log : traced.ranks) logs.push_back(&log.spans);
    if (!write_spans(a.spans_path, a.workload, logs))
      rep.notes.push_back("could not write spans to " + a.spans_path);
  }
}

void print_json(const Args& a, const Report& rep) {
  bool finite = true;
  for (const auto& [name, m] : rep.metrics) finite = finite && std::isfinite(m.value);
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
              "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              a.workload.c_str(), (unsigned long long)a.seed, a.trace ? 1 : 0,
              rep.failed == 0 && finite ? "true" : "false",
              (unsigned long long)rep.attempted,
              (unsigned long long)rep.failed);
  bool first = true;
  for (const auto& [name, m] : rep.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("},\"notes\":[");
  first = true;
  for (const std::string& n : rep.notes) {
    std::string esc;
    for (char c : n) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += c;
    }
    std::printf("%s\"%s\"", first ? "" : ",", esc.c_str());
    first = false;
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // A fixed mmap threshold: with glibc's dynamic one, whether a freed
  // multi-MiB buffer stays resident depends on allocation order across the
  // rank threads, which moved peak RSS by 4 MB between identical runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  std::unique_ptr<Workload> w;
  if (a.workload == "ccsd") w = make_ccsd(a);
  else if (a.workload == "dht") w = make_dht(a);
  else if (a.workload == "rma") w = make_rma(a);
  else usage("unknown workload");

  Report rep;
  try {
    if (a.trace)
      measure_layers(*w, a, rep);
    else
      measure_end_to_end(*w, a, rep);
  } catch (const std::exception& e) {
    ++rep.attempted;
    rep.fail(std::string("exception: ") + e.what());
  }
  print_json(a, rep);
  std::fflush(stdout);
  return rep.failed == 0 ? 0 : 1;
}
