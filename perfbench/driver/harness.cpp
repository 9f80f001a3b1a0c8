#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/mpisim/comm.hpp"

namespace pb {

/// Run-wide state written by rank 0 and read by the main thread after the
/// run joins.
struct Shared {
  std::vector<int> cpus;  ///< the CPUs this process may run on
  double setup_end_s = 0.0;
  double timed_begin_s = 0.0;
  double timed_end_s = 0.0;
  int rounds = 0;
};

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  r.next();
  return r.next();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  if (v.size() >= 100) {
    const double h = std::min({0.01, q / 2, (1 - q) / 2});
    const auto lo = static_cast<std::size_t>(std::ceil((q - h) * last));
    const auto hi = static_cast<std::size_t>(std::floor((q + h) * last));
    if (lo < hi) {
      double sum = 0.0;
      for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
      return sum / static_cast<double>(hi - lo + 1);
    }
  }
  const double pos = q * last;
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double steal_s(const std::vector<int>& cpus) {
  if (cpus.empty()) return 0.0;
  std::ifstream in("/proc/stat");
  std::string line;
  double ticks = 0.0;
  while (std::getline(in, line)) {
    // cpuN user nice system idle iowait irq softirq steal ...; the "cpu"
    // line without a number is the sum over all CPUs.
    if (line.compare(0, 3, "cpu") != 0 || line.size() < 4 ||
        std::isdigit(static_cast<unsigned char>(line[3])) == 0)
      continue;
    std::istringstream fields(line.substr(3));
    int cpu = -1;
    double v[8] = {};
    fields >> cpu;
    for (double& x : v) fields >> x;
    if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end()) ticks += v[7];
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK)) /
         static_cast<double>(cpus.size());
}

namespace {

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Pin the calling rank thread to CPU number \p slot (modulo their count).
/// Left to the kernel, the placement changes from run to run -- rank
/// threads sharing a core hand off far faster than threads a cross-core
/// wakeup must reach -- and the host metrics would take that mode with
/// them.
void pin_rank(int slot, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

}  // namespace

mpisim::WinStats win_totals() {
  mpisim::WinStats t;
  for (const auto& [id, w] : mpisim::tracer().win_stats()) {
    (void)id;
    t.exclusive_locks += w.exclusive_locks;
    t.shared_locks += w.shared_locks;
    t.lock_alls += w.lock_alls;
    t.flushes += w.flushes;
    t.epochs += w.epochs;
  }
  return t;
}

armci::Options Rank::options(armci::Options base) const {
  if (plan.traced) {
    base.metrics = true;
    base.trace = true;
  }
  return base;
}

void Rank::end_setup() {
  timed_call(*this, "mpisim.barrier", log.barrier_host_s,
             log.barrier_virtual_us, [] { mpisim::world().barrier(); });
  if (rank == 0) {
    sh_.setup_end_s = host_now_s();
  }
  if (!plan.timed) return;
  armci::reset_stats();
  if (plan.traced) win0_ = win_totals();
  if (rank == 0) sh_.timed_begin_s = host_now_s();
}

bool Rank::next_round() {
  if (!plan.timed) return false;  // a set-up-only run
  if (in_round_) {
    log.round_virtual_s.push_back(
        (mpisim::clock().now_ns() - round_v0_ns_) * 1e-9);
    log.round_stats.push_back(armci::stats());
    if (rank == 0) {
      log.round_host_s.push_back(host_now_s() - round_h0_s_);
      log.round_steal_s.push_back(steal_s(sh_.cpus) - round_steal0_s_);
      log.round_cpu_s.push_back(process_cpu_s() - round_cpu0_s_);
    }
    ++rounds_;
  }
  int more = 0;
  if (rank == 0) {
    more = plan.fixed_rounds > 0
               ? rounds_ < plan.fixed_rounds
               : rounds_ == 0 ||
                     host_now_s() - sh_.timed_begin_s < plan.seconds;
  }
  mpisim::world().bcast(&more, sizeof more, 0);
  if (more != 0) {
    // Each round moves every rank to the next CPU. On a shared 4-vCPU
    // virtual machine the speed of one virtual CPU drifted by up to 1.6x
    // over seconds, independently of the others; a rank that stayed on one
    // CPU would carry that drift into the host figures of a workload with
    // a single busy rank.
    pin_rank(rank + rounds_, sh_.cpus);
    in_round_ = true;
    round_v0_ns_ = mpisim::clock().now_ns();
    if (rank == 0) {
      round_h0_s_ = host_now_s();
      round_steal0_s_ = steal_s(sh_.cpus);
      round_cpu0_s_ = process_cpu_s();
    }
    return true;
  }
  in_round_ = false;
  if (rank == 0) {
    sh_.timed_end_s = host_now_s();
    sh_.rounds = rounds_;
  }
  const armci::MetricsRegistry& m = armci::metrics();
  for (int c = 0; c < armci::kOpClassCount; ++c)
    log.hist[static_cast<std::size_t>(c)] =
        m.op(static_cast<armci::OpClass>(c)).latency;
  if (plan.traced) {
    const mpisim::WinStats w = win_totals();
    log.win.exclusive_locks = w.exclusive_locks - win0_.exclusive_locks;
    log.win.shared_locks = w.shared_locks - win0_.shared_locks;
    log.win.lock_alls = w.lock_alls - win0_.lock_alls;
    log.win.flushes = w.flushes - win0_.flushes;
    log.win.epochs = w.epochs - win0_.epochs;
  }
  mpisim::SimCore& core = mpisim::ctx().core();
  std::lock_guard lk(core.mu());
  log.mailbox_high_water = core.mailbox(rank).high_water_bytes();
  return false;
}

RunResult run_plan(const RunPlan& plan,
                   const std::function<void(Rank&)>& body) {
  RunResult res;
  res.ranks.resize(static_cast<std::size_t>(plan.cfg.nranks));
  Shared sh;
  sh.cpus = allowed_cpus();
  res.cpu_slots = std::max<int>(1, static_cast<int>(sh.cpus.size()));
  const double t0 = host_now_s();
  mpisim::run(plan.cfg, [&] {
    const int r = mpisim::rank();
    RankLog& log = res.ranks[static_cast<std::size_t>(r)];
    log.body_begin_s = host_now_s();
    pin_rank(r, sh.cpus);
    if (plan.traced) log.spans.enable(16384);
    Rank rk(plan, sh, log, r);
    body(rk);
    log.body_end_s = host_now_s();
  });
  const double t_ret = host_now_s();

  double first_begin = std::numeric_limits<double>::max();
  double last_end = 0.0;
  for (const RankLog& log : res.ranks) {
    first_begin = std::min(first_begin, log.body_begin_s);
    last_end = std::max(last_end, log.body_end_s);
  }
  res.spawn_s = first_begin - t0;
  res.join_s = t_ret - last_end;
  res.setup_s = sh.setup_end_s - t0;
  res.timed_s = sh.timed_end_s - sh.timed_begin_s;
  res.rounds = sh.rounds;
  return res;
}

}  // namespace pb
