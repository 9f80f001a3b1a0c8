#include "src/nwproxy/ccsd.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"

namespace nwproxy {

namespace {

/// Charge the virtual clock for \p flops of local DGEMM-class compute at
/// the platform's per-core rate. advance_compute marks this as
/// application compute the progress engine may tick under: with
/// Options::progress on, deferred prefetches drain (and their latency
/// hides) inside the contraction instead of stalling the next wait.
void charge_flops(double flops) {
  const double gflops = mpisim::model().profile().dgemm_gflops;
  if (gflops > 0.0)
    mpisim::clock().advance_compute(flops / gflops);  // ns = f/GF
}

/// Decode a linear task id into the upper-triangular tile pair (at <= bt).
void decode_pair(std::int64_t task, std::int64_t& at, std::int64_t& bt) {
  // task = bt(bt+1)/2 + at with 0 <= at <= bt.
  bt = static_cast<std::int64_t>(
      (std::sqrt(8.0 * static_cast<double>(task) + 1.0) - 1.0) / 2.0);
  while ((bt + 1) * (bt + 2) / 2 <= task) ++bt;
  while (bt * (bt + 1) / 2 > task) --bt;
  at = task - bt * (bt + 1) / 2;
}

/// Decode a linear task id into the ordered occupied triple i <= j <= k.
void decode_triple(std::int64_t task, std::int64_t no, std::int64_t& i,
                   std::int64_t& j, std::int64_t& k) {
  std::int64_t t = task;
  for (i = 0; i < no; ++i) {
    const std::int64_t m = no - i;
    const std::int64_t block = m * (m + 1) / 2;
    if (t < block) break;
    t -= block;
  }
  for (j = i; j < no; ++j) {
    const std::int64_t m = no - j;
    if (t < m) break;
    t -= m;
  }
  k = j + t;
}

/// Execute one CCSD task: C(:, bt) = sum_kt v(at,bt,kt) * T2(:, kt), then
/// accumulate C into T2new's bt tile. The real contraction would be a
/// DGEMM against the synthesized integral tile; its time is charged to the
/// virtual clock while a rank-1 coefficient update keeps a verifiable
/// data dependency. The buffers and \p patch are the caller's, reused from
/// task to task.
void run_ccsd_task(const CcsdParams& p, const Amplitudes& t2,
                   Amplitudes& t2new, std::int64_t at, std::int64_t bt,
                   std::vector<double>& c_buf, std::vector<double>& b_buf,
                   std::vector<double>& b_next, ga::Patch& patch) {
  const std::int64_t rows = t2.rows();
  const std::int64_t wb = t2.tile_width(bt);
  c_buf.assign(static_cast<std::size_t>(rows * wb), 0.0);

  // Double-buffered tile pipeline: the next tile's nb_get is issued before
  // contracting the current one, so its per-owner batches sit deferred
  // through the contraction and complete -- epochs overlapped across
  // owners -- at the next wait instead of serializing get-then-compute.
  auto issue_tile = [&](std::int64_t kt, std::vector<double>& buf) {
    const auto [klo, khi] = t2.tile_cols(kt);
    buf.resize(static_cast<std::size_t>(rows * (khi - klo + 1)));
    patch.lo.assign({0, klo});
    patch.hi.assign({rows - 1, khi});
    return t2.array().nb_get(patch, buf.data());
  };

  const std::int64_t ntiles = t2.ntiles();
  armci::Request pending;
  if (ntiles > 0) pending = issue_tile(0, b_buf);
  for (std::int64_t kt = 0; kt < ntiles; ++kt) {
    // Callback-driven completion: with the progress engine on, the
    // prefetch usually finishes from a tick inside the previous
    // contraction's charge_flops, and the callback has already fired by
    // the time we get here -- the wait() below is then a no-op fallback
    // for whatever a tick did not retire (and for engine-off runs).
    bool tile_ready = false;
    armci::on_complete(pending, [&tile_ready](std::exception_ptr err) {
      if (err) std::rethrow_exception(err);
      tile_ready = true;
    });
    if (!tile_ready) armci::wait(pending);
    if (kt + 1 < ntiles) pending = issue_tile(kt + 1, b_next);

    const auto [klo, khi] = t2.tile_cols(kt);
    const std::int64_t wk = khi - klo + 1;
    const double v = v_coeff(at, bt, kt);
    const std::int64_t w = std::min(wb, wk);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t x = 0; x < w; ++x)
        c_buf[static_cast<std::size_t>(r * wb + x)] +=
            v * b_buf[static_cast<std::size_t>(r * wk + x)];
    charge_flops(ccsd_task_flops(p));
    std::swap(b_buf, b_next);  // the prefetched tile becomes current
  }

  const auto [blo, bhi] = t2new.tile_cols(bt);
  patch.lo.assign({0, blo});
  patch.hi.assign({rows - 1, bhi});
  const double one = 1.0;
  t2new.array().acc(patch, c_buf.data(), &one);
}

/// Phase time metric: job time is the slowest rank's virtual time. Task
/// claiming is paced by mpisim::pace(), so the assignment is decided by the
/// modeled clocks (not host scheduling) and the maximum is stable; the
/// mean is reported too for imbalance diagnostics.
std::pair<double, double> elapsed_seconds(double t0_ns) {
  const double mine = (mpisim::clock().now_ns() - t0_ns) * 1e-9;
  double mean = 0.0, mx = 0.0;
  mpisim::world().allreduce(&mine, &mean, 1, mpisim::BasicType::float64,
                            mpisim::Op::sum);
  mpisim::world().allreduce(&mine, &mx, 1, mpisim::BasicType::float64,
                            mpisim::Op::max);
  return {mx, mean / mpisim::nranks()};
}

}  // namespace

PhaseResult run_ccsd(const CcsdParams& p, Amplitudes& t2) {
  t2 = Amplitudes::create(p, "t2");
  Amplitudes t2new = Amplitudes::create(p, "t2new");
  t2.init_reference();
  ga::AtomicCounter counter = ga::AtomicCounter::create();
  armci::barrier();

  PhaseResult res;
  res.total_tasks = ccsd_tasks(p);
  const double t0 = mpisim::clock().now_ns();

  std::vector<double> c_buf, b_buf, b_next;
  ga::Patch patch;
  for (int iter = 0; iter < p.iterations; ++iter) {
    t2new.array().zero();
    counter.reset(0);

    // nxtval-style dynamic load balancing (paper §IV-A / §VII-D), claimed
    // in virtual-clock order so the modeled balance is deterministic.
    std::int64_t start = 0;
    while ((mpisim::pace(), start = counter.next(p.chunk_tasks)) <
           res.total_tasks) {
      const std::int64_t end =
          std::min(start + p.chunk_tasks, res.total_tasks);
      for (std::int64_t task = start; task < end; ++task) {
        // Permute the task order (prime-stride) so concurrently claimed
        // tasks hit different output tiles -- production task lists are
        // interleaved the same way to avoid accumulate hotspots.
        const std::int64_t mixed = (task * 7919) % res.total_tasks;
        std::int64_t at = 0, bt = 0;
        decode_pair(mixed, at, bt);
        run_ccsd_task(p, t2, t2new, at, bt, c_buf, b_buf, b_next, patch);
        ++res.my_tasks;
      }
    }
    armci::barrier();

    // Damped Jacobi-style amplitude update, then the iteration "energy".
    const double keep = 1.0 - p.mix;
    t2.array().add(&keep, t2.array(), &p.mix, t2new.array());
    res.energy = t2.array().ddot(t2.array());
  }

  armci::barrier();
  std::tie(res.virtual_seconds, res.virtual_seconds_mean) =
      elapsed_seconds(t0);
  counter.destroy();
  t2new.destroy();
  return res;
}

PhaseResult run_triples(const CcsdParams& p, const Amplitudes& t2) {
  ga::AtomicCounter counter = ga::AtomicCounter::create();
  armci::barrier();

  PhaseResult res;
  res.total_tasks = triples_tasks(p);
  const double t0 = mpisim::clock().now_ns();
  const std::int64_t cols = t2.cols();

  std::vector<double> b1(static_cast<std::size_t>(cols));
  std::vector<double> b2(static_cast<std::size_t>(cols));
  std::vector<double> b3(static_cast<std::size_t>(cols));
  double local_e = 0.0;
  ga::Patch row;  // reused by every row fetch

  std::int64_t start = 0;
  while ((mpisim::pace(), start = counter.next(p.chunk_tasks)) <
         res.total_tasks) {
    const std::int64_t end = std::min(start + p.chunk_tasks, res.total_tasks);
    for (std::int64_t task = start; task < end; ++task) {
      std::int64_t i = 0, j = 0, k = 0;
      decode_triple(task, p.no, i, j, k);

      // Fetch the amplitude rows of the three pair indices (get-heavy):
      // issue all three nonblocking, complete at one covering wait so the
      // engine overlaps the rows' epochs when they live on different owners.
      auto fetch_row = [&](std::int64_t a, std::int64_t b,
                           std::vector<double>& buf) {
        row.lo.assign({a * p.no + b, 0});
        row.hi.assign({a * p.no + b, cols - 1});
        return t2.array().nb_get(row, buf.data());
      };
      armci::Request rows_req = fetch_row(i, j, b1);
      rows_req.merge(fetch_row(j, k, b2));
      rows_req.merge(fetch_row(i, k, b3));
      armci::wait(rows_req);

      // Triples kernel stand-in: reduce the three rows into one energy
      // contribution; the real ~nv^3 kernel's time is charged instead.
      double e = 0.0;
      for (std::int64_t c = 0; c < cols; ++c)
        e += b1[static_cast<std::size_t>(c)] * b2[static_cast<std::size_t>(c)] *
             b3[static_cast<std::size_t>(c)];
      local_e += e / (1.0 + static_cast<double>(i + j + k));
      charge_flops(triples_task_flops(p));
      ++res.my_tasks;
    }
  }
  armci::barrier();

  mpisim::world().allreduce(&local_e, &res.energy, 1,
                            mpisim::BasicType::float64, mpisim::Op::sum);
  std::tie(res.virtual_seconds, res.virtual_seconds_mean) =
      elapsed_seconds(t0);
  counter.destroy();
  return res;
}

double ccsd_reference_value(const CcsdParams& p, std::int64_t r,
                            std::int64_t c,
                            double (*f)(std::int64_t, std::int64_t)) {
  const std::int64_t tsq = p.tile * p.tile;
  const std::int64_t cols = p.nv * p.nv;
  const std::int64_t ntiles = (cols + tsq - 1) / tsq;
  const std::int64_t bt = c / tsq;
  const std::int64_t x = c - bt * tsq;
  const auto width = [&](std::int64_t t) {
    return std::min(cols, (t + 1) * tsq) - t * tsq;
  };
  double acc = 0.0;
  for (std::int64_t at = 0; at <= bt; ++at) {
    for (std::int64_t kt = 0; kt < ntiles; ++kt) {
      const std::int64_t w = std::min(width(bt), width(kt));
      if (x < w) acc += v_coeff(at, bt, kt) * f(r, kt * tsq + x);
    }
  }
  return acc;
}

}  // namespace nwproxy
