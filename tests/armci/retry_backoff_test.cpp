// Retry backoff schedule tests: the default exponential delay, the
// decorrelated-jitter variant (Options::retry_jitter), and the cumulative
// backoff deadline (Options::retry_deadline_ns) that bounds how long one
// with_retry() scope may keep a caller waiting even when attempts remain.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/armci/retry.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

using mpisim::Errc;
using mpisim::Platform;

// ---------------------------------------------------------------------------
// retry_delay_ns (pure schedule function)
// ---------------------------------------------------------------------------

TEST(RetryBackoffTest, DefaultScheduleIsCappedExponential) {
  Options o;  // retry_backoff_ns = 500, jitter off
  double prev = o.retry_backoff_ns;
  EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.0, 0, &prev), 500.0);
  EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.0, 1, &prev), 1000.0);
  EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.0, 4, &prev), 8000.0);
  // The exponent saturates at 10: attempt 10 and beyond charge the cap.
  EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.0, 10, &prev), 500.0 * 1024);
  EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.0, 37, &prev), 500.0 * 1024);
}

TEST(RetryBackoffTest, DecorrelatedJitterStaysInsideItsEnvelope) {
  // Brooker-style decorrelated jitter: each delay is uniform in
  // [base, min(cap, 3 * prev * jitter)], so the whole sequence is bounded
  // below by the base and above by the exponential cap, whatever the
  // uniform draws are.
  Options o;
  o.retry_jitter = 1.0;
  const double base = o.retry_backoff_ns;
  const double cap = std::ldexp(base, 10);
  for (const double u : {0.0, 0.25, 0.75, 0.999}) {
    double prev = base;
    double hi = 3.0 * base;  // envelope for attempt 0
    for (int attempt = 0; attempt < 20; ++attempt) {
      const double d = retry_delay_ns(o, u, attempt, &prev);
      EXPECT_GE(d, base) << "u=" << u << " attempt=" << attempt;
      EXPECT_LE(d, std::min(cap, hi)) << "u=" << u << " attempt=" << attempt;
      EXPECT_DOUBLE_EQ(prev, d);  // the draw seeds the next envelope
      hi = 3.0 * d;
    }
  }
}

TEST(RetryBackoffTest, SmallJitterFactorDegeneratesToTheBase) {
  // When 3 * prev * jitter never exceeds the base, the interval collapses
  // and every delay is exactly the base (no amplification, still bounded).
  Options o;
  o.retry_jitter = 0.1;  // 3 * 500 * 0.1 = 150 < 500
  double prev = o.retry_backoff_ns;
  for (int attempt = 0; attempt < 5; ++attempt)
    EXPECT_DOUBLE_EQ(retry_delay_ns(o, 0.9, attempt, &prev), 500.0);
}

TEST(RetryBackoffTest, TotalBackoffIsTheExponentialSeries) {
  Options o;  // 5 retries at 500 * 2^a
  EXPECT_DOUBLE_EQ(retry_total_backoff_ns(o),
                   500.0 * (1 + 2 + 4 + 8 + 16));
  o.transient_max_retries = 12;  // attempts 0..10 ramp, attempt 11 is capped
  EXPECT_DOUBLE_EQ(retry_total_backoff_ns(o),
                   500.0 * ((1 << 11) - 1) + 500.0 * 1024);
}

// ---------------------------------------------------------------------------
// with_retry integration (deterministic injected transients)
// ---------------------------------------------------------------------------

/// Deterministic schedule: the first consult of the mpi.contig fault site
/// starts a burst of \p fail_count failures; everything else is untouched.
mpisim::Config contig_fault_cfg(int fail_count) {
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::infiniband;
  cfg.ranks_per_node = 1;  // keep the put on the remote mpi.contig path
  cfg.fault.seed = 11;
  cfg.fault.transient.rate = 1.0;
  cfg.fault.transient.fail_count = fail_count;
  cfg.fault.transient.stall_ns = 50.0;
  cfg.fault.transient.site = "mpi.contig";
  cfg.fault.transient.max_bursts = 1;
  return cfg;
}

TEST(RetryDeadlineTest, DeadlineCutsRetriesShortEvenWithAttemptsLeft) {
  // The first retry would charge 500 ns of backoff; a 100 ns cumulative
  // deadline forbids it, so the transient propagates as exhausted after
  // zero retries despite transient_max_retries = 5.
  mpisim::run(contig_fault_cfg(/*fail_count=*/1), [] {
    Options o;
    o.retry_deadline_ns = 100.0;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char buf[64] = {};
      try {
        put(buf, bases[1], sizeof buf, 1);
        ADD_FAILURE() << "the deadline should have surfaced the transient";
      } catch (const mpisim::MpiError& e) {
        EXPECT_EQ(e.code(), Errc::transient) << e.what();
      }
      EXPECT_EQ(stats().transient_faults, 1u);
      EXPECT_EQ(stats().retries, 0u);
      EXPECT_EQ(stats().retry_exhausted, 1u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(RetryDeadlineTest, GenerousDeadlineNeverFires) {
  // Three failures cost 500 + 1000 + 2000 ns of backoff; a deadline equal
  // to the full exponential budget never triggers, so the op recovers.
  mpisim::run(contig_fault_cfg(/*fail_count=*/3), [] {
    Options o;
    o.retry_deadline_ns = retry_total_backoff_ns(o);
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char buf[64] = {};
      put(buf, bases[1], sizeof buf, 1);
      EXPECT_EQ(stats().transient_faults, 3u);
      EXPECT_EQ(stats().retries, 3u);
      EXPECT_EQ(stats().retry_exhausted, 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(RetryDeadlineTest, JitteredRetriesRecoverAndStayBounded) {
  // With jitter on, the three backoff delays are drawn from the rank's
  // deterministic fault stream; the op still recovers, and the virtual
  // time spent backing off stays inside the decorrelated-jitter envelope
  // (sum of 3 * prev amplifications: at most 500 * (3 + 9 + 27)).
  mpisim::run(contig_fault_cfg(/*fail_count=*/3), [] {
    Options o;
    o.retry_jitter = 1.0;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      const double t0 = mpisim::clock().now_ns();
      char buf[64] = {};
      put(buf, bases[1], sizeof buf, 1);
      const double elapsed = mpisim::clock().now_ns() - t0;
      EXPECT_EQ(stats().retries, 3u);
      EXPECT_EQ(stats().retry_exhausted, 0u);
      EXPECT_GE(elapsed, 3 * 500.0);  // three delays, each >= the base
      EXPECT_LE(elapsed, 500.0 * (3 + 9 + 27) + 3 * 50.0 + 1e5)
          << "jittered backoff escaped its envelope";
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// Every data-path retry site absorbs one burst
// ---------------------------------------------------------------------------

constexpr std::size_t kPayload = 64, kSeg = 16, kSegs = 4, kPitch = 32;

/// What a site case sees on rank 0: the allocation's bases, this rank's own
/// slice (a global local buffer, which forces §V-E1 staging) and the
/// payload to move.
struct SiteCtx {
  std::vector<void*> bases;
  char* mine = nullptr;
  char* remote = nullptr;  ///< rank 1's slice
  std::vector<std::uint8_t> payload;

  void fill_mine() {
    access_begin(mine);
    std::memcpy(mine, payload.data(), kPayload);
    access_end(mine);
  }
  std::vector<std::uint8_t> read_mine() {
    access_begin(mine);
    std::vector<std::uint8_t> out(mine, mine + kPayload);
    access_end(mine);
    return out;
  }
  std::vector<std::uint8_t> read_remote(std::size_t bytes) {
    std::vector<std::uint8_t> out(bytes);
    get(remote, out.data(), bytes, 1);
    return out;
  }
  /// The payload as kSegs segments of kSeg bytes at pitch kPitch.
  std::vector<std::uint8_t> spread() const {
    std::vector<std::uint8_t> out(kSegs * kPitch, 0);
    for (std::size_t i = 0; i < kSegs; ++i)
      std::memcpy(out.data() + i * kPitch, payload.data() + i * kSeg, kSeg);
    return out;
  }
  /// Packed payload -> remote segments at pitch kPitch.
  static StridedSpec spread_spec() {
    StridedSpec s;
    s.stride_levels = 1;
    s.count = {kSeg, kSegs};
    s.src_strides = {kSeg};
    s.dst_strides = {kPitch};
    return s;
  }
  Giov spread_iov(const void* from) const {
    Giov g;
    g.bytes = kSeg;
    for (std::size_t i = 0; i < kSegs; ++i) {
      g.src.push_back(static_cast<const char*>(from) + i * kSeg);
      g.dst.push_back(remote + i * kPitch);
    }
    return g;
  }
};

struct SiteCase {
  const char* site;
  Backend backend = Backend::mpi;
  IovMethod iov_method = IovMethod::auto_;
  bool progress = false;
  void (*op)(SiteCtx&);  ///< reaches the site once, then checks the data
};

// Print a case as its site label. gtest's default dumps the raw bytes,
// which hold the addresses of `site` and `op` and so differ from run to
// run under ASLR; the listed (and CTest-registered) name must not.
void PrintTo(const SiteCase& sc, std::ostream* os) { *os << sc.site; }

void put_contig(SiteCtx& c) {
  put(c.payload.data(), c.remote, kPayload, 1);
  EXPECT_EQ(c.read_remote(kPayload), c.payload);
}

void put_from_global(SiteCtx& c) {
  c.fill_mine();
  put(c.mine, c.remote, kPayload, 1);
  EXPECT_EQ(c.read_remote(kPayload), c.payload);
}

void put_strided_private(SiteCtx& c) {
  put_strided(c.payload.data(), c.remote, SiteCtx::spread_spec(), 1);
  EXPECT_EQ(c.read_remote(kSegs * kPitch), c.spread());
}

void put_strided_from_global(SiteCtx& c) {
  c.fill_mine();
  put_strided(c.mine, c.remote, SiteCtx::spread_spec(), 1);
  EXPECT_EQ(c.read_remote(kSegs * kPitch), c.spread());
}

void get_strided_into_global(SiteCtx& c) {
  put_strided(c.payload.data(), c.remote, SiteCtx::spread_spec(), 1);
  StridedSpec back = SiteCtx::spread_spec();
  back.src_strides = {kPitch};
  back.dst_strides = {kSeg};
  get_strided(c.remote, c.mine, back, 1);
  EXPECT_EQ(c.read_mine(), c.payload);
}

void put_iov_private(SiteCtx& c) {
  const Giov g = c.spread_iov(c.payload.data());
  put_iov({&g, 1}, 1);
  EXPECT_EQ(c.read_remote(kSegs * kPitch), c.spread());
}

void nb_put_then_wait(SiteCtx& c) {
  Request r = nb_put(c.payload.data(), c.remote, kPayload, 1);
  wait(r);
  EXPECT_EQ(c.read_remote(kPayload), c.payload);
}

void nb_get_progress_then_wait(SiteCtx& c) {
  put(c.payload.data(), c.remote, kPayload, 1);
  std::vector<std::uint8_t> back(kPayload, 0);
  Request r = nb_get(c.remote, back.data(), kPayload, 1);
  progress();  // issues the get; its target completion stays pending
  wait(r);
  EXPECT_EQ(back, c.payload);
}

class RetrySiteTest : public ::testing::TestWithParam<SiteCase> {};

TEST_P(RetrySiteTest, AbsorbsOneBurst) {
  const SiteCase sc = GetParam();
  mpisim::Config cfg;
  cfg.nranks = 2;
  cfg.platform = Platform::infiniband;
  cfg.ranks_per_node = 1;  // the target is remote: no same-node shortcut
  cfg.fault.seed = 11;
  cfg.fault.transient.rate = 1.0;
  cfg.fault.transient.fail_count = 1;
  cfg.fault.transient.site = sc.site;
  cfg.fault.transient.max_bursts = 1;
  mpisim::run(cfg, [&] {
    Options o;
    o.backend = sc.backend;
    o.iov_method = sc.iov_method;
    o.progress = sc.progress;
    init(o);
    SiteCtx c;
    c.bases = malloc_world(kSegs * kPitch);
    const int me = mpisim::rank();
    c.mine = static_cast<char*>(c.bases[static_cast<std::size_t>(me)]);
    c.remote = static_cast<char*>(c.bases[1]);
    access_begin(c.mine);
    std::memset(c.mine, 0, kSegs * kPitch);
    access_end(c.mine);
    barrier();
    if (me == 0) {
      for (std::size_t i = 0; i < kPayload; ++i)
        c.payload.push_back(static_cast<std::uint8_t>(i * 7 + 3));
      sc.op(c);
      EXPECT_EQ(stats().transient_faults, 1u) << sc.site;
      EXPECT_EQ(stats().retries, 1u) << sc.site;
      EXPECT_EQ(stats().retry_exhausted, 0u) << sc.site;
    }
    barrier();
    free(c.mine);
    finalize();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sites, RetrySiteTest,
    ::testing::Values(
        SiteCase{"mpi.contig", Backend::mpi, IovMethod::auto_, false,
                 put_contig},
        SiteCase{"mpi.staged_copy", Backend::mpi, IovMethod::auto_, false,
                 put_from_global},
        SiteCase{"mpi.strided", Backend::mpi, IovMethod::auto_, false,
                 put_strided_private},
        SiteCase{"mpi.strided_pack", Backend::mpi, IovMethod::auto_, false,
                 put_strided_from_global},
        SiteCase{"mpi.strided_unpack", Backend::mpi, IovMethod::auto_, false,
                 get_strided_into_global},
        SiteCase{"mpi.iov_batched", Backend::mpi, IovMethod::batched, false,
                 put_iov_private},
        SiteCase{"mpi.iov_direct", Backend::mpi, IovMethod::direct, false,
                 put_iov_private},
        SiteCase{"mpi.nb_flush", Backend::mpi, IovMethod::auto_, false,
                 nb_put_then_wait},
        SiteCase{"mpi3.issue", Backend::mpi3, IovMethod::auto_, false,
                 put_contig},
        SiteCase{"mpi3.nb_flush", Backend::mpi3, IovMethod::auto_, false,
                 nb_put_then_wait},
        SiteCase{"mpi3.nb_complete", Backend::mpi3, IovMethod::auto_, true,
                 nb_get_progress_then_wait}),
    [](const ::testing::TestParamInfo<SiteCase>& info) {
      std::string name = info.param.site;
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

}  // namespace
}  // namespace armci
