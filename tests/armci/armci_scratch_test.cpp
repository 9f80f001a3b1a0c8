// Scratch-safety test for the warm RMA path. The GA, ARMCI and mpisim
// layers keep their temporary buffers per rank and lease them per use
// (mpisim/scratch.hpp). Two origin ranks here issue nonblocking strided and
// IOV accumulates and gets to one target under exclusive-lock contention,
// so SimMutex::lock() hands the host thread from one origin to the other
// in the middle of each path; completion callbacks issue and wait for
// communication of their own, nesting the engine's paths on one rank. A
// buffer shared across ranks, or reused by a nested call, would corrupt a
// segment list or a batch, and some byte below would come out wrong. Run
// with the progress engine off and on (ticks under advance_compute).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {
namespace {

constexpr int kTarget = 2;
constexpr std::size_t kRows = 32;
constexpr std::size_t kCols = 32;
constexpr std::size_t kRowBytes = kCols * sizeof(double);
constexpr std::size_t kStrips = 8;        // per origin, 2 columns each
constexpr std::size_t kStripBytes = 16;   // 2 doubles
constexpr std::size_t kHalf = kRows / 2;  // rows [0, 16) strided, rest IOV
constexpr int kIters = 24;

/// Byte offset of origin \p r's strip \p j in row \p i: the origins own
/// interleaved 2-column strips, origin r the ones starting at column
/// 2r + 4j.
std::size_t strip_offset(int r, std::size_t i, std::size_t j) {
  return i * kRowBytes + (2 * static_cast<std::size_t>(r) + 4 * j) * 8;
}

/// Origin \p r's strips in rows [0, kHalf), as one 2-level strided
/// transfer between a dense local buffer and the target.
StridedSpec strided_half(bool remote_is_src) {
  StridedSpec s;
  s.stride_levels = 2;
  s.count = {kStripBytes, kStrips, kHalf};
  const std::vector<std::size_t> remote = {4 * 8, kRowBytes};
  const std::vector<std::size_t> local = {kStripBytes, kStrips * kStripBytes};
  s.src_strides = remote_is_src ? remote : local;
  s.dst_strides = remote_is_src ? local : remote;
  return s;
}

/// Origin \p r's strips in rows [kHalf, kRows), one IOV segment per strip,
/// between \p remote and the dense \p local (rows of kStrips strips).
Giov iov_half(int r, std::uint8_t* remote, std::uint8_t* local,
              bool remote_is_src) {
  Giov g;
  g.bytes = kStripBytes;
  for (std::size_t i = kHalf; i < kRows; ++i) {
    for (std::size_t j = 0; j < kStrips; ++j) {
      std::uint8_t* rp = remote + strip_offset(r, i, j);
      std::uint8_t* lp = local + ((i - kHalf) * kStrips + j) * kStripBytes;
      g.src.push_back(remote_is_src ? rp : lp);
      g.dst.push_back(remote_is_src ? lp : rp);
    }
  }
  return g;
}

class ArmciScratchTest : public ::testing::TestWithParam<bool> {};

TEST_P(ArmciScratchTest, ContendedStridedAndIovOpsKeepEveryByte) {
  mpisim::Config cfg;
  cfg.nranks = 3;
  cfg.platform = mpisim::Platform::infiniband;
  cfg.ranks_per_node = 1;  // every transfer takes the deferring remote path
  std::vector<double> target_values;
  int callbacks = 0;
  mpisim::run(cfg, [&] {
    Options o;
    o.backend = Backend::mpi;
    o.progress = GetParam();
    init(o);
    const std::vector<void*> bases = malloc_world(
        mpisim::rank() == kTarget ? kRows * kRowBytes : 0);
    if (mpisim::rank() == kTarget)
      std::memset(bases[static_cast<std::size_t>(kTarget)], 0,
                  kRows * kRowBytes);
    barrier();
    const int me = mpisim::rank();
    if (me != kTarget) {
      auto* remote = static_cast<std::uint8_t*>(
          bases[static_cast<std::size_t>(kTarget)]);
      const std::size_t n = kHalf * kStrips * 2;  // doubles per half
      const std::vector<double> ones(n, 1.0);
      std::vector<double> got_strided(n), got_iov(n), row_buf(kStrips * 2);
      const double scale = 1.0;
      const auto* src = reinterpret_cast<const std::uint8_t*>(ones.data());
      for (int k = 0; k < kIters; ++k) {
        const double want = k + 1;
        // Accumulate +1 into every owned element: rows [0, 16) strided,
        // rows [16, 32) as IOV.
        Request a = nb_acc_strided(AccType::float64, &scale, ones.data(),
                                   remote + strip_offset(me, 0, 0),
                                   strided_half(false), kTarget);
        const Giov acc_iov = iov_half(
            me, remote, const_cast<std::uint8_t*>(src), false);
        Request b = nb_acc_iov(AccType::float64, &scale, {&acc_iov, 1},
                               kTarget);
        // Completion callbacks that communicate: each nests an enqueue, a
        // callback of its own, a covering wait and the engine's callback
        // dispatch inside the dispatch that runs it, while the other may
        // still wait its turn.
        int checked = 0;
        const auto check_row = [&](std::size_t row) {
          return [&, row](std::exception_ptr e) {
            if (e) std::rethrow_exception(e);
            StridedSpec one_row = strided_half(true);
            one_row.count[2] = 1;
            Request g = nb_get_strided(remote + strip_offset(me, row, 0),
                                       row_buf.data(), one_row, kTarget);
            on_complete(g, [&](std::exception_ptr ge) {
              if (ge) std::rethrow_exception(ge);
              ++callbacks;
            });
            wait(g);
            for (double v : row_buf) EXPECT_EQ(v, want) << "row " << row;
            ++checked;
            ++callbacks;
          };
        };
        on_complete(a, check_row(0));
        on_complete(b, check_row(kRows - 1));
        // Compute: with the progress engine on, ticks drain the queues
        // (and may run the callback) from inside this charge.
        mpisim::clock().advance_compute(30'000.0);

        // Read every owned element back, strided and IOV, before waiting
        // for the accumulates: a read that conflicts with a queued
        // accumulate flushes that queue inside its own enqueue, and the
        // flush's contended lock switches origins mid-enqueue.
        Request gs = nb_get_strided(remote + strip_offset(me, 0, 0),
                                    got_strided.data(), strided_half(true),
                                    kTarget);
        const Giov get_iov = iov_half(
            me, remote, reinterpret_cast<std::uint8_t*>(got_iov.data()),
            true);
        Request gi = nb_get_iov({&get_iov, 1}, kTarget);
        wait(gs);
        wait(gi);
        wait(a);
        wait(b);
        EXPECT_EQ(checked, 2);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got_strided[i], want) << "strided element " << i;
          ASSERT_EQ(got_iov[i], want) << "iov element " << i;
        }
      }
    }
    barrier();
    if (me == kTarget) {
      const auto* t = static_cast<const double*>(
          bases[static_cast<std::size_t>(kTarget)]);
      target_values.assign(t, t + kRows * kCols);
    }
    barrier();
    free(bases[static_cast<std::size_t>(me)]);
    finalize();
  });
  // Every element belongs to exactly one origin's strips and took kIters
  // accumulates of 1.0.
  ASSERT_EQ(target_values.size(), kRows * kCols);
  for (std::size_t i = 0; i < target_values.size(); ++i)
    EXPECT_EQ(target_values[i], static_cast<double>(kIters)) << "byte "
                                                            << i * 8;
  EXPECT_EQ(callbacks, 2 * 4 * kIters);  // 2 origins, 2 + 2 nested each
}

INSTANTIATE_TEST_SUITE_P(Progress, ArmciScratchTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "ProgressOn" : "ProgressOff";
                         });

}  // namespace
}  // namespace armci
