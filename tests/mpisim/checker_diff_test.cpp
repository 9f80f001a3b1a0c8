// Differential suite for the RMA validity checker (src/mpisim/checker.hpp):
// seeded random sequences of epochs, flushes, operations and direct
// accesses on one window, driven straight through the RmaChecker API, must
// count exactly the violations, class by class, that a brute-force per-byte
// model of the same MPI-2 rules counts. Targeted cases pin the edges of the
// checker's per-operation coverage selection. Each checker gets its mode
// from its constructor, so MPISIM_RMA_CHECK does not change what runs here.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/mpisim/checker.hpp"
#include "src/mpisim/datatype.hpp"
#include "src/mpisim/error.hpp"

namespace mpisim {
namespace {

using OpKind = RmaChecker::OpKind;

constexpr std::uint64_t kWin = 7;
constexpr int kRanks = 3;       // origins 0..2; targets 0..1
constexpr int kTargets = 2;
constexpr std::ptrdiff_t kBytes = 96;  // window slice per target

/// Runs a checker call, swallowing the rma_conflict that abort and race
/// modes raise when pending violations are reported.
template <typename Fn>
void reporting(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    ASSERT_EQ(e.code(), Errc::rma_conflict) << e.what();
  }
}

/// Sends stderr to /dev/null while alive (warn mode prints every
/// violation).
class QuietStderr {
 public:
  QuietStderr() : saved_(dup(STDERR_FILENO)) {
    std::fflush(stderr);
    const int null = open("/dev/null", O_WRONLY);
    if (null >= 0) {
      dup2(null, STDERR_FILENO);
      close(null);
    }
  }
  ~QuietStderr() {
    std::fflush(stderr);
    if (saved_ >= 0) {
      dup2(saved_, STDERR_FILENO);
      close(saved_);
    }
  }
  QuietStderr(const QuietStderr&) = delete;
  QuietStderr& operator=(const QuietStderr&) = delete;

 private:
  int saved_;
};

/// The brute-force model: every recorded access is a per-byte flag set.
class Reference {
 public:
  struct Bytes {
    std::array<bool, kBytes> read{};
    std::array<bool, kBytes> write{};
    std::array<std::array<bool, kBytes>, kOpCount> acc{};
    bool any = false;

    void clear() { *this = Bytes(); }
    void add(OpKind kind, Op op, std::ptrdiff_t lo, std::ptrdiff_t hi) {
      for (std::ptrdiff_t b = lo; b < hi; ++b) {
        if (kind == OpKind::get)
          read[static_cast<std::size_t>(b)] = true;
        else if (kind == OpKind::put)
          write[static_cast<std::size_t>(b)] = true;
        else
          acc[static_cast<std::size_t>(op)][static_cast<std::size_t>(b)] =
              true;
      }
      any = any || lo < hi;
    }
  };

  /// Which recorded class an access of [lo, hi) conflicts with first, in
  /// the checker's order (reads, writes, then accumulates by operator).
  enum class Hit { none, read, write, acc };
  static Hit hit(const Bytes& s, OpKind kind, Op op, std::ptrdiff_t lo,
                 std::ptrdiff_t hi) {
    const auto in = [&](const std::array<bool, kBytes>& a) {
      for (std::ptrdiff_t b = lo; b < hi; ++b)
        if (a[static_cast<std::size_t>(b)]) return true;
      return false;
    };
    if (kind != OpKind::get && in(s.read)) return Hit::read;
    if (in(s.write)) return Hit::write;
    for (std::size_t i = 0; i < kOpCount; ++i) {
      const bool mixes = kind == OpKind::put || kind == OpKind::get ||
                         !acc_ops_compatible(static_cast<Op>(i), op);
      if (mixes && in(s.acc[i])) return Hit::acc;
    }
    return Hit::none;
  }
  static RmaViolation classify(OpKind kind, Hit h, bool same_origin) {
    if (h == Hit::acc || kind == OpKind::acc || kind == OpKind::get_acc)
      return RmaViolation::acc_mix;
    return same_origin ? RmaViolation::same_origin : RmaViolation::concurrent;
  }

  struct Epoch {
    bool mpi3 = false;
    Bytes bytes;
    std::vector<std::shared_ptr<const Bytes>> ghosts;
  };
  struct Local {
    std::ptrdiff_t lo, hi;
    bool write, covered, shm, acc;
    Op op;
    int accessor;
  };

  bool is_open(int target, int origin) const {
    return epochs_.count({target, origin}) != 0;
  }

  void open(int target, int origin, bool mpi3) {
    epochs_[{target, origin}] = Epoch{mpi3, {}, {}};
  }

  void close(int target, int origin) {
    const auto it = epochs_.find({target, origin});
    const Epoch ep = it->second;
    epochs_.erase(it);
    if (ep.mpi3 || !ep.bytes.any) return;
    const auto ghost = std::make_shared<const Bytes>(ep.bytes);
    for (auto& [key, other] : epochs_)
      if (key.first == target && !other.mpi3) other.ghosts.push_back(ghost);
  }

  void flush(int target, int origin) {
    Epoch& ep = epochs_.at({target, origin});
    ep.bytes.clear();
    ep.ghosts.clear();
  }

  void record(int target, int origin, OpKind kind, Op op, std::ptrdiff_t disp,
              std::vector<Segment> segs) {
    const auto it = epochs_.find({target, origin});
    if (it == epochs_.end()) return;
    Epoch& ep = it->second;
    const bool writes_target = kind == OpKind::put || kind == OpKind::acc ||
                               (kind == OpKind::get_acc && op != Op::no_op);
    const bool acc_class = kind == OpKind::acc || kind == OpKind::get_acc;
    std::stable_sort(segs.begin(), segs.end(),
                     [](const Segment& a, const Segment& b) {
                       return a.offset < b.offset;
                     });
    Bytes mine;  // this operation's earlier segments
    for (const Segment& s : segs) {
      const std::ptrdiff_t lo = disp + s.offset;
      const std::ptrdiff_t hi = lo + static_cast<std::ptrdiff_t>(s.length);
      if (lo >= hi) continue;
      if (!ep.mpi3) {
        Hit h = hit(ep.bytes, kind, op, lo, hi);
        if (h == Hit::none) h = hit(mine, kind, op, lo, hi);
        if (h != Hit::none) count(origin, classify(kind, h, true));
        for (const auto& [key, other] : epochs_) {
          if (key.first != target || key.second == origin || other.mpi3)
            continue;
          const Hit oh = hit(other.bytes, kind, op, lo, hi);
          if (oh != Hit::none) count(origin, classify(kind, oh, false));
        }
        for (const auto& g : ep.ghosts) {
          const Hit gh = hit(*g, kind, op, lo, hi);
          if (gh != Hit::none) count(origin, classify(kind, gh, false));
        }
      }
      for (const auto& [key, l] : locals_) {
        if (std::get<0>(key) != target || l.covered) continue;
        if (ep.mpi3 && !l.shm) continue;
        if (l.shm && l.accessor == origin) continue;
        if (l.hi <= lo || hi <= l.lo) continue;
        if (!l.write && !writes_target) continue;
        if (l.acc && acc_class && acc_ops_compatible(op, l.op)) continue;
        count(origin, RmaViolation::local);
      }
      mine.add(kind, op, lo, hi);
    }
    for (const Segment& s : segs)
      ep.bytes.add(kind, op, disp + s.offset,
                   disp + s.offset + static_cast<std::ptrdiff_t>(s.length));
  }

  /// A direct access checked against the target's open epochs and their
  /// ghosts; recorded unless \p transient (a shm fast-path operation).
  void direct(int target, const Local& l, OpKind kind, Op op, int rank,
              bool transient) {
    if (!l.covered) {
      for (const auto& [key, ep] : epochs_) {
        if (key.first != target) continue;
        if (ep.mpi3 && (!l.shm || key.second == l.accessor)) continue;
        if (hit(ep.bytes, kind, op, l.lo, l.hi) != Hit::none)
          count(rank, RmaViolation::local);
        for (const auto& g : ep.ghosts)
          if (hit(*g, kind, op, l.lo, l.hi) != Hit::none)
            count(rank, RmaViolation::local);
      }
    }
    if (!transient) locals_[{target, l.accessor, l.lo}] = l;
  }

  void end(int target, int accessor, std::ptrdiff_t lo) {
    locals_.erase({target, accessor, lo});
  }

  /// Keys of the open direct accesses, for drawing an access_end.
  std::vector<std::tuple<int, int, std::ptrdiff_t>> local_keys() const {
    std::vector<std::tuple<int, int, std::ptrdiff_t>> keys;
    for (const auto& [key, l] : locals_) keys.push_back(key);
    return keys;
  }

  std::uint64_t counted(int rank, RmaViolation v) const {
    return counts_[static_cast<std::size_t>(rank)]
                  [static_cast<std::size_t>(v)];
  }

 private:
  void count(int rank, RmaViolation v) {
    ++counts_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(v)];
  }

  std::map<std::pair<int, int>, Epoch> epochs_;  // (target, origin)
  std::map<std::tuple<int, int, std::ptrdiff_t>, Local> locals_;
  std::array<std::array<std::uint64_t, kRmaViolationCount>, kRanks>
      counts_{};
};

std::uint64_t class_count(const RmaCheckCounts& c, RmaViolation v) {
  switch (v) {
    case RmaViolation::same_origin: return c.same_origin;
    case RmaViolation::concurrent: return c.concurrent;
    case RmaViolation::acc_mix: return c.acc_mix;
    case RmaViolation::local: return c.local;
    case RmaViolation::discipline: return c.discipline;
  }
  return 0;
}

/// A segment list in one of the shapes datatypes and IOV descriptors give:
/// ascending with gaps, touching, descending, self-overlapping, or random;
/// some segments are empty.
std::vector<Segment> draw_segments(std::mt19937_64& rng, std::ptrdiff_t room) {
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::ptrdiff_t>(rng() % n);
  };
  const std::ptrdiff_t n = 1 + pick(pick(4) == 0 ? 24 : 6);
  const int shape = static_cast<int>(pick(5));
  std::vector<Segment> segs;
  std::ptrdiff_t pos = 0;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t len = pick(8) == 0 ? 0 : 1 + pick(6);
    std::ptrdiff_t off = 0;
    switch (shape) {
      case 0: off = pos; pos += len + pick(4); break;   // ascending, gaps
      case 1: off = pos; pos += len; break;             // touching
      case 2: off = room - len - pos; pos += len + pick(3); break;  // down
      case 3: off = pos; pos += pick(len + 1); break;   // self-overlapping
      default: off = pick(static_cast<std::uint64_t>(room)); break;
    }
    off = std::clamp<std::ptrdiff_t>(off, 0, room - len);
    segs.push_back({off, static_cast<std::size_t>(len)});
  }
  return segs;
}

/// One seeded sequence through \p chk and the model; after every step the
/// per-rank, per-class counts must agree.
void run_sequence(RmaCheck mode, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return static_cast<int>(rng() % n); };
  RmaChecker chk(mode, kRanks);
  Reference ref;
  constexpr std::array<Op, 5> kOps = {Op::sum, Op::sum, Op::prod, Op::replace,
                                      Op::no_op};
  const int steps = 10 + pick(50);
  for (int step = 0; step < steps; ++step) {
    const int target = pick(kTargets);
    const int origin = pick(kRanks);
    const int r = pick(100);
    if (r < 18) {
      // Open an exclusive, shared or lock_all epoch (the checker leaves
      // lock compatibility to the window layer).
      if (ref.is_open(target, origin)) continue;
      const int how = pick(4);
      chk.epoch_opened(kWin, target, origin, how == 0, how == 3);
      ref.open(target, origin, how == 3);
    } else if (r < 28) {
      if (!ref.is_open(target, origin)) continue;
      reporting([&] { chk.epoch_closing(kWin, target, origin); });
      ref.close(target, origin);
    } else if (r < 33) {
      if (!ref.is_open(target, origin)) continue;
      reporting([&] { chk.epoch_flushed(kWin, target, origin); });
      ref.flush(target, origin);
    } else if (r < 80) {
      const auto kind = static_cast<OpKind>(pick(4));
      const Op op = kOps[static_cast<std::size_t>(pick(kOps.size()))];
      const std::ptrdiff_t disp = pick(kBytes / 2);
      const std::vector<Segment> segs = draw_segments(rng, kBytes - disp);
      chk.record_op(kWin, target, origin, origin, kind, op, disp, segs,
                    nullptr);
      ref.record(target, origin, kind, op, disp, segs);
    } else if (r < 95) {
      // A direct access: the owner's local load/store, a held-open shm
      // access, or a one-shot shm operation.
      Reference::Local l{};
      l.lo = pick(kBytes - 1);
      l.hi = l.lo + 1 + pick(static_cast<std::uint64_t>(
                            std::min<std::ptrdiff_t>(12, kBytes - l.lo)));
      const int how = pick(3);
      if (how == 0) {
        l.write = pick(2) == 0;
        l.covered = pick(4) == 0;
        l.accessor = target;
        l.op = Op::replace;
        chk.local_begin(kWin, target, target, l.lo, l.hi, l.write, l.covered,
                        nullptr);
        ref.direct(target, l, l.write ? OpKind::put : OpKind::get,
                   Op::replace, target, false);
        continue;
      }
      const auto kind = static_cast<OpKind>(pick(3));  // put, get, acc
      const Op op = kOps[static_cast<std::size_t>(pick(kOps.size()))];
      l.write = kind != OpKind::get;
      l.shm = true;
      l.acc = kind == OpKind::acc;
      l.op = op;
      l.accessor = origin;
      if (how == 1) {
        chk.shm_begin(kWin, target, origin, origin, kind, op, l.lo, l.hi,
                      nullptr);
      } else {
        reporting([&] {
          chk.shm_op(kWin, target, origin, origin, kind, op, l.lo, l.hi,
                     nullptr);
        });
      }
      ref.direct(target, l, kind, op, origin, how == 2);
    } else {
      const auto keys = ref.local_keys();
      if (keys.empty()) continue;
      const auto [t, accessor, lo] =
          keys[static_cast<std::size_t>(pick(keys.size()))];
      reporting([&, t = t, accessor = accessor, lo = lo] {
        chk.access_end(kWin, t, accessor, lo);
      });
      ref.end(t, accessor, lo);
    }
    for (int rank = 0; rank < kRanks; ++rank) {
      const RmaCheckCounts got = chk.counts(rank);
      for (int v = 0; v < kRmaViolationCount; ++v) {
        const auto cls = static_cast<RmaViolation>(v);
        ASSERT_EQ(class_count(got, cls), ref.counted(rank, cls))
            << rma_violation_name(cls) << " violations of rank " << rank
            << " after step " << step << " (seed " << seed << ", mode "
            << rma_check_name(mode) << ")";
      }
    }
  }
}

class CheckerDiffTest : public ::testing::TestWithParam<RmaCheck> {};

TEST_P(CheckerDiffTest, RandomSequencesCountLikePerByteModel) {
  const QuietStderr quiet;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    run_sequence(GetParam(), seed);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckerDiffTest,
                         ::testing::Values(RmaCheck::warn, RmaCheck::abort,
                                           RmaCheck::race),
                         [](const auto& info) {
                           return std::string(rma_check_name(info.param));
                         });

/// The message an abort-mode report raises, or "" when nothing is raised.
template <typename Fn>
std::string raised(Fn&& fn) {
  try {
    fn();
  } catch (const MpiError& e) {
    return e.what();
  }
  return {};
}

// An ascending operation that starts below what its epoch already recorded
// is merged, not appended: the gap it leaves stays clean and its own bytes
// conflict afterwards.
TEST(CheckerDiffEdgeTest, AscendingOpBelowEpochEndIsMerged) {
  RmaChecker chk(RmaCheck::abort, 1);
  chk.epoch_opened(kWin, 0, 0, /*exclusive=*/true, /*mpi3=*/false);
  const Segment high[] = {{32, 8}};
  chk.record_op(kWin, 0, 0, 0, OpKind::put, Op::replace, 0, high, nullptr);
  const Segment low[] = {{0, 8}, {16, 8}};
  chk.record_op(kWin, 0, 0, 0, OpKind::put, Op::replace, 0, low, nullptr);
  EXPECT_EQ(chk.counts(0).total(), 0u);
  const Segment gap[] = {{8, 8}, {24, 8}};
  chk.record_op(kWin, 0, 0, 0, OpKind::get, Op::replace, 0, gap, nullptr);
  EXPECT_EQ(chk.counts(0).total(), 0u);
  const Segment hits[] = {{4, 1}, {20, 1}, {36, 1}};
  chk.record_op(kWin, 0, 0, 0, OpKind::get, Op::replace, 0, hits, nullptr);
  EXPECT_EQ(chk.counts(0).same_origin, 3u);
  const std::string msg = raised([&] { chk.epoch_closing(kWin, 0, 0); });
  EXPECT_NE(msg.find("a put to bytes [0, 8)"), std::string::npos) << msg;
}

// An operation whose extent spans another epoch's recorded bytes, while its
// segments fall only in the holes between them, conflicts with nothing.
TEST(CheckerDiffEdgeTest, HullSpanningOtherEpochWithoutTouchingIsClean) {
  RmaChecker chk(RmaCheck::abort, 2);
  chk.epoch_opened(kWin, 0, 0, /*exclusive=*/false, /*mpi3=*/false);
  chk.epoch_opened(kWin, 0, 1, /*exclusive=*/false, /*mpi3=*/false);
  const Segment other[] = {{16, 8}, {40, 8}};
  chk.record_op(kWin, 0, 0, 0, OpKind::put, Op::replace, 0, other, nullptr);
  const Segment around[] = {{0, 16}, {24, 16}, {48, 16}};
  chk.record_op(kWin, 0, 1, 1, OpKind::put, Op::replace, 0, around, nullptr);
  EXPECT_EQ(chk.counts(1).total(), 0u);
  const Segment touch[] = {{47, 1}};
  chk.record_op(kWin, 0, 1, 1, OpKind::get, Op::replace, 0, touch, nullptr);
  EXPECT_EQ(chk.counts(1).concurrent, 1u);
  EXPECT_EQ(chk.counts(1).total(), 1u);
  const std::string msg = raised([&] { chk.epoch_closing(kWin, 0, 1); });
  EXPECT_NE(msg.find("get on bytes [47, 48)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("a put to bytes [40, 48)"), std::string::npos) << msg;
  EXPECT_EQ(raised([&] { chk.epoch_closing(kWin, 0, 0); }), "");
}

// Touching segments share no byte, so they stay separate recorded ranges:
// a later conflict names the lower one alone.
TEST(CheckerDiffEdgeTest, TouchingSegmentsStaySeparateRanges) {
  RmaChecker chk(RmaCheck::abort, 1);
  chk.epoch_opened(kWin, 0, 0, /*exclusive=*/true, /*mpi3=*/false);
  const Segment touching[] = {{0, 8}, {8, 8}, {16, 8}};
  chk.record_op(kWin, 0, 0, 0, OpKind::put, Op::replace, 0, touching,
                nullptr);
  EXPECT_EQ(chk.counts(0).total(), 0u);
  const Segment across[] = {{6, 4}};
  chk.record_op(kWin, 0, 0, 0, OpKind::get, Op::replace, 0, across, nullptr);
  EXPECT_EQ(chk.counts(0).same_origin, 1u);
  const std::string msg = raised([&] { chk.epoch_closing(kWin, 0, 0); });
  EXPECT_NE(msg.find("conflicts with a put to bytes [0, 8) recorded"),
            std::string::npos)
      << msg;
}

}  // namespace
}  // namespace mpisim
