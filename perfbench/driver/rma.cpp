// rma: an ARMCI microbenchmark on 2 ranks of the InfiniBand profile over
// ARMCI-MPI, placed on different nodes so every call takes the window path.
// Rank 0 issues a seeded order of a fixed mix of contiguous, strided
// (direct subarray method) and IOV (batched method) put, get and acc to
// rank 1, with sizes from 8 B to 1 MiB (each drawn within 1/8 of its class
// size), and reads back what each put and acc left. Bandwidth-bound: no
// compute, GA, mutex or active messages.

#include <algorithm>
#include <cstring>

#include "workload.hpp"

namespace pb {

namespace {

constexpr int kRanks = 2;
constexpr int kTarget = 1;

enum class Family { contig, strided, iov };
enum class Kind { put, get, acc };

/// One unit of the mix: a get, or a put/acc followed by its readback.
struct Unit {
  Family family;
  Kind kind;
  std::size_t bytes;  ///< size class; each issue draws its size around it
};

struct Sizes {
  std::vector<std::size_t> bytes;  ///< transfer sizes of the mix
  std::size_t window;              ///< rank 1's allocation
  std::size_t pool;                ///< rank 0's source data
};

Sizes sizes(bool tiny) {
  if (tiny) return {{8, 64, 512, 4096}, 32 << 10, 16 << 10};
  return {{8, 64, 512, 4096, 32 << 10, 256 << 10, 1 << 20}, 4 << 20, 2 << 20};
}

/// Row geometry of a noncontiguous transfer of \p bytes: up to 16 rows of
/// at least 8 B; the remote side leaves a row-sized gap between rows.
struct Shape {
  std::size_t rows, row_bytes, stride;
  std::size_t footprint() const { return (rows - 1) * stride + row_bytes; }
};

Shape shape(Family f, std::size_t bytes) {
  if (f == Family::contig) return {1, bytes, bytes};
  const std::size_t rows = std::clamp<std::size_t>(bytes / 8, 1, 16);
  const std::size_t row = bytes / rows / 8 * 8;
  return {rows, row, 2 * row};
}

/// A size within 1/8 of class size \p cls, in whole doubles.
std::size_t draw_size(std::size_t cls, Rng& rng) {
  const std::size_t span = cls / 8 / 8;  // doubles either side
  return cls + 8 * rng.below(2 * span + 1) - 8 * span;
}

const char* call_name(Family f, Kind k) {
  static const char* const names[3][3] = {
      {"armci.put", "armci.get", "armci.acc"},
      {"armci.put_strided", "armci.get_strided", "armci.acc_strided"},
      {"armci.put_iov", "armci.get_iov", "armci.acc_iov"}};
  return names[static_cast<int>(f)][static_cast<int>(k)];
}

class Rma final : public Workload {
 public:
  explicit Rma(const Args& args) : args_(args), sz_(sizes(args.tiny)) {
    for (std::size_t b : sz_.bytes)
      for (Family f : {Family::contig, Family::strided, Family::iov})
        for (Kind k : {Kind::put, Kind::get, Kind::acc})
          mix_.push_back(Unit{f, k, b});
  }

  mpisim::Config config() const override {
    mpisim::Config cfg;
    cfg.nranks = kRanks;
    cfg.platform = mpisim::Platform::infiniband;
    cfg.ranks_per_node = 1;  // rank 1 is remote: no shared-memory path
    return cfg;
  }

  void reset() override {
    corrupted_ = false;
    round_bytes_.clear();
  }

  void body(Rank& rk) override {
    armci::Options o;
    o.backend = armci::Backend::mpi;
    o.strided_method = armci::StridedMethod::direct;
    o.iov_method = armci::IovMethod::batched;
    rk.call("armci.init", [&] { armci::init(rk.options(o)); });
    const bool origin = rk.rank == 0;
    std::vector<void*> base;
    rk.call("armci.malloc", [&] {
      base = armci::malloc_world(origin ? 0 : sz_.window);
    });
    if (!origin) {
      armci::access_begin(base[kTarget]);
      std::memset(base[kTarget], 0, sz_.window);
      armci::access_end(base[kTarget]);
    }
    armci::barrier();

    if (origin) setup_origin(rk, static_cast<char*>(base[kTarget]));
    rk.end_setup();

    std::uint64_t round = 0;
    while (rk.next_round()) {
      if (origin) {
        std::vector<Unit> order = mix_;
        Rng rng(stream_seed(args_.seed, 0, round));
        for (std::size_t i = order.size() - 1; i > 0; --i)
          std::swap(order[i], order[rng.below(i + 1)]);
        std::uint64_t bytes = 0;
        for (const Unit& u : order) bytes += run_unit(rk, u, rng, round);
        round_bytes_.push_back(bytes);
      }
      ++round;
    }

    armci::barrier();
    rk.call("armci.free", [&] { armci::free(origin ? nullptr : base[kTarget]); });
    rk.call("armci.finalize", [] { armci::finalize(); });
  }

  double ops(const RunResult& run) const override {
    return static_cast<double>(run.rounds) *
           static_cast<double>(calls_per_round());
  }

  void check_counts(const RunResult& run, Report& rep) const override {
    for (int i = 0; i < run.rounds; ++i) {
      const Counters c = round_counters(run, i);
      const std::uint64_t want_bytes = round_bytes_.at(static_cast<std::size_t>(i));
      rep.attempted += 1;
      if (c.rma_calls != calls_per_round() || c.bytes != want_bytes)
        rep.fail("round " + std::to_string(i) + ": ARMCI calls/bytes " +
                 std::to_string(c.rma_calls) + "/" + std::to_string(c.bytes) +
                 ", expected " + std::to_string(calls_per_round()) + "/" +
                 std::to_string(want_bytes));
    }
    rep.notes.push_back("invariant ARMCI calls/round " +
                        std::to_string(calls_per_round()) +
                        ", bytes as issued");
  }

 private:
  std::uint64_t calls_per_round() const {
    std::uint64_t n = 0;
    for (const Unit& u : mix_) n += u.kind == Kind::get ? 1 : 2;
    return n;
  }

  /// Rank 0's set-up: source data, the shadow of rank 1's memory, and one
  /// warm-up put/get.
  void setup_origin(Rank& rk, char* remote) {
    remote_ = remote;
    Rng rng(stream_seed(args_.seed, 1000, 0));
    pool_.resize(sz_.pool / sizeof(double));
    for (double& d : pool_) d = static_cast<double>(rng.below(16));
    shadow_.assign(sz_.window / sizeof(double), 0.0);
    readback_.resize(sz_.pool / sizeof(double));
    const double zero = 0.0;
    double got = 1.0;
    armci::put(&zero, remote_, sizeof zero, kTarget);
    armci::get(remote_, &got, sizeof got, kTarget);
    rk.check(got == 0.0, [] { return std::string("warm-up readback"); });
  }

  /// Issue one ARMCI call, timing it as one operation.
  template <typename F>
  void op(Rank& rk, Family f, Kind k, F&& fn) {
    const double v0 = mpisim::clock().now_ns();
    rk.call(call_name(f, k), fn);
    rk.log.op_virtual_us.push_back((mpisim::clock().now_ns() - v0) * 1e-3);
  }

  /// Move \p s.rows rows between local packed \p local and remote offset
  /// \p off with the family's method.
  void transfer(Rank& rk, Family f, Kind k, const Shape& s, double* local,
                std::size_t off) {
    char* rem = remote_ + off;
    const std::size_t bytes = s.rows * s.row_bytes;
    const double one = 1.0;
    if (f == Family::contig) {
      op(rk, f, k, [&] {
        if (k == Kind::put) armci::put(local, rem, bytes, kTarget);
        if (k == Kind::get) armci::get(rem, local, bytes, kTarget);
        if (k == Kind::acc)
          armci::acc(armci::AccType::float64, &one, local, rem, bytes,
                     kTarget);
      });
    } else if (f == Family::strided) {
      armci::StridedSpec spec;
      spec.stride_levels = 1;
      spec.count = {s.row_bytes, s.rows};
      const bool to_remote = k != Kind::get;
      spec.src_strides = {to_remote ? s.row_bytes : s.stride};
      spec.dst_strides = {to_remote ? s.stride : s.row_bytes};
      op(rk, f, k, [&] {
        if (k == Kind::put) armci::put_strided(local, rem, spec, kTarget);
        if (k == Kind::get) armci::get_strided(rem, local, spec, kTarget);
        if (k == Kind::acc)
          armci::acc_strided(armci::AccType::float64, &one, local, rem, spec,
                             kTarget);
      });
    } else {
      armci::Giov iov;
      iov.bytes = s.row_bytes;
      char* loc = reinterpret_cast<char*>(local);
      for (std::size_t r = 0; r < s.rows; ++r) {
        if (k == Kind::get) {
          iov.src.push_back(rem + r * s.stride);
          iov.dst.push_back(loc + r * s.row_bytes);
        } else {
          iov.src.push_back(loc + r * s.row_bytes);
          iov.dst.push_back(rem + r * s.stride);
        }
      }
      const armci::Giov* one_iov = &iov;
      op(rk, f, k, [&] {
        const std::span<const armci::Giov> v(one_iov, 1);
        if (k == Kind::put) armci::put_iov(v, kTarget);
        if (k == Kind::get) armci::get_iov(v, kTarget);
        if (k == Kind::acc)
          armci::acc_iov(armci::AccType::float64, &one, v, kTarget);
      });
    }
  }

  /// Read rows back from rank 1 and compare them with the shadow.
  void read_back(Rank& rk, Family f, const Shape& s, std::size_t off,
                 std::uint64_t round) {
    transfer(rk, f, Kind::get, s, readback_.data(), off);
    char* got = reinterpret_cast<char*>(readback_.data());
    if (args_.corrupt && round == 0 && !corrupted_) {
      got[0] ^= 1;
      corrupted_ = true;
    }
    const char* want = reinterpret_cast<const char*>(shadow_.data()) + off;
    bool same = true;
    for (std::size_t r = 0; r < s.rows && same; ++r)
      same = std::memcmp(got + r * s.row_bytes, want + r * s.stride,
                         s.row_bytes) == 0;
    rk.check(same, [&] {
      return std::string(call_name(f, Kind::get)) + " of " +
             std::to_string(s.rows * s.row_bytes) + " B at offset " +
             std::to_string(off) + " differs from what was written";
    });
  }

  /// Issue one unit; returns the bytes its ARMCI calls moved.
  std::uint64_t run_unit(Rank& rk, const Unit& u, Rng& rng,
                         std::uint64_t round) {
    const Shape s = shape(u.family, draw_size(u.bytes, rng));
    const std::size_t bytes = s.rows * s.row_bytes;
    const std::size_t off = 8 * rng.below((sz_.window - s.footprint()) / 8 + 1);
    if (u.kind == Kind::get) {
      read_back(rk, u.family, s, off, round);
      return bytes;
    }
    const std::size_t src = rng.below((sz_.pool - bytes) / sizeof(double) + 1);
    double* local = pool_.data() + src;
    transfer(rk, u.family, u.kind, s, local, off);
    const std::size_t row_doubles = s.row_bytes / sizeof(double);
    for (std::size_t r = 0; r < s.rows; ++r) {
      double* dst = shadow_.data() + (off + r * s.stride) / sizeof(double);
      const double* from = local + r * row_doubles;
      for (std::size_t i = 0; i < row_doubles; ++i)
        dst[i] = u.kind == Kind::put ? from[i] : dst[i] + from[i];
    }
    read_back(rk, u.family, s, off, round);
    return 2 * bytes;
  }

  Args args_;
  Sizes sz_;
  std::vector<Unit> mix_;
  // Rank 0's state.
  char* remote_ = nullptr;
  std::vector<double> pool_, shadow_, readback_;
  bool corrupted_ = false;
  std::vector<std::uint64_t> round_bytes_;  ///< bytes issued per round
};

}  // namespace

std::unique_ptr<Workload> make_rma(const Args& args) {
  return std::make_unique<Rma>(args);
}

}  // namespace pb
