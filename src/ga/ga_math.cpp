// Collective math routines over GlobalArray (GA_Zero, GA_Fill, GA_Scale,
// GA_Add, GA_Copy, GA_Ddot, GA_Dgemm). All are owner-computes: each process
// updates its own block under direct local access, then synchronizes.

#include <algorithm>
#include <cstring>

#include "src/ga/ga.hpp"
#include "src/ga/ga_impl.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/runtime.hpp"

namespace ga {

using mpisim::Errc;

namespace {

void require_conformable(const GlobalArray& a, const GlobalArray& b,
                         const char* what) {
  if (a.dims() != b.dims() || a.type() != b.type())
    mpisim::raise(Errc::invalid_argument,
                  std::string(what) + ": arrays are not conformable");
}

template <typename T, typename F>
void for_local(GlobalArray& g, F f) {
  g.sync();  // collective entry barrier (GA semantics): no one-sided op
             // from the previous phase may still be in flight
  Patch p;
  auto* ptr = static_cast<T*>(g.access(p));
  if (ptr != nullptr) f(ptr, p.num_elems());
  if (ptr != nullptr) g.release_update();
  g.sync();
}

}  // namespace

void GlobalArray::zero() {
  if (type() == ElemType::dbl) {
    for_local<double>(*this, [](double* p, std::int64_t n) {
      std::fill(p, p + n, 0.0);
    });
  } else {
    for_local<std::int64_t>(*this, [](std::int64_t* p, std::int64_t n) {
      std::fill(p, p + n, std::int64_t{0});
    });
  }
}

void GlobalArray::fill(const void* value) {
  if (type() == ElemType::dbl) {
    const double v = *static_cast<const double*>(value);
    for_local<double>(*this,
                      [v](double* p, std::int64_t n) { std::fill(p, p + n, v); });
  } else {
    const std::int64_t v = *static_cast<const std::int64_t*>(value);
    for_local<std::int64_t>(*this, [v](std::int64_t* p, std::int64_t n) {
      std::fill(p, p + n, v);
    });
  }
}

void GlobalArray::scale(const void* alpha) {
  if (type() == ElemType::dbl) {
    const double a = *static_cast<const double*>(alpha);
    for_local<double>(*this, [a](double* p, std::int64_t n) {
      for (std::int64_t i = 0; i < n; ++i) p[i] *= a;
    });
  } else {
    const std::int64_t a = *static_cast<const std::int64_t*>(alpha);
    for_local<std::int64_t>(*this, [a](std::int64_t* p, std::int64_t n) {
      for (std::int64_t i = 0; i < n; ++i) p[i] *= a;
    });
  }
}

void GlobalArray::add(const void* alpha, const GlobalArray& a,
                      const void* beta, const GlobalArray& b) {
  require_conformable(*this, a, "add");
  require_conformable(*this, b, "add");
  if (type() != ElemType::dbl)
    mpisim::raise(Errc::invalid_argument, "add supports double arrays");
  const double av = *static_cast<const double*>(alpha);
  const double bv = *static_cast<const double*>(beta);

  sync();
  detail::owner_computes<double, 2>(
      *this, {&a, &b}, [av, bv](double* c, const auto& x, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) c[i] = av * x[0][i] + bv * x[1][i];
      });
  sync();
}

void GlobalArray::copy_to(GlobalArray& dst) const {
  require_conformable(*this, dst, "copy");
  sync();
  // dst's block is the home; the source block opens first.
  const std::size_t esz = elem_size(type());
  detail::owner_computes<std::uint8_t, 1>(
      dst, {this},
      [esz](std::uint8_t* d, const auto& src, std::size_t n) {
        std::memcpy(d, src[0], n * esz);
      },
      /*operands_first=*/true);
  dst.sync();
}

double GlobalArray::ddot(const GlobalArray& other) const {
  require_conformable(*this, other, "ddot");
  if (type() != ElemType::dbl)
    mpisim::raise(Errc::invalid_argument, "ddot requires double arrays");
  sync();
  double local = 0.0;
  detail::owner_computes<double, 1>(
      const_cast<GlobalArray&>(*this), {&other},
      [&local](const double* x, const auto& y, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) local += x[i] * y[0][i];
      });
  double total = 0.0;
  mpisim::world().allreduce(&local, &total, 1, mpisim::BasicType::float64,
                            mpisim::Op::sum);
  return total;
}

void GlobalArray::transpose_from(const GlobalArray& a) {
  if (ndim() != 2 || a.ndim() != 2 || type() != a.type() ||
      dims()[0] != a.dims()[1] || dims()[1] != a.dims()[0])
    mpisim::raise(Errc::invalid_argument,
                  "transpose requires 2-d arrays with reversed dims");
  sync();
  Patch p;
  auto* out = static_cast<std::uint8_t*>(access(p));
  if (out != nullptr) {
    const std::size_t esz = elem_size(type());
    const std::int64_t rows = p.extent(0);
    const std::int64_t cols = p.extent(1);
    // Fetch the source patch a[p.lo1..p.hi1][p.lo0..p.hi0] and scatter it
    // transposed into the local block.
    std::vector<std::uint8_t> buf(static_cast<std::size_t>(rows * cols) * esz);
    Patch src;
    src.lo = {p.lo[1], p.lo[0]};
    src.hi = {p.hi[1], p.hi[0]};
    a.get(src, buf.data());
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j)
        std::memcpy(out + static_cast<std::size_t>(i * cols + j) * esz,
                    buf.data() + static_cast<std::size_t>(j * rows + i) * esz,
                    esz);
    release_update();
  }
  sync();
}

void GlobalArray::dgemm(char transa, char transb, double alpha,
                        const GlobalArray& a, const GlobalArray& b,
                        double beta, GlobalArray& c) {
  const bool ta = transa == 't' || transa == 'T';
  const bool tb = transb == 't' || transb == 'T';
  if (a.ndim() != 2 || b.ndim() != 2 || c.ndim() != 2 ||
      a.type() != ElemType::dbl || b.type() != ElemType::dbl ||
      c.type() != ElemType::dbl)
    mpisim::raise(Errc::invalid_argument, "dgemm requires 2-d double arrays");

  const std::int64_t m = c.dims()[0];
  const std::int64_t n = c.dims()[1];
  const std::int64_t k = ta ? a.dims()[0] : a.dims()[1];
  const std::int64_t am = ta ? a.dims()[1] : a.dims()[0];
  const std::int64_t bk = tb ? b.dims()[1] : b.dims()[0];
  const std::int64_t bn = tb ? b.dims()[0] : b.dims()[1];
  if (am != m || bk != k || bn != n)
    mpisim::raise(Errc::invalid_argument, "dgemm shape mismatch");

  c.sync();
  Patch cp;
  auto* cl = static_cast<double*>(c.access(cp));
  if (cl != nullptr) {
    const std::int64_t mi = cp.extent(0);
    const std::int64_t ni = cp.extent(1);
    for (std::int64_t i = 0; i < mi * ni; ++i) cl[i] *= beta;

    // Owner-computes over K blocks: get A and B panels one-sidedly, then a
    // local (naive) matrix multiply accumulates into the local C block.
    const std::int64_t kb = std::min<std::int64_t>(k, 128);
    std::vector<double> pa(static_cast<std::size_t>(mi * kb));
    std::vector<double> pb(static_cast<std::size_t>(kb * ni));
    for (std::int64_t k0 = 0; k0 < k; k0 += kb) {
      const std::int64_t kk = std::min(kb, k - k0);
      Patch ra;
      ra.lo = ta ? std::vector<std::int64_t>{k0, cp.lo[0]}
                 : std::vector<std::int64_t>{cp.lo[0], k0};
      ra.hi = ta ? std::vector<std::int64_t>{k0 + kk - 1, cp.hi[0]}
                 : std::vector<std::int64_t>{cp.hi[0], k0 + kk - 1};
      a.get(ra, pa.data());
      Patch rb;
      rb.lo = tb ? std::vector<std::int64_t>{cp.lo[1], k0}
                 : std::vector<std::int64_t>{k0, cp.lo[1]};
      rb.hi = tb ? std::vector<std::int64_t>{cp.hi[1], k0 + kk - 1}
                 : std::vector<std::int64_t>{k0 + kk - 1, cp.hi[1]};
      b.get(rb, pb.data());

      // pa layout: ta ? (kk x mi) : (mi x kk); pb: tb ? (ni x kk) : (kk x ni)
      for (std::int64_t i = 0; i < mi; ++i) {
        for (std::int64_t kk2 = 0; kk2 < kk; ++kk2) {
          const double av =
              ta ? pa[static_cast<std::size_t>(kk2 * mi + i)]
                 : pa[static_cast<std::size_t>(i * kk + kk2)];
          if (av == 0.0) continue;
          const double s = alpha * av;
          for (std::int64_t j = 0; j < ni; ++j) {
            const double bv =
                tb ? pb[static_cast<std::size_t>(j * kk + kk2)]
                   : pb[static_cast<std::size_t>(kk2 * ni + j)];
            cl[i * ni + j] += s * bv;
          }
        }
      }
    }
  }
  if (cl != nullptr) c.release_update();
  c.sync();
}

}  // namespace ga
