// Element-wise scatter/gather (GA_Scatter / GA_Gather / GA_Scatter_acc) and
// element-selection / element-wise-multiply collectives.
//
// Scatter/gather are the GA operations that map onto ARMCI's generalized
// I/O vector interface: subscripts are bucketed by owner and each owner
// receives one IOV descriptor whose segments are single elements -- the
// many-small-segments regime the paper's IOV methods (§VI-A) exist for.

#include <limits>
#include <map>

#include "src/armci/armci.hpp"
#include "src/armci/state.hpp"
#include "src/ga/ga.hpp"
#include "src/ga/ga_impl.hpp"
#include "src/ga/layout.hpp"
#include "src/mpisim/comm.hpp"
#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace ga {

using mpisim::Errc;

namespace {

enum class ElemXfer { put, get, acc };

void element_xfer(detail::GaImpl& ga, ElemXfer kind, void* values,
                  std::span<const std::int64_t> subs, std::int64_t n,
                  const void* alpha) {
  const std::size_t nd = static_cast<std::size_t>(ga.dist.ndim());
  const std::size_t esz = elem_size(ga.type);
  if (n < 0)
    mpisim::raise(Errc::invalid_argument, "negative element count");
  if (subs.size() != static_cast<std::size_t>(n) * nd)
    mpisim::raise(Errc::invalid_argument,
                  "subscript array must hold n * ndim entries");

  // Route every element up front. scatter needs the full list before
  // bucketing: with duplicate subscripts its semantics are last-writer-wins
  // (location consistency), so only the final occurrence of each remote
  // element may enter the IOV -- both the conservative and the
  // direct/deferred paths treat overlapping destination segments in one
  // descriptor as erroneous.
  std::vector<detail::Route> routes(static_cast<std::size_t>(n));
  std::map<const void*, std::int64_t> last_writer;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::span<const std::int64_t> idx =
        subs.subspan(static_cast<std::size_t>(i) * nd, nd);
    const int proc = ga.dist.owner_of(idx);
    const detail::Route& rt = routes[static_cast<std::size_t>(i)] =
        detail::route(ga, proc,
                      detail::element_offset(ga.dist.patch_of(proc), idx, esz));
    if (kind == ElemXfer::put) last_writer[rt.primary] = i;
  }

  // Bucket elements by the absolute process each transfer is issued to,
  // preserving per-owner order. Duplicates are dropped only for scatter;
  // gather reads a duplicate into each of its (distinct) destinations, and
  // scatter_acc applies every contribution -- accumulation is commutative,
  // so all duplicates must land. Replicated arrays write through to the
  // buddy replica and fail gets over to it when the owner has died.
  std::map<int, armci::Giov> per_owner;
  const auto push = [&](int proc, const void* src, void* dst) {
    armci::Giov& g = per_owner[proc];
    g.bytes = esz;
    g.src.push_back(src);
    g.dst.push_back(dst);
  };
  int dead_owner = -1;
  for (std::int64_t i = 0; i < n; ++i) {
    const detail::Route& rt = routes[static_cast<std::size_t>(i)];
    auto* local = static_cast<std::uint8_t*>(values) +
                  static_cast<std::size_t>(i) * esz;
    if (kind == ElemXfer::get) {
      if (rt.fails_over()) {
        push(rt.buddy_proc, rt.replica, local);
        ++armci::state().stats.failovers;
        dead_owner = rt.owner_proc;
      } else {
        push(rt.owner_proc, rt.primary, local);
      }
      continue;
    }
    if (kind == ElemXfer::put && last_writer[rt.primary] != i) continue;
    if (!rt.owner_dead) push(rt.owner_proc, local, rt.primary);
    if (rt.writes_replica()) {
      push(rt.buddy_proc, local, rt.replica);
      ++armci::state().stats.replica_writes;
    }
  }
  if (dead_owner >= 0) detail::note_death_observed(dead_owner);

  // One nonblocking IOV batch per owner, one covering wait: the
  // aggregation engine overlaps the per-owner epochs (see region_xfer).
  const armci::AccType at = detail::acc_type(ga);
  detail::OwnerOps ops;
  for (auto& [proc, giov] : per_owner) {
    const std::span<const armci::Giov> one(&giov, 1);
    ops.add(kind == ElemXfer::put   ? armci::nb_put_iov(one, proc)
            : kind == ElemXfer::get ? armci::nb_get_iov(one, proc)
                                    : armci::nb_acc_iov(at, alpha, one, proc));
    ++ops.owners;
  }
  armci::Request req = ops.finish();
  armci::wait(req);
}

}  // namespace

void GlobalArray::scatter(const void* values,
                          std::span<const std::int64_t> subs,
                          std::int64_t n) {
  element_xfer(*impl_, ElemXfer::put, const_cast<void*>(values), subs, n,
               nullptr);
}

void GlobalArray::gather(void* values, std::span<const std::int64_t> subs,
                         std::int64_t n) const {
  element_xfer(*impl_, ElemXfer::get, values, subs, n, nullptr);
}

void GlobalArray::scatter_acc(const void* values,
                              std::span<const std::int64_t> subs,
                              std::int64_t n, const void* alpha) {
  if (alpha == nullptr)
    mpisim::raise(Errc::invalid_argument, "scatter_acc with null alpha");
  element_xfer(*impl_, ElemXfer::acc, const_cast<void*>(values), subs, n,
               alpha);
}

void GlobalArray::elem_multiply(const GlobalArray& a, const GlobalArray& b) {
  if (dims() != a.dims() || dims() != b.dims() || type() != ElemType::dbl ||
      a.type() != ElemType::dbl || b.type() != ElemType::dbl)
    mpisim::raise(Errc::invalid_argument,
                  "elem_multiply requires conformable double arrays");
  sync();
  detail::owner_computes<double, 2>(
      *this, {&a, &b}, [](double* c, const auto& x, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) c[i] = x[0][i] * x[1][i];
      });
  sync();
}

GlobalArray::Selected GlobalArray::select_elem(SelectOp op) const {
  if (type() != ElemType::dbl)
    mpisim::raise(Errc::invalid_argument,
                  "select_elem requires a double array");
  sync();
  auto& self = const_cast<GlobalArray&>(*this);
  Patch p;
  const auto* blk = static_cast<const double*>(self.access(p));

  // Local candidate: best value plus its *flattened global* index, so ties
  // resolve deterministically toward the lowest index.
  struct Cand {
    double value;
    std::int64_t flat;
  };
  const std::size_t nd = static_cast<std::size_t>(ndim());
  Cand mine{op == SelectOp::max ? -std::numeric_limits<double>::infinity()
                                : std::numeric_limits<double>::infinity(),
            std::numeric_limits<std::int64_t>::max()};
  if (blk != nullptr) {
    std::vector<std::int64_t> idx(p.lo);
    const std::int64_t n = p.num_elems();
    for (std::int64_t i = 0; i < n; ++i) {
      const double v = blk[i];
      const bool better = op == SelectOp::max ? v > mine.value : v < mine.value;
      if (better) {
        std::int64_t flat = 0;
        for (std::size_t d = 0; d < nd; ++d) flat = flat * dims()[d] + idx[d];
        mine = {v, flat};
      }
      // Advance the n-d index within the block (row-major).
      for (std::size_t d = nd; d-- > 0;) {
        if (++idx[d] <= p.hi[d]) break;
        idx[d] = p.lo[d];
      }
    }
  }
  if (blk != nullptr) self.release();

  // Exchange all candidates; everyone picks the same winner.
  std::vector<Cand> all(static_cast<std::size_t>(mpisim::nranks()));
  mpisim::world().allgather(&mine, all.data(), sizeof(Cand));
  Cand best = mine;
  for (std::size_t r = 0; r < all.size(); ++r) {
    // A dead rank's slot was excused by the FT allgather and holds a
    // zero-initialized candidate; it must not win the selection.
    if (mpisim::ctx().core().is_failed(static_cast<int>(r))) continue;
    const Cand& c = all[r];
    const bool better =
        op == SelectOp::max
            ? (c.value > best.value ||
               (c.value == best.value && c.flat < best.flat))
            : (c.value < best.value ||
               (c.value == best.value && c.flat < best.flat));
    if (better) best = c;
  }

  Selected out;
  out.value = best.value;
  out.subscript.assign(nd, 0);
  std::int64_t rem = best.flat;
  for (std::size_t d = nd; d-- > 0;) {
    out.subscript[d] = rem % dims()[d];
    rem /= dims()[d];
  }
  sync();
  return out;
}

}  // namespace ga
