#include "src/ga/distribution.hpp"

#include <algorithm>
#include <array>

#include "src/mpisim/error.hpp"

namespace ga {

using mpisim::Errc;

std::int64_t Patch::num_elems() const noexcept {
  std::int64_t n = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) {
    if (hi[d] < lo[d]) return 0;
    n *= hi[d] - lo[d] + 1;
  }
  return n;
}

namespace {

/// Prime factors of n, descending.
std::vector<int> prime_factors_desc(int n) {
  std::vector<int> f;
  for (int p = 2; p * p <= n; ++p)
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  if (n > 1) f.push_back(n);
  std::sort(f.rbegin(), f.rend());
  return f;
}

}  // namespace

Distribution::Distribution(std::span<const std::int64_t> dims, int nprocs,
                           std::span<const std::int64_t> chunk,
                           int ranks_per_node) {
  if (dims.empty()) mpisim::raise(Errc::invalid_argument, "0-d array");
  if (nprocs < 1) mpisim::raise(Errc::invalid_argument, "nprocs < 1");
  for (std::int64_t d : dims)
    if (d <= 0) mpisim::raise(Errc::invalid_argument, "nonpositive dimension");
  if (!chunk.empty() && chunk.size() != dims.size())
    mpisim::raise(Errc::invalid_argument, "chunk/dims rank mismatch");

  dims_.assign(dims.begin(), dims.end());
  const std::size_t nd = dims_.size();
  grid_.assign(nd, 1);

  // Per-dimension cap on the number of blocks (chunk hints; GA semantics:
  // blocks are at least `chunk[d]` wide).
  std::vector<std::int64_t> cap(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::int64_t min_block =
        chunk.empty() ? 1 : std::max<std::int64_t>(chunk[d], 1);
    cap[d] = std::max<std::int64_t>(1, dims_[d] / min_block);
  }

  // Greedy grid factorization (MPI_Dims_create flavor): hand each prime
  // factor of nprocs to the dimension with the largest per-block extent
  // that can still accept it.
  for (int f : prime_factors_desc(nprocs)) {
    std::size_t best = nd;
    double best_len = -1.0;
    for (std::size_t d = 0; d < nd; ++d) {
      if (static_cast<std::int64_t>(grid_[d]) * f > cap[d]) continue;
      const double len = static_cast<double>(dims_[d]) / grid_[d];
      if (len > best_len) {
        best_len = len;
        best = d;
      }
    }
    if (best == nd) continue;  // factor unusable: some procs own nothing
    grid_[best] *= f;
  }

  starts_.resize(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const int g = grid_[d];
    starts_[d].resize(static_cast<std::size_t>(g) + 1);
    for (int i = 0; i <= g; ++i)
      starts_[d][static_cast<std::size_t>(i)] =
          dims_[d] * i / g;
  }

  // Node-aware cell-to-process mapping: factor ranks_per_node into a
  // sub-brick shape local[d] (each local[d] dividing grid_[d]), then map
  // every brick of spatially adjacent cells to consecutive process ids.
  // Consecutive ids share a node (the node map is id / ranks_per_node and
  // the brick volume divides ranks_per_node), so neighboring tiles cluster
  // on one node. Factors that fit no dimension are dropped: partial
  // clustering still shortens the average tile-to-tile distance.
  if (ranks_per_node > 1) {
    std::vector<int> local(nd, 1);
    for (int f : prime_factors_desc(ranks_per_node)) {
      std::size_t best = nd;
      int best_bricks = 0;
      for (std::size_t d = 0; d < nd; ++d) {
        if (grid_[d] % (local[d] * f) != 0) continue;
        const int bricks = grid_[d] / local[d];
        if (bricks > best_bricks) {
          best_bricks = bricks;
          best = d;
        }
      }
      if (best != nd) local[best] *= f;
    }
    int brick_vol = 1;
    for (int l : local) brick_vol *= l;
    if (brick_vol > 1) {
      const int ncells = owning_procs();
      cell_to_proc_.resize(static_cast<std::size_t>(ncells));
      proc_to_cell_.resize(static_cast<std::size_t>(ncells));
      std::vector<int> cell(nd, 0);
      for (int c = 0; c < ncells; ++c) {
        int brick = 0, within = 0;
        for (std::size_t d = 0; d < nd; ++d) {
          brick = brick * (grid_[d] / local[d]) + cell[d] / local[d];
          within = within * local[d] + cell[d] % local[d];
        }
        const int proc = brick * brick_vol + within;
        cell_to_proc_[static_cast<std::size_t>(c)] = proc;
        proc_to_cell_[static_cast<std::size_t>(proc)] = c;
        for (std::size_t d = nd; d-- > 0;) {
          if (++cell[d] < grid_[d]) break;
          cell[d] = 0;
        }
      }
    }
  }
}

Distribution::Distribution(
    std::span<const std::int64_t> dims,
    std::span<const std::vector<std::int64_t>> block_starts) {
  if (dims.empty()) mpisim::raise(Errc::invalid_argument, "0-d array");
  if (block_starts.size() != dims.size())
    mpisim::raise(Errc::invalid_argument, "block_starts/dims rank mismatch");
  dims_.assign(dims.begin(), dims.end());
  const std::size_t nd = dims_.size();
  grid_.resize(nd);
  starts_.resize(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const auto& bs = block_starts[d];
    if (bs.empty() || bs.front() != 0)
      mpisim::raise(Errc::invalid_argument,
                    "block starts must begin at index 0");
    for (std::size_t i = 1; i < bs.size(); ++i)
      if (bs[i] <= bs[i - 1] || bs[i] >= dims_[d])
        mpisim::raise(Errc::invalid_argument,
                      "block starts must be strictly increasing and "
                      "below the dimension extent");
    grid_[d] = static_cast<int>(bs.size());
    starts_[d] = bs;
    starts_[d].push_back(dims_[d]);  // closing sentinel
  }
}

int Distribution::owning_procs() const noexcept {
  int p = 1;
  for (int g : grid_) p *= g;
  return p;
}

int Distribution::block_index(std::size_t d, std::int64_t x) const {
  const auto& s = starts_[d];
  // Last block whose start <= x.
  auto it = std::upper_bound(s.begin(), s.end() - 1, x);
  return static_cast<int>(it - s.begin()) - 1;
}

int Distribution::owner_of(std::span<const std::int64_t> idx) const {
  if (idx.size() != dims_.size())
    mpisim::raise(Errc::invalid_argument, "subscript rank mismatch");
  int cell = 0;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    if (idx[d] < 0 || idx[d] >= dims_[d])
      mpisim::raise(Errc::invalid_argument, "subscript out of range");
    cell = cell * grid_[d] + block_index(d, idx[d]);
  }
  return proc_of_cell(cell);
}

Patch Distribution::patch_of(int proc) const {
  const std::size_t nd = dims_.size();
  Patch p;
  p.lo.assign(nd, 0);
  p.hi.assign(nd, -1);
  if (proc < 0 || proc >= owning_procs()) return p;  // owns nothing
  // Decompose the process's grid cell into coordinates, row-major.
  std::vector<int> cell(nd);
  int rem = cell_of_proc(proc);
  for (std::size_t d = nd; d-- > 0;) {
    cell[d] = rem % grid_[d];
    rem /= grid_[d];
  }
  for (std::size_t d = 0; d < nd; ++d) {
    p.lo[d] = starts_[d][static_cast<std::size_t>(cell[d])];
    p.hi[d] = starts_[d][static_cast<std::size_t>(cell[d]) + 1] - 1;
  }
  return p;
}

std::vector<OwnedPatch> Distribution::intersect(const Patch& region) const {
  std::vector<OwnedPatch> out;
  intersect(region, out);  // grows an empty buffer to exactly the owners
  return out;
}

std::span<const OwnedPatch> Distribution::intersect(
    const Patch& region, std::vector<OwnedPatch>& buf) const {
  const std::size_t nd = dims_.size();
  if (region.lo.size() != nd || region.hi.size() != nd)
    mpisim::raise(Errc::invalid_argument, "region rank mismatch");
  for (std::size_t d = 0; d < nd; ++d) {
    if (region.lo[d] < 0 || region.hi[d] >= dims_[d] ||
        region.lo[d] > region.hi[d])
      mpisim::raise(Errc::invalid_argument, "region out of range");
  }

  // Block-index ranges touched per dimension, and the cell counter that
  // walks them. Kept on the stack up to kInlineDims dimensions.
  constexpr std::size_t kInlineDims = 8;
  std::array<int, 3 * kInlineDims> inline_idx{};
  std::vector<int> heap_idx(nd > kInlineDims ? 3 * nd : 0);
  int* const first = nd > kInlineDims ? heap_idx.data() : inline_idx.data();
  int* const last = first + nd;
  int* const cell = last + nd;
  for (std::size_t d = 0; d < nd; ++d) {
    first[d] = block_index(d, region.lo[d]);
    last[d] = block_index(d, region.hi[d]);
    cell[d] = first[d];
  }

  std::size_t n = 0;
  while (true) {
    if (n == buf.size()) buf.emplace_back();
    OwnedPatch& op = buf[n++];
    op.patch.lo.resize(nd);
    op.patch.hi.resize(nd);
    int c = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      c = c * grid_[d] + cell[d];
      const std::int64_t blo = starts_[d][static_cast<std::size_t>(cell[d])];
      const std::int64_t bhi =
          starts_[d][static_cast<std::size_t>(cell[d]) + 1] - 1;
      op.patch.lo[d] = std::max(region.lo[d], blo);
      op.patch.hi[d] = std::min(region.hi[d], bhi);
    }
    op.proc = proc_of_cell(c);

    // Advance the cell counter (row-major, innermost last).
    std::size_t d = nd;
    while (d-- > 0) {
      if (cell[d] < last[d]) {
        ++cell[d];
        break;
      }
      cell[d] = first[d];
      if (d == 0) return {buf.data(), n};
    }
    if (d == static_cast<std::size_t>(-1)) return {buf.data(), n};
  }
}

}  // namespace ga
