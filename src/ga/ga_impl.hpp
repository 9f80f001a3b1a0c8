#ifndef GA_GA_IMPL_HPP
#define GA_GA_IMPL_HPP

/// \file ga_impl.hpp
/// Internal shared state of a GlobalArray (used by the implementation
/// files ga.cpp / ga_gather.cpp; not part of the public API).

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/armci/types.hpp"
#include "src/ga/distribution.hpp"
#include "src/ga/ga.hpp"
#include "src/mpisim/runtime.hpp"

namespace ga::detail {

struct GaImpl {
  std::string name;
  ElemType type = ElemType::dbl;
  std::vector<std::int64_t> dims;
  Distribution dist;
  std::vector<void*> bases;  ///< per absolute process id (null: no block)
  Patch my_patch;
  int access_depth = 0;

  /// Fault-tolerance policy fixed at create()/rebuild().
  Resilience resilience = Resilience::none;
  /// Distribution rank -> absolute process id. Empty = identity (the
  /// initial world distribution); rebuild() installs the survivor list.
  std::vector<int> procs;
  /// Primary block size in bytes per distribution rank. Replicated arrays
  /// append distribution rank r's replica to the allocation of its buddy
  /// (r + 1) % nprocs, at offset block_bytes[buddy].
  std::vector<std::size_t> block_bytes;
  /// Every distribution rank's block and its row-major byte strides,
  /// cached when the array is created: accesses read them per owner.
  std::vector<Patch> blocks;
  std::vector<std::vector<std::size_t>> block_strides;

  /// Scratch of one region access, reused from access to access through
  /// mpisim::Lease (scratch.hpp); the array state is per rank.
  struct XferScratch {
    std::vector<OwnedPatch> owned;  ///< Distribution::intersect buffer
    std::vector<std::size_t> buf_strides;
    armci::StridedSpec spec;
  };
  XferScratch xfer;
};

/// Number of distribution ranks the array is laid out over.
inline int dist_nprocs(const GaImpl& ga) noexcept {
  return ga.procs.empty() ? mpisim::nranks()
                          : static_cast<int>(ga.procs.size());
}

/// Absolute process id of distribution rank \p r.
inline int abs_proc(const GaImpl& ga, int r) noexcept {
  return ga.procs.empty() ? r : ga.procs[static_cast<std::size_t>(r)];
}

/// Distribution rank of absolute process \p proc, -1 if not in the map.
inline int dist_rank_of(const GaImpl& ga, int proc) noexcept {
  if (ga.procs.empty()) return proc < mpisim::nranks() ? proc : -1;
  for (std::size_t i = 0; i < ga.procs.size(); ++i)
    if (ga.procs[i] == proc) return static_cast<int>(i);
  return -1;
}

/// True when the array keeps buddy replicas and has enough ranks for the
/// buddy ring to be meaningful.
inline bool replicated(const GaImpl& ga) noexcept {
  return ga.resilience == Resilience::replicate && dist_nprocs(ga) >= 2;
}

/// ARMCI accumulate type of the array's elements.
inline armci::AccType acc_type(const GaImpl& ga) noexcept {
  return ga.type == ElemType::dbl ? armci::AccType::float64
                                  : armci::AccType::int64;
}

/// Where byte \p offset of distribution rank \p owner's block lives, and
/// whether its holders are alive. Replicated arrays keep each block's
/// replica on the buddy (the owner's ring successor), in the same layout,
/// after the buddy's own block.
struct Route {
  std::uint8_t* primary = nullptr;
  int owner_proc = -1;  ///< absolute process id
  std::uint8_t* replica = nullptr;  ///< null: unreplicated or no storage
  int buddy_proc = -1;
  bool owner_dead = false;
  bool buddy_dead = false;

  /// Reads are served by the replica: the owner died, its buddy did not.
  bool fails_over() const noexcept { return owner_dead && !buddy_dead; }
  /// Writes go through to the replica.
  bool writes_replica() const noexcept {
    return replica != nullptr && !buddy_dead;
  }
};

/// Route one byte of \p owner's block. For replicated arrays this asks
/// armci::is_failed about the owner, then (if it holds the replica) the
/// buddy; unreplicated arrays never ask.
Route route(const GaImpl& ga, int owner, std::size_t offset);

/// This process observed \p proc's death at a read failover: advance to
/// the detector bound and stamp the detection-latency gauge.
void note_death_observed(int proc);

/// The per-owner nonblocking ops of one GA access and their covering
/// handle.
struct OwnerOps {
  armci::Request req;
  int owners = 0;
  std::uint64_t batches = 0;  ///< ops the engine deferred, not ran eagerly

  void add(const armci::Request& r) {
    if (!r.test()) ++batches;
    req.merge(r);
  }
  /// Record a multi-owner access (owners >= 2) in armci::stats() and
  /// hand over the covering handle.
  armci::Request finish();
};

/// Owner-computes over the calling process's block of \p home: run
/// kernel(block, operand elements, count) on the home block and each
/// operand's elements of the same index range. The operands are read in
/// place when all of them are distributed like \p home; if any differs,
/// every operand's patch is staged with one-sided gets first, before any
/// local-access epoch opens (holding a self-epoch while locking another
/// window is the §V-E1 trap). Direct access opens on \p home, then on each
/// operand in order (operands first if \p operands_first), and closes in
/// reverse order.
template <typename T, std::size_t N, typename Kernel>
void owner_computes(GlobalArray& home,
                    const std::array<const GlobalArray*, N>& operands,
                    Kernel kernel, bool operands_first = false) {
  const GaImpl& h = impl_of(home);
  bool aligned = true;
  for (const GlobalArray* op : operands)
    aligned = aligned && impl_of(*op).dist == h.dist;
  const auto n = static_cast<std::size_t>(h.my_patch.num_elems());
  std::array<std::vector<T>, N> staged;
  std::array<const T*, N> in{};
  if (!aligned && n > 0) {
    for (std::size_t i = 0; i < N; ++i)
      staged[i].resize(n * elem_size(operands[i]->type()) / sizeof(T));
    for (std::size_t i = 0; i < N; ++i) {
      operands[i]->get(h.my_patch, staged[i].data());
      in[i] = staged[i].data();
    }
  }
  std::array<Patch, N + 1> patches;  // [0]: home
  const auto open_operands = [&] {
    for (std::size_t i = 0; i < N && aligned; ++i)
      in[i] = static_cast<const T*>(
          const_cast<GlobalArray*>(operands[i])->access(patches[i + 1]));
  };
  if (operands_first) open_operands();
  auto* out = static_cast<T*>(home.access(patches[0]));
  if (!operands_first) open_operands();
  if (out != nullptr && n > 0) kernel(out, in, n);
  if (operands_first) home.release();
  for (std::size_t i = N; i-- > 0 && aligned;)
    const_cast<GlobalArray*>(operands[i])->release();
  if (!operands_first) home.release();
}

}  // namespace ga::detail

#endif  // GA_GA_IMPL_HPP
