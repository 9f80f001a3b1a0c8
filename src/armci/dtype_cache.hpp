#ifndef ARMCI_DTYPE_CACHE_HPP
#define ARMCI_DTYPE_CACHE_HPP

/// \file dtype_cache.hpp
/// LRU cache of derived datatypes for the direct strided/IOV paths.
///
/// GA applications move the same block shape over and over (every patch of
/// a regularly distributed array has identical counts/strides), so the
/// direct transfer methods rebuild byte-identical subarray/hindexed types
/// for every call. This cache keys the built Datatype handle on the shape
/// alone -- counts, strides, block lengths, displacements, element type --
/// which is exactly the information the constructors consume; base
/// addresses and target displacements are *not* part of the key (callers
/// rebase displacement lists so types are position-independent). Datatype
/// handles are immutable shared values, so returning a cached handle is
/// semantically identical to building a fresh one.
///
/// Capacity comes from Options::dt_cache_capacity; 0 disables the cache
/// (every lookup builds, no counters recorded). Hits/misses land in
/// Stats::dt_cache_hits / dt_cache_misses.

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/armci/stats.hpp"
#include "src/armci/types.hpp"
#include "src/mpisim/datatype.hpp"

namespace armci {

enum class OneSided;

/// Element type of a direct-method datatype: the accumulate element type
/// for acc, so the target reduction applies element-wise; bytes otherwise.
mpisim::BasicType direct_elem(OneSided kind, AccType at);

/// The direct (§VI-C) plan of a strided transfer: which side is remote, and
/// one datatype per side.
struct StridedPlan {
  const void* remote;
  void* local;
  mpisim::Datatype rtype;
  mpisim::Datatype ltype;
};

/// The direct (§VI-A) plan of IOV segments that all land in one GMR: one
/// hindexed datatype per side, each rebased to its lowest segment, or, for
/// a packed local side, lcount elements of a basic type.
struct IovPlan {
  std::size_t disp;        ///< lowest remote offset (the target disp)
  mpisim::Datatype rtype;  ///< remote segments relative to disp (1 instance)
  void* origin;            ///< lowest local address; null when packed
  mpisim::Datatype ltype;  ///< local segments relative to origin
  std::size_t lcount = 1;  ///< ltype instances on the local side
};

class DatatypeCache {
 public:
  /// Shrink-or-grow the entry budget; evicts LRU entries when shrinking.
  void set_capacity(std::size_t cap);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return lru_.size(); }

  /// The direct-method datatype for one side of a strided transfer
  /// (make_strided_type), keyed on (strides, spec.count, elem).
  mpisim::Datatype strided_type(std::span<const std::size_t> strides,
                                const StridedSpec& spec,
                                mpisim::BasicType elem, Stats& stats);

  /// An hindexed type for one side of a direct IOV transfer, keyed on
  /// (blocklens, displacements, elem). Displacements should be rebased so
  /// the lowest one is 0, making the type reusable at any base address.
  mpisim::Datatype hindexed_type(std::span<const std::size_t> blocklens,
                                 std::span<const std::ptrdiff_t> displs_bytes,
                                 mpisim::BasicType elem, Stats& stats);

  /// Plan a direct strided transfer from \p src to \p dst: the remote side
  /// is src for a get and dst otherwise. Looks up the remote type, then the
  /// local type.
  StridedPlan strided_plan(OneSided kind, const void* src, void* dst,
                           const StridedSpec& spec, mpisim::BasicType elem,
                           Stats& stats);

  /// Plan a direct transfer of equal \p seg_bytes segments: \p rdispls
  /// holds each segment's offset in the target slice (rebased in place to
  /// its lowest) and \p locals its local address. Looks up the remote
  /// type, then the local type. An empty \p locals means the local side is
  /// a packed staging buffer: ltype is then the basic element type, lcount
  /// the number of elements, and nothing more is looked up or built.
  IovPlan iov_plan(std::span<std::ptrdiff_t> rdispls,
                   std::span<const void* const> locals, std::size_t seg_bytes,
                   mpisim::BasicType elem, Stats& stats);

 private:
  /// Flattened shape key. `words` starts with the tag so strided and
  /// hindexed shapes can never collide.
  struct Key {
    std::vector<std::uint64_t> words;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  using Entry = std::pair<Key, mpisim::Datatype>;

  /// The cached type for the shape in probe_, or build() cached under a
  /// copy of it. A hit allocates nothing.
  template <typename Build>
  mpisim::Datatype get_or_build(Stats& stats, Build&& build);

  std::size_t capacity_ = 64;
  /// The shape being looked up, rebuilt in place by every lookup so its
  /// storage is reused (the cache is per rank, and no lookup nests).
  Key probe_;
  /// iov_plan's block lengths and rebased local displacements, reused
  /// through mpisim::Lease.
  std::vector<std::size_t> blocklens_;
  std::vector<std::ptrdiff_t> ldispls_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
};

}  // namespace armci

#endif  // ARMCI_DTYPE_CACHE_HPP
