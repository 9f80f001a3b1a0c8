#ifndef MPISIM_SCRATCH_HPP
#define MPISIM_SCRATCH_HPP

/// \file scratch.hpp
/// Reusable storage for the warm RMA path: per-rank scratch and map nodes.
///
/// Hot paths keep their temporary vectors as members of a per-rank object
/// (RankContext, the ARMCI engine, a GA array's state), so a warm operation
/// reuses capacity instead of allocating. Such a buffer must never be
/// `thread_local` or function-`static`: every rank is a fiber on one host
/// thread, so that buffer would be shared by all ranks, and a rank switch
/// at a scheduling point (SimCore::sync()) while it is in use would let
/// another rank overwrite it.
///
/// A Lease takes a member (a vector, or a struct of vectors) for one use
/// and hands it back when the use ends. A nested use on the same rank -- a
/// progress tick that flushes while an enqueue holds its buffer, a
/// completion callback that issues communication -- finds the member
/// moved-from, hence empty, and grows storage of its own, so two uses never
/// share one buffer. The lease neither clears on entry nor on exit:
/// callers that need empty storage clear it (elements may own storage worth
/// keeping, such as a reused Patch's index vectors).

#include <utility>
#include <vector>

namespace mpisim {

template <typename T>
class Lease {
 public:
  explicit Lease(T& home) noexcept : home_(home), v_(std::move(home)) {}
  ~Lease() { home_ = std::move(v_); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  T& operator*() noexcept { return v_; }
  T* operator->() noexcept { return &v_; }

 private:
  T& home_;
  T v_;
};

/// Spare nodes of a node-based map (std::map), kept when entries are erased
/// so a warm insert allocates nothing. Used for records that come and go
/// with every epoch.
template <typename Map>
class NodePool {
 public:
  /// The value at \p key. A missing entry is inserted, in a spare node
  /// when one is kept: its value is then as erase() left it.
  typename Map::mapped_type& acquire(Map& map,
                                     const typename Map::key_type& key) {
    if (auto it = map.find(key); it != map.end()) return it->second;
    if (spare_.empty()) return map.try_emplace(key).first->second;
    typename Map::node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    return map.insert(std::move(node)).position->second;
  }

  /// Erase the entry at \p it, keeping its node; \p reset readies the
  /// value for its next acquire() (it may keep storage worth reusing).
  template <typename Reset>
  void erase(Map& map, typename Map::iterator it, Reset&& reset) {
    spare_.push_back(map.extract(it));
    reset(spare_.back().mapped());
  }

  /// Erase the entry at \p it, keeping its node (its value reset to {}).
  void erase(Map& map, typename Map::iterator it) {
    erase(map, it, [](typename Map::mapped_type& v) { v = {}; });
  }

 private:
  std::vector<typename Map::node_type> spare_;
};

}  // namespace mpisim

#endif  // MPISIM_SCRATCH_HPP
