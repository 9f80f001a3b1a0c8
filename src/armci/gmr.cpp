#include "src/armci/gmr.hpp"

#include <algorithm>

#include "src/mpisim/error.hpp"
#include "src/mpisim/runtime.hpp"

namespace armci {

using mpisim::Errc;

GmrTable::GmrTable(int world_size)
    : by_proc_(static_cast<std::size_t>(world_size)) {}

void GmrTable::insert(std::shared_ptr<Gmr> gmr) {
  for (int r = 0; r < gmr->group.size(); ++r) {
    if (gmr->sizes[static_cast<std::size_t>(r)] == 0) continue;
    const int proc = gmr->group.absolute_id(r);
    const auto base = reinterpret_cast<std::uintptr_t>(
        gmr->bases[static_cast<std::size_t>(r)]);
    by_proc_[static_cast<std::size_t>(proc)][base] = gmr;
  }
}

void GmrTable::remove(const Gmr& gmr) {
  for (int r = 0; r < gmr.group.size(); ++r) {
    if (gmr.sizes[static_cast<std::size_t>(r)] == 0) continue;
    const int proc = gmr.group.absolute_id(r);
    const auto base = reinterpret_cast<std::uintptr_t>(
        gmr.bases[static_cast<std::size_t>(r)]);
    by_proc_[static_cast<std::size_t>(proc)].erase(base);
  }
}

GmrLoc GmrTable::find(int proc, const void* addr, std::size_t bytes) const {
  if (proc < 0 || proc >= static_cast<int>(by_proc_.size()))
    mpisim::raise(Errc::rank_out_of_range,
                  "process id " + std::to_string(proc));
  const auto& m = by_proc_[static_cast<std::size_t>(proc)];
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = m.upper_bound(a);
  if (it == m.begin()) return {};
  --it;
  const std::shared_ptr<Gmr>& gmr = it->second;
  const int grank = gmr->group.rank_of(proc);
  const std::size_t size = gmr->sizes[static_cast<std::size_t>(grank)];
  if (a < it->first || a + bytes > it->first + size) return {};
  GmrLoc loc;
  loc.gmr = gmr;
  loc.target_rank = grank;
  loc.offset = a - it->first;
  // Locality classification: ARMCI procs are world ranks, so the node map
  // applies directly. self is distinguished from same_node because it is
  // always direct-accessible, even without a shared-memory window.
  const int me = mpisim::rank();
  if (proc == me)
    loc.locality = GmrLoc::Locality::self;
  else if (mpisim::model().same_node(me, proc))
    loc.locality = GmrLoc::Locality::same_node;
  else
    loc.locality = GmrLoc::Locality::remote;
  return loc;
}

GmrLoc GmrTable::require(int proc, const void* addr, std::size_t bytes) const {
  GmrLoc loc = find(proc, addr, bytes);
  if (!loc.gmr)
    mpisim::raise(Errc::invalid_argument,
                  "address is not within a global allocation on process " +
                      std::to_string(proc));
  return loc;
}

bool GmrTable::overlaps_global(int proc, const void* addr,
                               std::size_t bytes) const {
  if (bytes == 0) return false;
  const auto& m = by_proc_[static_cast<std::size_t>(proc)];
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  auto it = m.upper_bound(a + bytes - 1);
  if (it == m.begin()) return false;
  --it;
  const std::shared_ptr<Gmr>& gmr = it->second;
  const int grank = gmr->group.rank_of(proc);
  const std::size_t size = gmr->sizes[static_cast<std::size_t>(grank)];
  return it->first + size > a;
}

void group_by_gmr(std::span<const GmrLoc> locs, GmrGroups& out) {
  out.keys.clear();
  out.group_of.clear();
  out.index.clear();
  out.ends.clear();
  for (const GmrLoc& loc : locs) {
    const auto it = std::find(out.keys.begin(), out.keys.end(), loc.gmr.get());
    out.group_of.push_back(static_cast<std::size_t>(it - out.keys.begin()));
    if (it == out.keys.end()) out.keys.push_back(loc.gmr.get());
  }
  for (std::size_t g = 0; g < out.keys.size(); ++g) {
    for (std::size_t i = 0; i < locs.size(); ++i)
      if (out.group_of[i] == g) out.index.push_back(i);
    out.ends.push_back(out.index.size());
  }
}

std::vector<std::shared_ptr<Gmr>> GmrTable::all() const {
  std::vector<std::shared_ptr<Gmr>> out;
  for (const auto& m : by_proc_) {
    for (const auto& [base, gmr] : m) {
      bool seen = false;
      for (const auto& g : out) seen = seen || g.get() == gmr.get();
      if (!seen) out.push_back(gmr);
    }
  }
  return out;
}

bool GmrTable::empty() const noexcept {
  for (const auto& m : by_proc_)
    if (!m.empty()) return false;
  return true;
}

}  // namespace armci
