#ifndef GA_GA_HPP
#define GA_GA_HPP

/// \file ga.hpp
/// Global Arrays: distributed, shared, multidimensional arrays over ARMCI
/// (paper §II-B).
///
/// A GlobalArray aggregates the memory of all processes into one n-d array
/// accessed through one-sided put/get/accumulate on high-level index
/// ranges; the runtime decomposes each access into per-owner strided ARMCI
/// operations (paper Fig. 2). Locality is exposed through distribution
/// queries and direct access to the local block; parallel math routines
/// (zero/fill/scale/add/dot/dgemm) and an atomic read-increment (the
/// "nxtval" dynamic load-balancing primitive of NWChem) round out the
/// interface the proxy application needs.
///
/// Conventions: C row-major order, *inclusive* lo/hi index ranges as in the
/// GA API, and element types double or int64.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/armci/types.hpp"
#include "src/ga/distribution.hpp"

namespace ga {

/// Element type of a global array.
enum class ElemType {
  dbl,    ///< double (GA C_DBL)
  int64,  ///< std::int64_t (GA C_LONG)
};

/// Bytes per element.
std::size_t elem_size(ElemType t) noexcept;

/// Cell-to-owner mapping policy for create().
enum class NodeMapping {
  linear,      ///< classic GA order: row-major grid cell index = owner
  node_aware,  ///< cluster adjacent tiles on ranks the platform co-locates
};

/// Fault-tolerance policy for create() (survivable mode,
/// mpisim::FaultPlan::survivable).
enum class Resilience {
  none,       ///< classic GA: an owner's death loses its block
  replicate,  ///< buddy replication: every block is mirrored on the next
              ///< rank in the distribution ring; puts/accumulates write
              ///< through to the replica and gets transparently fail over
              ///< to it when the owner has died
};

class GlobalArray;

namespace detail {
struct GaImpl;
/// The shared state behind a handle (implementation files only).
const GaImpl& impl_of(const GlobalArray& g);
}  // namespace detail

/// Handle to a distributed array. Copies are cheap and refer to the same
/// array. All collective members must be called by every process.
class GlobalArray {
 public:
  GlobalArray() = default;

  /// Collective: create an array of shape \p dims distributed blockwise
  /// over all processes. \p chunk optionally gives per-dimension minimum
  /// block extents (GA chunk hints). \p mapping selects how grid cells map
  /// to owners: NodeMapping::node_aware clusters adjacent tiles onto ranks
  /// the platform's node map co-locates, so neighborhood accesses ride the
  /// intra-node fast path (no-op when every rank is its own node).
  static GlobalArray create(const std::string& name,
                            std::span<const std::int64_t> dims, ElemType type,
                            std::span<const std::int64_t> chunk = {},
                            NodeMapping mapping = NodeMapping::linear,
                            Resilience resilience = Resilience::none);

  /// Collective: like create() but with an explicit irregular distribution
  /// (GA_Create_irregular): \p block_starts[d] lists the first index of
  /// every block in dimension d. The product of the per-dimension block
  /// counts must not exceed the number of processes.
  static GlobalArray create_irregular(
      const std::string& name, std::span<const std::int64_t> dims,
      ElemType type, std::span<const std::vector<std::int64_t>> block_starts);

  /// Collective: like create(), copying shape/type/distribution from \p g.
  static GlobalArray duplicate(const std::string& name, const GlobalArray& g);

  /// Collective: free the array.
  void destroy();

  bool valid() const noexcept { return impl_ != nullptr; }

  // ---- Shape and distribution queries ----

  const std::string& name() const;
  int ndim() const;
  const std::vector<std::int64_t>& dims() const;
  ElemType type() const;

  /// Block owned by \p proc (empty patch if it owns nothing).
  Patch distribution(int proc) const;

  /// Owner of element \p subscript (GA_Locate).
  int locate(std::span<const std::int64_t> subscript) const;

  /// Owners intersecting [lo, hi] (GA_Locate_region).
  std::vector<OwnedPatch> locate_region(const Patch& region) const;

  // ---- One-sided access (GA_Put / GA_Get / GA_Acc) ----

  /// Copy the local buffer \p buf into the region [lo, hi]. \p ld gives the
  /// buffer's leading dimensions: ld[k] is the buffer extent (in elements)
  /// of dimension k+1, for k in [0, ndim-2); empty means the buffer is
  /// exactly the patch shape.
  void put(const Patch& region, const void* buf,
           std::span<const std::int64_t> ld = {});

  /// Copy the region [lo, hi] into the local buffer \p buf.
  void get(const Patch& region, void* buf,
           std::span<const std::int64_t> ld = {}) const;

  /// Nonblocking get (GA_NbGet): issue the per-owner reads through the
  /// ARMCI aggregation engine and return the covering handle;
  /// armci::wait() on it before touching \p buf. Lets a caller overlap a
  /// tile fetch with compute (the CCSD driver's double buffering).
  armci::Request nb_get(const Patch& region, void* buf,
                        std::span<const std::int64_t> ld = {}) const;

  /// array[region] += alpha * buf (element type of the array; \p alpha
  /// points to one element).
  void acc(const Patch& region, const void* buf, const void* alpha,
           std::span<const std::int64_t> ld = {});

  // ---- Direct local access (GA_Access / GA_Release, paper §V-E) ----

  /// Begin direct access to the calling process's block. Returns the block
  /// pointer and fills \p patch with its global coordinates; null if this
  /// process owns nothing. Must be paired with release()/release_update().
  void* access(Patch& patch);

  /// End direct read-only access.
  void release();

  /// End direct access that modified the block.
  void release_update();

  // ---- Element-wise scatter/gather (GA_Scatter / GA_Gather) ----

  /// Write \p n individual elements: values[i] goes to the element at
  /// subscript subs[i*ndim .. i*ndim+ndim). Decomposes into one ARMCI
  /// I/O-vector operation per owner.
  void scatter(const void* values, std::span<const std::int64_t> subs,
               std::int64_t n);

  /// Read \p n individual elements into \p values.
  void gather(void* values, std::span<const std::int64_t> subs,
              std::int64_t n) const;

  /// array[subs[i]] += alpha * values[i] (GA_Scatter_acc).
  void scatter_acc(const void* values, std::span<const std::int64_t> subs,
                   std::int64_t n, const void* alpha);

  // ---- Atomic element update (GA_Read_inc) ----

  /// Atomically add \p inc to the int64 element at \p subscript and return
  /// its previous value. Array type must be int64.
  std::int64_t read_inc(std::span<const std::int64_t> subscript,
                        std::int64_t inc);

  // ---- Collective math (all processes must call) ----

  void zero();
  void fill(const void* value);

  /// this = alpha * this.
  void scale(const void* alpha);

  /// this = alpha * a + beta * b (identical shape/type/distribution).
  void add(const void* alpha, const GlobalArray& a, const void* beta,
           const GlobalArray& b);

  /// Element-wise copy into \p dst (identical shape/type).
  void copy_to(GlobalArray& dst) const;

  /// Dot product over all elements (double arrays).
  double ddot(const GlobalArray& other) const;

  /// this = a .* b element-wise (GA_Elem_multiply; double arrays with
  /// identical shape/distribution).
  void elem_multiply(const GlobalArray& a, const GlobalArray& b);

  /// Value and subscript of the globally largest (or smallest) element
  /// (GA_Select_elem; double arrays). Ties break toward the lowest
  /// flattened index, so the result is deterministic. Collective.
  struct Selected {
    double value = 0.0;
    std::vector<std::int64_t> subscript;
  };
  enum class SelectOp { min, max };
  Selected select_elem(SelectOp op) const;

  /// this = transpose(a) for 2-d arrays of the same element type with
  /// dims reversed (GA_Transpose). Owner-computes: each process fetches
  /// the transposed patch of \p a one-sidedly and writes its own block.
  void transpose_from(const GlobalArray& a);

  /// Collective barrier + fence (GA_Sync).
  void sync() const;

  /// Survivable-mode recovery (collective over the *surviving* processes):
  /// redistribute the array over the live process set. Each survivor
  /// fetches its new block from the old array -- reading through buddy
  /// replicas where an owner died -- into a fresh allocation, then the old
  /// storage is released. Requires replication (or no dead owners) for the
  /// content to be complete; all copies of the handle observe the rebuilt
  /// array.
  void rebuild();

  /// Matrix multiply C = alpha * op(A) * op(B) + beta * C for 2-d double
  /// arrays, transa/transb in {'n', 't'} (GA_Dgemm, owner-computes with
  /// blocked one-sided gets).
  static void dgemm(char transa, char transb, double alpha,
                    const GlobalArray& a, const GlobalArray& b, double beta,
                    GlobalArray& c);

 private:
  friend const detail::GaImpl& detail::impl_of(const GlobalArray& g);
  explicit GlobalArray(std::shared_ptr<detail::GaImpl> impl);

  std::shared_ptr<detail::GaImpl> impl_;
};

/// Shared atomic counter for dynamic load balancing (NWChem's nxtval).
/// Hosted on process 0; next() is an ARMCI fetch-and-add.
class AtomicCounter {
 public:
  AtomicCounter() = default;

  /// Collective: create with initial value 0.
  static AtomicCounter create();

  /// Collective: destroy.
  void destroy();

  /// Atomically fetch the current value and add \p inc.
  std::int64_t next(std::int64_t inc = 1);

  /// Collective: reset to \p value.
  void reset(std::int64_t value);

  bool valid() const noexcept { return !bases_.empty(); }

 private:
  std::vector<void*> bases_;
};

}  // namespace ga

#endif  // GA_GA_HPP
