#ifndef ARMCI_METRICS_HPP
#define ARMCI_METRICS_HPP

/// \file metrics.hpp
/// Per-operation latency metrics (paper §VIII evaluation support).
///
/// The coarse Stats counters say *how many* operations ran; this registry
/// says *how long* each class took in virtual time, as log-bucketed
/// latency histograms with p50/p95/max queries. Latencies are measured at
/// the public API layer (SimClock delta across the backend call), so they
/// include epoch acquisition, serialization behind other origins, datatype
/// packing, and staging copies -- exactly the costs the paper attributes
/// to the epoch-per-op MPI mapping. Disabled (the default), every probe is
/// one branch and nothing else.

#include <array>
#include <cstdint>
#include <string>

#include "src/mpisim/counter_table.hpp"

namespace armci {

/// Operation classes with independent latency distributions, in the order
/// of the armci-metrics-v1 "ops" object.
#define ARMCI_OP_CLASSES(X)                                                  \
  X(put) /* contiguous put */                                                \
  X(get) /* contiguous get */                                                \
  X(acc) /* contiguous accumulate */                                         \
  X(strided) /* ARMCI_PutS/GetS/AccS */                                      \
  X(iov) /* ARMCI_PutV/GetV/AccV */                                          \
  X(rmw) /* ARMCI_Rmw */                                                     \
  X(mutex) /* ARMCI_Lock (acquisition, including queueing delay) */

enum class OpClass : int { ARMCI_OP_CLASSES(MPISIM_TABLE_ENUMERATOR) };
inline constexpr int kOpClassCount = 0 ARMCI_OP_CLASSES(MPISIM_TABLE_COUNT);

const char* op_class_name(OpClass c) noexcept;

/// Log2-bucketed histogram of virtual-time latencies. Bucket i holds
/// samples in [2^i, 2^(i+1)) ns (bucket 0 also takes sub-nanosecond
/// samples); max and sum are tracked exactly.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double ns) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double max_ns() const noexcept { return max_ns_; }
  double sum_ns() const noexcept { return sum_ns_; }
  double mean_ns() const noexcept {
    return count_ == 0 ? 0.0 : sum_ns_ / static_cast<double>(count_);
  }

  /// Latency below which at least \p p (in [0, 1]) of the samples fall:
  /// the upper edge of the first bucket whose cumulative count reaches
  /// p * count(), clamped to max_ns(). Zero when empty.
  double percentile(double p) const noexcept;

  std::uint64_t bucket(int i) const noexcept {
    return buckets_[static_cast<std::size_t>(i)];
  }

  void reset() noexcept;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double max_ns_ = 0.0;
  double sum_ns_ = 0.0;
};

/// Cumulative metrics of one operation class.
struct OpMetrics {
  LatencyHistogram latency;
};

/// Per-process metrics registry, toggled by Options::metrics.
class MetricsRegistry {
 public:
  bool enabled() const noexcept { return enabled_; }
  void enable() noexcept { enabled_ = true; }

  void record(OpClass c, double dur_ns) noexcept {
    per_op_[static_cast<std::size_t>(c)].latency.record(dur_ns);
  }

  const OpMetrics& op(OpClass c) const noexcept {
    return per_op_[static_cast<std::size_t>(c)];
  }

  void reset() noexcept {
    for (OpMetrics& m : per_op_) m.latency.reset();
  }

 private:
  bool enabled_ = false;
  std::array<OpMetrics, kOpClassCount> per_op_{};
};

struct ProcState;

/// RAII probe around one API-level operation: snapshots the virtual clock,
/// and on destruction records the elapsed virtual time into the registry
/// and emits begin/end trace events (when the respective sinks are on).
class OpTimer {
 public:
  OpTimer(ProcState& st, OpClass cls, const char* name, std::uint64_t arg = 0);
  ~OpTimer();

  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  ProcState* st_;
  OpClass cls_;
  const char* name_;
  std::uint64_t arg_;
  double start_ns_;
  bool metrics_;
  bool trace_;
};

/// JSON document with this process's counters, per-op latency summaries,
/// and per-window lock/epoch counters (schema documented in README.md
/// "Observability"). Valid between init() and finalize().
std::string metrics_json();

}  // namespace armci

#endif  // ARMCI_METRICS_HPP
