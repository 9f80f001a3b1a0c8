#ifndef MPISIM_TRACE_HPP
#define MPISIM_TRACE_HPP

/// \file trace.hpp
/// Low-overhead op-level tracing and per-window profiling.
///
/// Every rank owns a Tracer: a fixed-capacity ring buffer of begin/end
/// events stamped with the rank's *virtual* clock (SimClock::now_ns), plus
/// cumulative lock/epoch/flush counters per window. The layers above hook
/// their operations with TraceScope; the window implementation (win.cpp)
/// hooks lock/unlock/flush directly. Disabled (the default), every hook is
/// one predictable branch and nothing else -- no allocation, no clock read.
///
/// Events snapshot to Chrome's trace_event JSON format (one virtual-time
/// track per rank), loadable in chrome://tracing or Perfetto.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mpisim/clock.hpp"
#include "src/mpisim/counter_table.hpp"

namespace mpisim {

/// Event category, mapped to the Chrome trace "cat" field.
enum class TraceCat : std::uint8_t {
  api,      ///< public ARMCI entry points
  backend,  ///< backend transfer methods
  window,   ///< RMA window lock/unlock/flush
  mutex,    ///< queueing-mutex protocol steps
  fault,    ///< injected faults and recovery actions (crash, transient
            ///< burst, detector suspicion, shrink)
  race,     ///< happens-before race detections (hb.hpp): a begin/end pair
            ///< brackets each report so Chrome traces show the racing op
  progress, ///< cooperative progress engine: progress.tick spans each
            ///< persona tick, progress.retire marks queue retirement
};

const char* trace_cat_name(TraceCat cat) noexcept;

/// One begin ('B') or end ('E') event. `name` must be a string literal (the
/// buffer stores the pointer only).
struct TraceEvent {
  const char* name = nullptr;
  TraceCat cat = TraceCat::api;
  char phase = 'B';
  double ts_ns = 0.0;
  std::uint64_t arg = 0;  ///< op-dependent: bytes, window id, mutex index
};

/// Cumulative per-window profiling counters (the per-GMR lock/epoch costs
/// of paper §VIII: epoch-per-op semantics show up here first), in the order
/// of an armci-metrics-v1 "windows" entry.
#define MPISIM_WIN_STATS(X)                                                  \
  X(exclusive_locks)                                                         \
  X(shared_locks)                                                            \
  X(lock_alls)                                                               \
  X(flushes)                                                                 \
  X(epochs) /* completed lock/unlock pairs */

struct WinStats {
  MPISIM_WIN_STATS(MPISIM_TABLE_U64_FIELD)
};

/// Per-rank trace sink. Owned by the rank's context and touched only by
/// the rank itself, so no locking is needed (same rule as SimClock).
class Tracer {
 public:
  explicit Tracer(const SimClock& clock) : clock_(&clock) {}

  bool enabled() const noexcept { return enabled_; }

  /// Start recording with a ring of \p capacity events (oldest overwritten).
  void enable(std::size_t capacity);

  /// Stop recording and drop buffered events and counters.
  void disable();

  void begin(TraceCat cat, const char* name, std::uint64_t arg = 0) {
    if (enabled_) push(cat, name, 'B', arg);
  }

  void end(TraceCat cat, const char* name, std::uint64_t arg = 0) {
    if (enabled_) push(cat, name, 'E', arg);
  }

  /// Mutable counters of window \p id (valid only while enabled).
  WinStats& win(std::uint64_t id) { return win_stats_[id]; }

  const std::map<std::uint64_t, WinStats>& win_stats() const noexcept {
    return win_stats_;
  }

  /// Buffered events in chronological order.
  std::vector<TraceEvent> events() const;

  /// Events emitted since enable(), including any the ring overwrote.
  std::uint64_t total_events() const noexcept { return total_; }

  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const noexcept {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Drop buffered events and counters, keep recording.
  void clear();

  /// Name of the innermost still-open 'B' event, or null when none (or when
  /// tracing is disabled). The RMA checker stamps recorded accesses with
  /// this so a violation report can say which traced operation issued each
  /// side of the conflicting pair.
  const char* current_scope() const noexcept {
    return open_.empty() ? nullptr : open_.back();
  }

 private:
  void push(TraceCat cat, const char* name, char phase, std::uint64_t arg);

  const SimClock* clock_;
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::uint64_t total_ = 0;
  std::map<std::uint64_t, WinStats> win_stats_;
  std::vector<const char*> open_;  ///< stack of unmatched 'B' event names
};

/// RAII begin/end pair around one traced operation.
class TraceScope {
 public:
  TraceScope(Tracer& t, TraceCat cat, const char* name, std::uint64_t arg = 0)
      : t_(t.enabled() ? &t : nullptr), cat_(cat), name_(name), arg_(arg) {
    if (t_ != nullptr) t_->begin(cat_, name_, arg_);
  }
  ~TraceScope() {
    if (t_ != nullptr) t_->end(cat_, name_, arg_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_;
  TraceCat cat_;
  const char* name_;
  std::uint64_t arg_;
};

/// One rank's captured events, for cross-rank export after the run.
struct RankTrace {
  int rank = 0;
  std::vector<TraceEvent> events;
};

/// Render per-rank event streams as a Chrome trace_event JSON document:
/// one process, one thread (track) per rank, timestamps in virtual
/// microseconds. Load in chrome://tracing or https://ui.perfetto.dev.
std::string chrome_trace_json(const std::vector<RankTrace>& ranks);

}  // namespace mpisim

#endif  // MPISIM_TRACE_HPP
