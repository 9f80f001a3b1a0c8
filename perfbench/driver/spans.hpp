#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

/// \file spans.hpp
/// In-memory span recorder for the traced run.
///
/// The driver opens a span around every public library call it makes; the
/// library itself is not instrumented. A span carries a name whose prefix
/// up to the first '.' names the layer ("armci.put" -> armci), the rank,
/// an id, its parent's id, the driver operation it belongs to, and start
/// and end stamps on both clocks (host ns, virtual ns). Self time -- a
/// span's duration minus the part its children cover -- is aggregated per
/// name as spans close, so the per-layer totals need no stored spans. The
/// first `cap` spans of each rank are kept and written out at the end.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

/// Host nanoseconds since the process started (steady clock).
std::int64_t host_now_ns();

/// Host seconds since the process started.
inline double host_now_s() { return static_cast<double>(host_now_ns()) * 1e-9; }

struct Span {
  const char* name = nullptr;  ///< string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  std::uint64_t op = 0;      ///< driver operation id (0: none)
  std::int64_t host_begin_ns = 0;
  std::int64_t host_end_ns = 0;
  double virt_begin_ns = 0.0;
  double virt_end_ns = 0.0;
};

/// Per-name totals over every closed span (kept or not).
struct SpanTotals {
  std::uint64_t count = 0;
  double host_ns = 0.0;
  double self_host_ns = 0.0;
  double virt_ns = 0.0;
  double self_virt_ns = 0.0;
};

/// One rank's recorder. Touched only by that rank's thread.
class SpanLog {
 public:
  bool enabled() const noexcept { return enabled_; }
  void enable(std::size_t cap) {
    enabled_ = true;
    cap_ = cap;
  }

  /// Open a span as a child of the innermost open one; returns its id.
  /// \p op 0 inherits the parent's operation id.
  std::uint64_t open(const char* name, std::uint64_t op);

  /// Close the innermost open span.
  void close();

  const std::vector<Span>& kept() const noexcept { return kept_; }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const std::map<std::string, SpanTotals>& totals() const noexcept {
    return totals_;
  }

 private:
  struct Frame {
    Span span;
    double child_host_ns = 0.0;
    double child_virt_ns = 0.0;
  };

  bool enabled_ = false;
  std::size_t cap_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::vector<Span> kept_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, SpanTotals> totals_;
};

/// RAII span; a no-op when the log is disabled.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t op = 0)
      : log_(log.enabled() ? &log : nullptr) {
    if (log_ != nullptr) log_->open(name, op);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

/// Write every rank's kept spans and per-name totals as one JSON document.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& ranks);

}  // namespace pb

#endif  // PERFBENCH_SPANS_HPP
