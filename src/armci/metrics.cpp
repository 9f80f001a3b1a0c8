#include "src/armci/metrics.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>

#include "src/armci/state.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {

const char* op_class_name(OpClass c) noexcept {
  static constexpr const char* kNames[] = {ARMCI_OP_CLASSES(MPISIM_TABLE_NAME)};
  return mpisim::table_name(kNames, c);
}

namespace {

int bucket_of(double ns) noexcept {
  if (!(ns >= 1.0)) return 0;  // sub-ns and NaN land in the first bucket
  const auto n = static_cast<std::uint64_t>(ns);
  const int i = std::bit_width(n) - 1;
  return i >= LatencyHistogram::kBuckets ? LatencyHistogram::kBuckets - 1 : i;
}

double bucket_upper_ns(int i) noexcept {
  return std::ldexp(1.0, i + 1);  // 2^(i+1)
}

}  // namespace

void LatencyHistogram::record(double ns) noexcept {
  if (ns < 0.0) ns = 0.0;
  ++buckets_[static_cast<std::size_t>(bucket_of(ns))];
  ++count_;
  sum_ns_ += ns;
  if (ns > max_ns_) max_ns_ = ns;
}

double LatencyHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(count_)));
  if (target == 0) target = 1;
  std::uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[static_cast<std::size_t>(i)];
    if (cum >= target) {
      const double upper = bucket_upper_ns(i);
      return upper < max_ns_ ? upper : max_ns_;
    }
  }
  return max_ns_;
}

void LatencyHistogram::reset() noexcept {
  buckets_.fill(0);
  count_ = 0;
  max_ns_ = 0.0;
  sum_ns_ = 0.0;
}

OpTimer::OpTimer(ProcState& st, OpClass cls, const char* name,
                 std::uint64_t arg)
    : st_(&st),
      cls_(cls),
      name_(name),
      arg_(arg),
      start_ns_(0.0),
      metrics_(st.metrics.enabled()),
      trace_(mpisim::tracer().enabled()) {
  if (metrics_ || trace_) start_ns_ = mpisim::clock().now_ns();
  if (trace_) mpisim::tracer().begin(mpisim::TraceCat::api, name_, arg_);
}

OpTimer::~OpTimer() {
  if (trace_) mpisim::tracer().end(mpisim::TraceCat::api, name_, arg_);
  if (metrics_)
    st_->metrics.record(cls_, mpisim::clock().now_ns() - start_ns_);
}

namespace {

/// \p v in fixed-point notation with \p digits decimals, as printf("%.*f").
std::string fixed(double v, int digits) {
  char buf[352];  // room for DBL_MAX's 309 integer digits
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::fixed, digits);
  return {buf, r.ptr};
}

/// Appends one JSON document to a string: every value is formatted to its
/// full length, and the writer places the separating commas.
class JsonOut {
 public:
  explicit JsonOut(std::string& out) : out_(out) { out_ += '{'; }

  /// Member \p key (nullptr for an array element) holding JSON text \p v.
  void put(const char* key, std::string_view v) {
    if (!first_) out_ += ',';
    first_ = false;
    if (key != nullptr) out_.append("\"").append(key).append("\":");
    out_.append(v);
  }
  void num(const char* key, std::uint64_t v) { put(key, std::to_string(v)); }
  void num(const char* key, double v, int digits = 3) {
    put(key, fixed(v, digits));
  }
  void str(const char* key, const char* v) {
    put(key, std::string("\"") + v + '"');
  }
  /// Opens an object ("{") or array ("[") as member \p key.
  void open(const char* key, const char* bracket = "{") {
    put(key, bracket);
    first_ = true;
  }
  void close(const char* bracket = "}") {
    out_ += bracket;
    first_ = false;
  }

 private:
  std::string& out_;
  bool first_ = true;
};

/// Writes the Stats table entries of armci-metrics-v1 object \p section.
void stats_fields(JsonOut& j, std::string_view section, const Stats& s) {
#define ARMCI_JSON_COUNTER(sec, name) \
  if (section == #sec) j.num(#name, s.name);
#define ARMCI_JSON_PROGRESS(type, name, key) \
  if (section == "progress") j.num(#key, s.name);
  ARMCI_STATS(ARMCI_JSON_COUNTER, ARMCI_JSON_PROGRESS)
#undef ARMCI_JSON_COUNTER
#undef ARMCI_JSON_PROGRESS
}

}  // namespace

std::string metrics_json() {
  ProcState& st = state();
  const Stats& s = stats();  // syncs the checker counters and gauges
  const mpisim::Tracer& tr = mpisim::tracer();

  std::string out;
  out.reserve(4096);
  JsonOut j(out);
  j.str("schema", "armci-metrics-v1");
  j.num("rank", static_cast<std::uint64_t>(mpisim::rank()));

  // Operation counters (stats.hpp ARMCI_STATS) and the active-message layer.
  for (const char* section : {"counters", "am"}) {
    j.open(section);
    stats_fields(j, section, s);
    j.close();
  }

  // Per-op-class virtual-time latency summaries.
  j.open("ops");
  for (int c = 0; c < kOpClassCount; ++c) {
    const auto cls = static_cast<OpClass>(c);
    const LatencyHistogram& h = st.metrics.op(cls).latency;
    j.open(op_class_name(cls));
    j.num("count", h.count());
    j.num("mean_ns", h.mean_ns());
    j.num("p50_ns", h.percentile(0.50));
    j.num("p95_ns", h.percentile(0.95));
    j.num("max_ns", h.max_ns());
    j.close();
  }
  j.close();

  // Per-window lock/epoch counters, annotated with the owning GMR where
  // one is still live (mutex-set windows report with "gmr_id":null).
  j.open("windows", "[");
  for (const auto& [win_id, ws] : tr.win_stats()) {
    long long gmr_id = -1;
    for (const auto& gmr : st.table.all()) {
      if (gmr->win.valid() && gmr->win.id() == win_id) {
        gmr_id = static_cast<long long>(gmr->id);
        break;
      }
    }
    j.open(nullptr);
    j.num("win_id", win_id);
    j.put("gmr_id", gmr_id >= 0 ? std::to_string(gmr_id) : "null");
#define ARMCI_JSON_WIN(name) j.num(#name, ws.name);
    MPISIM_WIN_STATS(ARMCI_JSON_WIN)
#undef ARMCI_JSON_WIN
    j.close();
  }
  j.close("]");

  // RMA validity checker (mpisim checker.hpp) and happens-before race
  // detector (mpisim hb.hpp, MPISIM_RMA_CHECK=race): this rank's counters
  // by class, and the race summaries dropped by the shadow-store cap. All
  // zero on a correctly synchronized run.
#define ARMCI_JSON_CLASS(name) j.num(#name, c.name);
  {
    const mpisim::RmaChecker& chk = mpisim::ctx().core().checker();
    const mpisim::RmaCheckCounts c = chk.counts(mpisim::rank());
    j.open("rma_check");
    j.str("mode", mpisim::rma_check_name(chk.mode()));
    MPISIM_RMA_VIOLATIONS(ARMCI_JSON_CLASS)
    j.close();
  }
  {
    const mpisim::HbRaceCounts c =
        mpisim::ctx().core().hb().counts(mpisim::rank());
    j.open("rma_race");
    MPISIM_HB_RACE_COUNTS(ARMCI_JSON_CLASS)
    j.close();
  }
#undef ARMCI_JSON_CLASS

  // Survivable-mode recovery gauge: virtual time between the most recently
  // observed peer death and this rank noticing it (failure-aware site or
  // read failover). -1 until a death has been observed here.
  j.open("recovery");
  j.num("detect_latency_ns", mpisim::ctx().last_detect_latency_ns);
  j.close();

  // Cooperative progress engine (nb.hpp progress_tick): tick/retire
  // counters and the measured compute/communication overlap -- how much
  // virtual communication time the engine hid under application compute.
  j.open("progress");
  j.put("enabled", st.opts.progress ? "true" : "false");
  stats_fields(j, "progress", s);
  j.num("overlap_efficiency", s.overlap_efficiency(), 6);
  j.close();

  j.open("trace");
  j.put("enabled", tr.enabled() ? "true" : "false");
  j.num("events", tr.total_events());
  j.num("dropped", tr.dropped());
  j.close();
  j.close();
  return out;
}

}  // namespace armci
