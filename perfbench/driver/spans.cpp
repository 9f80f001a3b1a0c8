#include "spans.hpp"

#include <chrono>
#include <cstdio>

#include "src/mpisim/runtime.hpp"

namespace pb {

namespace {
const std::chrono::steady_clock::time_point g_t0 =
    std::chrono::steady_clock::now();
}  // namespace

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_t0)
      .count();
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t op) {
  Frame f;
  f.span.name = name;
  f.span.id = next_id_++;
  if (!stack_.empty()) {
    f.span.parent = stack_.back().span.id;
    if (op == 0) op = stack_.back().span.op;
  }
  f.span.op = op;
  f.span.virt_begin_ns = mpisim::clock().now_ns();
  f.span.host_begin_ns = host_now_ns();
  stack_.push_back(f);
  return f.span.id;
}

void SpanLog::close() {
  if (stack_.empty()) return;
  Frame f = stack_.back();
  stack_.pop_back();
  f.span.host_end_ns = host_now_ns();
  f.span.virt_end_ns = mpisim::clock().now_ns();
  const auto host = static_cast<double>(f.span.host_end_ns -
                                        f.span.host_begin_ns);
  const double virt = f.span.virt_end_ns - f.span.virt_begin_ns;
  SpanTotals& t = totals_[f.span.name];
  ++t.count;
  t.host_ns += host;
  t.self_host_ns += host - f.child_host_ns;
  t.virt_ns += virt;
  t.self_virt_ns += virt - f.child_virt_ns;
  if (!stack_.empty()) {
    stack_.back().child_host_ns += host;
    stack_.back().child_virt_ns += virt;
  }
  if (kept_.size() < cap_)
    kept_.push_back(f.span);
  else
    ++dropped_;
}

bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& ranks) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"schema\":\"perfbench-spans-v1\",\"workload\":\"%s\","
               "\"fields\":[\"name\",\"rank\",\"id\",\"parent\",\"op\","
               "\"host_begin_ns\",\"host_end_ns\",\"virt_begin_ns\","
               "\"virt_end_ns\"],\n\"spans\":[",
               workload.c_str());
  bool first = true;
  std::uint64_t dropped = 0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    dropped += ranks[r]->dropped();
    for (const Span& s : ranks[r]->kept()) {
      std::fprintf(f, "%s\n[\"%s\",%zu,%llu,%llu,%llu,%lld,%lld,%.3f,%.3f]",
                   first ? "" : ",", s.name, r, (unsigned long long)s.id,
                   (unsigned long long)s.parent, (unsigned long long)s.op,
                   (long long)s.host_begin_ns, (long long)s.host_end_ns,
                   s.virt_begin_ns, s.virt_end_ns);
      first = false;
    }
  }
  std::fprintf(f, "],\n\"dropped\":%llu,\n\"totals\":{",
               (unsigned long long)dropped);
  std::map<std::string, SpanTotals> merged;
  for (const SpanLog* log : ranks) {
    for (const auto& [name, t] : log->totals()) {
      SpanTotals& m = merged[name];
      m.count += t.count;
      m.host_ns += t.host_ns;
      m.self_host_ns += t.self_host_ns;
      m.virt_ns += t.virt_ns;
      m.self_virt_ns += t.self_virt_ns;
    }
  }
  first = true;
  for (const auto& [name, t] : merged) {
    std::fprintf(f,
                 "%s\n\"%s\":{\"count\":%llu,\"host_ns\":%.0f,"
                 "\"self_host_ns\":%.0f,\"virt_ns\":%.3f,"
                 "\"self_virt_ns\":%.3f}",
                 first ? "" : ",", name.c_str(), (unsigned long long)t.count,
                 t.host_ns, t.self_host_ns, t.virt_ns, t.self_virt_ns);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
