// Tests for the observability layer: log-bucketed latency histograms with
// percentile queries, the per-rank virtual-time trace ring buffer (begin/end
// events around every one-sided op), per-window lock/epoch counters, and the
// JSON exporters (armci-metrics-v1 and Chrome trace_event).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "src/armci/armci.hpp"
#include "src/mpisim/runtime.hpp"
#include "src/mpisim/trace.hpp"

namespace armci {
namespace {

using mpisim::Platform;
using mpisim::RankTrace;
using mpisim::TraceEvent;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0.0);
  EXPECT_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(0.95), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleClampsToExactMax) {
  LatencyHistogram h;
  h.record(5.0);  // bucket [4, 8): upper edge 8 must clamp to the true max
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(0.5), 5.0);
  EXPECT_EQ(h.percentile(0.95), 5.0);
  EXPECT_EQ(h.max_ns(), 5.0);
  EXPECT_EQ(h.mean_ns(), 5.0);
}

TEST(LatencyHistogramTest, PercentileIsBucketUpperEdge) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(3.0);   // bucket [2, 4)
  for (int i = 0; i < 5; ++i) h.record(1000.0);  // bucket [512, 1024)
  EXPECT_EQ(h.count(), 105u);
  // ceil(0.50 * 105) = 53 and ceil(0.95 * 105) = 100 samples are reached
  // within the [2, 4) bucket, so both percentiles report its upper edge.
  EXPECT_EQ(h.percentile(0.50), 4.0);
  EXPECT_EQ(h.percentile(0.95), 4.0);
  // ceil(0.99 * 105) = 104 lands in [512, 1024); the 1024 edge clamps to
  // the exact maximum.
  EXPECT_EQ(h.percentile(0.99), 1000.0);
  EXPECT_EQ(h.max_ns(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean_ns(), (100.0 * 3.0 + 5.0 * 1000.0) / 105.0);
}

TEST(LatencyHistogramTest, SubNanosecondSamplesLandInFirstBucket) {
  LatencyHistogram h;
  h.record(0.25);
  h.record(0.0);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.percentile(0.5), 0.25);  // bucket edge 2.0 clamped to max
}

TEST(LatencyHistogramTest, ResetZeroesEverything) {
  LatencyHistogram h;
  h.record(100.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0.0);
  EXPECT_EQ(h.sum_ns(), 0.0);
  EXPECT_EQ(h.percentile(0.95), 0.0);
}

// ---------------------------------------------------------------------------
// Trace events from live operations
// ---------------------------------------------------------------------------

/// Number of balanced begin/end pairs of `name`, asserting every end comes
/// at or after its begin (virtual time never runs backwards within an op).
int matched_pairs(const std::vector<TraceEvent>& events, const char* name) {
  int pairs = 0;
  std::vector<double> begins;
  for (const TraceEvent& e : events) {
    if (std::strcmp(e.name, name) != 0) continue;
    if (e.phase == 'B') {
      begins.push_back(e.ts_ns);
    } else if (e.phase == 'E') {
      if (begins.empty()) {
        ADD_FAILURE() << "unmatched end event for " << name;
        continue;
      }
      EXPECT_GE(e.ts_ns, begins.back()) << name;
      begins.pop_back();
      ++pairs;
    }
  }
  EXPECT_TRUE(begins.empty()) << "unmatched begin event for " << name;
  return pairs;
}

TEST(TraceTest, EveryOneSidedOpEmitsBeginEndPairs) {
  mpisim::run(2, Platform::infiniband, [] {
    Options o;
    o.metrics = true;
    o.trace = true;
    init(o);
    std::vector<void*> bases = malloc_world(1024);
    create_mutexes(1);
    barrier();
    if (mpisim::rank() == 0) {
      std::vector<char> local(256);
      std::iota(local.begin(), local.end(), 0);
      put(local.data(), bases[1], 64, 1);
      get(bases[1], local.data(), 64, 1);
      const double one = 1.0;
      double d[4] = {1, 2, 3, 4};
      acc(AccType::float64, &one, d, bases[1], 32, 1);

      StridedSpec s;
      s.stride_levels = 1;
      s.count = {32, 4};
      s.src_strides = {32};
      s.dst_strides = {64};
      put_strided(local.data(), bases[1], s, 1);

      Giov g;
      g.bytes = 16;
      for (int i = 0; i < 4; ++i) {
        g.src.push_back(local.data() + i * 16);
        g.dst.push_back(static_cast<char*>(bases[1]) + 512 + i * 32);
      }
      put_iov({&g, 1}, 1);

      std::int64_t old = 0;
      rmw(RmwOp::fetch_and_add_long, &old, bases[1], 1, 1);
      lock(0, 0);
      unlock(0, 0);

      const std::vector<TraceEvent> ev = mpisim::tracer().events();
      EXPECT_EQ(matched_pairs(ev, "armci.put"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.get"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.acc"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.put_strided"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.put_iov"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.rmw"), 1);
      EXPECT_EQ(matched_pairs(ev, "armci.lock"), 1);
      // Two mutex round-trips: the MPI-2 backend implements rmw through
      // the queueing-mutex protocol, plus the explicit lock()/unlock().
      EXPECT_EQ(matched_pairs(ev, "qmutex.lock"), 2);
      EXPECT_EQ(matched_pairs(ev, "qmutex.unlock"), 2);
      // Backend hooks nest inside the API pairs: 3 contiguous transfers.
      EXPECT_EQ(matched_pairs(ev, "mpi.contig"), 3);
      EXPECT_GE(matched_pairs(ev, "win.lock_excl"), 3);
      EXPECT_EQ(mpisim::tracer().dropped(), 0u);

      // Per-window counters: the data window saw exclusive epochs.
      std::uint64_t excl = 0, epochs = 0;
      for (const auto& [id, ws] : mpisim::tracer().win_stats()) {
        excl += ws.exclusive_locks;
        epochs += ws.epochs;
      }
      EXPECT_GE(excl, 3u);
      EXPECT_GE(epochs, 3u);

      // The registry recorded one latency sample per op class, each with
      // positive virtual duration on the InfiniBand profile.
      for (int c = 0; c < kOpClassCount; ++c) {
        const auto cls = static_cast<OpClass>(c);
        EXPECT_EQ(metrics().op(cls).latency.count(), 1u)
            << op_class_name(cls);
        EXPECT_GT(metrics().op(cls).latency.max_ns(), 0.0)
            << op_class_name(cls);
      }
    }
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, DisabledByDefaultAndCostsNothing) {
  mpisim::run(2, Platform::ideal, [] {
    init({});
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      put(&c, bases[1], 1, 1);
      EXPECT_FALSE(mpisim::tracer().enabled());
      EXPECT_TRUE(mpisim::tracer().events().empty());
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, RingBufferOverwritesOldestAndCountsDrops) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.trace = true;
    o.trace_capacity = 8;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      for (int i = 0; i < 16; ++i) put(&c, bases[1], 1, 1);
      EXPECT_EQ(mpisim::tracer().events().size(), 8u);
      EXPECT_GT(mpisim::tracer().total_events(), 8u);
      EXPECT_EQ(mpisim::tracer().dropped(),
                mpisim::tracer().total_events() - 8u);
      // Chronological order survives the wrap-around.
      double prev = -1.0;
      for (const TraceEvent& e : mpisim::tracer().events()) {
        EXPECT_GE(e.ts_ns, prev);
        prev = e.ts_ns;
      }
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

TEST(TraceTest, ResetStatsClearsLatencyHistograms) {
  mpisim::run(2, Platform::ideal, [] {
    Options o;
    o.metrics = true;
    init(o);
    std::vector<void*> bases = malloc_world(64);
    barrier();
    if (mpisim::rank() == 0) {
      char c = 1;
      put(&c, bases[1], 1, 1);
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 1u);
      reset_stats();
      EXPECT_EQ(metrics().op(OpClass::put).latency.count(), 0u);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

// ---------------------------------------------------------------------------
// JSON exporters
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: braces/brackets balance outside strings
/// and every string closes.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc)
        esc = false;
      else if (c == '\\')
        esc = true;
      else if (c == '"')
        in_str = false;
      continue;
    }
    if (c == '"')
      in_str = true;
    else if (c == '{' || c == '[')
      ++depth;
    else if (c == '}' || c == ']')
      if (--depth < 0) return false;
  }
  return depth == 0 && !in_str;
}

TEST(TraceJsonTest, ChromeTraceDocumentIsWellFormed) {
  RankTrace r0, r1;
  r0.rank = 0;
  r0.events.push_back({"armci.put", mpisim::TraceCat::api, 'B', 100.0, 64});
  r0.events.push_back({"armci.put", mpisim::TraceCat::api, 'E', 350.0, 64});
  r1.rank = 1;
  r1.events.push_back({"win.lock_excl", mpisim::TraceCat::window, 'B', 10.0,
                       1});
  r1.events.push_back({"win.lock_excl", mpisim::TraceCat::window, 'E', 20.0,
                       1});
  const std::string doc = mpisim::chrome_trace_json({r0, r1});
  EXPECT_TRUE(json_balanced(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"window\""), std::string::npos);
  // 100 ns -> 0.1 us: timestamps are microseconds in the Chrome format.
  EXPECT_NE(doc.find("\"ts\":0.1"), std::string::npos);
}

TEST(TraceJsonTest, EmptyTraceIsStillValid) {
  const std::string doc = mpisim::chrome_trace_json({});
  EXPECT_TRUE(json_balanced(doc)) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceJsonTest, MetricsDocumentIsWellFormed) {
  mpisim::run(2, Platform::infiniband, [] {
    Options o;
    o.metrics = true;
    o.trace = true;
    init(o);
    std::vector<void*> bases = malloc_world(256);
    barrier();
    if (mpisim::rank() == 0) {
      char buf[64] = {};
      put(buf, bases[1], 64, 1);
      get(bases[1], buf, 32, 1);
      const std::string doc = metrics_json();
      EXPECT_TRUE(json_balanced(doc)) << doc;
      EXPECT_NE(doc.find("\"schema\":\"armci-metrics-v1\""),
                std::string::npos);
      EXPECT_NE(doc.find("\"rank\":0"), std::string::npos);
      EXPECT_NE(doc.find("\"put\":{\"count\":1"), std::string::npos);
      EXPECT_NE(doc.find("\"get\":{\"count\":1"), std::string::npos);
      EXPECT_NE(doc.find("\"windows\":["), std::string::npos);
      EXPECT_NE(doc.find("\"exclusive_locks\""), std::string::npos);
      EXPECT_NE(doc.find("\"trace\":{\"enabled\":true"), std::string::npos);
    }
    barrier();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
}

/// The key structure of a JSON document: every key in order, with the
/// brackets and commas around them, and every scalar value dropped.
std::string json_keys(const std::string& doc) {
  std::string keys;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"') {
      std::size_t end = i + 1;
      while (doc[end] != '"') end += doc[end] == '\\' ? 2 : 1;
      if (end + 1 < doc.size() && doc[end + 1] == ':')
        keys.append(doc, i + 1, end - i - 1);
      i = end;
    } else if (std::strchr("{}[],", c) != nullptr) {
      keys += c;
    }
  }
  return keys;
}

// Pins the armci-metrics-v1 schema: a table edit that renames, reorders or
// drops a key fails here. Two ranks on the ideal platform; rank 0 issues a
// put, get, acc, a nonblocking get and a mutex lock, so both the GMR window
// and the mutex window appear under "windows".
TEST(TraceJsonTest, MetricsDocumentKeysArePinned) {
  std::string doc;
  mpisim::run(2, Platform::ideal, [&] {
    Options o;
    o.metrics = true;
    o.trace = true;
    init(o);
    std::vector<void*> bases = malloc_world(256);
    create_mutexes(1);
    barrier();
    if (mpisim::rank() == 0) {
      double buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      const double one = 1.0;
      char* const remote = static_cast<char*>(bases[1]);
      put(buf, remote, sizeof buf, 1);
      get(remote, buf, sizeof buf, 1);
      acc(AccType::float64, &one, buf, remote, sizeof buf, 1);
      Request req = nb_get(remote + 128, buf, 64, 1);
      wait(req);
      lock(0, 1);
      unlock(0, 1);
      doc = metrics_json();
    }
    barrier();
    destroy_mutexes();
    free(bases[static_cast<std::size_t>(mpisim::rank())]);
    finalize();
  });
  const std::string op = "{count,mean_ns,p50_ns,p95_ns,max_ns}";
  const std::string win =
      "{win_id,gmr_id,exclusive_locks,shared_locks,lock_alls,flushes,epochs}";
  EXPECT_EQ(json_keys(doc),
            "{schema,rank,"
            "counters{puts,gets,accs,put_bytes,get_bytes,acc_bytes,"
            "strided_ops,strided_bytes,iov_ops,iov_bytes,iov_segments,rmws,"
            "mutex_locks,fences,barriers,allocations,frees,dla_epochs,"
            "staged_local_copies,transient_faults,retries,retry_exhausted,"
            "rma_conflicts,rma_races,nb_ops,nb_deferred,nb_eager,"
            "nb_conflict_flushes,flushed_queues,coalesced_epochs,"
            "dt_cache_hits,dt_cache_misses,ga_multi_owner_ops,"
            "ga_owner_fanout,ga_nb_batches,ops_self,ops_same_node,ops_remote,"
            "failovers,replica_writes},"
            "am{am_sent,am_served,am_terminations},"
            "ops{put" + op + ",get" + op + ",acc" + op + ",strided" + op +
                ",iov" + op + ",rmw" + op + ",mutex" + op + "},"
            "windows[" + win + "," + win + "],"
            "rma_check{mode,same_origin,concurrent,acc_mix,local,discipline},"
            "rma_race{ww,rw,acc_mix,shm,dead_origin,overflow},"
            "recovery{detect_latency_ns},"
            "progress{enabled,ticks,retires,overlap_comm_ns,"
            "overlap_hidden_ns,overlap_efficiency},"
            "trace{enabled,events,dropped}}")
      << doc;
}

}  // namespace
}  // namespace armci
