// Observability layer tests (DESIGN.md §5.8).
//
// The golden-trace property: trace timestamps come from SimCost, not the
// wall clock, so running the same seeded workload twice must produce
// byte-identical Chrome trace JSON and metrics dumps. Each run executes in a
// fresh std::thread so the thread-local SimCost accumulator starts at zero —
// the same baseline the second run gets. The planted mutation
// (test_hooks::reorder_trace_spans) proves the digest comparison has teeth.
//
// Also: unit coverage for the Tracer event format and the MetricsRegistry
// (Prometheus-style exposition, labels, cluster-wide merge, JSON export).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/test_hooks.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace wukongs {
namespace {

constexpr char kContinuous[] = R"(
    REGISTER QUERY QC AS
    SELECT ?X ?Y ?Z
    FROM STREAM <Tweet_Stream> [RANGE 10s STEP 1s]
    FROM STREAM <Like_Stream> [RANGE 5s STEP 1s]
    FROM <X-Lab>
    WHERE {
      GRAPH <Tweet_Stream> { ?X po ?Z }
      GRAPH <X-Lab>        { ?X fo ?Y }
      GRAPH <Like_Stream>  { ?Y li ?Z }
    })";

constexpr char kOneShot[] =
    "SELECT ?X WHERE { Logan po ?X . ?X ht #sosp17 . Erik li ?X }";

struct WorkloadOutput {
  std::string trace_json;
  uint32_t digest = 0;
  size_t trace_events = 0;
  std::string metrics_dump;
  // Query results, serialized as interned ids (interning order is fixed by
  // the workload, so these are comparable across runs).
  std::vector<std::vector<uint64_t>> continuous_rows;
  std::vector<std::vector<uint64_t>> oneshot_rows;
};

std::vector<std::vector<uint64_t>> RowIds(const QueryResult& result) {
  std::vector<std::vector<uint64_t>> out;
  for (const auto& row : result.rows) {
    std::vector<uint64_t> ids;
    ids.reserve(row.size());
    for (const ResultValue& v : row) {
      ids.push_back(v.vid);
    }
    out.push_back(std::move(ids));
  }
  return out;
}

// The paper's Fig. 1-2 running example, driven to completion with the
// observability layer attached (or not). Runs on a dedicated thread so
// SimCost starts from the same zero baseline every time.
WorkloadOutput RunSeededWorkload(bool with_obs) {
  WorkloadOutput out;
  std::thread runner([&out, with_obs] {
    obs::MetricsRegistry registry;
    obs::Tracer tracer;

    ClusterConfig config;
    config.nodes = 2;
    config.batch_interval_ms = 1000;
    if (with_obs) {
      config.metrics = &registry;
      config.tracer = &tracer;
    }
    Cluster cluster(config);

    StreamId tweet = *cluster.DefineStream("Tweet_Stream", {"ga"});
    StreamId like = *cluster.DefineStream("Like_Stream");

    StringServer* s = cluster.strings();
    auto triple = [&](const char* su, const char* p, const char* o) {
      return Triple{s->InternVertex(su), s->InternPredicate(p),
                    s->InternVertex(o)};
    };
    std::vector<Triple> base = {
        triple("Logan", "fo", "Erik"),   triple("Erik", "fo", "Logan"),
        triple("Logan", "po", "T-13"),   triple("Erik", "po", "T-12"),
        triple("T-12", "ht", "#sosp17"), triple("T-13", "ht", "#sosp17"),
        triple("Erik", "li", "T-13"),    triple("Logan", "li", "T-12"),
    };
    cluster.LoadBase(base);

    auto handle = cluster.RegisterContinuous(kContinuous);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();

    auto tuple = [&](const char* su, const char* p, const char* o,
                     StreamTime ts) {
      return StreamTuple{{s->InternVertex(su), s->InternPredicate(p),
                          s->InternVertex(o)},
                         ts,
                         TupleKind::kTimeless};
    };
    ASSERT_TRUE(cluster
                    .FeedStream(tweet, {tuple("Logan", "po", "T-15", 2000),
                                        tuple("T-15", "ga", "31,121", 2000),
                                        tuple("T-15", "ht", "#sosp17", 2000),
                                        tuple("Erik", "po", "T-16", 5000),
                                        tuple("Logan", "po", "T-17", 8000)})
                    .ok());
    ASSERT_TRUE(cluster
                    .FeedStream(like, {tuple("Erik", "li", "T-15", 6000),
                                       tuple("Tony", "li", "T-15", 6000),
                                       tuple("Bruce", "li", "T-15", 6000)})
                    .ok());
    cluster.AdvanceStreams(10000);

    auto cont = cluster.ExecuteContinuousAt(*handle, 10000);
    ASSERT_TRUE(cont.ok()) << cont.status().ToString();
    out.continuous_rows = RowIds(cont->result);

    auto one = cluster.OneShot(kOneShot);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    out.oneshot_rows = RowIds(one->result);

    cluster.RunMaintenance(0);

    out.metrics_dump = cluster.DumpMetrics();
    out.trace_json = tracer.ToChromeJson();
    out.digest = tracer.Digest();
    out.trace_events = tracer.size();
  });
  runner.join();
  return out;
}

TEST(ObsDeterminismTest, SameWorkloadYieldsByteIdenticalTraceAndMetrics) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DWUKONGS_OBS=OFF)";
  }
  WorkloadOutput first = RunSeededWorkload(/*with_obs=*/true);
  WorkloadOutput second = RunSeededWorkload(/*with_obs=*/true);

  ASSERT_GT(first.trace_events, 0u);
  EXPECT_EQ(first.trace_events, second.trace_events);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.metrics_dump, second.metrics_dump);

  // The trace covers both lifecycles the design names: the query path and
  // the ingest path, down to executor stages.
  for (const char* span :
       {"query/parse", "query/plan", "query/execute", "query/merge",
        "ingest/adaptor", "ingest/dispatch", "ingest/index_publish",
        "exec/patterns"}) {
    EXPECT_NE(first.trace_json.find(span), std::string::npos)
        << "missing span " << span;
  }
  // And the dump carries the absorbed counters, not just ad-hoc stats.
  for (const char* metric :
       {"wukongs_batches_injected_total", "wukongs_tuples_injected_total",
        "wukongs_queries_oneshot_total", "wukongs_queries_continuous_total",
        "wukongs_stream_index_lookups_total", "wukongs_stable_sn",
        "wukongs_store_collapse_keys_total"}) {
    EXPECT_NE(first.metrics_dump.find(metric), std::string::npos)
        << "missing metric " << metric;
  }
}

TEST(ObsDeterminismTest, PlantedSpanReorderIsCaughtByDigest) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "observability compiled out (-DWUKONGS_OBS=OFF)";
  }
  WorkloadOutput clean = RunSeededWorkload(/*with_obs=*/true);
  WorkloadOutput mutated;
  {
    test_hooks::ScopedMutation plant(&test_hooks::reorder_trace_spans);
    mutated = RunSeededWorkload(/*with_obs=*/true);
  }
  // Same workload, same event count — but the emission order was perturbed,
  // and the digest must notice.
  EXPECT_EQ(clean.trace_events, mutated.trace_events);
  EXPECT_NE(clean.digest, mutated.digest);
  EXPECT_NE(clean.trace_json, mutated.trace_json);
}

TEST(ObsDeterminismTest, RuntimeKillSwitchPreservesResults) {
  WorkloadOutput on = RunSeededWorkload(/*with_obs=*/true);
  WorkloadOutput off = RunSeededWorkload(/*with_obs=*/false);

  // Observability must be a pure observer: identical query results with the
  // layer detached, and nothing recorded anywhere.
  EXPECT_EQ(on.continuous_rows, off.continuous_rows);
  EXPECT_EQ(on.oneshot_rows, off.oneshot_rows);
  EXPECT_EQ(off.trace_events, 0u);
  EXPECT_TRUE(off.metrics_dump.empty());
}

TEST(TracerTest, EmitsChromeTraceEventsWithArgsAndSequence) {
  obs::Tracer tracer;
  {
    obs::Tracer::Span span = tracer.StartSpan("query", "query/execute", 3);
    span.Arg("rows", static_cast<uint64_t>(42));
    span.Arg("plan", std::string("fork-join"));
  }
  tracer.Instant("query", "query/deliver", 1);
  ASSERT_EQ(tracer.size(), 2u);

  std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query/execute\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":42"), std::string::npos);
  EXPECT_NE(json.find("\"plan\":\"fork-join\""), std::string::npos);
  EXPECT_NE(json.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);

  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_NE(tracer.Digest(), 0u);  // Digest of the empty envelope, not 0.
}

TEST(TracerTest, DefaultSpanAndNullGuardsAreInert) {
  // A default-constructed Span (the disabled path at wiring sites) must not
  // crash on Arg/End and must not emit anywhere.
  obs::Tracer::Span span;
  span.Arg("rows", static_cast<uint64_t>(1));
  span.End();
  span.End();  // Idempotent.
}

TEST(MetricsRegistryTest, TextDumpUsesPrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("wukongs_batches_injected_total")->Add(7);
  registry.GetGauge("wukongs_vts_lag_batches")->Set(2.0);
  obs::HistogramMetric* h = registry.GetHistogram("wukongs_latency_ms");
  h->Observe(1.0);
  h->Observe(2.0);
  h->Observe(4.0);

  std::string dump = registry.TextDump();
  EXPECT_NE(dump.find("# TYPE wukongs_batches_injected_total counter\n"
                      "wukongs_batches_injected_total 7\n"),
            std::string::npos);
  EXPECT_NE(dump.find("# TYPE wukongs_vts_lag_batches gauge\n"
                      "wukongs_vts_lag_batches 2\n"),
            std::string::npos);
  EXPECT_NE(dump.find("# TYPE wukongs_latency_ms summary\n"),
            std::string::npos);
  EXPECT_NE(dump.find("wukongs_latency_ms_count 3\n"), std::string::npos);
  EXPECT_NE(dump.find("wukongs_latency_ms_sum 7\n"), std::string::npos);
  EXPECT_NE(dump.find("wukongs_latency_ms{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(dump.find("wukongs_latency_ms_max"), std::string::npos);

  // Filtering narrows the dump to matching families only.
  std::string filtered = registry.TextDump("vts_lag");
  EXPECT_NE(filtered.find("wukongs_vts_lag_batches"), std::string::npos);
  EXPECT_EQ(filtered.find("wukongs_batches_injected_total"),
            std::string::npos);
  EXPECT_EQ(filtered.find("wukongs_latency_ms"), std::string::npos);
}

TEST(MetricsRegistryTest, LabeledBuildsPrometheusLabelBlocks) {
  EXPECT_EQ(obs::MetricsRegistry::Labeled("m", {}), "m");
  EXPECT_EQ(obs::MetricsRegistry::Labeled("m", {{"stream", "S0"}}),
            "m{stream=\"S0\"}");
  EXPECT_EQ(obs::MetricsRegistry::Labeled(
                "m", {{"stream", "S0"}, {"result", "hit"}}),
            "m{stream=\"S0\",result=\"hit\"}");
  // Labeled names round-trip through the registry as distinct series.
  obs::MetricsRegistry registry;
  registry.GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_stream_index_lookups_total", {{"result", "hit"}}))->Add(3);
  registry.GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_stream_index_lookups_total", {{"result", "miss"}}))->Add(1);
  std::string dump = registry.TextDump();
  EXPECT_NE(dump.find("wukongs_stream_index_lookups_total{result=\"hit\"} 3"),
            std::string::npos);
  EXPECT_NE(dump.find("wukongs_stream_index_lookups_total{result=\"miss\"} 1"),
            std::string::npos);
  // One # TYPE line covers both series of the family.
  size_t first = dump.find("# TYPE wukongs_stream_index_lookups_total");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(dump.find("# TYPE wukongs_stream_index_lookups_total", first + 1),
            std::string::npos);
}

TEST(MetricsRegistryTest, MergeFromFoldsClusterWideCounters) {
  // Cluster-wide merge semantics: counters sum, gauges take the max (the
  // worst node wins for lag-style gauges), histograms merge exactly.
  obs::MetricsRegistry node0;
  obs::MetricsRegistry node1;
  node0.GetCounter("wukongs_tuples_injected_total")->Add(10);
  node1.GetCounter("wukongs_tuples_injected_total")->Add(32);
  node1.GetCounter("wukongs_door_shed_tuples_total")->Add(5);
  node0.GetGauge("wukongs_vts_lag_batches")->Set(1.0);
  node1.GetGauge("wukongs_vts_lag_batches")->Set(4.0);
  node0.GetHistogram("wukongs_latency_ms")->Observe(1.0);
  node0.GetHistogram("wukongs_latency_ms")->Observe(3.0);
  node1.GetHistogram("wukongs_latency_ms")->Observe(2.0);

  obs::MetricsRegistry merged;
  merged.MergeFrom(node0);
  merged.MergeFrom(node1);
  EXPECT_EQ(merged.GetCounter("wukongs_tuples_injected_total")->value(), 42u);
  EXPECT_EQ(merged.GetCounter("wukongs_door_shed_tuples_total")->value(), 5u);
  EXPECT_DOUBLE_EQ(merged.GetGauge("wukongs_vts_lag_batches")->value(), 4.0);
  BucketHistogram snap = merged.GetHistogram("wukongs_latency_ms")->Snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_DOUBLE_EQ(snap.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(snap.Max(), 3.0);

  // Merge order must not matter for the dump (the property tests cover the
  // histogram algebra; this pins the registry-level composition).
  obs::MetricsRegistry reversed;
  reversed.MergeFrom(node1);
  reversed.MergeFrom(node0);
  EXPECT_EQ(merged.TextDump(), reversed.TextDump());
}

TEST(MetricsRegistryTest, ToJsonExportsAllFamilies) {
  obs::MetricsRegistry registry;
  registry.GetCounter("c_total")->Add(3);
  registry.GetGauge("g")->Set(1.5);
  registry.GetHistogram("h_ms")->Observe(10.0);

  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{\"c_total\":3}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.5}"), std::string::npos);
  EXPECT_NE(json.find("\"h_ms\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\":0"), std::string::npos);
}

}  // namespace
}  // namespace wukongs
