// Delta-cache tests (DESIGN.md §5.9).
//
// Covers the cache mechanics in isolation, the cluster integration (delta
// triggers must be bag-identical to cold full-window re-execution), the
// planner's per-window cardinality fix and cache-friendly ordering hint, a
// planted invalidation bug the parity oracle must catch, a randomized
// append/expire/GC interleaving property, and a threaded race of concurrent
// triggers against maintenance GC (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/maintenance_daemon.h"
#include "src/cluster/worker_pool.h"
#include "src/common/rng.h"
#include "src/common/test_hooks.h"
#include "src/engine/delta_cache.h"
#include "src/sparql/plan_pin.h"
#include "src/store/planner.h"
#include "src/testkit/schedule_controller.h"

namespace wukongs {
namespace {

constexpr uint64_t kIntervalMs = 100;

// Bag canonicalization: delta and cold executions must agree as multisets —
// the delta union is batch-major while the cold scan interleaves, so row
// order is not part of the contract. Rows are encoded as strings to get a
// total order without teaching ResultValue to compare.
std::multiset<std::string> Canon(const QueryResult& r) {
  std::multiset<std::string> out;
  for (const auto& row : r.rows) {
    std::string key;
    for (const ResultValue& v : row) {
      key += v.is_number ? "n" + std::to_string(v.number)
                         : "v" + std::to_string(v.vid);
      key += "|";
    }
    out.insert(key);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DeltaCacheTest: the cache data structure in isolation.
// ---------------------------------------------------------------------------

ColumnarTable OneRowTable(VertexId v) {
  ColumnarTable t;
  t.AddColumn(0);
  t.AppendRow(&v);
  return t;
}

TEST(DeltaCacheTest, MissThenHitAccounting) {
  DeltaCache cache;
  cache.BeginTrigger(/*epoch=*/1, /*lo=*/0, /*hi=*/4);
  ColumnarTable out;
  EXPECT_FALSE(cache.GetContribution(2, &out));
  cache.PutContribution(2, OneRowTable(7));
  ASSERT_TRUE(cache.GetContribution(2, &out));
  EXPECT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.EntryCount(), 1u);
  EXPECT_GT(cache.MemoryBytes(), 0u);
}

TEST(DeltaCacheTest, EpochChangeFlushesEverything) {
  DeltaCache cache;
  cache.BeginTrigger(1, 0, 4);
  cache.PutPrefix(OneRowTable(1));
  cache.PutContribution(0, OneRowTable(2));
  cache.PutContribution(1, OneRowTable(3));
  EXPECT_EQ(cache.EntryCount(), 2u);

  cache.BeginTrigger(2, 0, 4);  // Stored graph moved.
  ColumnarTable out;
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_FALSE(cache.GetPrefix(&out));
  EXPECT_GE(cache.stats().epoch_flushes, 1u);
}

TEST(DeltaCacheTest, WindowSlideRetiresOutOfWindowEntries) {
  DeltaCache cache;
  cache.BeginTrigger(1, 0, 9);
  for (BatchSeq b = 0; b <= 9; ++b) {
    cache.PutContribution(b, OneRowTable(b));
  }
  cache.PutPrefix(OneRowTable(99));
  EXPECT_EQ(cache.EntryCount(), 10u);

  cache.BeginTrigger(1, 3, 12);  // Window slid by three slices.
  EXPECT_EQ(cache.EntryCount(), 7u);  // 3..9 survive, 0..2 retired.
  ColumnarTable out;
  EXPECT_TRUE(cache.GetPrefix(&out));  // The prefix never slides out.
  EXPECT_GE(cache.stats().invalidations, 3u);
  // Size stays bounded by the window span no matter how long it runs.
  EXPECT_LE(cache.EntryCount(), 10u);
}

TEST(DeltaCacheTest, InvalidateBelowAndAll) {
  DeltaCache cache;
  cache.BeginTrigger(1, 0, 4);
  for (BatchSeq b = 0; b <= 4; ++b) {
    cache.PutContribution(b, OneRowTable(b));
  }
  EXPECT_EQ(cache.InvalidateBelow(2), 2u);  // Retires 0 and 1.
  EXPECT_EQ(cache.EntryCount(), 3u);
  cache.PutPrefix(OneRowTable(99));
  EXPECT_EQ(cache.InvalidateAll(), 4u);  // 3 contributions + prefix.
  EXPECT_EQ(cache.EntryCount(), 0u);
}

// ---------------------------------------------------------------------------
// DeltaClusterTest: delta triggers through the full cluster.
// ---------------------------------------------------------------------------

constexpr char kDeltaQuery[] = R"(
    REGISTER QUERY D AS
    SELECT ?y ?w
    FROM STREAM <S> [RANGE 1s STEP 100ms]
    FROM <Base>
    WHERE {
      GRAPH <Base> { Logan fo ?y }
      GRAPH <S>    { ?y at ?w }
    })";

class DeltaClusterTest : public ::testing::Test {
 protected:
  void Init(uint32_t nodes, bool delta_enabled = true,
            uint64_t batches_per_sn = 1) {
    ClusterConfig config;
    config.nodes = nodes;
    config.batch_interval_ms = kIntervalMs;
    config.batches_per_sn = batches_per_sn;
    config.delta_cache_enabled = delta_enabled;
    cluster_ = std::make_unique<Cluster>(config);
    // `at` is a timing predicate: its tuples live only in transient slices,
    // so feeding the stream never moves the stored-graph epoch and delta
    // contributions stay reusable across triggers.
    stream_ = *cluster_->DefineStream("S", {"at"});

    StringServer* s = cluster_->strings();
    auto triple = [&](const char* su, const char* p, const char* o) {
      return Triple{s->InternVertex(su), s->InternPredicate(p),
                    s->InternVertex(o)};
    };
    TripleVec base = {triple("Logan", "fo", "Erik"),
                      triple("Logan", "fo", "Tony"),
                      triple("Erik", "fo", "Logan")};
    cluster_->LoadBase(base);
  }

  // One timing tuple per 100ms slice: person k%2 pings location "L<k>".
  StreamTuple PingAt(StreamTime ts) {
    StringServer* s = cluster_->strings();
    const char* who = (ts / kIntervalMs) % 2 == 0 ? "Erik" : "Tony";
    return StreamTuple{{s->InternVertex(who), s->InternPredicate("at"),
                        s->InternVertex("L" + std::to_string(ts))},
                       ts,
                       TupleKind::kTiming};
  }

  // Runs the trigger at `end` and checks the §5.9 contract: the delivered
  // result is bag-identical to a cold full-window re-execution.
  QueryExecution TriggerWithParity(Cluster::ContinuousHandle h, StreamTime end) {
    auto exec = cluster_->ExecuteContinuousAt(h, end);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    auto cold = cluster_->ExecuteContinuousColdAt(h, end);
    EXPECT_TRUE(cold.ok()) << cold.status().ToString();
    if (exec.ok() && cold.ok()) {
      EXPECT_EQ(Canon(exec->result), Canon(cold->result))
          << "delta/cold divergence at end=" << end;
      EXPECT_FALSE(cold->delta);
    }
    return exec.ok() ? *exec : QueryExecution{};
  }

  std::unique_ptr<Cluster> cluster_;
  StreamId stream_ = 0;
};

TEST_F(DeltaClusterTest, SlidingTriggersServeCachedSlices) {
  Init(2);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_TRUE(cluster_->HasDeltaCache(*h));

  size_t nonempty = 0;
  for (StreamTime end = 1000; end <= 3000; end += kIntervalMs) {
    ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(end - 50)}).ok());
    cluster_->AdvanceStreams(end);
    ASSERT_TRUE(cluster_->WindowReady(*h, end));
    QueryExecution exec = TriggerWithParity(*h, end);
    EXPECT_TRUE(exec.delta) << "end=" << end;
    if (end > 1000) {
      // The window slid by one slice: at most one batch is fresh.
      EXPECT_GE(exec.delta_slices_cached, 9u) << "end=" << end;
      EXPECT_LE(exec.delta_slices_fresh, 1u) << "end=" << end;
    }
    nonempty += exec.result.rows.empty() ? 0 : 1;
    // Size bounded by the window span (10 slices of 100ms in 1s).
    EXPECT_LE(cluster_->DeltaEntryCountOf(*h), 10u);
  }
  EXPECT_GT(nonempty, 0u);  // The workload actually produces bindings.

  DeltaCache::Stats stats = cluster_->DeltaStatsOf(*h);
  EXPECT_GT(stats.hits, stats.misses);
  EXPECT_GT(stats.invalidations, 0u);  // Window-slide retirements.
}

TEST_F(DeltaClusterTest, ColumnarDeltaUnionsStayBagIdenticalToColdRecompute) {
  // §5.13 parity regression: the DeltaCache stores ColumnarTable
  // contributions whose chunks the trigger-time union *adopts* (no row
  // copies). Every delta trigger must stay bag-identical to a cold
  // full-window recompute.
  Init(2);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(cluster_->HasDeltaCache(*h));
  for (StreamTime end = 1000; end <= 2500; end += kIntervalMs) {
    ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(end - 50)}).ok());
    cluster_->AdvanceStreams(end);
    ASSERT_TRUE(cluster_->WindowReady(*h, end));
    QueryExecution exec = TriggerWithParity(*h, end);  // Delta == cold.
    if (end > 1000) {
      EXPECT_TRUE(exec.delta) << "end=" << end;
      EXPECT_GE(exec.delta_slices_cached, 9u) << "end=" << end;
    }
  }
  DeltaCache::Stats stats = cluster_->DeltaStatsOf(*h);
  EXPECT_GT(stats.hits, stats.misses);
}

TEST_F(DeltaClusterTest, StoredEdgeTurningVisibleFlushesTheCache) {
  // With two batches per snapshot, a stored-graph edge fed in the first
  // batch of a snapshot is appended at once but visible only when the second
  // batch is stable. The trigger in between caches a prefix without it; the
  // next trigger finds the same appended-edge count, so only the snapshot
  // term of the stored epoch can flush the stale prefix.
  Init(2, /*delta_enabled=*/true, /*batches_per_sn=*/2);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(cluster_->HasDeltaCache(*h));
  StringServer* s = cluster_->strings();
  for (StreamTime end = 100; end <= 1000; end += kIntervalMs) {
    ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(end - 50)}).ok());
    cluster_->AdvanceStreams(end);
  }
  TriggerWithParity(*h, 1000);

  // Batch 10 (the first of snapshot 6): Logan gains a followee who pings.
  const StreamTuple follow{{s->InternVertex("Logan"), s->InternPredicate("fo"),
                            s->InternVertex("Zed")},
                           1020,
                           TupleKind::kTimeless};
  const StreamTuple ping{{s->InternVertex("Zed"), s->InternPredicate("at"),
                          s->InternVertex("Lzed")},
                         1030,
                         TupleKind::kTiming};
  ASSERT_TRUE(cluster_->FeedStream(stream_, {follow, ping}).ok());
  cluster_->AdvanceStreams(1100);
  TriggerWithParity(*h, 1100);  // Zed's edge is appended, not yet visible.

  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(1150)}).ok());
  cluster_->AdvanceStreams(1200);
  QueryExecution exec = TriggerWithParity(*h, 1200);
  EXPECT_TRUE(exec.delta);
  bool saw_zed = false;
  for (const std::vector<ResultValue>& row : exec.result.rows) {
    saw_zed = saw_zed || row[0].vid == s->InternVertex("Zed");
  }
  EXPECT_TRUE(saw_zed) << "the edge visible at snapshot 6 is missing";
}

TEST_F(DeltaClusterTest, ColdReExecutionDoesNotTouchTheCache) {
  Init(1);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(150), PingAt(250)}).ok());
  cluster_->AdvanceStreams(1000);
  ASSERT_TRUE(cluster_->ExecuteContinuousAt(*h, 1000).ok());

  DeltaCache::Stats before = cluster_->DeltaStatsOf(*h);
  auto cold = cluster_->ExecuteContinuousColdAt(*h, 1000);
  ASSERT_TRUE(cold.ok());
  DeltaCache::Stats after = cluster_->DeltaStatsOf(*h);
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  EXPECT_EQ(before.invalidations, after.invalidations);
}

TEST_F(DeltaClusterTest, IneligibleShapesGetNoCache) {
  Init(1);
  // Two window-scoped patterns: contributions are not per-slice decomposable.
  auto two = cluster_->RegisterContinuous(R"(
      REGISTER QUERY T AS
      SELECT ?y ?w ?v
      FROM STREAM <S> [RANGE 1s STEP 100ms]
      FROM <Base>
      WHERE {
        GRAPH <Base> { Logan fo ?y }
        GRAPH <S>    { ?y at ?w }
        GRAPH <S>    { ?y at ?v }
      })");
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_FALSE(cluster_->HasDeltaCache(*two));
  EXPECT_EQ(cluster_->DeltaStatsOf(*two).hits, 0u);
  EXPECT_EQ(cluster_->DeltaEntryCountOf(*two), 0u);

  // LIMIT makes row identity order-dependent; the batch-major union must
  // not be allowed to pick a different surviving subset than the cold scan.
  auto limited = cluster_->RegisterContinuous(R"(
      REGISTER QUERY L AS
      SELECT ?y ?w
      FROM STREAM <S> [RANGE 1s STEP 100ms]
      FROM <Base>
      WHERE {
        GRAPH <Base> { Logan fo ?y }
        GRAPH <S>    { ?y at ?w }
      } LIMIT 1)");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_FALSE(cluster_->HasDeltaCache(*limited));

  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(150)}).ok());
  cluster_->AdvanceStreams(1000);
  auto exec = cluster_->ExecuteContinuousAt(*two, 1000);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->delta);
}

TEST_F(DeltaClusterTest, ConfigKnobDisablesDelta) {
  Init(1, /*delta_enabled=*/false);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(cluster_->HasDeltaCache(*h));
  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(150)}).ok());
  cluster_->AdvanceStreams(1000);
  auto exec = cluster_->ExecuteContinuousAt(*h, 1000);
  ASSERT_TRUE(exec.ok());
  EXPECT_FALSE(exec->delta);
  EXPECT_FALSE(exec->result.rows.empty());
}

TEST_F(DeltaClusterTest, StoredGraphChangeFlushesTheEpoch) {
  Init(1);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(150), PingAt(250)}).ok());
  cluster_->AdvanceStreams(1000);
  TriggerWithParity(*h, 1000);
  uint64_t flushes_before = cluster_->DeltaStatsOf(*h).epoch_flushes;

  // Any stored-graph mutation — here a base load — must flush the cache:
  // cached contributions joined against the old prefix are stale.
  StringServer* s = cluster_->strings();
  TripleVec extra = {Triple{s->InternVertex("Logan"), s->InternPredicate("fo"),
                            s->InternVertex("Bruce")}};
  cluster_->LoadBase(extra);
  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(1050)}).ok());
  cluster_->AdvanceStreams(1100);
  QueryExecution exec = TriggerWithParity(*h, 1100);
  EXPECT_TRUE(exec.delta);
  EXPECT_GT(cluster_->DeltaStatsOf(*h).epoch_flushes, flushes_before);
}

TEST_F(DeltaClusterTest, NodeCrashInvalidatesAndFallsBackCold) {
  Init(2);
  auto h = cluster_->RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(cluster_->FeedStream(stream_, {PingAt(150), PingAt(250)}).ok());
  cluster_->AdvanceStreams(1000);
  TriggerWithParity(*h, 1000);

  ASSERT_TRUE(cluster_->CrashNode(1).ok());
  EXPECT_EQ(cluster_->DeltaEntryCountOf(*h), 0u);  // Wholesale flush.
  // A degraded cluster bypasses the delta path (partial reads must not be
  // memoized); the trigger still runs, cold.
  auto exec = cluster_->ExecuteContinuousAt(*h, 1000);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->delta);
}

// ---------------------------------------------------------------------------
// DeltaPlannerTest: per-window cardinality + the cache-friendly hint.
// ---------------------------------------------------------------------------

// Fixed-cardinality source: every estimate answers `n`.
class StubSource : public NeighborSource {
 public:
  explicit StubSource(size_t n) : n_(n) {}
  void GetNeighbors(Key, std::vector<VertexId>*) const override {}
  size_t EstimateCount(Key) const override { return n_; }

 private:
  size_t n_;
};

TEST(DeltaPlannerTest, BoundExpansionRanksByThePatternsOwnWindow) {
  // Regression: EstimatePatternCost used a shared constant for bound-variable
  // expansion, so with two windows of very different density the planner
  // could not order the sparse window's pattern first.
  StubSource stored(50), dense(40), sparse(2);
  ExecContext ctx;
  ctx.sources = {&stored, &dense, &sparse};

  Query q;
  q.var_names = {"x", "y", "z"};
  TriplePattern seed;  // Logan fo ?x — selective stored seed binds ?x.
  seed.subject = Term::Constant(7);
  seed.predicate = 1;
  seed.object = Term::Variable(0);
  seed.graph = kGraphStored;
  TriplePattern from_dense;  // ?x li ?y scoped to the dense window.
  from_dense.subject = Term::Variable(0);
  from_dense.predicate = 2;
  from_dense.object = Term::Variable(1);
  from_dense.graph = 0;
  TriplePattern from_sparse;  // ?x ht ?z scoped to the sparse window.
  from_sparse.subject = Term::Variable(0);
  from_sparse.predicate = 3;
  from_sparse.object = Term::Variable(2);
  from_sparse.graph = 1;
  q.patterns = {seed, from_dense, from_sparse};

  std::vector<bool> bound = {true, false, false};
  EXPECT_LT(EstimatePatternCost(from_sparse, bound, ctx),
            EstimatePatternCost(from_dense, bound, ctx));

  std::vector<int> plan = PlanQuery(q, ctx);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], 0);  // Constant seed first.
  EXPECT_EQ(plan[1], 2);  // Sparse window before dense.
  EXPECT_EQ(plan[2], 1);
}

TEST(DeltaPlannerTest, ChunkCardinalityPinsFig13RecomputeOrder) {
  // Regression for the §5.13 estimate fix: the columnar executor expands
  // bound variables with per-chunk batched gathers, so its cost must count
  // chunk cardinality (seeds / kColumnarChunkRows), not raw row counts. On
  // the fig13 L6 recompute shape — a window index scan seeding ?U, then a
  // dense stored expansion racing a mid-sized window expansion — a raw-row
  // estimate would saturate both candidates at the same cap, while the
  // chunked estimate keeps them apart and orders the cheaper window pattern
  // first. The expected order is pinned in the
  // plan corpus (§5.14) rather than re-derived from estimator internals.
  StubSource stored(10000), seed_win(8), mid_win(600);
  ExecContext ctx;
  ctx.sources = {&stored, &seed_win, &mid_win};

  Query q;
  q.var_names = {"U", "P", "F", "L"};
  TriplePattern seed;  // ?U po ?P — cheap window index scan binds ?U.
  seed.subject = Term::Variable(0);
  seed.predicate = 1;
  seed.object = Term::Variable(1);
  seed.graph = 0;
  TriplePattern dense_stored;  // ?U fo ?F — 10000 stored seeds.
  dense_stored.subject = Term::Variable(0);
  dense_stored.predicate = 2;
  dense_stored.object = Term::Variable(2);
  dense_stored.graph = kGraphStored;
  TriplePattern mid;  // ?U phl ?L — 600 seeds in the second window.
  mid.subject = Term::Variable(0);
  mid.predicate = 3;
  mid.object = Term::Variable(3);
  mid.graph = 1;
  q.patterns = {seed, dense_stored, mid};

  auto pin = LoadPlanPinFile(std::string(WUKONGS_TEST_CORPUS_DIR) +
                             "/plans/fig13_delta_cache.pin");
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();

  EXPECT_EQ(PlanQuery(q, ctx), pin->order)
      << "fig13 recompute order drifted from the pinned plan";
}

TEST(DeltaPlannerTest, CacheHintDefersWindowPatterns) {
  // Without the hint the cheap window pattern would run before the stored
  // one; with a cache attached the stored prefix must come first so it can
  // be memoized across triggers.
  StubSource stored(5), window(2);
  ExecContext ctx;
  ctx.sources = {&stored, &window};

  Query q;
  q.var_names = {"x", "y"};
  TriplePattern win;  // C pw ?x, cheap (2 edges) but window-scoped.
  win.subject = Term::Constant(1);
  win.predicate = 1;
  win.object = Term::Variable(0);
  win.graph = 0;
  TriplePattern st;  // C ps ?y, stored, 5 edges.
  st.subject = Term::Constant(2);
  st.predicate = 2;
  st.object = Term::Variable(1);
  st.graph = kGraphStored;
  q.patterns = {win, st};

  std::vector<int> cold_plan = PlanQuery(q, ctx);
  ASSERT_EQ(cold_plan.size(), 2u);
  EXPECT_EQ(cold_plan[0], 0);  // Cheapest first without a cache.

  PlanHints hints;
  hints.delta_cache = true;
  std::vector<int> delta_plan = PlanQuery(q, ctx, hints);
  ASSERT_EQ(delta_plan.size(), 2u);
  EXPECT_EQ(delta_plan[0], 1);  // Stored prefix first when caching.
  EXPECT_EQ(delta_plan[1], 0);
}

// ---------------------------------------------------------------------------
// DeltaMutationTest: the planted skip-invalidation bug must be caught.
// ---------------------------------------------------------------------------

class DeltaMutationTest : public DeltaClusterTest {};

TEST_F(DeltaMutationTest, GcWithoutInvalidationDivergesFromCold) {
  // Scenario: GC reclaims slices that a registered window still covers (an
  // aggressive horizon — legal for the store, catastrophic for a cache that
  // ignores the eviction). With the invalidation hook intact, delta and cold
  // agree (both see the post-GC world). With the planted bug — GC skips the
  // delta-cache hooks — the cache serves rows sourced from evicted slices
  // and the delta/cold parity oracle fires. This is the exact comparison the
  // differential lane runs on every continuous trigger.
  for (bool plant : {false, true}) {
    Init(1);
    auto h = cluster_->RegisterContinuous(kDeltaQuery);
    ASSERT_TRUE(h.ok());
    StreamTupleVec pings;
    for (StreamTime ts = 50; ts < 1000; ts += kIntervalMs) {
      pings.push_back(PingAt(ts));
    }
    ASSERT_TRUE(cluster_->FeedStream(stream_, pings).ok());
    cluster_->AdvanceStreams(1000);

    auto warm = cluster_->ExecuteContinuousAt(*h, 1000);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm->delta);
    ASSERT_FALSE(warm->result.rows.empty());

    {
      // GC every slice of the still-live window, with or without the bug.
      std::unique_ptr<test_hooks::ScopedMutation> bug;
      if (plant) {
        bug = std::make_unique<test_hooks::ScopedMutation>(
            &test_hooks::skip_delta_invalidation);
      }
      cluster_->RunMaintenance(1000);
    }

    auto delta = cluster_->ExecuteContinuousAt(*h, 1000);
    auto cold = cluster_->ExecuteContinuousColdAt(*h, 1000);
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_TRUE(cold->result.rows.empty());  // The slices are gone.
    if (plant) {
      EXPECT_NE(Canon(delta->result), Canon(cold->result))
          << "planted mutation was not observable — the parity oracle "
             "would miss a real invalidation bug";
    } else {
      EXPECT_EQ(Canon(delta->result), Canon(cold->result));
    }
  }
}

// ---------------------------------------------------------------------------
// DeltaInvalidationTest: randomized append / expire / GC interleavings.
// ---------------------------------------------------------------------------

TEST(DeltaInvalidationTest, RandomInterleavingsNeverServeExpiredSlices) {
  // For random interleavings of feeding, clock advancement, triggers and GC
  // (including aggressive horizons that reclaim live-window slices), every
  // delta trigger must match cold re-execution — cold physically cannot read
  // an expired slice, so parity proves no cached row outlives its slice —
  // and the cache never holds more entries than the window spans.
  constexpr uint64_t kSeeds = 25;
  constexpr uint64_t kRangeMs = 1000;
  constexpr size_t kSpan = kRangeMs / kIntervalMs;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    testkit::ScheduleController sched(seed);
    ClusterConfig config;
    config.nodes = 1 + static_cast<uint32_t>(rng.Uniform(0, 2));
    config.batch_interval_ms = kIntervalMs;
    config.schedule = &sched;
    Cluster cluster(config);
    StreamId s = *cluster.DefineStream("S", {"at"});
    // Second stream so the controller has cross-stream orders to permute.
    StreamId noise = *cluster.DefineStream("N", {"at"});

    StringServer* strings = cluster.strings();
    auto vid = [&](const std::string& name) {
      return strings->InternVertex(name);
    };
    PredicateId fo = strings->InternPredicate("fo");
    PredicateId at = strings->InternPredicate("at");
    std::vector<VertexId> people = {vid("Logan"), vid("Erik"), vid("Tony"),
                                    vid("Bruce")};
    TripleVec base;
    for (VertexId p : people) {
      base.push_back(Triple{vid("Logan"), fo, p});
    }
    cluster.LoadBase(base);

    auto h = cluster.RegisterContinuous(kDeltaQuery);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_TRUE(cluster.HasDeltaCache(*h));

    StreamTime now = 0;
    uint64_t triggers = 0;
    for (int step = 0; step < 40; ++step) {
      now += kIntervalMs;
      size_t feeds = rng.Uniform(0, 3);
      StreamTupleVec tuples;
      for (size_t i = 0; i < feeds; ++i) {
        VertexId who = people[rng.Uniform(0, people.size() - 1)];
        tuples.push_back(StreamTuple{
            {who, at, vid("L" + std::to_string(now) + "_" + std::to_string(i))},
            now - kIntervalMs + 10 * (i + 1),
            TupleKind::kTiming});
      }
      ASSERT_TRUE(cluster.FeedStream(s, tuples).ok());
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(cluster
                        .FeedStream(noise, {StreamTuple{{people[0], at, vid("n")},
                                                        now - 1,
                                                        TupleKind::kTiming}})
                        .ok());
      }
      cluster.AdvanceStreams(now);

      if (rng.Bernoulli(0.25)) {
        // GC at a random horizon — sometimes beyond live-window starts, the
        // adversarial case the eviction hooks exist for.
        StreamTime horizon = rng.Uniform(0, now);
        cluster.RunMaintenance(horizon);
      }

      if (now >= kRangeMs && rng.Bernoulli(0.6) &&
          cluster.WindowReady(*h, now)) {
        auto exec = cluster.ExecuteContinuousAt(*h, now);
        auto cold = cluster.ExecuteContinuousColdAt(*h, now);
        ASSERT_TRUE(exec.ok()) << "seed " << seed << ": "
                               << exec.status().ToString();
        ASSERT_TRUE(cold.ok()) << "seed " << seed << ": "
                               << cold.status().ToString();
        ASSERT_EQ(Canon(exec->result), Canon(cold->result))
            << "seed " << seed << " @" << now;
        EXPECT_LE(cluster.DeltaEntryCountOf(*h), kSpan) << "seed " << seed;
        ++triggers;
      }
    }
    EXPECT_GT(triggers, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// DeltaThreadedTest: concurrent triggers race maintenance GC (TSan lane).
// ---------------------------------------------------------------------------

TEST(DeltaThreadedTest, ConcurrentTriggersRaceMaintenanceGc) {
  testkit::ScheduleController sched(4242);
  ClusterConfig config;
  config.nodes = 2;
  config.batch_interval_ms = kIntervalMs;
  config.schedule = &sched;
  Cluster cluster(config);
  StreamId s = *cluster.DefineStream("S", {"at"});

  StringServer* strings = cluster.strings();
  auto vid = [&](const std::string& name) { return strings->InternVertex(name); };
  PredicateId fo = strings->InternPredicate("fo");
  PredicateId at = strings->InternPredicate("at");
  TripleVec base = {Triple{vid("Logan"), fo, vid("Erik")},
                    Triple{vid("Logan"), fo, vid("Tony")}};
  cluster.LoadBase(base);

  auto h = cluster.RegisterContinuous(kDeltaQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  ASSERT_TRUE(cluster.HasDeltaCache(*h));

  constexpr StreamTime kEnd = 5000;
  std::atomic<StreamTime> now{0};
  std::vector<std::future<StatusOr<QueryExecution>>> futures;
  {
    // The daemon GCs up to one window-range behind the clock while workers
    // drain triggers in fuzzed order: cache fills, slides, and invalidations
    // all race. TSan verifies the locking; the final parity below verifies
    // no stale contribution survived.
    MaintenanceDaemon daemon(
        &cluster,
        [&now] {
          StreamTime n = now.load(std::memory_order_relaxed);
          return n > 1000 ? n - 1000 : 0;
        },
        std::chrono::milliseconds(2), &sched);
    WorkerPool pool(&cluster, 3, &sched);
    for (StreamTime end = 1000; end <= kEnd; end += kIntervalMs) {
      VertexId who = (end / kIntervalMs) % 2 == 0 ? vid("Erik") : vid("Tony");
      ASSERT_TRUE(
          cluster
              .FeedStream(s, {StreamTuple{{who, at, vid("L" + std::to_string(end))},
                                          end - 50,
                                          TupleKind::kTiming}})
              .ok());
      cluster.AdvanceStreams(end);
      now.store(end, std::memory_order_relaxed);
      futures.push_back(pool.SubmitContinuous(*h, end));
      daemon.Kick();
    }
    pool.Drain();
  }

  size_t delta_executions = 0;
  for (auto& f : futures) {
    auto exec = f.get();
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    delta_executions += exec->delta ? 1 : 0;
  }
  EXPECT_GT(delta_executions, 0u);

  // Post-race parity on the final (still fully live) window.
  auto delta = cluster.ExecuteContinuousAt(*h, kEnd);
  auto cold = cluster.ExecuteContinuousColdAt(*h, kEnd);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(Canon(delta->result), Canon(cold->result));
  EXPECT_FALSE(cold->result.rows.empty());
}

}  // namespace
}  // namespace wukongs
