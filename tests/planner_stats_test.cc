// Adaptive re-planning tests (DESIGN.md §5.14).
//
// Covers the live-statistics collector against brute-force mirrors, the
// fire-iff-drift property of the re-plan trigger predicate over randomized
// rate histories, the chunk/row estimate reconciliation (including the
// composite-baseline row path), cluster-level parity-gated cutovers with
// fallback on budget overrun, manual plan pinning, the plan-pin golden
// corpus, and both planted mutations (stale_stats_snapshot must suppress a
// genuine drift trigger; skip_parity_gate must fail the cutover audit the
// differential lane runs).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/test_hooks.h"
#include "src/sparql/plan_pin.h"
#include "src/store/planner.h"
#include "src/store/stream_stats.h"

namespace wukongs {
namespace {

constexpr uint64_t kIntervalMs = 100;

// ---------------------------------------------------------------------------
// PlannerStatsTest: collector + drift predicate against brute-force mirrors.
// ---------------------------------------------------------------------------

TEST(PlannerStatsTest, CollectorRatesMatchBruteForceOverRandomHistories) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const StreamTime window = kIntervalMs * (1 + rng.Uniform(0, 9));
    StreamStatsCollector collector(window);
    const size_t streams = 1 + rng.Uniform(0, 2);
    std::vector<std::vector<std::pair<StreamTime, uint64_t>>> history(streams);

    StreamTime now = 0;
    for (int step = 0; step < 30; ++step) {
      now += kIntervalMs;
      for (StreamId s = 0; s < streams; ++s) {
        const uint64_t tuples = rng.Uniform(0, 6);  // Empty batches included.
        collector.ObserveBatch(s, now, tuples);
        history[s].push_back({now, tuples});
      }
    }

    StreamStatsSnapshot snap = collector.Snapshot();
    EXPECT_EQ(snap.as_of_ms, now) << "seed " << seed;
    for (StreamId s = 0; s < streams; ++s) {
      // Trailing window is (now - window, now]: sum what did not age out.
      uint64_t in_window = 0;
      for (const auto& [end, tuples] : history[s]) {
        if (now <= window || end > now - window) {
          in_window += tuples;
        }
      }
      const double expect = static_cast<double>(in_window) * 1000.0 /
                            static_cast<double>(window);
      EXPECT_NEAR(snap.RateOf(s), expect, 1e-9) << "seed " << seed;
    }
  }
}

TEST(PlannerStatsTest, FanoutEwmaMatchesBruteForceOverRandomHistories) {
  constexpr double kAlpha = 0.3;  // Must track kFanoutAlpha in stream_stats.cc.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    StreamStatsCollector collector(1000);
    // A handful of (scope, predicate) keys, including the stored scope.
    const std::vector<std::pair<int32_t, PredicateId>> keys = {
        {kStoredScope, 1}, {kStoredScope, 2}, {0, 1}, {1, 3}};
    std::vector<double> mirror(keys.size(), -1.0);
    for (int step = 0; step < 40; ++step) {
      const size_t k = rng.Uniform(0, keys.size() - 1);
      const size_t rows_in = rng.Uniform(0, 10);  // 0 exercises the clamp.
      const size_t rows_out = rng.Uniform(0, 50);
      collector.ObserveExpansion(keys[k].first, keys[k].second, rows_in,
                                 rows_out);
      const double x = static_cast<double>(rows_out) /
                       static_cast<double>(std::max<size_t>(rows_in, 1));
      mirror[k] = mirror[k] < 0.0 ? x : (1.0 - kAlpha) * mirror[k] + kAlpha * x;
    }
    StreamStatsSnapshot snap = collector.Snapshot();
    for (size_t k = 0; k < keys.size(); ++k) {
      const double got = snap.FanoutOf(keys[k].first, keys[k].second);
      if (mirror[k] < 0.0) {
        EXPECT_LT(got, 0.0) << "seed " << seed << " key " << k;
      } else {
        EXPECT_NEAR(got, mirror[k], 1e-9) << "seed " << seed << " key " << k;
      }
    }
  }
}

// The fire-iff-drift lane: over randomized rate histories, DriftExceeds —
// the exact predicate MaybeReplan gates on — fires iff the brute-force
// max symmetric rate ratio reaches the policy factor. No tolerance band, no
// second code path: a detector that went stale (see the planted mutation
// below) or overeager shows up here as a fire/no-fire mismatch.
TEST(PlannerStatsTest, ReplanTriggerFiresIffDriftExceedsThreshold) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    ReplanPolicy policy;
    policy.drift_factor = 1.0 + static_cast<double>(rng.Uniform(2, 40)) / 10.0;
    policy.rate_floor = static_cast<double>(rng.Uniform(1, 20)) / 10.0;

    const size_t n = 1 + rng.Uniform(0, 3);
    StreamStatsSnapshot then_, now;
    for (size_t s = 0; s < n; ++s) {
      // Zero rates included: silence vs. trickle must hit the floor clamp.
      then_.rates.push_back(static_cast<double>(rng.Uniform(0, 120)) / 2.0);
      now.rates.push_back(static_cast<double>(rng.Uniform(0, 120)) / 2.0);
    }
    // Sometimes restrict to an explicit stream subset (a registration's
    // stream_ids), sometimes pass empty = every stream.
    std::vector<StreamId> subset;
    if (rng.Bernoulli(0.5)) {
      for (StreamId s = 0; s < n; ++s) {
        if (rng.Bernoulli(0.6)) {
          subset.push_back(s);
        }
      }
    }

    double worst = 1.0;
    std::vector<StreamId> scan = subset;
    if (scan.empty()) {  // Empty subset = every stream, same as the API.
      for (StreamId s = 0; s < n; ++s) {
        scan.push_back(s);
      }
    }
    for (StreamId s : scan) {
      const double a = std::max(then_.RateOf(s), policy.rate_floor);
      const double b = std::max(now.RateOf(s), policy.rate_floor);
      worst = std::max(worst, std::max(a / b, b / a));
    }
    const bool expect_fire = worst >= policy.drift_factor;

    EXPECT_EQ(DriftExceeds(then_, now, subset, policy), expect_fire)
        << "seed " << seed << " worst=" << worst
        << " factor=" << policy.drift_factor;
    EXPECT_NEAR(RateDriftFactor(then_, now, subset, policy.rate_floor), worst,
                1e-9)
        << "seed " << seed;
  }
}

TEST(PlannerStatsTest, IdenticalSnapshotsNeverDrift) {
  StreamStatsSnapshot snap;
  snap.rates = {10.0, 0.0, 500.0};
  ReplanPolicy policy;  // Factor 2.0.
  EXPECT_FALSE(DriftExceeds(snap, snap, {}, policy));
  EXPECT_NEAR(RateDriftFactor(snap, snap, {}, policy.rate_floor), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// PlannerStatsTest: chunk/row estimate reconciliation (the PlanHints fix).
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

TriplePattern BoundExpansion(int graph) {
  TriplePattern p;  // ?x pred ?y with ?x bound: the estimate under test.
  p.subject = Term::Variable(0);
  p.predicate = 1;
  p.object = Term::Variable(1);
  p.graph = graph;
  return p;
}

TEST(PlannerStatsTest, ChunkEstimateFollowsFormulaAndBounds) {
  // The static bound-expansion estimate counts chunk cardinality:
  // 1 + seeds / kColumnarChunkRows, capped at 16. It never drops below 1 and
  // never falls as the seed population grows.
  const std::vector<bool> bound = {true, false};
  double previous = 0.0;
  for (size_t seeds : {size_t{0}, size_t{1}, size_t{5}, size_t{100},
                       size_t{600}, size_t{10000}, size_t{1000000}}) {
    StubSource src(seeds);
    ExecContext ctx;
    ctx.sources = {&src};
    const double est =
        EstimatePatternCost(BoundExpansion(kGraphStored), bound, ctx);
    EXPECT_NEAR(est,
                std::min(16.0, 1.0 + static_cast<double>(seeds) /
                                         static_cast<double>(kColumnarChunkRows)),
                1e-12)
        << "seeds=" << seeds;
    EXPECT_GE(est, 1.0) << "seeds=" << seeds;
    EXPECT_LE(est, 16.0) << "seeds=" << seeds;
    EXPECT_GE(est, previous) << "seeds=" << seeds;
    previous = est;
  }
}

TEST(PlannerStatsTest, ObservedFanoutOverridesSeedHeuristic) {
  StubSource stored(10000), window(10000);
  ExecContext ctx;
  ctx.sources = {&stored, &window};
  const std::vector<bool> bound = {true, false};

  StreamStatsSnapshot snap;
  snap.fanouts[StreamStatsSnapshot::FanoutKey(kStoredScope, 1)] = 2.5;
  snap.fanouts[StreamStatsSnapshot::FanoutKey(/*stream=*/7, 1)] = 40.0;
  PlanHints hints;
  hints.stats = &snap;
  hints.window_scope = {7};  // Window graph 0 is fed by stream 7.

  // Both sources would answer 10000 seeds (estimate saturates at 16); the
  // observed fan-outs give the real per-row expansion instead.
  EXPECT_NEAR(EstimatePatternCost(BoundExpansion(kGraphStored), bound, ctx,
                                  hints),
              3.5, 1e-12);
  EXPECT_NEAR(EstimatePatternCost(BoundExpansion(0), bound, ctx, hints), 41.0,
              1e-12);

  // Unknown predicate falls back to the static heuristic.
  TriplePattern other = BoundExpansion(kGraphStored);
  other.predicate = 9;
  const double fallback = EstimatePatternCost(other, bound, ctx, hints);
  PlanHints no_stats;
  EXPECT_NEAR(fallback, EstimatePatternCost(other, bound, ctx, no_stats),
              1e-12);

  // A window graph beyond window_scope also falls back (no key to look up).
  PlanHints short_scope;
  short_scope.stats = &snap;
  EXPECT_NEAR(EstimatePatternCost(BoundExpansion(0), bound, ctx, short_scope),
              EstimatePatternCost(BoundExpansion(0), bound, ctx, no_stats),
              1e-12);
}

TEST(PlannerStatsTest, BoundExpansionRanksByThePatternsOwnWindow) {
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

TEST(PlannerStatsTest, ChunkCardinalityPinsFig13RecomputeOrder) {
  // Regression for the §5.13 estimate fix: the columnar executor expands
  // bound variables with per-chunk batched gathers, so its cost must count
  // chunk cardinality (seeds / kColumnarChunkRows), not raw row counts. On
  // the fig13 L6 recompute shape — a window index scan seeding ?U, then a
  // dense stored expansion racing a mid-sized window expansion — a raw-row
  // estimate would saturate both candidates at the same cap, while the
  // chunked estimate keeps them apart and orders the cheaper window pattern
  // first. The expected order is pinned in the plan corpus (§5.14) rather
  // than re-derived from estimator internals.
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
                             "/plans/fig13_recompute.pin");
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();

  EXPECT_EQ(PlanQuery(q, ctx), pin->order)
      << "fig13 recompute order drifted from the pinned plan";
}

// ---------------------------------------------------------------------------
// PlannerStatsClusterTest: adaptive cutover through the full cluster.
// ---------------------------------------------------------------------------

// Pattern 0 seeds ?y from the stored graph, then two stored expansions whose
// relative order flips once observed fan-outs exist (li: 2 subjects with 8
// edges each; ht: 20 subjects with 1 edge each — the seed heuristic ranks li
// cheaper, the observed fan-out ranks ht cheaper), with the window pattern
// ranked between the two both times. Initial plan [0 2 1 3]; after training
// and a rate step the adaptive plan is [0 3 1 2].
constexpr char kAdaptiveQuery[] = R"(
    REGISTER QUERY A AS
    SELECT ?y ?z ?v ?w
    FROM STREAM <S> [RANGE 1s STEP 100ms]
    FROM <Base>
    WHERE {
      GRAPH <Base> { Logan fo ?y }
      GRAPH <S>    { ?y at ?w }
      GRAPH <Base> { ?y li ?z }
      GRAPH <Base> { ?y ht ?v }
    })";

// Same joins with a never-binding LIMIT, which keeps it out of the adaptive
// query's template group: both registrations run independently, and every
// trigger of either one trains the fan-out EWMA.
constexpr char kTrainerQuery[] = R"(
    REGISTER QUERY T AS
    SELECT ?y ?z ?v ?w
    FROM STREAM <S> [RANGE 1s STEP 100ms]
    FROM <Base>
    WHERE {
      GRAPH <Base> { Logan fo ?y }
      GRAPH <S>    { ?y at ?w }
      GRAPH <Base> { ?y li ?z }
      GRAPH <Base> { ?y ht ?v }
    } LIMIT 1000000)";

const std::vector<int> kSeedHeuristicPlan = {0, 2, 1, 3};
const std::vector<int> kObservedFanoutPlan = {0, 3, 1, 2};

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

class PlannerStatsClusterTest : public ::testing::Test {
 protected:
  void Init(const ReplanPolicy& replan) {
    ClusterConfig config;
    config.nodes = 1;
    config.batch_interval_ms = kIntervalMs;
    config.replan = replan;
    cluster_ = std::make_unique<Cluster>(config);
    stream_ = *cluster_->DefineStream("S", {"at"});

    StringServer* s = cluster_->strings();
    auto triple = [&](const std::string& su, const char* p,
                      const std::string& o) {
      return Triple{s->InternVertex(su), s->InternPredicate(p),
                    s->InternVertex(o)};
    };
    TripleVec base = {triple("Logan", "fo", "Erik"),
                      triple("Logan", "fo", "Tony")};
    // li: 2 subjects, 8 edges each (few seeds, high fan-out).
    for (int i = 0; i < 8; ++i) {
      base.push_back(triple("Erik", "li", "A" + std::to_string(i)));
      base.push_back(triple("Tony", "li", "B" + std::to_string(i)));
    }
    // ht: 20 subjects, 1 edge each (many seeds, fan-out 1).
    base.push_back(triple("Erik", "ht", "HE"));
    base.push_back(triple("Tony", "ht", "HT"));
    for (int i = 0; i < 18; ++i) {
      base.push_back(
          triple("X" + std::to_string(i), "ht", "HX" + std::to_string(i)));
    }
    cluster_->LoadBase(base);
  }

  ReplanPolicy AdaptivePolicy() const {
    ReplanPolicy p;
    p.enabled = true;
    p.min_triggers_between = 1;  // Check drift on every trigger.
    p.rate_window_ms = 500;      // Converge to a stepped rate within 5 slices.
    return p;
  }

  // Feeds `per_slice` timing tuples into every 100ms slice of [from, to) and
  // advances the stream clock slice by slice.
  void Feed(StreamTime from, StreamTime to, size_t per_slice) {
    for (StreamTime t = from; t < to; t += kIntervalMs) {
      StreamTupleVec tuples;
      StringServer* s = cluster_->strings();
      for (size_t i = 0; i < per_slice; ++i) {
        const char* who = (t / kIntervalMs + i) % 2 == 0 ? "Erik" : "Tony";
        tuples.push_back(StreamTuple{
            {s->InternVertex(who), s->InternPredicate("at"),
             s->InternVertex("L" + std::to_string(t) + "_" + std::to_string(i))},
            t + 10 + i,
            TupleKind::kTiming});
      }
      ASSERT_TRUE(cluster_->FeedStream(stream_, tuples).ok());
      cluster_->AdvanceStreams(t + kIntervalMs);
    }
  }

  // Triggers the adaptive query then the trainer, returning whether the
  // adaptive trigger matched its cold full-window oracle. The adaptive query
  // goes first: at the very first trigger its plan must come from the seed
  // heuristic, before the trainer's cold execution populates the fan-out
  // EWMA (EnsurePlanned attaches live statistics to first plans too).
  bool TriggerBoth(Cluster::ContinuousHandle trainer,
                   Cluster::ContinuousHandle h, StreamTime end) {
    auto exec = cluster_->ExecuteContinuousAt(h, end);
    auto cold = cluster_->ExecuteContinuousColdAt(h, end);
    EXPECT_TRUE(cluster_->ExecuteContinuousAt(trainer, end).ok());
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_TRUE(cold.ok()) << cold.status().ToString();
    if (!exec.ok() || !cold.ok()) {
      return false;
    }
    return Canon(exec->result) == Canon(cold->result);
  }

  std::unique_ptr<Cluster> cluster_;
  StreamId stream_ = 0;
};

TEST_F(PlannerStatsClusterTest, RateStepTriggersParityGatedCutover) {
  Init(AdaptivePolicy());
  auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
  ASSERT_TRUE(trainer.ok()) << trainer.status().ToString();

  // Phase 1: steady 1 tuple/slice. The first trigger plans from the seed
  // heuristic; later steady triggers check drift but never fire.
  Feed(0, 1000, 1);
  for (StreamTime end = 1000; end <= 1500; end += kIntervalMs) {
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
    Feed(end, end + kIntervalMs, 1);
  }
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), kSeedHeuristicPlan);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 1u);
  Cluster::ReplanStats steady = cluster_->replan_stats();
  EXPECT_GT(steady.checks, 0u);
  EXPECT_EQ(steady.drift_triggers, 0u);  // Fire iff drift: no drift yet.
  EXPECT_EQ(steady.cutovers, 0u);

  // Phase 2: step to 5 tuples/slice. Ingest rate drifts 5x past the 2x
  // factor; the candidate planned from observed fan-outs flips the stored
  // expansions; the shadow parity gate passes and the cutover installs.
  // (Slice [1500,1600) was already fed by the steady loop above.)
  for (StreamTime end = 1700; end <= 2500; end += kIntervalMs) {
    Feed(end - kIntervalMs, end, 5);
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
  }
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), kObservedFanoutPlan);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 2u);
  Cluster::ReplanStats stepped = cluster_->replan_stats();
  EXPECT_GE(stepped.drift_triggers, 1u);
  EXPECT_GE(stepped.cutovers, 1u);
  EXPECT_EQ(stepped.parity_failures, 0u);
  EXPECT_EQ(stepped.budget_overruns, 0u);
}

TEST_F(PlannerStatsClusterTest, DisabledPolicyKeepsPlanOnceLifecycle) {
  Init(ReplanPolicy{});  // Default: disabled.
  auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
  ASSERT_TRUE(trainer.ok());

  Feed(0, 1000, 1);
  for (StreamTime end = 1000; end <= 1500; end += kIntervalMs) {
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
    Feed(end, end + kIntervalMs, 5);  // Rates step; nobody is watching.
  }
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), kSeedHeuristicPlan);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 1u);
  Cluster::ReplanStats stats = cluster_->replan_stats();
  EXPECT_EQ(stats.checks, 0u);
  EXPECT_EQ(stats.cutovers, 0u);
  // The collector itself is off: no rates accumulate.
  EXPECT_TRUE(cluster_->CurrentStreamStats().rates.empty());
}

TEST_F(PlannerStatsClusterTest, ShadowBudgetOverrunFallsBackToProvenPlan) {
  ReplanPolicy policy = AdaptivePolicy();
  policy.shadow_budget_rows = 1;  // Any real shadow execution overruns.
  Init(policy);
  auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
  ASSERT_TRUE(trainer.ok());

  Feed(0, 1000, 1);
  for (StreamTime end = 1000; end <= 1400; end += kIntervalMs) {
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
    Feed(end, end + kIntervalMs, 1);
  }
  for (StreamTime end = 1600; end <= 2400; end += kIntervalMs) {
    Feed(end - kIntervalMs, end, 5);
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
  }
  // Drift fired and a different candidate was synthesized, but the shadow
  // check blew its row budget: the proven plan stays, results stay correct.
  Cluster::ReplanStats stats = cluster_->replan_stats();
  EXPECT_GE(stats.drift_triggers, 1u);
  EXPECT_GE(stats.budget_overruns, 1u);
  EXPECT_EQ(stats.cutovers, 0u);
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), kSeedHeuristicPlan);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 1u);
}

TEST_F(PlannerStatsClusterTest, PinnedPlanSticksThroughDrift) {
  Init(AdaptivePolicy());
  auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
  ASSERT_TRUE(trainer.ok());

  Feed(0, 1000, 1);
  EXPECT_TRUE(TriggerBoth(*trainer, *h, 1000));
  ASSERT_EQ(cluster_->PlanVersionOf(*h), 1u);

  PlanPin pin;
  pin.order = {0, 3, 2, 1};
  ASSERT_TRUE(cluster_->PinContinuousPlan(*h, pin).ok());
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), pin.order);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 2u);
  EXPECT_EQ(cluster_->replan_stats().pins, 1u);

  // A 5x rate step that would normally cut over: the pin wins — the plan and
  // version never move again, and results under the pinned order stay
  // bag-identical to the cold oracle. (The unpinned trainer may still cut
  // over, so only this handle's plan state is asserted.)
  for (StreamTime end = 1100; end <= 2200; end += kIntervalMs) {
    Feed(end - kIntervalMs, end, 5);
    EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
  }
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), pin.order);
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 2u);
}

TEST_F(PlannerStatsClusterTest, PinValidationRejectsBadOrders) {
  Init(AdaptivePolicy());
  auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
  ASSERT_TRUE(h.ok()) << h.status().ToString();

  PlanPin wrong_size;
  wrong_size.order = {0, 1, 2};
  EXPECT_EQ(cluster_->PinContinuousPlan(*h, wrong_size).code(),
            StatusCode::kInvalidArgument);

  PlanPin duplicate;
  duplicate.order = {0, 1, 1, 2};
  EXPECT_EQ(cluster_->PinContinuousPlan(*h, duplicate).code(),
            StatusCode::kInvalidArgument);

  PlanPin out_of_range;
  out_of_range.order = {0, 1, 2, 4};
  EXPECT_EQ(cluster_->PinContinuousPlan(*h, out_of_range).code(),
            StatusCode::kInvalidArgument);

  PlanPin fine;
  fine.order = {3, 2, 1, 0};
  EXPECT_EQ(cluster_->PinContinuousPlan(static_cast<Cluster::ContinuousHandle>(
                                            999),
                                        fine)
                .code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(cluster_->PinContinuousPlan(*h, fine).ok());
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), fine.order);
}

// ---------------------------------------------------------------------------
// PlannerStatsMutationTest: both planted defects must be observable.
// ---------------------------------------------------------------------------

class PlannerStatsMutationTest : public PlannerStatsClusterTest {};

TEST_F(PlannerStatsMutationTest, StaleStatsSnapshotSuppressesGenuineDrift) {
  // Planted defect: the drift detector reads the plan's frozen snapshot as
  // the "fresh" side, so a genuine 5x rate step never registers and the
  // re-planner never fires. The fire-iff-drift contract makes it observable:
  // the same workload must fire without the plant and must not with it.
  for (bool plant : {false, true}) {
    Init(AdaptivePolicy());
    auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
    ASSERT_TRUE(trainer.ok());

    std::unique_ptr<test_hooks::ScopedMutation> bug;
    if (plant) {
      bug = std::make_unique<test_hooks::ScopedMutation>(
          &test_hooks::stale_stats_snapshot);
    }
    Feed(0, 1000, 1);
    for (StreamTime end = 1000; end <= 1400; end += kIntervalMs) {
      EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
      Feed(end, end + kIntervalMs, 1);
    }
    for (StreamTime end = 1600; end <= 2400; end += kIntervalMs) {
      Feed(end - kIntervalMs, end, 5);
      EXPECT_TRUE(TriggerBoth(*trainer, *h, end)) << "end=" << end;
    }

    Cluster::ReplanStats stats = cluster_->replan_stats();
    EXPECT_GT(stats.checks, 0u) << "plant=" << plant;
    if (plant) {
      EXPECT_EQ(stats.drift_triggers, 0u)
          << "stale snapshot still detected drift — the mutation is dead";
      EXPECT_EQ(cluster_->PlanVersionOf(*h), 1u);
    } else {
      EXPECT_GE(stats.drift_triggers, 1u);
      EXPECT_EQ(cluster_->PlanVersionOf(*h), 2u);
    }
  }
}

TEST_F(PlannerStatsMutationTest, SkipParityGateIsCaughtByTheCutoverAudit) {
  // Planted defect: a drift trigger hot-swaps the candidate plan with neither
  // the shadow parity check nor the MQO memo invalidation of the gated path.
  // The catch is the cutover audit this lane runs after every version bump:
  //
  //   version advanced  =>  the install went through a gate (cutovers+pins).
  for (bool plant : {false, true}) {
    Init(AdaptivePolicy());
    auto h = cluster_->RegisterContinuous(kAdaptiveQuery);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    auto trainer = cluster_->RegisterContinuous(kTrainerQuery);
    ASSERT_TRUE(trainer.ok());

    std::unique_ptr<test_hooks::ScopedMutation> bug;
    if (plant) {
      bug = std::make_unique<test_hooks::ScopedMutation>(
          &test_hooks::skip_parity_gate);
    }
    Feed(0, 1000, 1);
    size_t divergences = 0;
    for (StreamTime end = 1000; end <= 1400; end += kIntervalMs) {
      divergences += TriggerBoth(*trainer, *h, end) ? 0 : 1;
      Feed(end, end + kIntervalMs, 1);
    }
    EXPECT_EQ(divergences, 0u) << "plant=" << plant
                               << ": diverged before any cutover";
    for (StreamTime end = 1600; end <= 2400; end += kIntervalMs) {
      Feed(end - kIntervalMs, end, 5);
      const bool parity = TriggerBoth(*trainer, *h, end);
      if (!plant) {
        EXPECT_TRUE(parity) << "end=" << end;
      }
    }

    // The install happened either way (same drift, same candidate).
    ASSERT_EQ(cluster_->PlanVersionOf(*h), 2u) << "plant=" << plant;
    const Cluster::ReplanStats stats = cluster_->replan_stats();
    const bool audit_clean = stats.cutovers + stats.pins >= 1;
    if (plant) {
      EXPECT_FALSE(audit_clean)
          << "ungated cutover passed the audit — the mutation is dead";
      EXPECT_EQ(stats.cutovers, 0u);  // No install went through the gate.
    } else {
      EXPECT_TRUE(audit_clean);
      EXPECT_GE(stats.cutovers, 1u);
    }
  }
}

// ---------------------------------------------------------------------------
// PlannerStatsFirstPlanTest: which window contents the first plan sees.
// ---------------------------------------------------------------------------

class PlannerStatsFirstPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.nodes = 1;
    config.batch_interval_ms = kIntervalMs;
    cluster_ = std::make_unique<Cluster>(config);
  }

  Triple T(const std::string& su, const char* p, const std::string& o) {
    StringServer* s = cluster_->strings();
    return Triple{s->InternVertex(su), s->InternPredicate(p), s->InternVertex(o)};
  }

  StreamTuple Timing(const std::string& su, const char* p, const std::string& o,
                     StreamTime ts) {
    return StreamTuple{T(su, p, o), ts, TupleKind::kTiming};
  }

  std::unique_ptr<Cluster> cluster_;
};

// At the first trigger (end 100 ms) a 1 s window holds one 100 ms batch: S1
// has one `a` subject and S2 three `b` subjects, so the plan seeds from S1.
// Over the full window S1 has 91 `a` subjects and S2 still three, so the
// plan made when the windows fill seeds from S2 — through the parity gate,
// as version 2. Every trigger's rows match the cold pipeline.
TEST_F(PlannerStatsFirstPlanTest, PlanFromPartlyFilledWindowsIsRedoneWhenTheyFill) {
  auto s1 = cluster_->DefineStream("S1", {"a"});
  auto s2 = cluster_->DefineStream("S2", {"b"});
  ASSERT_TRUE(s1.ok() && s2.ok());
  const std::vector<Triple> base = {T("Base", "c", "Base")};
  cluster_->LoadBase(base);
  auto h = cluster_->RegisterContinuous(R"(
      REGISTER QUERY F AS
      SELECT ?x ?y ?z
      FROM STREAM <S1> [RANGE 1s STEP 100ms]
      FROM STREAM <S2> [RANGE 1s STEP 100ms]
      WHERE {
        GRAPH <S1> { ?x a ?y }
        GRAPH <S2> { ?y b ?z }
      })");
  ASSERT_TRUE(h.ok()) << h.status().ToString();

  for (StreamTime t = 0; t < 1000; t += kIntervalMs) {
    StreamTupleVec a, b;
    if (t == 0) {
      a.push_back(Timing("X0", "a", "Y0", 1));
      for (int i = 0; i < 3; ++i) {
        b.push_back(Timing("Y" + std::to_string(i), "b", "Z" + std::to_string(i),
                           2 + static_cast<StreamTime>(i)));
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        a.push_back(Timing("X" + std::to_string(t) + "_" + std::to_string(i), "a",
                           "Y" + std::to_string(i % 3),
                           t + 1 + static_cast<StreamTime>(i)));
      }
    }
    ASSERT_TRUE(cluster_->FeedStream(*s1, a).ok());
    ASSERT_TRUE(cluster_->FeedStream(*s2, b).ok());
    const StreamTime end = t + kIntervalMs;
    cluster_->AdvanceStreams(end);

    auto exec = cluster_->ExecuteContinuousAt(*h, end);
    auto cold = cluster_->ExecuteContinuousColdAt(*h, end);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(exec->result.rows.size(), 1 + 10 * (t / kIntervalMs)) << "end=" << end;
    EXPECT_EQ(Canon(exec->result), Canon(cold->result)) << "end=" << end;
    if (end < 1000) {
      EXPECT_EQ(cluster_->ContinuousPlanOf(*h), (std::vector<int>{0, 1}))
          << "end=" << end;
      EXPECT_EQ(cluster_->PlanVersionOf(*h), 1u) << "end=" << end;
    }
  }
  EXPECT_EQ(cluster_->ContinuousPlanOf(*h), (std::vector<int>{1, 0}));
  EXPECT_EQ(cluster_->PlanVersionOf(*h), 2u);
  EXPECT_EQ(cluster_->replan_stats().cutovers, 1u);
}

// ---------------------------------------------------------------------------
// PlanPinTest: the manual plan-pin format and its golden corpus.
// ---------------------------------------------------------------------------

std::vector<std::pair<std::string, std::string>> PinCorpus() {
  std::vector<std::pair<std::string, std::string>> out;
  const std::string dir = std::string(WUKONGS_TEST_CORPUS_DIR) + "/plans";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".pin") {
      out.push_back({entry.path().filename().string(), entry.path().string()});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PlanPinTest, CorpusRoundTripsAndRejectsMalformedWithReasons) {
  auto corpus = PinCorpus();
  ASSERT_FALSE(corpus.empty()) << "plan-pin corpus missing";
  size_t valid = 0;
  size_t invalid = 0;
  for (const auto& [name, path] : corpus) {
    auto pin = LoadPlanPinFile(path);
    if (name.rfind("invalid_", 0) == 0) {
      EXPECT_FALSE(pin.ok()) << name << " parsed but should be rejected";
      EXPECT_EQ(pin.status().code(), StatusCode::kInvalidArgument) << name;
      // Rejections carry a reason, not just a flag.
      EXPECT_NE(pin.status().message().find("plan pin"), std::string::npos)
          << name << ": " << pin.status().ToString();
      ++invalid;
      continue;
    }
    ASSERT_TRUE(pin.ok()) << name << ": " << pin.status().ToString();
    // Round trip: serialize -> parse -> identical pin.
    auto again = ParsePlanPin(SerializePlanPin(*pin));
    ASSERT_TRUE(again.ok()) << name << ": " << again.status().ToString();
    EXPECT_EQ(again->order, pin->order) << name;
    EXPECT_EQ(again->selective, pin->selective) << name;
    ++valid;
  }
  EXPECT_GE(valid, 4u);
  EXPECT_GE(invalid, 7u);
}

TEST(PlanPinTest, FigThirteenPinMatchesTheRecomputeOrder) {
  auto pin = LoadPlanPinFile(std::string(WUKONGS_TEST_CORPUS_DIR) +
                             "/plans/fig13_recompute.pin");
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ(pin->order, (std::vector<int>{0, 2, 1}));
  ASSERT_TRUE(pin->selective.has_value());
  EXPECT_TRUE(*pin->selective);
}

TEST(PlanPinTest, ParserReportsLineAndReason) {
  struct Case {
    const char* text;
    const char* why;
  };
  const std::vector<Case> cases = {
      {"", "empty input"},
      {"plan v2\norder 0\n", "expected header 'plan v1'"},
      {"plan v1\n", "missing 'order'"},
      {"plan v1\norder\n", "at least one index"},
      {"plan v1\norder 0 2\n", "not a permutation"},
      {"plan v1\norder 0 -1\n", "negative pattern index"},
      {"plan v1\norder 0 1x\n", "not an index"},
      {"plan v1\norder 0\norder 0\n", "duplicate 'order'"},
      {"plan v1\norder 0\nselective maybe\n", "'selective' takes exactly"},
      {"plan v1\norder 0\nselective true\nselective false\n",
       "duplicate 'selective'"},
      {"plan v1\norder 0\ncost 42\n", "unknown directive"},
  };
  for (const Case& c : cases) {
    auto pin = ParsePlanPin(c.text);
    ASSERT_FALSE(pin.ok()) << "accepted: " << c.text;
    EXPECT_EQ(pin.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(pin.status().message().find(c.why), std::string::npos)
        << "for input <" << c.text << "> got: " << pin.status().ToString();
  }
}

TEST(PlanPinTest, SerializeIsCanonical) {
  PlanPin pin;
  pin.order = {2, 0, 1};
  pin.selective = false;
  EXPECT_EQ(SerializePlanPin(pin), "plan v1\norder 2 0 1\nselective false\n");

  PlanPin bare;
  bare.order = {0};
  EXPECT_EQ(SerializePlanPin(bare), "plan v1\norder 0\n");

  // Comments and whitespace normalize away through a round trip.
  auto noisy = ParsePlanPin(
      "# c\n\nplan v1  # h\n\torder  1   0\t# t\nselective true\n");
  ASSERT_TRUE(noisy.ok()) << noisy.status().ToString();
  EXPECT_EQ(SerializePlanPin(*noisy), "plan v1\norder 1 0\nselective true\n");
}

}  // namespace
}  // namespace wukongs
