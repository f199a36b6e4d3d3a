// Multi-query optimization tests (DESIGN.md §5.12): template canonicalization,
// group lifecycle under register/unregister churn, shared-probe evaluation
// with per-member fan-out, the per-group DeltaCache, and the grouped-vs-
// independent differential lane (twin clusters, one with MQO disabled, must
// return bag-identical results per registration across a seed sweep that
// includes reconfiguration moves and gray-failure hedging).
//
// The lane also proves it has teeth: two planted mutations — a fan-out that
// skips the hash partition (cross-user leak) and an unregister that leaves
// the member grouped (stale membership) — must each be caught.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/common/test_hooks.h"
#include "src/fault/fault_injector.h"
#include "src/fault/recovery_manager.h"
#include "src/obs/metrics.h"
#include "src/sparql/parser.h"
#include "src/sparql/template.h"

namespace wukongs {
namespace {

constexpr uint64_t kIntervalMs = 100;

// Bag canonicalization (same contract as the delta lane): grouped fan-out and
// independent evaluation must agree as multisets; row order is not part of it.
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

// Template A: per-user follower activity — the hole is the user constant in
// the stored-graph pattern. Every instantiation shares one probe.
std::string FollowerQuery(const std::string& name, const std::string& user) {
  return "REGISTER QUERY " + name +
         " AS SELECT ?y ?w FROM STREAM <S> [RANGE 300ms STEP 100ms] "
         "FROM <Base> WHERE { GRAPH <Base> { " + user +
         " fo ?y } GRAPH <S> { ?y at ?w } }";
}

// Template B: per-entity ping log — the hole sits in the window pattern.
std::string PingQuery(const std::string& name, const std::string& who) {
  return "REGISTER QUERY " + name +
         " AS SELECT ?w FROM STREAM <S> [RANGE 300ms STEP 100ms] "
         "WHERE { GRAPH <S> { " + who + " at ?w } }";
}

// ---------------------------------------------------------------------------
// TemplateCanonTest: CanonicalizeTemplate in isolation.
// ---------------------------------------------------------------------------

TEST(TemplateCanonTest, AlphaRenamedInstantiationsShareAKey) {
  StringServer s;
  auto a = ParseQuery(FollowerQuery("qa", "u0"), &s);
  // Same shape, different variable names, different constant.
  auto b = ParseQuery(
      "REGISTER QUERY qb AS SELECT ?p ?loc FROM STREAM <S> "
      "[RANGE 300ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u1 fo ?p } GRAPH <S> { ?p at ?loc } }",
      &s);
  ASSERT_TRUE(a.ok() && b.ok());
  TemplateSignature sa = CanonicalizeTemplate(*a);
  TemplateSignature sb = CanonicalizeTemplate(*b);
  ASSERT_TRUE(sa.eligible) << sa.reason;
  ASSERT_TRUE(sb.eligible) << sb.reason;
  EXPECT_EQ(sa.key, sb.key);
  EXPECT_NE(sa.hole_constant, sb.hole_constant);
  EXPECT_EQ(sa.hole_constant, s.InternVertex("u0"));
  EXPECT_EQ(sb.hole_constant, s.InternVertex("u1"));
  EXPECT_EQ(sa.canon_vars, 2);
  EXPECT_EQ(sa.hole_var, 2);
  // Probe selects every canonical variable plus the hole, plain.
  ASSERT_EQ(sa.probe.select.size(), 3u);
  for (const SelectItem& item : sa.probe.select) {
    EXPECT_EQ(item.agg, AggKind::kNone);
  }
  EXPECT_TRUE(sa.probe.continuous);
  EXPECT_TRUE(sa.probe.order_by.empty());
  EXPECT_EQ(sa.probe.limit, 0u);
}

TEST(TemplateCanonTest, MemberModifiersDoNotSplitGroups) {
  StringServer s;
  auto plain = ParseQuery(FollowerQuery("qa", "u0"), &s);
  // DISTINCT, a different SELECT list and ORDER BY are all per-member: they
  // re-run at fan-out, so they must not fracture the group.
  auto fancy = ParseQuery(
      "REGISTER QUERY qb AS SELECT DISTINCT ?w FROM STREAM <S> "
      "[RANGE 300ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u1 fo ?y } GRAPH <S> { ?y at ?w } } ORDER BY ?w",
      &s);
  ASSERT_TRUE(plain.ok() && fancy.ok());
  TemplateSignature sp = CanonicalizeTemplate(*plain);
  TemplateSignature sf = CanonicalizeTemplate(*fancy);
  ASSERT_TRUE(sp.eligible && sf.eligible) << sp.reason << " / " << sf.reason;
  EXPECT_EQ(sp.key, sf.key);
}

TEST(TemplateCanonTest, DifferentShapesAndWindowsSplitGroups) {
  StringServer s;
  auto base = ParseQuery(FollowerQuery("qa", "u0"), &s);
  auto other = ParseQuery(PingQuery("qb", "u1"), &s);
  auto wider = ParseQuery(
      "REGISTER QUERY qc AS SELECT ?y ?w FROM STREAM <S> "
      "[RANGE 500ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u2 fo ?y } GRAPH <S> { ?y at ?w } }",
      &s);
  ASSERT_TRUE(base.ok() && other.ok() && wider.ok());
  TemplateSignature sb = CanonicalizeTemplate(*base);
  TemplateSignature so = CanonicalizeTemplate(*other);
  TemplateSignature sw = CanonicalizeTemplate(*wider);
  ASSERT_TRUE(sb.eligible && so.eligible && sw.eligible);
  EXPECT_NE(sb.key, so.key);  // Different pattern shape.
  EXPECT_NE(sb.key, sw.key);  // Same shape, different window range.
}

TEST(TemplateCanonTest, FilterConstantsArePartOfTheKey) {
  StringServer s;
  auto eq_erik = ParseQuery(
      "REGISTER QUERY qa AS SELECT ?y ?w FROM STREAM <S> "
      "[RANGE 300ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u0 fo ?y } GRAPH <S> { ?y at ?w } . FILTER (?y = Erik) }",
      &s);
  auto eq_tony = ParseQuery(
      "REGISTER QUERY qb AS SELECT ?y ?w FROM STREAM <S> "
      "[RANGE 300ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u1 fo ?y } GRAPH <S> { ?y at ?w } . FILTER (?y = Erik) }",
      &s);
  auto eq_other = ParseQuery(
      "REGISTER QUERY qc AS SELECT ?y ?w FROM STREAM <S> "
      "[RANGE 300ms STEP 100ms] FROM <Base> WHERE { GRAPH <Base> "
      "{ u2 fo ?y } GRAPH <S> { ?y at ?w } . FILTER (?y = Tony) }",
      &s);
  ASSERT_TRUE(eq_erik.ok() && eq_tony.ok() && eq_other.ok());
  TemplateSignature sa = CanonicalizeTemplate(*eq_erik);
  TemplateSignature sb = CanonicalizeTemplate(*eq_tony);
  TemplateSignature sc = CanonicalizeTemplate(*eq_other);
  ASSERT_TRUE(sa.eligible && sb.eligible && sc.eligible)
      << sa.reason << "/" << sb.reason << "/" << sc.reason;
  EXPECT_EQ(sa.key, sb.key);  // Filters ran in the probe: same constant groups.
  EXPECT_NE(sa.key, sc.key);  // A different filter constant is a new template.
}

TEST(TemplateCanonTest, IneligibleShapesFallBackWithAReason) {
  StringServer s;
  auto parsed = ParseQuery(FollowerQuery("qa", "u0"), &s);
  ASSERT_TRUE(parsed.ok());
  const Query& base = *parsed;

  Query oneshot = base;
  oneshot.continuous = false;
  oneshot.windows.clear();
  EXPECT_FALSE(CanonicalizeTemplate(oneshot).eligible);

  Query unioned = base;
  unioned.unions.push_back(unioned.patterns);
  unioned.patterns.clear();
  EXPECT_FALSE(CanonicalizeTemplate(unioned).eligible);

  Query limited = base;
  limited.limit = 5;
  EXPECT_FALSE(CanonicalizeTemplate(limited).eligible);

  Query absolute = base;
  absolute.windows[0].absolute = true;
  EXPECT_FALSE(CanonicalizeTemplate(absolute).eligible);

  // A window-scoped pattern inside an OPTIONAL breaks per-group delta scoping.
  Query windowed_opt = base;
  windowed_opt.optionals.push_back({windowed_opt.patterns[1]});
  windowed_opt.patterns.pop_back();
  EXPECT_FALSE(CanonicalizeTemplate(windowed_opt).eligible);

  // Zero constants: nothing to designate as the hole.
  Query no_hole = base;
  no_hole.patterns[0].subject = Term::Variable(0);
  EXPECT_FALSE(CanonicalizeTemplate(no_hole).eligible);

  // Two constants: the hole would be ambiguous.
  Query two_holes = base;
  two_holes.patterns[1].subject = Term::Constant(s.InternVertex("Erik"));
  EXPECT_FALSE(CanonicalizeTemplate(two_holes).eligible);

  // The only constant sits inside an OPTIONAL: fan-out would lose rows where
  // this member's constant fails to match but a sibling's succeeds.
  Query opt_hole = base;
  opt_hole.patterns[0].subject = Term::Variable(0);
  opt_hole.optionals.push_back(
      {TriplePattern{Term::Constant(s.InternVertex("u0")),
                     s.InternPredicate("fo"), Term::Variable(0),
                     kGraphStored}});
  EXPECT_FALSE(CanonicalizeTemplate(opt_hole).eligible);
}

TEST(MqoPartitionTest, PartitionRowsByColumnGroupsRowIndices) {
  QueryResult r;
  r.columns = {"a", "b"};
  auto row = [](VertexId a, VertexId b) {
    return std::vector<ResultValue>{ResultValue::Vertex(a),
                                    ResultValue::Vertex(b)};
  };
  r.rows = {row(1, 10), row(2, 20), row(1, 30), row(2, 40), row(3, 50)};
  auto parts = PartitionRowsByColumn(r, 0);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], (std::vector<size_t>{0, 2}));
  EXPECT_EQ(parts[2], (std::vector<size_t>{1, 3}));
  EXPECT_EQ(parts[3], (std::vector<size_t>{4}));
}

// ---------------------------------------------------------------------------
// MqoClusterTest: grouping, shared evaluation and fan-out through the cluster.
// ---------------------------------------------------------------------------

class MqoClusterTest : public ::testing::Test {
 protected:
  void Init(uint32_t nodes, bool mqo_enabled = true) {
    ClusterConfig config;
    config.nodes = nodes;
    config.batch_interval_ms = kIntervalMs;
    config.mqo.enabled = mqo_enabled;
    if constexpr (obs::kCompiledIn) {
      config.metrics = &registry_;
    }
    cluster_ = std::make_unique<Cluster>(config);
    stream_ = *cluster_->DefineStream("S", {"at"});

    StringServer* s = cluster_->strings();
    auto triple = [&](const char* su, const char* p, const char* o) {
      return Triple{s->InternVertex(su), s->InternPredicate(p),
                    s->InternVertex(o)};
    };
    // Disjoint follow sets so distinct users have distinct answers — the
    // cross-user-leak mutation must actually change some member's bag.
    std::vector<Triple> base = {
        triple("u0", "fo", "Erik"), triple("u0", "fo", "Tony"),
        triple("u1", "fo", "Logan"), triple("u2", "fo", "Tony")};
    cluster_->LoadBase(base);
  }

  // One ping per person per slice so every window has bindings.
  void FeedRound(StreamTime upto_ms) {
    StringServer* s = cluster_->strings();
    StreamTupleVec tuples;
    for (const char* who : {"Erik", "Tony", "Logan"}) {
      tuples.push_back({{s->InternVertex(who), s->InternPredicate("at"),
                         s->InternVertex("L" + std::to_string(upto_ms))},
                        upto_ms - 50,
                        TupleKind::kTiming});
    }
    ASSERT_TRUE(cluster_->FeedStream(stream_, tuples).ok());
    cluster_->AdvanceStreams(upto_ms);
  }

  Cluster::ContinuousHandle Register(const std::string& text) {
    auto h = cluster_->RegisterContinuous(text);
    EXPECT_TRUE(h.ok()) << h.status().ToString();
    return h.ok() ? *h : 0;
  }

  obs::MetricsRegistry registry_;
  std::unique_ptr<Cluster> cluster_;
  StreamId stream_ = 0;
};

TEST_F(MqoClusterTest, InstantiationsOfOneTemplateFormAGroup) {
  Init(2);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  auto c = Register(FollowerQuery("qc", "u2"));
  auto other = Register(PingQuery("qp", "Erik"));

  EXPECT_EQ(cluster_->MqoGroupOf(a), cluster_->MqoGroupOf(b));
  EXPECT_EQ(cluster_->MqoGroupOf(a), cluster_->MqoGroupOf(c));
  EXPECT_NE(cluster_->MqoGroupOf(a), cluster_->MqoGroupOf(other));
  EXPECT_EQ(cluster_->MqoGroupSizeOf(a), 3u);
  EXPECT_EQ(cluster_->MqoGroupSizeOf(other), 1u);
  EXPECT_EQ(cluster_->MqoLiveGroups(), 2u);

  Cluster::MqoStats stats = cluster_->mqo_stats();
  EXPECT_EQ(stats.grouped_registrations, 4u);
  EXPECT_EQ(stats.groups_formed, 2u);
  EXPECT_EQ(stats.groups_dissolved, 0u);
}

TEST_F(MqoClusterTest, DisabledConfigLeavesEverythingUngrouped) {
  Init(1, /*mqo_enabled=*/false);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  EXPECT_EQ(cluster_->MqoGroupOf(a), -1);
  EXPECT_EQ(cluster_->MqoGroupOf(b), -1);
  EXPECT_EQ(cluster_->MqoLiveGroups(), 0u);
  FeedRound(300);
  auto exec = cluster_->ExecuteContinuousAt(a, 300);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(cluster_->mqo_stats().shared_evals, 0u);
}

TEST_F(MqoClusterTest, SharedEvalOncePerTriggerAndFanoutMatchesCold) {
  Init(2);
  std::vector<Cluster::ContinuousHandle> members = {
      Register(FollowerQuery("qa", "u0")), Register(FollowerQuery("qb", "u1")),
      Register(FollowerQuery("qc", "u2"))};
  FeedRound(100);
  FeedRound(200);
  FeedRound(300);

  for (Cluster::ContinuousHandle h : members) {
    ASSERT_TRUE(cluster_->WindowReady(h, 300));
    auto exec = cluster_->ExecuteContinuousAt(h, 300);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto cold = cluster_->ExecuteContinuousColdAt(h, 300);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(Canon(exec->result), Canon(cold->result));
    EXPECT_FALSE(exec->result.rows.empty());
  }
  Cluster::MqoStats stats = cluster_->mqo_stats();
  EXPECT_EQ(stats.shared_evals, 1u);   // One probe for three member triggers.
  EXPECT_EQ(stats.fanout_served, 2u);  // The payer is not memo-served.

  // The next window slides: exactly one more shared evaluation.
  FeedRound(400);
  for (Cluster::ContinuousHandle h : members) {
    auto exec = cluster_->ExecuteContinuousAt(h, 400);
    ASSERT_TRUE(exec.ok());
    auto cold = cluster_->ExecuteContinuousColdAt(h, 400);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(Canon(exec->result), Canon(cold->result));
  }
  stats = cluster_->mqo_stats();
  EXPECT_EQ(stats.shared_evals, 2u);
  EXPECT_EQ(stats.fanout_served, 4u);
  if constexpr (obs::kCompiledIn) {
    EXPECT_EQ(registry_.GetCounter("wukongs_mqo_shared_evals_total")->value(),
              2u);
    EXPECT_EQ(registry_.GetCounter("wukongs_mqo_fanout_served_total")->value(),
              4u);
  }
}

TEST_F(MqoClusterTest, ColumnarSharedEvalFanoutMatchesCold) {
  // §5.13 parity regression: the shared template probe runs on columnar
  // chunks and the fan-out hash-partitions the probe result column-wise.
  // Every member's fanout-served bag must stay identical to its own cold
  // recompute.
  Init(2);
  std::vector<Cluster::ContinuousHandle> members = {
      Register(FollowerQuery("qa", "u0")), Register(FollowerQuery("qb", "u1")),
      Register(FollowerQuery("qc", "u2"))};
  FeedRound(100);
  FeedRound(200);
  FeedRound(300);
  for (Cluster::ContinuousHandle h : members) {
    ASSERT_TRUE(cluster_->WindowReady(h, 300));
    auto exec = cluster_->ExecuteContinuousAt(h, 300);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    auto cold = cluster_->ExecuteContinuousColdAt(h, 300);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    EXPECT_EQ(Canon(exec->result), Canon(cold->result))
        << "fan-out diverged from cold";
  }
  // The shared probe actually ran once (members 2 and 3 were memo-served),
  // so the parity above covered the fan-out path, not three solo runs.
  EXPECT_EQ(cluster_->mqo_stats().shared_evals, 1u);
  EXPECT_EQ(cluster_->mqo_stats().fanout_served, 2u);
}

TEST_F(MqoClusterTest, SingletonGroupRunsIndependently) {
  Init(1);
  auto a = Register(FollowerQuery("qa", "u0"));
  FeedRound(300);
  auto exec = cluster_->ExecuteContinuousAt(a, 300);
  ASSERT_TRUE(exec.ok());
  // Below min_group_size the member runs exactly as without MQO.
  EXPECT_EQ(cluster_->mqo_stats().shared_evals, 0u);
  EXPECT_EQ(cluster_->mqo_stats().fanout_served, 0u);
}

TEST_F(MqoClusterTest, UnregisterShrinksAndLastMemberDissolves) {
  Init(1);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  ASSERT_EQ(cluster_->MqoGroupSizeOf(a), 2u);

  ASSERT_TRUE(cluster_->UnregisterContinuous(b).ok());
  EXPECT_FALSE(cluster_->ContinuousActive(b));
  EXPECT_TRUE(cluster_->ContinuousActive(a));
  EXPECT_EQ(cluster_->MqoGroupOf(b), -1);
  EXPECT_EQ(cluster_->MqoGroupSizeOf(a), 1u);
  EXPECT_EQ(cluster_->MqoLiveGroups(), 1u);

  // Unregistered triggers are rejected; double unregister too.
  FeedRound(300);
  EXPECT_FALSE(cluster_->ExecuteContinuousAt(b, 300).ok());
  EXPECT_FALSE(cluster_->UnregisterContinuous(b).ok());

  // The survivor still answers, now independently (singleton).
  auto exec = cluster_->ExecuteContinuousAt(a, 300);
  ASSERT_TRUE(exec.ok());
  auto cold = cluster_->ExecuteContinuousColdAt(a, 300);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Canon(exec->result), Canon(cold->result));

  ASSERT_TRUE(cluster_->UnregisterContinuous(a).ok());
  EXPECT_EQ(cluster_->MqoLiveGroups(), 0u);
  EXPECT_EQ(cluster_->mqo_stats().groups_dissolved, 1u);

  // Re-registering the template re-forms a fresh group.
  auto c = Register(FollowerQuery("qc", "u2"));
  auto d = Register(FollowerQuery("qd", "u0"));
  EXPECT_EQ(cluster_->MqoGroupOf(c), cluster_->MqoGroupOf(d));
  EXPECT_EQ(cluster_->MqoLiveGroups(), 1u);
  EXPECT_EQ(cluster_->mqo_stats().groups_formed, 2u);
}

TEST_F(MqoClusterTest, GroupCarriesADeltaCacheAndSurvivesMaintenance) {
  Init(2);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  EXPECT_TRUE(cluster_->MqoGroupHasDeltaCache(a));

  for (StreamTime end = 100; end <= 600; end += 100) {
    FeedRound(end);
  }
  for (StreamTime end = 300; end <= 600; end += 100) {
    for (auto h : {a, b}) {
      auto exec = cluster_->ExecuteContinuousAt(h, end);
      ASSERT_TRUE(exec.ok());
      auto cold = cluster_->ExecuteContinuousColdAt(h, end);
      ASSERT_TRUE(cold.ok());
      EXPECT_EQ(Canon(exec->result), Canon(cold->result)) << "end=" << end;
    }
    // GC between triggers: the memo generation bumps, the probe's cache
    // invalidates via the eviction listeners, and parity must hold after.
    cluster_->RunMaintenance(end > 400 ? end - 400 : 0);
  }
  EXPECT_EQ(cluster_->mqo_stats().shared_evals, 4u);

  // Probe's cache dissolves with the group.
  ASSERT_TRUE(cluster_->UnregisterContinuous(a).ok());
  ASSERT_TRUE(cluster_->UnregisterContinuous(b).ok());
  EXPECT_FALSE(cluster_->MqoGroupHasDeltaCache(a));
}

TEST_F(MqoClusterTest, DegradedClusterSplitsTheGroupForTheTrigger) {
  Init(2);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  FeedRound(300);

  cluster_->fabric()->SetNodeServing(1, false);
  auto exec_a = cluster_->ExecuteContinuousAt(a, 300);
  auto exec_b = cluster_->ExecuteContinuousAt(b, 300);
  ASSERT_TRUE(exec_a.ok() && exec_b.ok());
  Cluster::MqoStats stats = cluster_->mqo_stats();
  EXPECT_EQ(stats.shared_evals, 0u);  // Degraded: no shared probe ran.
  EXPECT_GE(stats.independent_fallbacks, 2u);

  // Back to healthy: grouped execution resumes and matches cold.
  cluster_->fabric()->SetNodeServing(1, true);
  FeedRound(400);
  auto exec = cluster_->ExecuteContinuousAt(a, 400);
  ASSERT_TRUE(exec.ok());
  auto cold = cluster_->ExecuteContinuousColdAt(a, 400);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(Canon(exec->result), Canon(cold->result));
  EXPECT_EQ(cluster_->mqo_stats().shared_evals, 1u);
}

// ---------------------------------------------------------------------------
// MqoMutationTest: the lane must catch both planted defects.
// ---------------------------------------------------------------------------

TEST_F(MqoClusterTest, SkipFanoutPartitionMutationIsCaught) {
  Init(2);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  FeedRound(300);

  {
    test_hooks::ScopedMutation leak(&test_hooks::skip_fanout_partition);
    auto grouped = cluster_->ExecuteContinuousAt(a, 300);
    auto cold = cluster_->ExecuteContinuousColdAt(a, 300);
    ASSERT_TRUE(grouped.ok() && cold.ok());
    // u1's bindings leak into u0's answer: the differential check fires.
    EXPECT_NE(Canon(grouped->result), Canon(cold->result));
    EXPECT_GT(grouped->result.rows.size(), cold->result.rows.size());
  }

  // Disarmed, the same trigger is clean again (fresh window so the poisoned
  // memo from the mutated round is not reused).
  FeedRound(400);
  auto grouped = cluster_->ExecuteContinuousAt(b, 400);
  auto cold = cluster_->ExecuteContinuousColdAt(b, 400);
  ASSERT_TRUE(grouped.ok() && cold.ok());
  EXPECT_EQ(Canon(grouped->result), Canon(cold->result));
}

TEST_F(MqoClusterTest, StaleGroupMembershipMutationIsCaught) {
  Init(2);
  auto a = Register(FollowerQuery("qa", "u0"));
  auto b = Register(FollowerQuery("qb", "u1"));
  FeedRound(300);

  {
    test_hooks::ScopedMutation stale(&test_hooks::stale_group_membership);
    ASSERT_TRUE(cluster_->UnregisterContinuous(b).ok());
    EXPECT_FALSE(cluster_->ContinuousActive(b));
    // The defect: the group kept the member, so the unregistered handle is
    // still served. The audit — inactive handle answering — catches it.
    EXPECT_EQ(cluster_->MqoGroupSizeOf(a), 2u);
    auto exec = cluster_->ExecuteContinuousAt(b, 300);
    EXPECT_TRUE(exec.ok());
  }

  // Without the mutation the same sequence rejects the dead handle.
  Init(2);
  a = Register(FollowerQuery("qa", "u0"));
  b = Register(FollowerQuery("qb", "u1"));
  FeedRound(300);
  ASSERT_TRUE(cluster_->UnregisterContinuous(b).ok());
  EXPECT_EQ(cluster_->MqoGroupSizeOf(a), 1u);
  auto exec = cluster_->ExecuteContinuousAt(b, 300);
  EXPECT_FALSE(exec.ok());
  auto sibling = cluster_->ExecuteContinuousAt(a, 300);
  EXPECT_TRUE(sibling.ok());
}

// ---------------------------------------------------------------------------
// MqoDifferentialTest: twin clusters (MQO on vs off) across a seed sweep,
// with registration churn, reconfiguration moves and gray-failure hedging.
// ---------------------------------------------------------------------------

struct MqoSeedOutcome {
  uint64_t shared_evals = 0;
  uint64_t triggers = 0;
  uint64_t churn_events = 0;
  uint64_t reconfig_events = 0;
  uint64_t gray_seeds = 0;
};

MqoSeedOutcome RunMqoSeed(uint64_t seed) {
  MqoSeedOutcome outcome;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const uint32_t nodes = static_cast<uint32_t>(2 + rng.Uniform(0, 1));
  const bool gray = rng.Bernoulli(0.3);
  const bool reconfig = rng.Bernoulli(0.3);

  // Gray failures, jitter, hedging and demotion are cost-model-only: arming
  // them on the grouped twin must not move a single result row.
  FaultSchedule schedule;
  schedule.seed = seed;
  if (gray) {
    GrayFailureEvent ev;
    ev.node = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
    ev.from_ms = 100;
    ev.until_ms = 5000;
    ev.slow_factor = 4.0 + static_cast<double>(rng.Uniform(0, 8));
    schedule.gray_failures.push_back(ev);
    schedule.message_jitter_rate = 0.3;
    schedule.message_jitter_ns = 20000.0;
    ++outcome.gray_seeds;
  }
  FaultInjector injector(schedule);

  StringServer strings;
  ClusterConfig grouped_config;
  grouped_config.nodes = nodes;
  grouped_config.batch_interval_ms = kIntervalMs;
  if (gray) {
    grouped_config.transport = Transport::kTcp;
    grouped_config.fault_injector = &injector;
    grouped_config.hedge.enabled = true;
    grouped_config.hedge.min_samples = 4;
    grouped_config.straggler.enabled = true;
    grouped_config.straggler.min_samples = 4;
  }
  Cluster grouped(grouped_config, &strings);

  ClusterConfig indep_config;
  indep_config.nodes = nodes;
  indep_config.batch_interval_ms = kIntervalMs;
  indep_config.mqo.enabled = false;  // The oracle: every trigger independent.
  Cluster indep(indep_config, &strings);

  // Random follow graph over a small user/person universe.
  auto user = [&](uint64_t i) {
    return strings.InternVertex("u" + std::to_string(i));
  };
  auto person = [&](uint64_t i) {
    return strings.InternVertex("e" + std::to_string(i));
  };
  const uint64_t n_users = 3 + rng.Uniform(0, 3);
  std::vector<Triple> base;
  for (uint64_t u = 0; u < n_users; ++u) {
    size_t follows = rng.Uniform(0, 3);  // Some users follow nobody.
    for (size_t f = 0; f < follows; ++f) {
      base.push_back({user(u), strings.InternPredicate("fo"),
                      person(rng.Uniform(0, 5))});
    }
  }
  grouped.LoadBase(base);
  indep.LoadBase(base);
  StreamId gs = *grouped.DefineStream("S", {"at"});
  StreamId is = *indep.DefineStream("S", {"at"});

  // Registrations: several instantiations of each template, same handles on
  // both clusters (registration order is identical).
  struct Pair {
    Cluster::ContinuousHandle grouped;
    Cluster::ContinuousHandle indep;
    bool live = true;
  };
  std::vector<Pair> regs;
  int name = 0;
  auto register_pair = [&](const std::string& text) {
    auto hg = grouped.RegisterContinuous(text);
    auto hi = indep.RegisterContinuous(text);
    ASSERT_TRUE(hg.ok() && hi.ok()) << text;
    regs.push_back({*hg, *hi, true});
  };
  const uint64_t t0_members = 2 + rng.Uniform(0, 2);
  for (uint64_t i = 0; i < t0_members; ++i) {
    register_pair(
        FollowerQuery("q" + std::to_string(name++),
                      "u" + std::to_string(rng.Uniform(0, n_users - 1))));
  }
  const uint64_t t1_members = 2 + rng.Uniform(0, 2);
  for (uint64_t i = 0; i < t1_members; ++i) {
    register_pair(PingQuery("q" + std::to_string(name++),
                            "e" + std::to_string(rng.Uniform(0, 5))));
  }
  if (rng.Bernoulli(0.5)) {
    // A filtered template: the filter runs in the probe; members whose
    // partition comes back empty fall back to independent execution.
    for (int i = 0; i < 2; ++i) {
      register_pair(
          "REGISTER QUERY q" + std::to_string(name++) +
          " AS SELECT ?y ?w FROM STREAM <S> [RANGE 300ms STEP 100ms] "
          "FROM <Base> WHERE { GRAPH <Base> { u" +
          std::to_string(rng.Uniform(0, n_users - 1)) +
          " fo ?y } GRAPH <S> { ?y at ?w } . FILTER (?y = e0) }");
    }
  }
  if (::testing::Test::HasFatalFailure()) {
    return outcome;
  }

  for (StreamTime round = 0; round < 7; ++round) {
    const StreamTime end = (round + 1) * kIntervalMs;
    // Identical tuple feed on both twins.
    StreamTupleVec tuples;
    size_t count = 1 + rng.Uniform(0, 3);
    std::vector<StreamTime> stamps;
    for (size_t i = 0; i < count; ++i) {
      stamps.push_back(round * kIntervalMs + 1 + rng.Uniform(0, kIntervalMs - 2));
    }
    std::sort(stamps.begin(), stamps.end());
    for (size_t i = 0; i < count; ++i) {
      tuples.push_back(
          {{person(rng.Uniform(0, 5)), strings.InternPredicate("at"),
            strings.InternVertex("L" + std::to_string(end * 10 + i))},
           stamps[i],
           TupleKind::kTiming});
    }
    Status fg = grouped.FeedStream(gs, tuples);
    Status fi = indep.FeedStream(is, tuples);
    EXPECT_TRUE(fg.ok()) << fg.ToString();
    EXPECT_TRUE(fi.ok()) << fi.ToString();
    grouped.AdvanceStreams(end);
    indep.AdvanceStreams(end);

    // Churn: unregister a random live member on both twins.
    if (round == 3 && rng.Bernoulli(0.5)) {
      size_t idx = rng.Uniform(0, regs.size() - 1);
      if (regs[idx].live) {
        EXPECT_TRUE(grouped.UnregisterContinuous(regs[idx].grouped).ok());
        EXPECT_TRUE(indep.UnregisterContinuous(regs[idx].indep).ok());
        regs[idx].live = false;
        ++outcome.churn_events;
      }
    }
    // Reconfiguration on the grouped twin only: drain re-homes members and
    // probes; growing the cluster bumps the memo generation. Results must
    // not move.
    if (reconfig && round == 4) {
      if (rng.Bernoulli(0.5)) {
        if (grouped.BeginDrain(static_cast<NodeId>(rng.Uniform(0, nodes - 1)))
                .ok()) {
          ++outcome.reconfig_events;
        }
      } else if (grouped.AddNode().ok()) {
        ++outcome.reconfig_events;
      }
    }

    for (size_t i = 0; i < regs.size(); ++i) {
      SCOPED_TRACE("round=" + std::to_string(round) +
                   " reg=" + std::to_string(i));
      if (!regs[i].live) {
        EXPECT_FALSE(grouped.ExecuteContinuousAt(regs[i].grouped, end).ok());
        EXPECT_FALSE(indep.ExecuteContinuousAt(regs[i].indep, end).ok());
        continue;
      }
      if (!grouped.WindowReady(regs[i].grouped, end)) {
        continue;
      }
      auto g = grouped.ExecuteContinuousAt(regs[i].grouped, end);
      auto r = indep.ExecuteContinuousAt(regs[i].indep, end);
      EXPECT_TRUE(g.ok()) << g.status().ToString();
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!g.ok() || !r.ok()) {
        continue;
      }
      EXPECT_EQ(Canon(g->result), Canon(r->result));
      ++outcome.triggers;
    }
  }
  outcome.shared_evals = grouped.mqo_stats().shared_evals;
  // Sharing actually happened: far fewer probe runs than member triggers.
  EXPECT_LT(outcome.shared_evals, outcome.triggers);
  return outcome;
}

TEST(MqoDifferentialTest, GroupedMatchesIndependentAcrossSeeds) {
  uint64_t seeds = 200;
  if (const char* env = std::getenv("WUKONGS_DIFF_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
  }
  MqoSeedOutcome total;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    MqoSeedOutcome o = RunMqoSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    total.shared_evals += o.shared_evals;
    total.triggers += o.triggers;
    total.churn_events += o.churn_events;
    total.reconfig_events += o.reconfig_events;
    total.gray_seeds += o.gray_seeds;
  }
  // The sweep must exercise every mechanism, or it proves nothing.
  EXPECT_GT(total.shared_evals, 0u);
  EXPECT_GT(total.triggers, total.shared_evals);
  if (seeds >= 50) {
    EXPECT_GT(total.churn_events, 0u);
    EXPECT_GT(total.reconfig_events, 0u);
    EXPECT_GT(total.gray_seeds, 0u);
  }
}

// ---------------------------------------------------------------------------
// MqoChurnFuzzTest: seeded register/unregister interleavings with triggers
// and maintenance; the WindowDedup audit proves no lost or duplicate
// deliveries and no divergent re-delivery.
// ---------------------------------------------------------------------------

TEST(MqoChurnFuzzTest, RandomChurnKeepsDeliveriesExactlyOnce) {
  uint64_t seeds = 60;
  if (const char* env = std::getenv("WUKONGS_DIFF_SEEDS")) {
    seeds = std::max<uint64_t>(1, std::strtoull(env, nullptr, 10) / 4);
  }
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x2545f4914f6cdd1dull + 3);

    ClusterConfig config;
    config.nodes = 2;
    config.batch_interval_ms = kIntervalMs;
    Cluster cluster(config);
    StringServer* s = cluster.strings();
    std::vector<Triple> base;
    for (uint64_t u = 0; u < 4; ++u) {
      base.push_back({s->InternVertex("u" + std::to_string(u)),
                      s->InternPredicate("fo"),
                      s->InternVertex("e" + std::to_string(u % 3))});
    }
    cluster.LoadBase(base);
    StreamId stream = *cluster.DefineStream("S", {"at"});

    WindowDedup dedup;
    std::vector<Cluster::ContinuousHandle> live;
    std::vector<Cluster::ContinuousHandle> dead;
    std::set<std::pair<uint64_t, StreamTime>> delivered;
    int name = 0;
    StreamTime now = 0;

    auto feed_round = [&]() {
      now += kIntervalMs;
      StreamTupleVec tuples;
      const uint64_t count = 1 + rng.Uniform(0, 2);
      std::vector<StreamTime> stamps;
      for (uint64_t i = 0; i < count; ++i) {
        stamps.push_back(now - kIntervalMs + 1 + rng.Uniform(0, kIntervalMs - 2));
      }
      std::sort(stamps.begin(), stamps.end());
      for (uint64_t i = 0; i < count; ++i) {
        tuples.push_back(
            {{s->InternVertex("e" + std::to_string(rng.Uniform(0, 2))),
              s->InternPredicate("at"),
              s->InternVertex("L" + std::to_string(now * 10 + i))},
             stamps[i],
             TupleKind::kTiming});
      }
      ASSERT_TRUE(cluster.FeedStream(stream, tuples).ok());
      cluster.AdvanceStreams(now);
    };
    feed_round();
    feed_round();
    feed_round();

    for (int op = 0; op < 24 && !::testing::Test::HasFatalFailure(); ++op) {
      uint64_t dice = rng.Uniform(0, 9);
      if (dice < 3 || live.empty()) {  // Register a fresh instantiation.
        auto h = cluster.RegisterContinuous(
            FollowerQuery("q" + std::to_string(name++),
                          "u" + std::to_string(rng.Uniform(0, 3))));
        ASSERT_TRUE(h.ok()) << h.status().ToString();
        live.push_back(*h);
      } else if (dice < 5 && live.size() > 1) {  // Unregister a random member.
        size_t idx = rng.Uniform(0, live.size() - 1);
        ASSERT_TRUE(cluster.UnregisterContinuous(live[idx]).ok());
        dead.push_back(live[idx]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(idx));
      } else if (dice < 6) {  // Maintenance GC under live groups.
        cluster.RunMaintenance(now > 600 ? now - 600 : 0);
      } else if (dice < 7) {
        feed_round();
      } else {  // Trigger every live member at the current frontier.
        for (Cluster::ContinuousHandle h : live) {
          if (!cluster.WindowReady(h, now)) {
            continue;
          }
          auto exec = cluster.ExecuteContinuousAt(h, now);
          ASSERT_TRUE(exec.ok()) << exec.status().ToString();
          std::string digest = ResultDigest(exec->result);
          bool first = delivered.insert({h, now}).second;
          if (!first) {
            // Re-delivery of a window must be byte-identical, and the
            // client-side dedup must suppress it.
            const std::string* seen = dedup.Find(h, now);
            ASSERT_NE(seen, nullptr);
            EXPECT_EQ(*seen, digest) << "divergent re-delivery";
            EXPECT_FALSE(dedup.Accept(h, now, exec->partial, digest));
          } else {
            EXPECT_TRUE(dedup.Accept(h, now, exec->partial, digest));
          }
        }
        // Dead handles must stay dead through churn and grouping.
        for (Cluster::ContinuousHandle h : dead) {
          EXPECT_FALSE(cluster.ExecuteContinuousAt(h, now).ok());
          EXPECT_FALSE(cluster.ContinuousActive(h));
        }
      }
    }
    // No lost deliveries: every accepted (member, window) pair is present
    // and canonical; no partials were ever upgraded.
    EXPECT_EQ(dedup.size(), delivered.size());
    EXPECT_EQ(dedup.upgrades(), 0u);
    for (const auto& [h, end] : delivered) {
      EXPECT_NE(dedup.Find(h, end), nullptr);
    }
  }
}

}  // namespace
}  // namespace wukongs
