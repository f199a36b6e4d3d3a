// Tail robustness (DESIGN.md §5.11): end-to-end latency budgets, hedged
// fork-join sub-queries, gray-failure (straggler) demotion, and the
// deadline-aware admission door.
//
// The lane is sliced three ways in tests/CMakeLists.txt: Hedge*/Straggler*/
// Deadline* suites form the `hedge` ctest label; RetryJitterPropertyTest
// rides the existing `property` lane. HedgeDifferentialTest is the
// seed-sweeped twin-cluster audit (gray failures, jitter, hedging and
// demotion are all cost-model-only, so a perturbed cluster must return
// byte-identical bags to a clean one — and a budgeted run must return a
// sound subset with a truthful declared completeness).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/client.h"
#include "src/cluster/cluster.h"
#include "src/cluster/hedge.h"
#include "src/cluster/worker_pool.h"
#include "src/common/deadline.h"
#include "src/common/retry.h"
#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/overload/admission_controller.h"
#include "src/overload/phi_accrual.h"
#include "src/overload/straggler_detector.h"
#include "src/sparql/parser.h"
#include "src/testkit/reference_oracle.h"

namespace wukongs {
namespace {

using testkit::CanonicalBag;

// Non-selective two-hop join (all-variable patterns, so IsSelective is
// false and a forced fork-join runs the full scatter/gather hook).
constexpr char kJoin[] = "SELECT ?X ?Y ?Z WHERE { ?X p0 ?Y . ?Y p1 ?Z }";
constexpr char kScan[] = "SELECT ?X ?Y WHERE { ?X p0 ?Y }";

// Seeded base graph: dense enough that the two-hop join ships >64-row
// binding tables (the large-step branch of the fork-join cost hook).
std::vector<Triple> MakeBase(StringServer* s, uint64_t seed, int triples) {
  Rng rng(seed ^ 0x5eed5eedull);
  auto ent = [&](uint64_t i) {
    return s->InternVertex("e" + std::to_string(i));
  };
  std::vector<Triple> base;
  base.reserve(static_cast<size_t>(triples));
  for (int i = 0; i < triples; ++i) {
    base.push_back({ent(rng.Uniform(0, 29)),
                    s->InternPredicate(i % 2 == 0 ? "p0" : "p1"),
                    ent(rng.Uniform(0, 29))});
  }
  return base;
}

// True when `sub` (a CanonicalBag) is a sub-bag of `full`.
bool IsSubBag(const std::vector<std::string>& sub,
              const std::vector<std::string>& full) {
  return std::includes(full.begin(), full.end(), sub.begin(), sub.end());
}

// --- HedgeDedup: exactly-once merging of primary/backup responses. ---

TEST(HedgeDedupTest, FirstResponseWinsAndLoserIsSuppressed) {
  HedgeDedup dedup;
  EXPECT_TRUE(dedup.Accept(1, "a"));
  EXPECT_FALSE(dedup.Accept(1, "a"));  // Loser of the pair: dropped.
  EXPECT_TRUE(dedup.Accept(2, "b"));   // Distinct sub-request: fresh slot.
  EXPECT_EQ(dedup.accepted(), 2u);
  EXPECT_EQ(dedup.duplicates(), 1u);
  EXPECT_EQ(dedup.mismatches(), 0u);
}

TEST(HedgeDedupTest, DivergentDuplicateIsFlaggedAsMismatch) {
  HedgeDedup dedup;
  EXPECT_TRUE(dedup.Accept(7, "rows=3"));
  EXPECT_FALSE(dedup.Accept(7, "rows=4"));  // Still dropped — but flagged.
  EXPECT_EQ(dedup.mismatches(), 1u);
}

// --- Deadline / DeadlineScope over the SimCost clock. ---

TEST(DeadlineScopeTest, InactiveByDefaultAndOnZeroBudget) {
  EXPECT_FALSE(Deadline::Active());
  EXPECT_FALSE(Deadline::ExpiredNow());
  EXPECT_EQ(Deadline::RemainingNs(), 0.0);
  DeadlineScope none(0.0);
  EXPECT_FALSE(Deadline::Active());
  DeadlineScope negative(-1.0);
  EXPECT_FALSE(Deadline::Active());
}

TEST(DeadlineScopeTest, ExpiresWhenModeledCostCrossesBudget) {
  DeadlineScope scope(0.001);  // 1000 modeled ns.
  ASSERT_TRUE(Deadline::Active());
  EXPECT_FALSE(Deadline::ExpiredNow());
  SimCost::Add(999.0);
  EXPECT_FALSE(Deadline::ExpiredNow());
  EXPECT_NEAR(Deadline::RemainingNs(), 1.0, 1e-9);
  SimCost::Add(1.0);
  EXPECT_TRUE(Deadline::ExpiredNow());
  EXPECT_EQ(Deadline::RemainingNs(), 0.0);
}

TEST(DeadlineScopeTest, ScopeRestoresPreviousState) {
  {
    DeadlineScope scope(1.0);
    EXPECT_TRUE(Deadline::Active());
  }
  EXPECT_FALSE(Deadline::Active());
}

TEST(DeadlineScopeTest, NestedScopeKeepsTighterBudget) {
  DeadlineScope outer(0.01);  // 10000 ns.
  {
    DeadlineScope inner(0.002);  // Tighter: 2000 ns.
    EXPECT_LE(Deadline::RemainingNs(), 2000.0);
  }
  // Outer budget restored (nothing was spent).
  EXPECT_NEAR(Deadline::RemainingNs(), 10000.0, 1e-6);
  SimCost::Add(9500.0);
  {
    // Inner asks for more than the outer has left: clamped to the outer
    // remainder — a sub-operation can never outlive its query's budget.
    DeadlineScope inner(1.0);
    EXPECT_LE(Deadline::RemainingNs(), 500.0);
  }
}

// --- Deadline enforcement through the cluster. ---

TEST(DeadlineClusterTest, EnforceOffIgnoresBudget) {
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 1, 120));
  auto exec = cluster.OneShot(kJoin, 0, 0.0001);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->deadline_expired);
  EXPECT_EQ(exec->completeness, 1.0);
}

TEST(DeadlineClusterTest, ForkJoinBudgetCancelsStepsButStaysSound) {
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.nodes = 4;
  config.transport = Transport::kTcp;
  config.force_fork_join = true;
  config.deadline.enforce = true;
  config.metrics = &registry;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 2, 200));

  auto full = cluster.OneShot(kJoin);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->deadline_expired);
  EXPECT_EQ(full->completeness, 1.0);

  // 500 modeled ns cannot cover even one TCP fork-join round.
  auto budgeted = cluster.OneShot(kJoin, 0, 0.0005);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(budgeted->deadline_expired);
  EXPECT_TRUE(budgeted->partial);
  EXPECT_LT(budgeted->completeness, 1.0);
  EXPECT_GT(budgeted->completeness, 0.0);
  // Cancelled rounds skip shipping, not local evaluation: the result is a
  // sound subset of the full answer.
  EXPECT_TRUE(IsSubBag(CanonicalBag(budgeted->result), CanonicalBag(full->result)));
  // Budget beats cost: the expired run charged less modeled network time.
  EXPECT_LT(budgeted->net_ms, full->net_ms);
  EXPECT_GE(registry.GetCounter("wukongs_deadline_expired_total")->value(), 1u);
  EXPECT_GE(
      registry.GetCounter("wukongs_deadline_cancelled_steps_total")->value(),
      1u);
}

TEST(DeadlineClusterTest, InPlaceBudgetSkipsRemoteReads) {
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.nodes = 4;
  config.force_in_place = true;
  config.deadline.enforce = true;
  config.metrics = &registry;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 3, 200));

  auto full = cluster.OneShot(kJoin);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_FALSE(full->result.rows.empty());

  auto budgeted = cluster.OneShot(kJoin, 0, 0.0005);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(budgeted->deadline_expired);
  EXPECT_TRUE(budgeted->partial);
  EXPECT_GE(budgeted->deadline_skipped_reads, 1u);
  EXPECT_LT(budgeted->completeness, 1.0);
  EXPECT_TRUE(IsSubBag(CanonicalBag(budgeted->result), CanonicalBag(full->result)));
  EXPECT_GE(
      registry.GetCounter("wukongs_deadline_skipped_reads_total")->value(),
      1u);
}

TEST(DeadlineClusterTest, DefaultBudgetAppliesWhenCallerPassesNone) {
  ClusterConfig config;
  config.nodes = 4;
  config.force_in_place = true;
  config.deadline.enforce = true;
  config.deadline.default_budget_ms = 0.0005;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 4, 200));
  auto exec = cluster.OneShot(kJoin);  // No explicit deadline.
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE(exec->deadline_expired);
  EXPECT_LT(exec->completeness, 1.0);
}

TEST(DeadlineClusterTest, GenerousBudgetCompletesExactly) {
  ClusterConfig config;
  config.nodes = 4;
  config.transport = Transport::kTcp;
  config.force_fork_join = true;
  config.deadline.enforce = true;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 5, 200));
  auto full = cluster.OneShot(kJoin);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto budgeted = cluster.OneShot(kJoin, 0, 1e6);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_FALSE(budgeted->deadline_expired);
  EXPECT_EQ(budgeted->completeness, 1.0);
  EXPECT_EQ(CanonicalBag(budgeted->result), CanonicalBag(full->result));
}

TEST(DeadlineClusterTest, ClientSurfacesExpiry) {
  ClusterConfig config;
  config.nodes = 4;
  config.force_in_place = true;
  config.deadline.enforce = true;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 6, 200));
  Client client(&cluster);
  auto ok = client.Submit(kJoin);
  ASSERT_TRUE(ok.ok());
  auto expired = client.Submit(kJoin, 0.0005);
  ASSERT_TRUE(expired.ok());
  EXPECT_TRUE(expired->deadline_expired);
  EXPECT_EQ(client.stats().deadline_expired, 1u);
}

// --- Deadline-aware admission (satellite: rejection split + retry hint). ---

TEST(DeadlineAdmissionTest, UnmeetableDeadlineRejectedWithRetryHint) {
  AdmissionConfig config;
  config.initial_service_ms = 5.0;
  config.workers = 1;
  AdmissionController admission(config);
  AdmissionRejection rejection;
  Status verdict = admission.Admit(1.0, &rejection);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(rejection.reason, AdmissionRejection::Reason::kDeadline);
  // Predicted latency (no queue + 5ms service) overshoots the 1ms deadline
  // by 4ms — that is exactly how long the caller should back off.
  EXPECT_NEAR(rejection.retry_after_ms, 4.0, 1e-9);
  EXPECT_NEAR(AdmissionController::ParseRetryAfterMs(verdict),
              rejection.retry_after_ms, 1e-6);
  EXPECT_EQ(admission.stats().rejected_deadline, 1u);
  // A generous deadline sails through.
  EXPECT_TRUE(admission.Admit(100.0).ok());
  admission.Complete(2.0);
}

TEST(DeadlineAdmissionTest, ConcurrencyCapRejectsWithQueueDrainHint) {
  AdmissionConfig config;
  config.max_concurrent = 1;
  config.initial_service_ms = 5.0;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.Admit().ok());
  AdmissionRejection rejection;
  Status verdict = admission.Admit(0.0, &rejection);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(rejection.reason, AdmissionRejection::Reason::kConcurrency);
  EXPECT_GT(rejection.retry_after_ms, 0.0);
  EXPECT_NEAR(AdmissionController::ParseRetryAfterMs(verdict),
              rejection.retry_after_ms, 1e-6);
  EXPECT_EQ(admission.stats().rejected_capacity, 1u);
  admission.Complete(1.0);
  EXPECT_TRUE(admission.Admit().ok());
  admission.Complete(1.0);
}

TEST(DeadlineAdmissionTest, ParseRetryAfterMsIgnoresForeignStatuses) {
  EXPECT_EQ(AdmissionController::ParseRetryAfterMs(Status::Ok()), 0.0);
  EXPECT_EQ(AdmissionController::ParseRetryAfterMs(
                Status::Unavailable("no hint here")),
            0.0);
}

TEST(DeadlineAdmissionTest, PoolSplitsRejectionCountersByReason) {
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.nodes = 1;
  config.metrics = &registry;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 7, 40));
  AdmissionConfig ac;
  ac.initial_service_ms = 5.0;
  AdmissionController admission(ac);
  WorkerPool pool(&cluster, 1);
  pool.SetAdmissionController(&admission);
  auto q = ParseQuery(kScan, cluster.strings());
  ASSERT_TRUE(q.ok());

  auto rejected = pool.SubmitOneShot(*q, 0, 1.0).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_GT(AdmissionController::ParseRetryAfterMs(rejected.status()), 0.0);
  auto accepted = pool.SubmitOneShot(*q, 0, 0.0).get();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  pool.Drain();
  EXPECT_EQ(registry.GetCounter("wukongs_query_rejections_total")->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter(obs::MetricsRegistry::Labeled(
                    "wukongs_query_rejections_by_reason_total",
                    {{"reason", "deadline"}}))
                ->value(),
            1u);
  EXPECT_EQ(registry
                .GetCounter(obs::MetricsRegistry::Labeled(
                    "wukongs_query_rejections_by_reason_total",
                    {{"reason", "concurrency"}}))
                ->value(),
            0u);
}

// --- StragglerDetector unit behavior. ---

StragglerConfig FastStragglerConfig() {
  StragglerConfig config;
  config.enabled = true;
  config.ewma_alpha = 1.0;  // EWMA == last sample: exact arithmetic below.
  config.min_samples = 2;
  config.demote_after = 2;
  config.promote_after = 2;
  return config;
}

TEST(StragglerDetectorTest, MinSamplesGateBlocksEarlyJudgement) {
  StragglerConfig config = FastStragglerConfig();
  config.min_samples = 4;
  StragglerDetector detector(2, config);
  for (int i = 0; i < 3; ++i) {
    detector.Observe(0, 100000.0);
    detector.Observe(1, 1000.0);
  }
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kNone);
  EXPECT_FALSE(detector.slow(0));
}

TEST(StragglerDetectorTest, DemoteAfterStreakThenPromoteOnRecovery) {
  StragglerDetector detector(3, FastStragglerConfig());
  for (int i = 0; i < 2; ++i) {
    detector.Observe(0, 10000.0);
    detector.Observe(1, 1000.0);
    detector.Observe(2, 1000.0);
  }
  // Peer median for node 0 is 1000ns; 10000 > 3x1000 — outlier, but one
  // evaluation is not a demotion yet (hysteresis).
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kNone);
  EXPECT_FALSE(detector.slow(0));
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kDemote);
  EXPECT_TRUE(detector.slow(0));
  EXPECT_EQ(detector.slow_count(), 1u);
  EXPECT_EQ(detector.stats().demotions, 1u);

  // Recovery: EWMA (alpha=1) drops back to the peer level.
  detector.Observe(0, 1000.0);
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kNone);
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kPromote);
  EXPECT_FALSE(detector.slow(0));
  EXPECT_EQ(detector.stats().promotions, 1u);
}

TEST(StragglerDetectorTest, SelfIsExcludedFromPeerMedian) {
  // With only one peer, a straggler judged against a self-including median
  // would never look slow (median would sit halfway to its own EWMA).
  StragglerDetector detector(2, FastStragglerConfig());
  for (int i = 0; i < 2; ++i) {
    detector.Observe(0, 10000.0);
    detector.Observe(1, 1000.0);
  }
  detector.Evaluate(0);
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kDemote);
}

TEST(StragglerDetectorTest, ResetForgetsHistoryAndState) {
  StragglerDetector detector(2, FastStragglerConfig());
  for (int i = 0; i < 2; ++i) {
    detector.Observe(0, 10000.0);
    detector.Observe(1, 1000.0);
  }
  detector.Evaluate(0);
  detector.Evaluate(0);
  ASSERT_TRUE(detector.slow(0));
  detector.Reset(0);
  EXPECT_FALSE(detector.slow(0));
  EXPECT_EQ(detector.samples(0), 0u);
  EXPECT_EQ(detector.Evaluate(0), StragglerAction::kNone);  // Gate re-armed.
}

// --- Phi-accrual hysteresis (satellite: no-flap regression). ---

// A node hovering right at the quarantine threshold must not flap: phi
// oscillating just below quarantine_phi never quarantines, and while
// quarantined, phi between reactivate_phi and quarantine_phi never
// reactivates. Only a decisive crossing moves the state, exactly once.
TEST(StragglerPhiHysteresisTest, NearThresholdOscillationDoesNotFlap) {
  PhiAccrualConfig config;  // Defaults: quarantine 3.0 / reactivate 0.5 / 3 beats.
  FailureDetector detector(1, config);
  StreamTime now = 0;
  for (int i = 0; i < 16; ++i) {
    now += 100;
    detector.Heartbeat(0, now);
  }
  // Smallest silence that reaches `target` suspicion, found by probing the
  // pure phi estimate (Phi is const: probing does not advance state).
  auto gap_reaching = [&](double target) {
    StreamTime gap = 1;
    while (detector.Phi(0, now + gap) < target) {
      ++gap;
    }
    return gap;
  };

  for (int round = 0; round < 5; ++round) {
    StreamTime probe = now + gap_reaching(config.quarantine_phi) - 2;
    ASSERT_LT(detector.Phi(0, probe), config.quarantine_phi);
    detector.Evaluate(0, probe, /*caught_up=*/true);
    EXPECT_FALSE(detector.quarantined(0)) << "flapped on round " << round;
    now = probe;
    detector.Heartbeat(0, now);  // The late beat arrives; mean inflates.
  }
  EXPECT_EQ(detector.stats().quarantines, 0u);

  // One decisive silence: exactly one quarantine.
  now += gap_reaching(config.quarantine_phi);
  EXPECT_EQ(detector.Evaluate(0, now, true), HealthAction::kQuarantine);
  ASSERT_TRUE(detector.quarantined(0));
  EXPECT_EQ(detector.stats().quarantines, 1u);

  // Suspicion between the two thresholds: recovery must NOT begin (the
  // hysteresis band), no matter how many evaluations run.
  for (int round = 0; round < 4; ++round) {
    detector.Heartbeat(0, now);
    StreamTime probe = now + gap_reaching(config.reactivate_phi + 0.2);
    ASSERT_LT(detector.Phi(0, probe), config.quarantine_phi);
    EXPECT_EQ(detector.Evaluate(0, probe, true), HealthAction::kNone);
    EXPECT_TRUE(detector.quarantined(0));
    now = probe;
  }
  EXPECT_EQ(detector.stats().reactivations, 0u);

  // Tight healthy beats: reactivation needs `hysteresis_beats` consecutive
  // healthy evaluations — and fires exactly once.
  int reactivations = 0;
  for (int beat = 0; beat < 6; ++beat) {
    now += 10;
    detector.Heartbeat(0, now);
    if (detector.Evaluate(0, now + 1, true) == HealthAction::kReactivate) {
      ++reactivations;
      break;
    }
    EXPECT_LT(beat, 5) << "healthy streak never reactivated";
  }
  EXPECT_EQ(reactivations, 1);
  EXPECT_FALSE(detector.quarantined(0));
  EXPECT_EQ(detector.stats().quarantines, 1u);
  EXPECT_EQ(detector.stats().reactivations, 1u);
}

TEST(StragglerPhiHysteresisTest, CatchUpGatesReactivation) {
  PhiAccrualConfig config;
  config.hysteresis_beats = 2;
  FailureDetector detector(1, config);
  StreamTime now = 0;
  for (int i = 0; i < 8; ++i) {
    now += 100;
    detector.Heartbeat(0, now);
  }
  // Silence long past the threshold quarantines.
  now += 100000;
  ASSERT_EQ(detector.Evaluate(0, now, true), HealthAction::kQuarantine);
  // Healthy beats with a backlog (caught_up=false) must not reactivate.
  for (int beat = 0; beat < 4; ++beat) {
    now += 10;
    detector.Heartbeat(0, now);
    EXPECT_EQ(detector.Evaluate(0, now + 1, /*caught_up=*/false),
              HealthAction::kNone);
  }
  EXPECT_TRUE(detector.quarantined(0));
  // Once caught up, the streak completes and the node comes back.
  HealthAction last = HealthAction::kNone;
  for (int beat = 0; beat < 4 && last != HealthAction::kReactivate; ++beat) {
    now += 10;
    detector.Heartbeat(0, now);
    last = detector.Evaluate(0, now + 1, true);
  }
  EXPECT_EQ(last, HealthAction::kReactivate);
  EXPECT_FALSE(detector.quarantined(0));
}

// --- Straggler demotion through the cluster (gray-failure windows). ---

TEST(StragglerClusterTest, GrayWindowDemotesThenWindowEndPromotes) {
  FaultSchedule schedule;
  schedule.gray_failures.push_back({/*node=*/1, /*from_ms=*/100,
                                    /*until_ms=*/500, /*slow_factor=*/10.0});
  FaultInjector injector(schedule);
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.nodes = 3;
  config.fault_injector = &injector;
  config.metrics = &registry;
  config.straggler.enabled = true;
  config.straggler.min_samples = 4;
  config.straggler.demote_after = 2;
  config.straggler.promote_after = 2;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 8, 60));

  for (StreamTime t = 10; t <= 90; t += 10) {
    cluster.TickHealth(t);  // Warm-up: every node probes at the base cost.
  }
  EXPECT_FALSE(cluster.StragglerSlow(1));

  for (StreamTime t = 110; t <= 200; t += 10) {
    cluster.TickHealth(t);  // Gray window: node 1 serves 10x slower.
  }
  EXPECT_TRUE(cluster.StragglerSlow(1));
  EXPECT_GE(cluster.straggler_detector()->stats().demotions, 1u);
  EXPECT_FALSE(cluster.StragglerSlow(0));
  EXPECT_FALSE(cluster.StragglerSlow(2));

  // A demoted home is rerouted (the node still serves — gray, not down —
  // but new queries should not land on it).
  uint64_t reroutes_before = cluster.fault_stats().reroutes;
  auto exec = cluster.OneShot(kScan, /*home=*/1);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_GT(cluster.fault_stats().reroutes, reroutes_before);

  for (StreamTime t = 510; t <= 700; t += 10) {
    cluster.TickHealth(t);  // Window over: EWMA decays, promotion streak.
  }
  EXPECT_FALSE(cluster.StragglerSlow(1));
  EXPECT_GE(cluster.straggler_detector()->stats().promotions, 1u);
  EXPECT_GE(registry.GetCounter("wukongs_straggler_demotions_total")->value(),
            1u);
  EXPECT_GE(
      registry.GetCounter("wukongs_straggler_promotions_total")->value(),
      1u);
}

TEST(StragglerClusterTest, LastHealthyFanoutMemberIsNeverDemoted) {
  FaultSchedule schedule;
  // Both nodes degrade (staggered); demoting both would leave no healthy
  // fan-out member, so the guard must keep at least one serving fast.
  schedule.gray_failures.push_back({0, 100, 1000, 10.0});
  schedule.gray_failures.push_back({1, 300, 1000, 100.0});
  FaultInjector injector(schedule);
  ClusterConfig config;
  config.nodes = 2;
  config.fault_injector = &injector;
  config.straggler.enabled = true;
  config.straggler.min_samples = 2;
  config.straggler.demote_after = 1;
  config.straggler.promote_after = 1;
  Cluster cluster(config);
  for (StreamTime t = 10; t <= 990; t += 10) {
    cluster.TickHealth(t);
    EXPECT_LE(cluster.straggler_detector()->slow_count(), 1u)
        << "both fan-out members demoted at t=" << t;
  }
}

// --- Hedged fork-join sub-queries. ---

TEST(HedgeClusterTest, DelayStaysDisarmedUntilHistogramsWarm) {
  ClusterConfig config;
  config.nodes = 3;
  config.hedge.enabled = true;
  config.hedge.min_samples = 4;
  config.straggler.enabled = true;  // TickHealth probes feed the histograms.
  Cluster cluster(config);
  EXPECT_EQ(cluster.HedgeDelayNs(), 0.0);
  for (StreamTime t = 10; t <= 30; t += 10) {
    cluster.TickHealth(t);
  }
  EXPECT_EQ(cluster.HedgeDelayNs(), 0.0);  // 3 samples < min_samples.
  for (StreamTime t = 40; t <= 80; t += 10) {
    cluster.TickHealth(t);
  }
  // Armed: p95 of 1000ns probes x margin, floored at min_delay_ns.
  EXPECT_GE(cluster.HedgeDelayNs(), config.hedge.min_delay_ns);
}

TEST(HedgeClusterTest, GrayNodeTriggersHedgesAndResultsStayExact) {
  FaultSchedule schedule;
  schedule.gray_failures.push_back({2, 100, 100000, 10.0});
  FaultInjector injector(schedule);
  obs::MetricsRegistry registry;
  StringServer strings;

  ClusterConfig config;
  config.nodes = 4;
  config.transport = Transport::kTcp;
  config.force_fork_join = true;
  config.fault_injector = &injector;
  config.metrics = &registry;
  config.hedge.enabled = true;
  config.hedge.min_samples = 4;
  config.straggler.enabled = true;
  config.straggler.demote_after = 1000;  // Keep the gray node in the fan-out.
  Cluster hedged(config, &strings);

  ClusterConfig clean_config;
  clean_config.nodes = 4;
  Cluster clean(clean_config, &strings);

  std::vector<Triple> base = MakeBase(&strings, 9, 200);
  hedged.LoadBase(base);
  clean.LoadBase(base);

  for (StreamTime t = 10; t <= 60; t += 10) {
    hedged.TickHealth(t);  // Warm histograms before the gray window bites.
  }
  hedged.TickHealth(200);  // Inside the gray window now.

  auto exec = hedged.OneShot(kJoin);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_GT(exec->hedges_issued, 0u);
  EXPECT_GE(exec->hedges_issued, exec->hedges_won);
  EXPECT_GE(exec->hedges_won, 1u);  // Backup via a healthy node beats 10x.

  auto reference = clean.OneShot(kJoin);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(CanonicalBag(exec->result), CanonicalBag(reference->result));

  uint64_t issued = registry.GetCounter("wukongs_hedge_issued_total")->value();
  EXPECT_EQ(issued, exec->hedges_issued);
  // Exactly-once: every hedge produced one losing response, every loser
  // was cancelled and suppressed by the dedup gate.
  EXPECT_EQ(registry.GetCounter("wukongs_hedge_cancelled_total")->value(),
            issued);
  EXPECT_EQ(
      registry.GetCounter("wukongs_hedge_duplicates_suppressed_total")->value(),
      issued);
  EXPECT_LE(registry.GetCounter("wukongs_hedge_backup_wins_total")->value(),
            issued);
}

TEST(HedgeClusterTest, HedgingNeedsASpreadBetweenBestAndWorst) {
  // Every fan-out member equally gray: no healthy backup target exists, so
  // no hedge may fire (a backup to an equally slow node cannot win).
  FaultSchedule schedule;
  for (NodeId n = 0; n < 3; ++n) {
    schedule.gray_failures.push_back({n, 100, 100000, 10.0});
  }
  FaultInjector injector(schedule);
  ClusterConfig config;
  config.nodes = 3;
  config.transport = Transport::kTcp;
  config.force_fork_join = true;
  config.fault_injector = &injector;
  config.hedge.enabled = true;
  config.hedge.min_samples = 4;
  config.straggler.enabled = true;
  config.straggler.demote_after = 1000;
  Cluster cluster(config);
  cluster.LoadBase(MakeBase(cluster.strings(), 10, 120));
  for (StreamTime t = 10; t <= 60; t += 10) {
    cluster.TickHealth(t);
  }
  cluster.TickHealth(200);
  auto exec = cluster.OneShot(kJoin);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->hedges_issued, 0u);
}

// --- Retry jitter (satellite: property tests; rides the `property` lane). ---

double LegacyBackoff(const RetryPolicy& policy, int attempt) {
  double wait = policy.initial_backoff_ns *
                std::pow(policy.backoff_multiplier, attempt - 1);
  if (!(wait < policy.max_backoff_ns)) {  // Catches overflow to inf.
    wait = policy.max_backoff_ns;
  }
  return wait;
}

TEST(RetryJitterPropertyTest, JitterOnlyShrinksAndCeilingAlwaysHolds) {
  for (uint64_t seed : {1ull, 7ull, 1234567ull}) {
    for (double jf : {0.0, 0.3, 1.0}) {
      RetryPolicy policy;
      policy.jitter_fraction = jf;
      policy.jitter_seed = seed;
      for (int attempt = 1; attempt <= 1000; ++attempt) {
        double base = LegacyBackoff(policy, attempt);
        double wait = policy.BackoffNs(attempt);
        EXPECT_LE(wait, policy.max_backoff_ns);
        EXPECT_LE(wait, base + 1e-9);
        EXPECT_GE(wait, (1.0 - jf) * base - 1e-9)
            << "seed=" << seed << " jf=" << jf << " attempt=" << attempt;
      }
    }
  }
}

TEST(RetryJitterPropertyTest, ZeroJitterIsByteIdenticalToLegacyPolicy) {
  RetryPolicy policy;  // jitter_fraction = 0 by default.
  for (int attempt = 1; attempt <= 64; ++attempt) {
    EXPECT_DOUBLE_EQ(policy.BackoffNs(attempt), LegacyBackoff(policy, attempt));
  }
}

TEST(RetryJitterPropertyTest, DeterministicPerSeedAndDecorrelatedAcrossSeeds) {
  RetryPolicy a;
  a.jitter_fraction = 1.0;
  a.jitter_seed = 42;
  RetryPolicy b = a;
  bool diverged = false;
  RetryPolicy c = a;
  c.jitter_seed = 43;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    EXPECT_DOUBLE_EQ(a.BackoffNs(attempt), b.BackoffNs(attempt));
    diverged = diverged || a.BackoffNs(attempt) != c.BackoffNs(attempt);
  }
  EXPECT_TRUE(diverged);  // Different salts decorrelate the draws.
}

// --- Twin-cluster straggler differential (200 seeds; nightly 2000). ---
//
// Gray-failure factors, per-message jitter, hedging and straggler demotion
// are all cost-model-only perturbations: a perturbed cluster MUST return
// bags byte-identical to a clean cluster over the same data (zero loss,
// zero duplicates), and a budget-expired query must return a sound subset
// with completeness < 1. Aggregates assert the lane actually exercised
// hedges and expirations — a sweep that never fires them proves nothing.

struct SeedOutcome {
  uint64_t hedges_issued = 0;
  uint64_t expirations = 0;
};

SeedOutcome RunStragglerSeed(uint64_t seed) {
  SeedOutcome outcome;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 11);
  const uint32_t nodes = static_cast<uint32_t>(3 + rng.Uniform(0, 1));
  const bool in_place = rng.Bernoulli(0.3);  // Else forced fork-join.

  FaultSchedule schedule;
  schedule.seed = seed;
  GrayFailureEvent gray;
  gray.node = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
  gray.from_ms = 100;
  gray.until_ms = 2000;  // Outlives the trace: queries run inside it.
  gray.slow_factor = 4.0 + static_cast<double>(rng.Uniform(0, 12));
  schedule.gray_failures.push_back(gray);
  schedule.message_jitter_rate = 0.3;
  schedule.message_jitter_ns = 20000.0;
  FaultInjector injector(schedule);

  StringServer strings;
  obs::MetricsRegistry registry;
  ClusterConfig faulted_config;
  faulted_config.nodes = nodes;
  faulted_config.transport = Transport::kTcp;
  faulted_config.force_fork_join = !in_place;
  faulted_config.force_in_place = in_place;
  faulted_config.fault_injector = &injector;
  faulted_config.metrics = &registry;
  faulted_config.hedge.enabled = true;
  faulted_config.hedge.min_samples = 4;
  faulted_config.straggler.enabled = true;
  faulted_config.straggler.min_samples = 4;
  // Half the seeds let the detector demote the gray node (quarantine path);
  // the other half keep it in the fan-out so hedges race it (hedge path).
  faulted_config.straggler.demote_after = rng.Bernoulli(0.5) ? 2 : 1000;
  faulted_config.straggler.promote_after = 2;
  faulted_config.deadline.enforce = true;
  Cluster faulted(faulted_config, &strings);

  ClusterConfig clean_config;
  clean_config.nodes = nodes;
  Cluster clean(clean_config, &strings);

  std::vector<Triple> base = MakeBase(&strings, seed, 80);
  faulted.LoadBase(base);
  clean.LoadBase(base);

  StreamId faulted_stream = *faulted.DefineStream("S0", {"tg"});
  StreamId clean_stream = *clean.DefineStream("S0", {"tg"});
  constexpr char kContinuous[] = R"(
      REGISTER QUERY qw AS
      SELECT ?X ?G
      FROM STREAM <S0> [RANGE 200ms STEP 100ms]
      WHERE { GRAPH <S0> { ?X tg ?G } })";
  auto faulted_handle = faulted.RegisterContinuous(kContinuous);
  auto clean_handle = clean.RegisterContinuous(kContinuous);
  EXPECT_TRUE(faulted_handle.ok() && clean_handle.ok());

  auto ent = [&](uint64_t i) {
    return strings.InternVertex("e" + std::to_string(i));
  };
  for (StreamTime round = 0; round < 8; ++round) {
    StreamTupleVec tuples;
    size_t count = 2 + rng.Uniform(0, 3);
    std::vector<StreamTime> stamps;
    for (size_t i = 0; i < count; ++i) {
      stamps.push_back(round * 100 + 1 + rng.Uniform(0, 98));
    }
    std::sort(stamps.begin(), stamps.end());
    for (StreamTime ts : stamps) {
      bool timing = rng.Bernoulli(0.5);
      tuples.push_back({{ent(rng.Uniform(0, 9)),
                         strings.InternPredicate(timing ? "tg" : "p0"),
                         ent(rng.Uniform(0, 9))},
                        ts,
                        timing ? TupleKind::kTiming : TupleKind::kTimeless});
    }
    EXPECT_TRUE(faulted.FeedStream(faulted_stream, tuples).ok());
    EXPECT_TRUE(clean.FeedStream(clean_stream, tuples).ok());
    faulted.AdvanceStreams((round + 1) * 100);
    clean.AdvanceStreams((round + 1) * 100);
  }

  // Unbudgeted one-shots: zero loss, zero duplicates under gray + jitter.
  const char* pool[] = {kScan, kJoin};
  for (int i = 0; i < 2; ++i) {
    const char* text = pool[rng.Uniform(0, 1)];
    NodeId home = static_cast<NodeId>(rng.Uniform(0, nodes - 1));
    auto perturbed = faulted.OneShot(text, home);
    auto reference = clean.OneShot(text, 0);
    EXPECT_TRUE(perturbed.ok() && reference.ok());
    if (perturbed.ok() && reference.ok()) {
      EXPECT_EQ(CanonicalBag(perturbed->result), CanonicalBag(reference->result));
      EXPECT_FALSE(perturbed->deadline_expired);
      EXPECT_EQ(perturbed->completeness, 1.0);
      outcome.hedges_issued += perturbed->hedges_issued;
    }
  }

  // Budgeted one-shot: either it completes exactly, or it declares a
  // truthful partial result (sound subset, completeness < 1).
  const double budgets[] = {0.0005, 0.002, 0.01, 1e6};
  double budget = budgets[rng.Uniform(0, 3)];
  auto budgeted = faulted.OneShot(kJoin, 0, budget);
  auto reference = clean.OneShot(kJoin, 0);
  EXPECT_TRUE(budgeted.ok() && reference.ok());
  if (budgeted.ok() && reference.ok()) {
    outcome.hedges_issued += budgeted->hedges_issued;
    if (budgeted->deadline_expired) {
      ++outcome.expirations;
      EXPECT_TRUE(budgeted->partial);
      EXPECT_LT(budgeted->completeness, 1.0);
      EXPECT_TRUE(IsSubBag(CanonicalBag(budgeted->result),
                           CanonicalBag(reference->result)));
    } else {
      EXPECT_EQ(budgeted->completeness, 1.0);
      EXPECT_EQ(CanonicalBag(budgeted->result), CanonicalBag(reference->result));
    }
  }

  // Continuous trigger at the same frontier on both clusters.
  if (faulted_handle.ok() && clean_handle.ok()) {
    auto perturbed = faulted.ExecuteContinuousAt(*faulted_handle, 600);
    auto reference = clean.ExecuteContinuousAt(*clean_handle, 600);
    EXPECT_TRUE(perturbed.ok() && reference.ok());
    if (perturbed.ok() && reference.ok()) {
      EXPECT_EQ(CanonicalBag(perturbed->result), CanonicalBag(reference->result));
    }
  }

  // Exactly-once audit: every hedge's losing response was suppressed.
  EXPECT_EQ(
      registry.GetCounter("wukongs_hedge_duplicates_suppressed_total")->value(),
      registry.GetCounter("wukongs_hedge_issued_total")->value());
  return outcome;
}

TEST(HedgeDifferentialTest, GrayClusterMatchesCleanClusterAcrossSeeds) {
  uint64_t seeds = 200;
  if (const char* env = std::getenv("WUKONGS_DIFF_SEEDS")) {
    seeds = std::strtoull(env, nullptr, 10);
  }
  SeedOutcome total;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SeedOutcome outcome = RunStragglerSeed(seed);
    total.hedges_issued += outcome.hedges_issued;
    total.expirations += outcome.expirations;
  }
  // The sweep must actually exercise both mechanisms, or it proves nothing.
  EXPECT_GT(total.hedges_issued, 0u);
  EXPECT_GT(total.expirations, 0u);
}

}  // namespace
}  // namespace wukongs
