// Fault injection + recovery tests (robustness tentpole).
//
// The acceptance property: a seeded fault schedule — node crash at batch k,
// torn checkpoint-log tail, probabilistic fabric failures — run through the
// RecoveryManager reproduces byte-identical continuous-query results vs a
// fault-free golden run, after client-side window dedup (paper §5's
// at-least-once + dedup-by-window-end contract).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/latency_model.h"
#include "src/common/retry.h"
#include "src/fault/fault_injector.h"
#include "src/fault/recovery_manager.h"
#include "src/fault/upstream_buffer.h"
#include "src/obs/metrics.h"
#include "src/stream/checkpoint.h"

namespace wukongs {
namespace {

constexpr StreamTime kEndMs = 2000;
constexpr StreamTime kStepMs = 100;
constexpr StreamTime kFirstWindowMs = 500;
constexpr int kUsers = 30;

const char* kJoinQuery = R"(
    REGISTER QUERY QJoin AS
    SELECT ?X ?Y
    FROM STREAM <S> [RANGE 500ms STEP 100ms]
    WHERE { GRAPH <S> { ?X po ?Y } })";

// Fixed subject -> selective -> in-place execution -> charged (fallible)
// one-sided reads, exercising the retry path.
const char* kPointQuery = R"(
    REGISTER QUERY QPoint AS
    SELECT ?Y
    FROM STREAM <S> [RANGE 500ms STEP 100ms]
    WHERE { GRAPH <S> { user5 po ?Y } })";

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wukongs_fault_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::vector<Triple> BaseTriples(StringServer* s) {
    std::vector<Triple> base;
    for (int i = 0; i < kUsers; ++i) {
      base.push_back({s->InternVertex("user" + std::to_string(i)),
                      s->InternPredicate("fo"),
                      s->InternVertex("user" + std::to_string((i + 1) % kUsers))});
    }
    return base;
  }

  // Tuples of the interval [from, to): a post edge every 5 ms plus a timing
  // (GPS-style) reading every 20 ms.
  StreamTupleVec IntervalTuples(StringServer* s, StreamTime from, StreamTime to) {
    StreamTupleVec tuples;
    for (StreamTime t = from; t < to; t += 5) {
      tuples.push_back(
          StreamTuple{{s->InternVertex("user" + std::to_string((t / 5) % kUsers)),
                       s->InternPredicate("po"),
                       s->InternVertex("post" + std::to_string(t / 5))},
                      t,
                      TupleKind::kTimeless});
      if (t % 20 == 0) {
        tuples.push_back(
            StreamTuple{{s->InternVertex("user" + std::to_string((t / 20) % kUsers)),
                         s->InternPredicate("ga"),
                         s->InternVertex("loc" + std::to_string(t % 7))},
                        t,
                        TupleKind::kTiming});
      }
    }
    return tuples;
  }

  // Fault-free reference: every window's canonical digest per query handle.
  std::map<std::pair<uint64_t, StreamTime>, std::string> GoldenDigests(
      StringServer* strings) {
    ClusterConfig config;
    config.nodes = 3;
    Cluster cluster(config, strings);
    StreamId stream = *cluster.DefineStream("S", {"ga"});
    cluster.LoadBase(BaseTriples(strings));
    auto h1 = cluster.RegisterContinuous(kJoinQuery, /*home=*/2);
    auto h2 = cluster.RegisterContinuous(kPointQuery, /*home=*/2);
    EXPECT_TRUE(h1.ok() && h2.ok());

    std::map<std::pair<uint64_t, StreamTime>, std::string> golden;
    for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
      EXPECT_TRUE(
          cluster.FeedStream(stream, IntervalTuples(strings, t - kStepMs, t)).ok());
      cluster.AdvanceStreams(t);
      if (t < kFirstWindowMs) {
        continue;
      }
      for (uint64_t h : {*h1, *h2}) {
        EXPECT_TRUE(cluster.WindowReady(h, t));
        auto exec = cluster.ExecuteContinuousAt(h, t);
        EXPECT_TRUE(exec.ok()) << exec.status().ToString();
        EXPECT_FALSE(exec->partial);
        golden[{h, t}] = ResultDigest(exec->result);
      }
    }
    EXPECT_FALSE(golden.empty());
    return golden;
  }

  std::filesystem::path dir_;
};

// Full-cluster crash at batch k: the process dies mid-append (torn log
// tail), a fresh cluster recovers from the clean log prefix + the upstream
// backup's tail + the durable query registry, then the stream resumes.
// Every window — pre-crash, recovered, and post-resume — must be
// byte-identical to the golden run.
TEST_F(FaultRecoveryTest, ClusterRecoveryIsByteIdenticalUnderSeededSchedule) {
  StringServer strings;
  auto golden = GoldenDigests(&strings);

  FaultSchedule schedule;
  schedule.seed = 42;
  schedule.read_failure_rate = 0.01;
  schedule.message_failure_rate = 0.01;
  schedule.crashes = {CrashEvent{/*node=*/2, /*stream=*/0, /*at_seq=*/5,
                                 /*torn_tail_bytes=*/11}};
  FaultInjector injector(schedule);
  UpstreamBuffer upstream;
  ASSERT_TRUE(WriteQueryRegistry(Path("registry.bin"),
                                 {{kJoinQuery, 2}, {kPointQuery, 2}})
                  .ok());

  WindowDedup dedup;
  std::optional<CrashEvent> crash;
  StreamTime crashed_at = 0;
  {
    ClusterConfig config;
    config.nodes = 3;
    config.fault_injector = &injector;
    Cluster live(config, &strings);
    StreamId stream = *live.DefineStream("S", {"ga"});
    live.LoadBase(BaseTriples(&strings));
    auto h1 = live.RegisterContinuous(kJoinQuery, 2);
    auto h2 = live.RegisterContinuous(kPointQuery, 2);
    ASSERT_TRUE(h1.ok() && h2.ok());

    auto log = CheckpointLog::Create(Path("batches.log"));
    ASSERT_TRUE(log.ok());
    live.SetBatchLogger(
        [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });
    live.SetUpstreamBuffer(&upstream);
    // Models the whole process dying at the scheduled point: stop the run
    // and remember the event so the log tail can be torn afterwards.
    live.SetCrashHandler([&](const CrashEvent& e) { crash = e; });

    for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
      ASSERT_TRUE(
          live.FeedStream(stream, IntervalTuples(&strings, t - kStepMs, t)).ok());
      live.AdvanceStreams(t);
      if (crash.has_value()) {
        crashed_at = t;
        break;
      }
      if (t < kFirstWindowMs) {
        continue;
      }
      for (uint64_t h : {*h1, *h2}) {
        auto exec = live.ExecuteContinuousAt(h, t);
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        dedup.Accept(h, t, exec->partial, ResultDigest(exec->result));
      }
    }
    ASSERT_TRUE(crash.has_value());
    EXPECT_EQ(live.fault_stats().crashes, 1u);
    EXPECT_EQ(injector.stats().crashes_fired, 1u);
  }  // "Process" dies: log closed with the last record mid-flight.

  ASSERT_TRUE(
      FaultInjector::TearFileTail(Path("batches.log"), crash->torn_tail_bytes)
          .ok());

  // Recovery into a fresh cluster.
  ClusterConfig config;
  config.nodes = 3;
  Cluster recovered(config, &strings);
  StreamId stream = *recovered.DefineStream("S", {"ga"});
  recovered.LoadBase(BaseTriples(&strings));
  RecoveryManager manager(Path("batches.log"), Path("registry.bin"));
  auto report = manager.RecoverCluster(&recovered, &upstream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries_reregistered, 2u);
  // The torn tail dropped the in-flight record; the upstream backup
  // re-supplied at least that batch.
  EXPECT_GE(report->upstream_batches, 1u);
  EXPECT_GT(report->log_batches, 0u);

  // The stream resumes where the crash interrupted it (the interval ending
  // at `crashed_at` was already batched and recovered); every window — old
  // ones re-executed, new ones fresh — feeds the client-side dedup.
  for (StreamTime t = crashed_at + kStepMs; t <= kEndMs; t += kStepMs) {
    ASSERT_TRUE(
        recovered.FeedStream(stream, IntervalTuples(&strings, t - kStepMs, t))
            .ok());
    recovered.AdvanceStreams(t);
  }
  for (StreamTime t = kFirstWindowMs; t <= kEndMs; t += kStepMs) {
    for (uint64_t h : {0u, 1u}) {
      ASSERT_TRUE(recovered.WindowReady(h, t));
      auto exec = recovered.ExecuteContinuousAt(h, t);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_FALSE(exec->partial);
      dedup.Accept(h, t, exec->partial, ResultDigest(exec->result));
    }
  }

  // Byte-identical to the fault-free run, for every (query, window).
  ASSERT_EQ(dedup.size(), golden.size());
  for (const auto& [key, want] : golden) {
    const std::string* got = dedup.Find(key.first, key.second);
    ASSERT_NE(got, nullptr) << "query " << key.first << " window " << key.second;
    EXPECT_EQ(*got, want) << "query " << key.first << " window " << key.second;
    EXPECT_FALSE(dedup.IsPartial(key.first, key.second));
  }
  // Re-executed pre-crash windows were suppressed as duplicates.
  EXPECT_GT(dedup.duplicates_suppressed(), 0u);
}

// In-place node restore: the cluster rides through a crash degraded (partial
// results, reroutes, forced fork-join over survivors), the node is restored
// from log + upstream while the survivors stay live, and re-executed windows
// upgrade the partial results to byte-identical complete ones.
TEST_F(FaultRecoveryTest, NodeRestoreUpgradesDegradedWindows) {
  StringServer strings;
  auto golden = GoldenDigests(&strings);

  FaultSchedule schedule;
  schedule.seed = 7;
  schedule.read_failure_rate = 0.02;
  schedule.message_failure_rate = 0.02;
  schedule.batch_drop_rate = 0.25;
  schedule.batch_duplicate_rate = 0.25;
  schedule.batch_delay_rate = 0.2;
  schedule.crashes = {CrashEvent{/*node=*/2, /*stream=*/0, /*at_seq=*/8,
                                 /*torn_tail_bytes=*/0}};
  FaultInjector injector(schedule);
  UpstreamBuffer upstream;

  ClusterConfig config;
  config.nodes = 3;
  config.fault_injector = &injector;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  std::vector<Triple> base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h1 = cluster.RegisterContinuous(kJoinQuery, 2);
  auto h2 = cluster.RegisterContinuous(kPointQuery, 2);
  ASSERT_TRUE(h1.ok() && h2.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });
  cluster.SetUpstreamBuffer(&upstream);

  WindowDedup dedup;
  size_t partial_windows = 0;
  for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
    ASSERT_TRUE(
        cluster.FeedStream(stream, IntervalTuples(&strings, t - kStepMs, t)).ok());
    cluster.AdvanceStreams(t);
    if (t < kFirstWindowMs) {
      continue;
    }
    for (uint64_t h : {*h1, *h2}) {
      ASSERT_TRUE(cluster.WindowReady(h, t))
          << "a crashed node must not stall surviving windows";
      auto exec = cluster.ExecuteContinuousAt(h, t);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      partial_windows += exec->partial ? 1 : 0;
      dedup.Accept(h, t, exec->partial, ResultDigest(exec->result));
    }
  }

  const auto& stats = cluster.fault_stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_FALSE(cluster.NodeUp(2));
  EXPECT_EQ(cluster.UpNodeCount(), 2u);
  EXPECT_GT(partial_windows, 0u);          // Degraded, not crashed.
  EXPECT_GT(stats.degraded_executions, 0u);
  EXPECT_GT(stats.reroutes, 0u);           // Both queries' home was node 2.
  // The seeded schedule exercises every batch fate at these rates.
  EXPECT_GT(stats.batches_redelivered + stats.duplicates_suppressed +
                stats.batches_delayed,
            0u);

  // Restore the crashed node in place from the durable log + upstream tail.
  ASSERT_TRUE(log->Sync().ok());
  RecoveryManager manager(Path("batches.log"));
  auto report = manager.RestoreNode(&cluster, 2, base, &upstream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->log_batches, 0u);
  EXPECT_TRUE(cluster.NodeUp(2));
  EXPECT_EQ(cluster.UpNodeCount(), 3u);

  // Re-execute every window: complete results upgrade the partial ones.
  for (StreamTime t = kFirstWindowMs; t <= kEndMs; t += kStepMs) {
    for (uint64_t h : {*h1, *h2}) {
      auto exec = cluster.ExecuteContinuousAt(h, t);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_FALSE(exec->partial);
      dedup.Accept(h, t, exec->partial, ResultDigest(exec->result));
    }
  }
  EXPECT_GT(dedup.upgrades(), 0u);

  ASSERT_EQ(dedup.size(), golden.size());
  for (const auto& [key, want] : golden) {
    const std::string* got = dedup.Find(key.first, key.second);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, want) << "query " << key.first << " window " << key.second;
    EXPECT_FALSE(dedup.IsPartial(key.first, key.second));
  }
}

// Retry accounting has one definition per counter (DESIGN.md §5.8): the
// dispatcher's delivery retries (drop retransmits + failed shipping sends)
// and the execution read-path retries are distinct events under distinct
// names, and backoff accumulates in whole nanoseconds. Each counter is
// checked against a record kept outside the cluster: the injector's own
// fault tallies for delivery, the per-execution surface for queries.
TEST_F(FaultRecoveryTest, RetryCountersMatchIndependentTallies) {
  FaultSchedule schedule;
  schedule.seed = 5;
  schedule.batch_drop_rate = 0.2;
  schedule.batch_delay_rate = 0.1;
  schedule.message_failure_rate = 0.2;
  schedule.read_failure_rate = 0.2;
  FaultInjector injector(schedule);
  obs::MetricsRegistry registry;
  ClusterConfig config;
  config.nodes = 3;
  config.fault_injector = &injector;
  config.metrics = &registry;
  // Constant, sub-microsecond backoff: every retry charges exactly 1500 ns,
  // so the ns counters are checked exactly (whole-microsecond truncation
  // would lose a third of it).
  config.retry.initial_backoff_ns = 1500.0;
  config.retry.backoff_multiplier = 1.0;
  Cluster cluster(config);
  StringServer* strings = cluster.strings();
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  cluster.LoadBase(BaseTriples(strings));
  auto h = cluster.RegisterContinuous(kPointQuery, /*home=*/2);
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };

  // Ingest only: every injected message fault is a dispatcher shipping send.
  for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
    ASSERT_TRUE(
        cluster.FeedStream(stream, IntervalTuples(strings, t - kStepMs, t)).ok());
    cluster.AdvanceStreams(t);
  }
  const FaultInjectorStats fired = injector.stats();
  ASSERT_GT(fired.dropped_batches, 0u);
  ASSERT_GT(fired.failed_messages, 0u);
  const Cluster::FaultStats delivery = cluster.fault_stats();
  EXPECT_EQ(delivery.batches_redelivered, fired.dropped_batches);
  EXPECT_EQ(delivery.batches_delayed, fired.delayed_batches);
  // Each delivery fault is either retried or (last attempt) escalated.
  EXPECT_EQ(delivery.delivery_retry.retries + delivery.delivery_retry.exhausted,
            fired.dropped_batches + fired.failed_messages);
  EXPECT_EQ(delivery.delivery_retry.backoff_ns,
            1500.0 * static_cast<double>(delivery.delivery_retry.retries));
  EXPECT_EQ(counter("wukongs_delivery_retries_total"),
            delivery.delivery_retry.retries);
  EXPECT_EQ(counter("wukongs_delivery_backoff_ns_total"),
            1500 * delivery.delivery_retry.retries);
  EXPECT_EQ(counter("wukongs_batches_delayed_total"), fired.delayed_batches);
  // No query ran yet: delivery retries never reach the execution counters.
  EXPECT_EQ(counter("wukongs_fault_retries_total"), 0u);
  EXPECT_EQ(counter("wukongs_fault_backoff_ns_total"), 0u);

  // Queries only: selective in-place reads retry lost one-sided reads.
  uint64_t exec_retries = 0;
  double exec_backoff_ms = 0.0;
  for (StreamTime t = kFirstWindowMs; t <= kEndMs; t += kStepMs) {
    auto exec = cluster.ExecuteContinuousAt(*h, t);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    exec_retries += exec->fault_retries;
    exec_backoff_ms += exec->backoff_ms;
    auto one = cluster.OneShot("SELECT ?Y WHERE { user7 fo ?Y }", 1);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    exec_retries += one->fault_retries;
    exec_backoff_ms += one->backoff_ms;
  }
  ASSERT_GT(exec_retries, 0u);
  EXPECT_EQ(counter("wukongs_fault_retries_total"), exec_retries);
  EXPECT_EQ(counter("wukongs_fault_backoff_ns_total"), 1500 * exec_retries);
  EXPECT_NEAR(exec_backoff_ms * 1e6,
              static_cast<double>(counter("wukongs_fault_backoff_ns_total")),
              1e-3);
  // And execution retries never reach the delivery view.
  EXPECT_EQ(cluster.fault_stats().delivery_retry.retries,
            delivery.delivery_retry.retries);

  // Forced fork-join: reads ride the scatter rounds instead of one-sided
  // verbs, so the query phase's only faults are rounds lost at the parent
  // (the home node). Each lost round is one execution retry charged one
  // backoff, and the injector's message tally is the independent record.
  FaultInjector fj_injector(schedule);
  obs::MetricsRegistry fj_registry;
  ClusterConfig fj_config = config;
  fj_config.fault_injector = &fj_injector;
  fj_config.metrics = &fj_registry;
  fj_config.force_fork_join = true;
  Cluster fj(fj_config);
  StringServer* fj_strings = fj.strings();
  StreamId fj_stream = *fj.DefineStream("S", {"ga"});
  fj.LoadBase(BaseTriples(fj_strings));
  auto fh = fj.RegisterContinuous(kPointQuery, /*home=*/2);
  ASSERT_TRUE(fh.ok()) << fh.status().ToString();
  for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
    ASSERT_TRUE(
        fj.FeedStream(fj_stream, IntervalTuples(fj_strings, t - kStepMs, t))
            .ok());
    fj.AdvanceStreams(t);
  }
  const uint64_t ingest_failures = fj_injector.stats().failed_messages;
  uint64_t fj_retries = 0;
  double fj_backoff_ms = 0.0;
  for (StreamTime t = kFirstWindowMs; t <= kEndMs; t += kStepMs) {
    auto exec = fj.ExecuteContinuousAt(*fh, t);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_TRUE(exec->fork_join);
    fj_retries += exec->fault_retries;
    fj_backoff_ms += exec->backoff_ms;
    auto one = fj.OneShot("SELECT ?Y WHERE { user7 fo ?Y }", 1);
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    fj_retries += one->fault_retries;
    fj_backoff_ms += one->backoff_ms;
  }
  const uint64_t lost_rounds =
      fj_injector.stats().failed_messages - ingest_failures;
  ASSERT_GT(lost_rounds, 0u);
  EXPECT_EQ(fj_retries, lost_rounds);
  EXPECT_EQ(fj_registry.GetCounter("wukongs_fault_retries_total")->value(),
            lost_rounds);
  EXPECT_EQ(fj_registry.GetCounter("wukongs_fault_backoff_ns_total")->value(),
            1500 * lost_rounds);
  EXPECT_NEAR(fj_backoff_ms * 1e6, 1500.0 * static_cast<double>(lost_rounds),
              1e-3);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultSchedule schedule;
  schedule.seed = 99;
  schedule.read_failure_rate = 0.3;
  schedule.batch_drop_rate = 0.2;
  schedule.batch_duplicate_rate = 0.2;
  schedule.batch_delay_rate = 0.2;
  FaultInjector a(schedule);
  FaultInjector b(schedule);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.FailRead(0, 1), b.FailRead(0, 1));
    EXPECT_EQ(a.FateOf(0, static_cast<BatchSeq>(i)),
              b.FateOf(0, static_cast<BatchSeq>(i)));
  }
}

TEST(FaultInjectorTest, CategoriesAreIndependentStreams) {
  // Enabling read failures must not shift the batch-fate sequence.
  FaultSchedule plain;
  plain.seed = 5;
  plain.batch_drop_rate = 0.2;
  plain.batch_duplicate_rate = 0.2;
  FaultSchedule with_reads = plain;
  with_reads.read_failure_rate = 0.5;

  FaultInjector a(plain);
  FaultInjector b(with_reads);
  for (int i = 0; i < 100; ++i) {
    (void)b.FailRead(0, 1);  // Interleave read draws; fates must not move.
    EXPECT_EQ(a.FateOf(0, static_cast<BatchSeq>(i)),
              b.FateOf(0, static_cast<BatchSeq>(i)));
  }
}

TEST(FaultInjectorTest, CrashFiresExactlyOnce) {
  FaultSchedule schedule;
  schedule.crashes = {CrashEvent{1, 0, 3, 16}};
  FaultInjector injector(schedule);
  EXPECT_FALSE(injector.TakeCrash(0, 2).has_value());
  auto c = injector.TakeCrash(0, 3);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->node, 1u);
  EXPECT_EQ(c->torn_tail_bytes, 16u);
  EXPECT_FALSE(injector.TakeCrash(0, 3).has_value());
}

TEST(RetryPolicyTest, BackoffGrowsAndIsCharged) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ns = 1000.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ns = 3000.0;
  EXPECT_DOUBLE_EQ(policy.BackoffNs(1), 1000.0);
  EXPECT_DOUBLE_EQ(policy.BackoffNs(2), 2000.0);
  EXPECT_DOUBLE_EQ(policy.BackoffNs(3), 3000.0);  // Capped.

  // Fails twice, then succeeds: two backoffs land in SimCost.
  int calls = 0;
  RetryStats stats;
  double before = SimCost::TotalNs();
  Status s = RunWithRetry(
      policy,
      [&] {
        ++calls;
        return calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_DOUBLE_EQ(SimCost::TotalNs() - before, 3000.0);

  // Non-retryable errors surface immediately.
  calls = 0;
  Status hard = RunWithRetry(policy, [&] {
    ++calls;
    return Status::Internal("bug");
  });
  EXPECT_EQ(hard.code(), StatusCode::kInternal);
  EXPECT_EQ(calls, 1);

  // Exhaustion: max_attempts calls, no backoff after the last.
  calls = 0;
  RetryStats exhausted;
  before = SimCost::TotalNs();
  Status gone = RunWithRetry(
      policy, [&] {
        ++calls;
        return Status::Unavailable("down");
      },
      &exhausted);
  EXPECT_EQ(gone.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(exhausted.exhausted, 1u);
  EXPECT_DOUBLE_EQ(SimCost::TotalNs() - before, 1000.0 + 2000.0 + 3000.0);
}

TEST(WindowDedupTest, CompleteUpgradesPartialAndSuppressesDuplicates) {
  WindowDedup dedup;
  EXPECT_TRUE(dedup.Accept(0, 100, /*partial=*/true, "half"));
  EXPECT_TRUE(dedup.IsPartial(0, 100));
  EXPECT_FALSE(dedup.Accept(0, 100, /*partial=*/true, "half"));  // Duplicate.
  EXPECT_TRUE(dedup.Accept(0, 100, /*partial=*/false, "full"));  // Upgrade.
  EXPECT_FALSE(dedup.IsPartial(0, 100));
  EXPECT_FALSE(dedup.Accept(0, 100, /*partial=*/false, "full"));
  EXPECT_FALSE(dedup.Accept(0, 100, /*partial=*/true, "late-partial"));
  EXPECT_EQ(*dedup.Find(0, 100), "full");
  EXPECT_EQ(dedup.size(), 1u);
  EXPECT_EQ(dedup.duplicates_suppressed(), 3u);
  EXPECT_EQ(dedup.upgrades(), 1u);
}

TEST(WindowDedupTest, EmptyWindowResultsAreFirstClassEntries) {
  // An empty window result is still a result: its digest must be recorded,
  // deduped, and upgradable exactly like a non-empty one.
  const std::string empty_digest = ResultDigest(QueryResult{});
  WindowDedup dedup;
  EXPECT_TRUE(dedup.Accept(3, 500, /*partial=*/false, empty_digest));
  EXPECT_FALSE(dedup.Accept(3, 500, /*partial=*/false, empty_digest));
  ASSERT_NE(dedup.Find(3, 500), nullptr);
  EXPECT_EQ(*dedup.Find(3, 500), empty_digest);
  // A *partial* empty result on a later window upgrades to a complete
  // non-empty one — emptiness must not be confused with absence.
  EXPECT_TRUE(dedup.Accept(3, 600, /*partial=*/true, empty_digest));
  EXPECT_TRUE(dedup.IsPartial(3, 600));
  EXPECT_TRUE(dedup.Accept(3, 600, /*partial=*/false, "rows"));
  EXPECT_EQ(*dedup.Find(3, 600), "rows");
  EXPECT_EQ(dedup.size(), 2u);
  EXPECT_EQ(dedup.upgrades(), 1u);
}

TEST(WindowDedupTest, RepeatedRecoveriesUpgradeAtMostOncePerWindow) {
  // At-least-once delivery means every recovery replays the window stream.
  // Simulate three recovery cycles, each re-delivering a partial result and
  // then the complete one: the complete result must win exactly once and
  // every replay after that must be suppressed without downgrading.
  WindowDedup dedup;
  EXPECT_TRUE(dedup.Accept(1, 100, /*partial=*/true, "degraded"));
  size_t accepted = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    if (dedup.Accept(1, 100, /*partial=*/true, "degraded")) {
      ++accepted;
    }
    if (dedup.Accept(1, 100, /*partial=*/false, "complete")) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 1u);  // The first complete delivery, nothing else.
  EXPECT_EQ(dedup.upgrades(), 1u);
  EXPECT_FALSE(dedup.IsPartial(1, 100));
  EXPECT_EQ(*dedup.Find(1, 100), "complete");
  EXPECT_EQ(dedup.duplicates_suppressed(), 5u);
  // Windows and queries stay independent across the replays.
  EXPECT_TRUE(dedup.Accept(1, 200, /*partial=*/true, "next-window"));
  EXPECT_TRUE(dedup.Accept(2, 100, /*partial=*/false, "other-query"));
  EXPECT_EQ(dedup.size(), 3u);
}

TEST(FaultFabricTest, DownNodeFailsVerbsWithoutWireCharge) {
  Fabric fabric(2, NetworkModel{}, Transport::kRdma);
  EXPECT_TRUE(fabric.TryOneSidedRead(0, 1, 64).ok());
  fabric.SetNodeUp(1, false);
  double before = SimCost::TotalNs();
  Status s = fabric.TryOneSidedRead(0, 1, 64);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(SimCost::TotalNs(), before);  // Fails fast, no wire time.
  EXPECT_EQ(fabric.up_count(), 1u);
  EXPECT_TRUE(fabric.AnyNodeDown());
  fabric.SetNodeUp(1, true);
  EXPECT_TRUE(fabric.TryMessage(0, 1, 64).ok());
}

TEST(FaultFabricTest, CannotCrashLastNode) {
  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config);
  EXPECT_TRUE(cluster.CrashNode(0).ok());
  Status s = cluster.CrashNode(1);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.CrashNode(0).code(), StatusCode::kFailedPrecondition);
}

// Restoring a node that was never taken through CrashNode is a caller bug:
// its volatile state was never reset and the coordinator never forgot its
// progress, so the restore invariants are meaningless. It must surface as
// InvalidArgument, not a silent success.
TEST(FaultRestoreGateTest, FinishRestoreRejectsNodesNeverCrashMarked) {
  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config);

  EXPECT_EQ(cluster.FinishNodeRestore(99).code(), StatusCode::kNotFound);
  // A live node is not restorable at all.
  EXPECT_EQ(cluster.FinishNodeRestore(0).code(),
            StatusCode::kFailedPrecondition);

  // Down via direct fabric manipulation, bypassing CrashNode: rejected.
  cluster.fabric()->SetNodeUp(1, false);
  EXPECT_EQ(cluster.FinishNodeRestore(1).code(), StatusCode::kInvalidArgument);
  cluster.fabric()->SetNodeUp(1, true);

  // The sanctioned path: CrashNode marks, FinishNodeRestore re-admits
  // (nothing was ever delivered, so there is no VTS lag to close).
  ASSERT_TRUE(cluster.CrashNode(1).ok());
  EXPECT_FALSE(cluster.NodeUp(1));
  ASSERT_TRUE(cluster.FinishNodeRestore(1).ok());
  EXPECT_TRUE(cluster.NodeUp(1));
  // Re-admission consumed the crash mark: a second restore is "already live".
  EXPECT_EQ(cluster.FinishNodeRestore(1).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace wukongs
