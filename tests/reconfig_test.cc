// Online elastic reconfiguration tests (DESIGN.md §5.10).
//
// The acceptance property: a live shard handoff — Begin, base copy,
// checkpoint-log replay, dual-apply of in-flight batches, epoch-bump cutover
// — produces byte-identical continuous-query results vs a reconfiguration-
// free golden run, for every window before, during and after the move; an
// aborted or crashed migration rolls back without losing or duplicating a
// single result.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/reconfig.h"
#include "src/fault/recovery_manager.h"
#include "src/stream/checkpoint.h"

namespace wukongs {
namespace {

constexpr StreamTime kEndMs = 2000;
constexpr StreamTime kStepMs = 100;
constexpr StreamTime kFirstWindowMs = 500;
constexpr int kUsers = 24;

const char* kMoveQuery = R"(
    REGISTER QUERY QMove AS
    SELECT ?X ?Y
    FROM STREAM <S> [RANGE 500ms STEP 100ms]
    WHERE { GRAPH <S> { ?X po ?Y } })";

// --- ShardMap unit surface. ---

TEST(ReconfigShardMapTest, IdentityViewMatchesLegacyHashPartitioning) {
  ShardMap map(3);
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_EQ(map.shard_count(), 3 * kShardsPerNode);
  EXPECT_EQ(map.node_count(), 3u);
  auto view = map.View();
  ASSERT_NE(view, nullptr);
  EXPECT_TRUE(view->identity);
  for (VertexId v = 1; v <= 500; ++v) {
    // assign[shard] = shard % nodes makes the two-level map bit-identical to
    // the seed's one-level hash partitioning.
    EXPECT_EQ(view->OwnerOfV(v), OwnerOfVertex(v, 3));
    EXPECT_EQ(map.OwnerOfShard(view->ShardOfVertex(v)), OwnerOfVertex(v, 3));
  }
}

TEST(ReconfigShardMapTest, MarkDirtyForcesFilteringWithoutEpochBump) {
  ShardMap map(3);
  map.MarkDirty();
  auto view = map.View();
  EXPECT_FALSE(view->identity);
  EXPECT_EQ(map.epoch(), 0u);  // Dirty is not a cutover.
  for (VertexId v = 1; v <= 200; ++v) {
    EXPECT_EQ(view->OwnerOfV(v), OwnerOfVertex(v, 3));
  }
  map.MarkDirty();
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_FALSE(map.View()->identity);
}

TEST(ReconfigShardMapTest, CommitMoveBumpsEpochAndOldViewsStayImmutable) {
  ShardMap map(3);
  auto before = map.View();
  const uint32_t shard = 7;
  NodeId old_owner = map.OwnerOfShard(shard);
  NodeId target = (old_owner + 1) % 3;
  ASSERT_TRUE(map.CommitMove(shard, target).ok());
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.OwnerOfShard(shard), target);

  VertexId probe = 0;
  for (VertexId v = 1; v < 5000; ++v) {
    if (before->ShardOfVertex(v) == shard) {
      probe = v;
      break;
    }
  }
  ASSERT_NE(probe, 0u);
  auto after = map.View();
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_FALSE(after->identity);
  EXPECT_EQ(after->OwnerOfV(probe), target);
  // The pre-commit snapshot keeps routing to the old owner: executions
  // admitted under epoch 0 are not redirected mid-flight.
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_EQ(before->OwnerOfV(probe), old_owner);
}

TEST(ReconfigShardMapTest, AddNodeGrowsMembershipWithoutOwningShards) {
  ShardMap map(2);
  EXPECT_EQ(map.shard_count(), 2 * kShardsPerNode);
  NodeId added = map.AddNode();
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(map.node_count(), 3u);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_TRUE(map.ShardsOwnedBy(added).empty());
  // The vertex -> shard hash is fixed at construction; membership growth
  // never reshuffles it.
  EXPECT_EQ(map.shard_count(), 2 * kShardsPerNode);
}

// --- Live-cluster integration surface. ---

class ReconfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wukongs_reconfig_" + std::to_string(::getpid()) + "_" +
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

  // Tuples of [from, to): a post edge every 5 ms plus a timing reading every
  // 20 ms, so every migration moves both timeless and timing window data.
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

  // Reconfiguration-free reference: every window's canonical digest.
  std::map<StreamTime, std::string> GoldenDigests(StringServer* strings,
                                                  uint32_t nodes) {
    ClusterConfig config;
    config.nodes = nodes;
    Cluster cluster(config, strings);
    StreamId stream = *cluster.DefineStream("S", {"ga"});
    cluster.LoadBase(BaseTriples(strings));
    auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
    EXPECT_TRUE(h.ok());
    std::map<StreamTime, std::string> golden;
    for (StreamTime t = kStepMs; t <= kEndMs; t += kStepMs) {
      EXPECT_TRUE(
          cluster.FeedStream(stream, IntervalTuples(strings, t - kStepMs, t)).ok());
      cluster.AdvanceStreams(t);
      if (t < kFirstWindowMs) {
        continue;
      }
      auto exec = cluster.ExecuteContinuousAt(*h, t);
      EXPECT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_FALSE(exec->partial);
      golden[t] = ResultDigest(exec->result);
    }
    EXPECT_FALSE(golden.empty());
    return golden;
  }

  // Feeds intervals (from, to] and checks every ready window against the
  // golden digests and the expected ownership epoch.
  void FeedAndCheck(Cluster* c, StringServer* strings, StreamId stream,
                    uint64_t h, StreamTime from_exclusive, StreamTime to,
                    const std::map<StreamTime, std::string>& golden,
                    uint64_t want_epoch) {
    for (StreamTime t = from_exclusive + kStepMs; t <= to; t += kStepMs) {
      ASSERT_TRUE(
          c->FeedStream(stream, IntervalTuples(strings, t - kStepMs, t)).ok());
      c->AdvanceStreams(t);
      if (t < kFirstWindowMs) {
        continue;
      }
      ASSERT_TRUE(c->WindowReady(h, t));
      auto exec = c->ExecuteContinuousAt(h, t);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_FALSE(exec->partial) << "window " << t;
      EXPECT_EQ(exec->ownership_epoch, want_epoch) << "window " << t;
      ASSERT_EQ(golden.count(t), 1u) << "window " << t;
      EXPECT_EQ(ResultDigest(exec->result), golden.at(t)) << "window " << t;
    }
  }

  // Replays the whole checkpoint log into the pending shard transfer.
  void ReplayLogForShard(Cluster* c, const std::string& log_path) {
    auto batches = ReadCheckpointLog(log_path);
    ASSERT_TRUE(batches.ok()) << batches.status().ToString();
    for (const StreamBatch& b : *batches) {
      ASSERT_TRUE(c->ReplayBatchForShard(b).ok());
    }
  }

  std::filesystem::path dir_;
};

// The tentpole property end to end, driven step by step: a shard moves while
// the stream keeps flowing and windows keep firing. Every window digest —
// before Begin, during the transfer (dual-apply era), and after the cutover —
// matches the golden run, and the epoch of each execution records which map
// it was admitted under.
TEST_F(ReconfigTest, LiveMoveShardPreservesEveryWindowResult) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  // Phase 1: steady state under the identity map.
  FeedAndCheck(&cluster, &strings, stream, *h, 0, 800, golden, /*epoch=*/0);

  // Pin the migration: user5's shard moves off its hash-assigned owner.
  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user5"));
  NodeId source = cluster.ShardOwner(shard);
  NodeId target = (source + 1) % 3;
  ASSERT_TRUE(cluster.BeginShardMove(shard, target).ok());
  EXPECT_TRUE(cluster.MigrationPending());
  EXPECT_EQ(cluster.OwnershipEpoch(), 0u);  // Begin is not a cutover.
  ASSERT_TRUE(cluster.LoadBaseForShard(base).ok());

  // Phase 2: the stream keeps flowing mid-transfer. New batches dual-apply
  // to the target; executions still route by epoch 0 and read the source.
  FeedAndCheck(&cluster, &strings, stream, *h, 800, 1400, golden, /*epoch=*/0);
  EXPECT_GT(cluster.reconfig_stats().dual_applied_edges, 0u);

  // Replay the pre-Begin history into the target, then cut over.
  ASSERT_TRUE(log->Sync().ok());
  ReplayLogForShard(&cluster, Path("batches.log"));
  EXPECT_GT(cluster.reconfig_stats().batches_replayed, 0u);
  ASSERT_TRUE(cluster.FinishShardTransfer().ok());
  EXPECT_FALSE(cluster.MigrationPending());
  EXPECT_EQ(cluster.OwnershipEpoch(), 1u);
  EXPECT_EQ(cluster.ShardOwner(shard), target);
  EXPECT_EQ(cluster.reconfig_stats().moves_committed, 1u);
  EXPECT_EQ(cluster.reconfig_stats().moves_aborted, 0u);
  // Base copy + history replay, accounted at commit.
  EXPECT_GT(cluster.reconfig_stats().edges_copied, 0u);

  // Phase 3: post-cutover windows route by epoch 1 and stay byte-identical.
  FeedAndCheck(&cluster, &strings, stream, *h, 1400, kEndMs, golden, /*epoch=*/1);

  // The stored-graph base partition moved with the shard: a one-shot over
  // base edges still sees every fo edge exactly once.
  auto oneshot = cluster.OneShot("SELECT ?X ?Y WHERE { ?X fo ?Y }");
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  EXPECT_EQ(oneshot->result.rows.size(), static_cast<size_t>(kUsers));
}

// Regression: a shard moving *back* to a former owner. The source keeps its
// copy at cutover (reclamation is deferred), so without the Begin-time purge
// the return transfer would duplicate every edge of the shard — windows and
// one-shots would double-count. The purge must scrub the persistent store,
// the stream indexes, and the transient slices of the stale holder.
TEST_F(ReconfigTest, MoveShardBackToFormerOwnerDoesNotDuplicate) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 800, golden, /*epoch=*/0);
  ASSERT_TRUE(log->Sync().ok());

  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user5"));
  NodeId source = cluster.ShardOwner(shard);
  NodeId target = (source + 1) % 3;
  ReconfigManager mgr(Path("batches.log"));
  auto out = mgr.MoveShard(&cluster, shard, target, base);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(cluster.ShardOwner(shard), target);

  FeedAndCheck(&cluster, &strings, stream, *h, 800, 1400, golden, /*epoch=*/1);

  // Return trip: the original owner still holds its tenure-one copy, which
  // Begin must purge before rebuilding.
  ASSERT_TRUE(log->Sync().ok());
  auto back = mgr.MoveShard(&cluster, shard, source, base);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(cluster.ShardOwner(shard), source);
  EXPECT_EQ(cluster.OwnershipEpoch(), 2u);
  EXPECT_GT(cluster.reconfig_stats().stale_edges_purged, 0u);

  // Windows after the round trip stay byte-identical to the golden run, and
  // base edges are still seen exactly once — no duplicated shard data.
  FeedAndCheck(&cluster, &strings, stream, *h, 1400, kEndMs, golden, /*epoch=*/2);
  auto oneshot = cluster.OneShot("SELECT ?X ?Y WHERE { ?X fo ?Y }");
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  EXPECT_EQ(oneshot->result.rows.size(), static_cast<size_t>(kUsers));
}

// The same handoff through the ReconfigManager driver: one call does
// Begin + base copy + log replay + finish, committing immediately when the
// cluster is healthy and the stable frontier covers everything delivered.
TEST_F(ReconfigTest, ReconfigManagerMoveShardCommitsEndToEnd) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 1000, golden, /*epoch=*/0);
  ASSERT_TRUE(log->Sync().ok());

  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user7"));
  NodeId source = cluster.ShardOwner(shard);
  NodeId target = (source + 1) % 3;
  ReconfigManager mgr(Path("batches.log"));
  auto report = mgr.MoveShard(&cluster, shard, target, base);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->commit_pending);
  ASSERT_EQ(report->shards_moved.size(), 1u);
  EXPECT_EQ(report->shards_moved[0], shard);
  EXPECT_GT(report->batches_replayed, 0u);
  EXPECT_GT(report->edges_copied, 0u);
  EXPECT_EQ(cluster.ShardOwner(shard), target);
  EXPECT_EQ(cluster.OwnershipEpoch(), 1u);
  EXPECT_FALSE(cluster.MigrationPending());

  FeedAndCheck(&cluster, &strings, stream, *h, 1000, kEndMs, golden, /*epoch=*/1);
}

// Explicit abort: the epoch never moves, the partial target copy stays
// invisible behind ownership filtering, and the (shard, target) pair is
// tainted against a duplicating re-replay — while another target stays fine.
TEST_F(ReconfigTest, ExplicitAbortRollsBackAndTaintsTargetPair) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 800, golden, /*epoch=*/0);

  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user5"));
  NodeId source = cluster.ShardOwner(shard);
  NodeId target = (source + 1) % 3;
  NodeId other = (source + 2) % 3;
  ASSERT_TRUE(cluster.BeginShardMove(shard, target).ok());
  ASSERT_TRUE(cluster.LoadBaseForShard(base).ok());
  // Let dual-apply land some live batches on the target before aborting.
  FeedAndCheck(&cluster, &strings, stream, *h, 800, 1000, golden, /*epoch=*/0);

  ASSERT_TRUE(cluster.AbortShardMove("operator abort").ok());
  EXPECT_FALSE(cluster.MigrationPending());
  EXPECT_EQ(cluster.OwnershipEpoch(), 0u);
  EXPECT_EQ(cluster.ShardOwner(shard), source);
  EXPECT_EQ(cluster.reconfig_stats().moves_aborted, 1u);

  // The stranded copy poisons this (shard, target) pair only.
  EXPECT_EQ(cluster.BeginShardMove(shard, target).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.BeginShardMove(shard, other).ok());
  ASSERT_TRUE(cluster.AbortShardMove("cleanup").ok());
  EXPECT_EQ(cluster.reconfig_stats().moves_aborted, 2u);

  // Stranded copies on two nodes, and every window still byte-identical.
  FeedAndCheck(&cluster, &strings, stream, *h, 1000, kEndMs, golden, /*epoch=*/0);
}

// A crash of the migration target mid-transfer rolls back without a cutover;
// crashing wipes the target's stores, so its taints clear and the *same*
// (shard, target) pair can retry after restore — and then commits cleanly.
TEST_F(ReconfigTest, TargetCrashClearsTaintAndAllowsRetry) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 800, golden, /*epoch=*/0);

  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user5"));
  NodeId source = cluster.ShardOwner(shard);
  NodeId target = (source + 1) % 3;
  ASSERT_TRUE(cluster.BeginShardMove(shard, target).ok());
  ASSERT_TRUE(cluster.LoadBaseForShard(base).ok());
  FeedAndCheck(&cluster, &strings, stream, *h, 800, 1000, golden, /*epoch=*/0);

  ASSERT_TRUE(cluster.CrashNode(target).ok());
  EXPECT_FALSE(cluster.MigrationPending());
  EXPECT_EQ(cluster.OwnershipEpoch(), 0u);
  EXPECT_EQ(cluster.reconfig_stats().moves_aborted, 1u);

  // Warm repair of the crashed target from the synced log.
  ASSERT_TRUE(log->Sync().ok());
  RecoveryManager manager(Path("batches.log"));
  auto restore = manager.RestoreNode(&cluster, target, base, nullptr);
  ASSERT_TRUE(restore.ok()) << restore.status().ToString();
  EXPECT_TRUE(cluster.NodeUp(target));

  // The crash reset the target's stores, so the stranded partial copy died
  // with it: the same pair is allowed again and the move completes.
  ASSERT_TRUE(cluster.BeginShardMove(shard, target).ok());
  ASSERT_TRUE(cluster.LoadBaseForShard(base).ok());
  ASSERT_TRUE(log->Sync().ok());
  ReplayLogForShard(&cluster, Path("batches.log"));
  ASSERT_TRUE(cluster.FinishShardTransfer().ok());
  EXPECT_FALSE(cluster.MigrationPending());
  EXPECT_EQ(cluster.OwnershipEpoch(), 1u);
  EXPECT_EQ(cluster.ShardOwner(shard), target);
  EXPECT_EQ(cluster.reconfig_stats().moves_committed, 1u);

  FeedAndCheck(&cluster, &strings, stream, *h, 1000, kEndMs, golden, /*epoch=*/1);
}

// Elastic scale-out: AddNode grows membership (VTS seeded at the delivered
// frontier, owning nothing), then a live move lands the first shard on it.
TEST_F(ReconfigTest, AddNodeThenMoveShardOntoIt) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 2);

  ClusterConfig config;
  config.nodes = 2;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 1000, golden, /*epoch=*/0);

  auto added = cluster.AddNode();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 2u);
  EXPECT_EQ(cluster.node_count(), 3u);
  EXPECT_EQ(cluster.OwnershipEpoch(), 1u);
  EXPECT_TRUE(cluster.ShardsOwnedBy(*added).empty());
  EXPECT_EQ(cluster.ShardCount(), 2 * kShardsPerNode);
  EXPECT_EQ(cluster.reconfig_stats().nodes_added, 1u);

  // The empty member's seeded VTS must not stall the stable frontier.
  FeedAndCheck(&cluster, &strings, stream, *h, 1000, 1200, golden, /*epoch=*/1);

  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user3"));
  ASSERT_TRUE(cluster.BeginShardMove(shard, *added).ok());
  // Membership changes are serialized against in-flight migrations.
  EXPECT_EQ(cluster.AddNode().status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.LoadBaseForShard(base).ok());
  ASSERT_TRUE(log->Sync().ok());
  ReplayLogForShard(&cluster, Path("batches.log"));
  ASSERT_TRUE(cluster.FinishShardTransfer().ok());
  EXPECT_EQ(cluster.ShardOwner(shard), *added);
  EXPECT_EQ(cluster.ShardsOwnedBy(*added).size(), 1u);
  EXPECT_EQ(cluster.OwnershipEpoch(), 2u);

  FeedAndCheck(&cluster, &strings, stream, *h, 1200, kEndMs, golden, /*epoch=*/2);
}

// Scale-in: DrainNode re-homes the node's registered queries, then moves all
// of its shards off, one live migration at a time.
TEST_F(ReconfigTest, DrainNodeEmptiesOwnershipAndRehomesQueries) {
  StringServer strings;
  auto golden = GoldenDigests(&strings, 3);

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  // Registered on the node being drained: must be re-homed, not lost.
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/2);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  FeedAndCheck(&cluster, &strings, stream, *h, 0, 1000, golden, /*epoch=*/0);
  ASSERT_TRUE(log->Sync().ok());

  ReconfigManager mgr(Path("batches.log"));
  StreamTime t = 1000;
  auto report = mgr.DrainNode(&cluster, 2, base);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // A deferred commit pauses the drain; feed more batches (advancing the
  // stable frontier) and resume. Healthy clusters finish in one call.
  int rounds = 0;
  while (report->shards_remaining > 0 || report->commit_pending) {
    ASSERT_LT(++rounds, 20) << "drain did not converge";
    t += kStepMs;
    ASSERT_TRUE(
        cluster.FeedStream(stream, IntervalTuples(&strings, t - kStepMs, t)).ok());
    cluster.AdvanceStreams(t);
    ASSERT_TRUE(log->Sync().ok());
    report = mgr.DrainNode(&cluster, 2, base);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  EXPECT_TRUE(cluster.ShardsOwnedBy(2).empty());
  EXPECT_TRUE(cluster.IsDraining(2));
  EXPECT_EQ(cluster.reconfig_stats().drains_started, 1u);
  EXPECT_GE(cluster.reconfig_stats().rehomed_registrations, 1u);
  EXPECT_EQ(cluster.reconfig_stats().moves_committed,
            static_cast<uint64_t>(kShardsPerNode));
  EXPECT_EQ(cluster.OwnershipEpoch(), static_cast<uint64_t>(kShardsPerNode));

  FeedAndCheck(&cluster, &strings, stream, *h, t, kEndMs, golden,
               cluster.OwnershipEpoch());
}

// Satellite: at-least-once delivery means a window can fire on both sides of
// a cutover. The source-epoch and target-epoch executions must be
// byte-identical, and client-side WindowDedup collapses the duplicate.
TEST_F(ReconfigTest, DuplicateTriggersAcrossOwnershipChangeCollapse) {
  StringServer strings;

  ClusterConfig config;
  config.nodes = 3;
  Cluster cluster(config, &strings);
  StreamId stream = *cluster.DefineStream("S", {"ga"});
  auto base = BaseTriples(&strings);
  cluster.LoadBase(base);
  auto h = cluster.RegisterContinuous(kMoveQuery, /*home=*/0);
  ASSERT_TRUE(h.ok());

  auto log = CheckpointLog::Create(Path("batches.log"));
  ASSERT_TRUE(log.ok());
  cluster.SetBatchLogger(
      [&](const StreamBatch& b) { ASSERT_TRUE(log->Append(b).ok()); });

  for (StreamTime t = kStepMs; t <= 1000; t += kStepMs) {
    ASSERT_TRUE(
        cluster.FeedStream(stream, IntervalTuples(&strings, t - kStepMs, t)).ok());
    cluster.AdvanceStreams(t);
  }

  WindowDedup dedup;
  auto first = cluster.ExecuteContinuousAt(*h, 1000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->ownership_epoch, 0u);
  std::string d0 = ResultDigest(first->result);
  EXPECT_TRUE(dedup.Accept(*h, 1000, first->partial, d0));

  ASSERT_TRUE(log->Sync().ok());
  uint32_t shard = cluster.ShardOfVertexId(strings.InternVertex("user5"));
  NodeId target = (cluster.ShardOwner(shard) + 1) % 3;
  ReconfigManager mgr(Path("batches.log"));
  auto report = mgr.MoveShard(&cluster, shard, target, base);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(cluster.OwnershipEpoch(), 1u);

  // Same window re-fires under the new epoch, now served by the target.
  auto second = cluster.ExecuteContinuousAt(*h, 1000);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->ownership_epoch, 1u);
  EXPECT_EQ(ResultDigest(second->result), d0);
  EXPECT_FALSE(dedup.Accept(*h, 1000, second->partial, ResultDigest(second->result)));
  EXPECT_EQ(dedup.duplicates_suppressed(), 1u);
}

}  // namespace
}  // namespace wukongs
