// Concurrency tests: queries run while streams inject (the paper's whole
// premise — §6.9 measures exactly this co-existence). One thread feeds, many
// threads execute continuous and one-shot queries; results must stay
// consistent: snapshot reads are prefixes, window results at a ready end are
// stable, and nothing crashes or tears.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"

namespace wukongs {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.nodes = 2;
    config.batch_interval_ms = 10;  // Small batches -> many injections.
    cluster_ = std::make_unique<Cluster>(config);
    stream_ = *cluster_->DefineStream("S", {"ga"});
    StringServer* s = cluster_->strings();
    po_ = s->InternPredicate("po");
    // Pre-intern every string the feeder will use, so worker threads never
    // race the feeder inside the string server's insert path with the
    // cluster lock-free read path (interning itself is thread-safe; this
    // just makes IDs deterministic).
    users_.reserve(16);
    for (int u = 0; u < 16; ++u) {
      users_.push_back(s->InternVertex("user" + std::to_string(u)));
    }
    posts_.reserve(kTotalPosts);
    for (size_t p = 0; p < kTotalPosts; ++p) {
      posts_.push_back(s->InternVertex("post" + std::to_string(p)));
    }
    TripleVec base;
    PredicateId fo = s->InternPredicate("fo");
    for (int u = 0; u < 16; ++u) {
      base.push_back({users_[static_cast<size_t>(u)], fo,
                      users_[static_cast<size_t>((u + 1) % 16)]});
    }
    cluster_->LoadBase(base);
  }

  static constexpr size_t kTotalPosts = 3000;

  std::unique_ptr<Cluster> cluster_;
  StreamId stream_ = 0;
  PredicateId po_ = 0;
  std::vector<VertexId> users_;
  std::vector<VertexId> posts_;
};

TEST_F(ConcurrencyTest, QueriesRunSafelyDuringInjection) {
  auto handle = cluster_->RegisterContinuous(R"(
      REGISTER QUERY q AS
      SELECT ?U ?P
      FROM STREAM <S> [RANGE 100ms STEP 10ms]
      WHERE { GRAPH <S> { ?U po ?P } })");
  ASSERT_TRUE(handle.ok());

  std::atomic<StreamTime> fed_to{0};
  std::atomic<bool> failed{false};

  std::thread feeder([&] {
    StreamTupleVec tuples;
    for (size_t p = 0; p < kTotalPosts; ++p) {
      tuples.push_back(StreamTuple{{users_[p % users_.size()], po_, posts_[p]},
                                   static_cast<StreamTime>(p),
                                   TupleKind::kTimeless});
    }
    // Feed in small chunks, advancing time as we go.
    for (size_t start = 0; start < kTotalPosts; start += 100) {
      size_t end = std::min(start + 100, kTotalPosts);
      StreamTupleVec chunk(tuples.begin() + static_cast<long>(start),
                           tuples.begin() + static_cast<long>(end));
      if (!cluster_->FeedStream(stream_, chunk).ok()) {
        failed.store(true);
        return;
      }
      cluster_->AdvanceStreams(end);
      fed_to.store(end, std::memory_order_release);
    }
  });

  std::vector<std::thread> workers;
  std::atomic<size_t> executed{0};
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      size_t last_oneshot_count = 0;
      // At least one iteration even if the feeder wins the race and finishes
      // first — otherwise `executed` can legitimately end up 0.
      bool first = true;
      while (std::exchange(first, false) ||
             fed_to.load(std::memory_order_acquire) < kTotalPosts) {
        StreamTime safe_end = fed_to.load(std::memory_order_acquire);
        safe_end -= safe_end % 10;
        if (safe_end >= 200) {
          // Continuous execution on a window that is certainly ready.
          auto exec = cluster_->ExecuteContinuousAt(*handle, safe_end);
          if (!exec.ok()) {
            failed.store(true);
            return;
          }
          // A full 100ms window over a 1-post-per-ms stream must contain
          // exactly 100 posts (batches are dense and complete).
          if (exec->result.rows.size() != 100) {
            ADD_FAILURE() << "window at " << safe_end << " had "
                          << exec->result.rows.size() << " rows (worker " << w
                          << ")";
            failed.store(true);
            return;
          }
        }
        // One-shot: absorbed posts grow monotonically across snapshots.
        auto oneshot = cluster_->OneShot("SELECT COUNT(?P) WHERE { ?U po ?P }");
        if (!oneshot.ok()) {
          failed.store(true);
          return;
        }
        size_t count = oneshot->result.rows.empty()
                           ? 0
                           : static_cast<size_t>(oneshot->result.rows[0][0].number);
        if (count < last_oneshot_count) {
          ADD_FAILURE() << "snapshot count regressed: " << count << " < "
                        << last_oneshot_count;
          failed.store(true);
          return;
        }
        last_oneshot_count = count;
        executed.fetch_add(1);
      }
    });
  }

  feeder.join();
  for (auto& t : workers) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  EXPECT_GT(executed.load(), 0u);

  // Quiesced: the final snapshot sees every timeless post.
  auto final_count = cluster_->OneShot("SELECT COUNT(?P) WHERE { ?U po ?P }");
  ASSERT_TRUE(final_count.ok());
  EXPECT_DOUBLE_EQ(final_count->result.rows[0][0].number,
                   static_cast<double>(kTotalPosts));
}

TEST_F(ConcurrencyTest, MaintenanceRunsSafelyDuringQueries) {
  auto handle = cluster_->RegisterContinuous(R"(
      REGISTER QUERY q AS
      SELECT ?U ?P
      FROM STREAM <S> [RANGE 50ms STEP 10ms]
      WHERE { GRAPH <S> { ?U po ?P } })");
  ASSERT_TRUE(handle.ok());

  StreamTupleVec tuples;
  for (size_t p = 0; p < 2000; ++p) {
    tuples.push_back(StreamTuple{{users_[p % users_.size()], po_, posts_[p]},
                                 static_cast<StreamTime>(p),
                                 TupleKind::kTimeless});
  }
  ASSERT_TRUE(cluster_->FeedStream(stream_, tuples).ok());
  cluster_->AdvanceStreams(2000);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread maintenance([&] {
    while (!stop.load()) {
      cluster_->RunMaintenance(/*live_horizon_ms=*/1500);
    }
  });
  // Queries over live (non-GC'd) windows keep working during maintenance.
  for (int i = 0; i < 200; ++i) {
    auto exec = cluster_->ExecuteContinuousAt(*handle, 2000);
    if (!exec.ok() || exec->result.rows.size() != 50) {
      failed.store(true);
      break;
    }
  }
  stop.store(true);
  maintenance.join();
  EXPECT_FALSE(failed.load());
}

// Degraded executions on worker threads: every one-shot whose home node has
// crashed reroutes to a survivor, and the reroute/degraded counters are
// bumped concurrently from all of them. Each increment must land exactly
// once (no torn or lost updates), and a reader may take the stats view while
// the workers run.
TEST_F(ConcurrencyTest, RerouteCountIsExactUnderConcurrentOneShots) {
  ASSERT_TRUE(cluster_->CrashNode(1).ok());
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!done.load()) {
      uint64_t now = cluster_->fault_stats().reroutes;
      if (now < last) {
        failed.store(true);
      }
      last = now;
    }
  });
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto exec = cluster_->OneShot("SELECT ?U ?V WHERE { ?U fo ?V }",
                                      /*home=*/1);
        if (!exec.ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  done.store(true);
  reader.join();
  ASSERT_FALSE(failed.load());
  const Cluster::FaultStats stats = cluster_->fault_stats();
  EXPECT_EQ(stats.reroutes,
            static_cast<uint64_t>(kThreads) * kQueriesPerThread);
  EXPECT_EQ(stats.crashes, 1u);
}

}  // namespace
}  // namespace wukongs
