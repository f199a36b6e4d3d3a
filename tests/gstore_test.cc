// Unit tests for the continuous persistent store: key/value layout, index
// vertices, snapshot-segmented values and bounded collapse (paper Fig. 6/11).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "src/store/gstore.h"

namespace wukongs {
namespace {

constexpr PredicateId kPo = 4;  // "post", matching paper Fig. 6 ids.
constexpr SnapshotNum kInf = GStore::kSnapshotInfinity;

TEST(GStoreTest, LoadAndLookupBothDirections) {
  GStore store(0);
  // Fig. 6: Logan(1) po(4) T-13(5), T-14(6).
  store.LoadTriple({1, kPo, 5});
  store.LoadTriple({1, kPo, 6});

  EXPECT_EQ(store.GetEdges(Key(1, kPo, Dir::kOut), kInf),
            (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(store.GetEdges(Key(5, kPo, Dir::kIn), kInf), (std::vector<VertexId>{1}));
}

TEST(GStoreTest, IndexVertexListsAllEndpoints) {
  GStore store(0);
  store.LoadTriple({1, kPo, 5});
  store.LoadTriple({2, kPo, 6});
  // [0|po|in]: vertices with an incoming po edge = posts (Fig. 6: 4,5,6...).
  EXPECT_EQ(store.GetEdges(Key(kIndexVertex, kPo, Dir::kIn), kInf),
            (std::vector<VertexId>{5, 6}));
  // [0|po|out]: vertices that posted.
  EXPECT_EQ(store.GetEdges(Key(kIndexVertex, kPo, Dir::kOut), kInf),
            (std::vector<VertexId>{1, 2}));
}

TEST(GStoreTest, IndexVertexNotDuplicated) {
  GStore store(0);
  store.LoadTriple({1, kPo, 5});
  store.LoadTriple({1, kPo, 6});  // Same subject posts again.
  EXPECT_EQ(store.GetEdges(Key(kIndexVertex, kPo, Dir::kOut), kInf),
            (std::vector<VertexId>{1}));
}

TEST(GStoreTest, MissingKeyIsEmpty) {
  GStore store(0);
  EXPECT_TRUE(store.GetEdges(Key(99, kPo, Dir::kOut), kInf).empty());
  EXPECT_EQ(store.EdgeCount(Key(99, kPo, Dir::kOut), kInf), 0u);
}

TEST(GStoreTest, HasEdge) {
  GStore store(0);
  store.LoadTriple({1, kPo, 5});
  EXPECT_TRUE(store.HasEdge(Key(1, kPo, Dir::kOut), 5, kInf));
  EXPECT_FALSE(store.HasEdge(Key(1, kPo, Dir::kOut), 6, kInf));
}

TEST(GStoreTest, SnapshotVisibility) {
  GStore store(0);
  store.LoadTriple({1, kPo, 5});  // Base.
  std::vector<AppendSpan> spans;
  store.InjectTriple({1, kPo, 7}, /*sn=*/1, &spans);
  store.InjectTriple({1, kPo, 8}, /*sn=*/2, &spans);

  Key k(1, kPo, Dir::kOut);
  // Snapshot 0 (base): only the loaded edge.
  EXPECT_EQ(store.GetEdges(k, 0), (std::vector<VertexId>{5}));
  // Snapshot 1: base + sn1.
  EXPECT_EQ(store.GetEdges(k, 1), (std::vector<VertexId>{5, 7}));
  // Snapshot 2 and beyond: everything.
  EXPECT_EQ(store.GetEdges(k, 2), (std::vector<VertexId>{5, 7, 8}));
  EXPECT_EQ(store.GetEdges(k, kInf), (std::vector<VertexId>{5, 7, 8}));
}

TEST(GStoreTest, SnapshotsConsecutiveInValue) {
  // All appends of one SN occupy one contiguous interval (§4.3: "all stream
  // batches with the same snapshot number are consecutively stored").
  GStore store(0);
  std::vector<AppendSpan> spans;
  store.InjectEdge(Key(1, kPo, Dir::kOut), 10, 1, &spans);
  store.InjectEdge(Key(1, kPo, Dir::kOut), 11, 1, &spans);
  store.InjectEdge(Key(1, kPo, Dir::kOut), 12, 2, &spans);
  EXPECT_EQ(store.GetEdges(Key(1, kPo, Dir::kOut), 1),
            (std::vector<VertexId>{10, 11}));
}

TEST(GStoreTest, InjectReportsSpans) {
  GStore store(0);
  std::vector<AppendSpan> spans;
  store.InjectTriple({1, kPo, 7}, 1, &spans);
  // Out edge, in edge, plus index appends for the new keys.
  ASSERT_GE(spans.size(), 2u);
  bool saw_out = false;
  bool saw_in = false;
  for (const AppendSpan& s : spans) {
    if (s.key == Key(1, kPo, Dir::kOut)) {
      saw_out = true;
      EXPECT_EQ(s.count, 1u);
    }
    if (s.key == Key(7, kPo, Dir::kIn)) {
      saw_in = true;
    }
  }
  EXPECT_TRUE(saw_out);
  EXPECT_TRUE(saw_in);
}

TEST(GStoreTest, InjectReportsIndexSpans) {
  GStore store(0);
  std::vector<AppendSpan> spans;
  store.InjectEdge(Key(1, kPo, Dir::kOut), 7, 1, &spans);
  bool saw_index = false;
  for (const AppendSpan& s : spans) {
    if (s.key == Key(kIndexVertex, kPo, Dir::kOut)) {
      saw_index = true;
    }
  }
  EXPECT_TRUE(saw_index);
}

TEST(GStoreTest, SpanReadsExactRange) {
  GStore store(0);
  std::vector<AppendSpan> spans;
  for (VertexId v = 10; v < 20; ++v) {
    store.InjectEdge(Key(1, kPo, Dir::kOut), v, 1, nullptr);
  }
  std::vector<VertexId> out;
  store.GetSpanInto(Key(1, kPo, Dir::kOut), 3, 4, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{13, 14, 15, 16}));
}

TEST(GStoreTest, SpanReadClampsToSize) {
  GStore store(0);
  store.InjectEdge(Key(1, kPo, Dir::kOut), 10, 1, nullptr);
  std::vector<VertexId> out;
  store.GetSpanInto(Key(1, kPo, Dir::kOut), 0, 100, &out);
  EXPECT_EQ(out, (std::vector<VertexId>{10}));
  out.clear();
  store.GetSpanInto(Key(1, kPo, Dir::kOut), 5, 2, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GStoreTest, CollapseBoundsMarkerCount) {
  GStore store(0);
  Key k(1, kPo, Dir::kOut);
  for (SnapshotNum sn = 1; sn <= 10; ++sn) {
    store.InjectEdge(k, 100 + sn, sn, nullptr);
  }
  // Ten markers on k plus one on its index key.
  size_t meta_before = store.SnapshotMetadataBytes();
  store.CollapseBelow(9);
  // The pass itself folds markers at or below the floor, with no touch:
  // only k's marker for snapshot 10 is left.
  size_t meta_after = store.SnapshotMetadataBytes();
  EXPECT_LT(meta_after, meta_before);
  EXPECT_EQ(meta_after * 11, meta_before);
  EXPECT_EQ(store.GetEdges(k, kInf).size(), 10u);
  // Reads at or above the floor still see everything folded into base.
  EXPECT_EQ(store.GetEdges(k, 9).size(), 9u);
  EXPECT_EQ(store.GetEdges(k, 10).size(), 10u);
  // Reads below the floor are forfeited (collapsed into base): by contract
  // the Coordinator never hands out SNs below the floor.
  EXPECT_EQ(store.GetEdges(k, 0).size(), 9u);
}

TEST(GStoreTest, CollapseVisitsOnlyMarkedKeys) {
  GStore store(0);
  for (VertexId v = 1; v <= 5000; ++v) {
    store.LoadTriple({v, kPo, 100000 + v});
  }
  ASSERT_GE(store.KeyCount(), 10000u);
  // Three new keys: one marker each, plus one on their shared index key.
  const std::vector<Key> injected = {Key(200001, kPo, Dir::kOut),
                                     Key(200002, kPo, Dir::kOut),
                                     Key(200003, kPo, Dir::kOut)};
  for (Key k : injected) {
    store.InjectEdge(k, 7, 1, nullptr);
  }
  const uint64_t before = store.CollapseKeysVisited();
  store.CollapseBelow(1);
  const uint64_t visited = store.CollapseKeysVisited() - before;
  EXPECT_GE(visited, injected.size());
  EXPECT_LE(visited, 2 * injected.size());  // The keys plus their index keys.
  EXPECT_EQ(store.SnapshotMetadataBytes(), 0u);
  for (Key k : injected) {
    EXPECT_EQ(store.GetEdges(k, 1), (std::vector<VertexId>{7}));
  }
  // Every folded key left the list: the next pass visits nothing.
  store.CollapseBelow(2);
  EXPECT_EQ(store.CollapseKeysVisited() - before, visited);
}

TEST(GStoreTest, CountersTrackLoadAndInjection) {
  GStore store(0);
  store.LoadTriple({1, kPo, 5});
  EXPECT_EQ(store.StreamAppendedEdges(), 0u);
  store.InjectTriple({1, kPo, 7}, 1, nullptr);
  EXPECT_EQ(store.StreamAppendedEdges(), 2u);
  EXPECT_GT(store.EdgeCountTotal(), 2u);  // Includes index edges.
  EXPECT_GT(store.KeyCount(), 0u);
  EXPECT_GT(store.MemoryBytes(), 0u);
}

TEST(GStoreTest, ConcurrentReadersDuringInjection) {
  GStore store(0);
  Key k(1, kPo, Dir::kOut);
  store.InjectEdge(k, 1, 1, nullptr);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<VertexId> out;
    while (!stop.load()) {
      store.GetEdgesInto(k, kInf, &out);
      ASSERT_FALSE(out.empty());
      // Values are appended in order starting from 1.
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], i + 1);
      }
    }
  });
  for (VertexId v = 2; v <= 2000; ++v) {
    store.InjectEdge(k, v, 1, nullptr);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(store.GetEdges(k, kInf).size(), 2000u);
}

// One thread injects on a rising snapshot while another collapses with a
// floor that trails it and reads at or above that floor. Snapshot sn appends
// to two of kKeys keys; `done` publishes the last snapshot fully appended,
// and the injector waits for a collapse round every 8 snapshots so the two
// threads interleave.
TEST(GStoreTest, CollapseTrailingInjectionMatchesReplay) {
  constexpr SnapshotNum kLastSn = 1500;
  constexpr VertexId kKeys = 16;
  auto appends_of = [](SnapshotNum sn) {
    return std::array<std::pair<Key, VertexId>, 2>{
        std::pair{Key(1 + sn % kKeys, kPo, Dir::kOut), 2 * sn},
        std::pair{Key(1 + (7 * sn + 3) % kKeys, kPo, Dir::kOut), 2 * sn + 1}};
  };
  GStore store(0);
  GStore replay(0);
  std::vector<std::vector<std::pair<SnapshotNum, VertexId>>> log(kKeys + 1);
  for (SnapshotNum sn = 1; sn <= kLastSn; ++sn) {
    for (const auto& [key, value] : appends_of(sn)) {
      replay.InjectEdge(key, value, sn, nullptr);
      log[key.vid()].emplace_back(sn, value);
    }
  }

  std::atomic<SnapshotNum> done{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> rounds{0};
  std::thread collapser([&] {
    std::vector<VertexId> got;
    std::vector<VertexId> want;
    uint64_t step = 0;
    while (done.load(std::memory_order_acquire) < kLastSn) {
      const SnapshotNum d = done.load(std::memory_order_acquire);
      if (d < 3) {
        continue;
      }
      const SnapshotNum floor = d - 2;
      store.CollapseBelow(floor);
      const SnapshotNum sn = floor + step % 3;
      const VertexId vid = 1 + step % kKeys;
      ++step;
      store.GetEdgesInto(Key(vid, kPo, Dir::kOut), sn, &got);
      want.clear();
      for (const auto& [esn, value] : log[vid]) {
        if (esn <= sn) {
          want.push_back(value);
        }
      }
      if (got != want) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
      rounds.fetch_add(1, std::memory_order_release);
    }
  });
  for (SnapshotNum sn = 1; sn <= kLastSn; ++sn) {
    if (sn % 8 == 0) {
      const uint64_t seen = rounds.load(std::memory_order_acquire);
      while (rounds.load(std::memory_order_acquire) == seen) {
        std::this_thread::yield();
      }
    }
    for (const auto& [key, value] : appends_of(sn)) {
      store.InjectEdge(key, value, sn, nullptr);
    }
    done.store(sn, std::memory_order_release);
  }
  collapser.join();
  EXPECT_EQ(mismatches.load(), 0u);

  std::vector<Key> keys = {Key(kIndexVertex, kPo, Dir::kOut)};
  for (VertexId v = 1; v <= kKeys; ++v) {
    keys.emplace_back(v, kPo, Dir::kOut);
  }
  for (Key k : keys) {
    EXPECT_EQ(store.GetEdges(k, kInf), replay.GetEdges(k, kInf)) << k.DebugString();
    EXPECT_EQ(store.GetEdges(k, kLastSn - 2), replay.GetEdges(k, kLastSn - 2))
        << k.DebugString();
  }
  store.CollapseBelow(kLastSn);
  EXPECT_EQ(store.SnapshotMetadataBytes(), 0u);
}

}  // namespace
}  // namespace wukongs
