// Property tests for the snapshot-segmented store: random operation
// sequences (snapshot-tagged injections, collapses, shard purges with
// re-injection, reads at arbitrary snapshots) are checked against a
// trivially-correct reference model, across seeds (parameterized). After
// every collapse and purge the store's marker metadata must equal the
// model's live markers exactly.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "src/common/rng.h"
#include "src/store/gstore.h"

namespace wukongs {
namespace {

// Reference model: per key, an ordered list of (value, effective_sn), plus
// the snapshots that still own a marker. CollapseBelow(floor) folds entries
// with sn <= floor into the base (sn 0) and retires their markers.
class ModelStore {
 public:
  void Append(Key key, VertexId value, SnapshotNum sn) {
    entries_[key].emplace_back(value, sn);
    markers_[key].insert(sn);
  }
  void CollapseBelow(SnapshotNum floor) {
    if (floor <= floor_) {
      return;
    }
    floor_ = floor;
    for (auto& [key, list] : entries_) {
      for (auto& [value, sn] : list) {
        if (sn <= floor) {
          sn = 0;
        }
      }
    }
    for (auto& [key, sns] : markers_) {
      sns.erase(sns.begin(), sns.upper_bound(floor));
    }
  }
  // Mirrors GStore::PurgeShard: normal keys of matched vertices go whole,
  // markers included; index keys lose the matched vertices but keep every
  // marker (the offsets are remapped, not dropped).
  void Purge(const std::function<bool(VertexId)>& in_shard) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!it->first.is_index() && in_shard(it->first.vid())) {
        markers_.erase(it->first);
        it = entries_.erase(it);
        continue;
      }
      if (it->first.is_index()) {
        std::erase_if(it->second,
                      [&](const auto& entry) { return in_shard(entry.first); });
      }
      ++it;
    }
  }
  std::vector<VertexId> Read(Key key, SnapshotNum sn) const {
    std::vector<VertexId> out;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      return out;
    }
    // Visibility is a prefix: entries are appended in non-decreasing sn
    // order, so cut at the first entry above sn.
    for (const auto& [value, esn] : it->second) {
      if (esn > sn) {
        break;
      }
      out.push_back(value);
    }
    return out;
  }
  bool Contains(Key key) const { return entries_.contains(key); }
  // One marker per (key, snapshot above the floor) that appended to it.
  size_t LiveMarkers() const {
    size_t n = 0;
    for (const auto& [key, sns] : markers_) {
      n += sns.size();
    }
    return n;
  }
  std::vector<Key> Keys() const {
    std::vector<Key> keys;
    for (const auto& [key, list] : entries_) {
      keys.push_back(key);
    }
    return keys;
  }

 private:
  std::map<Key, std::vector<std::pair<VertexId, SnapshotNum>>> entries_;
  std::map<Key, std::set<SnapshotNum>> markers_;
  SnapshotNum floor_ = 0;
};

// Bytes of one snapshot marker, measured on a store holding exactly two
// (a new key and its index key, both appended at one snapshot).
size_t MarkerBytes() {
  GStore probe(0);
  probe.InjectEdge(Key(1, 1, Dir::kOut), 2, 1, nullptr);
  return probe.SnapshotMetadataBytes() / 2;
}

class GStorePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GStorePropertyTest, RandomOpsMatchModel) {
  Rng rng(GetParam());
  GStore store(0);
  ModelStore model;
  const size_t marker_bytes = MarkerBytes();
  ASSERT_GT(marker_bytes, 0u);

  constexpr size_t kVertices = 40;
  constexpr PredicateId kPredicates = 4;
  // Injection order is globally non-decreasing in SN, the invariant the
  // Cluster maintains by injecting batches in sequence order.
  std::set<uint64_t> touched;
  SnapshotNum global_sn = 1;
  SnapshotNum global_floor = 0;
  SnapshotNum max_sn = 1;

  auto random_key = [&] {
    return Key(rng.Uniform(1, kVertices), 1 + static_cast<PredicateId>(rng.Uniform(
                                                  0, kPredicates - 1)),
               rng.Bernoulli(0.5) ? Dir::kOut : Dir::kIn);
  };
  auto inject = [&](Key key) {
    SnapshotNum lo = std::max({global_sn, global_floor + 1, SnapshotNum{1}});
    SnapshotNum sn = lo + rng.Uniform(0, 1);
    global_sn = sn;
    max_sn = std::max(max_sn, sn);
    touched.insert(key.packed());
    VertexId value = rng.Uniform(1, 1000000);
    // Mirror the automatic index-vertex append on key creation (GStore
    // appends key.vid() to [0|pid|dir] when it creates a normal key).
    const bool created = !model.Contains(key);
    store.InjectEdge(key, value, sn, nullptr);
    model.Append(key, value, sn);
    if (created) {
      model.Append(Key(kIndexVertex, key.pid(), key.dir()), key.vid(), sn);
    }
  };
  // The bound: no key keeps a marker at or below the floor, touched again
  // or not, and reads at every snapshot the Coordinator may still hand out
  // (the floor and above) match the model.
  auto check_all = [&](int op) {
    ASSERT_EQ(store.SnapshotMetadataBytes(), model.LiveMarkers() * marker_bytes)
        << "op " << op << " floor " << global_floor;
    for (Key key : model.Keys()) {
      for (SnapshotNum sn = global_floor; sn <= max_sn + 1; ++sn) {
        ASSERT_EQ(store.GetEdges(key, sn), model.Read(key, sn))
            << "op " << op << " key " << key.DebugString() << " sn " << sn;
      }
      ASSERT_EQ(store.GetEdges(key, GStore::kSnapshotInfinity),
                model.Read(key, GStore::kSnapshotInfinity))
          << "op " << op << " key " << key.DebugString();
    }
  };

  for (int op = 0; op < 3000; ++op) {
    double dice = rng.UniformReal(0, 1);
    if (dice < 0.55) {
      // Inject under a snapshot >= the global last snapshot and > floor.
      inject(random_key());
    } else if (dice < 0.6) {
      // Collapse: advance the floor a little, or up to a few snapshots
      // behind the newest one, as the Coordinator's trailing floor does.
      SnapshotNum floor = rng.Bernoulli(0.5)
                              ? global_floor + rng.Uniform(0, 2)
                              : max_sn - std::min<SnapshotNum>(max_sn, rng.Uniform(0, 8));
      floor = std::min(floor, max_sn);
      global_floor = std::max(global_floor, floor);
      store.CollapseBelow(floor);
      model.CollapseBelow(floor);
      check_all(op);
    } else if (dice < 0.61) {
      // Purge one residue class of vertices (a shard moving away), then
      // re-inject some of the purged keys (the shard moving back): they are
      // re-created and must be listed again by their first new marker.
      const uint64_t residue = rng.Uniform(0, 4);
      auto in_shard = [residue](VertexId v) { return v % 5 == residue; };
      store.PurgeShard(in_shard);
      model.Purge(in_shard);
      check_all(op);
      std::vector<Key> purged;
      for (uint64_t packed : touched) {
        Key key = Key::FromPacked(packed);
        if (!key.is_index() && in_shard(key.vid()) && rng.Bernoulli(0.5)) {
          purged.push_back(key);
        }
      }
      for (Key key : purged) {
        inject(key);
      }
    } else {
      // Read at a random snapshot at or above the floor (the contract: the
      // Coordinator never hands out snapshots below the collapse floor).
      Key key = rng.Bernoulli(0.2)
                    ? Key(kIndexVertex,
                          1 + static_cast<PredicateId>(rng.Uniform(0, kPredicates - 1)),
                          rng.Bernoulli(0.5) ? Dir::kOut : Dir::kIn)
                    : random_key();
      SnapshotNum sn = global_floor + rng.Uniform(0, max_sn - global_floor + 1);
      ASSERT_EQ(store.GetEdges(key, sn), model.Read(key, sn))
          << "op " << op << " key " << key.DebugString() << " sn " << sn;
    }
  }

  // Final sweep: every touched key matches at the newest snapshot.
  for (uint64_t packed : touched) {
    Key key = Key::FromPacked(packed);
    EXPECT_EQ(store.GetEdges(key, max_sn), model.Read(key, max_sn));
  }
  // Collapsing to the newest snapshot leaves no marker anywhere.
  store.CollapseBelow(max_sn);
  model.CollapseBelow(max_sn);
  check_all(3000);
  EXPECT_EQ(store.SnapshotMetadataBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GStorePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace wukongs
