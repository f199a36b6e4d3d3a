// Continuous persistent store (paper §4.1, Fig. 6).
//
// One GStore instance is one node's shard of the distributed RDF graph:
// a key/value map from packed [vid|pid|dir] keys to append-only neighbor
// lists. Two kinds of keys exist:
//   * normal keys  [v|p|d]  — neighbors of vertex v over predicate p;
//   * index keys   [0|p|d]  — every vertex that has a p-edge in direction d
//     (the "index vertex" that seeds queries with no constant start point).
//
// Values are append-only and carry *bounded snapshot markers* (§4.3): each
// key keeps a short deque of (SN, end-offset) pairs recording where the data
// of each scalar snapshot ends. A reader at Stable_SN = s sees the prefix up
// to the last marker with sn <= s; the initial bulk load is the base prefix
// visible at every SN. When the Coordinator publishes a collapse floor,
// CollapseBelow folds every marker at or below it into the base prefix, so
// per-key snapshot metadata stays bounded (the "one for using, one for
// inserting" property from the paper). Each stripe lists the keys that hold
// markers, so a fold pass visits only those keys, never the whole shard.
//
// Concurrency: the map is striped into fixed partitions. The paper's Injector
// threads statically partition the key space to avoid locks; readers (queries)
// run concurrently with injection, so each stripe uses a shared_mutex and
// readers copy spans out. Stripes also give the static injector partitioning.

#ifndef SRC_STORE_GSTORE_H_
#define SRC_STORE_GSTORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/rdf/triple.h"

namespace wukongs {

// Where a streaming append landed inside a persistent value; consumed by the
// stream index so windows can address exactly the data of one batch (§4.2).
struct AppendSpan {
  Key key;
  uint32_t start = 0;
  uint32_t count = 0;
};

class GStore {
 public:
  // Data appended at SN <= kBaseSnapshot belongs to the base prefix.
  static constexpr SnapshotNum kBaseSnapshot = 0;

  explicit GStore(NodeId node);

  NodeId node() const { return node_; }

  // --- Bulk load (initial stored data; becomes the base prefix). ---
  // Inserts the out-direction key for the subject, the in-direction key for
  // the object, and index entries for newly created keys.
  void LoadTriple(const Triple& t);
  void LoadTriples(std::span<const Triple> triples);
  // Distributed bulk load: write one direction into this shard only.
  void LoadEdge(Key key, VertexId value) { AppendEdge(key, value, kBaseSnapshot); }

  // --- Streaming injection (timeless data; paper Fig. 6 walk-through). ---
  // Appends under snapshot `sn` and reports the spans it created so the
  // caller can build stream-index entries. Appends for a given key must be
  // issued with non-decreasing sn (streams are in-order, §4.3).
  // InjectTriple writes both directions into this shard (single-node use);
  // the distributed dispatcher instead routes each direction to its owner
  // shard via InjectEdge. Spans include index-vertex appends so stream
  // windows can also seed from index keys.
  void InjectTriple(const Triple& t, SnapshotNum sn, std::vector<AppendSpan>* spans);
  void InjectEdge(Key key, VertexId value, SnapshotNum sn,
                  std::vector<AppendSpan>* spans);

  // --- Migration appends (online reconfiguration, DESIGN.md §5.10). ---
  // Copies one edge of a moving shard into this (target) store. Differences
  // from InjectEdge: counted separately (EdgeCountTotal — and therefore the
  // delta-cache StoredEpoch guard — is unchanged by migration, since the data
  // is a bit-equal copy of what the source already serves), not counted as a
  // stream append, and out-of-order SNs are tolerated — history replayed
  // *after* dual-applied live batches folds into the newest marker (deferred
  // visibility; the cutover barrier guarantees everything folded is visible
  // at or below the commit-time Stable_SN).
  void InjectEdgeMigrated(Key key, VertexId value, SnapshotNum sn,
                          std::vector<AppendSpan>* spans);

  // Removes every edge of vertices matched by `in_shard` — the stale copy a
  // former owner kept after a shard moved away (reclamation is deferred at
  // cutover), or the partial copy stranded by an aborted transfer. Called on
  // a migration target before the fresh base copy lands, so copy + replay +
  // dual-apply rebuild the shard exactly once. Normal keys of matched
  // vertices are dropped whole; index keys are compacted in place with their
  // snapshot markers remapped to the surviving offsets. Returns edges
  // removed. EdgeCountTotal is left untouched (like migrated-in edges, the
  // purged copy is invisible to owner-routed reads either way).
  size_t PurgeShard(const std::function<bool(VertexId)>& in_shard);

  // --- Reads. ---
  // Neighbors of `key` visible at snapshot `sn` (>= everything at sn
  // kSnapshotInfinity). Returns a copy; safe against concurrent injection.
  static constexpr SnapshotNum kSnapshotInfinity = ~SnapshotNum{0};
  std::vector<VertexId> GetEdges(Key key, SnapshotNum sn) const;
  void GetEdgesInto(Key key, SnapshotNum sn, std::vector<VertexId>* out) const;

  // Reads `count` neighbors starting at `start` (a stream-index span). The
  // span may exceed the visible prefix only if the caller's SN is behind the
  // injector; reads clamp to the stored size.
  void GetSpanInto(Key key, uint32_t start, uint32_t count,
                   std::vector<VertexId>* out) const;

  // True if edge (key -> value) exists at snapshot sn.
  bool HasEdge(Key key, VertexId value, SnapshotNum sn) const;

  // Number of neighbors visible at sn (0 if key absent). Used by the planner
  // for selectivity estimates and by in-place execution to size RDMA reads.
  size_t EdgeCount(Key key, SnapshotNum sn) const;

  // --- Snapshot maintenance (§4.3). ---
  // Publishes a collapse floor and folds every marker with sn <= floor into
  // the base prefix. Called by the Coordinator once a snapshot can no longer
  // be named by any query. A key joins its stripe's marked-key list when it
  // gains its first marker, so the pass visits only listed keys — O(keys
  // that hold markers), not O(keys) — and drops each key once it holds none.
  // AppendEdge also folds the keys it touches against the published floor.
  void CollapseBelow(SnapshotNum floor);
  // Keys visited by CollapseBelow since construction (maintenance work).
  uint64_t CollapseKeysVisited() const {
    return collapse_keys_visited_.load(std::memory_order_relaxed);
  }

  // --- Accounting. ---
  size_t KeyCount() const;
  size_t EdgeCountTotal() const;
  size_t StreamAppendedEdges() const {
    return stream_appended_edges_.load(std::memory_order_relaxed);
  }
  // Edges copied in by shard migration (base copy, history replay, and
  // dual-apply); excluded from EdgeCountTotal.
  size_t MigratedInEdges() const {
    return migrated_in_.load(std::memory_order_relaxed);
  }
  // Approximate resident bytes of the shard (values, marker metadata and
  // the marked-key lists).
  size_t MemoryBytes() const;
  // Bytes of snapshot-marker metadata alone; Table 7 compares this against
  // the hypothetical per-edge vector-timestamp representation.
  size_t SnapshotMetadataBytes() const;

 private:
  struct SnapMarker {
    SnapshotNum sn;
    uint32_t end;  // Edges [0, end) are visible at snapshots >= sn.
  };

  struct EdgeValue {
    std::vector<VertexId> edges;
    uint32_t base_end = 0;            // Visible at every snapshot.
    // On its stripe's marked-key list. Sits in the padding after base_end,
    // so the value stays 56 bytes.
    bool marked = false;
    std::vector<SnapMarker> markers;  // Ascending sn; small and bounded.

    uint32_t VisibleEnd(SnapshotNum sn) const;
    void Collapse(SnapshotNum floor);
  };
  static_assert(sizeof(EdgeValue) == 2 * sizeof(std::vector<VertexId>) + 8,
                "the marked flag must fit in the padding after base_end");

  static constexpr size_t kStripeCount = 64;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::unordered_map<Key, EdgeValue, KeyHash> map;
    // Keys of `map` whose `marked` flag is set, each once: every key that
    // holds a marker is here (a listed key may have lost its markers to the
    // fold in AppendEdge since; the next CollapseBelow drops it).
    std::vector<Key> marked;
  };

  Stripe& StripeFor(Key key) {
    return stripes_[KeyHash{}(key) % kStripeCount];
  }
  const Stripe& StripeFor(Key key) const {
    return stripes_[KeyHash{}(key) % kStripeCount];
  }

  // Appends `value` to `key` under `sn`; returns the span written. When the
  // key is newly created and is a normal key, also appends the vertex to the
  // matching index key (paper Fig. 6 step 4), reporting that span via
  // `extra_spans` when non-null.
  AppendSpan AppendEdge(Key key, VertexId value, SnapshotNum sn,
                        std::vector<AppendSpan>* extra_spans = nullptr);
  AppendSpan AppendEdgeImpl(Key key, VertexId value, SnapshotNum sn,
                            std::vector<AppendSpan>* extra_spans, bool migrated);

  const NodeId node_;
  std::array<Stripe, kStripeCount> stripes_;
  std::atomic<SnapshotNum> collapse_floor_{0};
  std::atomic<uint64_t> edge_total_{0};
  std::atomic<uint64_t> stream_appended_edges_{0};
  std::atomic<uint64_t> migrated_in_{0};
  std::atomic<uint64_t> collapse_keys_visited_{0};
};

}  // namespace wukongs

#endif  // SRC_STORE_GSTORE_H_
