// Stream index (paper §4.2, Fig. 8).
//
// After the persistent store absorbs a batch's timeless tuples, that data is
// scattered across the whole store; re-finding "what stream S added in batch
// b" through normal lookups would walk entire values and require keeping
// timestamps in the store. The stream index is the fast path: per (stream,
// batch) it maps each touched key to the spans the Injector appended, so a
// window resolves to a batch range and the engine reads exactly those spans.
// Indexes are created at the new end and dropped at the old end, mirroring
// the transient store; timestamps never pollute the persistent values.
//
// One StreamIndex instance holds one node's index for one stream. With
// locality-aware partitioning (Fig. 9) the per-batch maps are replicated to
// every node where a registered query consumes the stream — replication cost
// is charged by the caller at injection time.

#ifndef SRC_STREAM_STREAM_INDEX_H_
#define SRC_STREAM_STREAM_INDEX_H_

#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/store/gstore.h"
#include "src/stream/vts.h"

namespace wukongs {

// A span inside a persistent value: [start, start + count).
struct IndexSpan {
  uint32_t start = 0;
  uint32_t count = 0;
};

class StreamIndex {
 public:
  StreamIndex() = default;

  // Registers the spans the Injector produced for batch `seq`. Batches must
  // arrive in order. Empty span lists still create the (empty) batch entry so
  // window reads can distinguish "no data" from "not yet indexed".
  void AddBatch(BatchSeq seq, const std::vector<AppendSpan>& spans);

  // Migration merge (DESIGN.md §5.10): folds a moving shard's spans for
  // batch `seq` into this node's entry — used by dual-apply and history
  // replay. A batch this node never indexed (a node added after the batch
  // was delivered) is materialized in sequence order; a batch below the
  // eviction watermark returns false (a no-op — the GC horizon passed it, so
  // no live window can reach it and nothing is lost).
  bool MergeBatch(BatchSeq seq, const std::vector<AppendSpan>& spans);

  // Removes every batch's spans and seeds for vertices matched by `in_shard`
  // (DESIGN.md §5.10): the stale index entries a former owner kept after the
  // shard moved away. Called on a migration target before history replay so
  // MergeBatch re-adds exactly one span set and one seed per touched vertex.
  // Returns span lists removed.
  size_t PurgeShard(const std::function<bool(VertexId)>& in_shard);

  // Appends the spans of `key` in batch `seq` to `out`. Returns false if the
  // batch is not indexed (expired or not yet injected).
  bool GetSpans(BatchSeq seq, Key key, std::vector<IndexSpan>* out) const;

  // Sum of span counts of `key` in batch `seq` (selectivity estimation).
  size_t SpanEdgeCount(BatchSeq seq, Key key) const;

  // Seeds: the vertices that had (pid, dir) appends in batch `seq`. This is
  // the window analogue of the index vertex: patterns with no bound endpoint
  // enumerate "who touched this predicate inside the window" — including
  // vertices whose keys pre-existed in the base store and therefore created
  // no index-vertex append. Deduplicated within a batch, not across batches.
  bool GetSeeds(BatchSeq seq, PredicateId pid, Dir dir,
                std::vector<VertexId>* out) const;
  size_t SeedCount(BatchSeq seq, PredicateId pid, Dir dir) const;

  // Invoked after EvictBefore drops batches; the cluster invalidates its
  // template-group memos on it. Called outside the index's lock, so the
  // listener may take its own locks.
  using EvictionListener = std::function<void()>;
  void SetEvictionListener(EvictionListener listener);

  // Drops index entries for batches < min_live_seq (stale windows).
  size_t EvictBefore(BatchSeq min_live_seq);

  size_t BatchCount() const;
  size_t MemoryBytes() const;
  BatchSeq OldestSeq() const;
  BatchSeq NewestSeq() const;

  // Window-lookup outcome counters (GetSpans/GetSeeds): a miss means the
  // requested batch was expired or not yet indexed. Scraped into the metrics
  // registry; cumulative over the index lifetime.
  struct LookupStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  LookupStats lookup_stats() const;

 private:
  struct BatchIndex {
    BatchSeq seq = 0;
    std::unordered_map<Key, std::vector<IndexSpan>, KeyHash> spans;
    // Keyed by the packed index key [0|pid|dir].
    std::unordered_map<uint64_t, std::vector<VertexId>> seeds;
    size_t bytes = 0;
  };

  const BatchIndex* FindBatch(BatchSeq seq) const;

  mutable std::mutex mu_;
  std::deque<BatchIndex> batches_;
  // Eviction watermark: batches below it were dropped by GC (or were never
  // indexed and never will be queried). Lets MergeBatch tell "evicted" apart
  // from "never delivered here" on nodes added mid-stream.
  BatchSeq evicted_below_ = 0;
  size_t total_bytes_ = 0;
  mutable LookupStats lookups_;  // Guarded by mu_.
  EvictionListener listener_;    // Guarded by mu_; invoked after unlock.
};

}  // namespace wukongs

#endif  // SRC_STREAM_STREAM_INDEX_H_
