// Time-based transient store (paper §4.1, Fig. 7).
//
// Timing data (e.g. GPS positions) is only meaningful inside stream windows,
// so it never enters the persistent store. Each (node, stream) pair owns a
// TransientStore: a time-ordered sequence of *transient slices*, one per
// batch, appended at the new end by the Injector and freed at the old end by
// the garbage collector once no registered window can reach them. A bounded
// memory budget mimics the paper's fixed-size ring buffer: exceeding it
// triggers an immediate GC of expired slices.

#ifndef SRC_STREAM_TRANSIENT_STORE_H_
#define SRC_STREAM_TRANSIENT_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/rdf/triple.h"

namespace wukongs {

class TransientStore {
 public:
  // Invoked after any eviction path reclaims slices; the cluster invalidates
  // its template-group memos on it. Called outside the store's lock, so the
  // listener may take its own locks.
  using EvictionListener = std::function<void()>;

  // `memory_budget_bytes` = 0 means unbounded.
  explicit TransientStore(size_t memory_budget_bytes = 0);

  // Appends one batch's timing edges as a new slice. Batches must arrive in
  // order (streams are in-order per §4.3). Returns false if the budget is
  // exhausted even after GC — callers treat that as back-pressure.
  // The edge-pair form is the dispatcher's path: it receives exactly the
  // directions owned by this node. Index entries ([0|pid|dir] -> vid) are
  // added for newly seen keys so window patterns can seed from predicates.
  bool AppendSlice(BatchSeq seq, const std::vector<std::pair<Key, VertexId>>& edges);
  // Convenience: single-node form indexing both directions of each tuple.
  bool AppendSlice(BatchSeq seq, const StreamTupleVec& timing_tuples);

  // Load-shedding append: stores the largest *prefix* of `edges` that fits
  // the remaining budget (after forced GC) and returns how many edges were
  // kept. Shedding only ever drops a batch suffix, so surviving data stays a
  // time-ordered prefix and Stable_VTS semantics are preserved; the slice is
  // created even when nothing fits (an empty slice keeps batches dense).
  size_t AppendSlicePrefix(BatchSeq seq,
                           const std::vector<std::pair<Key, VertexId>>& edges);

  // Migration merge (DESIGN.md §5.10): folds a moving shard's timing edges
  // for slice `seq` into this (target) store — used by dual-apply and
  // history replay. A slice this node never appended (a node added after the
  // batch was delivered) is materialized in sequence order; a slice below
  // the GC horizon returns false (a no-op — no live window reaches it).
  // Merged bytes may transiently overshoot the budget — the next
  // budget-triggered GC reclaims as usual.
  bool MergeSlice(BatchSeq seq, const std::vector<std::pair<Key, VertexId>>& edges);

  // Removes every slice's timing edges for vertices matched by `in_shard`
  // (DESIGN.md §5.10): the stale copy a former owner kept after the shard
  // moved away. Normal keys of matched vertices are dropped whole and their
  // entries scrubbed from the per-slice index lists, so replay and dual-apply
  // rebuild the shard's timing data exactly once. Returns edges removed.
  size_t PurgeShard(const std::function<bool(VertexId)>& in_shard);

  // Appends the neighbors of `key` within batch `seq` to `out`.
  void GetNeighbors(BatchSeq seq, Key key, std::vector<VertexId>* out) const;
  size_t EdgeCount(BatchSeq seq, Key key) const;

  // Registers the eviction listener (replacing any previous one). Every
  // reclaim path — explicit, budget-triggered, and periodic — notifies it.
  void SetEvictionListener(EvictionListener listener);

  // Frees every slice with seq < `min_live_seq`. Returns slices freed.
  size_t EvictBefore(BatchSeq min_live_seq);
  // Marks the horizon the GC may not cross (earliest batch any registered
  // window still needs); periodic GC uses it.
  void SetGcHorizon(BatchSeq min_live_seq);
  size_t RunGc();

  size_t SliceCount() const;
  size_t MemoryBytes() const;
  BatchSeq OldestSeq() const;  // kNoBatch when empty.
  BatchSeq NewestSeq() const;  // kNoBatch when empty.

  // Cumulative GC reclaim over the store lifetime (every eviction path —
  // explicit, budget-triggered, and periodic — funnels through the same
  // internal helper). Scraped into the metrics registry.
  struct GcStats {
    uint64_t slices_reclaimed = 0;
    uint64_t bytes_reclaimed = 0;
  };
  GcStats gc_stats() const;

 private:
  struct Slice {
    BatchSeq seq = 0;
    std::unordered_map<Key, std::vector<VertexId>, KeyHash> edges;
    size_t bytes = 0;
  };

  const Slice* FindSlice(BatchSeq seq) const;
  size_t EvictBeforeLocked(BatchSeq min_live_seq);
  static Slice BuildSlice(BatchSeq seq,
                          const std::vector<std::pair<Key, VertexId>>& edges,
                          size_t count);

  const size_t memory_budget_bytes_;
  mutable std::mutex mu_;
  std::deque<Slice> slices_;
  size_t total_bytes_ = 0;
  BatchSeq gc_horizon_ = 0;
  GcStats gc_stats_;            // Guarded by mu_.
  EvictionListener listener_;   // Guarded by mu_; invoked after unlock.
};

}  // namespace wukongs

#endif  // SRC_STREAM_TRANSIENT_STORE_H_
