// Per-continuous-query delta cache (DESIGN.md §5.9).
//
// Consecutive triggers of a sliding-window continuous query share almost the
// whole window: only one batch slides in and one slides out per step. Window
// contents are organized per batch (transient slices, per-batch stream-index
// entries), which is exactly the granularity needed for delta evaluation —
// so the cache memoizes, per window slice, the binding-table *contribution*
// that slice makes to the query (the rows produced by joining the slice
// against the stored-graph prefix and running the remaining patterns,
// OPTIONALs and FILTERs). A trigger then unions cached contributions with
// freshly evaluated ones for the delta batches and only re-runs projection
// and solution modifiers, turning the hot path from O(window) to O(delta).
//
// Keying: one DeltaCache instance belongs to one registered query and one
// plan, so entries are keyed by (pattern-prefix epoch, window slice). The
// epoch covers everything a contribution reads outside its own slice — the
// stored graph — and any epoch change flushes the cache wholesale.
// Invalidation: the owning cluster retires entries when the TransientStore /
// StreamIndex GC a slice (eviction listeners) and when the window slides
// past a batch, so the cache never outlives the data it summarizes and its
// size stays bounded by the window span.
//
// Thread safety: triggers (worker pool) race with maintenance GC
// (invalidation listeners), so every method locks.

#ifndef SRC_ENGINE_DELTA_CACHE_H_
#define SRC_ENGINE_DELTA_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>

#include "src/common/ids.h"
#include "src/engine/columnar.h"

namespace wukongs {

class DeltaCache {
 public:
  struct Stats {
    uint64_t hits = 0;           // Contributions served from the cache.
    uint64_t misses = 0;         // Contributions evaluated fresh.
    uint64_t invalidations = 0;  // Entries retired (GC hooks + window slide).
    uint64_t epoch_flushes = 0;  // Wholesale flushes on stored-graph change.
    uint64_t plan_flushes = 0;   // Re-keying events on plan cutover (§5.14).
  };

  // Opens a trigger over window slices [lo, hi] at stored-graph `epoch`:
  // flushes everything if the epoch moved, then retires contributions the
  // window slid past. After this call the cache holds only entries inside
  // the window, bounding its size by the window span.
  void BeginTrigger(uint64_t epoch, BatchSeq lo, BatchSeq hi);

  // Re-keys the cache to a new plan version (§5.14). The prefix table and
  // every contribution are computed *under a plan* — prefix pattern
  // membership and binding column order both depend on the pattern order —
  // so a version change flushes the cache wholesale. The adaptive cutover
  // (and plan pinning) is the single owner of this call; the delta path
  // deliberately does not re-check at read time. A cutover that forgets to
  // re-key (skip_parity_gate planted mutation) is caught by the cutover
  // audit in the planner lane: a version bump on a delta-cached query must
  // leave plan_flushes >= 1 here and a cutover/pin count on the cluster —
  // the mutation advances the version while all three stay zero. (Results
  // happen not to corrupt today because fresh contributions are derived from
  // the cached prefix and inherit its column order, but that coherence is an
  // accident of prefix anchoring, not a contract.)
  void SetPlanVersion(uint64_t version);

  // Stored-graph prefix table (the window-independent plan prefix). Valid
  // until the next epoch flush; the window never invalidates it. Tables are
  // columnar: Get/Put share chunks (and their arenas) with the caller rather
  // than copying rows, per the §5.13 ownership rules.
  bool GetPrefix(ColumnarTable* out) const;
  void PutPrefix(const ColumnarTable& table);

  // Per-slice contribution. Get counts a hit or a miss; every miss is
  // expected to be followed by a Put once the slice is evaluated.
  bool GetContribution(BatchSeq seq, ColumnarTable* out);
  void PutContribution(BatchSeq seq, const ColumnarTable& table);

  // Invalidation hook fired when the transient store / stream index GC
  // slices below `min_live_seq`. Returns entries retired.
  uint64_t InvalidateBelow(BatchSeq min_live_seq);
  // Wholesale flush (node crash, degradation, epoch change). Returns entries
  // retired (prefix included).
  uint64_t InvalidateAll();

  Stats stats() const;
  size_t EntryCount() const;   // Cached contributions (prefix excluded).
  size_t MemoryBytes() const;

 private:
  uint64_t InvalidateAllLocked();

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  bool epoch_set_ = false;
  uint64_t plan_version_ = 0;
  bool plan_version_set_ = false;
  bool prefix_valid_ = false;
  ColumnarTable prefix_;
  std::map<BatchSeq, ColumnarTable> contributions_;
  Stats stats_;
};

}  // namespace wukongs

#endif  // SRC_ENGINE_DELTA_CACHE_H_
