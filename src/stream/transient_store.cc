#include "src/stream/transient_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/test_hooks.h"
#include "src/stream/vts.h"

namespace wukongs {
namespace {

// Fires the eviction listener outside the store lock, so the listener may
// take its own locks without nesting inside ours.
void NotifyEviction(const TransientStore::EvictionListener& listener,
                    size_t freed) {
  if (freed == 0 || !listener) {
    return;
  }
  if (test_hooks::skip_eviction_listeners.load(std::memory_order_relaxed)) {
    return;  // Planted fault: GC "forgets" to tell the listener.
  }
  listener();
}

}  // namespace

TransientStore::TransientStore(size_t memory_budget_bytes)
    : memory_budget_bytes_(memory_budget_bytes) {}

bool TransientStore::AppendSlice(BatchSeq seq, const StreamTupleVec& timing_tuples) {
  std::vector<std::pair<Key, VertexId>> edges;
  edges.reserve(timing_tuples.size() * 2);
  for (const StreamTuple& t : timing_tuples) {
    assert(t.kind == TupleKind::kTiming);
    // Timing edges are indexed both ways, like persistent edges, so window
    // patterns can explore in either direction.
    edges.emplace_back(Key(t.triple.subject, t.triple.predicate, Dir::kOut),
                       t.triple.object);
    edges.emplace_back(Key(t.triple.object, t.triple.predicate, Dir::kIn),
                       t.triple.subject);
  }
  return AppendSlice(seq, edges);
}

TransientStore::Slice TransientStore::BuildSlice(
    BatchSeq seq, const std::vector<std::pair<Key, VertexId>>& edges,
    size_t count) {
  Slice slice;
  slice.seq = seq;
  for (size_t i = 0; i < count; ++i) {
    const auto& [key, value] = edges[i];
    auto [it, created] = slice.edges.try_emplace(key);
    it->second.push_back(value);
    if (created && !key.is_index()) {
      // Seed the per-slice index vertex on first sight of a key.
      slice.edges[Key(kIndexVertex, key.pid(), key.dir())].push_back(key.vid());
    }
  }
  for (const auto& [key, value_list] : slice.edges) {
    (void)key;
    slice.bytes += sizeof(Key) + 48 + value_list.capacity() * sizeof(VertexId);
  }
  return slice;
}

bool TransientStore::AppendSlice(BatchSeq seq,
                                 const std::vector<std::pair<Key, VertexId>>& edges) {
  size_t freed = 0;
  EvictionListener listener;
  bool accepted = true;
  {
    std::lock_guard lock(mu_);
    assert(slices_.empty() || slices_.back().seq < seq);

    Slice slice = BuildSlice(seq, edges, edges.size());

    if (memory_budget_bytes_ != 0 &&
        total_bytes_ + slice.bytes > memory_budget_bytes_) {
      // Ring buffer full: reclaim expired slices right now (paper: GC is
      // "explicitly invoked when the ring buffer is full").
      freed = EvictBeforeLocked(gc_horizon_);
      listener = listener_;
      accepted = total_bytes_ + slice.bytes <= memory_budget_bytes_;
    }
    if (accepted) {
      total_bytes_ += slice.bytes;
      slices_.push_back(std::move(slice));
    }
  }
  NotifyEviction(listener, freed);
  return accepted;
}

size_t TransientStore::AppendSlicePrefix(
    BatchSeq seq, const std::vector<std::pair<Key, VertexId>>& edges) {
  size_t freed = 0;
  EvictionListener listener;
  size_t kept = 0;
  {
    std::lock_guard lock(mu_);
    assert(slices_.empty() || slices_.back().seq < seq);
    freed = EvictBeforeLocked(gc_horizon_);
    listener = listener_;

    size_t budget_left =
        memory_budget_bytes_ == 0
            ? SIZE_MAX
            : (memory_budget_bytes_ > total_bytes_
                   ? memory_budget_bytes_ - total_bytes_
                   : 0);
    // Slice bytes grow monotonically with the edge count, so binary-search the
    // largest fitting prefix (rebuilding the candidate slice per probe keeps
    // the byte accounting identical to AppendSlice's).
    size_t lo = 0;
    size_t hi = edges.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo + 1) / 2;
      if (BuildSlice(seq, edges, mid).bytes <= budget_left) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    // lo == 0 still appends an empty slice, keeping the batch sequence dense
    // for FindSlice.
    Slice slice = BuildSlice(seq, edges, lo);
    total_bytes_ += slice.bytes;
    slices_.push_back(std::move(slice));
    kept = lo;
  }
  NotifyEviction(listener, freed);
  return kept;
}

bool TransientStore::MergeSlice(
    BatchSeq seq, const std::vector<std::pair<Key, VertexId>>& edges) {
  std::lock_guard lock(mu_);
  Slice* slice = const_cast<Slice*>(FindSlice(seq));
  if (slice == nullptr) {
    if (seq < gc_horizon_) {
      return false;  // Reclaimed: no live window reaches this slice.
    }
    // Never sliced here: the node joined after this batch was delivered.
    // Materialize it in sequence order so replayed timing data is queryable
    // (FindSlice's dense fast path misses, its scan fallback finds it).
    auto it = std::lower_bound(
        slices_.begin(), slices_.end(), seq,
        [](const Slice& s, BatchSeq q) { return s.seq < q; });
    Slice fresh;
    fresh.seq = seq;
    slice = &*slices_.insert(it, std::move(fresh));
  }
  total_bytes_ -= slice->bytes;
  for (const auto& [key, value] : edges) {
    auto [it, created] = slice->edges.try_emplace(key);
    it->second.push_back(value);
    if (created && !key.is_index()) {
      slice->edges[Key(kIndexVertex, key.pid(), key.dir())].push_back(key.vid());
    }
  }
  slice->bytes = 0;
  for (const auto& [key, value_list] : slice->edges) {
    (void)key;
    slice->bytes += sizeof(Key) + 48 + value_list.capacity() * sizeof(VertexId);
  }
  total_bytes_ += slice->bytes;
  return true;
}

size_t TransientStore::PurgeShard(const std::function<bool(VertexId)>& in_shard) {
  std::lock_guard lock(mu_);
  size_t removed = 0;
  for (Slice& slice : slices_) {
    total_bytes_ -= slice.bytes;
    for (auto it = slice.edges.begin(); it != slice.edges.end();) {
      if (!it->first.is_index() && in_shard(it->first.vid())) {
        removed += it->second.size();
        it = slice.edges.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [key, vids] : slice.edges) {
      if (key.is_index()) {
        vids.erase(std::remove_if(vids.begin(), vids.end(), in_shard),
                   vids.end());
      }
    }
    slice.bytes = 0;
    for (const auto& [key, value_list] : slice.edges) {
      (void)key;
      slice.bytes += sizeof(Key) + 48 + value_list.capacity() * sizeof(VertexId);
    }
    total_bytes_ += slice.bytes;
  }
  return removed;
}

const TransientStore::Slice* TransientStore::FindSlice(BatchSeq seq) const {
  if (slices_.empty() || seq < slices_.front().seq || seq > slices_.back().seq) {
    return nullptr;
  }
  size_t idx = static_cast<size_t>(seq - slices_.front().seq);
  // Slices are dense in practice (every batch creates one, possibly empty);
  // fall back to scan if a gap exists.
  if (idx < slices_.size() && slices_[idx].seq == seq) {
    return &slices_[idx];
  }
  for (const Slice& s : slices_) {
    if (s.seq == seq) {
      return &s;
    }
  }
  return nullptr;
}

void TransientStore::GetNeighbors(BatchSeq seq, Key key,
                                  std::vector<VertexId>* out) const {
  std::lock_guard lock(mu_);
  const Slice* slice = FindSlice(seq);
  if (slice == nullptr) {
    return;
  }
  auto it = slice->edges.find(key);
  if (it == slice->edges.end()) {
    return;
  }
  out->insert(out->end(), it->second.begin(), it->second.end());
}

size_t TransientStore::EdgeCount(BatchSeq seq, Key key) const {
  std::lock_guard lock(mu_);
  const Slice* slice = FindSlice(seq);
  if (slice == nullptr) {
    return 0;
  }
  auto it = slice->edges.find(key);
  return it == slice->edges.end() ? 0 : it->second.size();
}

size_t TransientStore::EvictBeforeLocked(BatchSeq min_live_seq) {
  size_t freed = 0;
  while (!slices_.empty() && slices_.front().seq < min_live_seq) {
    total_bytes_ -= slices_.front().bytes;
    gc_stats_.bytes_reclaimed += slices_.front().bytes;
    slices_.pop_front();
    ++freed;
  }
  gc_stats_.slices_reclaimed += freed;
  return freed;
}

void TransientStore::SetEvictionListener(EvictionListener listener) {
  std::lock_guard lock(mu_);
  listener_ = std::move(listener);
}

size_t TransientStore::EvictBefore(BatchSeq min_live_seq) {
  size_t freed = 0;
  EvictionListener listener;
  {
    std::lock_guard lock(mu_);
    freed = EvictBeforeLocked(min_live_seq);
    listener = listener_;
  }
  NotifyEviction(listener, freed);
  return freed;
}

void TransientStore::SetGcHorizon(BatchSeq min_live_seq) {
  std::lock_guard lock(mu_);
  gc_horizon_ = std::max(gc_horizon_, min_live_seq);
}

size_t TransientStore::RunGc() {
  size_t freed = 0;
  EvictionListener listener;
  {
    std::lock_guard lock(mu_);
    freed = EvictBeforeLocked(gc_horizon_);
    listener = listener_;
  }
  NotifyEviction(listener, freed);
  return freed;
}

size_t TransientStore::SliceCount() const {
  std::lock_guard lock(mu_);
  return slices_.size();
}

size_t TransientStore::MemoryBytes() const {
  std::lock_guard lock(mu_);
  return total_bytes_;
}

BatchSeq TransientStore::OldestSeq() const {
  std::lock_guard lock(mu_);
  return slices_.empty() ? kNoBatch : slices_.front().seq;
}

BatchSeq TransientStore::NewestSeq() const {
  std::lock_guard lock(mu_);
  return slices_.empty() ? kNoBatch : slices_.back().seq;
}

TransientStore::GcStats TransientStore::gc_stats() const {
  std::lock_guard lock(mu_);
  return gc_stats_;
}

}  // namespace wukongs
