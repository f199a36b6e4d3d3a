#include "src/stream/stream_index.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/common/test_hooks.h"

namespace wukongs {

void StreamIndex::AddBatch(BatchSeq seq, const std::vector<AppendSpan>& spans) {
  std::lock_guard lock(mu_);
  assert(batches_.empty() || batches_.back().seq < seq);
  BatchIndex bi;
  bi.seq = seq;
  for (const AppendSpan& s : spans) {
    auto& list = bi.spans[s.key];
    // Coalesce with the previous span when appends were contiguous, which is
    // the common case since one batch appends to a key back-to-back.
    if (!list.empty() && list.back().start + list.back().count == s.start) {
      list.back().count += s.count;
    } else {
      list.push_back(IndexSpan{s.start, s.count});
    }
  }
  // Derive window seeds from the touched normal keys (deduped by map key).
  for (const auto& [key, list] : bi.spans) {
    if (!key.is_index()) {
      bi.seeds[Key(kIndexVertex, key.pid(), key.dir()).packed()].push_back(
          key.vid());
    }
  }
  // Accounting follows the paper's physical layout (§4.2): one entry per
  // (key, span) holding the 64-bit key plus a 96-bit fat pointer
  // (address + size), and the per-batch seed lists as packed vid arrays.
  constexpr size_t kEntryBytes = 8 + 12;
  for (const auto& [key, list] : bi.spans) {
    bi.bytes += list.size() * kEntryBytes;
  }
  for (const auto& [key, list] : bi.seeds) {
    bi.bytes += 8 + list.size() * sizeof(VertexId);
  }
  total_bytes_ += bi.bytes;
  batches_.push_back(std::move(bi));
}

bool StreamIndex::MergeBatch(BatchSeq seq, const std::vector<AppendSpan>& spans) {
  std::lock_guard lock(mu_);
  BatchIndex* bi = const_cast<BatchIndex*>(FindBatch(seq));
  if (bi == nullptr) {
    if (seq < evicted_below_) {
      return false;  // GC horizon passed it: no live window reaches it.
    }
    // Never indexed here: the node joined after this batch was delivered.
    // Materialize it in sequence order so replayed history is queryable
    // (FindBatch's dense fast path misses, its scan fallback still finds it).
    auto it = std::lower_bound(
        batches_.begin(), batches_.end(), seq,
        [](const BatchIndex& b, BatchSeq s) { return b.seq < s; });
    BatchIndex fresh;
    fresh.seq = seq;
    bi = &*batches_.insert(it, std::move(fresh));
  }
  total_bytes_ -= bi->bytes;
  for (const AppendSpan& s : spans) {
    bool seen = bi->spans.count(s.key) > 0;
    auto& list = bi->spans[s.key];
    if (!list.empty() && list.back().start + list.back().count == s.start) {
      list.back().count += s.count;
    } else {
      list.push_back(IndexSpan{s.start, s.count});
    }
    // A normal key newly touched in this batch joins the window seeds, same
    // as AddBatch's derivation (deduped within the batch, not across).
    if (!seen && !s.key.is_index()) {
      bi->seeds[Key(kIndexVertex, s.key.pid(), s.key.dir()).packed()].push_back(
          s.key.vid());
    }
  }
  bi->bytes = 0;
  constexpr size_t kEntryBytes = 8 + 12;
  for (const auto& [key, list] : bi->spans) {
    bi->bytes += list.size() * kEntryBytes;
  }
  for (const auto& [key, list] : bi->seeds) {
    bi->bytes += 8 + list.size() * sizeof(VertexId);
  }
  total_bytes_ += bi->bytes;
  return true;
}

size_t StreamIndex::PurgeShard(const std::function<bool(VertexId)>& in_shard) {
  std::lock_guard lock(mu_);
  size_t removed = 0;
  constexpr size_t kEntryBytes = 8 + 12;
  for (BatchIndex& bi : batches_) {
    total_bytes_ -= bi.bytes;
    for (auto it = bi.spans.begin(); it != bi.spans.end();) {
      if (!it->first.is_index() && in_shard(it->first.vid())) {
        ++removed;
        it = bi.spans.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [packed, vids] : bi.seeds) {
      (void)packed;
      vids.erase(std::remove_if(vids.begin(), vids.end(), in_shard),
                 vids.end());
    }
    bi.bytes = 0;
    for (const auto& [key, list] : bi.spans) {
      (void)key;
      bi.bytes += list.size() * kEntryBytes;
    }
    for (const auto& [packed, list] : bi.seeds) {
      (void)packed;
      bi.bytes += 8 + list.size() * sizeof(VertexId);
    }
    total_bytes_ += bi.bytes;
  }
  return removed;
}

const StreamIndex::BatchIndex* StreamIndex::FindBatch(BatchSeq seq) const {
  if (batches_.empty() || seq < batches_.front().seq || seq > batches_.back().seq) {
    return nullptr;
  }
  size_t idx = static_cast<size_t>(seq - batches_.front().seq);
  if (idx < batches_.size() && batches_[idx].seq == seq) {
    return &batches_[idx];
  }
  for (const BatchIndex& b : batches_) {
    if (b.seq == seq) {
      return &b;
    }
  }
  return nullptr;
}

bool StreamIndex::GetSpans(BatchSeq seq, Key key, std::vector<IndexSpan>* out) const {
  std::lock_guard lock(mu_);
  const BatchIndex* bi = FindBatch(seq);
  if (bi == nullptr) {
    ++lookups_.misses;
    return false;
  }
  ++lookups_.hits;
  auto it = bi->spans.find(key);
  if (it != bi->spans.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return true;
}

size_t StreamIndex::SpanEdgeCount(BatchSeq seq, Key key) const {
  std::lock_guard lock(mu_);
  const BatchIndex* bi = FindBatch(seq);
  if (bi == nullptr) {
    return 0;
  }
  auto it = bi->spans.find(key);
  if (it == bi->spans.end()) {
    return 0;
  }
  size_t n = 0;
  for (const IndexSpan& s : it->second) {
    n += s.count;
  }
  return n;
}

bool StreamIndex::GetSeeds(BatchSeq seq, PredicateId pid, Dir dir,
                           std::vector<VertexId>* out) const {
  std::lock_guard lock(mu_);
  const BatchIndex* bi = FindBatch(seq);
  if (bi == nullptr) {
    ++lookups_.misses;
    return false;
  }
  ++lookups_.hits;
  auto it = bi->seeds.find(Key(kIndexVertex, pid, dir).packed());
  if (it != bi->seeds.end()) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return true;
}

size_t StreamIndex::SeedCount(BatchSeq seq, PredicateId pid, Dir dir) const {
  std::lock_guard lock(mu_);
  const BatchIndex* bi = FindBatch(seq);
  if (bi == nullptr) {
    return 0;
  }
  auto it = bi->seeds.find(Key(kIndexVertex, pid, dir).packed());
  return it == bi->seeds.end() ? 0 : it->second.size();
}

StreamIndex::LookupStats StreamIndex::lookup_stats() const {
  std::lock_guard lock(mu_);
  return lookups_;
}

void StreamIndex::SetEvictionListener(EvictionListener listener) {
  std::lock_guard lock(mu_);
  listener_ = std::move(listener);
}

size_t StreamIndex::EvictBefore(BatchSeq min_live_seq) {
  size_t freed = 0;
  EvictionListener listener;
  {
    std::lock_guard lock(mu_);
    while (!batches_.empty() && batches_.front().seq < min_live_seq) {
      total_bytes_ -= batches_.front().bytes;
      batches_.pop_front();
      ++freed;
    }
    evicted_below_ = std::max(evicted_below_, min_live_seq);
    listener = listener_;
  }
  // Fired outside the lock, so the listener may take its own locks. The
  // planted skip_eviction_listeners fault suppresses the notification.
  if (freed > 0 && listener &&
      !test_hooks::skip_eviction_listeners.load(std::memory_order_relaxed)) {
    listener();
  }
  return freed;
}

size_t StreamIndex::BatchCount() const {
  std::lock_guard lock(mu_);
  return batches_.size();
}

size_t StreamIndex::MemoryBytes() const {
  std::lock_guard lock(mu_);
  return total_bytes_;
}

BatchSeq StreamIndex::OldestSeq() const {
  std::lock_guard lock(mu_);
  return batches_.empty() ? kNoBatch : batches_.front().seq;
}

BatchSeq StreamIndex::NewestSeq() const {
  std::lock_guard lock(mu_);
  return batches_.empty() ? kNoBatch : batches_.back().seq;
}

}  // namespace wukongs
