#include "src/store/gstore.h"

#include <algorithm>
#include <cassert>

namespace wukongs {

GStore::GStore(NodeId node) : node_(node) {}

uint32_t GStore::EdgeValue::VisibleEnd(SnapshotNum sn) const {
  uint32_t end = base_end;
  for (const SnapMarker& m : markers) {
    if (m.sn <= sn) {
      end = m.end;
    } else {
      break;
    }
  }
  return end;
}

void GStore::EdgeValue::Collapse(SnapshotNum floor) {
  size_t fold = 0;
  while (fold < markers.size() && markers[fold].sn <= floor) {
    base_end = markers[fold].end;
    ++fold;
  }
  if (fold > 0) {
    markers.erase(markers.begin(), markers.begin() + static_cast<long>(fold));
  }
}

void GStore::LoadTriple(const Triple& t) {
  AppendEdge(Key(t.subject, t.predicate, Dir::kOut), t.object, kBaseSnapshot);
  AppendEdge(Key(t.object, t.predicate, Dir::kIn), t.subject, kBaseSnapshot);
}

void GStore::LoadTriples(std::span<const Triple> triples) {
  for (const Triple& t : triples) {
    LoadTriple(t);
  }
}

void GStore::InjectTriple(const Triple& t, SnapshotNum sn,
                          std::vector<AppendSpan>* spans) {
  InjectEdge(Key(t.subject, t.predicate, Dir::kOut), t.object, sn, spans);
  InjectEdge(Key(t.object, t.predicate, Dir::kIn), t.subject, sn, spans);
}

void GStore::InjectEdge(Key key, VertexId value, SnapshotNum sn,
                        std::vector<AppendSpan>* spans) {
  AppendSpan s = AppendEdge(key, value, sn, spans);
  stream_appended_edges_.fetch_add(1, std::memory_order_relaxed);
  if (spans != nullptr) {
    spans->push_back(s);
  }
}

AppendSpan GStore::AppendEdge(Key key, VertexId value, SnapshotNum sn,
                              std::vector<AppendSpan>* extra_spans) {
  return AppendEdgeImpl(key, value, sn, extra_spans, /*migrated=*/false);
}

void GStore::InjectEdgeMigrated(Key key, VertexId value, SnapshotNum sn,
                                std::vector<AppendSpan>* spans) {
  AppendSpan s = AppendEdgeImpl(key, value, sn, spans, /*migrated=*/true);
  if (spans != nullptr) {
    spans->push_back(s);
  }
}

AppendSpan GStore::AppendEdgeImpl(Key key, VertexId value, SnapshotNum sn,
                                  std::vector<AppendSpan>* extra_spans,
                                  bool migrated) {
  bool created = false;
  AppendSpan span;
  {
    Stripe& stripe = StripeFor(key);
    std::unique_lock lock(stripe.mu);
    auto [it, inserted] = stripe.map.try_emplace(key);
    created = inserted;
    EdgeValue& v = it->second;
    v.Collapse(collapse_floor_.load(std::memory_order_relaxed));
    span.key = key;
    span.start = static_cast<uint32_t>(v.edges.size());
    span.count = 1;
    v.edges.push_back(value);
    uint32_t end = static_cast<uint32_t>(v.edges.size());
    if (sn <= kBaseSnapshot) {
      if (migrated && !v.markers.empty()) {
        // Migration base copy landing after dual-applied live batches (the
        // key already carries markers on the target): fold into the newest
        // snapshot rather than rewriting the base prefix under it. Deferred
        // visibility; safe because the cutover barrier holds the epoch bump
        // until Stable_SN covers every marker created during the transfer.
        v.markers.back().end = end;
      } else {
        // Bulk load: base prefix, no marker needed. Markers, if any, keep
        // their offsets valid because bulk load never interleaves with
        // injection on the same key.
        assert(v.markers.empty());
        v.base_end = end;
      }
    } else if (!v.markers.empty() && v.markers.back().sn >= sn) {
      // Same snapshot: extend its interval. A *smaller* snapshot here means
      // two streams skewed past each other on a shared key (one ran ahead of
      // the announced plan); the value cannot stay SN-consecutive, so the
      // late append folds into the newest snapshot — deferred visibility,
      // never an unordered marker list. The Cluster minimizes skew by
      // injecting cross-stream batches in sequence order.
      v.markers.back().end = end;
    } else {
      v.markers.push_back(SnapMarker{sn, end});
      if (!v.marked) {
        v.marked = true;
        stripe.marked.push_back(key);
      }
    }
  }
  if (migrated) {
    migrated_in_.fetch_add(1, std::memory_order_relaxed);
  } else {
    edge_total_.fetch_add(1, std::memory_order_relaxed);
  }

  // Maintain the index vertex: a normal key created for the first time means
  // vertex `key.vid()` now has a (pid, dir) edge, so it joins the index list.
  if (created && !key.is_index()) {
    AppendSpan idx = AppendEdgeImpl(Key(kIndexVertex, key.pid(), key.dir()),
                                    key.vid(), sn, nullptr, migrated);
    if (extra_spans != nullptr) {
      extra_spans->push_back(idx);
    }
  }
  return span;
}

std::vector<VertexId> GStore::GetEdges(Key key, SnapshotNum sn) const {
  std::vector<VertexId> out;
  GetEdgesInto(key, sn, &out);
  return out;
}

void GStore::GetEdgesInto(Key key, SnapshotNum sn, std::vector<VertexId>* out) const {
  out->clear();
  const Stripe& stripe = StripeFor(key);
  std::shared_lock lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return;
  }
  uint32_t end = it->second.VisibleEnd(sn);
  out->assign(it->second.edges.begin(), it->second.edges.begin() + end);
}

void GStore::GetSpanInto(Key key, uint32_t start, uint32_t count,
                         std::vector<VertexId>* out) const {
  const Stripe& stripe = StripeFor(key);
  std::shared_lock lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return;
  }
  const auto& edges = it->second.edges;
  uint32_t size = static_cast<uint32_t>(edges.size());
  uint32_t lo = std::min(start, size);
  uint32_t hi = std::min(start + count, size);
  out->insert(out->end(), edges.begin() + lo, edges.begin() + hi);
}

bool GStore::HasEdge(Key key, VertexId value, SnapshotNum sn) const {
  const Stripe& stripe = StripeFor(key);
  std::shared_lock lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return false;
  }
  uint32_t end = it->second.VisibleEnd(sn);
  const auto& edges = it->second.edges;
  return std::find(edges.begin(), edges.begin() + end, value) !=
         edges.begin() + end;
}

size_t GStore::EdgeCount(Key key, SnapshotNum sn) const {
  const Stripe& stripe = StripeFor(key);
  std::shared_lock lock(stripe.mu);
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    return 0;
  }
  return it->second.VisibleEnd(sn);
}

void GStore::CollapseBelow(SnapshotNum floor) {
  SnapshotNum prev = collapse_floor_.load(std::memory_order_relaxed);
  if (prev >= floor) {
    return;
  }
  while (prev < floor && !collapse_floor_.compare_exchange_weak(
                             prev, floor, std::memory_order_relaxed)) {
  }
  // Fold now so reclaimed marker metadata is visible immediately. Only the
  // listed keys can hold markers; keep those that still hold one above the
  // floor. PurgeShard unlists the keys it erases; a listed key missing from
  // the map is skipped all the same.
  uint64_t visited = 0;
  for (Stripe& stripe : stripes_) {
    std::unique_lock lock(stripe.mu);
    visited += stripe.marked.size();
    size_t keep = 0;
    for (Key key : stripe.marked) {
      auto it = stripe.map.find(key);
      if (it == stripe.map.end()) {
        continue;
      }
      EdgeValue& v = it->second;
      v.Collapse(floor);
      if (v.markers.empty()) {
        v.marked = false;
      } else {
        stripe.marked[keep++] = key;
      }
    }
    stripe.marked.resize(keep);
  }
  collapse_keys_visited_.fetch_add(visited, std::memory_order_relaxed);
}

size_t GStore::PurgeShard(const std::function<bool(VertexId)>& in_shard) {
  size_t removed_edges = 0;
  for (Stripe& stripe : stripes_) {
    std::unique_lock lock(stripe.mu);
    // Erased keys leave the marked-key list too, so a key re-created later
    // is listed once, by its own first marker.
    std::erase_if(stripe.marked, [&](Key key) {
      return !key.is_index() && in_shard(key.vid());
    });
    for (auto it = stripe.map.begin(); it != stripe.map.end();) {
      EdgeValue& v = it->second;
      if (!it->first.is_index()) {
        if (in_shard(it->first.vid())) {
          removed_edges += v.edges.size();
          it = stripe.map.erase(it);
        } else {
          ++it;
        }
        continue;
      }
      // Index key: vertices of many shards share the list, so compact the
      // matched ones out and remap every visibility offset (base_end and the
      // snapshot markers) past the removed slots. Offsets recorded elsewhere
      // (stream-index spans on index keys) are never read by window lookups —
      // those go through the materialized seed lists, purged separately.
      const uint32_t n = static_cast<uint32_t>(v.edges.size());
      std::vector<uint32_t> removed_before(n + 1, 0);
      uint32_t write = 0;
      for (uint32_t i = 0; i < n; ++i) {
        const bool match = in_shard(v.edges[i]);
        removed_before[i + 1] = removed_before[i] + (match ? 1u : 0u);
        if (!match) {
          v.edges[write++] = v.edges[i];
        }
      }
      if (removed_before[n] != 0) {
        removed_edges += removed_before[n];
        v.edges.resize(write);
        v.base_end -= removed_before[v.base_end];
        for (SnapMarker& m : v.markers) {
          m.end -= removed_before[m.end];
        }
      }
      ++it;
    }
  }
  return removed_edges;
}

size_t GStore::KeyCount() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::shared_lock lock(s.mu);
    n += s.map.size();
  }
  return n;
}

size_t GStore::EdgeCountTotal() const {
  return edge_total_.load(std::memory_order_relaxed);
}

size_t GStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const Stripe& s : stripes_) {
    std::shared_lock lock(s.mu);
    bytes += s.marked.capacity() * sizeof(Key);
    for (const auto& [key, value] : s.map) {
      bytes += sizeof(Key) + sizeof(EdgeValue) + 32;  // Map node overhead.
      bytes += value.edges.capacity() * sizeof(VertexId);
      bytes += value.markers.capacity() * sizeof(SnapMarker);
    }
  }
  return bytes;
}

size_t GStore::SnapshotMetadataBytes() const {
  size_t bytes = 0;
  for (const Stripe& s : stripes_) {
    std::shared_lock lock(s.mu);
    for (const auto& [key, value] : s.map) {
      bytes += value.markers.size() * sizeof(SnapMarker);
    }
  }
  return bytes;
}

}  // namespace wukongs
