// Column-major (SoA) binding tables for graph-exploration execution
// (DESIGN.md §5.13).
//
// The executor's hot loops — pattern expansion, existence checks, FILTER
// evaluation — used to walk row-major BindingTables, paying a malloc'd
// vector insert per output row. A ColumnarTable instead stores bindings as
// fixed-capacity chunks of contiguous id columns carved out of a bump-
// allocated ColumnArena, with a per-chunk selection vector so pruning steps
// (existence checks, FILTERs) drop rows without copying anything. Pattern
// expansion becomes a batched scan-join: stage (source row, neighbor) pairs
// per chunk, then gather every column with a tight index loop the compiler
// can vectorize.
//
// Ownership rules:
//  - Column data is write-once: after a chunk is published into a table, its
//    id arrays are never mutated — only the (per-table-copy) selection
//    vector changes. Copying a table is therefore O(chunks).
//  - Arenas are shared_ptr-owned by every table that adopted chunks from
//    them (AppendTable, copies), so a chunk handed off outlives the table
//    that built it. Resetting or reusing an arena while any table still
//    references it is the lifetime bug ScribbleArenasForTesting simulates.
//  - The row view (ToRows) exists only for aggregation, which folds rows
//    into per-group state and keeps one row-major implementation; it
//    preserves row order exactly. Nothing converts rows back into chunks.

#ifndef SRC_ENGINE_COLUMNAR_H_
#define SRC_ENGINE_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/ids.h"
#include "src/engine/binding.h"

namespace wukongs {

// Nominal rows per chunk. Build-side guideline, not an invariant: a single
// high-fanout expansion may emit a larger chunk rather than split a source
// row's neighbor list across chunks.
inline constexpr size_t kColumnarChunkRows = 1024;

// Bump allocator for id columns. Blocks are never recycled while the arena
// lives; allocation never moves existing spans.
class ColumnArena {
 public:
  ColumnArena() = default;
  ~ColumnArena();
  ColumnArena(const ColumnArena&) = delete;
  ColumnArena& operator=(const ColumnArena&) = delete;

  VertexId* Allocate(size_t n);
  size_t bytes() const { return allocated_words_ * sizeof(VertexId); }

  // Overwrites every allocated word, simulating the arena being reset and
  // reused while chunks still point into it.
  void ScribbleForTesting(VertexId value);

 private:
  static constexpr size_t kBlockWords = 16 * 1024;
  struct Block {
    std::unique_ptr<VertexId[]> data;
    size_t used = 0;
    size_t cap = 0;
  };
  std::vector<Block> blocks_;
  size_t allocated_words_ = 0;
};

// One chunk: `cols[c]` holds `size` ids for variable slot c (same order for
// every column — "column length agreement"). When `dense` is false, `sel`
// lists the active physical rows, strictly increasing.
struct ColumnarChunk {
  std::vector<VertexId*> cols;
  size_t size = 0;
  bool dense = true;
  std::vector<uint32_t> sel;

  size_t active() const { return dense ? size : sel.size(); }

  // Calls fn(physical_row) for every active row in order. Fn may return
  // void, or bool (false stops the walk, and ForEachActive returns false).
  template <typename Fn>
  bool ForEachActive(Fn&& fn) const {
    auto call = [&](uint32_t r) -> bool {
      if constexpr (std::is_void_v<decltype(fn(r))>) {
        fn(r);
        return true;
      } else {
        return fn(r);
      }
    };
    if (dense) {
      for (size_t r = 0; r < size; ++r) {
        if (!call(static_cast<uint32_t>(r))) {
          return false;
        }
      }
    } else {
      for (uint32_t r : sel) {
        if (!call(r)) {
          return false;
        }
      }
    }
    return true;
  }
};

class ColumnarTable {
 public:
  ColumnarTable() = default;
  ColumnarTable(ColumnarTable&&) = default;
  ColumnarTable& operator=(ColumnarTable&&) = default;
  // Copies share chunks and arenas (column data is write-once) but close the
  // batch writer: a copy never extends the original's trailing chunk.
  ColumnarTable(const ColumnarTable& other);
  ColumnarTable& operator=(const ColumnarTable& other);

  // Column handling, mirroring BindingTable.
  int ColumnOf(int var) const;
  bool IsBound(int var) const { return ColumnOf(var) >= 0; }
  size_t num_cols() const { return vars_.size(); }
  const std::vector<int>& vars() const { return vars_; }

  // Active rows across all chunks. A table with zero columns has one
  // implicit "unit" row until explicitly failed, like BindingTable.
  size_t num_rows() const;
  void FailUnit() { unit_failed_ = true; }
  bool unit_failed() const { return unit_failed_; }

  int AddColumn(int var);  // Only while the table holds no chunks.

  std::vector<ColumnarChunk>& chunks() { return chunks_; }
  const std::vector<ColumnarChunk>& chunks() const { return chunks_; }

  // Batch writer: appends a fresh chunk whose columns can hold `cap` rows
  // and returns it for the caller to fill (set chunk->size when done). The
  // pointer is valid until the next chunk is added.
  ColumnarChunk* StartChunk(size_t cap);
  // Same allocation, but the chunk is returned by value so the caller can
  // splice it into place (e.g. replacing chunk i during an existence check).
  ColumnarChunk MakeChunk(size_t cap);

  // Row-at-a-time writer used by the OPTIONAL join's seed and merge.
  void AppendRow(const VertexId* row);

  // Bag union: adopts `other`'s chunks (and arena references) without
  // copying column data. Requires identical vars.
  void AppendTable(const ColumnarTable& other);

  // Materializes selections: rewrites non-dense chunks with only their
  // active rows, in order, into this table's own arena.
  void Compact();

  // Row view for aggregation (§5.13), in table order.
  BindingTable ToRows() const;

  size_t MemoryBytes() const;

  // Applies ColumnArena::ScribbleForTesting to every owned arena.
  void ScribbleArenasForTesting(VertexId value);

  // Iterates active rows in table order: fn(chunk, physical_row). Fn may
  // return void, or bool (false stops the walk).
  template <typename Fn>
  void ForEachActiveRow(Fn&& fn) const {
    for (const ColumnarChunk& ch : chunks_) {
      if (!ch.ForEachActive([&](uint32_t r) { return fn(ch, size_t{r}); })) {
        return;
      }
    }
  }

 private:
  ColumnArena* arena();

  std::vector<int> vars_;
  std::vector<ColumnarChunk> chunks_;
  // The arena this table allocates from (lazily created). Adopted arenas are
  // referenced via `arenas_` only — never allocated from.
  std::shared_ptr<ColumnArena> own_;
  // Every arena any chunk of this table points into (own_ included); see the
  // ownership rules in the header comment.
  std::vector<std::shared_ptr<ColumnArena>> arenas_;
  // Rows still writable in the trailing chunk (only chunks this table built
  // itself are ever written; adopted chunks are immutable).
  size_t open_capacity_ = 0;
  bool unit_failed_ = false;
};

// --- Vectorized kernels ----------------------------------------------------

// Occurrences of `v` in data[0..n). Tight branch-free-reducible loop.
size_t CountEqual(const VertexId* data, size_t n, VertexId v);

// dst[i] = src[idx[i]] for i in [0, n).
void GatherColumn(const VertexId* src, const uint32_t* idx, size_t n,
                  VertexId* dst);

// Flat adjacency-span cache for one pattern application, keyed by anchor
// vertex (the pattern fixes predicate and direction). After a non-selective
// expansion the anchor column repeats values heavily — every duplicate would
// re-probe the source's hash map (or re-pay a modeled remote read), so the
// chunk kernels consult this open-addressing table first. It is a cache, not
// a map: a full probe run evicts (overwrites) rather than growing, keeping
// probes O(1) and the footprint fixed. Spans inserted with Insert must
// outlive the cache's use (zero-copy sources); InsertCopy takes spans whose
// storage is transient (scratch buffers) and moves them into a pool the
// cache owns.
class SpanCache {
 public:
  // 2^log2_slots slots; the default (4K slots, 128 KB) keeps the probe table
  // L2-resident — anchor sets larger than that rarely repeat anyway.
  explicit SpanCache(size_t log2_slots = 12);

  // True on hit; *nbrs/*n are valid even for cached empty adjacency.
  // Inline: this probe sits on the per-row hot path of every expansion.
  bool Lookup(VertexId v, const VertexId** nbrs, size_t* n) const {
    size_t s = SlotFor(v);
    for (size_t i = 0; i < probe_limit_; ++i) {
      const Slot& slot = slots_[(s + i) & (slots_.size() - 1)];
      if (!slot.used) {
        return false;
      }
      if (slot.key == v) {
        *nbrs = slot.ptr;
        *n = slot.len;
        return true;
      }
    }
    return false;
  }

  // Caches [nbrs, nbrs+n) by reference. Caller guarantees span lifetime.
  void Insert(VertexId v, const VertexId* nbrs, size_t n);

  // Copies the span into cache-owned storage, caches it, and returns the
  // stable copy (valid for the cache's lifetime even if later evicted).
  const VertexId* InsertCopy(VertexId v, const VertexId* nbrs, size_t n);

 private:
  struct Slot {
    VertexId key = 0;
    const VertexId* ptr = nullptr;
    size_t len = 0;
    bool used = false;
  };
  size_t SlotFor(VertexId v) const {
    // SplitMix64 finalizer, same mixing as KeyHash.
    uint64_t x = v;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x) & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  size_t probe_limit_;
  // Owned copies from InsertCopy; deque-like stability via one vector per
  // entry (entries are never reused, only appended).
  std::vector<std::vector<VertexId>> pool_;
};

}  // namespace wukongs

#endif  // SRC_ENGINE_COLUMNAR_H_
