#include "src/engine/columnar.h"

#include <algorithm>
#include <cassert>

namespace wukongs {

namespace {

// Thread-local freelist of recycled arena blocks (§5.13). Column arenas are
// query-lifetime: a window recompute allocates a few hundred KB of id
// columns and frees them microseconds later. Block-sized requests sit right
// at the allocator's mmap threshold, so without recycling every query pays
// munmap on teardown and first-touch page faults on the next — which
// dominates sub-millisecond recomputes. The pool keeps a bounded stack of
// freed blocks per thread and hands them to the next arena, first-fit by
// capacity.
struct BlockPool {
  struct Entry {
    std::unique_ptr<VertexId[]> data;
    size_t cap = 0;
  };
  static constexpr size_t kMaxPoolWords = 8 * 1024 * 1024;  // 64 MB.

  std::vector<Entry> entries;
  size_t pooled_words = 0;

  std::unique_ptr<VertexId[]> Take(size_t min_cap, size_t* cap) {
    for (size_t i = entries.size(); i-- > 0;) {
      if (entries[i].cap >= min_cap) {
        std::unique_ptr<VertexId[]> data = std::move(entries[i].data);
        *cap = entries[i].cap;
        pooled_words -= entries[i].cap;
        entries.erase(entries.begin() + static_cast<ptrdiff_t>(i));
        return data;
      }
    }
    return nullptr;
  }

  void Put(std::unique_ptr<VertexId[]> data, size_t cap) {
    if (pooled_words + cap > kMaxPoolWords) {
      return;  // Over budget: let the block free normally.
    }
    pooled_words += cap;
    entries.push_back(Entry{std::move(data), cap});
  }
};

BlockPool& Pool() {
  thread_local BlockPool pool;
  return pool;
}

}  // namespace

ColumnArena::~ColumnArena() {
  BlockPool& pool = Pool();
  for (Block& b : blocks_) {
    pool.Put(std::move(b.data), b.cap);
  }
}

VertexId* ColumnArena::Allocate(size_t n) {
  if (n == 0) {
    n = 1;  // Keep every column a distinct live span.
  }
  if (blocks_.empty() || blocks_.back().used + n > blocks_.back().cap) {
    Block b;
    b.data = Pool().Take(std::max(n, kBlockWords), &b.cap);
    if (b.data == nullptr) {
      b.cap = std::max(n, kBlockWords);
      // for_overwrite: columns are write-once and written before any read,
      // so zero-filling the block would be a wasted pass over it.
      b.data = std::make_unique_for_overwrite<VertexId[]>(b.cap);
    }
    blocks_.push_back(std::move(b));
  }
  Block& b = blocks_.back();
  VertexId* out = b.data.get() + b.used;
  b.used += n;
  allocated_words_ += n;
  return out;
}

void ColumnArena::ScribbleForTesting(VertexId value) {
  for (Block& b : blocks_) {
    std::fill(b.data.get(), b.data.get() + b.used, value);
  }
}

ColumnarTable::ColumnarTable(const ColumnarTable& other) { *this = other; }

ColumnarTable& ColumnarTable::operator=(const ColumnarTable& other) {
  if (this != &other) {
    vars_ = other.vars_;
    chunks_ = other.chunks_;
    own_ = other.own_;
    arenas_ = other.arenas_;
    open_capacity_ = 0;  // The trailing chunk belongs to `other`'s writer.
    unit_failed_ = other.unit_failed_;
  }
  return *this;
}

int ColumnarTable::ColumnOf(int var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t ColumnarTable::num_rows() const {
  if (vars_.empty()) {
    return unit_failed_ ? 0 : 1;
  }
  size_t n = 0;
  for (const ColumnarChunk& ch : chunks_) {
    n += ch.active();
  }
  return n;
}

int ColumnarTable::AddColumn(int var) {
  assert(ColumnOf(var) < 0);
  assert(chunks_.empty() && "AddColumn on a populated table; rebuild instead");
  vars_.push_back(var);
  return static_cast<int>(vars_.size() - 1);
}

ColumnArena* ColumnarTable::arena() {
  if (own_ == nullptr) {
    own_ = std::make_shared<ColumnArena>();
    arenas_.push_back(own_);
  }
  return own_.get();
}

ColumnarChunk ColumnarTable::MakeChunk(size_t cap) {
  ColumnarChunk ch;
  ch.cols.resize(vars_.size());
  ColumnArena* a = arena();
  for (size_t c = 0; c < vars_.size(); ++c) {
    ch.cols[c] = a->Allocate(cap);
  }
  return ch;
}

ColumnarChunk* ColumnarTable::StartChunk(size_t cap) {
  chunks_.push_back(MakeChunk(cap));
  open_capacity_ = cap;
  return &chunks_.back();
}

void ColumnarTable::AppendRow(const VertexId* row) {
  assert(!vars_.empty());
  if (chunks_.empty() || chunks_.back().size >= open_capacity_) {
    StartChunk(kColumnarChunkRows);
  }
  ColumnarChunk& ch = chunks_.back();
  for (size_t c = 0; c < vars_.size(); ++c) {
    ch.cols[c][ch.size] = row[c];
  }
  ++ch.size;
}

void ColumnarTable::AppendTable(const ColumnarTable& other) {
  assert(vars_ == other.vars_);
  for (const ColumnarChunk& ch : other.chunks_) {
    if (ch.active() > 0) {
      chunks_.push_back(ch);
    }
  }
  for (const auto& a : other.arenas_) {
    if (std::find(arenas_.begin(), arenas_.end(), a) == arenas_.end()) {
      arenas_.push_back(a);
    }
  }
  open_capacity_ = 0;  // The trailing chunk is adopted, hence immutable.
}

void ColumnarTable::Compact() {
  open_capacity_ = 0;
  for (ColumnarChunk& ch : chunks_) {
    if (ch.dense) {
      continue;
    }
    ColumnarChunk next = MakeChunk(ch.sel.size());
    for (size_t c = 0; c < vars_.size(); ++c) {
      GatherColumn(ch.cols[c], ch.sel.data(), ch.sel.size(), next.cols[c]);
    }
    next.size = ch.sel.size();
    ch = std::move(next);
  }
}

BindingTable ColumnarTable::ToRows() const {
  BindingTable rows;
  for (int v : vars_) {
    rows.AddColumn(v);
  }
  if (vars_.empty()) {
    if (unit_failed_) {
      rows.FailUnit();
    }
    return rows;
  }
  std::vector<VertexId> buf(vars_.size());
  ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
    for (size_t c = 0; c < buf.size(); ++c) {
      buf[c] = ch.cols[c][r];
    }
    rows.AppendRow(buf.data());
  });
  return rows;
}

size_t ColumnarTable::MemoryBytes() const {
  size_t bytes = vars_.capacity() * sizeof(int);
  for (const auto& a : arenas_) {
    bytes += a->bytes();
  }
  for (const ColumnarChunk& ch : chunks_) {
    bytes += ch.sel.capacity() * sizeof(uint32_t) +
             ch.cols.capacity() * sizeof(VertexId*);
  }
  return bytes;
}

void ColumnarTable::ScribbleArenasForTesting(VertexId value) {
  for (const auto& a : arenas_) {
    a->ScribbleForTesting(value);
  }
}

size_t CountEqual(const VertexId* data, size_t n, VertexId v) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    count += data[i] == v ? 1 : 0;
  }
  return count;
}

void GatherColumn(const VertexId* src, const uint32_t* idx, size_t n,
                  VertexId* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = src[idx[i]];
  }
}

SpanCache::SpanCache(size_t log2_slots)
    : slots_(size_t{1} << log2_slots), probe_limit_(8) {}

void SpanCache::Insert(VertexId v, const VertexId* nbrs, size_t n) {
  size_t s = SlotFor(v);
  size_t victim = s;
  for (size_t i = 0; i < probe_limit_; ++i) {
    size_t at = (s + i) & (slots_.size() - 1);
    Slot& slot = slots_[at];
    if (!slot.used || slot.key == v) {
      victim = at;
      break;
    }
  }
  // Full probe run: overwrite the home slot (eviction, not growth).
  slots_[victim] = Slot{v, nbrs, n, true};
}

const VertexId* SpanCache::InsertCopy(VertexId v, const VertexId* nbrs,
                                      size_t n) {
  pool_.emplace_back(nbrs, nbrs + n);
  const VertexId* stable = pool_.back().data();
  Insert(v, stable, n);
  return stable;
}

}  // namespace wukongs
