// Columnar binding-table property lane (DESIGN.md §5.13).
//
// Randomized pipelines over ColumnarTable must preserve the chunk invariants
// the executor's batched kernels rely on: selection vectors strictly
// increasing and in-bounds, every column of a chunk the same length, arena
// lifetime spanning chunk handoff (AppendTable, copies), and the row view
// keeping row order intact. The vectorized kernels are checked against
// scalar references, and the §5.13 arena-sharing semantics are pinned
// deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/engine/columnar.h"

namespace wukongs {
namespace {

using RowVec = std::vector<std::vector<VertexId>>;

// Active rows in table order, via the same walk the executor uses.
RowVec Flatten(const ColumnarTable& t) {
  RowVec out;
  t.ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
    std::vector<VertexId> row;
    row.reserve(ch.cols.size());
    for (const VertexId* col : ch.cols) {
      row.push_back(col[r]);
    }
    out.push_back(std::move(row));
  });
  return out;
}

RowVec Flatten(const BindingTable& t) {
  RowVec out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    out.emplace_back(t.Row(r), t.Row(r) + t.num_cols());
  }
  return out;
}

// The §5.13 chunk invariants. Row *content* is checked separately against a
// reference model; this validates the structure every kernel assumes.
::testing::AssertionResult ChunkInvariantsHold(const ColumnarTable& t) {
  size_t chunk_no = 0;
  for (const ColumnarChunk& ch : t.chunks()) {
    if (ch.cols.size() != t.num_cols()) {
      return ::testing::AssertionFailure()
             << "chunk " << chunk_no << ": " << ch.cols.size()
             << " columns, table declares " << t.num_cols();
    }
    for (const VertexId* col : ch.cols) {
      if (ch.size > 0 && col == nullptr) {
        return ::testing::AssertionFailure()
               << "chunk " << chunk_no << ": null column of length " << ch.size;
      }
    }
    if (!ch.dense) {
      if (ch.sel.size() > ch.size) {
        return ::testing::AssertionFailure()
               << "chunk " << chunk_no << ": selection larger than the chunk ("
               << ch.sel.size() << " > " << ch.size << ")";
      }
      for (size_t i = 0; i < ch.sel.size(); ++i) {
        if (ch.sel[i] >= ch.size) {
          return ::testing::AssertionFailure()
                 << "chunk " << chunk_no << ": sel[" << i << "]=" << ch.sel[i]
                 << " out of bounds (size " << ch.size << ")";
        }
        if (i > 0 && ch.sel[i] <= ch.sel[i - 1]) {
          return ::testing::AssertionFailure()
                 << "chunk " << chunk_no << ": selection not strictly "
                 << "increasing at " << i << " (" << ch.sel[i - 1] << " then "
                 << ch.sel[i] << ")";
        }
      }
    }
    ++chunk_no;
  }
  return ::testing::AssertionSuccess();
}

// Builds ~`nrows` random rows through a mix of the row-at-a-time writer and
// caller-filled batch chunks (the two write paths the executor uses).
void BuildRandom(Rng* rng, size_t ncols, size_t nrows, ColumnarTable* t,
                 RowVec* model) {
  size_t made = 0;
  while (made < nrows) {
    if (rng->Bernoulli(0.5)) {
      std::vector<VertexId> row(ncols);
      for (VertexId& v : row) {
        v = static_cast<VertexId>(rng->Uniform(1, 60));
      }
      t->AppendRow(row.data());
      model->push_back(row);
      ++made;
    } else {
      size_t n = std::min(nrows - made, rng->Uniform(1, 64));
      ColumnarChunk* ch = t->StartChunk(n);
      for (size_t r = 0; r < n; ++r) {
        std::vector<VertexId> row(ncols);
        for (size_t c = 0; c < ncols; ++c) {
          row[c] = static_cast<VertexId>(rng->Uniform(1, 60));
          ch->cols[c][r] = row[c];
        }
        model->push_back(std::move(row));
      }
      ch->size = n;
      made += n;
    }
  }
}

// Applies the same value predicate to the table (per-chunk selection vectors,
// exactly like columnar ApplyFilters) and to the reference model.
void FilterBoth(ColumnarTable* t, RowVec* model, VertexId mod) {
  for (ColumnarChunk& ch : t->chunks()) {
    std::vector<uint32_t> keep;
    auto test = [&](size_t r) {
      if (ch.cols[0][r] % mod != 0) {
        keep.push_back(static_cast<uint32_t>(r));
      }
    };
    if (ch.dense) {
      for (size_t r = 0; r < ch.size; ++r) {
        test(r);
      }
    } else {
      for (uint32_t r : ch.sel) {
        test(r);
      }
    }
    if (keep.size() != ch.active()) {
      ch.sel = std::move(keep);
      ch.dense = false;
    }
  }
  model->erase(std::remove_if(model->begin(), model->end(),
                              [mod](const std::vector<VertexId>& row) {
                                return row[0] % mod == 0;
                              }),
               model->end());
}

TEST(ColumnarChunkTest, RandomizedPipelinesKeepChunkInvariants) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const size_t ncols = rng.Uniform(1, 4);
    ColumnarTable t;
    for (size_t c = 0; c < ncols; ++c) {
      t.AddColumn(static_cast<int>(c));
    }
    RowVec model;
    BuildRandom(&rng, ncols, rng.Uniform(0, 200), &t, &model);
    ASSERT_TRUE(ChunkInvariantsHold(t)) << "seed " << seed;
    ASSERT_EQ(Flatten(t), model) << "seed " << seed << " after build";

    // Filter -> (maybe) compact -> bag-union a second random table, checking
    // structure and content after every step. This is the executor pipeline
    // in miniature: ApplyFilters, Compact, then a bag union of two tables.
    FilterBoth(&t, &model, static_cast<VertexId>(rng.Uniform(2, 5)));
    ASSERT_TRUE(ChunkInvariantsHold(t)) << "seed " << seed;
    ASSERT_EQ(Flatten(t), model) << "seed " << seed << " after filter";
    ASSERT_EQ(t.num_rows(), model.size()) << "seed " << seed;

    if (rng.Bernoulli(0.5)) {
      t.Compact();
      for (const ColumnarChunk& ch : t.chunks()) {
        EXPECT_TRUE(ch.dense) << "seed " << seed << ": Compact left a "
                              << "selection vector behind";
      }
      ASSERT_TRUE(ChunkInvariantsHold(t)) << "seed " << seed;
      ASSERT_EQ(Flatten(t), model) << "seed " << seed << " after compact";
    }

    ColumnarTable other;
    for (size_t c = 0; c < ncols; ++c) {
      other.AddColumn(static_cast<int>(c));
    }
    RowVec other_model;
    BuildRandom(&rng, ncols, rng.Uniform(0, 80), &other, &other_model);
    t.AppendTable(other);
    model.insert(model.end(), other_model.begin(), other_model.end());
    ASSERT_TRUE(ChunkInvariantsHold(t)) << "seed " << seed;
    ASSERT_EQ(Flatten(t), model) << "seed " << seed << " after union";

    // Copies share chunks without disturbing either side's content.
    ColumnarTable copy = t;
    ASSERT_TRUE(ChunkInvariantsHold(copy)) << "seed " << seed;
    ASSERT_EQ(Flatten(copy), model) << "seed " << seed << " copy diverged";
  }
}

TEST(ColumnarChunkTest, RowViewRoundTripPreservesOrder) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 977);
    const size_t ncols = rng.Uniform(1, 4);
    ColumnarTable t;
    for (size_t c = 0; c < ncols; ++c) {
      t.AddColumn(static_cast<int>(c) + 2);  // Non-trivial var slots.
    }
    RowVec model;
    BuildRandom(&rng, ncols, rng.Uniform(0, 120), &t, &model);
    if (rng.Bernoulli(0.6)) {
      FilterBoth(&t, &model, static_cast<VertexId>(rng.Uniform(2, 4)));
    }

    BindingTable rows = t.ToRows();
    ASSERT_EQ(rows.vars(), t.vars()) << "seed " << seed;
    ASSERT_EQ(Flatten(rows), model) << "seed " << seed << ": row view lost "
                                    << "content or order";
    ColumnarTable back;
    for (int v : rows.vars()) {
      back.AddColumn(v);
    }
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      back.AppendRow(rows.Row(r));
    }
    ASSERT_TRUE(ChunkInvariantsHold(back)) << "seed " << seed;
    ASSERT_EQ(back.vars(), t.vars()) << "seed " << seed;
    ASSERT_EQ(Flatten(back), model) << "seed " << seed << ": round trip "
                                    << "diverged";
  }
}

TEST(ColumnarChunkTest, RowViewKeepsUnitTableSemantics) {
  // A zero-column table is one implicit row until failed, exactly like
  // BindingTable — and the row view must carry that bit.
  ColumnarTable unit;
  EXPECT_EQ(unit.num_rows(), 1u);
  EXPECT_EQ(unit.ToRows().num_rows(), 1u);
  unit.FailUnit();
  EXPECT_EQ(unit.num_rows(), 0u);
  EXPECT_EQ(unit.ToRows().num_rows(), 0u);
}

TEST(ColumnarChunkTest, AdoptedChunksOutliveTheBuilder) {
  // Arena lifetime across handoff: a table that adopted chunks (AppendTable)
  // must keep the column data alive after the building table — the original
  // shared_ptr holder — is destroyed.
  ColumnarTable dest;
  dest.AddColumn(0);
  dest.AddColumn(1);
  RowVec model;
  {
    ColumnarTable src;
    src.AddColumn(0);
    src.AddColumn(1);
    Rng rng(7);
    BuildRandom(&rng, 2, 150, &src, &model);
    dest.AppendTable(src);
  }  // `src` (and its shared_ptr to the arena) is gone.
  ASSERT_TRUE(ChunkInvariantsHold(dest));
  EXPECT_EQ(Flatten(dest), model);

  // Same through the copy path.
  std::unique_ptr<ColumnarTable> original;
  {
    auto t = std::make_unique<ColumnarTable>();
    t->AddColumn(0);
    VertexId row[1] = {42};
    t->AppendRow(row);
    original = std::make_unique<ColumnarTable>(*t);
  }
  EXPECT_EQ(original->num_rows(), 1u);
  EXPECT_EQ(original->chunks()[0].cols[0][0], 42u);
}

TEST(ColumnarChunkTest, ScribbledArenaCorruptsEveryShareHolder) {
  // Because copies share arenas rather than copying column data, recycling
  // the building table's arena is visible through every copy. This is the
  // lifetime rule §5.13 states: no arena may be reset while any table still
  // references it.
  ColumnarTable t;
  t.AddColumn(0);
  VertexId row[1] = {5};
  t.AppendRow(row);
  ColumnarTable cached = t;  // Copy: shares the chunk + arena.
  ASSERT_EQ(cached.chunks()[0].cols[0][0], 5u);
  t.ScribbleArenasForTesting(static_cast<VertexId>(0xDEAD));
  EXPECT_EQ(cached.chunks()[0].cols[0][0], 0xDEADu)
      << "copies no longer share arenas";
}

TEST(ColumnarKernelTest, CountEqualMatchesScalarReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31);
    std::vector<VertexId> data(rng.Uniform(0, 300));
    for (VertexId& v : data) {
      v = static_cast<VertexId>(rng.Uniform(0, 8));
    }
    for (VertexId v = 0; v <= 8; ++v) {
      size_t want = static_cast<size_t>(
          std::count(data.begin(), data.end(), v));
      EXPECT_EQ(CountEqual(data.data(), data.size(), v), want)
          << "seed " << seed << " value " << v;
    }
  }
}

TEST(ColumnarKernelTest, GatherColumnMatchesScalarReference) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 131);
    std::vector<VertexId> src(1 + rng.Uniform(0, 200));
    for (VertexId& v : src) {
      v = static_cast<VertexId>(rng.Uniform(0, 1000));
    }
    std::vector<uint32_t> idx(rng.Uniform(0, 300));
    for (uint32_t& i : idx) {
      i = static_cast<uint32_t>(rng.Uniform(0, src.size() - 1));
    }
    std::vector<VertexId> dst(idx.size(), 0);
    GatherColumn(src.data(), idx.data(), idx.size(), dst.data());
    for (size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(dst[i], src[idx[i]]) << "seed " << seed << " at " << i;
    }
  }
}

TEST(ColumnarKernelTest, SpanCacheHitsAfterInsertAndMissesUnknownKeys) {
  SpanCache cache;
  std::vector<VertexId> a = {1, 2, 3};
  std::vector<VertexId> empty;
  cache.Insert(10, a.data(), a.size());
  cache.Insert(11, empty.data(), 0);  // Empty adjacency is a cacheable fact.

  const VertexId* nbrs = nullptr;
  size_t n = 0;
  ASSERT_TRUE(cache.Lookup(10, &nbrs, &n));
  EXPECT_EQ(nbrs, a.data()) << "Insert caches by reference, no copy";
  EXPECT_EQ(n, 3u);
  ASSERT_TRUE(cache.Lookup(11, &nbrs, &n));
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(cache.Lookup(12, &nbrs, &n));
}

TEST(ColumnarKernelTest, SpanCacheNeverReturnsWrongSpanUnderCollisions) {
  // 2 slots, probe limit 8: nearly every insert collides, so the cache is
  // exercised in permanent-eviction mode. A cache may forget (miss), but a
  // hit must always return exactly the span last inserted for that key.
  SpanCache cache(/*log2_slots=*/1);
  Rng rng(99);
  std::vector<std::vector<VertexId>> spans;
  std::vector<std::pair<VertexId, size_t>> inserted;  // key -> span index.
  for (int i = 0; i < 200; ++i) {
    VertexId key = static_cast<VertexId>(rng.Uniform(1, 12));
    spans.emplace_back(rng.Uniform(0, 5), static_cast<VertexId>(key * 100));
    cache.Insert(key, spans.back().data(), spans.back().size());
    std::erase_if(inserted, [&](const auto& e) { return e.first == key; });
    inserted.emplace_back(key, spans.size() - 1);

    for (const auto& [k, si] : inserted) {
      const VertexId* nbrs = nullptr;
      size_t n = 0;
      if (cache.Lookup(k, &nbrs, &n)) {
        EXPECT_EQ(nbrs, spans[si].data()) << "stale span for key " << k;
        EXPECT_EQ(n, spans[si].size());
      }
    }
  }
}

TEST(ColumnarKernelTest, SpanCacheInsertCopyOutlivesScratchAndEviction) {
  SpanCache cache(/*log2_slots=*/1);  // Tiny: guarantees eviction below.
  std::vector<const VertexId*> stable;
  std::vector<std::vector<VertexId>> want;
  {
    std::vector<VertexId> scratch;
    for (VertexId key = 1; key <= 32; ++key) {
      scratch.assign(3, key * 7);  // Reused buffer, as in the executor.
      stable.push_back(cache.InsertCopy(key, scratch.data(), scratch.size()));
      want.emplace_back(scratch);
      scratch.assign(scratch.size(), 0xFFFF);  // Clobber the transient copy.
    }
  }
  // Every returned pointer stays valid for the cache's lifetime even though
  // the 2-slot table evicted almost all of them and the scratch is gone.
  for (size_t i = 0; i < stable.size(); ++i) {
    EXPECT_TRUE(std::equal(want[i].begin(), want[i].end(), stable[i]))
        << "copied span " << i << " clobbered by eviction or scratch reuse";
  }
}

}  // namespace
}  // namespace wukongs
