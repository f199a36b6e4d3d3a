#include "src/engine/executor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "src/common/test_hooks.h"
#include "src/obs/metrics.h"

namespace wukongs {
namespace {

const NeighborSource* SourceFor(const ExecContext& ctx, int graph) {
  size_t idx = graph == kGraphStored ? 0 : static_cast<size_t>(graph) + 1;
  assert(idx < ctx.sources.size());
  return ctx.sources[idx];
}

// Per-stage executor span, inert when tracing is off.
obs::Tracer::Span StageSpan(const ExecContext& ctx, const char* name) {
  if (ctx.tracer != nullptr) {
    return ctx.tracer->StartSpan("exec", name, ctx.trace_node);
  }
  return {};
}

// Adjacency fetch with a zero-copy fast path: sources that expose contiguous
// neighbor spans (in-memory stores) skip the per-key vector fill entirely;
// everything else lands in a reused scratch buffer. The returned span is only
// valid until the next Fetch.
class NeighborCursor {
 public:
  explicit NeighborCursor(const NeighborSource& src) : src_(src) {}

  const VertexId* Fetch(Key key, size_t* n) {
    const VertexId* span = src_.NeighborSpan(key, n);
    if (span != nullptr) {
      return span;
    }
    scratch_.clear();
    src_.GetNeighbors(key, &scratch_);
    *n = scratch_.size();
    return scratch_.data();
  }

 private:
  const NeighborSource& src_;
  std::vector<VertexId> scratch_;
};

// Columnar fetch path: cursor plus the per-pattern SpanCache (§5.13). A
// pattern fixes predicate and direction, so the cache keys on the anchor
// vertex alone. Non-selective expansions repeat anchors heavily (every row
// that came out of a fan-out shares its upstream bindings); each repeat
// becomes one flat L2-resident probe instead of a source hash lookup — or,
// on fabric-backed sources, a re-charged remote read.
class CachedCursor {
 public:
  CachedCursor(const NeighborSource& src, PredicateId pid, Dir dir)
      : src_(src), pid_(pid), dir_(dir) {}

  const VertexId* Fetch(VertexId anchor, size_t* n) {
    const VertexId* hit = nullptr;
    if (cache_.Lookup(anchor, &hit, n)) {
      return hit;
    }
    Key key(anchor, pid_, dir_);
    const VertexId* span = src_.NeighborSpan(key, n);
    if (span != nullptr) {
      cache_.Insert(anchor, span, *n);
      return span;
    }
    scratch_.clear();
    src_.GetNeighbors(key, &scratch_);
    *n = scratch_.size();
    return cache_.InsertCopy(anchor, scratch_.data(), scratch_.size());
  }

 private:
  const NeighborSource& src_;
  PredicateId pid_;
  Dir dir_;
  SpanCache cache_;
  std::vector<VertexId> scratch_;
};

// Numeric FILTER predicate over one binding. Sets *keep; fails when there is
// no string server to read the binding's number from.
Status EvalNumericFilter(const FilterExpr& f, VertexId v,
                         const StringServer* strings, bool* keep) {
  *keep = false;
  if (strings == nullptr) {
    return Status::FailedPrecondition("numeric FILTER needs a string server");
  }
  auto str = strings->VertexString(v);
  if (!str.ok()) {
    return Status::Ok();
  }
  char* end = nullptr;
  double num = std::strtod(str->c_str(), &end);
  if (end == str->c_str()) {
    return Status::Ok();  // Non-numeric binding never matches a numeric filter.
  }
  switch (f.op) {
    case FilterExpr::Op::kLt:
      *keep = num < f.number;
      break;
    case FilterExpr::Op::kLe:
      *keep = num <= f.number;
      break;
    case FilterExpr::Op::kGt:
      *keep = num > f.number;
      break;
    case FilterExpr::Op::kGe:
      *keep = num >= f.number;
      break;
    case FilterExpr::Op::kEq:
      *keep = num == f.number;
      break;
    case FilterExpr::Op::kNe:
      *keep = num != f.number;
      break;
  }
  return Status::Ok();
}

// --- Columnar scan-join (DESIGN.md §5.13) ----------------------------------
//
// Row enumeration order is a contract: every case below emits surviving rows
// source row by source row (chunks in order, rows in order, neighbors in
// adjacency order). The batched OPTIONAL join merges group matches back onto
// the left table by row ordinal and relies on it, and a query without ORDER
// BY gets a deterministic row order from it.

// Two-pass batched expansion of one chunk (§5.13). Pass one (the caller's
// scan) resolves each surviving row's adjacency span — through the pattern's
// SpanCache, so repeated anchors cost one flat probe — into parallel
// span/count/row arrays. Pass two here sizes the output chunk exactly and
// writes every column directly: carried columns as run-filled reads of the
// source column, the new binding as straight span copies. No staging of the
// cross product, no per-row allocation; each emitted value is written once.
//
// Span lifetime: entries come from the source's contiguous adjacency
// (stable until the source mutates) or from the SpanCache's copy pool
// (stable for the cache's lifetime, even across evictions), so holding them
// for the whole chunk is safe.
struct ExpansionScratch {
  std::vector<const VertexId*> spans;
  std::vector<uint32_t> counts;
  std::vector<uint32_t> rows;  // Physical source row per surviving entry.
  size_t total = 0;            // Sum of counts.

  void Clear(size_t expect = 0) {
    spans.clear();
    counts.clear();
    rows.clear();
    total = 0;
    if (expect > 0) {
      spans.reserve(expect);
      counts.reserve(expect);
      rows.reserve(expect);
    }
  }
  void Push(uint32_t row, const VertexId* nbrs, size_t n) {
    if (n == 0) {
      return;
    }
    spans.push_back(nbrs);
    counts.push_back(static_cast<uint32_t>(n));
    rows.push_back(row);
    total += n;
  }
};

void ExpandChunk(ColumnarTable* next, const ColumnarChunk& ch, size_t old_cols,
                 const ExpansionScratch& s) {
  if (s.total == 0) {
    return;
  }
  ColumnarChunk* out = next->StartChunk(s.total);
  if (s.total == s.rows.size()) {
    // Every surviving row matched exactly one edge (fanout-1 predicates,
    // e.g. functional properties): carried columns reduce to plain gathers
    // and the new binding to one dereference per row.
    for (size_t c = 0; c < old_cols; ++c) {
      GatherColumn(ch.cols[c], s.rows.data(), s.rows.size(), out->cols[c]);
    }
    VertexId* dst = out->cols[old_cols];
    for (size_t i = 0; i < s.spans.size(); ++i) {
      dst[i] = *s.spans[i];
    }
    out->size = s.total;
    return;
  }
  for (size_t c = 0; c < old_cols; ++c) {
    const VertexId* src_col = ch.cols[c];
    VertexId* dst = out->cols[c];
    size_t at = 0;
    for (size_t i = 0; i < s.rows.size(); ++i) {
      const VertexId v = src_col[s.rows[i]];
      const uint32_t run = s.counts[i];
      for (uint32_t k = 0; k < run; ++k) {
        dst[at + k] = v;
      }
      at += run;
    }
  }
  VertexId* dst = out->cols[old_cols];
  size_t at = 0;
  for (size_t i = 0; i < s.rows.size(); ++i) {
    std::copy(s.spans[i], s.spans[i] + s.counts[i], dst + at);
    at += s.counts[i];
  }
  out->size = s.total;
}

// Applies one triple pattern to a columnar `table`.
Status ApplyPatternColumnar(const TriplePattern& p, const NeighborSource& src,
                            ColumnarTable* table) {
  const bool s_var = p.subject.is_var();
  const bool o_var = p.object.is_var();
  const int s_col = s_var ? table->ColumnOf(p.subject.var) : -1;
  const int o_col = o_var ? table->ColumnOf(p.object.var) : -1;
  const bool s_known = !s_var || s_col >= 0;
  const bool o_known = !o_var || o_col >= 0;
  const size_t old_cols = table->num_cols();
  NeighborCursor cursor(src);

  if (s_known && o_known) {
    if (old_cols == 0) {
      // Unit table: single check on the constant endpoints.
      size_t n = 0;
      const VertexId* nbrs =
          cursor.Fetch(Key(p.subject.constant, p.predicate, Dir::kOut), &n);
      if (CountEqual(nbrs, n, p.object.constant) == 0) {
        table->FailUnit();
      }
      return Status::Ok();
    }
    // Existence check. The common case — every surviving row matched exactly
    // one edge — shrinks the chunk in place through its selection vector,
    // touching no column data. Only a duplicated edge (bag multiplicity > 1)
    // forces a materialized rebuild, reusing the multiplicities from the
    // scan so no neighbor list is fetched twice.
    size_t const_n = 0;
    const VertexId* const_nbrs = nullptr;
    if (!s_var) {
      const_nbrs =
          cursor.Fetch(Key(p.subject.constant, p.predicate, Dir::kOut), &const_n);
    }
    CachedCursor cached(src, p.predicate, Dir::kOut);
    std::vector<uint32_t> keep;
    std::vector<std::pair<uint32_t, uint32_t>> mults;  // (physical row, mult)
    for (ColumnarChunk& ch : table->chunks()) {
      keep.clear();
      mults.clear();
      bool has_dup = false;
      ch.ForEachActive([&](uint32_t r) {
        VertexId obj = o_var ? ch.cols[o_col][r] : p.object.constant;
        size_t n = const_n;
        const VertexId* nbrs = const_nbrs;
        if (s_var) {
          nbrs = cached.Fetch(ch.cols[s_col][r], &n);
        }
        size_t mult = CountEqual(nbrs, n, obj);
        if (mult > 0) {
          keep.push_back(r);
          mults.emplace_back(r, static_cast<uint32_t>(mult));
          has_dup = has_dup || mult > 1;
        }
      });
      if (has_dup) {
        std::vector<uint32_t> idx;
        for (const auto& [r, m] : mults) {
          idx.insert(idx.end(), m, r);
        }
        ColumnarChunk next = table->MakeChunk(idx.size());
        for (size_t c = 0; c < old_cols; ++c) {
          GatherColumn(ch.cols[c], idx.data(), idx.size(), next.cols[c]);
        }
        next.size = idx.size();
        ch = std::move(next);
      } else if (keep.size() != ch.active()) {
        ch.sel = keep;
        ch.dense = false;
      }
    }
    return Status::Ok();
  }

  if (s_known != o_known) {
    // Expansion: forward over out-edges binds the object variable, backward
    // over in-edges binds the subject.
    const bool forward = s_known;
    const Dir dir = forward ? Dir::kOut : Dir::kIn;
    const Term& anchor = forward ? p.subject : p.object;
    const int anchor_col = forward ? s_col : o_col;
    const int new_var = forward ? p.object.var : p.subject.var;

    ColumnarTable next;
    for (int v : table->vars()) {
      next.AddColumn(v);
    }
    next.AddColumn(new_var);
    if (old_cols == 0) {
      size_t n = 0;
      const VertexId* nbrs = cursor.Fetch(Key(anchor.constant, p.predicate, dir), &n);
      if (n > 0) {
        ColumnarChunk* out = next.StartChunk(n);
        std::copy(nbrs, nbrs + n, out->cols[0]);
        out->size = n;
      }
      *table = std::move(next);
      return Status::Ok();
    }
    // A constant anchor means one adjacency list serves every row.
    size_t const_n = 0;
    const VertexId* const_nbrs = nullptr;
    if (!anchor.is_var()) {
      const_nbrs = cursor.Fetch(Key(anchor.constant, p.predicate, dir), &const_n);
    }
    CachedCursor cached(src, p.predicate, dir);
    ExpansionScratch scratch;
    for (const ColumnarChunk& ch : table->chunks()) {
      scratch.Clear(ch.active());
      ch.ForEachActive([&](uint32_t r) {
        size_t n = const_n;
        const VertexId* nbrs = const_nbrs;
        if (anchor.is_var()) {
          nbrs = cached.Fetch(ch.cols[anchor_col][r], &n);
        }
        scratch.Push(r, nbrs, n);
      });
      ExpandChunk(&next, ch, old_cols, scratch);
    }
    *table = std::move(next);
    return Status::Ok();
  }

  // Neither endpoint known: seed subjects from the index vertex, cartesian
  // with existing rows, then expand objects from the bound subject column.
  std::vector<VertexId> subjects;
  src.GetNeighbors(Key(kIndexVertex, p.predicate, Dir::kOut), &subjects);

  ColumnarTable mid;
  for (int v : table->vars()) {
    mid.AddColumn(v);
  }
  mid.AddColumn(p.subject.var);
  if (old_cols == 0) {
    if (!subjects.empty()) {
      ColumnarChunk* out = mid.StartChunk(subjects.size());
      std::copy(subjects.begin(), subjects.end(), out->cols[0]);
      out->size = subjects.size();
    }
  } else {
    ExpansionScratch scratch;
    for (const ColumnarChunk& ch : table->chunks()) {
      scratch.Clear(ch.active());
      ch.ForEachActive(
          [&](uint32_t r) { scratch.Push(r, subjects.data(), subjects.size()); });
      ExpandChunk(&mid, ch, old_cols, scratch);
    }
  }

  ColumnarTable out;
  for (int v : mid.vars()) {
    out.AddColumn(v);
  }
  out.AddColumn(p.object.var);
  const size_t mid_cols = mid.num_cols();
  const int mid_s_col = mid.ColumnOf(p.subject.var);
  CachedCursor cached(src, p.predicate, Dir::kOut);
  ExpansionScratch scratch;
  for (const ColumnarChunk& ch : mid.chunks()) {
    scratch.Clear(ch.size);
    for (size_t r = 0; r < ch.size; ++r) {  // mid chunks are always dense.
      size_t n = 0;
      const VertexId* nbrs = cached.Fetch(ch.cols[mid_s_col][r], &n);
      scratch.Push(static_cast<uint32_t>(r), nbrs, n);
    }
    ExpandChunk(&out, ch, mid_cols, scratch);
  }
  *table = std::move(out);
  return Status::Ok();
}

}  // namespace

StatusOr<ColumnarTable> ExecutePatterns(const Query& q, const std::vector<int>& plan,
                                        const ExecContext& ctx,
                                        const StepHook& hook) {
  if (plan.size() != q.patterns.size()) {
    return Status::Internal("plan does not cover all patterns");
  }
  obs::Tracer::Span span = StageSpan(ctx, "exec/patterns");
  span.Arg("patterns", static_cast<uint64_t>(plan.size()));
  ColumnarTable table;
  for (int idx : plan) {
    const TriplePattern& p = q.patterns[static_cast<size_t>(idx)];
    size_t rows_before = table.num_rows();
    size_t cols_before = table.num_cols();
    Status s = ApplyPatternColumnar(p, *SourceFor(ctx, p.graph), &table);
    if (!s.ok()) {
      return s;
    }
    if (hook) {
      hook(p, rows_before, cols_before, table.num_rows());
    }
    if (ctx.observe) {
      ctx.observe(p, rows_before, cols_before, table.num_rows());
    }
    if (table.num_rows() == 0) {
      break;  // Early exit: no bindings survive (or a constant check failed).
    }
  }
  span.Arg("rows", static_cast<uint64_t>(table.num_rows()));
  return table;
}

Status ApplyFilters(const Query& q, const ExecContext& ctx, ColumnarTable* table) {
  if (q.filters.empty() || table->num_cols() == 0) {
    return Status::Ok();
  }
  obs::Tracer::Span span = StageSpan(ctx, "exec/filters");
  span.Arg("filters", static_cast<uint64_t>(q.filters.size()))
      .Arg("rows_in", static_cast<uint64_t>(table->num_rows()));
  for (const FilterExpr& f : q.filters) {
    int col = table->ColumnOf(f.var);
    if (col < 0) {
      return Status::InvalidArgument("FILTER references unbound variable ?" +
                                     q.var_names[static_cast<size_t>(f.var)]);
    }
    std::vector<uint32_t> keep;
    for (ColumnarChunk& ch : table->chunks()) {
      keep.clear();
      Status err = Status::Ok();
      if (!f.numeric) {
        // Vertex-identity predicates cannot fail: evaluate them in a tight
        // loop over the id column instead of through the Status-returning
        // generic path (which costs more than the compare itself).
        const VertexId* vals = ch.cols[col];
        ch.ForEachActive([&](uint32_t r) {
          if (f.MatchesVertex(vals[r])) {
            keep.push_back(r);
          }
        });
      } else {
        ch.ForEachActive([&](uint32_t r) -> bool {
          bool k = false;
          err = EvalNumericFilter(f, ch.cols[col][r], ctx.strings, &k);
          if (k) {
            keep.push_back(r);
          }
          return err.ok();
        });
      }
      if (!err.ok()) {
        return err;
      }
      if (test_hooks::skip_selection_compact.load(std::memory_order_relaxed)) {
        continue;  // Planted defect: selection computed but never stored.
      }
      if (keep.size() != ch.active()) {
        ch.sel = keep;
        ch.dense = false;
      }
    }
  }
  return Status::Ok();
}

namespace {

// DISTINCT key of a numeric value: the double's bit pattern, so values that
// differ in any bit stay distinct and negative values are keyed like any
// other. -0.0 equals 0.0 and shares its key.
uint64_t NumberKey(double d) { return std::bit_cast<uint64_t>(d == 0.0 ? 0.0 : d); }

}  // namespace

// Solution-sequence modifiers: DISTINCT, ORDER BY, LIMIT — applied in that
// order, after projection/aggregation.
Status FinalizeSolution(const Query& q, const ExecContext& ctx,
                        QueryResult* result) {
  if (q.distinct) {
    std::vector<std::vector<ResultValue>> unique;
    unique.reserve(result->rows.size());
    std::set<std::vector<std::pair<bool, uint64_t>>> seen;
    for (auto& row : result->rows) {
      std::vector<std::pair<bool, uint64_t>> key;
      key.reserve(row.size());
      for (const ResultValue& v : row) {
        key.emplace_back(v.is_number, v.is_number ? NumberKey(v.number) : v.vid);
      }
      if (seen.insert(std::move(key)).second) {
        unique.push_back(std::move(row));
      }
    }
    result->rows = std::move(unique);
  }

  if (!q.order_by.empty()) {
    // ORDER BY keys must be projected columns.
    std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
    for (const OrderKey& key : q.order_by) {
      bool found = false;
      for (size_t c = 0; c < q.select.size(); ++c) {
        if (q.select[c].var == key.var && q.select[c].agg == AggKind::kNone) {
          keys.emplace_back(c, key.descending);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument(
            "ORDER BY variable must appear (un-aggregated) in SELECT");
      }
    }
    auto value_less = [&ctx](const ResultValue& a, const ResultValue& b) -> int {
      if (a.is_number != b.is_number) {
        return a.is_number ? -1 : 1;  // Numbers sort before IRIs.
      }
      if (a.is_number) {
        return a.number < b.number ? -1 : (a.number > b.number ? 1 : 0);
      }
      if (ctx.strings != nullptr) {
        auto sa = ctx.strings->VertexString(a.vid);
        auto sb = ctx.strings->VertexString(b.vid);
        if (sa.ok() && sb.ok()) {
          return sa->compare(*sb) < 0 ? -1 : (*sa == *sb ? 0 : 1);
        }
      }
      return a.vid < b.vid ? -1 : (a.vid > b.vid ? 1 : 0);
    };
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const auto& ra, const auto& rb) {
                       for (const auto& [col, desc] : keys) {
                         int cmp = value_less(ra[col], rb[col]);
                         if (cmp != 0) {
                           return desc ? cmp > 0 : cmp < 0;
                         }
                       }
                       return false;
                     });
  }

  if (q.limit > 0 && result->rows.size() > q.limit) {
    result->rows.resize(q.limit);
  }
  return Status::Ok();
}

namespace {

// Result column names (COUNT(x), SUM(x), ... wrappers), shared by both
// ProjectResult overloads.
void ProjectColumnNames(const Query& q, QueryResult* result) {
  for (const SelectItem& item : q.select) {
    std::string name = q.var_names[static_cast<size_t>(item.var)];
    switch (item.agg) {
      case AggKind::kNone:
        break;
      case AggKind::kCount:
        name = "COUNT(" + name + ")";
        break;
      case AggKind::kSum:
        name = "SUM(" + name + ")";
        break;
      case AggKind::kAvg:
        name = "AVG(" + name + ")";
        break;
      case AggKind::kMin:
        name = "MIN(" + name + ")";
        break;
      case AggKind::kMax:
        name = "MAX(" + name + ")";
        break;
    }
    result->columns.push_back(std::move(name));
  }
}

}  // namespace

StatusOr<QueryResult> ProjectResult(const Query& q, const ExecContext& ctx,
                                    const BindingTable& table) {
  obs::Tracer::Span span = StageSpan(ctx, "exec/project");
  span.Arg("rows_in", static_cast<uint64_t>(table.num_rows()));
  QueryResult result;
  ProjectColumnNames(q, &result);

  if (table.num_rows() == 0) {
    return result;  // Empty result; unbound select columns are moot.
  }

  if (!q.has_aggregates()) {
    result.rows.reserve(table.num_rows());
    std::vector<int> cols;
    for (const SelectItem& item : q.select) {
      int col = table.ColumnOf(item.var);
      if (col < 0) {
        return Status::InvalidArgument("selected variable is unbound");
      }
      cols.push_back(col);
    }
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::vector<ResultValue> row;
      row.reserve(cols.size());
      for (int c : cols) {
        row.push_back(ResultValue::Vertex(table.At(r, c)));
      }
      result.rows.push_back(std::move(row));
    }
    return result;
  }

  // Aggregation path. Group rows by the GROUP BY columns (or one big group).
  std::vector<int> group_cols;
  for (int var : q.group_by) {
    int col = table.ColumnOf(var);
    if (col < 0) {
      return Status::InvalidArgument("GROUP BY variable is unbound");
    }
    group_cols.push_back(col);
  }

  struct AggState {
    size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    bool seen = false;
  };
  // Group key -> per-select-item state.
  std::map<std::vector<VertexId>, std::vector<AggState>> groups;

  auto numeric_value = [&](VertexId v, double* out) -> bool {
    if (ctx.strings == nullptr) {
      return false;
    }
    auto str = ctx.strings->VertexString(v);
    if (!str.ok()) {
      return false;
    }
    char* end = nullptr;
    double num = std::strtod(str->c_str(), &end);
    if (end == str->c_str()) {
      return false;
    }
    *out = num;
    return true;
  };

  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::vector<VertexId> gkey;
    gkey.reserve(group_cols.size());
    for (int c : group_cols) {
      gkey.push_back(table.At(r, c));
    }
    auto& states = groups[gkey];
    states.resize(q.select.size());
    for (size_t i = 0; i < q.select.size(); ++i) {
      const SelectItem& item = q.select[i];
      if (item.agg == AggKind::kNone) {
        continue;
      }
      int col = table.ColumnOf(item.var);
      if (col < 0) {
        return Status::InvalidArgument("aggregated variable is unbound");
      }
      AggState& st = states[i];
      st.count += 1;
      if (item.agg != AggKind::kCount) {
        double num = 0.0;
        if (numeric_value(table.At(r, col), &num)) {
          st.sum += num;
          st.min = st.seen ? std::min(st.min, num) : num;
          st.max = st.seen ? std::max(st.max, num) : num;
          st.seen = true;
        }
      }
    }
  }

  for (const auto& [gkey, states] : groups) {
    std::vector<ResultValue> row;
    row.reserve(q.select.size());
    for (size_t i = 0; i < q.select.size(); ++i) {
      const SelectItem& item = q.select[i];
      if (item.agg == AggKind::kNone) {
        // Plain variable in an aggregate query must be a GROUP BY key.
        int col = table.ColumnOf(item.var);
        bool found = false;
        for (size_t g = 0; g < group_cols.size(); ++g) {
          if (group_cols[g] == col) {
            row.push_back(ResultValue::Vertex(gkey[g]));
            found = true;
            break;
          }
        }
        if (!found) {
          return Status::InvalidArgument(
              "non-aggregated select variable must appear in GROUP BY");
        }
        continue;
      }
      const AggState& st = states[i];
      switch (item.agg) {
        case AggKind::kCount:
          row.push_back(ResultValue::Number(static_cast<double>(st.count)));
          break;
        case AggKind::kSum:
          row.push_back(ResultValue::Number(st.sum));
          break;
        case AggKind::kAvg:
          row.push_back(ResultValue::Number(
              st.count > 0 && st.seen ? st.sum / static_cast<double>(st.count) : 0.0));
          break;
        case AggKind::kMin:
          row.push_back(ResultValue::Number(st.seen ? st.min : 0.0));
          break;
        case AggKind::kMax:
          row.push_back(ResultValue::Number(st.seen ? st.max : 0.0));
          break;
        case AggKind::kNone:
          break;
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

StatusOr<QueryResult> ProjectResult(const Query& q, const ExecContext& ctx,
                                    const ColumnarTable& table) {
  if (q.has_aggregates()) {
    // Aggregation collapses the table to per-group scalar state, so the
    // per-row gather the columnar layout accelerates is not the cost here;
    // project through the (order-preserving) row view and keep one
    // implementation of the grouping semantics.
    return ProjectResult(q, ctx, table.ToRows());
  }
  obs::Tracer::Span span = StageSpan(ctx, "exec/project");
  span.Arg("rows_in", static_cast<uint64_t>(table.num_rows()));
  QueryResult result;
  ProjectColumnNames(q, &result);

  if (table.num_rows() == 0) {
    return result;  // Empty result; unbound select columns are moot.
  }

  result.rows.reserve(table.num_rows());
  std::vector<int> cols;
  for (const SelectItem& item : q.select) {
    int col = table.ColumnOf(item.var);
    if (col < 0) {
      return Status::InvalidArgument("selected variable is unbound");
    }
    cols.push_back(col);
  }
  table.ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
    std::vector<ResultValue> row;
    row.reserve(cols.size());
    for (int c : cols) {
      row.push_back(ResultValue::Vertex(ch.cols[static_cast<size_t>(c)][r]));
    }
    result.rows.push_back(std::move(row));
  });
  return result;
}

namespace {

// Variables an OPTIONAL group introduces on top of the current bindings.
std::vector<int> OptionalNewVars(const std::vector<TriplePattern>& group,
                                 const ColumnarTable& table) {
  std::vector<int> new_vars;
  for (const TriplePattern& p : group) {
    for (const Term* t : {&p.subject, &p.object}) {
      if (t->is_var() && !table.IsBound(t->var) &&
          std::find(new_vars.begin(), new_vars.end(), t->var) == new_vars.end()) {
        new_vars.push_back(t->var);
      }
    }
  }
  return new_vars;
}

}  // namespace

// Each group is one batched left join. The seed table holds the left columns
// the group joins on plus each left row's ordinal in a column no pattern can
// bind; the group's patterns run over it once each, and since expansion keeps
// source-row order, the matches come out grouped by ascending ordinal. One
// merge walk over the left table then emits every match of row i (or one
// unbound-padded row) before row i + 1 — the order a per-row evaluation
// would produce. A left table with no columns is the unit table: the group
// runs unseeded, exactly as for a single row with no bindings.
Status ApplyOptionals(const Query& q, const ExecContext& ctx, ColumnarTable* table) {
  const int ordinal_var = static_cast<int>(q.var_names.size());
  for (const std::vector<TriplePattern>& group : q.optionals) {
    std::vector<int> new_vars = OptionalNewVars(group, *table);
    const size_t old_cols = table->num_cols();
    if (old_cols == 0 && new_vars.empty() && table->num_rows() > 0) {
      continue;  // The unit row survives whether the constant group matches.
    }
    ColumnarTable next;
    for (int v : table->vars()) {
      next.AddColumn(v);
    }
    for (int v : new_vars) {
      next.AddColumn(v);
    }
    if (table->num_rows() == 0) {
      *table = std::move(next);
      continue;
    }

    ColumnarTable seed;
    int ordinal_col = -1;
    if (old_cols > 0) {
      std::vector<int> join_cols;
      for (const TriplePattern& p : group) {
        for (const Term* t : {&p.subject, &p.object}) {
          if (t->is_var() && table->IsBound(t->var) && !seed.IsBound(t->var)) {
            seed.AddColumn(t->var);
            join_cols.push_back(table->ColumnOf(t->var));
          }
        }
      }
      ordinal_col = seed.AddColumn(ordinal_var);
      std::vector<VertexId> seed_row(seed.num_cols());
      VertexId ordinal = 0;
      table->ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
        for (size_t c = 0; c < join_cols.size(); ++c) {
          seed_row[c] = ch.cols[static_cast<size_t>(join_cols[c])][r];
        }
        seed_row.back() = ordinal++;
        seed.AppendRow(seed_row.data());
      });
    }
    for (const TriplePattern& p : group) {
      Status s = ApplyPatternColumnar(p, *SourceFor(ctx, p.graph), &seed);
      if (!s.ok()) {
        return s;
      }
      if (seed.num_rows() == 0) {
        break;
      }
    }

    // The matches, flattened: the left-row ordinal of each group row and its
    // new-variable values (every group variable is bound once the group
    // produced rows).
    std::vector<VertexId> match_ordinal;
    std::vector<VertexId> match_values;
    if (seed.num_rows() > 0) {
      std::vector<size_t> new_cols;
      for (int v : new_vars) {
        new_cols.push_back(static_cast<size_t>(seed.ColumnOf(v)));
      }
      seed.ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
        match_ordinal.push_back(
            ordinal_col >= 0 ? ch.cols[static_cast<size_t>(ordinal_col)][r] : 0);
        for (size_t c : new_cols) {
          match_values.push_back(ch.cols[c][r]);
        }
      });
    }
    assert(std::is_sorted(match_ordinal.begin(), match_ordinal.end()));

    // Merge: row[0, old_cols) holds the current left row.
    std::vector<VertexId> row(next.num_cols());
    size_t m = 0;
    auto emit = [&](VertexId ordinal) {
      if (m == match_ordinal.size() || match_ordinal[m] != ordinal) {
        std::fill(row.begin() + static_cast<ptrdiff_t>(old_cols), row.end(),
                  kUnboundBinding);
        next.AppendRow(row.data());
        return;
      }
      for (; m < match_ordinal.size() && match_ordinal[m] == ordinal; ++m) {
        std::copy_n(match_values.begin() + static_cast<ptrdiff_t>(m * new_vars.size()),
                    new_vars.size(), row.begin() + static_cast<ptrdiff_t>(old_cols));
        next.AppendRow(row.data());
      }
    };
    if (old_cols == 0) {
      emit(0);
    } else {
      VertexId ordinal = 0;
      table->ForEachActiveRow([&](const ColumnarChunk& ch, size_t r) {
        for (size_t c = 0; c < old_cols; ++c) {
          row[c] = ch.cols[c][r];
        }
        emit(ordinal++);
      });
    }
    *table = std::move(next);
  }
  return Status::Ok();
}

StatusOr<QueryResult> ExecutePipeline(const Query& q, const std::vector<int>& plan,
                                      const ExecContext& ctx, const StepHook& hook) {
  auto table = ExecutePatterns(q, plan, ctx, hook);
  if (!table.ok()) {
    return table.status();
  }
  Status os = ApplyOptionals(q, ctx, &table.value());
  if (!os.ok()) {
    return os;
  }
  Status fs = ApplyFilters(q, ctx, &table.value());
  if (!fs.ok()) {
    return fs;
  }
  return ProjectResult(q, ctx, table.value());
}

StatusOr<QueryResult> ExecuteQuery(const Query& q, const std::vector<int>& plan,
                                   const ExecContext& ctx) {
  auto result = ExecutePipeline(q, plan, ctx);
  if (!result.ok()) {
    return result;
  }
  Status fin = FinalizeSolution(q, ctx, &result.value());
  if (!fin.ok()) {
    return fin;
  }
  return result;
}

StatusOr<QueryResult> ProjectMemberFromProbe(
    const Query& q, const ExecContext& ctx, const QueryResult& probe,
    const std::vector<size_t>& member_rows,
    const std::vector<int>& var_to_probe_col) {
  obs::Tracer::Span span = StageSpan(ctx, "exec/fanout");
  span.Arg("rows_in", static_cast<uint64_t>(member_rows.size()));
  // Fast path for the dominant template shape — plain SELECT, no
  // aggregates/DISTINCT/ORDER/LIMIT: the probe values are already final
  // ResultValues, so project straight out of the partition rows and skip
  // the intermediate binding table (the fan-out stage runs once per member
  // per trigger; this copy is its whole cost).
  if (!q.has_aggregates() && !q.distinct && q.order_by.empty() &&
      q.limit == 0 && q.group_by.empty()) {
    QueryResult result;
    std::vector<size_t> cols;
    cols.reserve(q.select.size());
    for (const SelectItem& item : q.select) {
      int col = var_to_probe_col[static_cast<size_t>(item.var)];
      if (col < 0) {
        return Status::InvalidArgument("selected variable is unbound");
      }
      result.columns.push_back(q.var_names[static_cast<size_t>(item.var)]);
      cols.push_back(static_cast<size_t>(col));
    }
    result.rows.reserve(member_rows.size());
    for (size_t r : member_rows) {
      std::vector<ResultValue> row;
      row.reserve(cols.size());
      for (size_t c : cols) {
        row.push_back(probe.rows[r][c]);
      }
      result.rows.push_back(std::move(row));
    }
    span.Arg("rows_out", static_cast<uint64_t>(result.rows.size()));
    span.End();
    return result;
  }
  // Rebuild the member's pre-projection binding table from its partition:
  // column v (the member's variable slot) takes the probe column that bound
  // the same canonical variable. Unbound OPTIONAL markers round-trip as-is.
  BindingTable table;
  for (size_t v = 0; v < var_to_probe_col.size(); ++v) {
    table.AddColumn(static_cast<int>(v));
  }
  std::vector<VertexId> row(var_to_probe_col.size());
  for (size_t r : member_rows) {
    for (size_t v = 0; v < var_to_probe_col.size(); ++v) {
      row[v] = probe.rows[r][static_cast<size_t>(var_to_probe_col[v])].vid;
    }
    table.AppendRow(row.data());
  }
  auto result = ProjectResult(q, ctx, table);
  if (!result.ok()) {
    return result;
  }
  Status fin = FinalizeSolution(q, ctx, &result.value());
  if (!fin.ok()) {
    return fin;
  }
  span.Arg("rows_out", static_cast<uint64_t>(result->rows.size()));
  span.End();
  return result;
}

}  // namespace wukongs
