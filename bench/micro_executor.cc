// Executor microbench (DESIGN.md §5.13): the columnar pipeline on
// non-selective recompute shapes.
//
// Measures the intra-query pipeline over an in-memory neighbor source on the
// paper's group-II *non-selective* recompute shapes — L4/L5/L6 analogues
// whose first pattern binds nothing, so execution starts from an index scan
// and every later step is a bound expansion over tens of thousands of
// intermediate rows: the regime the per-chunk batched gathers over
// arena-backed id columns are built for.
//
// Two latencies per shape: the recompute (patterns + filters — the
// per-window work of a continuous query) and the full pipeline (including
// the row-materializing projection). The bench checks each shape's result
// row count before timing and exits non-zero on a mismatch. `--json <path>`
// writes the artifact consumed by scripts/bench_compare.py (p50 CI gate vs
// BENCH_baseline.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/latency_model.h"
#include "src/engine/executor.h"

namespace wukongs {
namespace bench {
namespace {

constexpr PredicateId kP1 = 1;  // user -> post
constexpr PredicateId kP2 = 2;  // post -> tag
constexpr PredicateId kP3 = 3;  // tag -> category
constexpr PredicateId kP4 = 4;  // user -> location

// In-memory source with contiguous adjacency, exposing the zero-copy
// NeighborSpan fast path the columnar scan-join uses in production stores.
class SpanSource : public NeighborSource {
 public:
  void Add(VertexId s, PredicateId p, VertexId o) {
    map_[Key(s, p, Dir::kOut)].push_back(o);
    map_[Key(o, p, Dir::kIn)].push_back(s);
  }

  // Index values enumerate distinct endpoints, like the store's index vertex.
  void Finalize() {
    std::unordered_map<Key, std::vector<VertexId>, KeyHash> index;
    for (const auto& [key, vids] : map_) {
      if (!key.is_index()) {
        index[Key(kIndexVertex, key.pid(), key.dir())].push_back(key.vid());
      }
    }
    for (auto& [key, vids] : index) {
      std::sort(vids.begin(), vids.end());
      map_[key] = std::move(vids);
    }
  }

  void GetNeighbors(Key key, std::vector<VertexId>* out) const override {
    auto it = map_.find(key);
    if (it != map_.end()) {
      out->insert(out->end(), it->second.begin(), it->second.end());
    }
  }

  size_t EstimateCount(Key key) const override {
    auto it = map_.find(key);
    return it == map_.end() ? 0 : it->second.size();
  }

  const VertexId* NeighborSpan(Key key, size_t* n) const override {
    auto it = map_.find(key);
    if (it == map_.end()) {
      *n = 0;
      return nullptr;
    }
    *n = it->second.size();
    return it->second.data();
  }

 private:
  std::unordered_map<Key, std::vector<VertexId>, KeyHash> map_;
};

// Non-selective means fan-out: the group-II shapes start from an index scan
// and multiply through predicates whose average degree is high, so the join
// is dominated by emitting row blocks, not by anchor lookups.
constexpr VertexId kUsers = 400;
constexpr VertexId kPostsPerUser = 12;
constexpr VertexId kTagsPerPost = 8;
constexpr VertexId kTagPool = 500;

VertexId User(VertexId u) { return 1 + u; }
VertexId Post(VertexId u, VertexId j) {
  return 10'000 + u * kPostsPerUser + j;
}
VertexId Tag(VertexId t) { return 1'000'000 + t; }
VertexId Cat(VertexId c) { return 2'000'000 + c; }
VertexId Loc(VertexId l) { return 3'000'000 + l; }

void BuildGraph(SpanSource* src) {
  for (VertexId u = 0; u < kUsers; ++u) {
    for (VertexId j = 0; j < kPostsPerUser; ++j) {
      VertexId post = Post(u, j);
      src->Add(User(u), kP1, post);
      for (VertexId k = 0; k < kTagsPerPost; ++k) {
        src->Add(post, kP2, Tag((post * kTagsPerPost + k) % kTagPool));
      }
    }
    src->Add(User(u), kP4, Loc(u % 50));
  }
  for (VertexId t = 0; t < kTagPool; ++t) {
    src->Add(Tag(t), kP3, Cat(t % 20));
    src->Add(Tag(t), kP3, Cat(20 + t % 20));
  }
  src->Finalize();
}

TriplePattern Pat(int s, PredicateId p, int o) {
  TriplePattern t;
  t.subject = Term::Variable(s);
  t.predicate = p;
  t.object = Term::Variable(o);
  t.graph = kGraphStored;
  return t;
}

void SelectAll(Query* q) {
  for (size_t v = 0; v < q->var_names.size(); ++v) {
    SelectItem item;
    item.var = static_cast<int>(v);
    q->select.push_back(item);
  }
}

// L4 analogue: 2-hop chain from an unselective seed.
Query MakeL4() {
  Query q;
  q.var_names = {"a", "b", "c"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2)};
  SelectAll(&q);
  return q;
}

// L5 analogue: 3-hop chain.
Query MakeL5() {
  Query q;
  q.var_names = {"a", "b", "c", "d"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2), Pat(2, kP3, 3)};
  SelectAll(&q);
  return q;
}

// L6 analogue: chain plus a second expansion off the seed and a FILTER.
Query MakeL6() {
  Query q;
  q.var_names = {"a", "b", "c", "d"};
  q.patterns = {Pat(0, kP1, 1), Pat(1, kP2, 2), Pat(0, kP4, 3)};
  FilterExpr f;
  f.var = 3;
  f.op = FilterExpr::Op::kNe;
  f.constant = Loc(1);
  q.filters.push_back(f);
  SelectAll(&q);
  return q;
}

QueryResult MustRun(const Query& q, const std::vector<int>& plan,
                    const ExecContext& ctx) {
  auto result = ExecutePipeline(q, plan, ctx);
  if (!result.ok()) {
    std::cerr << "pipeline failed: " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(*result);
}

// Patterns + FILTERs into the binding table: what a continuous query re-runs
// per window trigger before its single projection. Aborts if the run fails.
double RecomputeOnce(const Query& q, const std::vector<int>& plan,
                     const ExecContext& ctx) {
  Stopwatch wall;
  auto table = ExecutePatterns(q, plan, ctx);
  if (table.ok()) {
    Status s = ApplyFilters(q, ctx, &*table);
    if (s.ok()) {
      return wall.ElapsedMs();
    }
  }
  std::cerr << "recompute failed\n";
  std::abort();
}

struct Latencies {
  Histogram recompute;  // Patterns + filters.
  Histogram pipeline;   // Full query including projection.
};

Latencies Measure(const Query& q, const std::vector<int>& plan,
                  const ExecContext& ctx, int samples) {
  Latencies out;
  for (int i = -3; i < samples; ++i) {  // Three warmup runs.
    double ms = RecomputeOnce(q, plan, ctx);
    if (i >= 0) {
      out.recompute.Add(ms);
    }
  }
  for (int i = -3; i < samples; ++i) {
    Stopwatch wall;
    QueryResult r = MustRun(q, plan, ctx);
    double ms = wall.ElapsedMs();
    if (i >= 0) {
      out.pipeline.Add(ms);
    }
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace wukongs

int main(int argc, char** argv) {
  using namespace wukongs;
  using namespace wukongs::bench;

  const std::string json_path = JsonOutPath(argc, argv);
  BenchArtifact artifact("micro_executor");

  SpanSource src;
  BuildGraph(&src);

  ExecContext ctx;
  ctx.sources = {&src};

  struct Shape {
    const char* name;
    Query q;
    size_t rows;  // Expected result rows.
  };
  std::vector<Shape> shapes = {{"L4", MakeL4(), 38'400},
                               {"L5", MakeL5(), 76'800},
                               {"L6", MakeL6(), 37'632}};

  std::cout << "=== micro_executor: columnar pipeline, non-selective "
               "recompute (§5.13) ===\n";
  std::cout << "graph: " << kUsers << " users x " << kPostsPerUser
            << " posts x " << kTagsPerPost
            << " tags; non-selective index-scan seeds\n\n";
  std::cout << "query   rows      recompute p50 (ms)  pipeline p50 (ms)\n";

  const int samples = 25;
  for (Shape& s : shapes) {
    // Pattern order is already seed-first; a fixed plan keeps baseline
    // updates on identical join orders.
    std::vector<int> plan;
    for (size_t i = 0; i < s.q.patterns.size(); ++i) {
      plan.push_back(static_cast<int>(i));
    }

    QueryResult result = MustRun(s.q, plan, ctx);
    if (result.rows.size() != s.rows) {
      std::cerr << s.name << ": " << result.rows.size()
                << " result rows, expected " << s.rows << "\n";
      return 1;
    }

    Latencies lat = Measure(s.q, plan, ctx, samples);
    std::printf("%-6s  %-8zu  %8.3f            %8.3f\n", s.name,
                result.rows.size(), lat.recompute.Median(),
                lat.pipeline.Median());

    artifact.RecordLatencies("bench_latency_ms",
                             {{"mode", "columnar"}, {"query", s.name}},
                             lat.recompute);
    artifact.RecordLatencies("bench_pipeline_latency_ms",
                             {{"mode", "columnar"}, {"query", s.name}},
                             lat.pipeline);
    artifact.AddCount("bench_result_rows", {{"query", s.name}},
                      result.rows.size());
  }

  artifact.Write(json_path);
  std::cout << "\nPASS: result row counts match on every shape\n";
  return 0;
}
