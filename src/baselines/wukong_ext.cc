#include "src/baselines/wukong_ext.h"

#include <algorithm>
#include <cmath>

#include "src/engine/executor.h"
#include "src/store/planner.h"

namespace wukongs {

// Window reads must scan whole values and test every inline timestamp —
// there is no per-batch span to jump to (the cost the stream index removes).
class WukongExt::TimeFilteredSource : public NeighborSource {
 public:
  TimeFilteredSource(const ValueMap& values, StreamTime from_ms, StreamTime to_ms,
                     uint32_t nodes, const NetworkModel& network, bool charge_reads)
      : values_(values),
        from_ms_(from_ms),
        to_ms_(to_ms),
        nodes_(nodes),
        network_(network),
        charge_reads_(charge_reads) {}

  void GetNeighbors(Key key, std::vector<VertexId>* out) const override {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return;
    }
    ChargeRead(key, it->second.size());
    if (key.is_index()) {
      // Index values receive one stamped entry per absorbed edge (no GC, no
      // dedup at write time), so a window read scans the whole ever-growing
      // value, filters by timestamp and dedups — the cost the stream index
      // removes.
      std::vector<VertexId> raw;
      for (const StampedEdge& e : it->second) {
        if (e.ts >= from_ms_ && e.ts < to_ms_) {
          raw.push_back(e.vid);
        }
      }
      std::sort(raw.begin(), raw.end());
      raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
      out->insert(out->end(), raw.begin(), raw.end());
      return;
    }
    for (const StampedEdge& e : it->second) {
      if (e.ts >= from_ms_ && e.ts < to_ms_) {
        out->push_back(e.vid);
      }
    }
  }

  size_t EstimateCount(Key key) const override {
    auto it = values_.find(key);
    return it == values_.end() ? 0 : it->second.size();
  }

 private:
  // Hash-sharded like Wukong: remote keys cost a one-sided read covering the
  // full stamped value. The home node is node 0, index keys live everywhere.
  void ChargeRead(Key key, size_t value_entries) const {
    if (nodes_ <= 1 || !charge_reads_) {
      return;
    }
    size_t bytes = value_entries * sizeof(StampedEdge) + 16;
    if (key.is_index()) {
      double frac = static_cast<double>(nodes_ - 1) / nodes_;
      SimCost::Add((nodes_ - 1) * network_.rdma_read_base_ns +
                   network_.rdma_read_per_byte_ns * bytes * frac);
      return;
    }
    if (KeyHash{}(key) % nodes_ != 0) {
      SimCost::Add(network_.rdma_read_base_ns +
                   network_.rdma_read_per_byte_ns * static_cast<double>(bytes));
    }
  }

  const ValueMap& values_;
  const StreamTime from_ms_;
  const StreamTime to_ms_;
  const uint32_t nodes_;
  const NetworkModel& network_;
  const bool charge_reads_;
};

WukongExt::WukongExt(StringServer* strings, uint32_t nodes, NetworkModel network)
    : strings_(strings), nodes_(nodes), network_(network) {}

void WukongExt::AddEdge(Key key, VertexId vid, StreamTime ts) {
  auto [it, created] = values_.try_emplace(key);
  (void)created;
  it->second.push_back(StampedEdge{vid, ts});
  ++edges_;
  if (!key.is_index()) {
    // One stamped index entry per edge: windows can filter the index by
    // time, at the price of values that grow with every tuple (no GC).
    AddEdge(Key(kIndexVertex, key.pid(), key.dir()), key.vid(), ts);
  }
}

void WukongExt::LoadStored(const TripleVec& triples) {
  for (const Triple& t : triples) {
    AddEdge(Key(t.subject, t.predicate, Dir::kOut), t.object, 0);
    AddEdge(Key(t.object, t.predicate, Dir::kIn), t.subject, 0);
  }
}

void WukongExt::Inject(const StreamTupleVec& tuples) {
  for (const StreamTuple& t : tuples) {
    AddEdge(Key(t.triple.subject, t.triple.predicate, Dir::kOut), t.triple.object,
            t.timestamp);
    AddEdge(Key(t.triple.object, t.triple.predicate, Dir::kIn), t.triple.subject,
            t.timestamp);
  }
}

StatusOr<QueryExecution> WukongExt::ExecuteContinuous(const Query& q,
                                                      StreamTime end_ms) {
  // Stored patterns see everything absorbed so far (like Wukong+S at the
  // newest snapshot); window patterns see their time slice via full-value
  // scans with per-edge timestamp tests. The extension inherits Wukong's
  // execution modes: in-place (per-read RDMA charges) for selective queries,
  // fork-join (parallel across nodes, per-step messaging) otherwise.
  auto build_ctx = [&](bool charge_reads,
                       std::vector<std::unique_ptr<TimeFilteredSource>>* holders) {
    ExecContext ctx;
    ctx.strings = strings_;
    holders->push_back(std::make_unique<TimeFilteredSource>(
        values_, 0, ~StreamTime{0}, nodes_, network_, charge_reads));
    ctx.sources.push_back(holders->back().get());
    for (const WindowSpec& w : q.windows) {
      StreamTime from = end_ms > w.range_ms ? end_ms - w.range_ms : 0;
      // The extension cannot tell streams apart either — all windows share
      // the store — so each window is just a time slice.
      holders->push_back(std::make_unique<TimeFilteredSource>(
          values_, from, end_ms, nodes_, network_, charge_reads));
      ctx.sources.push_back(holders->back().get());
    }
    return ctx;
  };

  std::vector<std::unique_ptr<TimeFilteredSource>> plan_holders;
  ExecContext plan_ctx = build_ctx(/*charge_reads=*/false, &plan_holders);
  std::vector<int> plan = PlanQuery(q, plan_ctx);
  bool selective = true;
  if (!plan.empty()) {
    const TriplePattern& first = q.patterns[static_cast<size_t>(plan.front())];
    selective = !first.subject.is_var() || !first.object.is_var();
  }
  bool fork_join = !selective && nodes_ > 1;

  double sim_before = SimCost::TotalNs();
  Stopwatch wall;
  std::vector<std::unique_ptr<TimeFilteredSource>> holders;
  ExecContext ctx = build_ctx(/*charge_reads=*/!fork_join, &holders);

  StepHook hook;
  if (fork_join) {
    hook = [&](const TriplePattern&, size_t rows_before, size_t cols_before,
               size_t /*rows_after*/) {
      if (rows_before > 64) {
        size_t bytes = rows_before * (cols_before + 1) * sizeof(VertexId) + 16;
        SimCost::Add(network_.rdma_msg_base_ns +
                     network_.rdma_msg_per_byte_ns * static_cast<double>(bytes));
      } else {
        SimCost::Add(1000.0);
      }
    };
  }
  auto result = ExecutePipeline(q, plan, ctx, hook);
  if (!result.ok()) {
    return result.status();
  }
  double cpu_ns = wall.ElapsedNs();
  if (fork_join) {
    cpu_ns /= std::pow(static_cast<double>(nodes_), 0.8);
  }
  QueryExecution exec;
  exec.result = std::move(*result);
  exec.cpu_ms = cpu_ns / 1e6;
  exec.net_ms = (SimCost::TotalNs() - sim_before) / 1e6;
  exec.fork_join = fork_join;
  exec.window_end_ms = end_ms;
  return exec;
}

StatusOr<QueryExecution> WukongExt::ExecuteOneShot(const Query& q) {
  if (!q.windows.empty()) {
    return Status::InvalidArgument("one-shot query must not reference streams");
  }
  return ExecuteContinuous(q, 0);
}

size_t WukongExt::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [key, value] : values_) {
    bytes += sizeof(Key) + 48 + value.capacity() * sizeof(StampedEdge);
  }
  return bytes;
}

size_t WukongExt::EdgeCount() const { return edges_; }

}  // namespace wukongs
