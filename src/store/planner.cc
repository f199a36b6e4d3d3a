#include "src/store/planner.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace wukongs {
namespace {

const NeighborSource* SourceFor(const ExecContext& ctx, int graph) {
  size_t idx = graph == kGraphStored ? 0 : static_cast<size_t>(graph) + 1;
  assert(idx < ctx.sources.size());
  return ctx.sources[idx];
}

bool TermBound(const Term& t, const std::vector<bool>& bound) {
  return !t.is_var() || bound[static_cast<size_t>(t.var)];
}

}  // namespace

double EstimatePatternCost(const TriplePattern& p, const std::vector<bool>& bound,
                           const ExecContext& ctx) {
  return EstimatePatternCost(p, bound, ctx, PlanHints{});
}

double EstimatePatternCost(const TriplePattern& p, const std::vector<bool>& bound,
                           const ExecContext& ctx, const PlanHints& hints) {
  const NeighborSource* src = SourceFor(ctx, p.graph);
  const bool s_known = TermBound(p.subject, bound);
  const bool o_known = TermBound(p.object, bound);

  if (s_known && o_known) {
    return 1.0;  // Existence check only prunes.
  }
  if (!p.subject.is_var()) {
    return static_cast<double>(
        src->EstimateCount(Key(p.subject.constant, p.predicate, Dir::kOut)));
  }
  if (!p.object.is_var()) {
    return static_cast<double>(
        src->EstimateCount(Key(p.object.constant, p.predicate, Dir::kIn)));
  }
  // Bound variable endpoint: expansion fans out by the average degree,
  // approximated by a small constant — far cheaper than an index scan. The
  // fan-out cannot exceed what the pattern's own source holds for this
  // predicate, which matters for window-scoped patterns: a sparse window
  // caps the expansion at its few edges, and with multiple windows each
  // pattern must rank by *its* window, not a shared constant.
  if (s_known || o_known) {
    if (hints.stats != nullptr) {
      // Adaptive re-planning (§5.14): an observed fan-out for this pattern's
      // scope beats any degree heuristic — it is the measured output-per-row
      // of exactly this expansion. Capped at the index-scan floor so a
      // pathological observation cannot rank an expansion above a scan.
      // Window graphs beyond window_scope have no stream attribution; their
      // expansion must not borrow the stored-scope observation.
      bool scoped = true;
      int32_t scope = kStoredScope;
      if (p.graph != kGraphStored) {
        if (static_cast<size_t>(p.graph) < hints.window_scope.size()) {
          scope = hints.window_scope[static_cast<size_t>(p.graph)];
        } else {
          scoped = false;
        }
      }
      const double observed =
          scoped ? hints.stats->FanoutOf(scope, p.predicate) : -1.0;
      if (observed >= 0.0) {
        return std::min(64.0, 1.0 + observed);
      }
    }
    // The expansion is a per-chunk batched gather (§5.13), so the estimate
    // counts chunk cardinality — how much of a chunk the predicate's seed
    // population fills — not raw rows. The ratio keeps the ranking monotone
    // in the seed count (two sparse windows still order correctly) without
    // saturating dense predicates to one cap.
    const size_t seeds =
        src->EstimateCount(Key(kIndexVertex, p.predicate, Dir::kOut));
    return std::min(16.0, 1.0 + static_cast<double>(seeds) /
                                    static_cast<double>(kColumnarChunkRows));
  }
  // Both endpoints free: index-vertex scan over every pid edge.
  size_t n = src->EstimateCount(Key(kIndexVertex, p.predicate, Dir::kOut));
  return 64.0 * static_cast<double>(n == 0 ? 1 : n);
}

std::vector<int> PlanQuery(const Query& q, const ExecContext& ctx) {
  return PlanQuery(q, ctx, PlanHints{});
}

std::vector<int> PlanQuery(const Query& q, const ExecContext& ctx,
                           const PlanHints& hints) {
  const size_t n = q.patterns.size();
  std::vector<int> plan;
  plan.reserve(n);
  std::vector<bool> used(n, false);
  std::vector<bool> bound(q.var_names.size(), false);

  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    double best_cost = std::numeric_limits<double>::infinity();
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) {
        continue;
      }
      const TriplePattern& p = q.patterns[i];
      bool connected = TermBound(p.subject, bound) || TermBound(p.object, bound);
      double cost = EstimatePatternCost(p, bound, ctx, hints);
      if (hints.delta_cache && p.graph != kGraphStored) {
        // Cache-friendly bias: defer window patterns so the stored-graph
        // prefix (cached across triggers) absorbs as much of the join as
        // possible and per-slice contributions stay small.
        cost *= 64.0;
      }
      // Prefer connected patterns; disconnected ones would build a cartesian
      // product with the current table.
      if (best < 0 || (connected && !best_connected) ||
          (connected == best_connected && cost < best_cost)) {
        best = static_cast<int>(i);
        best_cost = cost;
        best_connected = connected;
      }
    }
    assert(best >= 0);
    used[static_cast<size_t>(best)] = true;
    plan.push_back(best);
    const TriplePattern& p = q.patterns[static_cast<size_t>(best)];
    if (p.subject.is_var()) {
      bound[static_cast<size_t>(p.subject.var)] = true;
    }
    if (p.object.is_var()) {
      bound[static_cast<size_t>(p.object.var)] = true;
    }
  }
  return plan;
}

}  // namespace wukongs
