// Query planner: orders triple patterns for graph exploration.
//
// Wukong-style exploration is order-sensitive: starting from a constant
// vertex or an already-bound variable keeps intermediate tables small, while
// starting from an index vertex scans every vertex with that predicate. The
// integrated design can plan across stream and stored patterns *globally* —
// the paper's Issue#2 shows composite designs lose exactly this ability.
//
// The planner is greedy: at each step it picks the cheapest pattern that is
// connected to the current bindings (or, failing that, the cheapest seed),
// using NeighborSource cardinality estimates.

#ifndef SRC_STORE_PLANNER_H_
#define SRC_STORE_PLANNER_H_

#include <cstdint>
#include <vector>

#include "src/engine/executor.h"
#include "src/sparql/ast.h"
#include "src/store/stream_stats.h"

namespace wukongs {

// Planner steering knobs supplied by the engine that owns the query.
struct PlanHints {
  // Live statistics (§5.14): when set, an observed fan-out for a pattern's
  // (scope, predicate) overrides the seed-count heuristic for bound-variable
  // expansion. Null = static estimates only (the default everywhere except
  // adaptive re-planning, keeping legacy plans byte-identical).
  const StreamStatsSnapshot* stats = nullptr;
  // Maps a window graph index (Query::windows position) to the stream
  // feeding it, for keying observed fan-outs. Stored-graph patterns use
  // kStoredScope; window graphs beyond this vector fall back to the static
  // estimate.
  std::vector<int32_t> window_scope;
};

// Returns the execution order (indices into q.patterns).
std::vector<int> PlanQuery(const Query& q, const ExecContext& ctx);
std::vector<int> PlanQuery(const Query& q, const ExecContext& ctx,
                           const PlanHints& hints);

// Estimated output cardinality of running `p` given `bound` variable slots.
// Exposed for tests and for the composite baselines (which must plan with
// *partial* information to reproduce the paper's sub-optimal plans). The
// three-argument form estimates for the primary (columnar) executor.
double EstimatePatternCost(const TriplePattern& p, const std::vector<bool>& bound,
                           const ExecContext& ctx);
double EstimatePatternCost(const TriplePattern& p, const std::vector<bool>& bound,
                           const ExecContext& ctx, const PlanHints& hints);

}  // namespace wukongs

#endif  // SRC_STORE_PLANNER_H_
