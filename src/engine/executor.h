// Graph-exploration executor shared by the one-shot and continuous engines.
//
// Executes a query's triple patterns in planner order against per-graph
// NeighborSources, then applies FILTERs, GROUP BY and aggregates. The same
// executor runs under both execution modes: distribution and its costs live
// inside the NeighborSource implementations (paper §5 "in-place execution"),
// so pattern evaluation here is pure exploration.
//
// There is one pipeline (DESIGN.md §5.13). It carries bindings in
// column-major ColumnarTables: pattern expansion is a batched scan-join over
// arena-allocated id columns, pruning steps only touch selection vectors, and
// each OPTIONAL group is one batched left join. The row-major BindingTable
// survives only as the input of aggregation (ProjectResult's row overload).
// The testkit reference oracle, not a second executor, arbitrates results.

#ifndef SRC_ENGINE_EXECUTOR_H_
#define SRC_ENGINE_EXECUTOR_H_

#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/engine/binding.h"
#include "src/engine/columnar.h"
#include "src/engine/neighbor_source.h"
#include "src/obs/trace.h"
#include "src/rdf/string_server.h"
#include "src/sparql/ast.h"

namespace wukongs {

// Per-step observer: invoked after each pattern with the pattern, the table
// shape before the step, and the row count after. Fork-join engines use it to
// charge per-step shipping costs.
using StepHook = std::function<void(const TriplePattern& pattern, size_t rows_before,
                                    size_t cols_before, size_t rows_after)>;

struct ExecContext {
  // sources[0] answers stored-graph patterns; sources[1 + w] answers patterns
  // scoped to Query::windows[w].
  std::vector<const NeighborSource*> sources;
  const StringServer* strings = nullptr;  // Needed only when FILTERs compare numbers.
  // Per-stage span emission (exec/patterns, exec/filters, exec/project);
  // null = tracing off. `trace_node` is the executing node for the tid field.
  obs::Tracer* tracer = nullptr;
  uint32_t trace_node = 0;
  // Passive per-step statistics observer (§5.14): invoked with the same
  // arguments as the caller's StepHook after every pattern step, regardless
  // of which engine (fork-join or in-place) supplied a hook. The cluster
  // points this at the live-stats collector for production executions only —
  // planning and shadow-parity contexts leave it unset so observation never
  // feeds back on itself.
  StepHook observe;
};

// --- Pipeline stages -------------------------------------------------------

// Executes patterns in `plan` order (indices into q.patterns) and returns the
// columnar binding table before projection.
StatusOr<ColumnarTable> ExecutePatterns(const Query& q, const std::vector<int>& plan,
                                        const ExecContext& ctx,
                                        const StepHook& hook = {});

// Left-joins each of q.optionals onto `table`: rows extend with the group's
// bindings when the group matches, otherwise keep their bindings with the
// group's new variables set to kUnboundBinding. Each group runs once over the
// whole table; the output keeps left-row order, with every match of a row in
// the group's enumeration order.
Status ApplyOptionals(const Query& q, const ExecContext& ctx, ColumnarTable* table);

// Applies q.filters to `table` in place. Pure selection: dropped rows leave
// the column data untouched and only shrink the chunk selection vectors.
Status ApplyFilters(const Query& q, const ExecContext& ctx, ColumnarTable* table);

// Projects/aggregates `table` into the result (no solution modifiers).
// Aggregates go through the table's row view and the row overload below.
StatusOr<QueryResult> ProjectResult(const Query& q, const ExecContext& ctx,
                                    const ColumnarTable& table);

// The one implementation of GROUP BY and aggregates, over a row-major table.
// Also the entry point for callers that assemble rows themselves (MQO
// fan-out, the relational baselines).
StatusOr<QueryResult> ProjectResult(const Query& q, const ExecContext& ctx,
                                    const BindingTable& table);

// --- Tail and whole-query entry points -------------------------------------

// Applies the solution-sequence modifiers (DISTINCT, ORDER BY, LIMIT).
// Separate from ProjectResult so UNION branches can be projected first and
// modified once after concatenation.
Status FinalizeSolution(const Query& q, const ExecContext& ctx,
                        QueryResult* result);

// Runs patterns -> optionals -> filters -> projection. Solution modifiers
// are left to the caller (UNION branches concatenate first).
StatusOr<QueryResult> ExecutePipeline(const Query& q, const std::vector<int>& plan,
                                      const ExecContext& ctx,
                                      const StepHook& hook = {});

// Convenience: plan already chosen; ExecutePipeline + FinalizeSolution. Does
// not handle UNION (the Cluster plans and executes each branch, then
// concatenates and finalizes).
StatusOr<QueryResult> ExecuteQuery(const Query& q, const std::vector<int>& plan,
                                   const ExecContext& ctx);

// --- Shared template-group fan-out (DESIGN.md §5.12) -----------------------
//
// Projects one member registration's result out of the shared probe query's
// result. `probe` selected every canonical variable plain, `member_rows` is
// the member's hash partition (rows whose hole column equals its constant),
// and `var_to_probe_col[v]` gives the probe column holding member variable
// slot `v`. The member's own projection, aggregation and solution modifiers
// (SELECT/GROUP BY/DISTINCT/ORDER BY) run here, on the rebuilt binding
// table, so the fan-out output is bag-identical to evaluating the member's
// query independently.
StatusOr<QueryResult> ProjectMemberFromProbe(
    const Query& q, const ExecContext& ctx, const QueryResult& probe,
    const std::vector<size_t>& member_rows,
    const std::vector<int>& var_to_probe_col);

}  // namespace wukongs

#endif  // SRC_ENGINE_EXECUTOR_H_
