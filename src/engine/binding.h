// Intermediate binding tables for graph-exploration query execution.
//
// Wukong-style execution never materializes relational join inputs: it walks
// the graph, carrying a table of variable bindings that each exploration step
// extends or prunes (paper §2.3 contrasts this with the "join bomb" of
// relational plans). A BindingTable is row-major: `vars` names the variable
// slot of each column, `data` holds rows of vertex IDs.

#ifndef SRC_ENGINE_BINDING_H_
#define SRC_ENGINE_BINDING_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"

namespace wukongs {

// Sentinel for a variable left unbound by an unmatched OPTIONAL group.
inline constexpr VertexId kUnboundBinding = kMaxVertexId;

class BindingTable {
 public:
  BindingTable() = default;

  // Column handling.
  int ColumnOf(int var) const;  // -1 if unbound.
  size_t num_cols() const { return vars_.size(); }
  const std::vector<int>& vars() const { return vars_; }

  // Rows. A table with zero columns has one implicit "unit" row until it is
  // explicitly emptied (matching the algebra of an empty graph pattern).
  size_t num_rows() const;
  VertexId At(size_t row, int col) const { return data_[row * vars_.size() + col]; }
  const VertexId* Row(size_t row) const { return &data_[row * vars_.size()]; }

  // Marks the unit table as failed (a constant-only pattern found no match).
  void FailUnit() { unit_failed_ = true; }

  // Builders: add every column first, then append rows in that layout.
  int AddColumn(int var);
  void AppendRow(const VertexId* row);

 private:
  std::vector<int> vars_;
  std::vector<VertexId> data_;
  bool unit_failed_ = false;
};

// Final query output. Plain variables bind vertex IDs; aggregate columns are
// numeric. The client resolves IDs back to strings via the string server.
struct ResultValue {
  bool is_number = false;
  VertexId vid = 0;
  double number = 0.0;

  static ResultValue Vertex(VertexId v) { return ResultValue{false, v, 0.0}; }
  static ResultValue Number(double n) { return ResultValue{true, 0, n}; }

  friend bool operator==(const ResultValue&, const ResultValue&) = default;
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<ResultValue>> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
};

// Fan-out hash-partition stage for shared template-group evaluation
// (DESIGN.md §5.12): buckets `result`'s rows by the vertex bound in column
// `col` (the probe query's hole column). The map's value lists row indices,
// not copies — each member registration then projects only its own bucket.
std::unordered_map<VertexId, std::vector<size_t>> PartitionRowsByColumn(
    const QueryResult& result, size_t col);

}  // namespace wukongs

#endif  // SRC_ENGINE_BINDING_H_
