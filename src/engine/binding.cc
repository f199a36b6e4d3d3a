#include "src/engine/binding.h"

#include <cassert>

namespace wukongs {

int BindingTable::ColumnOf(int var) const {
  for (size_t i = 0; i < vars_.size(); ++i) {
    if (vars_[i] == var) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t BindingTable::num_rows() const {
  if (vars_.empty()) {
    return unit_failed_ ? 0 : 1;
  }
  return data_.size() / vars_.size();
}

int BindingTable::AddColumn(int var) {
  assert(ColumnOf(var) < 0);
  assert(data_.empty() && "AddColumn on a populated table; rebuild instead");
  vars_.push_back(var);
  return static_cast<int>(vars_.size() - 1);
}

void BindingTable::AppendRow(const VertexId* row) {
  data_.insert(data_.end(), row, row + vars_.size());
}

std::unordered_map<VertexId, std::vector<size_t>> PartitionRowsByColumn(
    const QueryResult& result, size_t col) {
  // Column-wise two-pass partition (DESIGN.md §5.13): gather the key column
  // into a flat id array first — one value per row instead of striding whole
  // ResultValue rows through the cache — then bucket over the contiguous
  // keys. Bucket contents stay in ascending row order either way.
  std::vector<VertexId> keys;
  keys.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    keys.push_back(row[col].vid);
  }
  std::unordered_map<VertexId, std::vector<size_t>> partitions;
  partitions.reserve(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    partitions[keys[r]].push_back(r);
  }
  return partitions;
}

}  // namespace wukongs
