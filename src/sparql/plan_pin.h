// Manual plan pins (§5.14) — à la Sheldie__wukong's manual_plan/q1.fmt.
//
// A pin freezes a registered query's pattern execution order so benches and
// regression tests assert *plan-dependent* behavior (the fig13 recompute
// order) without depending on estimator internals,
// and so operators can override the adaptive planner for a known-bad query.
// Pinned registrations are exempt from adaptive re-planning.
//
// Line-oriented text format, one directive per line:
//
//   # optional comments and blank lines
//   plan v1
//   order 0 2 1
//   selective false        # optional; omitted = derive from the plan
//
// `plan v1` must be the first directive; `order` is required exactly once
// and must list a permutation of 0..n-1 (n = the pinned query's pattern
// count, validated at install time by Cluster::PinContinuousPlan).

#ifndef SRC_SPARQL_PLAN_PIN_H_
#define SRC_SPARQL_PLAN_PIN_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace wukongs {

struct PlanPin {
  std::vector<int> order;
  // Overrides the in-place vs fork-join selectivity decision; unset = derive
  // from the pinned order with the usual heuristic.
  std::optional<bool> selective;
};

// Parses the pin format. Every rejection names its reason (malformed header,
// duplicate/missing order, non-permutation, trailing junk, ...).
StatusOr<PlanPin> ParsePlanPin(std::string_view text);

// Canonical serialization; ParsePlanPin(SerializePlanPin(p)) == p.
std::string SerializePlanPin(const PlanPin& pin);

// Reads and parses a pin file (e.g. from tests/corpus/plans/).
StatusOr<PlanPin> LoadPlanPinFile(const std::string& path);

}  // namespace wukongs

#endif  // SRC_SPARQL_PLAN_PIN_H_
