// Runtime-switchable planted defects for the differential test harness.
//
// The harness (tests/differential_test.cc) must prove it has teeth: with a
// deliberately wrong engine it must report a mismatch against the reference
// oracle. These flags are the two canonical stream-engine bugs the RSP
// literature documents engines silently disagreeing on — a window boundary
// off by one batch, and a one-shot read at a stale snapshot number. Both
// default to off; production behavior is bit-identical unless a test flips
// them, and the atomics are relaxed because the flag is only ever toggled
// while the cluster is quiescent.

#ifndef SRC_COMMON_TEST_HOOKS_H_
#define SRC_COMMON_TEST_HOOKS_H_

#include <atomic>

namespace wukongs::test_hooks {

// WindowBatches extends every relative window by one future batch.
extern std::atomic<bool> off_by_one_window;

// Cluster::OneShotParsed reads one snapshot behind the scalarized Stable_SN.
extern std::atomic<bool> stale_sn_read;

// obs::Tracer swaps adjacent span emissions — the planted mutation the
// golden-trace determinism test must catch via a digest change.
extern std::atomic<bool> reorder_trace_spans;

// TransientStore/StreamIndex skip notifying eviction listeners on GC, so
// registered DeltaCaches keep serving binding rows sourced from reclaimed
// slices — the planted mutation the delta parity lane must catch.
extern std::atomic<bool> skip_delta_invalidation;

// Template-group fan-out (§5.12) skips the hash partition and hands every
// member the whole probe result — one user's bindings leak into sibling
// registrations. The grouped-vs-independent differential lane must catch it.
extern std::atomic<bool> skip_fanout_partition;

// UnregisterContinuous leaves the registration inside its template group and
// keeps serving its triggers — an unregistered query still receiving results.
extern std::atomic<bool> stale_group_membership;

// Columnar FILTER evaluation (§5.13) computes the per-chunk selection vector
// but never stores it — rows the predicate dropped stay active. The
// in-place differential lane must catch the divergence against the oracle.
extern std::atomic<bool> skip_selection_compact;

// The delta path recycles a contribution's column arena right after handing
// the chunks to the DeltaCache — simulating an arena reset while cached
// chunks still point into it, the lifetime bug the arena ownership rules in
// DESIGN.md §5.13 forbid. The delta/cold parity lane must catch it.
extern std::atomic<bool> stale_arena_reuse;

// The adaptive re-planner (§5.14) evaluates drift against the statistics
// snapshot frozen into the current plan instead of a fresh collector read —
// rates can shift arbitrarily and the drift detector never sees it, so
// re-planning silently never fires. The planner-stats lane must catch it.
extern std::atomic<bool> stale_stats_snapshot;

// The adaptive cutover (§5.14) hot-swaps the candidate plan without the
// shadow parity check or the coherent DeltaCache/MQO re-keying that rides on
// the gated path — cached prefix tables and per-slice contributions computed
// under the old plan keep being served under the new one. The planner lane's
// cutover audit must catch it: a plan-version bump on a delta-cached query
// with zero cache plan_flushes and zero cutover/pin counts is exactly this
// mutation's signature. (The delta/cold parity oracle stays green today only
// because fresh contributions inherit the cached prefix's column order — an
// accident of prefix anchoring the audit does not rely on.)
extern std::atomic<bool> skip_parity_gate;

// RAII toggle so a throwing test cannot leave a mutation armed for the rest
// of the suite.
class ScopedMutation {
 public:
  explicit ScopedMutation(std::atomic<bool>* flag) : flag_(flag) {
    flag_->store(true, std::memory_order_relaxed);
  }
  ~ScopedMutation() { flag_->store(false, std::memory_order_relaxed); }

  ScopedMutation(const ScopedMutation&) = delete;
  ScopedMutation& operator=(const ScopedMutation&) = delete;

 private:
  std::atomic<bool>* flag_;
};

}  // namespace wukongs::test_hooks

#endif  // SRC_COMMON_TEST_HOOKS_H_
