// Coordinator: stable vector timestamps, SN-VTS plans, bounded snapshot
// scalarization (paper §4.3, Figs. 10-11).
//
// Each node's Injector reports batch completions, building Local_VTS[node].
// The Coordinator derives Stable_VTS (element-wise min) — the trigger
// condition for continuous queries — and maintains the SN-VTS plan: a
// published sequence of mappings "snapshot number SN covers stream batches up
// to VTS target". Injectors tag every persistent append with the SN of its
// batch, so all data of one SN is consecutive in each value, and one-shot
// queries read at Stable_SN (the largest SN whose target every node has
// reached). Keeping only `reserved_snapshots` SNs live bounds per-key
// metadata; the collapse floor advances as Stable_SN does.

#ifndef SRC_STREAM_COORDINATOR_H_
#define SRC_STREAM_COORDINATOR_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "src/common/ids.h"
#include "src/stream/batch.h"
#include "src/stream/vts.h"

namespace wukongs {

class Coordinator {
 public:
  // `batches_per_sn`: how many batches of every stream one SN covers — the
  // plan "interval" trading staleness for injection flexibility (§4.3).
  // `max_plan_extensions`: how far the announced plan frontier may run ahead
  // of Stable_SN before CanPlanSnFor tells the injector to stall (0 =
  // unbounded, the pre-overload behavior).
  Coordinator(uint32_t node_count, size_t reserved_snapshots = 2,
              uint64_t batches_per_sn = 1, size_t max_plan_extensions = 0);

  // Declares a stream; all VTS grow to cover it. Adding streams mid-run only
  // affects future plans (the paper's "dynamic streams" flexibility).
  void RegisterStream(StreamId stream);
  size_t stream_count() const;

  // Injector report: `node` finished injecting batch `seq` of `stream`.
  // Batches complete in order per (node, stream).
  void ReportInjected(NodeId node, StreamId stream, BatchSeq seq);

  // Membership view (fault tolerance, §5): a node marked inactive (crashed /
  // quarantined) is excluded from Stable_VTS and Stable_SN, so surviving
  // nodes keep triggering windows — degraded, not stalled. Reactivate only
  // after the node's Local_VTS has caught back up, or Stable_VTS regresses.
  void SetNodeActive(NodeId node, bool active);
  bool node_active(NodeId node) const;
  // Recovery: forget a crashed node's injection progress so replay can
  // re-report its batches from the beginning.
  void ResetNode(NodeId node);

  // Elastic membership (online reconfiguration, DESIGN.md §5.10): admits one
  // more node, active, with `seed` as its Local_VTS. The caller seeds at the
  // cluster's delivered frontier so Stable_VTS does not regress and the new
  // node's next in-order report satisfies the per-stream sequencing check.
  // Returns the new node id.
  NodeId AddNode(const VectorTimestamp& seed);

  VectorTimestamp LocalVts(NodeId node) const;
  VectorTimestamp StableVts() const;

  // Largest SN whose plan target is covered by Stable_VTS; kBaseSnapshot (0)
  // until the first plan completes.
  SnapshotNum StableSn() const;
  SnapshotNum LocalSn(NodeId node) const;

  // SN that batch `seq` of `stream` belongs to, per the announced plans.
  // Extends the plan when injection runs ahead of announcements (the real
  // system would stall the injector; the count of such extensions is
  // observable via plan_extensions()).
  SnapshotNum PlanSnFor(StreamId stream, BatchSeq seq);

  // Credit gate for the injector: false when assigning an SN to `seq` would
  // push the plan frontier more than `max_plan_extensions` SNs past
  // Stable_SN. The caller parks the batch in its pending queue instead of
  // calling PlanSnFor (which would extend unboundedly). Always true when the
  // cap is 0.
  bool CanPlanSnFor(StreamId stream, BatchSeq seq) const;

  // Snapshots <= floor can fold into base prefixes: Stable_SN minus the
  // reserved window. Callers forward this to GStore::CollapseBelow.
  SnapshotNum CollapseFloor() const;

  size_t reserved_snapshots() const { return reserved_snapshots_; }
  size_t plan_count() const;
  size_t plan_extensions() const;

 private:
  struct Plan {
    SnapshotNum sn;
    // target[s] = last batch (inclusive) of stream s in this snapshot.
    std::vector<BatchSeq> target;
  };

  SnapshotNum MaxSnCoveredLocked(const VectorTimestamp& vts) const;
  VectorTimestamp StableVtsLocked() const;
  void ExtendPlanLocked();

  uint32_t node_count_;  // Grows via AddNode; guarded by mu_ after init.
  const size_t reserved_snapshots_;
  const uint64_t batches_per_sn_;
  const size_t max_plan_extensions_;

  mutable std::mutex mu_;
  size_t stream_count_ = 0;
  std::vector<VectorTimestamp> local_vts_;  // Per node.
  std::vector<bool> active_;                // Per node; all true initially.
  std::vector<Plan> plans_;                 // Ascending SN, SN starts at 1.
  size_t plan_extensions_ = 0;
};

}  // namespace wukongs

#endif  // SRC_STREAM_COORDINATOR_H_
