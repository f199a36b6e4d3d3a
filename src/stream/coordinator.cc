#include "src/stream/coordinator.h"

#include <algorithm>
#include <cassert>

namespace wukongs {

Coordinator::Coordinator(uint32_t node_count, size_t reserved_snapshots,
                         uint64_t batches_per_sn, size_t max_plan_extensions)
    : node_count_(node_count),
      reserved_snapshots_(std::max<size_t>(reserved_snapshots, 2)),
      batches_per_sn_(std::max<uint64_t>(batches_per_sn, 1)),
      max_plan_extensions_(max_plan_extensions),
      local_vts_(node_count),
      active_(node_count, true) {}

void Coordinator::RegisterStream(StreamId stream) {
  std::lock_guard lock(mu_);
  if (stream >= stream_count_) {
    stream_count_ = stream + 1;
  }
  for (auto& vts : local_vts_) {
    if (vts.size() < stream_count_) {
      vts.Resize(stream_count_);
    }
  }
}

size_t Coordinator::stream_count() const {
  std::lock_guard lock(mu_);
  return stream_count_;
}

void Coordinator::ReportInjected(NodeId node, StreamId stream, BatchSeq seq) {
  std::lock_guard lock(mu_);
  assert(node < node_count_);
  BatchSeq prev = local_vts_[node].Get(stream);
  assert(prev == kNoBatch || seq == prev + 1);
  (void)prev;
  local_vts_[node].Set(stream, seq);
}

VectorTimestamp Coordinator::LocalVts(NodeId node) const {
  std::lock_guard lock(mu_);
  return local_vts_[node];
}

void Coordinator::SetNodeActive(NodeId node, bool active) {
  std::lock_guard lock(mu_);
  assert(node < node_count_);
  active_[node] = active;
}

bool Coordinator::node_active(NodeId node) const {
  std::lock_guard lock(mu_);
  return node < node_count_ && active_[node];
}

void Coordinator::ResetNode(NodeId node) {
  std::lock_guard lock(mu_);
  assert(node < node_count_);
  local_vts_[node] = VectorTimestamp(stream_count_);
}

NodeId Coordinator::AddNode(const VectorTimestamp& seed) {
  std::lock_guard lock(mu_);
  VectorTimestamp vts = seed;
  if (vts.size() < stream_count_) {
    vts.Resize(stream_count_);
  }
  local_vts_.push_back(std::move(vts));
  active_.push_back(true);
  return static_cast<NodeId>(node_count_++);
}

VectorTimestamp Coordinator::StableVtsLocked() const {
  // Element-wise min over *active* nodes only: a crashed node must not stall
  // the trigger condition for the survivors (graceful degradation).
  bool seeded = false;
  VectorTimestamp stable(stream_count_);
  for (size_t n = 0; n < local_vts_.size(); ++n) {
    if (!active_[n]) {
      continue;
    }
    if (!seeded) {
      stable = local_vts_[n];
      seeded = true;
    } else {
      stable = VectorTimestamp::Min(stable, local_vts_[n]);
    }
  }
  if (stable.size() < stream_count_) {
    stable.Resize(stream_count_);
  }
  return stable;
}

VectorTimestamp Coordinator::StableVts() const {
  std::lock_guard lock(mu_);
  return StableVtsLocked();
}

SnapshotNum Coordinator::MaxSnCoveredLocked(const VectorTimestamp& vts) const {
  SnapshotNum sn = 0;  // kBaseSnapshot.
  for (const Plan& plan : plans_) {
    bool covered = true;
    for (size_t s = 0; s < plan.target.size(); ++s) {
      BatchSeq have = vts.Get(static_cast<StreamId>(s));
      if (have == kNoBatch || have < plan.target[s]) {
        covered = false;
        break;
      }
    }
    if (covered) {
      sn = plan.sn;
    } else {
      break;
    }
  }
  return sn;
}

SnapshotNum Coordinator::StableSn() const {
  std::lock_guard lock(mu_);
  if (local_vts_.empty()) {
    return 0;
  }
  return MaxSnCoveredLocked(StableVtsLocked());
}

SnapshotNum Coordinator::LocalSn(NodeId node) const {
  std::lock_guard lock(mu_);
  return MaxSnCoveredLocked(local_vts_[node]);
}

void Coordinator::ExtendPlanLocked() {
  Plan plan;
  if (plans_.empty()) {
    plan.sn = 1;
    plan.target.assign(stream_count_, batches_per_sn_ - 1);
  } else {
    const Plan& last = plans_.back();
    plan.sn = last.sn + 1;
    plan.target = last.target;
    plan.target.resize(stream_count_, kNoBatch);
    for (auto& t : plan.target) {
      t = (t == kNoBatch) ? batches_per_sn_ - 1 : t + batches_per_sn_;
    }
  }
  plans_.push_back(std::move(plan));
}

SnapshotNum Coordinator::PlanSnFor(StreamId stream, BatchSeq seq) {
  std::lock_guard lock(mu_);
  assert(stream < stream_count_);
  while (true) {
    for (const Plan& plan : plans_) {
      if (stream < plan.target.size() && seq <= plan.target[stream]) {
        return plan.sn;
      }
    }
    // Injection ran past the announced plans: publish another mapping. The
    // real injector would stall here until the Coordinator announces it.
    ExtendPlanLocked();
    ++plan_extensions_;
  }
}

bool Coordinator::CanPlanSnFor(StreamId stream, BatchSeq seq) const {
  std::lock_guard lock(mu_);
  if (max_plan_extensions_ == 0) {
    return true;
  }
  for (const Plan& plan : plans_) {
    if (stream < plan.target.size() && seq <= plan.target[stream]) {
      return true;  // Already announced.
    }
  }
  // How many extensions PlanSnFor would need, and where that would put the
  // frontier relative to Stable_SN.
  SnapshotNum frontier = 0;
  BatchSeq covered_through = kNoBatch;
  if (!plans_.empty()) {
    frontier = plans_.back().sn;
    if (stream < plans_.back().target.size()) {
      covered_through = plans_.back().target[stream];
    }
  }
  uint64_t have = covered_through == kNoBatch ? 0 : covered_through + 1;
  uint64_t need = seq + 1;
  uint64_t extensions = (need - have + batches_per_sn_ - 1) / batches_per_sn_;
  SnapshotNum stable = local_vts_.empty()
                           ? 0
                           : MaxSnCoveredLocked(StableVtsLocked());
  return frontier + extensions <= stable + max_plan_extensions_;
}

SnapshotNum Coordinator::CollapseFloor() const {
  SnapshotNum stable = StableSn();
  size_t reserve = reserved_snapshots_ - 1;
  return stable > reserve ? stable - reserve : 0;
}

size_t Coordinator::plan_count() const {
  std::lock_guard lock(mu_);
  return plans_.size();
}

size_t Coordinator::plan_extensions() const {
  std::lock_guard lock(mu_);
  return plan_extensions_;
}

}  // namespace wukongs
