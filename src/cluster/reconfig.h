// Online elastic reconfiguration (DESIGN.md §5.10).
//
// The paper's cluster is fixed-size: the hash partitioning of §4.2 is wired
// into every read and every injection. This module replaces that static
// assignment with a *versioned ownership map*: vertices hash into a fixed set
// of shards (initial_nodes * 16), shards map to nodes, and every change of
// the mapping bumps an **ownership epoch**. Executions snapshot the map as an
// immutable OwnershipView, so a query admitted under epoch E keeps routing by
// E for its whole lifetime even if a cutover lands mid-flight.
//
// The initial assignment is chosen so that `assign[shard] = shard % nodes`,
// which together with `shards % nodes == 0` makes
//     assign[hash % shards] == hash % nodes
// — bit-identical to the seed's OwnerOfVertex. Until the first move or
// membership change commits, views carry `identity = true` and readers take
// the legacy fast path (no per-vertex filtering).
//
// A shard moves in four steps (driven by ReconfigManager against a Cluster):
//   1. Begin   — pin the migration; from now on every injected batch is
//                *dual-applied*: the moving shard's partition also lands on
//                the target (same SN, same batch seq), keeping it in sync.
//   2. Copy    — base partition + checkpoint-log replay of batches delivered
//                before Begin, folded into the target via the migrated-append
//                path (GStore::InjectEdgeMigrated) so SN bookkeeping and the
//                StoredEpoch memo guard stay undisturbed.
//   3. Cutover — once every delivered batch's plan SN is covered by
//                Stable_SN (the target's VTS has caught up and replayed
//                history is visible at or below any post-commit snapshot),
//                the epoch bumps atomically. Old-epoch executions keep
//                reading the source copy; new ones route to the target.
//   4. Rollback — a crash of either endpoint, or the target falling behind,
//                aborts the migration *without* touching the epoch; the
//                partial target copy stays invisible behind ownership
//                filtering, so no result is lost or duplicated.

#ifndef SRC_CLUSTER_RECONFIG_H_
#define SRC_CLUSTER_RECONFIG_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/rdf/triple.h"

namespace wukongs {

class Cluster;

// Shards per *initial* node; the shard count is fixed at construction so the
// vertex -> shard hash never changes across membership changes.
inline constexpr uint32_t kShardsPerNode = 16;

// Immutable snapshot of the shard -> node assignment at one epoch. Cheap to
// share: executions hold a shared_ptr for their lifetime.
struct OwnershipView {
  uint64_t epoch = 0;
  uint32_t nodes = 1;
  uint32_t shards = kShardsPerNode;
  // True while the assignment is still `shard % nodes` AND no migration has
  // ever started: readers may use the legacy hash-mod-nodes path and skip
  // per-vertex ownership filtering.
  bool identity = true;
  std::shared_ptr<const std::vector<NodeId>> assign;

  uint32_t ShardOfVertex(VertexId v) const {
    return static_cast<uint32_t>(KeyHash{}(Key(v, 0, Dir::kOut)) % shards);
  }

  NodeId OwnerOfV(VertexId v) const {
    if (identity) {
      return static_cast<NodeId>(KeyHash{}(Key(v, 0, Dir::kOut)) % nodes);
    }
    return (*assign)[ShardOfVertex(v)];
  }
};

// The mutable, versioned ownership map. All mutation goes through the
// Cluster (commit of a migration, AddNode); readers snapshot with View().
class ShardMap {
 public:
  explicit ShardMap(uint32_t nodes);

  std::shared_ptr<const OwnershipView> View() const;
  uint64_t epoch() const;
  uint32_t shard_count() const;
  uint32_t node_count() const;
  NodeId OwnerOfShard(uint32_t shard) const;
  std::vector<uint32_t> ShardsOwnedBy(NodeId node) const;
  uint32_t ShardOfVertex(VertexId v) const;

  // Drops the identity fast path (forcing per-vertex ownership filtering on
  // reads) without bumping the epoch. Called at migration Begin so partial
  // target copies are invisible even if the first-ever migration aborts.
  void MarkDirty();

  // Atomic cutover: reassigns `shard` to `target` and bumps the epoch.
  Status CommitMove(uint32_t shard, NodeId target);

  // Grows membership by one node and bumps the epoch. The new node owns no
  // shards until moves land on it.
  NodeId AddNode();

 private:
  std::shared_ptr<const OwnershipView> MutableCloneLocked() const;

  mutable std::mutex mu_;
  std::shared_ptr<const OwnershipView> view_;
};

// One reconfiguration operation's outcome.
struct ReconfigReport {
  std::vector<uint32_t> shards_moved;
  size_t shards_remaining = 0;  // DrainNode: shards still on the node.
  size_t batches_replayed = 0;
  size_t edges_copied = 0;
  // True when the transfer finished but the epoch bump is deferred until
  // Stable_SN covers the delivered frontier; the cluster commits it
  // automatically from the feed path.
  bool commit_pending = false;
};

// Drives live shard handoffs using the checkpoint log for history replay,
// mirroring RecoveryManager's shape. All calls run on the feed thread (the
// same single-threaded discipline as FeedStream/AdvanceStreams).
class ReconfigManager {
 public:
  // `checkpoint_path` may be empty when no batch history needs replay (e.g.
  // a cluster whose streams started after Begin); otherwise it must name the
  // log wired into Cluster::SetBatchLogger.
  explicit ReconfigManager(std::string checkpoint_path);

  // Moves one shard to `target` live: Begin, copy the base partition, replay
  // logged batches delivered before Begin, then finish (commit or defer).
  StatusOr<ReconfigReport> MoveShard(Cluster* cluster, uint32_t shard,
                                     NodeId target,
                                     std::span<const Triple> base_triples);

  // Drains every shard off `node`, round-robining targets over the remaining
  // serving, non-draining nodes. Each move is sequential (one migration in
  // flight at a time); if a commit defers, draining stops early and
  // `shards_remaining` reports what is left — feed more batches and call
  // again.
  StatusOr<ReconfigReport> DrainNode(Cluster* cluster, NodeId node,
                                     std::span<const Triple> base_triples);

 private:
  std::string checkpoint_path_;
};

}  // namespace wukongs

#endif  // SRC_CLUSTER_RECONFIG_H_
