// Cluster: the public entry point of the Wukong+S reproduction.
//
// A Cluster owns N simulated nodes (store shards, per-stream transient
// stores and stream indexes), the string server, the simulated RDMA fabric,
// and the Coordinator. It implements the paper's execution flow (Fig. 5):
// streams flow through Adaptor -> Dispatcher -> Injectors into the hybrid
// store; continuous queries trigger off stable vector timestamps; one-shot
// queries read a consistent snapshot through bounded snapshot scalarization.
//
// Time is logical: callers feed tuples carrying stream timestamps and drive
// window execution explicitly, which keeps every experiment deterministic.

#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/cluster/hedge.h"
#include "src/cluster/sources.h"
#include "src/common/histogram.h"
#include "src/common/retry.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/engine/executor.h"
#include "src/fault/fault_injector.h"
#include "src/overload/load_shedder.h"
#include "src/overload/overload_config.h"
#include "src/overload/phi_accrual.h"
#include "src/overload/straggler_detector.h"
#include "src/rdf/string_server.h"
#include "src/rdf/triple.h"
#include "src/rdma/fabric.h"
#include "src/sparql/parser.h"
#include "src/sparql/plan_pin.h"
#include "src/store/gstore.h"
#include "src/store/planner.h"
#include "src/store/stream_stats.h"
#include "src/stream/adaptor.h"
#include "src/stream/coordinator.h"
#include "src/stream/stream_index.h"
#include "src/stream/transient_store.h"

namespace wukongs {

class UpstreamBuffer;

namespace testkit {
class ScheduleController;
}  // namespace testkit

// Multi-query optimization for templated continuous queries (DESIGN.md
// §5.12). Registrations whose parsed queries canonicalize to the same
// template signature (same shape, different user constant) form a group; a
// trigger evaluates the group's shared probe query once and hash-partitions
// the bindings back to members. Enabled by default, but a group only engages
// once it holds `min_group_size` members — singleton registrations execute
// byte-identically to a cluster without MQO.
struct MqoConfig {
  bool enabled = true;
  size_t min_group_size = 2;
};

// End-to-end latency budgets (DESIGN.md §5.11). Off by default — a
// default-constructed config enforces nothing, byte-identical to the seed.
struct DeadlineConfig {
  bool enforce = false;  // Master switch for budget enforcement.
  // Budget granted when the caller passes none (0 = such queries run
  // unbounded; only explicitly budgeted queries are enforced).
  double default_budget_ms = 0.0;
};

struct ClusterConfig {
  uint32_t nodes = 1;
  Transport transport = Transport::kRdma;
  NetworkModel network;

  uint64_t batch_interval_ms = kDefaultBatchIntervalMs;
  size_t reserved_snapshots = 2;
  uint64_t batches_per_sn = 1;
  size_t transient_budget_bytes = 0;  // 0 = unbounded ring buffers.

  // Per-node worker threads for continuous queries; the paper dedicates 16.
  // Used by throughput modeling, not by execution itself.
  uint32_t workers_per_node = 16;

  // Fork-join parallel speedup = nodes^exponent (paper Fig. 12 shows ~3x
  // from 2 to 8 nodes, i.e. exponent ~0.8).
  double fork_join_parallel_exponent = 0.8;

  // Forces fork-join for every query; used with Transport::kTcp to model the
  // paper's Non-RDMA configuration (Table 5).
  bool force_fork_join = false;
  // Forces in-place execution for every query (ablation: why the engine
  // picks fork-join for non-selective queries).
  bool force_in_place = false;

  // Locality-aware partitioning of the stream index (paper §4.2, Fig. 9):
  // replicate a stream's index to nodes whose registered queries consume it.
  // Disabling it (ablation) makes every remote window lookup pay an extra
  // one-sided read for the index itself — the cost Fig. 9 is designed away.
  bool locality_aware_index = true;

  // Fault injection (non-owning; must outlive the cluster). When set, batch
  // delivery, fabric verbs, and scheduled crashes follow its seeded schedule.
  FaultInjector* fault_injector = nullptr;
  // Retry/backoff applied to fallible fabric operations (in-place reads,
  // dispatcher shipping); backoff is charged into SimCost so degraded-mode
  // latency shows up in measured query latency.
  RetryPolicy retry;

  // Overload protection (§5.6): credit backpressure, load shedding, plan-
  // extension caps and the phi-accrual failure detector. All defaults off —
  // a default-constructed config behaves exactly like the seed.
  OverloadConfig overload;

  // Shared template-group evaluation for continuous queries (§5.12).
  MqoConfig mqo;

  // Tail robustness (§5.11): latency budgets, hedged fork-join sub-queries
  // and gray-failure (straggler) demotion. All defaults off.
  DeadlineConfig deadline;
  HedgeConfig hedge;
  StragglerConfig straggler;

  // Adaptive cost-based re-planning from live stream statistics (§5.14).
  // Off by default: registered plans then keep the plan-once stored-procedure
  // lifecycle, byte-identical to earlier releases. When enabled, every
  // min_triggers_between triggers of a registration the cluster compares the
  // plan's statistics snapshot against a fresh one; on drift it synthesizes a
  // candidate plan and cuts over only after a shadow parity check.
  ReplanPolicy replan;

  // Schedule fuzzing (non-owning; must outlive the cluster). When set,
  // AdvanceStreams lets it permute cross-stream batch delivery order; the
  // MaintenanceDaemon and WorkerPool accept the same controller for timing
  // and dequeue-order decisions. Null = deterministic seed behavior.
  testkit::ScheduleController* schedule = nullptr;

  // Observability (§5.8; non-owning, must outlive the cluster). `metrics` is
  // where the cluster keeps its event counters (the typed stats accessors
  // read them back); null means the cluster keeps them in a registry of its
  // own and exports nothing (DumpMetrics is empty). Clusters attached to one
  // registry share its counters, so their stats views report the sum.
  // `tracer` is the runtime switch for tracing: null records nothing.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

// Outcome of one query execution with its modeled cost breakdown.
struct QueryExecution {
  QueryResult result;
  double cpu_ms = 0.0;   // Measured compute time (scaled if fork-join).
  double net_ms = 0.0;   // Modeled network / fabric time.
  bool fork_join = false;
  SnapshotNum snapshot = 0;
  StreamTime window_end_ms = 0;  // Continuous executions only.

  // Degraded-mode surface: partial means some quarantined shard's data could
  // not be served — the result is usable but may be incomplete (a Status-like
  // signal instead of a crash). Retry accounting makes the price of riding
  // through transient faults visible per execution.
  bool partial = false;
  uint64_t skipped_shards = 0;
  uint64_t fault_retries = 0;
  double backoff_ms = 0.0;
  // Fraction of the windows' timing edges shed (door) or lost (injector);
  // 0 on a loss-free execution. The overload analogue of `partial`. Both
  // values are threaded through the fork-join merge (ExecuteUnion) so the
  // client sees loss accounting on every path, and the absolute edge count
  // lets it audit the fraction against the shed ledger.
  double shed_fraction = 0.0;
  uint64_t timing_edges_lost = 0;

  // Always 0: every trigger evaluates its full window (DESIGN.md §5.9).
  // Kept only because perfbench/lsbench_replay.cc still reads them.
  uint64_t delta_slices_cached = 0;
  uint64_t delta_slices_fresh = 0;

  // Ownership epoch the execution was admitted under (DESIGN.md §5.10): all
  // of its reads route by this epoch's shard map, even if a migration commits
  // mid-flight.
  uint64_t ownership_epoch = 0;

  // Tail-robustness surface (§5.11). `deadline_expired` means the latency
  // budget ran out mid-execution and remaining remote work was cancelled;
  // the result is then a sound subset of the full answer. `completeness` is
  // the declared lower-bound fraction of the full answer the result covers:
  // 1.0 on a healthy run, (served / attempted work) x (1 - shed_fraction)
  // when budget or loss degraded it.
  bool deadline_expired = false;
  uint64_t deadline_skipped_reads = 0;
  double completeness = 1.0;
  // Hedged fork-join sub-requests this execution issued / that beat their
  // primary (the loser of each pair is cancelled and deduplicated).
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;

  double latency_ms() const { return cpu_ms + net_ms; }
};

class Cluster {
 public:
  using ContinuousHandle = uint64_t;

  // `shared_strings` (optional) lets several engines — e.g. the integrated
  // system and a composite baseline's static store — agree on vertex IDs.
  // The pointee must outlive the cluster.
  explicit Cluster(const ClusterConfig& config,
                   StringServer* shared_strings = nullptr);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const ClusterConfig& config() const { return config_; }
  StringServer* strings() { return strings_; }
  const StringServer& strings() const { return *strings_; }
  Fabric* fabric() { return fabric_.get(); }
  Coordinator* coordinator() { return coordinator_.get(); }
  GStore* store(NodeId n) { return stores_raw_[n]; }
  uint32_t node_count() const { return config_.nodes; }
  // Current-epoch owner of a vertex (identical to OwnerOfVertex until the
  // first committed reconfiguration).
  NodeId OwnerOf(VertexId v) const { return shard_map_.View()->OwnerOfV(v); }

  // --- Streams. ---
  // Declares a stream; `timing_predicates` name predicates whose tuples are
  // timing data (GPS-style), kept only in the transient store. Higher
  // `shed_priority` sheds later under pressure (overload.shed policy).
  StatusOr<StreamId> DefineStream(const std::string& name,
                                  const std::vector<std::string>& timing_predicates = {},
                                  int shed_priority = 0);
  StatusOr<StreamId> FindStream(const std::string& name) const;

  // --- Data. ---
  void LoadBase(std::span<const Triple> triples);
  // Feeds in-order tuples into a stream; completed mini-batches are
  // dispatched and injected immediately.
  Status FeedStream(StreamId stream, const StreamTupleVec& tuples);
  // Advances every stream's logical clock, flushing (possibly empty) batches
  // up to `now_ms` so vector timestamps progress on idle streams.
  void AdvanceStreams(StreamTime now_ms);

  // --- One-shot queries (read-only snapshot transactions, §4.3). ---
  // `deadline_ms` grants the execution a latency budget in modeled
  // milliseconds (0 = config_.deadline.default_budget_ms, which defaults to
  // unbounded). Enforcement requires config_.deadline.enforce; an exhausted
  // budget cancels remaining remote work and returns a partial result with
  // a declared completeness fraction.
  StatusOr<QueryExecution> OneShot(std::string_view text, NodeId home = 0,
                                   double deadline_ms = 0.0);
  StatusOr<QueryExecution> OneShotParsed(const Query& q, NodeId home = 0,
                                         double deadline_ms = 0.0);

  // --- Continuous queries. ---
  StatusOr<ContinuousHandle> RegisterContinuous(std::string_view text,
                                                NodeId home = 0);
  StatusOr<ContinuousHandle> RegisterContinuousParsed(const Query& q,
                                                      NodeId home = 0);
  const Query& ContinuousQueryOf(ContinuousHandle h) const;
  // True when Stable_VTS covers every window ending at `end_ms` (the
  // data-driven trigger condition, Fig. 10).
  bool WindowReady(ContinuousHandle h, StreamTime end_ms) const;
  // Executes the registered query with windows ending at `end_ms`. Fails
  // with FailedPrecondition if the trigger condition does not hold.
  // `deadline_ms` as in OneShot (continuous triggers carry budgets too).
  StatusOr<QueryExecution> ExecuteContinuousAt(ContinuousHandle h,
                                               StreamTime end_ms,
                                               double deadline_ms = 0.0);
  // Cold re-execution: same query, same cached plan, evaluated on its own —
  // never served from its template group, never re-planned, feeding no
  // statistics, and leaving the continuous-query counter untouched. The
  // differential harness uses it as the grouped-vs-independent baseline.
  StatusOr<QueryExecution> ExecuteContinuousColdAt(ContinuousHandle h,
                                                   StreamTime end_ms);

  // Removes a continuous registration: its triggers fail with NotFound from
  // now on, and it leaves its template group (the last member leaving
  // dissolves the group). Handles are never reused.
  Status UnregisterContinuous(ContinuousHandle h);
  bool ContinuousActive(ContinuousHandle h) const;

  // --- Template-group introspection (§5.12). ---
  struct MqoStats {
    uint64_t grouped_registrations = 0;  // Registrations that joined a group.
    uint64_t groups_formed = 0;
    uint64_t groups_dissolved = 0;
    uint64_t shared_evals = 0;        // Probe evaluations (one per group+trigger).
    uint64_t fanout_served = 0;       // Member triggers served from a memo.
    uint64_t independent_fallbacks = 0;  // Grouped triggers that split back.
  };
  MqoStats mqo_stats() const;
  // Group of a registration (-1 = ungrouped / dissolved-away), its current
  // member count, and the live group count.
  int MqoGroupOf(ContinuousHandle h) const;
  size_t MqoGroupSizeOf(ContinuousHandle h) const;
  size_t MqoLiveGroups() const;

  // --- Adaptive re-planning & plan pinning (§5.14). ---
  struct ReplanStats {
    uint64_t checks = 0;           // Drift evaluations (cadence gate passed).
    uint64_t drift_triggers = 0;   // Checks whose drift cleared the factor.
    uint64_t cutovers = 0;         // Parity-verified plan swaps installed.
    uint64_t parity_failures = 0;  // Candidates the shadow check rejected.
    uint64_t budget_overruns = 0;  // Shadow checks abandoned over budget.
    uint64_t pins = 0;             // Plans installed via PinContinuousPlan.
  };
  ReplanStats replan_stats() const;
  // Current plan order of a registration (empty until its first trigger
  // plans it) and the plan's version (0 until planned; cutovers and pins
  // advance it).
  std::vector<int> ContinuousPlanOf(ContinuousHandle h) const;
  uint64_t PlanVersionOf(ContinuousHandle h) const;
  // Installs a manual plan pin: validates the order against the registered
  // query's pattern count, derives selectivity unless the pin overrides it,
  // invalidates the MQO memos, and exempts the registration from adaptive
  // re-planning from now on.
  Status PinContinuousPlan(ContinuousHandle h, const PlanPin& pin);
  // Fresh snapshot of the live statistics feeding the adaptive planner.
  StreamStatsSnapshot CurrentStreamStats() const { return stream_stats_.Snapshot(); }

  // --- Maintenance: snapshot collapse + stream index / transient GC. ---
  // `live_horizon_ms`: no registered window will ever reach before this
  // stream time again (typically now - max window range).
  void RunMaintenance(StreamTime live_horizon_ms);

  // --- Observability (§5.8). ---
  // The registry holding this cluster's counters: config().metrics when one
  // is attached, else one the cluster owns. Never null; components that run
  // beside the cluster (WorkerPool, MaintenanceDaemon) resolve their handles
  // here.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  // Refreshes export-time gauges in the attached registry — VTS lag per
  // stream (Local_VTS − Stable_VTS), phi-accrual suspicion per node, door
  // pressure and pending batches, memory, stream-index hit/miss, transient
  // GC reclaim, fabric verb counts, admission stats are scraped by their
  // owners. No-op unless a registry is attached through config().metrics.
  void UpdateScrapedMetrics();
  // UpdateScrapedMetrics + the registry's Prometheus-style exposition;
  // `name_filter` narrows to matching metric names (e.g. `node="0"`).
  std::string DumpMetrics(const std::string& name_filter = "");

  // --- Instrumentation. ---
  struct InjectionProfile {
    double inject_ms = 0.0;  // Persistent + transient store writes.
    double index_ms = 0.0;   // Stream index construction.
    size_t tuples = 0;
    size_t batches = 0;
  };
  InjectionProfile injection_profile(StreamId stream) const;

  struct MemoryReport {
    size_t store_bytes = 0;
    size_t snapshot_meta_bytes = 0;
    size_t stream_index_bytes = 0;  // Including replicas.
    size_t transient_bytes = 0;
    size_t string_server_bytes = 0;
    size_t stream_appended_edges = 0;
    size_t stream_index_replicas = 0;
  };
  MemoryReport Memory() const;
  // Per-stream breakdowns (aggregated across nodes, excluding replicas).
  size_t StreamIndexBytes(StreamId stream) const;
  size_t TransientBytes(StreamId stream) const;

  // --- Fault tolerance hooks (§5). ---
  // Logger invoked for every injected batch (incremental checkpointing).
  void SetBatchLogger(std::function<void(const StreamBatch&)> logger);
  // Recovery path: re-injects a logged batch, bypassing the Adaptor. With an
  // at-least-once replay source (checkpoint log + upstream backup overlap),
  // already-injected batches are suppressed, not errors.
  Status ReplayBatch(const StreamBatch& batch);

  // --- Fault injection, degraded operation & recovery. ---
  struct FaultStats {
    uint64_t batches_redelivered = 0;    // First delivery lost, retransmitted.
    uint64_t duplicates_suppressed = 0;  // Caught by the injection seq gate.
    uint64_t batches_delayed = 0;
    uint64_t crashes = 0;
    uint64_t reroutes = 0;               // Executions whose home was down.
    uint64_t degraded_executions = 0;    // Executions with partial results.
    // Dispatcher delivery: drop retransmits plus fallible-shipping retries.
    RetryStats delivery_retry;
  };
  FaultStats fault_stats() const;

  bool NodeUp(NodeId n) const;
  uint32_t UpNodeCount() const;
  // Next batch seq the stream's adaptor will emit (recovery watermark).
  BatchSeq NextSeq(StreamId stream) const;

  // Kills a node: its shard, stream-index replicas and transient slices are
  // lost (volatile state dies with the process), it leaves the fabric and the
  // coordinator's active set, and its vector-timestamp progress is reset.
  // The last live node cannot be crashed.
  Status CrashNode(NodeId node);
  // Invoked after a scheduled CrashEvent kills its node — the hook point for
  // tearing the checkpoint-log tail (the cluster does not know the log path).
  void SetCrashHandler(std::function<void(const CrashEvent&)> handler);
  // Upstream backup: every batch reaching the dispatcher is retained here
  // until the caller acks it as durably checkpointed. Non-owning.
  void SetUpstreamBuffer(UpstreamBuffer* upstream);

  // Node restore, driven by RecoveryManager: reload the crashed node's base
  // partition, replay every logged batch filtered to that node, then verify
  // it caught up and re-admit it to the fabric and the active set.
  Status LoadBaseForNode(NodeId node, std::span<const Triple> triples);
  Status ReplayBatchForNode(NodeId node, const StreamBatch& batch);
  Status FinishNodeRestore(NodeId node);

  // --- Online elastic reconfiguration (DESIGN.md §5.10). ---
  // Live shard handoff, driven by ReconfigManager (or directly by tests):
  // Begin pins a single in-flight migration and turns on dual-apply for the
  // moving shard; LoadBaseForShard / ReplayBatchForShard copy the shard's
  // base partition and logged history into the target (the source keeps
  // serving throughout); FinishShardTransfer marks the copy complete, after
  // which the cutover (an atomic ownership-epoch bump) happens as soon as
  // Stable_SN covers the delivered frontier — immediately in a healthy
  // cluster, otherwise deferred and retried from the feed path. A crash of
  // either endpoint, or the target falling behind, aborts and rolls back to
  // the old epoch; AbortShardMove does the same explicitly.
  uint64_t OwnershipEpoch() const { return shard_map_.epoch(); }
  uint32_t ShardCount() const { return shard_map_.shard_count(); }
  NodeId ShardOwner(uint32_t shard) const { return shard_map_.OwnerOfShard(shard); }
  std::vector<uint32_t> ShardsOwnedBy(NodeId node) const {
    return shard_map_.ShardsOwnedBy(node);
  }
  uint32_t ShardOfVertexId(VertexId v) const { return shard_map_.ShardOfVertex(v); }
  bool MigrationPending() const { return migration_ != nullptr; }
  Status BeginShardMove(uint32_t shard, NodeId target);
  Status LoadBaseForShard(std::span<const Triple> triples);
  Status ReplayBatchForShard(const StreamBatch& batch);
  Status FinishShardTransfer();
  Status AbortShardMove(const std::string& reason);

  // Grows the cluster by one empty node (up, serving, active, VTS seeded at
  // the delivered frontier). Must not run concurrently with queries or while
  // a migration is in flight; the new node receives shards via MoveShard.
  StatusOr<NodeId> AddNode();

  // Marks a node draining: it stops hosting ingest duties and registered
  // queries (both re-home to a serving, non-draining node), is skipped by
  // execution reroutes, and is rejected as a migration target. Its shards
  // are moved off with MoveShard/DrainNode; the node keeps serving reads for
  // shards it still owns until then.
  Status BeginDrain(NodeId node);
  bool IsDraining(NodeId node) const { return draining_.count(node) > 0; }

  struct ReconfigStats {
    uint64_t moves_started = 0;
    uint64_t moves_committed = 0;
    uint64_t moves_aborted = 0;
    uint64_t edges_copied = 0;        // Base copy + history replay.
    uint64_t dual_applied_edges = 0;  // Live batches mirrored to the target.
    uint64_t batches_replayed = 0;
    uint64_t nodes_added = 0;
    uint64_t drains_started = 0;
    uint64_t rehomed_registrations = 0;
    // Stale-copy edges removed from targets at Begin (former owners keep
    // their copy at cutover; it must go before the shard can come back).
    uint64_t stale_edges_purged = 0;
  };
  ReconfigStats reconfig_stats() const;

  // --- Overload protection (§5.6). ---
  // Drives heartbeats / the failure detector, drains slow-node backlogs, and
  // decays shed pressure. AdvanceStreams calls this; drivers whose feed is
  // stalled by backpressure call it directly so wall-clock still advances.
  void TickHealth(StreamTime now_ms);
  // Hook fired when a transient append hits the memory budget (before the
  // one retry) — typically MaintenanceDaemon::Kick. Single-threaded with
  // respect to the feed path.
  void SetPressureListener(std::function<void(StreamId, NodeId)> listener);
  OverloadStats overload_stats() const;
  // Per-batch shed/loss ledger entry, for auditing "correct modulo declared
  // loss": the differential harness checks that everything missing from a
  // window result is accounted for here. Zeroes when nothing was recorded.
  struct ShedInfo {
    uint64_t timing_tuples = 0;        // At the door, before shedding.
    uint64_t door_shed_tuples = 0;     // Suffix-shed at the adaptor.
    uint64_t injector_lost_edges = 0;  // Shed or lost at AppendSlice.
  };
  ShedInfo ShedInfoFor(StreamId stream, BatchSeq seq) const;
  const FailureDetector* failure_detector() const { return health_.get(); }
  // Gray-failure detector (§5.11); set iff config_.straggler.enabled.
  const StragglerDetector* straggler_detector() const { return straggler_.get(); }
  // Is the node currently demoted from fork-join fan-out as a straggler?
  bool StragglerSlow(NodeId n) const {
    return straggler_ != nullptr && straggler_->slow(n);
  }
  // Current hedge trigger delay (modeled ns), derived from the per-node
  // service histograms; 0 while the histograms are still warming up.
  double HedgeDelayNs() const;
  // Batches held at the adaptor door by credit/plan backpressure.
  size_t PendingBatches(StreamId stream) const;
  bool NodeServing(NodeId n) const;
  uint32_t ServingNodeCount() const;

 private:
  // Per-batch shed/loss ledger, in door-tuple units (1 tuple = 2 edges):
  // lets window executions report exactly how much of their timing data is
  // missing (guarded by overload_mu_; pruned with the GC horizon).
  struct ShedRecord {
    uint64_t timing_tuples = 0;        // At the door, before shedding.
    uint64_t door_shed_tuples = 0;     // Suffix-shed at the adaptor.
    uint64_t injector_lost_edges = 0;  // Shed or lost at AppendSlice.
  };

  struct StreamState {
    std::string name;
    std::unique_ptr<StreamAdaptor> adaptor;
    NodeId ingest_node = 0;  // Where Adaptor+Dispatcher run for this stream.
    std::unordered_set<NodeId> subscribers;  // Locality-aware index replicas.
    InjectionProfile profile;

    // Overload state (feed-path single-threaded except `shed`, which query
    // threads read under overload_mu_).
    int shed_priority = 0;
    std::deque<StreamBatch> pending;  // Door queue awaiting credits/plans.
    PressureGauge pressure;
    std::unordered_map<BatchSeq, ShedRecord> shed;

    // Per-stream ingest counters, resolved at DefineStream.
    obs::Counter* obs_batches = nullptr;
    obs::Counter* obs_tuples = nullptr;
  };

  // A batch partition destined for a slow node, parked until the node's
  // slow window ends (paper's fallback: never stall healthy nodes on a
  // straggler — defer, then drain FIFO when it catches up).
  struct DeferredInjection {
    StreamId stream = 0;
    BatchSeq seq = 0;
    SnapshotNum sn = 0;
    std::vector<std::pair<Key, VertexId>> timeless;
    std::vector<std::pair<Key, VertexId>> timing;
  };

  // One immutable plan generation for a registration (§5.14). Triggers copy
  // the shared_ptr under plan_mu and use that snapshot for their whole
  // execution, so a concurrent cutover can never split one trigger across
  // two plans.
  struct PlanState {
    std::vector<int> order;
    bool selective = true;
    uint64_t version = 1;
    bool pinned = false;  // Installed via PinContinuousPlan; replan skips it.
    // Planned while a window still reached back before stream time 0, from
    // a fraction of its steady-state contents; planned once more at the
    // first trigger whose windows are all full.
    bool provisional = false;
    // Live-statistics snapshot the plan was derived from: the drift
    // detector's "then" side.
    StreamStatsSnapshot stats;
  };

  struct Registration {
    Query query;
    NodeId home = 0;
    std::vector<StreamId> stream_ids;  // Parallel to query.windows.
    // Registered queries are "stored procedures" (paper Fig. 5): the plan is
    // computed on the first triggered execution (when window statistics
    // exist), recomputed once if those windows were not yet full, and reused
    // thereafter. With config_.replan.enabled the plan can later be replaced
    // by a parity-gated adaptive cutover or a manual pin; plan_mu guards the
    // pointer swap and the trigger cadence counter.
    std::unique_ptr<std::mutex> plan_mu = std::make_unique<std::mutex>();
    std::shared_ptr<const PlanState> plan;  // Null until first planned.
    uint64_t triggers_since_check = 0;      // Guarded by plan_mu.

    // Template-group membership (§5.12). Unregistered registrations stay in
    // the deque (indices are handles) with active=false. `group` indexes
    // groups_; `hole_constant` is this member's user constant and
    // `var_to_canon` its variable renaming into the group's probe space.
    bool active = true;
    int group = -1;
    VertexId hole_constant = 0;
    std::vector<int> var_to_canon;
  };

  // One template group (§5.12): the shared probe registration, its members,
  // and a per-trigger memo of the probe's execution plus the hash partition
  // of its rows by hole value. The memo key pins everything a window read
  // depends on — trigger end, stored-graph epoch, snapshot, ownership epoch
  // and the MQO generation counter (bumped by GC, crashes, reconfig and
  // membership churn) — so a stale memo can never be served.
  struct TemplateGroup {
    std::string key;
    bool live = true;
    Registration probe;
    int hole_col = 0;  // Probe result column holding the hole binding.
    std::vector<ContinuousHandle> members;

    std::mutex mu;  // Guards members and the memo.
    bool memo_valid = false;
    StreamTime memo_end_ms = 0;
    uint64_t memo_stored_epoch = 0;
    SnapshotNum memo_snapshot = 0;
    uint64_t memo_ownership_epoch = 0;
    uint64_t memo_gen = 0;
    QueryExecution memo_exec;
    std::unordered_map<VertexId, std::vector<size_t>> memo_partition;
  };

  // Door-side admission of a finished mini-batch: records its timing total,
  // sheds a suffix under pressure, then queues it behind the credit gate.
  void EnqueueBatch(StreamBatch&& batch);
  // Delivers queued batches while credits and plan extensions allow.
  void PumpPending(StreamId stream);
  bool HasCredit(StreamId stream) const;
  // Appends a batch's timing edges to node `n`'s transient slice, running
  // the pressure escalation (kick maintenance, retry, shed prefix) when the
  // memory budget rejects the append.
  void AppendTimingEdges(StreamId stream, NodeId n, BatchSeq seq,
                         const std::vector<std::pair<Key, VertexId>>& edges);
  void DrainBacklog(NodeId n);
  bool NodeCaughtUp(NodeId n) const;
  // Loss accounting for the timing edges inside `reg`'s windows at end_ms:
  // sets exec->shed_fraction and exec->timing_edges_lost from the shed
  // ledger. Every execution path (in-place, fork-join, and the UNION merge)
  // funnels through this one helper so no path can drop the accounting.
  void ApplyWindowLoss(const Registration& reg, StreamTime end_ms,
                       QueryExecution* exec) const;

  // Dispatcher-side delivery: applies the fault schedule (drop = backoff +
  // retransmit, duplicate, delay), fires scheduled crashes, retains the batch
  // upstream, and runs the at-least-once -> exactly-once sequence gate before
  // injecting.
  void DeliverBatch(const StreamBatch& batch);
  // `only_node` >= 0 restricts injection to that node's partition (node
  // restore replay); profiles, logging and the delivery gate are bypassed.
  void InjectBatch(const StreamBatch& batch, int only_node = -1);
  // Home for an execution: `home` itself, or the first live node when `home`
  // is down (graceful degradation reroute).
  NodeId EffectiveHome(NodeId home);
  void ApplyDegrade(const DegradeState& degrade, QueryExecution* exec);
  bool IsSelective(const Query& q, const std::vector<int>& plan) const;
  // Plans and executes each UNION branch, concatenates, applies modifiers.
  StatusOr<QueryExecution> ExecuteUnion(const Registration& reg, StreamTime end_ms,
                                        SnapshotNum snapshot);
  // `degrade` (optional) collects deadline/hedge accounting from the
  // fork-join rounds in addition to the sources' read accounting.
  StatusOr<QueryExecution> RunQuery(const Query& q, const std::vector<int>& plan,
                                    const ExecContext& ctx, NodeId home,
                                    bool fork_join, bool selective,
                                    SnapshotNum snapshot,
                                    DegradeState* degrade = nullptr);
  // Records one per-node service-latency sample (modeled ns) into the HDR
  // histogram + straggler EWMA; no-op unless hedging or straggler detection
  // is enabled.
  void ObserveServiceSample(NodeId n, double service_ns);
  // Fork-join fan-out under straggler demotion: serving nodes not currently
  // kSlow (falls back to all serving nodes when demotion would empty it).
  std::vector<NodeId> ForkJoinFanout() const;
  // Epoch of the stored graph as a query at snapshot `sn` sees it: any
  // append/load/crash anywhere changes it, and so does `sn` passing the
  // snapshot of an edge appended earlier, invalidating every template-group
  // memo. It sums the appended-edge count and min(sn, highest snapshot any
  // stream edge was appended at); both terms never decrease, so the sum
  // changes whenever either does (cheap relaxed-atomic reads).
  uint64_t StoredEpoch(SnapshotNum sn) const;
  // Raises stored_sn_high_ to `sn` (stream edges appended at snapshot sn).
  void NoteStoredAppend(SnapshotNum sn);
  // Points the node's transient store and stream index for `stream` at the
  // MQO memo generation: any slice they reclaim bumps it.
  void WireEvictionListeners(StreamId stream, NodeId node);
  // Shared body of ExecuteContinuousAt / ExecuteContinuousColdAt.
  // `production` is false only for the cold reference re-execution, which
  // is never served from a template group, never re-plans and never feeds
  // the live statistics.
  StatusOr<QueryExecution> ExecuteContinuousImpl(ContinuousHandle h,
                                                 StreamTime end_ms,
                                                 bool production, bool count,
                                                 double deadline_ms = 0.0);
  // Independent execution of one registration's trigger (plan-once, full-
  // window pipeline, degrade/loss accounting). The caller has already
  // verified the trigger condition; also runs the group probe (§5.12).
  StatusOr<QueryExecution> ExecuteRegistrationAt(Registration& reg,
                                                 StreamTime end_ms,
                                                 bool production, bool count);
  // --- Template groups (§5.12). ---
  // Buckets a just-appended registration into its template group (creating
  // the group and its probe on first sight of the signature).
  void AddToTemplateGroup(ContinuousHandle h);
  // Unregister path: shrink the group; the last member dissolves it.
  void RemoveFromTemplateGroup(ContinuousHandle h);
  // Grouped trigger dispatch: serve `reg` from its group's shared probe
  // evaluation. nullopt = this trigger must run independently (group below
  // min size, degraded cluster, probe failure, or an empty partition whose
  // member carries FILTERs and must reproduce independent error semantics).
  std::optional<StatusOr<QueryExecution>> TryExecuteGrouped(Registration& reg,
                                                            StreamTime end_ms);
  // Invalidate every group memo (GC, crash, reconfig, membership churn).
  void BumpMqoGeneration() {
    memo_gen_.fetch_add(1, std::memory_order_relaxed);
  }
  // Effective budget for an execution: the caller's deadline_ms, falling
  // back to config_.deadline.default_budget_ms; 0 (no budget) unless
  // config_.deadline.enforce.
  double EffectiveBudgetMs(double deadline_ms) const;
  // --- Adaptive re-planning (§5.14). ---
  // Returns the registration's current plan, computing and installing it on
  // first use (the plan-once lifecycle). A plan made before the windows
  // filled is provisional: the first trigger with full windows plans again
  // and, if the order changed, installs it as the next version. Null only
  // when planning failed.
  std::shared_ptr<const PlanState> EnsurePlanned(Registration& reg,
                                                 StreamTime end_ms, NodeId home);
  // Trigger-cadence drift check + parity-gated cutover. No-op unless
  // config_.replan.enabled and the registration is unpinned.
  void MaybeReplan(Registration& reg, StreamTime end_ms, NodeId home);
  // Installs `next` as reg's plan. `rekey` invalidates the MQO memos — the
  // coherence step a correct cutover must never skip. With `expected` set,
  // installs only if reg's plan is still `expected`; returns whether `next`
  // was installed.
  bool InstallPlan(Registration& reg, std::shared_ptr<const PlanState> next,
                   bool rekey, const PlanState* expected = nullptr);
  // Parity-gated replacement of reg's `current` plan by `next` (§5.14):
  // both orders run cold over the window at end_ms, and `next` is installed
  // with re-keying only if the two results are bag-equal (and the shadow
  // rows stay within config_.replan.shadow_budget_rows) and `current` is
  // still installed. Counts overruns, parity failures and cutovers in
  // replan_stats().
  // kKept: over budget, or `current` was replaced meanwhile.
  enum class GateResult { kInstalled, kDiverged, kKept };
  GateResult GatedCutover(Registration& reg,
                          const std::shared_ptr<const PlanState>& current,
                          std::shared_ptr<const PlanState> next,
                          StreamTime end_ms, NodeId home);
  // Shadow execution of `order` over reg's window at end_ms for the parity
  // gate: no cost charging, no counters, no stats observation. Accumulates
  // intermediate row production into *rows for the shadow budget.
  StatusOr<QueryResult> ShadowExecute(Registration& reg, StreamTime end_ms,
                                      NodeId home,
                                      const std::vector<int>& order,
                                      uint64_t* rows);
  // Planner hints for this registration; `stats` attaches the live snapshot
  // so observed fan-outs refine the estimates.
  PlanHints HintsFor(const Registration& reg,
                     const StreamStatsSnapshot* stats) const;
  // Per-step observer feeding ObserveExpansion, with window patterns
  // attributed to the stream feeding them (reg.stream_ids). Production
  // executions only; `reg` must outlive the returned callable.
  std::function<void(const TriplePattern&, size_t, size_t, size_t)>
  MakeExpansionObserver(const Registration& reg);
  // Builds sources for a continuous execution; `holders` keeps them alive.
  // `home` may differ from reg.home after a degradation reroute; `degrade`
  // (optional) collects partial-result and retry accounting.
  StatusOr<ExecContext> BuildContext(const Registration& reg, StreamTime end_ms,
                                     ChargePolicy policy, NodeId home,
                                     std::vector<std::unique_ptr<NeighborSource>>* holders,
                                     DegradeState* degrade);

  // --- Online reconfiguration internals (DESIGN.md §5.10). ---
  // One in-flight shard migration; feed-path single-threaded like
  // delivered_next_ (queries never touch it — they hold view snapshots).
  struct Migration {
    uint32_t shard = 0;
    NodeId source = 0;
    NodeId target = 0;
    bool transfer_done = false;
    // delivered_next_ snapshot at Begin: batches with seq >= begin_next[s]
    // reach the target via dual-apply; older ones via history replay.
    std::vector<BatchSeq> begin_next;
    // Per-stream replay watermark (next expected seq), making the
    // at-least-once checkpoint log exactly-once into the target.
    std::vector<BatchSeq> replayed_next;
    uint64_t edges_copied = 0;
  };

  // Cutover barrier: commits the pending migration iff the transfer is done
  // and every delivered batch's plan SN is covered by Stable_SN (all data
  // folded into the target — including deferred-visibility folds — is
  // visible at or below any post-commit read snapshot). Called wherever the
  // frontier can advance: batch delivery, health ticks, transfer finish.
  void TryCommitMigration();
  // Abort paths. `taint` poisons the (shard, target) pair: a partial copy
  // is stranded on the target and re-replaying would duplicate it; crashing
  // the target (which resets its stores) clears its taints.
  void AbortMigrationInternal(bool taint, const std::string& reason);
  // Crash hook: aborts when `node` is either migration endpoint.
  void AbortMigrationFor(NodeId node);
  // Re-homes registered continuous queries from a draining node.
  void RehomeRegistrations(NodeId from, NodeId to);

  ClusterConfig config_;
  std::unique_ptr<StringServer> owned_strings_;
  StringServer* strings_;  // owned_strings_.get() or the shared server.
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<Coordinator> coordinator_;

  std::vector<std::unique_ptr<GStore>> stores_;
  std::vector<GStore*> stores_raw_;

  std::vector<StreamState> streams_;
  std::unordered_map<std::string, StreamId> stream_names_;
  // indexes_[stream][node], transients_[stream][node].
  std::vector<std::vector<std::unique_ptr<StreamIndex>>> stream_indexes_;
  std::vector<std::vector<std::unique_ptr<TransientStore>>> transients_;
  std::vector<std::vector<StreamIndex*>> stream_indexes_raw_;
  std::vector<std::vector<TransientStore*>> transients_raw_;

  // Deque: references stay valid while later registrations are appended, so
  // executions and registrations can overlap safely.
  std::deque<Registration> registrations_;
  // --- Template groups (§5.12). ---
  // groups_ entries are never erased (indices stay stable in Registration::
  // group); a dissolved group is marked !live. Guarded by mqo_mu_ together
  // with group_index_; per-group execution state is under each group's own
  // mutex.
  mutable std::mutex mqo_mu_;
  std::vector<std::unique_ptr<TemplateGroup>> groups_;
  std::unordered_map<std::string, size_t> group_index_;
  // Memo generation: any event that can change window contents without
  // moving the stored epoch or snapshot (GC/eviction, crash, reconfig,
  // membership churn) bumps it, invalidating every group memo.
  std::atomic<uint64_t> memo_gen_{0};
  // --- Adaptive re-planning (§5.14). ---
  // Live statistics: rates fed from InjectBatch (logical time), fan-outs
  // from the executor's per-step observer on production executions.
  StreamStatsCollector stream_stats_;
  std::function<void(const StreamBatch&)> batch_logger_;
  size_t index_replications_ = 0;

  // Per stream: next seq expected at the dispatcher. At-least-once delivery
  // (drops retransmitted, duplicates, replay overlap) becomes exactly-once
  // injection by suppressing anything below this watermark.
  std::vector<BatchSeq> delivered_next_;

  // --- Online reconfiguration state (DESIGN.md §5.10). ---
  ShardMap shard_map_;
  std::unique_ptr<Migration> migration_;
  // (shard, target) pairs poisoned by a non-crash abort; cleared for a
  // target when it crashes (its stores reset, stranded copies die with it).
  std::set<std::pair<uint32_t, NodeId>> migration_taints_;
  std::unordered_set<NodeId> draining_;
  // Nodes CrashNode marked and FinishNodeRestore has not yet re-admitted;
  // restoring an unmarked node is an InvalidArgument, not a silent success.
  std::unordered_set<NodeId> crash_marked_;
  // Highest snapshot any stream edge was appended to a store at (never
  // decreases); the visibility term of StoredEpoch.
  std::atomic<SnapshotNum> stored_sn_high_{0};
  std::function<void(const CrashEvent&)> crash_handler_;
  UpstreamBuffer* upstream_ = nullptr;

  // --- Overload protection. ---
  LoadShedder shedder_;
  std::unique_ptr<FailureDetector> health_;  // Set iff failure_detector on.
  // --- Tail robustness (§5.11). ---
  std::unique_ptr<StragglerDetector> straggler_;  // Set iff straggler.enabled.
  // Per-node HDR histograms of modeled service latency; the hedge delay is
  // derived from them (median of per-node p95s, times hedge.margin_mult).
  // Guarded by service_mu_ (query threads write, health ticks read).
  mutable std::mutex service_mu_;
  std::vector<BucketHistogram> service_hist_;
  std::vector<obs::HistogramMetric*> service_hist_metrics_;  // Parallel.
  std::vector<std::deque<DeferredInjection>> backlog_;  // Per node.
  std::function<void(StreamId, NodeId)> pressure_listener_;
  StreamTime last_health_ms_ = 0;
  // Guards the shed records (query threads read them while the feed thread
  // writes); never held across DeliverBatch or the listener.
  mutable std::mutex overload_mu_;

  // --- Observability (§5.8). ---
  // Every cluster event counter, one registry name each (the table lives in
  // the constructor). Each event is counted by exactly one statement, and
  // the stats accessors (FaultStats, ReconfigStats, ReplanStats,
  // OverloadStats, MqoStats) are views over these values — so the registry
  // and the typed stats cannot drift. The differential harness cross-checks
  // them against independent records instead: the shed ledger, the batch
  // logger and its own counts.
  enum class Ctr : size_t {
    kDoorShedTuples, kInjectorShedEdges, kTimingEdgesLost, kFeedRejections,
    kCreditStalls, kPlanStalls, kAppendPressureEvents, kBacklogDeferred,
    kBacklogDrained, kQuarantines, kReactivations, kHeartbeats,
    kBatchesInjected, kTuplesInjected, kQueriesOneShot, kQueriesContinuous,
    // Execution read-path retries vs dispatcher delivery retries (drop
    // retransmits + shipping retries): distinct events, distinct counters.
    kFaultRetries, kFaultBackoffNs,
    kDeliveryAttempts, kDeliveryRetries, kDeliveryExhausted, kDeliveryBackoffNs,
    kBatchesRedelivered, kBatchesDelayed, kDuplicatesSuppressed, kCrashes,
    kReroutes, kDegradedExecutions,
    kMovesStarted, kMovesCommitted, kMovesAborted, kEdgesCopied,
    kDualAppliedEdges, kBatchesReplayed, kNodesAdded, kDrainsStarted,
    kRehomedRegistrations, kStaleEdgesPurged,
    kHedgeIssued, kHedgeWins, kHedgeCancelled, kHedgeDuplicatesSuppressed,
    kDeadlineExpired, kDeadlineSkippedReads, kDeadlineCancelledSteps,
    kStragglerDemotions, kStragglerPromotions,
    kMqoGroupedRegistrations, kMqoGroupsFormed, kMqoGroupsDissolved,
    kMqoSharedEvals, kMqoFanoutServed, kMqoFallbacks,
    kReplanChecks, kReplanDriftTriggers, kReplanCutovers,
    kReplanParityFailures, kReplanBudgetOverruns, kReplanPins,
    kCount
  };
  void Count(Ctr c, uint64_t n = 1) {
    obs::Bump(counters_[static_cast<size_t>(c)], n);
  }
  uint64_t Value(Ctr c) const {
    return counters_[static_cast<size_t>(c)]->value();
  }

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;  // Iff none attached.
  obs::MetricsRegistry* metrics_;  // config_.metrics or owned_metrics_.
  std::array<obs::Counter*, static_cast<size_t>(Ctr::kCount)> counters_{};
  obs::Tracer* tracer_ = nullptr;  // config_.tracer, null when disabled.
};

}  // namespace wukongs

#endif  // SRC_CLUSTER_CLUSTER_H_
