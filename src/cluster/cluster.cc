#include "src/cluster/cluster.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/common/deadline.h"
#include "src/common/test_hooks.h"
#include "src/fault/upstream_buffer.h"
#include "src/sparql/template.h"
#include "src/testkit/reference_oracle.h"
#include "src/testkit/schedule_controller.h"

namespace wukongs {
namespace {

// Fork-join steps moving fewer rows than this piggyback the continuation on a
// single forwarded message (migrating execution); larger steps pay a full
// scatter/gather round plus volume.
constexpr size_t kSmallStepRows = 64;
constexpr double kRdmaHopNs = 1000.0;
constexpr double kTcpHopNs = 5000.0;

// Per-query coordination cost of a full fork-join (dispatch into every
// node's task queue + join barrier). Selective queries forced into fork-join
// degrade to *migrating execution* instead: the continuation hops between
// the (few) nodes holding its data, paying per-step hops but no cluster-wide
// barrier — which is why the paper's non-RDMA mode barely affects L1-L3.
constexpr double kForkJoinSetupRdmaNs = 10000.0;
constexpr double kForkJoinSetupTcpNs = 40000.0;

constexpr size_t kBindingBytes = sizeof(VertexId);
constexpr size_t kTupleWireBytes = 24;

// Observability span helper: a single predictable branch when the runtime
// switch (null tracer in ClusterConfig) is off.
obs::Tracer::Span TraceSpan(obs::Tracer* tracer, const char* cat,
                            const char* name, uint32_t tid) {
  if (tracer != nullptr) {
    return tracer->StartSpan(cat, name, tid);
  }
  return {};
}

// Backoff counters accumulate whole nanoseconds (rounded per event), so the
// FaultStats backoff view keeps sub-microsecond waits.
uint64_t WholeNs(double ns) { return static_cast<uint64_t>(std::llround(ns)); }

}  // namespace

Cluster::Cluster(const ClusterConfig& config, StringServer* shared_strings)
    : config_(config),
      owned_strings_(shared_strings == nullptr ? std::make_unique<StringServer>()
                                               : nullptr),
      strings_(shared_strings == nullptr ? owned_strings_.get() : shared_strings),
      fabric_(std::make_unique<Fabric>(config.nodes, config.network,
                                       config.transport)),
      coordinator_(std::make_unique<Coordinator>(
          config.nodes, config.reserved_snapshots, config.batches_per_sn,
          config.overload.max_plan_extensions)),
      stream_stats_(config.replan.rate_window_ms),
      shard_map_(config.nodes),
      shedder_(config.overload.shed),
      backlog_(config.nodes) {
  assert(config_.nodes >= 1);
  fabric_->set_fault_injector(config_.fault_injector);
  stores_.reserve(fabric_->node_capacity());
  stores_raw_.reserve(fabric_->node_capacity());
  for (NodeId n = 0; n < config_.nodes; ++n) {
    stores_.push_back(std::make_unique<GStore>(n));
    stores_raw_.push_back(stores_.back().get());
  }
  if (config_.overload.enabled && config_.overload.failure_detector) {
    health_ =
        std::make_unique<FailureDetector>(config_.nodes, config_.overload.phi);
  }
  if (config_.straggler.enabled) {
    straggler_ =
        std::make_unique<StragglerDetector>(config_.nodes, config_.straggler);
  }
  tracer_ = config_.tracer;
  if (config_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  metrics_ = config_.metrics != nullptr ? config_.metrics : owned_metrics_.get();
  static constexpr std::pair<Ctr, const char*> kCounterNames[] = {
      {Ctr::kDoorShedTuples, "wukongs_door_shed_tuples_total"},
      {Ctr::kInjectorShedEdges, "wukongs_injector_shed_edges_total"},
      {Ctr::kTimingEdgesLost, "wukongs_timing_edges_lost_total"},
      {Ctr::kFeedRejections, "wukongs_feed_rejections_total"},
      {Ctr::kCreditStalls, "wukongs_credit_stalls_total"},
      {Ctr::kPlanStalls, "wukongs_plan_stalls_total"},
      {Ctr::kAppendPressureEvents, "wukongs_append_pressure_events_total"},
      {Ctr::kBacklogDeferred, "wukongs_backlog_deferred_total"},
      {Ctr::kBacklogDrained, "wukongs_backlog_drained_total"},
      {Ctr::kQuarantines, "wukongs_quarantines_total"},
      {Ctr::kReactivations, "wukongs_reactivations_total"},
      {Ctr::kHeartbeats, "wukongs_heartbeats_total"},
      {Ctr::kBatchesInjected, "wukongs_batches_injected_total"},
      {Ctr::kTuplesInjected, "wukongs_tuples_injected_total"},
      {Ctr::kQueriesOneShot, "wukongs_queries_oneshot_total"},
      {Ctr::kQueriesContinuous, "wukongs_queries_continuous_total"},
      {Ctr::kFaultRetries, "wukongs_fault_retries_total"},
      {Ctr::kFaultBackoffNs, "wukongs_fault_backoff_ns_total"},
      {Ctr::kDeliveryAttempts, "wukongs_delivery_attempts_total"},
      {Ctr::kDeliveryRetries, "wukongs_delivery_retries_total"},
      {Ctr::kDeliveryExhausted, "wukongs_delivery_exhausted_total"},
      {Ctr::kDeliveryBackoffNs, "wukongs_delivery_backoff_ns_total"},
      {Ctr::kBatchesRedelivered, "wukongs_batches_redelivered_total"},
      {Ctr::kBatchesDelayed, "wukongs_batches_delayed_total"},
      {Ctr::kDuplicatesSuppressed, "wukongs_duplicates_suppressed_total"},
      {Ctr::kCrashes, "wukongs_crashes_total"},
      {Ctr::kReroutes, "wukongs_reroutes_total"},
      {Ctr::kDegradedExecutions, "wukongs_degraded_executions_total"},
      {Ctr::kMovesStarted, "wukongs_reconfig_moves_started_total"},
      {Ctr::kMovesCommitted, "wukongs_reconfig_moves_committed_total"},
      {Ctr::kMovesAborted, "wukongs_reconfig_moves_aborted_total"},
      {Ctr::kEdgesCopied, "wukongs_reconfig_edges_copied_total"},
      {Ctr::kDualAppliedEdges, "wukongs_reconfig_dual_applied_edges_total"},
      {Ctr::kBatchesReplayed, "wukongs_reconfig_batches_replayed_total"},
      {Ctr::kNodesAdded, "wukongs_reconfig_nodes_added_total"},
      {Ctr::kDrainsStarted, "wukongs_reconfig_drains_started_total"},
      {Ctr::kRehomedRegistrations,
       "wukongs_reconfig_rehomed_registrations_total"},
      {Ctr::kStaleEdgesPurged, "wukongs_reconfig_stale_edges_purged_total"},
      {Ctr::kHedgeIssued, "wukongs_hedge_issued_total"},
      {Ctr::kHedgeWins, "wukongs_hedge_backup_wins_total"},
      {Ctr::kHedgeCancelled, "wukongs_hedge_cancelled_total"},
      {Ctr::kHedgeDuplicatesSuppressed,
       "wukongs_hedge_duplicates_suppressed_total"},
      {Ctr::kDeadlineExpired, "wukongs_deadline_expired_total"},
      {Ctr::kDeadlineSkippedReads, "wukongs_deadline_skipped_reads_total"},
      {Ctr::kDeadlineCancelledSteps, "wukongs_deadline_cancelled_steps_total"},
      {Ctr::kStragglerDemotions, "wukongs_straggler_demotions_total"},
      {Ctr::kStragglerPromotions, "wukongs_straggler_promotions_total"},
      {Ctr::kMqoGroupedRegistrations, "wukongs_mqo_grouped_registrations_total"},
      {Ctr::kMqoGroupsFormed, "wukongs_mqo_groups_formed_total"},
      {Ctr::kMqoGroupsDissolved, "wukongs_mqo_groups_dissolved_total"},
      {Ctr::kMqoSharedEvals, "wukongs_mqo_shared_evals_total"},
      {Ctr::kMqoFanoutServed, "wukongs_mqo_fanout_served_total"},
      {Ctr::kMqoFallbacks, "wukongs_mqo_independent_fallbacks_total"},
      {Ctr::kReplanChecks, "wukongs_replan_checks_total"},
      {Ctr::kReplanDriftTriggers, "wukongs_replan_drift_triggers_total"},
      {Ctr::kReplanCutovers, "wukongs_replan_cutovers_total"},
      {Ctr::kReplanParityFailures, "wukongs_replan_parity_failures_total"},
      {Ctr::kReplanBudgetOverruns, "wukongs_replan_budget_overruns_total"},
      {Ctr::kReplanPins, "wukongs_replan_pins_total"},
  };
  static_assert(std::size(kCounterNames) == static_cast<size_t>(Ctr::kCount),
                "every Ctr needs exactly one registry name");
  for (const auto& [c, name] : kCounterNames) {
    counters_[static_cast<size_t>(c)] = metrics_->GetCounter(name);
  }
  assert(std::find(counters_.begin(), counters_.end(), nullptr) ==
         counters_.end());
  service_hist_.resize(config_.nodes);
  for (NodeId n = 0; n < config_.nodes; ++n) {
    service_hist_metrics_.push_back(metrics_->GetHistogram(
        obs::MetricsRegistry::Labeled("wukongs_node_service_latency_ns",
                                      {{"node", std::to_string(n)}})));
  }
}

Cluster::~Cluster() = default;

StatusOr<StreamId> Cluster::DefineStream(
    const std::string& name, const std::vector<std::string>& timing_predicates,
    int shed_priority) {
  if (stream_names_.count(name) > 0) {
    return Status::AlreadyExists("stream " + name + " already defined");
  }
  StreamId id = static_cast<StreamId>(streams_.size());
  std::unordered_set<PredicateId> timing;
  for (const std::string& p : timing_predicates) {
    timing.insert(strings_->InternPredicate(p));
  }
  StreamState state;
  state.name = name;
  state.adaptor = std::make_unique<StreamAdaptor>(id, config_.batch_interval_ms,
                                                  std::move(timing));
  state.ingest_node = static_cast<NodeId>(id % config_.nodes);
  state.shed_priority = shed_priority;
  state.obs_batches = metrics_->GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_stream_batches_injected_total", {{"stream", name}}));
  state.obs_tuples = metrics_->GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_stream_tuples_injected_total", {{"stream", name}}));
  streams_.push_back(std::move(state));
  stream_names_.emplace(name, id);

  stream_indexes_.emplace_back();
  transients_.emplace_back();
  stream_indexes_raw_.emplace_back();
  transients_raw_.emplace_back();
  for (NodeId n = 0; n < config_.nodes; ++n) {
    stream_indexes_.back().push_back(std::make_unique<StreamIndex>());
    stream_indexes_raw_.back().push_back(stream_indexes_.back().back().get());
    transients_.back().push_back(
        std::make_unique<TransientStore>(config_.transient_budget_bytes));
    transients_raw_.back().push_back(transients_.back().back().get());
    WireEvictionListeners(id, n);
  }
  coordinator_->RegisterStream(id);
  delivered_next_.push_back(0);
  return id;
}

void Cluster::WireEvictionListeners(StreamId stream, NodeId node) {
  // GC invalidation hooks: a slice reclaimed on any node changes what a
  // window read returns, so every template-group memo built before it is
  // stale. Maintenance passes bump the generation themselves; the hooks
  // also cover the ring-buffer GC a full transient store runs at append.
  auto hook = [this] { BumpMqoGeneration(); };
  transients_raw_[stream][node]->SetEvictionListener(hook);
  stream_indexes_raw_[stream][node]->SetEvictionListener(hook);
}

uint64_t Cluster::StoredEpoch(SnapshotNum sn) const {
  uint64_t epoch = std::min(sn, stored_sn_high_.load(std::memory_order_relaxed));
  for (const auto& store : stores_) {
    epoch += store->EdgeCountTotal();
  }
  return epoch;
}

void Cluster::NoteStoredAppend(SnapshotNum sn) {
  SnapshotNum high = stored_sn_high_.load(std::memory_order_relaxed);
  while (high < sn && !stored_sn_high_.compare_exchange_weak(
                          high, sn, std::memory_order_relaxed)) {
  }
}

StatusOr<StreamId> Cluster::FindStream(const std::string& name) const {
  auto it = stream_names_.find(name);
  if (it == stream_names_.end()) {
    return Status::NotFound("unknown stream " + name);
  }
  return it->second;
}

void Cluster::LoadBase(std::span<const Triple> triples) {
  for (const Triple& t : triples) {
    stores_raw_[OwnerOf(t.subject)]->LoadEdge(Key(t.subject, t.predicate, Dir::kOut),
                                              t.object);
    stores_raw_[OwnerOf(t.object)]->LoadEdge(Key(t.object, t.predicate, Dir::kIn),
                                             t.subject);
  }
}

Status Cluster::FeedStream(StreamId stream, const StreamTupleVec& tuples) {
  if (stream >= streams_.size()) {
    return Status::NotFound("unknown stream id");
  }
  if (config_.overload.enabled) {
    // Credits or plan extensions may have freed since the last pump.
    PumpPending(stream);
    if (streams_[stream].pending.size() >=
        config_.overload.pending_queue_capacity) {
      Count(Ctr::kFeedRejections);
      // The backpressure terminus: the feeder gets a retryable rejection
      // instead of the cluster buffering without bound.
      return Status::ResourceExhausted("stream " + streams_[stream].name +
                                       " backpressured: pending queue full");
    }
  }
  std::vector<StreamBatch> batches;
  auto span = TraceSpan(tracer_, "ingest", "ingest/adaptor",
                        streams_[stream].ingest_node);
  Status s = streams_[stream].adaptor->Ingest(tuples, &batches);
  span.Arg("stream", static_cast<uint64_t>(stream))
      .Arg("tuples", static_cast<uint64_t>(tuples.size()))
      .Arg("batches", static_cast<uint64_t>(batches.size()));
  span.End();
  if (!s.ok()) {
    return s;
  }
  for (StreamBatch& b : batches) {
    EnqueueBatch(std::move(b));
  }
  return Status::Ok();
}

void Cluster::AdvanceStreams(StreamTime now_ms) {
  // Inject across streams in batch-sequence order so snapshots stay
  // contiguous on keys shared between streams (minimal cross-stream skew —
  // the paper's Injector achieves the same by stalling past the announced
  // SN-VTS plan).
  std::vector<StreamBatch> batches;
  for (StreamState& state : streams_) {
    state.adaptor->AdvanceTo(now_ms, &batches);
  }
  std::stable_sort(batches.begin(), batches.end(),
                   [](const StreamBatch& a, const StreamBatch& b) {
                     return a.seq < b.seq;
                   });
  if (config_.schedule != nullptr) {
    // Schedule fuzzing: permute cross-stream delivery order (per-stream seq
    // order is preserved — the adaptor guarantees in-order streams, but
    // nothing orders deliveries *across* streams, so any interleaving here
    // is one the real dispatcher could produce).
    config_.schedule->PermuteBatchOrder(&batches);
  }
  for (StreamBatch& b : batches) {
    EnqueueBatch(std::move(b));
  }
  TickHealth(now_ms);
}

void Cluster::EnqueueBatch(StreamBatch&& batch) {
  const StreamId sid = batch.stream;
  StreamState& state = streams_[sid];
  const size_t timing = CountTimingTuples(batch);
  if (timing > 0) {
    std::lock_guard lock(overload_mu_);
    state.shed[batch.seq].timing_tuples += timing;
  }
  if (!config_.overload.enabled) {
    DeliverBatch(batch);
    return;
  }
  if (config_.overload.shed_timing && timing > 0) {
    // Pressure is the worse of the decaying append-failure signal and the
    // door queue's occupancy, so shedding kicks in before the queue bounces
    // the feeder outright.
    const double occupancy =
        config_.overload.pending_queue_capacity > 0
            ? static_cast<double>(state.pending.size()) /
                  static_cast<double>(config_.overload.pending_queue_capacity)
            : 0.0;
    const double pressure = std::max(state.pressure.level(), occupancy);
    const double keep = shedder_.KeepFraction(pressure, state.shed_priority);
    if (keep < 1.0) {
      const size_t max_keep =
          static_cast<size_t>(keep * static_cast<double>(timing));
      const size_t shed = ShedTimingSuffix(&batch, max_keep);
      if (shed > 0) {
        Count(Ctr::kDoorShedTuples, shed);
        std::lock_guard lock(overload_mu_);
        state.shed[batch.seq].door_shed_tuples += shed;
      }
    }
  }
  state.pending.push_back(std::move(batch));
  PumpPending(sid);
}

bool Cluster::HasCredit(StreamId stream) const {
  const size_t credits = config_.overload.credits_per_stream;
  if (credits == 0) {
    return true;
  }
  // In flight = injected but not yet stable. The queued batch would join
  // them, so the pump holds once the frontier runs `credits` ahead.
  const BatchSeq stable = coordinator_->StableVts().Get(stream);
  const uint64_t stable_next = stable == kNoBatch ? 0 : stable + 1;
  const uint64_t delivered = delivered_next_[stream];
  const uint64_t in_flight = delivered > stable_next ? delivered - stable_next : 0;
  return in_flight < credits;
}

void Cluster::PumpPending(StreamId stream) {
  if (!config_.overload.enabled) {
    return;
  }
  StreamState& state = streams_[stream];
  while (!state.pending.empty()) {
    if (!HasCredit(stream)) {
      Count(Ctr::kCreditStalls);
      break;
    }
    if (!coordinator_->CanPlanSnFor(stream, state.pending.front().seq)) {
      // The injector stalls rather than extending the SN-VTS plan past the
      // cap (§4.3's bounded-scalarization discipline under overload).
      Count(Ctr::kPlanStalls);
      break;
    }
    StreamBatch batch = std::move(state.pending.front());
    state.pending.pop_front();
    DeliverBatch(batch);
  }
}

void Cluster::DeliverBatch(const StreamBatch& batch) {
  // Upstream backup (§5): the source keeps the batch until it is acked as
  // durably checkpointed — the recovery path replays this tail.
  if (upstream_ != nullptr) {
    upstream_->Retain(batch);
  }

  FaultInjector* inj = config_.fault_injector;
  if (inj != nullptr) {
    if (auto crash = inj->TakeCrash(batch.stream, batch.seq)) {
      // The crash fires before this delivery: the node misses this batch and
      // everything after it until restored.
      Status s = CrashNode(crash->node);
      if (s.ok() && crash_handler_) {
        crash_handler_(*crash);
      }
    }
  }

  BatchFate fate = inj != nullptr ? inj->FateOf(batch.stream, batch.seq)
                                  : BatchFate::kDeliver;
  if (fate == BatchFate::kDrop) {
    // First delivery lost on the wire. The upstream notices the missing ack
    // after one backoff interval and retransmits; delivery order is
    // preserved, so the cost is pure added latency.
    double wait = config_.retry.BackoffNs(1);
    SimCost::Add(wait);
    Count(Ctr::kDeliveryRetries);
    Count(Ctr::kDeliveryBackoffNs, WholeNs(wait));
    Count(Ctr::kBatchesRedelivered);
  } else if (fate == BatchFate::kDelay) {
    SimCost::Add(inj->schedule().batch_delay_ns);
    Count(Ctr::kBatchesDelayed);
  }

  // At-least-once delivery -> exactly-once injection: the sequence gate
  // swallows the duplicate copy (and any replay overlap).
  const int copies = fate == BatchFate::kDuplicate ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    if (batch.seq < delivered_next_[batch.stream]) {
      Count(Ctr::kDuplicatesSuppressed);
      continue;
    }
    InjectBatch(batch);
    delivered_next_[batch.stream] = batch.seq + 1;
  }
  // The delivered frontier (and possibly Stable_VTS) advanced: a pending
  // migration whose transfer finished may now satisfy the cutover barrier.
  // Must run *after* the delivered_next_ bump — the barrier compares the plan
  // SN of the newest delivered batch against Stable_SN.
  TryCommitMigration();
}

void Cluster::InjectBatch(const StreamBatch& batch, int only_node) {
  StreamState& state = streams_[batch.stream];
  const uint32_t nodes = config_.nodes;
  const bool filtered = only_node >= 0;
  SnapshotNum sn = coordinator_->PlanSnFor(batch.stream, batch.seq);

  // Live injection targets every live node (a quarantined node's partition is
  // recovered later from the log); restore replay targets exactly one node.
  auto applies = [&](NodeId n) {
    return filtered ? n == static_cast<NodeId>(only_node) : fabric_->node_up(n);
  };
  // The stream's Adaptor+Dispatcher fail over to a surviving node when their
  // host is down; shipping then originates there.
  NodeId ingest = state.ingest_node;
  if (!fabric_->node_up(ingest)) {
    for (NodeId n = 0; n < nodes; ++n) {
      if (fabric_->node_up(n)) {
        ingest = n;
        break;
      }
    }
  }

  // Dispatcher: partition each tuple's two directions by owner node.
  obs::Tracer* batch_tracer = filtered ? nullptr : tracer_;
  auto dispatch_span = TraceSpan(batch_tracer, "ingest", "ingest/dispatch", ingest);
  dispatch_span.Arg("stream", static_cast<uint64_t>(batch.stream))
      .Arg("seq", static_cast<uint64_t>(batch.seq))
      .Arg("tuples", static_cast<uint64_t>(batch.tuples.size()));
  std::vector<std::vector<std::pair<Key, VertexId>>> timeless(nodes);
  std::vector<std::vector<std::pair<Key, VertexId>>> timing(nodes);
  // Dual-apply (DESIGN.md §5.10): while a shard migration is pending, the
  // moving shard's partition is mirrored onto the target (same SN, same batch
  // seq) so the target's copy tracks the source batch-for-batch.
  Migration* mig = filtered ? nullptr : migration_.get();
  std::vector<std::pair<Key, VertexId>> mig_timeless;
  std::vector<std::pair<Key, VertexId>> mig_timing;
  const auto view = shard_map_.View();
  for (const StreamTuple& t : batch.tuples) {
    Key out_key(t.triple.subject, t.triple.predicate, Dir::kOut);
    Key in_key(t.triple.object, t.triple.predicate, Dir::kIn);
    auto& out_dst = t.kind == TupleKind::kTiming ? timing : timeless;
    out_dst[view->OwnerOfV(t.triple.subject)].emplace_back(out_key,
                                                           t.triple.object);
    out_dst[view->OwnerOfV(t.triple.object)].emplace_back(in_key,
                                                          t.triple.subject);
    if (mig != nullptr) {
      auto& mig_dst = t.kind == TupleKind::kTiming ? mig_timing : mig_timeless;
      if (view->ShardOfVertex(t.triple.subject) == mig->shard) {
        mig_dst.emplace_back(out_key, t.triple.object);
      }
      if (view->ShardOfVertex(t.triple.object) == mig->shard) {
        mig_dst.emplace_back(in_key, t.triple.subject);
      }
    }
  }
  dispatch_span.End();

  // Injection: persistent appends (timeless) + transient slices (timing).
  // A node inside a scheduled slow window gets its partition parked in the
  // per-node backlog instead — healthy nodes never wait on a straggler, and
  // the backlog drains FIFO once the window ends.
  FaultInjector* inj = config_.fault_injector;
  const StreamTime batch_end_ms = (batch.seq + 1) * config_.batch_interval_ms;
  if (config_.replan.enabled && !filtered) {
    // Live ingest-rate statistics (§5.14), in logical stream time so drift
    // detection replays deterministically. Empty batches still advance the
    // stream's trailing rate window; restore replay does not re-count.
    stream_stats_.ObserveBatch(batch.stream, batch_end_ms, batch.tuples.size());
  }
  LatencyProbe inject_probe;
  auto append_span = TraceSpan(batch_tracer, "ingest", "ingest/append", ingest);
  append_span.Arg("stream", static_cast<uint64_t>(batch.stream))
      .Arg("seq", static_cast<uint64_t>(batch.seq));
  std::vector<std::vector<AppendSpan>> spans(nodes);
  std::vector<char> deferred(nodes, 0);
  for (NodeId n = 0; n < nodes; ++n) {
    if (!applies(n)) {
      continue;
    }
    size_t tuple_count = timeless[n].size() + timing[n].size();
    if (tuple_count > 0) {
      size_t bytes = tuple_count * kTupleWireBytes;
      if (inj != nullptr && !filtered) {
        // Dispatcher->Injector shipping is fallible: a lost send retries
        // with backoff. If the budget is exhausted the dispatcher escalates
        // to a slow reliable path (one more full send) — delivery never
        // fails, it only gets slower.
        RetryStats ship;
        Status s = RunWithRetry(
            config_.retry, [&] { return fabric_->TryMessage(ingest, n, bytes); },
            &ship);
        Count(Ctr::kDeliveryAttempts, ship.attempts);
        Count(Ctr::kDeliveryRetries, ship.retries);
        Count(Ctr::kDeliveryExhausted, ship.exhausted);
        Count(Ctr::kDeliveryBackoffNs, WholeNs(ship.backoff_ns));
        if (!s.ok()) {
          fabric_->Message(ingest, n, bytes);
        }
      } else {
        fabric_->Message(ingest, n, bytes);
      }
    }
    if (!filtered && inj != nullptr && inj->NodeSlowAt(n, batch_end_ms)) {
      backlog_[n].push_back(DeferredInjection{batch.stream, batch.seq, sn,
                                              std::move(timeless[n]),
                                              std::move(timing[n])});
      deferred[n] = 1;
      Count(Ctr::kBacklogDeferred);
      continue;
    }
    if (!filtered && !backlog_[n].empty()) {
      DrainBacklog(n);  // FIFO: parked batches land before this one.
    }
    {
      auto persist_span = TraceSpan(
          timeless[n].empty() ? nullptr : batch_tracer, "ingest",
          "ingest/append_persistent", n);
      persist_span.Arg("edges", static_cast<uint64_t>(timeless[n].size()));
      if (!timeless[n].empty()) {
        NoteStoredAppend(sn);
      }
      for (const auto& [key, value] : timeless[n]) {
        stores_raw_[n]->InjectEdge(key, value, sn, &spans[n]);
      }
    }
    {
      auto transient_span = TraceSpan(
          timing[n].empty() ? nullptr : batch_tracer, "ingest",
          "ingest/append_transient", n);
      transient_span.Arg("edges", static_cast<uint64_t>(timing[n].size()));
      AppendTimingEdges(batch.stream, n, batch.seq, timing[n]);
    }
  }
  append_span.End();
  if (!filtered) {
    state.profile.inject_ms += inject_probe.FinishMs();
  }

  // Stream index construction + locality-aware replication (§4.2). Restore
  // replay rebuilds only the target node's index portion; replication to
  // subscribers already happened during the original live injection.
  LatencyProbe index_probe;
  auto index_span =
      TraceSpan(batch_tracer, "ingest", "ingest/index_publish", ingest);
  index_span.Arg("stream", static_cast<uint64_t>(batch.stream))
      .Arg("seq", static_cast<uint64_t>(batch.seq));
  for (NodeId n = 0; n < nodes; ++n) {
    if (!applies(n) || deferred[n]) {
      continue;
    }
    stream_indexes_raw_[batch.stream][n]->AddBatch(batch.seq, spans[n]);
    if (spans[n].empty() || filtered) {
      continue;
    }
    if (config_.locality_aware_index) {
      size_t index_bytes = spans[n].size() * sizeof(AppendSpan) + 32;
      for (NodeId sub : state.subscribers) {
        if (sub != n && fabric_->node_up(sub)) {
          fabric_->Message(n, sub, index_bytes);
          ++index_replications_;
        }
      }
    }
  }
  index_span.End();
  if (!filtered) {
    state.profile.index_ms += index_probe.FinishMs();
  }

  // Dual-apply lands after the target's own AddBatch/AppendSlice for this
  // seq, so MergeBatch/MergeSlice fold into existing entries. It must NOT
  // bump the per-batch injection counters below — the differential harness
  // cross-checks those against the batch logger.
  if (mig != nullptr && migration_ != nullptr) {
    const NodeId target = migration_->target;
    const size_t mig_edges = mig_timeless.size() + mig_timing.size();
    if (!fabric_->node_up(target)) {
      // Source keeps a complete copy; partial target copy is stranded.
      AbortMigrationInternal(/*taint=*/true, "target went down mid-transfer");
    } else if (deferred[target] && mig_edges > 0) {
      // The target parked this batch (slow window): its AddBatch has not run,
      // so the mirror cannot fold in order. Roll back rather than reorder.
      AbortMigrationInternal(/*taint=*/true,
                             "target deferred a batch mid-transfer");
    } else if (mig_edges > 0) {
      fabric_->Message(migration_->source, target, mig_edges * kTupleWireBytes);
      std::vector<AppendSpan> mig_spans;
      for (const auto& [key, value] : mig_timeless) {
        stores_raw_[target]->InjectEdgeMigrated(key, value, sn, &mig_spans);
      }
      if (!mig_spans.empty()) {
        stream_indexes_raw_[batch.stream][target]->MergeBatch(batch.seq,
                                                              mig_spans);
      }
      if (!mig_timing.empty()) {
        transients_raw_[batch.stream][target]->MergeSlice(batch.seq, mig_timing);
      }
      migration_->edges_copied += mig_edges;
      Count(Ctr::kDualAppliedEdges, mig_edges);
    }
  }

  for (NodeId n = 0; n < nodes; ++n) {
    if (applies(n) && !deferred[n]) {
      coordinator_->ReportInjected(n, batch.stream, batch.seq);
    }
  }
  if (filtered) {
    return;
  }
  state.profile.tuples += batch.tuples.size();
  state.profile.batches += 1;
  Count(Ctr::kBatchesInjected);
  Count(Ctr::kTuplesInjected, batch.tuples.size());
  Bump(state.obs_batches);
  Bump(state.obs_tuples, batch.tuples.size());

  if (batch_logger_) {
    batch_logger_(batch);
  }
}

void Cluster::AppendTimingEdges(
    StreamId stream, NodeId n, BatchSeq seq,
    const std::vector<std::pair<Key, VertexId>>& edges) {
  TransientStore* ts = transients_raw_[stream][n];
  if (ts->AppendSlice(seq, edges)) {
    return;
  }
  // The memory budget refused the slice even after its internal GC. Escalate:
  // raise the stream's shed pressure, give maintenance one chance to free
  // expired slices (the listener typically kicks the daemon or runs a
  // synchronous pass), then retry once.
  Count(Ctr::kAppendPressureEvents);
  streams_[stream].pressure.Raise(config_.overload.append_failure_pressure);
  if (pressure_listener_) {
    pressure_listener_(stream, n);
  }
  if (ts->AppendSlice(seq, edges)) {
    return;
  }
  size_t kept = 0;
  if (config_.overload.enabled && config_.overload.shed_timing) {
    // Shed: keep the largest batch prefix that fits (suffix-only loss).
    kept = ts->AppendSlicePrefix(seq, edges);
  }
  // else: the pre-overload behavior — the partition is dropped — but the
  // loss is now recorded and surfaces as shed_fraction on window results
  // instead of vanishing silently.
  const size_t lost = edges.size() - kept;
  if (lost == 0) {
    return;
  }
  Count(config_.overload.enabled && config_.overload.shed_timing
            ? Ctr::kInjectorShedEdges
            : Ctr::kTimingEdgesLost,
        lost);
  std::lock_guard lock(overload_mu_);
  streams_[stream].shed[seq].injector_lost_edges += lost;
}

void Cluster::DrainBacklog(NodeId n) {
  if (backlog_[n].empty()) {
    return;
  }
  const double delay_ns = config_.fault_injector != nullptr
                              ? config_.fault_injector->CatchUpDelayNs(n)
                              : 0.0;
  while (!backlog_[n].empty()) {
    DeferredInjection d = std::move(backlog_[n].front());
    backlog_[n].pop_front();
    // Catching up is not free: each parked batch charges the recovering
    // node's modeled apply delay.
    SimCost::Add(delay_ns);
    std::vector<AppendSpan> spans;
    if (!d.timeless.empty()) {
      NoteStoredAppend(d.sn);
    }
    for (const auto& [key, value] : d.timeless) {
      stores_raw_[n]->InjectEdge(key, value, d.sn, &spans);
    }
    AppendTimingEdges(d.stream, n, d.seq, d.timing);
    stream_indexes_raw_[d.stream][n]->AddBatch(d.seq, spans);
    if (!spans.empty() && config_.locality_aware_index) {
      size_t index_bytes = spans.size() * sizeof(AppendSpan) + 32;
      for (NodeId sub : streams_[d.stream].subscribers) {
        if (sub != n && fabric_->node_up(sub)) {
          fabric_->Message(n, sub, index_bytes);
          ++index_replications_;
        }
      }
    }
    coordinator_->ReportInjected(n, d.stream, d.seq);
    Count(Ctr::kBacklogDrained);
  }
}

bool Cluster::NodeCaughtUp(NodeId n) const {
  if (!backlog_[n].empty()) {
    return false;
  }
  return coordinator_->LocalVts(n).Covers(coordinator_->StableVts());
}

void Cluster::TickHealth(StreamTime now_ms) {
  if (now_ms > last_health_ms_) {
    last_health_ms_ = now_ms;
  }
  FaultInjector* inj = config_.fault_injector;
  if (inj != nullptr) {
    // Publish the logical clock so fabric verbs can price gray-failure
    // service factors without threading `now` through every call site.
    inj->AdvanceNow(now_ms);
  }
  // A slow window that ended releases its node's parked batches even when no
  // new batch happens to target that node.
  for (NodeId n = 0; n < config_.nodes; ++n) {
    if (!backlog_[n].empty() && fabric_->node_up(n) &&
        (inj == nullptr || !inj->NodeSlowAt(n, now_ms))) {
      DrainBacklog(n);
    }
  }
  if (config_.overload.enabled) {
    for (StreamState& state : streams_) {
      state.pressure.Decay(config_.overload.pressure_decay);
    }
  }
  if (health_ != nullptr) {
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (!fabric_->node_up(n)) {
        continue;
      }
      if (inj != nullptr && inj->NodeSlowAt(n, now_ms)) {
        continue;  // The straggler's heartbeat goes missing — that IS the signal.
      }
      fabric_->Heartbeat(n, 0);
      health_->Heartbeat(n, now_ms);
      Count(Ctr::kHeartbeats);
    }
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (!fabric_->node_up(n)) {
        continue;
      }
      HealthAction action = health_->Evaluate(n, now_ms, NodeCaughtUp(n));
      // Migration endpoints are exempt from quarantine: un-serving the target
      // would stall the cutover barrier forever (and the source must keep
      // serving the moving shard until the epoch bumps). A draining node is
      // already being emptied; quarantining it would only churn the epoch.
      const bool reconfig_pinned =
          draining_.count(n) > 0 ||
          (migration_ != nullptr &&
           (migration_->source == n || migration_->target == n));
      if (action == HealthAction::kQuarantine && fabric_->node_serving(n) &&
          !reconfig_pinned && fabric_->serving_count() > 1) {
        // Stop waiting on the straggler: queries skip its shard (partial,
        // like a crash) but injection keeps feeding it so it can catch up.
        coordinator_->SetNodeActive(n, false);
        fabric_->SetNodeServing(n, false);
        Count(Ctr::kQuarantines);
      } else if (action == HealthAction::kReactivate &&
                 !fabric_->node_serving(n)) {
        coordinator_->SetNodeActive(n, true);
        fabric_->SetNodeServing(n, true);
        Count(Ctr::kReactivations);
      }
    }
  }
  if (straggler_ != nullptr) {
    // Gray-failure probes (§5.11): each tick deposits one modeled service
    // sample per live node — the base probe cost scaled by any active
    // gray-failure factor. Unlike phi-accrual (blind here: heartbeats keep
    // arriving during a gray failure), this sees the *service* slowdown, and
    // it keeps demoted nodes' EWMAs fresh so they can be promoted back once
    // their slow window ends even though queries no longer touch them.
    constexpr double kProbeNs = 1000.0;
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (!fabric_->node_up(n)) {
        continue;
      }
      double factor = inj != nullptr ? inj->ServiceFactorAt(n, now_ms) : 1.0;
      ObserveServiceSample(n, kProbeNs * factor);
    }
    uint32_t healthy = 0;
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (fabric_->node_serving(n) && !straggler_->slow(n)) {
        ++healthy;
      }
    }
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (!fabric_->node_up(n)) {
        continue;
      }
      if (!straggler_->slow(n) && healthy <= 1) {
        continue;  // Never demote the last healthy fan-out member.
      }
      StragglerAction action = straggler_->Evaluate(n);
      if (action == StragglerAction::kDemote) {
        --healthy;
        Count(Ctr::kStragglerDemotions);
        if (tracer_ != nullptr) {
          tracer_->Instant("straggler", "straggler/demote", n);
        }
      } else if (action == StragglerAction::kPromote) {
        ++healthy;
        Count(Ctr::kStragglerPromotions);
        if (tracer_ != nullptr) {
          tracer_->Instant("straggler", "straggler/promote", n);
        }
      }
    }
  }
  // Quarantine moves Stable_VTS over the survivors: credits may have freed.
  for (StreamId s = 0; s < static_cast<StreamId>(streams_.size()); ++s) {
    PumpPending(s);
  }
  // Reactivations (or backlog drains) may have advanced Stable_VTS past the
  // cutover barrier of a finished transfer.
  TryCommitMigration();
}

void Cluster::SetPressureListener(std::function<void(StreamId, NodeId)> listener) {
  pressure_listener_ = std::move(listener);
}

OverloadStats Cluster::overload_stats() const {
  OverloadStats s;
  s.feed_rejections = Value(Ctr::kFeedRejections);
  s.credit_stalls = Value(Ctr::kCreditStalls);
  s.plan_stalls = Value(Ctr::kPlanStalls);
  s.door_shed_tuples = Value(Ctr::kDoorShedTuples);
  s.injector_shed_edges = Value(Ctr::kInjectorShedEdges);
  s.timing_edges_lost = Value(Ctr::kTimingEdgesLost);
  s.append_pressure_events = Value(Ctr::kAppendPressureEvents);
  s.backlog_deferred = Value(Ctr::kBacklogDeferred);
  s.backlog_drained = Value(Ctr::kBacklogDrained);
  s.heartbeats = Value(Ctr::kHeartbeats);
  s.quarantines = Value(Ctr::kQuarantines);
  s.reactivations = Value(Ctr::kReactivations);
  return s;
}

Cluster::FaultStats Cluster::fault_stats() const {
  FaultStats s;
  s.batches_redelivered = Value(Ctr::kBatchesRedelivered);
  s.duplicates_suppressed = Value(Ctr::kDuplicatesSuppressed);
  s.batches_delayed = Value(Ctr::kBatchesDelayed);
  s.crashes = Value(Ctr::kCrashes);
  s.reroutes = Value(Ctr::kReroutes);
  s.degraded_executions = Value(Ctr::kDegradedExecutions);
  s.delivery_retry.attempts = Value(Ctr::kDeliveryAttempts);
  s.delivery_retry.retries = Value(Ctr::kDeliveryRetries);
  s.delivery_retry.exhausted = Value(Ctr::kDeliveryExhausted);
  s.delivery_retry.backoff_ns =
      static_cast<double>(Value(Ctr::kDeliveryBackoffNs));
  return s;
}

Cluster::ReconfigStats Cluster::reconfig_stats() const {
  ReconfigStats s;
  s.moves_started = Value(Ctr::kMovesStarted);
  s.moves_committed = Value(Ctr::kMovesCommitted);
  s.moves_aborted = Value(Ctr::kMovesAborted);
  s.edges_copied = Value(Ctr::kEdgesCopied);
  s.dual_applied_edges = Value(Ctr::kDualAppliedEdges);
  s.batches_replayed = Value(Ctr::kBatchesReplayed);
  s.nodes_added = Value(Ctr::kNodesAdded);
  s.drains_started = Value(Ctr::kDrainsStarted);
  s.rehomed_registrations = Value(Ctr::kRehomedRegistrations);
  s.stale_edges_purged = Value(Ctr::kStaleEdgesPurged);
  return s;
}

size_t Cluster::PendingBatches(StreamId stream) const {
  if (stream >= streams_.size()) {
    return 0;
  }
  return streams_[stream].pending.size();
}

Cluster::ShedInfo Cluster::ShedInfoFor(StreamId stream, BatchSeq seq) const {
  ShedInfo info;
  if (stream >= streams_.size()) {
    return info;
  }
  std::lock_guard lock(overload_mu_);
  auto it = streams_[stream].shed.find(seq);
  if (it == streams_[stream].shed.end()) {
    return info;
  }
  info.timing_tuples = it->second.timing_tuples;
  info.door_shed_tuples = it->second.door_shed_tuples;
  info.injector_lost_edges = it->second.injector_lost_edges;
  return info;
}

bool Cluster::NodeServing(NodeId n) const { return fabric_->node_serving(n); }

uint32_t Cluster::ServingNodeCount() const { return fabric_->serving_count(); }

void Cluster::ApplyWindowLoss(const Registration& reg, StreamTime end_ms,
                              QueryExecution* exec) const {
  // Everything in edge units (1 door tuple = 2 dispatched edges) so door
  // sheds and injector losses add up consistently.
  uint64_t total = 0;
  uint64_t shed = 0;
  VectorTimestamp stable = coordinator_->StableVts();
  std::lock_guard lock(overload_mu_);
  for (size_t w = 0; w < reg.query.windows.size(); ++w) {
    const WindowSpec& spec = reg.query.windows[w];
    StreamId sid = reg.stream_ids[w];
    BatchRange range;
    if (spec.absolute) {
      range.lo = spec.from_ms / config_.batch_interval_ms;
      range.hi = (spec.to_ms - 1) / config_.batch_interval_ms;
      BatchSeq have = stable.Get(sid);
      if (have == kNoBatch || have < range.lo) {
        range.empty = true;
      } else if (range.hi > have) {
        range.hi = have;
      }
    } else {
      range = WindowBatches(end_ms, spec.range_ms, config_.batch_interval_ms);
    }
    if (range.empty) {
      continue;
    }
    const auto& ledger = streams_[sid].shed;
    for (BatchSeq b = range.lo; b <= range.hi; ++b) {
      auto it = ledger.find(b);
      if (it == ledger.end()) {
        continue;
      }
      total += 2 * it->second.timing_tuples;
      shed += 2 * it->second.door_shed_tuples + it->second.injector_lost_edges;
    }
  }
  exec->timing_edges_lost = shed;
  exec->shed_fraction =
      total == 0 ? 0.0
                 : std::min(1.0, static_cast<double>(shed) /
                                     static_cast<double>(total));
  // Window loss compounds with deadline cancellation: every execution path
  // funnels through here after ApplyDegrade, so the declared completeness
  // always reflects both degradation sources.
  exec->completeness *= 1.0 - exec->shed_fraction;
}

bool Cluster::IsSelective(const Query& q, const std::vector<int>& plan) const {
  if (plan.empty()) {
    return true;
  }
  const TriplePattern& first = q.patterns[static_cast<size_t>(plan.front())];
  return !first.subject.is_var() || !first.object.is_var();
}

StatusOr<ExecContext> Cluster::BuildContext(
    const Registration& reg, StreamTime end_ms, ChargePolicy policy, NodeId home,
    std::vector<std::unique_ptr<NeighborSource>>* holders, DegradeState* degrade) {
  ExecContext ctx;
  ctx.strings = strings_;
  ctx.tracer = tracer_;
  ctx.trace_node = home;
  // One ownership snapshot for every source of this execution: all reads
  // route by the same epoch even if a migration commits mid-flight.
  const auto view = shard_map_.View();
  holders->push_back(std::make_unique<StoreSource>(
      stores_raw_, fabric_.get(), home, coordinator_->StableSn(), policy,
      &config_.retry, degrade, view));
  ctx.sources.push_back(holders->back().get());
  VectorTimestamp stable = coordinator_->StableVts();
  for (size_t w = 0; w < reg.query.windows.size(); ++w) {
    StreamId sid = reg.stream_ids[w];
    const WindowSpec& spec = reg.query.windows[w];
    BatchRange range;
    if (spec.absolute) {
      // Time-ontology one-shot scope [from, to): clamp to the stable prefix
      // so the read is consistent even while injection is in flight.
      range.lo = spec.from_ms / config_.batch_interval_ms;
      range.hi = (spec.to_ms - 1) / config_.batch_interval_ms;
      BatchSeq have = stable.Get(sid);
      if (have == kNoBatch || have < range.lo) {
        range.empty = true;
      } else if (range.hi > have) {
        range.hi = have;
      }
    } else {
      range = WindowBatches(end_ms, spec.range_ms, config_.batch_interval_ms);
    }
    holders->push_back(std::make_unique<WindowSource>(
        stores_raw_, stream_indexes_raw_[sid], transients_raw_[sid], fabric_.get(),
        home, range, policy, config_.locality_aware_index, &config_.retry,
        degrade, view));
    ctx.sources.push_back(holders->back().get());
  }
  return ctx;
}

NodeId Cluster::EffectiveHome(NodeId home) {
  // A quarantined (slow) home is avoided just like a crashed one: executions
  // land on a serving node. A draining home sheds query duty the same way,
  // but only while a non-draining serving node exists to take it. A home
  // demoted by the straggler detector (still serving, just slow) hands off
  // the same way, falling back to itself when every candidate is slow too.
  const bool home_ok =
      fabric_->node_serving(home) && draining_.count(home) == 0;
  if (home_ok && !StragglerSlow(home)) {
    return home;
  }
  if (straggler_ != nullptr) {
    for (NodeId n = 0; n < config_.nodes; ++n) {
      if (fabric_->node_serving(n) && draining_.count(n) == 0 &&
          !StragglerSlow(n)) {
        Count(Ctr::kReroutes);
        return n;
      }
    }
  }
  if (home_ok) {
    return home;  // Every other candidate is slow as well; stay put.
  }
  for (NodeId n = 0; n < config_.nodes; ++n) {
    if (fabric_->node_serving(n) && draining_.count(n) == 0) {
      Count(Ctr::kReroutes);
      return n;
    }
  }
  if (fabric_->node_serving(home)) {
    return home;  // Every serving node is draining; stay put.
  }
  for (NodeId n = 0; n < config_.nodes; ++n) {
    if (fabric_->node_serving(n)) {
      Count(Ctr::kReroutes);
      return n;
    }
  }
  return home;  // Nothing is serving; callers will fail downstream.
}

void Cluster::ObserveServiceSample(NodeId n, double service_ns) {
  if (service_ns <= 0.0) {
    return;
  }
  if (straggler_ != nullptr) {
    straggler_->Observe(n, service_ns);
  }
  if (config_.hedge.enabled || straggler_ != nullptr) {
    std::lock_guard lock(service_mu_);
    if (n < service_hist_.size()) {
      service_hist_[n].Add(service_ns);
      service_hist_metrics_[n]->Observe(service_ns);
    }
  }
}

std::vector<NodeId> Cluster::ForkJoinFanout() const {
  std::vector<NodeId> fanout;
  std::vector<NodeId> serving;
  for (NodeId n = 0; n < config_.nodes; ++n) {
    if (!fabric_->node_serving(n)) {
      continue;
    }
    serving.push_back(n);
    if (!StragglerSlow(n)) {
      fanout.push_back(n);
    }
  }
  // If demotion emptied the fan-out entirely, fork-join over everything
  // serving rather than nothing (slow beats absent).
  return fanout.empty() ? serving : fanout;
}

double Cluster::EffectiveBudgetMs(double deadline_ms) const {
  if (!config_.deadline.enforce) {
    return 0.0;
  }
  return deadline_ms > 0.0 ? deadline_ms : config_.deadline.default_budget_ms;
}

double Cluster::HedgeDelayNs() const {
  if (!config_.hedge.enabled) {
    return 0.0;
  }
  // Median of the per-node p95s, so one gray-failing node's inflated tail
  // cannot drag the trigger threshold up with it.
  std::vector<double> p95s;
  {
    std::lock_guard lock(service_mu_);
    for (NodeId n = 0; n < config_.nodes && n < service_hist_.size(); ++n) {
      if (!fabric_->node_serving(n)) {
        continue;
      }
      if (service_hist_[n].count() < config_.hedge.min_samples) {
        continue;  // Still warming up.
      }
      p95s.push_back(service_hist_[n].Percentile(95.0));
    }
  }
  if (p95s.empty()) {
    return 0.0;  // Hedging stays disarmed until the histograms warm up.
  }
  size_t mid = p95s.size() / 2;
  std::nth_element(p95s.begin(), p95s.begin() + mid, p95s.end());
  double delay = config_.hedge.margin_mult * p95s[mid];
  return std::max(delay, config_.hedge.min_delay_ns);
}

void Cluster::ApplyDegrade(const DegradeState& degrade, QueryExecution* exec) {
  exec->partial = degrade.partial;
  exec->skipped_shards = degrade.skipped_shards;
  exec->fault_retries = degrade.retry.retries;
  exec->backoff_ms = degrade.retry.backoff_ns / 1e6;
  Count(Ctr::kFaultRetries, degrade.retry.retries);
  Count(Ctr::kFaultBackoffNs, WholeNs(degrade.retry.backoff_ns));
  if (degrade.partial) {
    Count(Ctr::kDegradedExecutions);
  }
  // Deadline surface (§5.11): expired implies work was actually cancelled,
  // which implies partial (sources / the step hook set both together).
  exec->deadline_expired = degrade.deadline_expired;
  exec->deadline_skipped_reads = degrade.deadline_skipped_reads;
  Count(Ctr::kDeadlineSkippedReads, degrade.deadline_skipped_reads);
  Count(Ctr::kDeadlineCancelledSteps, degrade.steps_cancelled);
  if (degrade.deadline_expired) {
    Count(Ctr::kDeadlineExpired);
  }
  // Declared completeness: the minimum of the served fraction of charged
  // reads and the executed fraction of fork-join rounds. 1.0 when nothing
  // was cancelled; ApplyWindowLoss multiplies in (1 - shed_fraction) after.
  double frac = 1.0;
  uint64_t reads = degrade.reads_ok + degrade.deadline_skipped_reads;
  if (reads > 0) {
    frac = std::min(frac, static_cast<double>(degrade.reads_ok) /
                              static_cast<double>(reads));
  }
  uint64_t steps = degrade.steps_done + degrade.steps_cancelled;
  if (steps > 0) {
    frac = std::min(frac, static_cast<double>(degrade.steps_done) /
                              static_cast<double>(steps));
  }
  exec->completeness = frac;
}

StatusOr<QueryExecution> Cluster::RunQuery(const Query& q,
                                           const std::vector<int>& plan,
                                           const ExecContext& ctx, NodeId home,
                                           bool fork_join, bool selective,
                                           SnapshotNum snapshot,
                                           DegradeState* degrade) {
  const NetworkModel& m = config_.network;
  const bool rdma = fabric_->transport() == Transport::kRdma;
  // Degraded clusters fork-join over the serving survivors only; straggler
  // demotion (§5.11) further narrows the fan-out to non-slow members (same
  // count as serving_count() when the detector is off or sees nothing).
  const std::vector<NodeId> fanout = ForkJoinFanout();
  const uint32_t live = static_cast<uint32_t>(fanout.size());
  // A selective query forced into fork-join involves only the nodes its few
  // keys live on: migrating execution, no cluster-wide barrier.
  const bool migrating = fork_join && selective;
  // Gray-failure pricing: when the injector schedules sustained slow-node
  // windows, each fork-join round's barrier waits for the slowest fan-out
  // member, and a round exceeding the hedge delay issues a backup to the
  // fastest one (first response wins, the loser's reply is deduplicated).
  const bool gray = config_.fault_injector != nullptr &&
                    config_.fault_injector->HasGrayFailures();
  const double hedge_delay = HedgeDelayNs();
  HedgeDedup dedup;
  uint64_t sub_seq = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedges_won = 0;

  StepHook hook;
  if (fork_join && live > 1) {
    hook = [&](const TriplePattern&, size_t rows_before, size_t cols_before,
               size_t rows_after) {
      if (Deadline::ExpiredNow()) {
        // Budget exhausted: cancel this round (and transitively all later
        // ones) instead of shipping it. The rows still flow locally — the
        // result stays a sound subset — but no further cost is charged and
        // the execution declares what it skipped.
        if (degrade != nullptr) {
          degrade->partial = true;
          degrade->deadline_expired = true;
          ++degrade->steps_cancelled;
        }
        return;
      }
      double round = 0.0;
      if (!migrating && rows_before > kSmallStepRows) {
        // Scatter: ship the binding table partition-wise, one concurrent
        // round; charge the round's base plus the shipped volume.
        size_t bytes = rows_before * (cols_before + 1) * kBindingBytes + 16;
        if (rdma) {
          round = m.rdma_msg_base_ns +
                  m.rdma_msg_per_byte_ns * static_cast<double>(bytes);
        } else {
          round = m.tcp_msg_base_ns +
                  m.tcp_msg_per_byte_ns * static_cast<double>(bytes);
        }
      } else {
        // Tiny step: the continuation migrates with its rows in one hop.
        round = rdma ? kRdmaHopNs : kTcpHopNs;
      }
      double eff = round;
      if (!migrating && gray) {
        // Per-node round times: node n serves its partition in
        // round * factor(n); the join barrier waits for the worst. Every
        // per-node time feeds the service histograms the hedge delay and
        // the straggler detector derive from.
        double worst = 1.0;
        double best = std::numeric_limits<double>::infinity();
        for (NodeId n : fanout) {
          double f = fabric_->ServiceFactor(n);
          ObserveServiceSample(n, round * f);
          worst = std::max(worst, f);
          best = std::min(best, f);
        }
        eff = round * worst;
        if (config_.hedge.enabled && hedge_delay > 0.0 && eff > hedge_delay &&
            best < worst) {
          // The slowest sub-request blew past the hedge delay: issue a
          // backup to the fastest healthy member. Both responses eventually
          // arrive; HedgeDedup folds in exactly the first and suppresses
          // the loser (identical deterministic bindings — a digest mismatch
          // would be a correctness bug).
          ++hedges_issued;
          uint64_t sub = sub_seq++;
          std::string digest = std::to_string(rows_before) + ":" +
                               std::to_string(cols_before) + ":" +
                               std::to_string(rows_after);
          double backup = hedge_delay + round * best;
          if (backup < eff) {
            ++hedges_won;
            eff = backup;
          }
          bool first = dedup.Accept(sub, digest);
          bool second = dedup.Accept(sub, digest);
          assert(first && !second);
          (void)first;
          (void)second;
        }
      } else if (!migrating && straggler_ != nullptr) {
        for (NodeId n : fanout) {
          ObserveServiceSample(n, round);
        }
      }
      SimCost::Add(eff);
      if (degrade != nullptr) {
        ++degrade->steps_done;
      }
      FaultInjector* inj = config_.fault_injector;
      if (inj != nullptr && inj->FailMessage(home, home)) {
        // Lost scatter/migration round: the join barrier times out waiting
        // for the straggler, then the round is retransmitted — one retry.
        const double wait = config_.retry.BackoffNs(1);
        SimCost::Add(wait + round);
        if (degrade != nullptr) {
          ++degrade->retry.retries;
          degrade->retry.backoff_ns += wait;
        }
      }
    };
  }

  double sim_before = SimCost::TotalNs();
  Stopwatch wall;
  const char* mode =
      fork_join ? (migrating ? "migrating" : "fork_join") : "in_place";
  if (tracer_ != nullptr) {
    tracer_->Instant("query", "query/dispatch", home);
  }
  auto exec_span = TraceSpan(tracer_, "query", "query/execute", home);
  exec_span.Arg("mode", std::string(mode))
      .Arg("patterns", static_cast<uint64_t>(plan.size()));
  auto result = ExecutePipeline(q, plan, ctx, hook);
  if (!result.ok()) {
    return result.status();
  }
  Status fin = FinalizeSolution(q, ctx, &result.value());
  if (!fin.ok()) {
    return fin;
  }
  double cpu_ns = wall.ElapsedNs();
  exec_span.Arg("rows", static_cast<uint64_t>(result->rows.size()));
  exec_span.End();

  auto merge_span = TraceSpan(tracer_, "query", "query/merge", home);
  if (fork_join && live > 1 && !migrating) {
    // Full fork-join: dispatch into every node's task queue + join barrier.
    SimCost::Add(rdma ? kForkJoinSetupRdmaNs : kForkJoinSetupTcpNs);
    // Join: gather final bindings to the home node. Small results piggyback
    // on the per-step reply (selective queries effectively completed on one
    // node); only bulky results pay a full gather round.
    if (result->rows.size() > kSmallStepRows) {
      size_t bytes =
          result->rows.size() * (result->columns.size() + 1) * kBindingBytes + 16;
      if (rdma) {
        SimCost::Add(m.rdma_msg_base_ns +
                     m.rdma_msg_per_byte_ns * static_cast<double>(bytes));
      } else {
        SimCost::Add(m.tcp_msg_base_ns +
                     m.tcp_msg_per_byte_ns * static_cast<double>(bytes));
      }
    } else {
      SimCost::Add(rdma ? kRdmaHopNs : kTcpHopNs);
    }
    cpu_ns /= std::pow(static_cast<double>(live),
                       config_.fork_join_parallel_exponent);
  } else if (migrating && live > 1) {
    SimCost::Add(rdma ? kRdmaHopNs : kTcpHopNs);  // Final reply hop.
  }
  merge_span.End();
  double net_ns = SimCost::TotalNs() - sim_before;

  QueryExecution exec;
  exec.result = std::move(*result);
  exec.cpu_ms = cpu_ns / 1e6;
  exec.net_ms = net_ns / 1e6;
  exec.fork_join = fork_join;
  exec.snapshot = snapshot;
  exec.ownership_epoch = shard_map_.epoch();
  exec.hedges_issued = hedges_issued;
  exec.hedges_won = hedges_won;
  if (hedges_issued > 0) {
    Count(Ctr::kHedgeIssued, hedges_issued);
    Count(Ctr::kHedgeWins, hedges_won);
    // Every hedge produces exactly one losing response, cancelled on
    // arrival; the dedup gate counts the suppression.
    Count(Ctr::kHedgeCancelled, hedges_issued);
    Count(Ctr::kHedgeDuplicatesSuppressed, dedup.duplicates());
    assert(dedup.mismatches() == 0);
  }
  return exec;
}

StatusOr<QueryExecution> Cluster::ExecuteUnion(const Registration& reg,
                                               StreamTime end_ms,
                                               SnapshotNum snapshot) {
  QueryExecution total;
  total.snapshot = snapshot;
  total.window_end_ms = end_ms;
  total.ownership_epoch = shard_map_.epoch();
  NodeId home = EffectiveHome(reg.home);
  const bool degraded = fabric_->AnyNodeNotServing();
  DegradeState degrade;
  for (const std::vector<TriplePattern>& branch : reg.query.unions) {
    Query bq = reg.query;
    bq.patterns = branch;
    bq.unions.clear();
    // Modifiers apply once, after the branches are concatenated.
    bq.distinct = false;
    bq.order_by.clear();
    bq.limit = 0;
    Registration breg;
    breg.query = bq;
    breg.home = reg.home;
    breg.stream_ids = reg.stream_ids;

    std::vector<std::unique_ptr<NeighborSource>> plan_holders;
    auto plan_ctx = BuildContext(breg, end_ms, ChargePolicy::kNoCharge, home,
                                 &plan_holders, nullptr);
    if (!plan_ctx.ok()) {
      return plan_ctx.status();
    }
    std::vector<int> plan = PlanQuery(bq, *plan_ctx);
    bool selective = IsSelective(bq, plan);
    // A quarantined shard reroutes in-place queries to fork-join over the
    // survivors (graceful degradation).
    bool fork_join = config_.force_fork_join ||
                     ((!selective || degraded) && !config_.force_in_place);
    std::vector<std::unique_ptr<NeighborSource>> holders;
    auto ctx = BuildContext(
        breg, end_ms, fork_join ? ChargePolicy::kNoCharge : ChargePolicy::kInPlace,
        home, &holders, &degrade);
    if (!ctx.ok()) {
      return ctx.status();
    }
    auto exec = RunQuery(bq, plan, *ctx, home, fork_join, selective, snapshot,
                         &degrade);
    if (!exec.ok()) {
      return exec.status();
    }
    total.cpu_ms += exec->cpu_ms;
    total.net_ms += exec->net_ms;
    total.hedges_issued += exec->hedges_issued;
    total.hedges_won += exec->hedges_won;
    total.fork_join = total.fork_join || exec->fork_join;
    if (total.result.columns.empty()) {
      total.result.columns = exec->result.columns;
    }
    for (auto& row : exec->result.rows) {
      total.result.rows.push_back(std::move(row));
    }
  }
  ExecContext finalize_ctx;
  finalize_ctx.strings = strings_;
  Status fin = FinalizeSolution(reg.query, finalize_ctx, &total.result);
  if (!fin.ok()) {
    return fin;
  }
  ApplyDegrade(degrade, &total);
  // The merge step carries the loss accounting: before this, a UNION /
  // fork-join execution rebuilt QueryExecution from the branch merges and the
  // client never saw shed_fraction or the absolute edge loss.
  ApplyWindowLoss(reg, end_ms, &total);
  return total;
}

StatusOr<QueryExecution> Cluster::OneShot(std::string_view text, NodeId home,
                                          double deadline_ms) {
  auto parse_span = TraceSpan(tracer_, "query", "query/parse", home);
  auto q = ParseQuery(text, strings_);
  parse_span.End();
  if (!q.ok()) {
    return q.status();
  }
  return OneShotParsed(*q, home, deadline_ms);
}

StatusOr<QueryExecution> Cluster::OneShotParsed(const Query& q, NodeId home,
                                                double deadline_ms) {
  if (q.continuous) {
    return Status::InvalidArgument("continuous query submitted as one-shot");
  }
  // Latency budget (§5.11): active for the rest of this execution — every
  // fabric verb and fork-join round below charges against it. A no-op scope
  // when enforcement is off or no budget applies.
  DeadlineScope budget(EffectiveBudgetMs(deadline_ms));
  for (const WindowSpec& w : q.windows) {
    if (!w.absolute) {
      return Status::InvalidArgument(
          "one-shot query may only use absolute [FROM..TO] stream scopes");
    }
  }
  SnapshotNum snapshot = coordinator_->StableSn();
  if (test_hooks::stale_sn_read.load(std::memory_order_relaxed) && snapshot > 0) {
    --snapshot;  // Planted defect: read one snapshot behind Stable_SN.
  }

  // Plan against a charge-free view, then execute with charging.
  std::vector<std::unique_ptr<NeighborSource>> holders;
  Registration reg;
  reg.query = q;
  reg.home = home;
  for (const WindowSpec& w : q.windows) {
    auto sid = FindStream(w.stream_name);
    if (!sid.ok()) {
      return sid.status();
    }
    reg.stream_ids.push_back(*sid);
  }
  if (!q.unions.empty()) {
    auto exec = ExecuteUnion(reg, 0, snapshot);
    if (exec.ok()) {
      Count(Ctr::kQueriesOneShot);
    }
    return exec;
  }
  NodeId exec_home = EffectiveHome(home);
  const bool degraded = fabric_->AnyNodeNotServing();
  DegradeState degrade;
  auto plan_span = TraceSpan(tracer_, "query", "query/plan", exec_home);
  auto plan_ctx = BuildContext(reg, 0, ChargePolicy::kNoCharge, exec_home,
                               &holders, nullptr);
  if (!plan_ctx.ok()) {
    return plan_ctx.status();
  }
  std::vector<int> plan = PlanQuery(q, *plan_ctx);
  plan_span.Arg("patterns", static_cast<uint64_t>(plan.size()));
  plan_span.End();
  bool selective = IsSelective(q, plan);
  bool fork_join = config_.force_fork_join ||
                   ((!selective || degraded) && !config_.force_in_place);

  std::vector<std::unique_ptr<NeighborSource>> exec_holders;
  auto ctx = BuildContext(reg, 0,
                          fork_join ? ChargePolicy::kNoCharge : ChargePolicy::kInPlace,
                          exec_home, &exec_holders, &degrade);
  if (!ctx.ok()) {
    return ctx.status();
  }
  auto exec = RunQuery(q, plan, *ctx, exec_home, fork_join, selective, snapshot,
                       &degrade);
  if (exec.ok()) {
    ApplyDegrade(degrade, &exec.value());
    ApplyWindowLoss(reg, 0, &exec.value());
    Count(Ctr::kQueriesOneShot);
  }
  return exec;
}

StatusOr<Cluster::ContinuousHandle> Cluster::RegisterContinuous(
    std::string_view text, NodeId home) {
  auto parse_span = TraceSpan(tracer_, "query", "query/parse", home);
  auto q = ParseQuery(text, strings_);
  parse_span.End();
  if (!q.ok()) {
    return q.status();
  }
  return RegisterContinuousParsed(*q, home);
}

StatusOr<Cluster::ContinuousHandle> Cluster::RegisterContinuousParsed(const Query& q,
                                                                      NodeId home) {
  if (q.windows.empty()) {
    return Status::InvalidArgument("continuous query must declare stream windows");
  }
  Registration reg;
  reg.query = q;
  reg.home = home % config_.nodes;
  for (const WindowSpec& w : q.windows) {
    auto sid = FindStream(w.stream_name);
    if (!sid.ok()) {
      return sid.status();
    }
    reg.stream_ids.push_back(*sid);
    // Locality-aware partitioning: replicate this stream's index to the node
    // where the query runs, from now on (Fig. 9).
    streams_[*sid].subscribers.insert(reg.home);
  }
  registrations_.push_back(std::move(reg));
  ContinuousHandle h = static_cast<ContinuousHandle>(registrations_.size() - 1);
  if (config_.mqo.enabled) {
    AddToTemplateGroup(h);
  }
  return h;
}

void Cluster::AddToTemplateGroup(ContinuousHandle h) {
  Registration& reg = registrations_[h];
  TemplateSignature sig = CanonicalizeTemplate(reg.query);
  if (!sig.eligible) {
    return;  // Independent evaluation, exactly as without MQO.
  }
  std::lock_guard lock(mqo_mu_);
  size_t idx;
  auto it = group_index_.find(sig.key);
  if (it != group_index_.end()) {
    idx = it->second;
  } else {
    auto owned = std::make_unique<TemplateGroup>();
    TemplateGroup& g = *owned;
    g.key = sig.key;
    g.hole_col = sig.hole_var;
    g.probe.query = std::move(sig.probe);
    g.probe.home = reg.home;
    g.probe.stream_ids = reg.stream_ids;
    idx = groups_.size();
    group_index_.emplace(g.key, idx);
    groups_.push_back(std::move(owned));
    Count(Ctr::kMqoGroupsFormed);
  }
  TemplateGroup& g = *groups_[idx];
  {
    std::lock_guard glock(g.mu);
    g.members.push_back(h);
    g.memo_valid = false;
  }
  reg.group = static_cast<int>(idx);
  reg.hole_constant = sig.hole_constant;
  reg.var_to_canon = std::move(sig.var_to_canon);
  Count(Ctr::kMqoGroupedRegistrations);
  BumpMqoGeneration();
}

void Cluster::RemoveFromTemplateGroup(ContinuousHandle h) {
  Registration& reg = registrations_[h];
  if (reg.group < 0) {
    return;
  }
  std::lock_guard lock(mqo_mu_);
  TemplateGroup& g = *groups_[static_cast<size_t>(reg.group)];
  {
    std::lock_guard glock(g.mu);
    std::erase(g.members, h);
    g.memo_valid = false;
    if (g.members.empty() && g.live) {
      // Last member out dissolves the group; its key can re-form a fresh
      // group later (indices are never reused, handles stay stable).
      g.live = false;
      group_index_.erase(g.key);
      Count(Ctr::kMqoGroupsDissolved);
    }
  }
  reg.group = -1;
  BumpMqoGeneration();
}

Status Cluster::UnregisterContinuous(ContinuousHandle h) {
  if (h >= registrations_.size()) {
    return Status::NotFound("unknown continuous query handle");
  }
  Registration& reg = registrations_[h];
  if (!reg.active) {
    return Status::NotFound("continuous query handle already unregistered");
  }
  reg.active = false;
  if (test_hooks::stale_group_membership.load(std::memory_order_relaxed)) {
    return Status::Ok();  // Planted defect: group membership never shrinks.
  }
  RemoveFromTemplateGroup(h);
  BumpMqoGeneration();
  return Status::Ok();
}

bool Cluster::ContinuousActive(ContinuousHandle h) const {
  return h < registrations_.size() && registrations_[h].active;
}

Cluster::MqoStats Cluster::mqo_stats() const {
  MqoStats s;
  s.grouped_registrations = Value(Ctr::kMqoGroupedRegistrations);
  s.groups_formed = Value(Ctr::kMqoGroupsFormed);
  s.groups_dissolved = Value(Ctr::kMqoGroupsDissolved);
  s.shared_evals = Value(Ctr::kMqoSharedEvals);
  s.fanout_served = Value(Ctr::kMqoFanoutServed);
  s.independent_fallbacks = Value(Ctr::kMqoFallbacks);
  return s;
}

int Cluster::MqoGroupOf(ContinuousHandle h) const {
  return h < registrations_.size() ? registrations_[h].group : -1;
}

size_t Cluster::MqoGroupSizeOf(ContinuousHandle h) const {
  int g = MqoGroupOf(h);
  if (g < 0) {
    return 0;
  }
  std::lock_guard lock(mqo_mu_);
  TemplateGroup& group = *groups_[static_cast<size_t>(g)];
  std::lock_guard glock(group.mu);
  return group.members.size();
}

size_t Cluster::MqoLiveGroups() const {
  std::lock_guard lock(mqo_mu_);
  size_t live = 0;
  for (const auto& g : groups_) {
    live += g->live ? 1 : 0;
  }
  return live;
}

const Query& Cluster::ContinuousQueryOf(ContinuousHandle h) const {
  return registrations_[h].query;
}

bool Cluster::WindowReady(ContinuousHandle h, StreamTime end_ms) const {
  const Registration& reg = registrations_[h];
  VectorTimestamp stable = coordinator_->StableVts();
  for (size_t w = 0; w < reg.query.windows.size(); ++w) {
    BatchRange range = WindowBatches(end_ms, reg.query.windows[w].range_ms,
                                     config_.batch_interval_ms);
    if (range.empty) {
      continue;
    }
    BatchSeq have = stable.Get(reg.stream_ids[w]);
    if (have == kNoBatch || have < range.hi) {
      return false;
    }
  }
  return true;
}

StatusOr<QueryExecution> Cluster::ExecuteContinuousAt(ContinuousHandle h,
                                                      StreamTime end_ms,
                                                      double deadline_ms) {
  return ExecuteContinuousImpl(h, end_ms, /*production=*/true, /*count=*/true,
                               deadline_ms);
}

StatusOr<QueryExecution> Cluster::ExecuteContinuousColdAt(ContinuousHandle h,
                                                          StreamTime end_ms) {
  return ExecuteContinuousImpl(h, end_ms, /*production=*/false,
                               /*count=*/false);
}

StatusOr<QueryExecution> Cluster::ExecuteContinuousImpl(ContinuousHandle h,
                                                        StreamTime end_ms,
                                                        bool production,
                                                        bool count,
                                                        double deadline_ms) {
  if (h >= registrations_.size()) {
    return Status::NotFound("unknown continuous query handle");
  }
  Registration& reg = registrations_[h];
  if (!reg.active &&
      !(test_hooks::stale_group_membership.load(std::memory_order_relaxed) &&
        reg.group >= 0)) {
    return Status::NotFound("continuous query handle was unregistered");
  }
  if (!WindowReady(h, end_ms)) {
    return Status::FailedPrecondition(
        "stream windows not ready (Stable_VTS behind window end)");
  }
  // Continuous triggers carry latency budgets too (§5.11); no-op when none.
  DeadlineScope budget(EffectiveBudgetMs(deadline_ms));
  if (!reg.query.unions.empty()) {
    auto exec = ExecuteUnion(reg, end_ms, coordinator_->StableSn());
    if (exec.ok()) {
      exec->window_end_ms = end_ms;
      if (count) {
        Count(Ctr::kQueriesContinuous);
      }
      if (tracer_ != nullptr) {
        tracer_->Instant("query", "query/deliver", reg.home);
      }
    }
    return exec;
  }

  // Template-group dispatch (§5.12): serve the trigger from the group's
  // shared probe evaluation. Cold re-execution (production=false) bypasses
  // grouping — it is the differential harness's independent baseline.
  if (production && config_.mqo.enabled && reg.group >= 0) {
    auto grouped = TryExecuteGrouped(reg, end_ms);
    if (grouped.has_value()) {
      if (grouped->ok()) {
        if (count) {
          Count(Ctr::kQueriesContinuous);
        }
        if (tracer_ != nullptr) {
          tracer_->Instant("query", "query/deliver", reg.home);
        }
      }
      return std::move(*grouped);
    }
  }
  return ExecuteRegistrationAt(reg, end_ms, production, count);
}

StatusOr<QueryExecution> Cluster::ExecuteRegistrationAt(Registration& reg,
                                                        StreamTime end_ms,
                                                        bool production,
                                                        bool count) {
  // Degradation reroute: a registration whose home node is down executes on
  // the first surviving node instead of crashing.
  NodeId home = EffectiveHome(reg.home);
  const bool degraded = fabric_->AnyNodeNotServing();
  DegradeState degrade;

  // Plan once, at the first triggered execution (stored-procedure style),
  // and once more when a plan made on partly filled windows sees them full.
  std::shared_ptr<const PlanState> plan = EnsurePlanned(reg, end_ms, home);
  if (plan == nullptr || plan->order.size() != reg.query.patterns.size()) {
    return Status::Internal("continuous query has no cached plan");
  }
  // Adaptive re-planning (§5.14): on trigger cadence, compare the plan's
  // statistics snapshot against live collector state and cut over to a
  // re-synthesized plan behind the shadow parity gate. Skipped on a degraded
  // cluster — a reroute is the wrong moment to judge plan quality.
  if (config_.replan.enabled && !degraded && production) {
    MaybeReplan(reg, end_ms, home);
    std::lock_guard lock(*reg.plan_mu);
    plan = reg.plan;
  }
  bool selective = plan->selective;
  bool fork_join = config_.force_fork_join ||
                   ((!selective || degraded) && !config_.force_in_place);

  std::vector<std::unique_ptr<NeighborSource>> holders;
  auto ctx = BuildContext(reg, end_ms,
                          fork_join ? ChargePolicy::kNoCharge : ChargePolicy::kInPlace,
                          home, &holders, &degrade);
  if (!ctx.ok()) {
    return ctx.status();
  }
  // Production triggers train the fan-out EWMA; cold oracle re-executions
  // must not — observing them would let parity checks themselves perturb
  // future plans.
  if (config_.replan.enabled && production) {
    ctx->observe = MakeExpansionObserver(reg);
  }
  auto exec = RunQuery(reg.query, plan->order, *ctx, home, fork_join,
                       selective, coordinator_->StableSn(), &degrade);
  if (exec.ok()) {
    exec->window_end_ms = end_ms;
    ApplyDegrade(degrade, &exec.value());
    ApplyWindowLoss(reg, end_ms, &exec.value());
    if (count) {
      Count(Ctr::kQueriesContinuous);
    }
    if (tracer_ != nullptr) {
      tracer_->Instant("query", "query/deliver", home);
    }
  }
  return exec;
}

// --- Adaptive re-planning & plan pinning (§5.14) ---------------------------

PlanHints Cluster::HintsFor(const Registration& reg,
                            const StreamStatsSnapshot* stats) const {
  PlanHints hints;
  hints.stats = stats;
  if (stats != nullptr) {
    hints.window_scope.reserve(reg.stream_ids.size());
    for (StreamId sid : reg.stream_ids) {
      hints.window_scope.push_back(static_cast<int32_t>(sid));
    }
  }
  return hints;
}

std::function<void(const TriplePattern&, size_t, size_t, size_t)>
Cluster::MakeExpansionObserver(const Registration& reg) {
  return [this, &reg](const TriplePattern& p, size_t rows_before,
                      size_t cols_before, size_t rows_after) {
    // Only genuine bound expansions train the fan-out EWMA: the seed step
    // starts from the implicit unit row and its output size is window
    // cardinality, not join selectivity.
    if (cols_before == 0 || rows_before == 0) {
      return;
    }
    int32_t scope = kStoredScope;
    if (p.graph != kGraphStored &&
        static_cast<size_t>(p.graph) < reg.stream_ids.size()) {
      scope = static_cast<int32_t>(reg.stream_ids[static_cast<size_t>(p.graph)]);
    }
    stream_stats_.ObserveExpansion(scope, p.predicate, rows_before, rows_after);
  };
}

std::shared_ptr<const Cluster::PlanState> Cluster::EnsurePlanned(
    Registration& reg, StreamTime end_ms, NodeId home) {
  // Windows are clipped at stream time 0, so before end_ms reaches a
  // window's range the planner would rank its patterns by a fraction of
  // their steady-state cardinality (one 100 ms batch of a 1 s window): too
  // small a sample to order two windows by.
  bool windows_full = true;
  for (const WindowSpec& w : reg.query.windows) {
    windows_full = windows_full && end_ms >= w.range_ms;
  }
  std::shared_ptr<const PlanState> current;
  {
    std::lock_guard lock(*reg.plan_mu);
    current = reg.plan;
  }
  if (current != nullptr && (!current->provisional || !windows_full)) {
    return current;
  }
  // Plan outside the lock (planning reads window cardinalities through the
  // fabric); a concurrent trigger may plan too, but both see the same
  // sources and the checks below install exactly one winner.
  auto plan_span = TraceSpan(tracer_, "query", "query/plan", home);
  std::vector<std::unique_ptr<NeighborSource>> plan_holders;
  auto plan_ctx = BuildContext(reg, end_ms, ChargePolicy::kNoCharge, home,
                               &plan_holders, nullptr);
  if (!plan_ctx.ok()) {
    return current;
  }
  auto state = std::make_shared<PlanState>();
  if (config_.replan.enabled) {
    state->stats = stream_stats_.Snapshot();
  }
  PlanHints hints =
      HintsFor(reg, config_.replan.enabled ? &state->stats : nullptr);
  state->order = PlanQuery(reg.query, *plan_ctx, hints);
  state->selective = IsSelective(reg.query, state->order);
  state->provisional = !windows_full;
  if (current == nullptr) {
    std::lock_guard lock(*reg.plan_mu);
    if (reg.plan == nullptr) {
      reg.plan = std::move(state);
    }
    return reg.plan;
  }
  // The provisional plan's windows have filled. A new order is the next
  // version and goes through the same parity gate and re-keying as an
  // adaptive cutover. The same order, or one the gate turned down, stays as
  // it is, with its version and whatever the MQO memos hold.
  // Either way the plan is final now.
  if (state->order != current->order) {
    state->version = current->version + 1;
    if (GatedCutover(reg, current, state, end_ms, home) ==
        GateResult::kInstalled) {
      return state;
    }
  }
  auto kept = std::make_shared<PlanState>(*current);
  kept->provisional = false;
  std::lock_guard lock(*reg.plan_mu);
  if (reg.plan == current) {
    reg.plan = std::move(kept);
  }
  return reg.plan;
}

bool Cluster::InstallPlan(Registration& reg,
                          std::shared_ptr<const PlanState> next, bool rekey,
                          const PlanState* expected) {
  {
    std::lock_guard lock(*reg.plan_mu);
    if (expected != nullptr && reg.plan.get() != expected) {
      return false;
    }
    reg.plan = std::move(next);
  }
  if (!rekey) {
    return true;
  }
  // Coherence: MQO memos were built under the old plan's pattern order and
  // must be retired before the new plan serves a trigger.
  BumpMqoGeneration();
  return true;
}

StatusOr<QueryResult> Cluster::ShadowExecute(Registration& reg,
                                             StreamTime end_ms, NodeId home,
                                             const std::vector<int>& order,
                                             uint64_t* rows) {
  std::vector<std::unique_ptr<NeighborSource>> holders;
  auto ctx = BuildContext(reg, end_ms, ChargePolicy::kNoCharge, home, &holders,
                          nullptr);
  if (!ctx.ok()) {
    return ctx.status();
  }
  // The observer meters budget here, not statistics: shadow work must not
  // train the collector that triggered it.
  ctx->observe = [rows](const TriplePattern&, size_t, size_t,
                        size_t rows_after) { *rows += rows_after; };
  return ExecuteQuery(reg.query, order, *ctx);
}

void Cluster::MaybeReplan(Registration& reg, StreamTime end_ms, NodeId home) {
  std::shared_ptr<const PlanState> current;
  {
    std::lock_guard lock(*reg.plan_mu);
    current = reg.plan;
    if (current == nullptr || current->pinned) {
      return;
    }
    if (++reg.triggers_since_check < config_.replan.min_triggers_between) {
      return;
    }
    reg.triggers_since_check = 0;
  }
  Count(Ctr::kReplanChecks);

  StreamStatsSnapshot fresh = stream_stats_.Snapshot();
  if (test_hooks::stale_stats_snapshot.load(std::memory_order_relaxed)) {
    // Planted defect: the detector compares the plan's frozen snapshot
    // against itself, so drift is never visible and re-planning never fires.
    fresh = current->stats;
  }
  if (!DriftExceeds(current->stats, fresh, reg.stream_ids, config_.replan)) {
    return;
  }
  Count(Ctr::kReplanDriftTriggers);

  // Synthesize a candidate from this trigger's window cardinalities plus the
  // live snapshot (observed fan-outs refine the bound-expansion estimates).
  auto plan_span = TraceSpan(tracer_, "query", "query/replan", home);
  std::vector<std::unique_ptr<NeighborSource>> plan_holders;
  auto plan_ctx = BuildContext(reg, end_ms, ChargePolicy::kNoCharge, home,
                               &plan_holders, nullptr);
  if (!plan_ctx.ok()) {
    return;
  }
  std::vector<int> candidate =
      PlanQuery(reg.query, *plan_ctx, HintsFor(reg, &fresh));
  if (candidate == current->order) {
    // Same order under the new statistics: adopt `fresh` as the drift
    // baseline so an already-absorbed shift stops re-triggering every
    // cadence.
    auto refreshed = std::make_shared<PlanState>(*current);
    refreshed->stats = std::move(fresh);
    std::lock_guard lock(*reg.plan_mu);
    if (reg.plan == current) {
      reg.plan = std::move(refreshed);
    }
    return;
  }

  auto next = std::make_shared<PlanState>();
  next->order = std::move(candidate);
  next->selective = IsSelective(reg.query, next->order);
  next->version = current->version + 1;
  next->stats = std::move(fresh);

  if (test_hooks::skip_parity_gate.load(std::memory_order_relaxed)) {
    // Planted defect: hot-swap the candidate with neither the shadow parity
    // check nor the coherent re-keying InstallPlan(rekey=true) performs.
    InstallPlan(reg, std::move(next), /*rekey=*/false);
    return;
  }

  if (GatedCutover(reg, current, next, end_ms, home) == GateResult::kDiverged) {
    // Fall back safely: keep the proven plan but adopt the fresh baseline so
    // the diverging candidate is not re-synthesized every cadence.
    auto refreshed = std::make_shared<PlanState>(*current);
    refreshed->stats = next->stats;
    std::lock_guard lock(*reg.plan_mu);
    if (reg.plan == current) {
      reg.plan = std::move(refreshed);
    }
  }
}

Cluster::GateResult Cluster::GatedCutover(
    Registration& reg, const std::shared_ptr<const PlanState>& current,
    std::shared_ptr<const PlanState> next, StreamTime end_ms, NodeId home) {
  // Shadow parity gate: both plans run cold over the same window and must be
  // bag-equal before the candidate may serve real triggers. Both failing
  // with the same status code also counts — the observable behavior is
  // unchanged. Budget is metered in produced rows so overrun fallbacks
  // replay deterministically.
  const uint64_t budget = config_.replan.shadow_budget_rows;
  uint64_t shadow_rows = 0;
  auto over_budget = [&] {
    if (budget == 0 || shadow_rows <= budget) {
      return false;
    }
    Count(Ctr::kReplanBudgetOverruns);
    return true;
  };
  auto old_result = ShadowExecute(reg, end_ms, home, current->order, &shadow_rows);
  if (over_budget()) {
    return GateResult::kKept;  // Keep the proven plan for now.
  }
  auto new_result = ShadowExecute(reg, end_ms, home, next->order, &shadow_rows);
  if (over_budget()) {
    return GateResult::kKept;
  }
  bool parity = false;
  if (old_result.ok() && new_result.ok()) {
    parity = testkit::CanonicalBag(*old_result) ==
             testkit::CanonicalBag(*new_result);
  } else if (!old_result.ok() && !new_result.ok()) {
    parity = old_result.status().code() == new_result.status().code();
  }
  if (!parity) {
    Count(Ctr::kReplanParityFailures);
    return GateResult::kDiverged;
  }
  if (!InstallPlan(reg, std::move(next), /*rekey=*/true, current.get())) {
    return GateResult::kKept;
  }
  Count(Ctr::kReplanCutovers);
  return GateResult::kInstalled;
}

Status Cluster::PinContinuousPlan(ContinuousHandle h, const PlanPin& pin) {
  if (h >= registrations_.size() || !registrations_[h].active) {
    return Status::NotFound("unknown continuous query handle");
  }
  Registration& reg = registrations_[h];
  const size_t n = reg.query.patterns.size();
  if (pin.order.size() != n) {
    return Status::InvalidArgument("plan pin pattern count does not match the query");
  }
  std::vector<bool> seen(n, false);
  for (int idx : pin.order) {
    if (idx < 0 || static_cast<size_t>(idx) >= n || seen[static_cast<size_t>(idx)]) {
      return Status::InvalidArgument("plan pin order is not a permutation of the query's patterns");
    }
    seen[static_cast<size_t>(idx)] = true;
  }
  auto state = std::make_shared<PlanState>();
  state->order = pin.order;
  state->selective = pin.selective.value_or(IsSelective(reg.query, pin.order));
  state->pinned = true;
  {
    std::lock_guard lock(*reg.plan_mu);
    state->version = (reg.plan != nullptr ? reg.plan->version : 0) + 1;
  }
  if (config_.replan.enabled) {
    state->stats = stream_stats_.Snapshot();
  }
  InstallPlan(reg, std::move(state), /*rekey=*/true);
  Count(Ctr::kReplanPins);
  return Status::Ok();
}

Cluster::ReplanStats Cluster::replan_stats() const {
  ReplanStats s;
  s.checks = Value(Ctr::kReplanChecks);
  s.drift_triggers = Value(Ctr::kReplanDriftTriggers);
  s.cutovers = Value(Ctr::kReplanCutovers);
  s.parity_failures = Value(Ctr::kReplanParityFailures);
  s.budget_overruns = Value(Ctr::kReplanBudgetOverruns);
  s.pins = Value(Ctr::kReplanPins);
  return s;
}

std::vector<int> Cluster::ContinuousPlanOf(ContinuousHandle h) const {
  if (h >= registrations_.size()) {
    return {};
  }
  const Registration& reg = registrations_[h];
  std::lock_guard lock(*reg.plan_mu);
  return reg.plan != nullptr ? reg.plan->order : std::vector<int>{};
}

uint64_t Cluster::PlanVersionOf(ContinuousHandle h) const {
  if (h >= registrations_.size()) {
    return 0;
  }
  const Registration& reg = registrations_[h];
  std::lock_guard lock(*reg.plan_mu);
  return reg.plan != nullptr ? reg.plan->version : 0;
}

std::optional<StatusOr<QueryExecution>> Cluster::TryExecuteGrouped(
    Registration& reg, StreamTime end_ms) {
  TemplateGroup* g = nullptr;
  {
    std::lock_guard lock(mqo_mu_);
    if (reg.group < 0 || static_cast<size_t>(reg.group) >= groups_.size()) {
      return std::nullopt;
    }
    g = groups_[static_cast<size_t>(reg.group)].get();
  }
  std::lock_guard glock(g->mu);
  if (!g->live || g->members.size() < config_.mqo.min_group_size) {
    return std::nullopt;  // Singleton groups run byte-identically to no-MQO.
  }
  if (fabric_->AnyNodeNotServing()) {
    // A degraded cluster splits the whole group back to independent triggers
    // for this round: every member then reports its own partial/degrade
    // accounting instead of inheriting the probe's.
    Count(Ctr::kMqoFallbacks);
    return std::nullopt;
  }

  const SnapshotNum sn = coordinator_->StableSn();
  const uint64_t stored = StoredEpoch(sn);
  const uint64_t epoch = shard_map_.epoch();
  const uint64_t gen = memo_gen_.load(std::memory_order_relaxed);
  bool paid = false;
  if (!(g->memo_valid && g->memo_end_ms == end_ms &&
        g->memo_stored_epoch == stored && g->memo_snapshot == sn &&
        g->memo_ownership_epoch == epoch && g->memo_gen == gen)) {
    g->memo_valid = false;
    auto shared = ExecuteRegistrationAt(g->probe, end_ms, /*production=*/true,
                                        /*count=*/false);
    Count(Ctr::kMqoSharedEvals);
    if (!shared.ok() || shared->partial || shared->deadline_expired ||
        shared->completeness < 1.0) {
      // A failed or degraded probe is never memoized and never fanned out:
      // the member re-runs independently so its error/partial surface is
      // exactly what a cluster without MQO would have produced.
      Count(Ctr::kMqoFallbacks);
      return std::nullopt;
    }
    g->memo_exec = std::move(*shared);
    g->memo_partition = PartitionRowsByColumn(g->memo_exec.result,
                                              static_cast<size_t>(g->hole_col));
    g->memo_valid = true;
    g->memo_end_ms = end_ms;
    g->memo_stored_epoch = stored;
    g->memo_snapshot = sn;
    g->memo_ownership_epoch = epoch;
    g->memo_gen = gen;
    paid = true;
  }

  static const std::vector<size_t> kNoRows;
  const std::vector<size_t>* rows = &kNoRows;
  std::vector<size_t> leak_rows;
  if (test_hooks::skip_fanout_partition.load(std::memory_order_relaxed)) {
    // Planted defect: skip the hash partition — every member receives the
    // whole probe result, i.e. its siblings' bindings leak into its answer.
    leak_rows.resize(g->memo_exec.result.rows.size());
    for (size_t r = 0; r < leak_rows.size(); ++r) {
      leak_rows[r] = r;
    }
    rows = &leak_rows;
  } else if (auto it = g->memo_partition.find(reg.hole_constant);
             it != g->memo_partition.end()) {
    rows = &it->second;
  }
  if (rows->empty() && !reg.query.filters.empty()) {
    // Independent evaluation of an empty-join member can early-exit and then
    // reject a FILTER over a never-bound variable; the probe (a superset of
    // every member's join) cannot reproduce that. Run such members
    // independently so grouped and independent error semantics stay
    // identical.
    Count(Ctr::kMqoFallbacks);
    return std::nullopt;
  }

  double sim_before = SimCost::TotalNs();
  Stopwatch wall;
  ExecContext fan_ctx;
  fan_ctx.strings = strings_;
  fan_ctx.tracer = tracer_;
  fan_ctx.trace_node = reg.home;
  auto result = ProjectMemberFromProbe(reg.query, fan_ctx, g->memo_exec.result,
                                       *rows, reg.var_to_canon);
  if (!result.ok()) {
    // Member-level modifier errors (e.g. ORDER BY on an aggregated column)
    // arise in FinalizeSolution on both paths — safe to surface directly.
    return std::optional<StatusOr<QueryExecution>>(result.status());
  }
  // The partition hand-off is one hop from the probe's home to the member's;
  // the shared evaluation itself was charged when the payer ran it.
  SimCost::Add(fabric_->transport() == Transport::kRdma ? kRdmaHopNs
                                                        : kTcpHopNs);
  QueryExecution out;
  out.result = std::move(*result);
  out.cpu_ms = wall.ElapsedNs() / 1e6;
  out.net_ms = (SimCost::TotalNs() - sim_before) / 1e6;
  out.fork_join = g->memo_exec.fork_join;
  out.snapshot = g->memo_exec.snapshot;
  out.window_end_ms = end_ms;
  out.ownership_epoch = g->memo_exec.ownership_epoch;
  if (paid) {
    // The member that paid for the shared evaluation carries its full cost
    // and accounting; memo-served siblings pay only the fan-out.
    out.cpu_ms += g->memo_exec.cpu_ms;
    out.net_ms += g->memo_exec.net_ms;
    out.fault_retries = g->memo_exec.fault_retries;
    out.backoff_ms = g->memo_exec.backoff_ms;
    out.hedges_issued = g->memo_exec.hedges_issued;
    out.hedges_won = g->memo_exec.hedges_won;
  } else {
    Count(Ctr::kMqoFanoutServed);
  }
  ApplyWindowLoss(reg, end_ms, &out);
  return std::optional<StatusOr<QueryExecution>>(std::move(out));
}

void Cluster::RunMaintenance(StreamTime live_horizon_ms) {
  SnapshotNum floor = coordinator_->CollapseFloor();
  for (GStore* store : stores_raw_) {
    store->CollapseBelow(floor);
  }
  BatchSeq min_live = live_horizon_ms / config_.batch_interval_ms;
  for (size_t s = 0; s < streams_.size(); ++s) {
    for (NodeId n = 0; n < config_.nodes; ++n) {
      stream_indexes_raw_[s][n]->EvictBefore(min_live);
      transients_raw_[s][n]->SetGcHorizon(min_live);
      transients_raw_[s][n]->RunGc();
    }
  }
  // Shed ledger entries age out with the same horizon: no window can reach
  // those batches again, so their loss accounting is dead weight.
  std::lock_guard lock(overload_mu_);
  for (StreamState& state : streams_) {
    std::erase_if(state.shed, [min_live](const auto& kv) {
      return kv.first < min_live;
    });
  }
  BumpMqoGeneration();
}

Cluster::InjectionProfile Cluster::injection_profile(StreamId stream) const {
  if (stream >= streams_.size()) {
    return {};
  }
  return streams_[stream].profile;
}

Cluster::MemoryReport Cluster::Memory() const {
  MemoryReport r;
  for (const auto& store : stores_) {
    r.store_bytes += store->MemoryBytes();
    r.snapshot_meta_bytes += store->SnapshotMetadataBytes();
    r.stream_appended_edges += store->StreamAppendedEdges();
  }
  for (size_t s = 0; s < streams_.size(); ++s) {
    size_t stream_bytes = 0;
    for (NodeId n = 0; n < config_.nodes; ++n) {
      stream_bytes += stream_indexes_raw_[s][n]->MemoryBytes();
      r.transient_bytes += transients_raw_[s][n]->MemoryBytes();
    }
    // Subscribed replicas duplicate the whole stream's index per subscriber
    // (minus the subscriber's own local portion, ignored here).
    size_t replicas = streams_[s].subscribers.size();
    r.stream_index_bytes += stream_bytes * (1 + replicas);
    r.stream_index_replicas += replicas;
  }
  r.string_server_bytes = strings_->MemoryBytes();
  return r;
}

size_t Cluster::StreamIndexBytes(StreamId stream) const {
  size_t bytes = 0;
  if (stream < stream_indexes_raw_.size()) {
    for (const StreamIndex* idx : stream_indexes_raw_[stream]) {
      bytes += idx->MemoryBytes();
    }
  }
  return bytes;
}

size_t Cluster::TransientBytes(StreamId stream) const {
  size_t bytes = 0;
  if (stream < transients_raw_.size()) {
    for (const TransientStore* ts : transients_raw_[stream]) {
      bytes += ts->MemoryBytes();
    }
  }
  return bytes;
}

void Cluster::SetBatchLogger(std::function<void(const StreamBatch&)> logger) {
  batch_logger_ = std::move(logger);
}

Status Cluster::ReplayBatch(const StreamBatch& batch) {
  if (batch.stream >= streams_.size()) {
    return Status::NotFound("unknown stream id in replayed batch");
  }
  StreamAdaptor* adaptor = streams_[batch.stream].adaptor.get();
  if (batch.seq < delivered_next_[batch.stream]) {
    // At-least-once replay (checkpoint log + upstream backup overlap):
    // already-injected batches are suppressed by the sequence gate.
    Count(Ctr::kDuplicatesSuppressed);
    return Status::Ok();
  }
  // Bring the adaptor level with the replay so later live feeding continues
  // from the right sequence. Missing intermediate batches are injected empty.
  std::vector<StreamBatch> fill;
  adaptor->AdvanceTo(batch.seq * config_.batch_interval_ms, &fill);
  for (const StreamBatch& b : fill) {
    if (b.seq < delivered_next_[b.stream]) {
      continue;
    }
    InjectBatch(b);
    delivered_next_[b.stream] = b.seq + 1;
  }
  InjectBatch(batch);
  delivered_next_[batch.stream] = batch.seq + 1;
  adaptor->FastForward(batch.seq + 1);
  return Status::Ok();
}

bool Cluster::NodeUp(NodeId n) const { return fabric_->node_up(n); }

uint32_t Cluster::UpNodeCount() const { return fabric_->up_count(); }

BatchSeq Cluster::NextSeq(StreamId stream) const {
  if (stream >= streams_.size()) {
    return 0;
  }
  return streams_[stream].adaptor->next_seq();
}

Status Cluster::CrashNode(NodeId node) {
  if (node >= config_.nodes) {
    return Status::NotFound("unknown node id");
  }
  if (!fabric_->node_up(node)) {
    return Status::FailedPrecondition("node is already down");
  }
  if (fabric_->up_count() <= 1) {
    return Status::FailedPrecondition("cannot crash the last live node");
  }
  fabric_->SetNodeUp(node, false);
  // A crash supersedes any quarantine; clear the serving flag so the restored
  // node is not born quarantined, and drop batches parked for it (the restore
  // path replays them from the checkpoint log instead).
  fabric_->SetNodeServing(node, true);
  backlog_[node].clear();
  crash_marked_.insert(node);
  // Stale service history dies with the process too: a restored node starts
  // with a clean straggler record and an empty latency histogram.
  if (straggler_ != nullptr) {
    straggler_->Reset(node);
  }
  {
    std::lock_guard lock(service_mu_);
    if (node < service_hist_.size()) {
      service_hist_[node].Clear();
    }
  }
  // A migration with this node as an endpoint rolls back to the old epoch.
  // Crashing the *target* also resets its stores, so any stranded partial
  // copy (this migration's or a previously tainted one) dies with it.
  AbortMigrationFor(node);
  std::erase_if(migration_taints_,
                [node](const auto& p) { return p.second == node; });
  draining_.erase(node);
  // Excluded from Stable_VTS so surviving nodes keep triggering windows, and
  // its injection progress is forgotten so restore can re-report from seq 0.
  coordinator_->SetNodeActive(node, false);
  coordinator_->ResetNode(node);
  // Volatile state dies with the process: the shard, its stream-index
  // portion, and its transient slices.
  stores_[node] = std::make_unique<GStore>(node);
  stores_raw_[node] = stores_[node].get();
  for (size_t s = 0; s < streams_.size(); ++s) {
    stream_indexes_[s][node] = std::make_unique<StreamIndex>();
    stream_indexes_raw_[s][node] = stream_indexes_[s][node].get();
    transients_[s][node] =
        std::make_unique<TransientStore>(config_.transient_budget_bytes);
    transients_raw_[s][node] = transients_[s][node].get();
    WireEvictionListeners(static_cast<StreamId>(s), node);
  }
  Count(Ctr::kCrashes);
  BumpMqoGeneration();
  return Status::Ok();
}

void Cluster::SetCrashHandler(std::function<void(const CrashEvent&)> handler) {
  crash_handler_ = std::move(handler);
}

void Cluster::SetUpstreamBuffer(UpstreamBuffer* upstream) {
  upstream_ = upstream;
}

Status Cluster::LoadBaseForNode(NodeId node, std::span<const Triple> triples) {
  if (node >= config_.nodes) {
    return Status::NotFound("unknown node id");
  }
  if (fabric_->node_up(node)) {
    return Status::FailedPrecondition("node is live; crash it before restoring");
  }
  for (const Triple& t : triples) {
    if (OwnerOf(t.subject) == node) {
      stores_raw_[node]->LoadEdge(Key(t.subject, t.predicate, Dir::kOut),
                                  t.object);
    }
    if (OwnerOf(t.object) == node) {
      stores_raw_[node]->LoadEdge(Key(t.object, t.predicate, Dir::kIn),
                                  t.subject);
    }
  }
  return Status::Ok();
}

Status Cluster::ReplayBatchForNode(NodeId node, const StreamBatch& batch) {
  if (node >= config_.nodes) {
    return Status::NotFound("unknown node id");
  }
  if (batch.stream >= streams_.size()) {
    return Status::NotFound("unknown stream id in replayed batch");
  }
  if (fabric_->node_up(node)) {
    return Status::FailedPrecondition("node is live; crash it before restoring");
  }
  BatchSeq prev = coordinator_->LocalVts(node).Get(batch.stream);
  BatchSeq next = prev == kNoBatch ? 0 : prev + 1;
  if (batch.seq < next) {
    // Overlap between the checkpoint log and the upstream-backup tail.
    Count(Ctr::kDuplicatesSuppressed);
    return Status::Ok();
  }
  if (batch.seq > next) {
    return Status::FailedPrecondition(
        "gap in restore replay: expected batch " + std::to_string(next) +
        " of stream " + std::to_string(batch.stream) + ", got " +
        std::to_string(batch.seq));
  }
  InjectBatch(batch, static_cast<int>(node));
  return Status::Ok();
}

Status Cluster::FinishNodeRestore(NodeId node) {
  if (node >= config_.nodes) {
    return Status::NotFound("unknown node id");
  }
  if (fabric_->node_up(node)) {
    return Status::FailedPrecondition("node is already live");
  }
  if (crash_marked_.count(node) == 0) {
    // Down but never taken through CrashNode (e.g. direct fabric
    // manipulation): its volatile state was never reset and the coordinator
    // never forgot its progress, so the restore invariants below are
    // meaningless. Surfacing success here used to mask exactly that misuse.
    return Status::InvalidArgument(
        "node " + std::to_string(node) +
        " was never crash-marked; use CrashNode before restoring");
  }
  // The node may only rejoin once its replayed progress covers the survivors'
  // stable frontier; reactivating early would regress Stable_VTS and stall
  // (or un-trigger) windows that already fired.
  VectorTimestamp stable = coordinator_->StableVts();
  VectorTimestamp local = coordinator_->LocalVts(node);
  for (StreamId s = 0; s < static_cast<StreamId>(streams_.size()); ++s) {
    BatchSeq need = stable.Get(s);
    if (need == kNoBatch) {
      continue;
    }
    BatchSeq have = local.Get(s);
    if (have == kNoBatch || have < need) {
      return Status::FailedPrecondition(
          "node " + std::to_string(node) + " lags stream " + std::to_string(s) +
          ": restored through " +
          (have == kNoBatch ? std::string("nothing") : std::to_string(have)) +
          ", survivors at " + std::to_string(need));
    }
  }
  fabric_->SetNodeUp(node, true);
  coordinator_->SetNodeActive(node, true);
  crash_marked_.erase(node);
  if (health_ != nullptr) {
    // Restart the node's heartbeat history; stale pre-crash inter-arrival
    // gaps would instantly re-quarantine it.
    health_->Reset(node, last_health_ms_);
  }
  BumpMqoGeneration();
  return Status::Ok();
}

Status Cluster::BeginShardMove(uint32_t shard, NodeId target) {
  if (shard >= shard_map_.shard_count()) {
    return Status::NotFound("unknown shard " + std::to_string(shard));
  }
  if (target >= config_.nodes) {
    return Status::NotFound("unknown target node " + std::to_string(target));
  }
  if (migration_ != nullptr) {
    return Status::FailedPrecondition(
        "a shard migration is already in flight (shard " +
        std::to_string(migration_->shard) + ")");
  }
  const NodeId source = shard_map_.OwnerOfShard(shard);
  if (source == target) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " is already owned by node " +
                                   std::to_string(target));
  }
  if (!fabric_->node_up(source)) {
    return Status::FailedPrecondition("source node " + std::to_string(source) +
                                      " is down");
  }
  // A quarantined node is never a migration target (its shard would be
  // unreadable right after cutover), nor is a draining one (the shard would
  // immediately have to move again).
  if (!fabric_->node_up(target) || !fabric_->node_serving(target)) {
    return Status::FailedPrecondition("migration target " +
                                      std::to_string(target) +
                                      " is not up and serving");
  }
  if (draining_.count(target) > 0) {
    return Status::FailedPrecondition("migration target " +
                                      std::to_string(target) + " is draining");
  }
  if (migration_taints_.count({shard, target}) > 0) {
    return Status::FailedPrecondition(
        "target " + std::to_string(target) +
        " holds a stale partial copy of shard " + std::to_string(shard) +
        " from an aborted transfer; crash-reset it or pick another target");
  }
  // A former owner keeps its copy of the shard at cutover (reclamation is
  // deferred), so a shard moving *back* would land on stale data and
  // duplicate every edge. Purge the target's copy — persistent keys, stream
  // indexes, and transient slices — before the fresh one is built, so base
  // copy + history replay + dual-apply rebuild the shard exactly once.
  {
    const auto view = shard_map_.View();
    auto in_shard = [&view, shard](VertexId v) {
      return view->ShardOfVertex(v) == shard;
    };
    uint64_t purged = stores_raw_[target]->PurgeShard(in_shard);
    for (size_t s = 0; s < streams_.size(); ++s) {
      stream_indexes_raw_[s][target]->PurgeShard(in_shard);
      purged += transients_raw_[s][target]->PurgeShard(in_shard);
    }
    Count(Ctr::kStaleEdgesPurged, purged);
  }
  // From here on every read must filter by ownership: even if this very
  // first migration aborts, the partial copy on the target has to stay
  // invisible. No epoch bump — ownership has not changed.
  shard_map_.MarkDirty();
  migration_ = std::make_unique<Migration>();
  migration_->shard = shard;
  migration_->source = source;
  migration_->target = target;
  migration_->begin_next = delivered_next_;
  migration_->replayed_next.assign(streams_.size(), 0);
  Count(Ctr::kMovesStarted);
  if (tracer_ != nullptr) {
    tracer_->Instant("reconfig", "reconfig/begin", source);
  }
  return Status::Ok();
}

Status Cluster::LoadBaseForShard(std::span<const Triple> triples) {
  if (migration_ == nullptr) {
    return Status::FailedPrecondition("no shard migration in flight");
  }
  const auto view = shard_map_.View();
  const uint32_t shard = migration_->shard;
  const NodeId target = migration_->target;
  uint64_t copied = 0;
  for (const Triple& t : triples) {
    if (view->ShardOfVertex(t.subject) == shard) {
      stores_raw_[target]->InjectEdgeMigrated(
          Key(t.subject, t.predicate, Dir::kOut), t.object,
          GStore::kBaseSnapshot, nullptr);
      ++copied;
    }
    if (view->ShardOfVertex(t.object) == shard) {
      stores_raw_[target]->InjectEdgeMigrated(
          Key(t.object, t.predicate, Dir::kIn), t.subject,
          GStore::kBaseSnapshot, nullptr);
      ++copied;
    }
  }
  if (copied > 0) {
    fabric_->Message(migration_->source, target, copied * kTupleWireBytes);
  }
  migration_->edges_copied += copied;
  return Status::Ok();
}

Status Cluster::ReplayBatchForShard(const StreamBatch& batch) {
  if (migration_ == nullptr) {
    return Status::FailedPrecondition("no shard migration in flight");
  }
  if (batch.stream >= streams_.size()) {
    return Status::NotFound("unknown stream id in replayed batch");
  }
  Migration& mig = *migration_;
  if (batch.seq >= mig.begin_next[batch.stream]) {
    // Delivered at or after Begin: dual-apply already mirrored (or will
    // mirror) this batch's shard partition. Replaying it too would duplicate.
    return Status::Ok();
  }
  BatchSeq next = mig.replayed_next[batch.stream];
  if (batch.seq < next) {
    return Status::Ok();  // Checkpoint-log overlap: already replayed.
  }
  if (batch.seq > next) {
    return Status::FailedPrecondition(
        "gap in shard replay: expected batch " + std::to_string(next) +
        " of stream " + std::to_string(batch.stream) + ", got " +
        std::to_string(batch.seq));
  }
  mig.replayed_next[batch.stream] = batch.seq + 1;
  const auto view = shard_map_.View();
  // Same SN the live injection used: folds either extend that snapshot's
  // marker or defer into a newer one (visible once the cutover barrier
  // passes — see TryCommitMigration).
  SnapshotNum sn = coordinator_->PlanSnFor(batch.stream, batch.seq);
  std::vector<AppendSpan> spans;
  std::vector<std::pair<Key, VertexId>> timing;
  uint64_t edges = 0;
  for (const StreamTuple& t : batch.tuples) {
    Key out_key(t.triple.subject, t.triple.predicate, Dir::kOut);
    Key in_key(t.triple.object, t.triple.predicate, Dir::kIn);
    if (view->ShardOfVertex(t.triple.subject) == mig.shard) {
      ++edges;
      if (t.kind == TupleKind::kTiming) {
        timing.emplace_back(out_key, t.triple.object);
      } else {
        stores_raw_[mig.target]->InjectEdgeMigrated(out_key, t.triple.object,
                                                    sn, &spans);
      }
    }
    if (view->ShardOfVertex(t.triple.object) == mig.shard) {
      ++edges;
      if (t.kind == TupleKind::kTiming) {
        timing.emplace_back(in_key, t.triple.subject);
      } else {
        stores_raw_[mig.target]->InjectEdgeMigrated(in_key, t.triple.subject,
                                                    sn, &spans);
      }
    }
  }
  // Fold into the target's existing per-batch structures. Either merge may
  // find the batch already evicted (GC horizon passed it) — then no live
  // window can reach it and skipping is correct.
  if (!spans.empty()) {
    stream_indexes_raw_[batch.stream][mig.target]->MergeBatch(batch.seq, spans);
  }
  if (!timing.empty()) {
    transients_raw_[batch.stream][mig.target]->MergeSlice(batch.seq, timing);
  }
  if (edges > 0) {
    fabric_->Message(mig.source, mig.target, edges * kTupleWireBytes);
  }
  mig.edges_copied += edges;
  Count(Ctr::kBatchesReplayed);
  return Status::Ok();
}

Status Cluster::FinishShardTransfer() {
  if (migration_ == nullptr) {
    return Status::FailedPrecondition("no shard migration in flight");
  }
  migration_->transfer_done = true;
  TryCommitMigration();
  return Status::Ok();
}

Status Cluster::AbortShardMove(const std::string& reason) {
  if (migration_ == nullptr) {
    return Status::FailedPrecondition("no shard migration in flight");
  }
  AbortMigrationInternal(/*taint=*/true, reason);
  return Status::Ok();
}

void Cluster::TryCommitMigration() {
  if (migration_ == nullptr || !migration_->transfer_done) {
    return;
  }
  const NodeId target = migration_->target;
  // The target must be able to serve the shard the instant the epoch bumps,
  // and must hold every batch (no parked partitions).
  if (!fabric_->node_up(target) || !fabric_->node_serving(target) ||
      !backlog_[target].empty()) {
    return;
  }
  // Visibility barrier: replayed history and dual-applied batches may have
  // folded into markers as new as the newest delivered batch's plan SN.
  // Cut over only once Stable_SN covers that SN, so any post-commit read
  // (always at <= Stable_SN... the markers are <= its own snapshot) sees
  // every fold. Until then old-epoch reads keep hitting the source copy.
  const SnapshotNum stable_sn = coordinator_->StableSn();
  for (StreamId s = 0; s < static_cast<StreamId>(streams_.size()); ++s) {
    if (delivered_next_[s] == 0) {
      continue;
    }
    if (coordinator_->PlanSnFor(s, delivered_next_[s] - 1) > stable_sn) {
      return;
    }
  }
  Status st = shard_map_.CommitMove(migration_->shard, target);
  assert(st.ok());
  (void)st;
  Count(Ctr::kMovesCommitted);
  Count(Ctr::kEdgesCopied, migration_->edges_copied);
  if (tracer_ != nullptr) {
    tracer_->Instant("reconfig", "reconfig/commit", target);
  }
  migration_.reset();
  BumpMqoGeneration();
}

void Cluster::AbortMigrationInternal(bool taint, const std::string& reason) {
  if (migration_ == nullptr) {
    return;
  }
  if (taint) {
    migration_taints_.insert({migration_->shard, migration_->target});
  }
  Count(Ctr::kMovesAborted);
  if (tracer_ != nullptr) {
    tracer_->Instant("reconfig", "reconfig/abort", migration_->source);
  }
  (void)reason;  // Carried for tests/tracing symmetry; rollback is silent.
  // Rollback is just forgetting: the epoch never moved, ownership filtering
  // keeps the partial target copy invisible, and the source still owns (and
  // has been serving) the shard throughout.
  migration_.reset();
  BumpMqoGeneration();
}

void Cluster::AbortMigrationFor(NodeId node) {
  if (migration_ == nullptr ||
      (node != migration_->source && node != migration_->target)) {
    return;
  }
  // A crashed *target* resets its stores, so no stale partial copy survives
  // to taint the pair; a crashed *source* strands the partial copy on the
  // still-live target.
  AbortMigrationInternal(/*taint=*/node == migration_->source,
                         "migration endpoint crashed");
}

StatusOr<NodeId> Cluster::AddNode() {
  if (migration_ != nullptr) {
    return Status::FailedPrecondition(
        "cannot grow the cluster while a shard migration is in flight");
  }
  int fabric_id = fabric_->AddNode();
  if (fabric_id < 0) {
    return Status::ResourceExhausted("fabric node capacity exhausted");
  }
  // Seed the newcomer's Local_VTS at the delivered frontier: it has missed
  // nothing it is responsible for (it owns no shards yet), Stable_VTS must
  // not regress, and its next in-order report is delivered_next_[s].
  VectorTimestamp seed(streams_.size());
  for (StreamId s = 0; s < static_cast<StreamId>(streams_.size()); ++s) {
    if (delivered_next_[s] > 0) {
      seed.Set(s, delivered_next_[s] - 1);
    }
  }
  NodeId id = coordinator_->AddNode(seed);
  assert(id == static_cast<NodeId>(fabric_id));
  (void)fabric_id;
  stores_.push_back(std::make_unique<GStore>(id));
  stores_raw_.push_back(stores_.back().get());
  for (size_t s = 0; s < streams_.size(); ++s) {
    stream_indexes_[s].push_back(std::make_unique<StreamIndex>());
    stream_indexes_raw_[s].push_back(stream_indexes_[s].back().get());
    transients_[s].push_back(
        std::make_unique<TransientStore>(config_.transient_budget_bytes));
    transients_raw_[s].push_back(transients_[s].back().get());
    WireEvictionListeners(static_cast<StreamId>(s), id);
  }
  backlog_.emplace_back();
  shard_map_.AddNode();
  config_.nodes = static_cast<uint32_t>(stores_.size());
  if (health_ != nullptr) {
    // The detector's membership is fixed at construction: rebuild it over the
    // grown cluster. Heartbeat history is lost (acceptable — suspicion
    // re-accumulates within a few intervals); reset every node's arrival
    // clock so the rebuild itself does not read as a missed heartbeat.
    health_ =
        std::make_unique<FailureDetector>(config_.nodes, config_.overload.phi);
    for (NodeId n = 0; n < config_.nodes; ++n) {
      health_->Reset(n, last_health_ms_);
    }
  }
  if (straggler_ != nullptr) {
    // Same fixed-membership rebuild; EWMA history re-accumulates from the
    // health ticks' probe samples within a few intervals.
    straggler_ =
        std::make_unique<StragglerDetector>(config_.nodes, config_.straggler);
  }
  {
    std::lock_guard lock(service_mu_);
    service_hist_.resize(config_.nodes);
    service_hist_metrics_.push_back(metrics_->GetHistogram(
        obs::MetricsRegistry::Labeled("wukongs_node_service_latency_ns",
                                      {{"node", std::to_string(id)}})));
  }
  Count(Ctr::kNodesAdded);
  if (tracer_ != nullptr) {
    tracer_->Instant("reconfig", "reconfig/add_node", id);
  }
  BumpMqoGeneration();
  return id;
}

Status Cluster::BeginDrain(NodeId node) {
  if (node >= config_.nodes) {
    return Status::NotFound("unknown node id");
  }
  if (draining_.count(node) > 0) {
    return Status::AlreadyExists("node " + std::to_string(node) +
                                 " is already draining");
  }
  if (!fabric_->node_up(node)) {
    return Status::FailedPrecondition("node is down; restore it or leave it");
  }
  NodeId fallback = node;
  for (NodeId n = 0; n < config_.nodes; ++n) {
    if (n != node && fabric_->node_serving(n) && draining_.count(n) == 0) {
      fallback = n;
      break;
    }
  }
  if (fallback == node) {
    return Status::FailedPrecondition(
        "no serving non-draining node to take over from " +
        std::to_string(node));
  }
  draining_.insert(node);
  // Shed coordinator duties immediately: ingest (Adaptor+Dispatcher) and
  // registered continuous queries re-home to the fallback. The node keeps
  // serving reads for shards it still owns until MoveShard empties it.
  for (StreamState& state : streams_) {
    if (state.ingest_node == node) {
      state.ingest_node = fallback;
    }
  }
  RehomeRegistrations(node, fallback);
  Count(Ctr::kDrainsStarted);
  if (tracer_ != nullptr) {
    tracer_->Instant("reconfig", "reconfig/drain", node);
  }
  return Status::Ok();
}

void Cluster::RehomeRegistrations(NodeId from, NodeId to) {
  for (Registration& reg : registrations_) {
    if (reg.home != from) {
      continue;
    }
    reg.home = to;
    // Locality-aware index replication follows the query to its new home.
    for (StreamId sid : reg.stream_ids) {
      streams_[sid].subscribers.insert(to);
    }
    Count(Ctr::kRehomedRegistrations);
  }
  // Template-group probes are registrations too (just not user-visible):
  // the shared evaluation must leave a draining node with its members.
  std::lock_guard lock(mqo_mu_);
  for (auto& g : groups_) {
    if (g->live && g->probe.home == from) {
      g->probe.home = to;
      for (StreamId sid : g->probe.stream_ids) {
        streams_[sid].subscribers.insert(to);
      }
    }
  }
  BumpMqoGeneration();
}

void Cluster::UpdateScrapedMetrics() {
  obs::MetricsRegistry* m = config_.metrics;
  if (m == nullptr) {
    return;
  }
  // Frontier of a VTS entry as "batches completed" so kNoBatch (nothing
  // injected yet) compares as 0 against batch seqs, which start at 0.
  auto frontier = [](BatchSeq b) -> uint64_t {
    return b == kNoBatch ? 0 : static_cast<uint64_t>(b) + 1;
  };
  VectorTimestamp stable = coordinator_->StableVts();
  std::vector<VectorTimestamp> locals;
  locals.reserve(config_.nodes);
  for (NodeId n = 0; n < config_.nodes; ++n) {
    locals.push_back(coordinator_->LocalVts(n));
  }
  const StreamStatsSnapshot rates = config_.replan.enabled
                                        ? stream_stats_.Snapshot()
                                        : StreamStatsSnapshot{};
  for (StreamId s = 0; s < static_cast<StreamId>(streams_.size()); ++s) {
    const std::string& name = streams_[s].name;
    uint64_t lead = frontier(stable.Get(s));
    for (NodeId n = 0; n < config_.nodes; ++n) {
      lead = std::max(lead, frontier(locals[n].Get(s)));
    }
    m->GetGauge(obs::MetricsRegistry::Labeled("wukongs_vts_lag_batches",
                                              {{"stream", name}}))
        ->Set(static_cast<double>(lead - frontier(stable.Get(s))));
    m->GetGauge(obs::MetricsRegistry::Labeled("wukongs_door_pending_batches",
                                              {{"stream", name}}))
        ->Set(static_cast<double>(PendingBatches(s)));
    m->GetGauge(obs::MetricsRegistry::Labeled("wukongs_door_pressure",
                                              {{"stream", name}}))
        ->Set(streams_[s].pressure.level());
    if (config_.replan.enabled) {
      m->GetGauge(obs::MetricsRegistry::Labeled(
                      "wukongs_stream_rate_tuples_per_sec", {{"stream", name}}))
          ->Set(rates.RateOf(s));
    }
    // Stream-index lookups and transient GC reclaim, summed across nodes.
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t gc_slices = 0;
    uint64_t gc_bytes = 0;
    for (NodeId n = 0; n < config_.nodes; ++n) {
      StreamIndex::LookupStats ls = stream_indexes_raw_[s][n]->lookup_stats();
      hits += ls.hits;
      misses += ls.misses;
      TransientStore::GcStats gs = transients_raw_[s][n]->gc_stats();
      gc_slices += gs.slices_reclaimed;
      gc_bytes += gs.bytes_reclaimed;
    }
    m->GetCounter(obs::MetricsRegistry::Labeled(
                      "wukongs_stream_index_lookups_total",
                      {{"stream", name}, {"result", "hit"}}))
        ->Set(hits);
    m->GetCounter(obs::MetricsRegistry::Labeled(
                      "wukongs_stream_index_lookups_total",
                      {{"stream", name}, {"result", "miss"}}))
        ->Set(misses);
    m->GetCounter(obs::MetricsRegistry::Labeled(
                      "wukongs_transient_gc_slices_reclaimed_total",
                      {{"stream", name}}))
        ->Set(gc_slices);
    m->GetCounter(obs::MetricsRegistry::Labeled(
                      "wukongs_transient_gc_bytes_reclaimed_total",
                      {{"stream", name}}))
        ->Set(gc_bytes);
  }
  if (health_ != nullptr) {
    for (NodeId n = 0; n < config_.nodes; ++n) {
      m->GetGauge(obs::MetricsRegistry::Labeled(
                      "wukongs_phi_suspicion", {{"node", std::to_string(n)}}))
          ->Set(health_->Phi(n, last_health_ms_));
    }
  }
  m->GetGauge("wukongs_stable_sn")
      ->Set(static_cast<double>(coordinator_->StableSn()));
  m->GetCounter("wukongs_plan_extensions_total")
      ->Set(coordinator_->plan_extensions());
  MemoryReport mem = Memory();
  m->GetGauge("wukongs_memory_store_bytes")
      ->Set(static_cast<double>(mem.store_bytes));
  m->GetGauge("wukongs_memory_snapshot_meta_bytes")
      ->Set(static_cast<double>(mem.snapshot_meta_bytes));
  m->GetGauge("wukongs_memory_stream_index_bytes")
      ->Set(static_cast<double>(mem.stream_index_bytes));
  m->GetGauge("wukongs_memory_transient_bytes")
      ->Set(static_cast<double>(mem.transient_bytes));
  // Snapshot-maintenance work: keys the collapse passes visited (§5.1).
  uint64_t collapse_keys = 0;
  for (const auto& store : stores_) {
    collapse_keys += store->CollapseKeysVisited();
  }
  m->GetCounter("wukongs_store_collapse_keys_total")->Set(collapse_keys);
  FabricStats fs = fabric_->stats();
  m->GetCounter("wukongs_fabric_one_sided_reads_total")->Set(fs.one_sided_reads);
  m->GetCounter("wukongs_fabric_one_sided_read_bytes_total")
      ->Set(fs.one_sided_read_bytes);
  m->GetCounter("wukongs_fabric_messages_total")->Set(fs.messages);
  m->GetCounter("wukongs_fabric_message_bytes_total")->Set(fs.message_bytes);
  m->GetCounter("wukongs_fabric_failed_reads_total")->Set(fs.failed_reads);
  m->GetCounter("wukongs_fabric_failed_messages_total")->Set(fs.failed_messages);
  m->GetCounter("wukongs_fabric_deadline_cancelled_total")
      ->Set(fs.deadline_cancelled);
  if (straggler_ != nullptr) {
    m->GetGauge("wukongs_straggler_slow_nodes")
        ->Set(static_cast<double>(straggler_->slow_count()));
    for (NodeId n = 0; n < config_.nodes; ++n) {
      m->GetGauge(obs::MetricsRegistry::Labeled(
                      "wukongs_straggler_ewma_ns",
                      {{"node", std::to_string(n)}}))
          ->Set(straggler_->ewma_ns(n));
    }
  }
  if (config_.hedge.enabled) {
    m->GetGauge("wukongs_hedge_delay_ns")->Set(HedgeDelayNs());
  }
  m->GetGauge("wukongs_nodes_up")->Set(static_cast<double>(UpNodeCount()));
  m->GetGauge("wukongs_nodes_serving")
      ->Set(static_cast<double>(ServingNodeCount()));
  m->GetGauge("wukongs_reconfig_epoch")
      ->Set(static_cast<double>(shard_map_.epoch()));
  m->GetGauge("wukongs_reconfig_migration_active")
      ->Set(migration_ != nullptr ? 1.0 : 0.0);
  m->GetGauge("wukongs_reconfig_draining_nodes")
      ->Set(static_cast<double>(draining_.size()));
  // Template-group residency (§5.12); the shared-eval/fan-out counters are
  // bumped at their event sites.
  size_t mqo_groups = 0;
  size_t mqo_members = 0;
  {
    std::lock_guard lock(mqo_mu_);
    for (const auto& g : groups_) {
      if (!g->live) {
        continue;
      }
      ++mqo_groups;
      std::lock_guard glock(g->mu);
      mqo_members += g->members.size();
    }
  }
  m->GetGauge("wukongs_mqo_groups")->Set(static_cast<double>(mqo_groups));
  m->GetGauge("wukongs_mqo_grouped_members")
      ->Set(static_cast<double>(mqo_members));
}

std::string Cluster::DumpMetrics(const std::string& name_filter) {
  if (config_.metrics == nullptr) {
    return {};
  }
  UpdateScrapedMetrics();
  return config_.metrics->TextDump(name_filter);
}

}  // namespace wukongs
