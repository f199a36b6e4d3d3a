// Deterministic differential test harness (DESIGN.md §5.7).
//
// Every seed expands into an explicit event trace — feeds, clock advances,
// registrations, executions, maintenance passes — which one RunTrace() call
// replays against the production Cluster while a ReferenceOracle (naive flat
// interpreter sharing only the parser/AST) evaluates the same queries over
// the same visibility frontier. A SnapshotChecker audits the engine's
// consistency claims independently of result content. Failures are therefore
// a (config, trace) pair: greedy minimization shrinks the trace while it
// still fails, and replays are byte-identical.
//
// Planted mutations (src/common/test_hooks.h) prove the harness has teeth: an
// off-by-one window boundary and a stale Stable_SN read must both be detected
// within a handful of seeds, and so must the two columnar defects
// (uncompacted selection vector, recycled arena) on the in-place lane.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/maintenance_daemon.h"
#include "src/cluster/reconfig.h"
#include "src/cluster/worker_pool.h"
#include "src/common/test_hooks.h"
#include "src/fault/recovery_manager.h"
#include "src/sparql/parser.h"
#include "src/stream/checkpoint.h"
#include "src/testkit/query_gen.h"
#include "src/testkit/reference_oracle.h"
#include "src/testkit/schedule_controller.h"
#include "src/testkit/snapshot_checker.h"

namespace wukongs::testkit {
namespace {

constexpr uint64_t kInterval = 100;  // Batch interval (ms) for all lanes.
// Maintenance never GC's the most recent 1.2s of stream history, so live
// windows (range <= 400ms) and generated absolute windows stay intact.
constexpr StreamTime kGcLagMs = 1200;

struct TupleDesc {
  std::string s, p, o;
  StreamTime ts = 0;
};

struct Event {
  enum class Kind { kFeed, kAdvance, kRegister, kContinuousExec, kOneShot, kMaintenance };
  Kind kind = Kind::kAdvance;
  size_t stream = 0;             // kFeed.
  std::vector<TupleDesc> tuples; // kFeed.
  StreamTime time_ms = 0;        // kAdvance / kContinuousExec end / kMaintenance.
  size_t handle = 0;             // kContinuousExec: index among kRegister events.
  std::string text;              // kRegister / kOneShot.
};

struct RunConfig {
  uint64_t seed = 0;
  uint32_t nodes = 1;
  uint64_t batches_per_sn = 1;
  bool fuzz_schedule = true;
  // Migration lane (§5.10): drive live reconfiguration (staged shard moves
  // with real dual-apply, node adds, drains, target crashes with rollback)
  // from the advance path while the differential contract keeps holding.
  bool migrate = false;
  // In-place lane (§5.13): pin in-place execution. The generated continuous
  // queries are mostly non-selective, and non-selective triggers take
  // fork-join, which bypasses the delta path entirely; pinning in-place
  // routes them through delta execution, where cached columnar contributions
  // (and the stale_arena_reuse defect class) live.
  bool in_place = false;
  // Adaptive lane (§5.14): the primary runs with cost-based re-planning
  // enabled while a statically-planned twin replays the same events. Plans
  // may differ after a parity-gated cutover — row enumeration order with
  // them — so the twin contract is bag equality, not byte identity. The
  // trace carries a deterministic mid-run rate step (MakeAdaptiveTrace) so
  // drift genuinely fires. Composable with `migrate` (the twin is
  // ownership-agnostic and never migrates).
  bool adaptive = false;
  // Adaptive lane: accumulates the primary's replan counters across seeds so
  // the test can prove the machinery was exercised, not just survived.
  Cluster::ReplanStats* replan_out = nullptr;
};

RunConfig ConfigForSeed(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  RunConfig cfg;
  cfg.seed = seed;
  cfg.nodes = static_cast<uint32_t>(1 + rng.Uniform(0, 2));
  cfg.batches_per_sn = 1 + rng.Uniform(0, 1);
  return cfg;
}

GenVocab MakeVocab() {
  GenVocab v;
  for (int i = 0; i < 8; ++i) {
    v.entities.push_back("e" + std::to_string(i));
  }
  for (int i = 0; i <= 12; ++i) {
    v.values.push_back(std::to_string(i));
  }
  v.edge_predicates = {"p0", "p1", "fo"};
  v.value_predicates = {"q0", "tg"};  // tg is declared timing (window-only).
  v.streams = {"S0", "S1"};
  return v;
}

std::vector<Triple> MakeBase(uint64_t seed, StringServer* s, const GenVocab& v) {
  Rng rng(seed ^ 0xbadc0ffeull);
  auto ent = [&] { return s->InternVertex(v.entities[rng.Uniform(0, v.entities.size() - 1)]); };
  std::vector<Triple> base;
  for (int i = 0; i < 24; ++i) {
    base.push_back({ent(),
                    s->InternPredicate(
                        v.edge_predicates[rng.Uniform(0, v.edge_predicates.size() - 1)]),
                    ent()});
  }
  for (int i = 0; i < 12; ++i) {
    base.push_back({ent(), s->InternPredicate("q0"),
                    s->InternVertex(v.values[rng.Uniform(0, v.values.size() - 1)])});
  }
  return base;
}

// Expands a seed into the full event trace. Pure function of the seed: two
// calls with the same seed produce byte-identical traces.
std::vector<Event> MakeTrace(uint64_t seed) {
  Rng rng(seed);
  GenVocab vocab = MakeVocab();
  QueryGenerator gen(vocab, kInterval);
  // Scratch interner: generation only needs window STEPs out of the parse.
  StringServer scratch;

  std::vector<Event> trace;
  std::vector<uint64_t> exec_align;  // Per registration: lcm of window steps.
  const size_t nregs = rng.Uniform(1, 2);
  for (size_t i = 0; i < nregs; ++i) {
    std::string text = gen.Continuous(&rng, "q" + std::to_string(i));
    auto q = ParseQuery(text, &scratch);
    if (!q.ok()) {
      continue;  // Defensive; the generator is supposed to emit valid text.
    }
    uint64_t align = 1;
    for (const WindowSpec& w : q->windows) {
      align = std::lcm(align, w.step_ms);
    }
    Event e;
    e.kind = Event::Kind::kRegister;
    e.text = std::move(text);
    trace.push_back(std::move(e));
    exec_align.push_back(align);
  }

  const size_t rounds = 8 + rng.Uniform(0, 6);
  StreamTime now = 0;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t s = 0; s < vocab.streams.size(); ++s) {
      const size_t n = rng.Uniform(0, 3);
      if (n == 0) {
        continue;
      }
      Event e;
      e.kind = Event::Kind::kFeed;
      e.stream = s;
      for (size_t i = 0; i < n; ++i) {
        TupleDesc t;
        t.s = vocab.entities[rng.Uniform(0, vocab.entities.size() - 1)];
        const uint64_t kind = rng.Uniform(0, 3);
        if (kind == 0) {
          t.p = "q0";
          t.o = vocab.values[rng.Uniform(0, vocab.values.size() - 1)];
        } else if (kind == 1) {
          t.p = "tg";  // Timing: transient-only, visible in windows.
          t.o = vocab.values[rng.Uniform(0, vocab.values.size() - 1)];
        } else {
          t.p = vocab.edge_predicates[rng.Uniform(0, vocab.edge_predicates.size() - 1)];
          t.o = vocab.entities[rng.Uniform(0, vocab.entities.size() - 1)];
        }
        t.ts = now + rng.Uniform(0, kInterval - 1);
        e.tuples.push_back(std::move(t));
      }
      std::sort(e.tuples.begin(), e.tuples.end(),
                [](const TupleDesc& a, const TupleDesc& b) { return a.ts < b.ts; });
      trace.push_back(std::move(e));
    }
    now = (r + 1) * kInterval;
    trace.push_back({Event::Kind::kAdvance, 0, {}, now, 0, ""});
    if (rng.Bernoulli(0.15)) {
      trace.push_back({Event::Kind::kMaintenance, 0, {}, now, 0, ""});
    }
    for (size_t h = 0; h < exec_align.size(); ++h) {
      const StreamTime end = now - now % exec_align[h];
      if (end > 0) {
        trace.push_back({Event::Kind::kContinuousExec, 0, {}, end, h, ""});
      }
    }
    if (rng.Bernoulli(0.5)) {
      const StreamTime min_ms = now > kGcLagMs ? now - kGcLagMs : 0;
      Event e;
      e.kind = Event::Kind::kOneShot;
      e.text = gen.OneShot(&rng, min_ms, now);
      trace.push_back(std::move(e));
    }
  }
  return trace;
}

// Deterministic mid-run rate step for the adaptive lane (§5.14): every feed
// in the second half of the trace carries 4 extra tuples per original one, a
// ~5x per-stream ingest-rate step — far past the drift factor — while staying
// a pure function of the seed. Built on top of MakeTrace so every other
// lane's trace remains byte-identical to what it replayed before this lane
// existed.
std::vector<Event> MakeAdaptiveTrace(uint64_t seed) {
  std::vector<Event> trace = MakeTrace(seed);
  size_t rounds = 0;
  for (const Event& e : trace) {
    rounds += e.kind == Event::Kind::kAdvance ? 1 : 0;
  }
  Rng rng(seed ^ 0xada9717e57e9ull);
  GenVocab vocab = MakeVocab();
  size_t round = 0;
  for (Event& e : trace) {
    if (e.kind == Event::Kind::kAdvance) {
      ++round;
      continue;
    }
    if (e.kind != Event::Kind::kFeed || round < rounds / 2 ||
        e.tuples.empty()) {
      continue;
    }
    std::vector<TupleDesc> extra;
    for (int copy = 0; copy < 4; ++copy) {
      for (const TupleDesc& orig : e.tuples) {
        TupleDesc t;
        t.s = vocab.entities[rng.Uniform(0, vocab.entities.size() - 1)];
        const uint64_t kind = rng.Uniform(0, 3);
        if (kind == 0) {
          t.p = "q0";
          t.o = vocab.values[rng.Uniform(0, vocab.values.size() - 1)];
        } else if (kind == 1) {
          t.p = "tg";
          t.o = vocab.values[rng.Uniform(0, vocab.values.size() - 1)];
        } else {
          t.p = vocab.edge_predicates[rng.Uniform(0, vocab.edge_predicates.size() - 1)];
          t.o = vocab.entities[rng.Uniform(0, vocab.entities.size() - 1)];
        }
        t.ts = orig.ts;  // Stay inside the original tuple's batch slice.
        extra.push_back(std::move(t));
      }
    }
    e.tuples.insert(e.tuples.end(), extra.begin(), extra.end());
    std::sort(e.tuples.begin(), e.tuples.end(),
              [](const TupleDesc& a, const TupleDesc& b) { return a.ts < b.ts; });
  }
  return trace;
}

std::string SerializeTrace(const std::vector<Event>& trace) {
  std::string out;
  for (const Event& e : trace) {
    switch (e.kind) {
      case Event::Kind::kFeed:
        out += "feed " + std::to_string(e.stream);
        for (const TupleDesc& t : e.tuples) {
          out += " [" + t.s + " " + t.p + " " + t.o + " @" + std::to_string(t.ts) + "]";
        }
        out += "\n";
        break;
      case Event::Kind::kAdvance:
        out += "advance " + std::to_string(e.time_ms) + "\n";
        break;
      case Event::Kind::kMaintenance:
        out += "maintenance " + std::to_string(e.time_ms) + "\n";
        break;
      case Event::Kind::kRegister:
        out += "register " + e.text + "\n";
        break;
      case Event::Kind::kContinuousExec:
        out += "exec " + std::to_string(e.handle) + " @" + std::to_string(e.time_ms) + "\n";
        break;
      case Event::Kind::kOneShot:
        out += "oneshot " + e.text + "\n";
        break;
    }
  }
  return out;
}

// Replays one trace against a fresh cluster + oracle pair. Ok() means every
// execution matched the oracle, every consistency audit passed, and the
// metrics registry's live-site counters agree with the harness's own
// accounting (the observability layer is cross-checked on every seed, so
// counter drift fails the lane like any other defect).
Status RunTrace(const RunConfig& cfg, const std::vector<Event>& trace) {
  GenVocab vocab = MakeVocab();
  ClusterConfig config;
  config.nodes = cfg.nodes;
  config.batch_interval_ms = kInterval;
  config.batches_per_sn = cfg.batches_per_sn;
  config.force_in_place = cfg.in_place;
  if (cfg.adaptive) {
    // Same knobs the planner lane uses: check every trigger, judge rates over
    // a window short enough that the trace's mid-run step is visible before
    // the trace ends.
    config.replan.enabled = true;
    config.replan.drift_factor = 2.0;
    config.replan.min_triggers_between = 1;
    config.replan.rate_window_ms = 500;
  }
  ScheduleController schedule(cfg.seed);
  if (cfg.fuzz_schedule) {
    config.schedule = &schedule;
  }
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Cluster cluster(config);
  StringServer* strings = cluster.strings();

  std::vector<StreamId> sids;
  ReferenceOracle oracle(strings, kInterval, cfg.batches_per_sn);
  for (const std::string& name : vocab.streams) {
    auto sid = cluster.DefineStream(name, {"tg"});
    if (!sid.ok()) {
      return sid.status();
    }
    sids.push_back(*sid);
    oracle.DefineStream(name);
  }
  // Migration lane: every delivered batch also lands in a checkpoint log so
  // live shard moves (and warm restores after a planted target crash) can
  // replay history exactly as production reconfiguration does.
  std::string mig_log_path;
  std::optional<CheckpointLog> mig_log;
  bool mig_log_failed = false;
  if (cfg.migrate) {
    mig_log_path = (std::filesystem::temp_directory_path() /
                    ("wukongs_diff_mig_" + std::to_string(::getpid()) + "_" +
                     std::to_string(cfg.seed) + ".log"))
                       .string();
    std::filesystem::remove(mig_log_path);
    auto log = CheckpointLog::Create(mig_log_path);
    if (!log.ok()) {
      return log.status();
    }
    mig_log.emplace(std::move(*log));
  }
  // The logger is the oracle's feed *and* the harness's independent ingest
  // count: every batch the engine injects must show up in the registry too.
  uint64_t logged_batches = 0;
  uint64_t logged_tuples = 0;
  cluster.SetBatchLogger([&](const StreamBatch& b) {
    ++logged_batches;
    logged_tuples += b.tuples.size();
    oracle.AddBatch(b.stream, b.seq, b.tuples);
    if (mig_log && !mig_log->Append(b).ok()) {
      mig_log_failed = true;
    }
  });
  std::vector<Triple> base = MakeBase(cfg.seed, strings, vocab);
  cluster.LoadBase(base);
  oracle.LoadBase(base);
  SnapshotChecker checker(cfg.batches_per_sn);

  // Adaptive twin (§5.14): a second cluster, identical except that
  // re-planning stays off — it keeps each registration's first plan for the
  // whole trace, the oracle for "cutovers must not change what is delivered".
  // Both clusters intern the same names in the same order (streams, base,
  // then trace order), so vertex ids line up across them.
  std::unique_ptr<ScheduleController> twin_sched;
  std::unique_ptr<Cluster> twin;
  std::vector<StreamId> twin_sids;
  std::vector<Cluster::ContinuousHandle> twin_handles;
  if (cfg.adaptive) {
    ClusterConfig twin_config;
    twin_config.nodes = cfg.nodes;
    twin_config.batch_interval_ms = kInterval;
    twin_config.batches_per_sn = cfg.batches_per_sn;
    if (cfg.fuzz_schedule) {
      twin_sched = std::make_unique<ScheduleController>(cfg.seed);
      twin_config.schedule = twin_sched.get();
    }
    twin = std::make_unique<Cluster>(twin_config);
    for (const std::string& name : vocab.streams) {
      auto sid = twin->DefineStream(name, {"tg"});
      if (!sid.ok()) {
        return sid.status();
      }
      twin_sids.push_back(*sid);
    }
    twin->LoadBase(MakeBase(cfg.seed, twin->strings(), vocab));
  }

  // The primary may serve a different (parity-gated) plan than the twin, so
  // the contract is bag equality, and a status split is legal only in the
  // one plan-order-sensitive case the oracle comparison also tolerates: the
  // early-exit empty-join rejection (kInvalidArgument) on one side against an
  // *empty* result on the other. An empty join under one order is empty
  // under every order, so a non-empty result opposite a rejection is a real
  // divergence.
  auto twin_check = [&](const StatusOr<QueryExecution>& primary,
                        const StatusOr<QueryExecution>& other,
                        const std::string& what) -> Status {
    if (primary.ok() != other.ok()) {
      const StatusOr<QueryExecution>& bad = primary.ok() ? other : primary;
      const StatusOr<QueryExecution>& good = primary.ok() ? primary : other;
      if (bad.status().code() == StatusCode::kInvalidArgument &&
          good->result.rows.empty()) {
        return Status::Ok();
      }
      return Status::Internal(
          what + ": twin status divergence: primary " +
          (primary.ok() ? "ok" : primary.status().ToString()) + " vs twin " +
          (other.ok() ? "ok" : other.status().ToString()));
    }
    if (!primary.ok()) {
      if (primary.status().code() != other.status().code()) {
        return Status::Internal(what + ": twin failure codes differ: " +
                                primary.status().ToString() + " vs " +
                                other.status().ToString());
      }
      return Status::Ok();
    }
    if (CanonicalBag(primary->result) != CanonicalBag(other->result)) {
      return Status::Internal(
          what + ": twin result divergence: primary " +
          std::to_string(primary->result.rows.size()) + " rows vs twin " +
          std::to_string(other->result.rows.size()));
    }
    return Status::Ok();
  };

  struct Reg {
    Cluster::ContinuousHandle handle = 0;
    Query q;
    std::vector<StreamId> stream_ids;
    StreamTime last_end = 0;
  };
  std::vector<Reg> regs;
  StreamTime frontier = 0;
  const size_t nstreams = vocab.streams.size();
  uint64_t ok_oneshots = 0;    // Successful OneShotParsed calls.
  uint64_t ok_continuous = 0;  // Successful (audited) ExecuteContinuousAt.

  auto compare = [&](const Query& q, const QueryExecution& exec, SnapshotNum sn,
                     const VectorTimestamp& stable, StreamTime end,
                     const std::string& what) -> Status {
    auto want = oracle.Evaluate(q, sn, stable, end);
    if (!want.ok()) {
      return Status::Internal(what + ": oracle failed: " + want.status().ToString());
    }
    std::vector<std::string> got = CanonicalBag(exec.result);
    std::vector<std::string> expect = CanonicalBag(*want);
    if (got != expect) {
      std::string msg = what + ": engine/oracle mismatch: engine " +
                        std::to_string(got.size()) + " rows vs oracle " +
                        std::to_string(expect.size());
      for (size_t i = 0; i < std::max(got.size(), expect.size()) && i < 6; ++i) {
        msg += "\n  engine=" + (i < got.size() ? got[i] : std::string("<none>")) +
               " oracle=" + (i < expect.size() ? expect[i] : std::string("<none>"));
      }
      return Status::Internal(msg);
    }
    return Status::Ok();
  };

  // Migration driver (§5.10). A plan of live reconfiguration actions runs
  // from the advance path: a "staged" move begins (Begin + base copy) on one
  // advance and finishes (history replay + Finish) on the next, so dual-apply
  // mirrors real deliveries in between; some staged moves instead crash the
  // target mid-transfer and must roll back without an epoch bump. WindowDedup
  // records every delivered window so the post-cutover audit can prove zero
  // lost, duplicated, or diverged results.
  WindowDedup dedup;
  Rng mig_rng(cfg.seed ^ 0x5eedd1ce5eedd1ceull);
  std::vector<int> mig_plan;  // 0 = staged move, 1 = add-node, 2 = drain.
  if (cfg.migrate) {
    mig_plan.push_back(0);  // Always at least one live move per seed.
    if (mig_rng.Bernoulli(0.7)) {
      mig_plan.push_back(static_cast<int>(mig_rng.Uniform(0, 2)));
    }
  }
  bool staged_active = false;
  bool staged_crash = false;  // Crash the target instead of finishing.
  NodeId staged_target = 0;
  uint64_t rechecked_epoch = cluster.OwnershipEpoch();
  StreamTime gc_floor = 0;  // Highest maintenance horizon passed so far.

  auto pick_target = [&](NodeId source) -> int {
    std::vector<NodeId> cands;
    for (NodeId n = 0; n < cluster.node_count(); ++n) {
      if (n != source && cluster.NodeUp(n) && cluster.NodeServing(n) &&
          !cluster.IsDraining(n)) {
        cands.push_back(n);
      }
    }
    if (cands.empty()) {
      return -1;
    }
    return static_cast<int>(cands[mig_rng.Uniform(0, cands.size() - 1)]);
  };

  auto sync_log = [&]() -> Status {
    return mig_log ? mig_log->Sync() : Status::Ok();
  };

  auto start_staged = [&]() -> Status {
    uint32_t shard =
        static_cast<uint32_t>(mig_rng.Uniform(0, cluster.ShardCount() - 1));
    NodeId source = cluster.ShardOwner(shard);
    int target = pick_target(source);
    if (target < 0) {
      return Status::Ok();  // No eligible target this round; retry later.
    }
    Status st = cluster.BeginShardMove(shard, static_cast<NodeId>(target));
    if (!st.ok()) {
      return Status::Internal("BeginShardMove failed: " + st.ToString());
    }
    st = cluster.LoadBaseForShard(base);
    if (!st.ok()) {
      return Status::Internal("LoadBaseForShard failed: " + st.ToString());
    }
    staged_active = true;
    staged_target = static_cast<NodeId>(target);
    staged_crash = mig_rng.Bernoulli(0.3);
    mig_plan.erase(mig_plan.begin());
    return Status::Ok();
  };

  auto finish_staged = [&]() -> Status {
    staged_active = false;
    if (staged_crash) {
      // Planted fault: the target dies mid-transfer. The move must roll back
      // without bumping the epoch; an immediate warm restore readmits the
      // node before the next event can execute a window against it.
      const uint64_t epoch_before = cluster.OwnershipEpoch();
      Status st = cluster.CrashNode(staged_target);
      if (!st.ok()) {
        return Status::Internal("CrashNode(target) failed: " + st.ToString());
      }
      if (cluster.MigrationPending()) {
        return Status::Internal("target crash left the migration pending");
      }
      if (cluster.OwnershipEpoch() != epoch_before) {
        return Status::Internal("rollback bumped the ownership epoch");
      }
      Status sync = sync_log();
      if (!sync.ok()) {
        return sync;
      }
      RecoveryManager rm(mig_log_path);
      auto report = rm.RestoreNode(&cluster, staged_target, base);
      if (!report.ok()) {
        return Status::Internal("restore after rollback failed: " +
                                report.status().ToString());
      }
      return Status::Ok();
    }
    Status sync = sync_log();
    if (!sync.ok()) {
      return sync;
    }
    auto history = ReadCheckpointLog(mig_log_path);
    if (!history.ok()) {
      return history.status();
    }
    for (const StreamBatch& b : *history) {
      Status st = cluster.ReplayBatchForShard(b);
      if (!st.ok()) {
        return Status::Internal("shard history replay failed: " + st.ToString());
      }
    }
    Status st = cluster.FinishShardTransfer();
    if (!st.ok()) {
      return Status::Internal("FinishShardTransfer failed: " + st.ToString());
    }
    return Status::Ok();
  };

  auto add_node_action = [&]() -> Status {
    auto added = cluster.AddNode();
    if (!added.ok()) {
      return Status::Internal("AddNode failed: " + added.status().ToString());
    }
    Status sync = sync_log();
    if (!sync.ok()) {
      return sync;
    }
    ReconfigManager mgr(mig_log_path);
    uint32_t shard =
        static_cast<uint32_t>(mig_rng.Uniform(0, cluster.ShardCount() - 1));
    auto report = mgr.MoveShard(&cluster, shard, *added, base);
    if (!report.ok()) {
      return Status::Internal("MoveShard onto the new node failed: " +
                              report.status().ToString());
    }
    mig_plan.erase(mig_plan.begin());
    return Status::Ok();
  };

  auto drain_action = [&]() -> Status {
    NodeId victim =
        static_cast<NodeId>(mig_rng.Uniform(0, cluster.node_count() - 1));
    if (!cluster.NodeUp(victim) || !cluster.NodeServing(victim) ||
        cluster.IsDraining(victim) || pick_target(victim) < 0) {
      return Status::Ok();  // No legal drain this round; retry later.
    }
    Status sync = sync_log();
    if (!sync.ok()) {
      return sync;
    }
    ReconfigManager mgr(mig_log_path);
    auto report = mgr.DrainNode(&cluster, victim, base);
    if (!report.ok()) {
      return Status::Internal("DrainNode failed: " + report.status().ToString());
    }
    mig_plan.erase(mig_plan.begin());
    return Status::Ok();
  };

  // Zero-result-loss audit: after every ownership-epoch bump, re-execute each
  // registration's most recent window under the new assignment. Every
  // re-execution must succeed, match the ownership-agnostic oracle at the
  // current stable frontier (a shard copy that lost or duplicated edges shows
  // up here), and be suppressed by WindowDedup as a duplicate. The digest
  // itself is not required to be byte-stable: non-GRAPH patterns read the
  // persistent store at the *current* stable SN, so a window legitimately
  // grows as later timeless batches become visible.
  auto recheck_after_cutover = [&]() -> Status {
    const uint64_t epoch = cluster.OwnershipEpoch();
    if (!cfg.migrate || epoch == rechecked_epoch) {
      return Status::Ok();
    }
    rechecked_epoch = epoch;
    for (Reg& r : regs) {
      if (r.last_end == 0) {
        continue;
      }
      // A window reaching below the maintenance horizon may have lost slices
      // to GC since it was delivered — skip it: the digest comparison is only
      // meaningful over history that is still fully live.
      bool gc_safe = true;
      for (const WindowSpec& w : r.q.windows) {
        if (r.last_end < gc_floor + w.range_ms + kInterval) {
          gc_safe = false;
        }
      }
      if (!gc_safe) {
        continue;
      }
      VectorTimestamp stable = cluster.coordinator()->StableVts();
      auto exec = cluster.ExecuteContinuousAt(r.handle, r.last_end);
      if (!exec.ok()) {
        if (exec.status().code() == StatusCode::kInvalidArgument) {
          continue;  // Same matched empty-join rejection as pre-cutover.
        }
        return Status::Internal("post-cutover re-execution failed: " +
                                exec.status().ToString());
      }
      ++ok_continuous;  // The registry counts every successful execution.
      const std::string* before = dedup.Find(r.handle, r.last_end);
      if (before == nullptr) {
        continue;  // The pre-cutover trigger was a matched rejection.
      }
      SnapshotNum sn = checker.RecomputeStableSn(stable, nstreams);
      Status cmp = compare(r.q, *exec, sn, stable, r.last_end,
                           "post-cutover (epoch " + std::to_string(epoch) +
                               ") window @" + std::to_string(r.last_end));
      if (!cmp.ok()) {
        return cmp;
      }
      if (dedup.Accept(r.handle, r.last_end, exec->partial,
                       ResultDigest(exec->result))) {
        return Status::Internal(
            "post-cutover duplicate window was not suppressed @" +
            std::to_string(r.last_end));
      }
    }
    return Status::Ok();
  };

  for (const Event& e : trace) {
    switch (e.kind) {
      case Event::Kind::kFeed: {
        StreamTupleVec tuples;
        for (const TupleDesc& t : e.tuples) {
          tuples.push_back({{strings->InternVertex(t.s), strings->InternPredicate(t.p),
                             strings->InternVertex(t.o)},
                            t.ts,
                            TupleKind::kTimeless});
        }
        Status st = cluster.FeedStream(sids[e.stream], tuples);
        if (!st.ok()) {
          return Status::Internal("feed failed: " + st.ToString());
        }
        if (twin) {
          StringServer* ts = twin->strings();
          StreamTupleVec twin_tuples;
          for (const TupleDesc& t : e.tuples) {
            twin_tuples.push_back({{ts->InternVertex(t.s),
                                    ts->InternPredicate(t.p),
                                    ts->InternVertex(t.o)},
                                   t.ts,
                                   TupleKind::kTimeless});
          }
          st = twin->FeedStream(twin_sids[e.stream], twin_tuples);
          if (!st.ok()) {
            return Status::Internal("twin feed failed: " + st.ToString());
          }
        }
        break;
      }
      case Event::Kind::kAdvance: {
        cluster.AdvanceStreams(e.time_ms);
        if (twin) {
          twin->AdvanceStreams(e.time_ms);
        }
        frontier = std::max(frontier, e.time_ms);
        if (cfg.migrate) {
          Status st = Status::Ok();
          if (staged_active) {
            st = finish_staged();
          } else if (!mig_plan.empty() && !cluster.MigrationPending()) {
            switch (mig_plan.front()) {
              case 0: st = start_staged(); break;
              case 1: st = add_node_action(); break;
              default: st = drain_action(); break;
            }
          }
          if (!st.ok()) {
            return st;
          }
        }
        break;
      }
      case Event::Kind::kMaintenance:
        // Clamped against the *replayed* frontier so a minimized trace (with
        // advances removed) can never GC history its windows still need.
        gc_floor = frontier > kGcLagMs ? frontier - kGcLagMs : 0;
        cluster.RunMaintenance(gc_floor);
        if (twin) {
          twin->RunMaintenance(gc_floor);
        }
        break;
      case Event::Kind::kRegister: {
        auto h = cluster.RegisterContinuous(e.text);
        if (!h.ok()) {
          return Status::Internal("register failed: " + h.status().ToString() +
                                  "\n  text: " + e.text);
        }
        if (twin) {
          auto th = twin->RegisterContinuous(e.text);
          if (!th.ok()) {
            return Status::Internal("twin register failed where primary "
                                    "succeeded: " + th.status().ToString());
          }
          twin_handles.push_back(*th);
        }
        Reg r;
        r.handle = *h;
        r.q = cluster.ContinuousQueryOf(*h);
        for (const WindowSpec& w : r.q.windows) {
          auto sid = cluster.FindStream(w.stream_name);
          if (!sid.ok()) {
            return sid.status();
          }
          r.stream_ids.push_back(*sid);
        }
        regs.push_back(std::move(r));
        break;
      }
      case Event::Kind::kOneShot: {
        auto q = ParseQuery(e.text, strings);
        if (!q.ok()) {
          return Status::Internal("generated one-shot did not parse: " +
                                  q.status().ToString() + "\n  text: " + e.text);
        }
        VectorTimestamp stable = cluster.coordinator()->StableVts();
        SnapshotNum presn = checker.RecomputeStableSn(stable, nstreams);
        auto exec = cluster.OneShotParsed(*q);
        if (twin) {
          auto tq = ParseQuery(e.text, twin->strings());
          if (!tq.ok()) {
            return Status::Internal("twin parse failed: " +
                                    tq.status().ToString());
          }
          Status tc = twin_check(exec, twin->OneShotParsed(*tq), "one-shot");
          if (!tc.ok()) {
            return Status::Internal(tc.message() + "\n  text: " + e.text);
          }
        }
        if (!exec.ok()) {
          // The engine exits its pattern loop early on an empty intermediate
          // join and then rejects FILTERs over the still-unbound variables;
          // that is legitimate iff the oracle agrees the join is empty (or
          // rejects the query itself).
          if (exec.status().code() == StatusCode::kInvalidArgument) {
            if (!oracle.Evaluate(*q, presn, stable, 0).ok()) {
              break;
            }
            auto empty = oracle.HasEmptyJoin(*q, presn, stable, 0);
            if (empty.ok() && *empty) {
              break;
            }
          }
          return Status::Internal("one-shot failed: " + exec.status().ToString() +
                                  "\n  text: " + e.text);
        }
        ++ok_oneshots;
        Status audit = checker.CheckOneShot(*exec, stable, nstreams);
        if (!audit.ok()) {
          return audit;
        }
        SnapshotNum sn = checker.RecomputeStableSn(stable, nstreams);
        Status cmp = compare(*q, *exec, sn, stable, 0, "one-shot");
        if (!cmp.ok()) {
          return Status::Internal(cmp.message() + "\n  text: " + e.text);
        }
        break;
      }
      case Event::Kind::kContinuousExec: {
        if (e.handle >= regs.size()) {
          break;  // Its registration was minimized away.
        }
        Reg& r = regs[e.handle];
        const StreamTime end = e.time_ms;
        if (end <= r.last_end) {
          break;
        }
        // Independent readiness model: AdvanceStreams(frontier) delivered
        // batches 0 .. frontier/interval - 1 on every stream, so a window
        // ending at `end` (last batch (end-1)/interval) must be ready.
        const bool expect_ready =
            frontier >= kInterval && (end - 1) / kInterval <= frontier / kInterval - 1;
        const bool ready = cluster.WindowReady(r.handle, end);
        if (expect_ready && !ready) {
          return Status::Internal(
              "trigger refused a ready window: end=" + std::to_string(end) +
              " frontier=" + std::to_string(frontier));
        }
        if (!ready) {
          break;
        }
        VectorTimestamp stable = cluster.coordinator()->StableVts();
        auto exec = cluster.ExecuteContinuousAt(r.handle, end);
        if (twin) {
          Status tc = twin_check(
              exec, twin->ExecuteContinuousAt(twin_handles[e.handle], end),
              "continuous q" + std::to_string(e.handle) + " @" +
                  std::to_string(end));
          if (!tc.ok()) {
            return tc;
          }
        }
        if (!exec.ok()) {
          if (exec.status().code() == StatusCode::kInvalidArgument) {
            SnapshotNum sn = checker.RecomputeStableSn(stable, nstreams);
            auto empty = oracle.HasEmptyJoin(r.q, sn, stable, end);
            if (!oracle.Evaluate(r.q, sn, stable, end).ok() ||
                (empty.ok() && *empty)) {
              r.last_end = end;  // Matched rejection still advances the prefix.
              break;
            }
          }
          return Status::Internal("continuous exec failed: " + exec.status().ToString());
        }
        ++ok_continuous;
        Status audit =
            checker.CheckContinuous(e.handle, r.q, r.stream_ids, *exec, stable, kInterval);
        if (!audit.ok()) {
          return audit;
        }
        SnapshotNum sn = checker.RecomputeStableSn(stable, nstreams);
        Status cmp = compare(r.q, *exec, sn, stable, end,
                             "continuous q" + std::to_string(e.handle));
        if (!cmp.ok()) {
          return cmp;
        }
        // Delta parity (§5.9): the delivered result — delta-cached or not —
        // must be bag-identical to a cold full-window re-execution on the
        // same cached plan. This is the check that catches a GC that forgets
        // to invalidate delta-cache entries (stale contributions survive in
        // the cache but not in a cold read).
        auto cold = cluster.ExecuteContinuousColdAt(r.handle, end);
        if (!cold.ok()) {
          return Status::Internal("cold re-execution failed where the trigger "
                                  "succeeded: " + cold.status().ToString());
        }
        if (CanonicalBag(exec->result) != CanonicalBag(cold->result)) {
          return Status::Internal(
              "delta/cold divergence on continuous q" + std::to_string(e.handle) +
              " @" + std::to_string(end) + ": delta " +
              std::to_string(exec->result.rows.size()) + " rows vs cold " +
              std::to_string(cold->result.rows.size()));
        }
        // Zero-dup: a fresh window is never suppressed — in the adaptive lane
        // this holds across plan cutovers too (a cutover must not replay or
        // swallow a delivery).
        if ((cfg.migrate || cfg.adaptive) &&
            !dedup.Accept(r.handle, end, exec->partial,
                          ResultDigest(exec->result))) {
          return Status::Internal("fresh window @" + std::to_string(end) +
                                  " was suppressed as a duplicate");
        }
        r.last_end = end;
        break;
      }
    }
    // Deferred commits land from the feed path, so the epoch can bump on any
    // event — audit the cutover as soon as it happens.
    if (cfg.migrate) {
      Status rc = recheck_after_cutover();
      if (!rc.ok()) {
        return rc;
      }
    }
  }

  if (cfg.adaptive) {
    // Cutover audit (§5.14), the same invariant the planner lane pins: a
    // plan-version bump on a delta-cached registration implies the cache was
    // re-keyed and the install went through the parity gate (or a pin).
    const Cluster::ReplanStats rs = cluster.replan_stats();
    for (const Reg& r : regs) {
      if (cluster.PlanVersionOf(r.handle) < 2) {
        continue;
      }
      if (rs.cutovers + rs.pins == 0) {
        return Status::Internal("plan version advanced without a gated "
                                "cutover or pin");
      }
      if (cluster.HasDeltaCache(r.handle) &&
          cluster.DeltaStatsOf(r.handle).plan_flushes == 0) {
        return Status::Internal(
            "plan cutover left the delta cache keyed to the old plan");
      }
    }
    if (cfg.replan_out != nullptr) {
      cfg.replan_out->checks += rs.checks;
      cfg.replan_out->drift_triggers += rs.drift_triggers;
      cfg.replan_out->cutovers += rs.cutovers;
      cfg.replan_out->parity_failures += rs.parity_failures;
      cfg.replan_out->budget_overruns += rs.budget_overruns;
      cfg.replan_out->pins += rs.pins;
    }
  }

  if (cfg.migrate) {
    if (staged_active) {
      // The trace ended mid-transfer: drive the handoff to its conclusion
      // (commit or crash-rollback) and audit the final cutover.
      Status st = finish_staged();
      if (!st.ok()) {
        return st;
      }
      st = recheck_after_cutover();
      if (!st.ok()) {
        return st;
      }
    }
    if (mig_log_failed) {
      return Status::Internal("checkpoint-log append failed in the migration lane");
    }
    const Cluster::ReconfigStats& rs = cluster.reconfig_stats();
    if (rs.moves_started + rs.nodes_added + rs.drains_started == 0) {
      return Status::Internal("migration lane ran no live reconfiguration");
    }
    mig_log.reset();
    std::filesystem::remove(mig_log_path);
  }

  // Metrics-consistency sweep: the registry counters are incremented at the
  // event sites, independently of the logger, the oracle, and OverloadStats —
  // so these equalities are real cross-checks, not tautologies. Moot in a
  // -DWUKONGS_OBS=OFF build, where no event site can bump anything.
  if (!obs::kCompiledIn) {
    return Status::Ok();
  }
  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };
  auto expect_eq = [](uint64_t got, uint64_t want,
                      const char* what) -> Status {
    if (got != want) {
      return Status::Internal(std::string("metrics drift: ") + what +
                              ": registry " + std::to_string(got) +
                              " vs harness " + std::to_string(want));
    }
    return Status::Ok();
  };
  Status ms;
  ms = expect_eq(counter("wukongs_batches_injected_total"), logged_batches,
                 "injected batches vs batch-logger count");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_tuples_injected_total"), logged_tuples,
                 "injected tuples vs oracle-fed fact count");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_queries_oneshot_total"), ok_oneshots,
                 "one-shot query count");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_queries_continuous_total"), ok_continuous,
                 "triggered continuous-execution count vs audited count");
  if (!ms.ok()) return ms;
  const OverloadStats os = cluster.overload_stats();
  ms = expect_eq(counter("wukongs_door_shed_tuples_total"), os.door_shed_tuples,
                 "door shed vs OverloadStats");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_injector_shed_edges_total"),
                 os.injector_shed_edges, "injector shed vs OverloadStats");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_timing_edges_lost_total"),
                 os.timing_edges_lost, "timing edges lost vs OverloadStats");
  if (!ms.ok()) return ms;
  ms = expect_eq(counter("wukongs_feed_rejections_total"), os.feed_rejections,
                 "feed rejections vs OverloadStats");
  if (!ms.ok()) return ms;
  return Status::Ok();
}

Status RunSeed(uint64_t seed, bool in_place = false) {
  RunConfig cfg = ConfigForSeed(seed);
  cfg.in_place = in_place;
  return RunTrace(cfg, MakeTrace(seed));
}

// Seeds per long lane: 200, or WUKONGS_DIFF_SEEDS (2000 nightly).
uint64_t LaneSeeds() {
  const char* env = std::getenv("WUKONGS_DIFF_SEEDS");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 200;
}

// Greedy ddmin-style minimization: repeatedly drop any single event whose
// removal keeps the trace failing.
std::vector<Event> MinimizeTrace(const RunConfig& cfg, std::vector<Event> trace) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < trace.size(); ++i) {
      std::vector<Event> candidate = trace;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (!RunTrace(cfg, candidate).ok()) {
        trace = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return trace;
}

// --- The main differential lane. ---

TEST(DifferentialTest, SeedsMatchOracle) {
  const uint64_t seeds = LaneSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Status st = RunSeed(seed);
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\ntrace:\n" << SerializeTrace(MakeTrace(seed));
  }
}

// --- The migration lane (§5.10): live reconfiguration under fuzzing. ---
//
// Same differential contract as SeedsMatchOracle, plus: every seed performs
// at least one live reconfiguration (a staged shard move with real
// dual-apply, a node addition, a drain, or a migration-target crash with
// rollback) while the trace runs, and WindowDedup proves the epoch cutover
// neither loses, duplicates, nor changes any window result.
TEST(DifferentialTest, MigrationSeedsMatchOracle) {
  const uint64_t seeds = LaneSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunConfig cfg = ConfigForSeed(seed);
    cfg.nodes = 3;  // Moves/drains need somewhere to go.
    cfg.migrate = true;
    Status st = RunTrace(cfg, MakeTrace(seed));
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\ntrace:\n" << SerializeTrace(MakeTrace(seed));
  }
}

// --- The in-place lane (§5.13): delta execution under fuzzing. ---
//
// Same contract as SeedsMatchOracle with in-place execution pinned, so
// non-selective continuous queries take the delta path (cached columnar
// contributions adopted into per-trigger unions) instead of fork-join.
TEST(DifferentialTest, InPlaceSeedsMatchOracle) {
  const uint64_t seeds = LaneSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    Status st = RunSeed(seed, /*in_place=*/true);
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\ntrace:\n" << SerializeTrace(MakeTrace(seed));
  }
}

// --- The adaptive lane (§5.14): cost-based re-planning under fuzzing. ---
//
// Same differential contract as SeedsMatchOracle — oracle match, consistency
// audits, per-trigger delta/cold parity, metrics sweep — with re-planning
// armed on the primary, a statically-planned twin demanding bag equality on
// every delivery, a deterministic mid-run rate step per seed so drift
// genuinely fires, a zero-dup WindowDedup audit across cutovers, and the
// end-of-trace cutover audit (version bump ⇒ cache re-keyed + gated install).
// The aggregate counters prove the lane exercised the machinery rather than
// idling past it.
TEST(AdaptiveReplanDifferentialTest, SeedsMatchOracle) {
  const uint64_t seeds = LaneSeeds();
  Cluster::ReplanStats total;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    RunConfig cfg = ConfigForSeed(seed);
    cfg.adaptive = true;
    cfg.replan_out = &total;
    // Every fourth seed layers live reconfiguration on top: plan cutovers and
    // ownership-epoch cutovers interleave, and both audits must still hold.
    if (seed % 4 == 0) {
      cfg.nodes = 3;
      cfg.migrate = true;
    }
    Status st = RunTrace(cfg, MakeAdaptiveTrace(seed));
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\ntrace:\n"
                         << SerializeTrace(MakeAdaptiveTrace(seed));
  }
  EXPECT_GT(total.checks, 0u) << "no trigger ever reached the drift detector";
  EXPECT_GT(total.drift_triggers, 0u)
      << "the rate step never registered as drift";
  EXPECT_GT(total.cutovers, 0u)
      << "no seed ever cut over to a re-synthesized plan";
}

TEST(DifferentialTest, TraceGenerationIsDeterministic) {
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    EXPECT_EQ(SerializeTrace(MakeTrace(seed)), SerializeTrace(MakeTrace(seed)));
    EXPECT_EQ(SerializeTrace(MakeAdaptiveTrace(seed)),
              SerializeTrace(MakeAdaptiveTrace(seed)));
  }
}

// --- Planted mutations: the harness must catch both defect classes. ---

// First seed (of the oracle lane, or the in-place lane) that fails, or 0.
uint64_t FirstFailingSeed(uint64_t max_seed, bool in_place = false) {
  for (uint64_t seed = 1; seed <= max_seed; ++seed) {
    if (!RunSeed(seed, in_place).ok()) {
      return seed;
    }
  }
  return 0;
}

TEST(DifferentialMutationTest, PlantedOffByOneWindowIsCaught) {
  test_hooks::ScopedMutation plant(&test_hooks::off_by_one_window);
  EXPECT_NE(FirstFailingSeed(20), 0u)
      << "off-by-one window boundary survived 20 differential seeds";
}

TEST(DifferentialMutationTest, PlantedStaleSnReadIsCaught) {
  test_hooks::ScopedMutation plant(&test_hooks::stale_sn_read);
  EXPECT_NE(FirstFailingSeed(20), 0u)
      << "stale Stable_SN read survived 20 differential seeds";
}

// The two planted columnar defects (§5.13) must both be observable through
// the in-place lane: a selection vector that is computed but never stored
// leaves FILTER-dropped rows active, which the oracle comparison sees, and an
// arena recycled while the DeltaCache still references its chunks corrupts
// cached contributions, which the per-trigger delta/cold parity check and
// the oracle both see.
TEST(ColumnarDifferentialTest, PlantedSkipSelectionCompactIsCaught) {
  test_hooks::ScopedMutation plant(&test_hooks::skip_selection_compact);
  EXPECT_NE(FirstFailingSeed(20, /*in_place=*/true), 0u)
      << "uncompacted selection vector survived 20 in-place seeds";
}

TEST(ColumnarDifferentialTest, PlantedStaleArenaReuseIsCaught) {
  test_hooks::ScopedMutation plant(&test_hooks::stale_arena_reuse);
  EXPECT_NE(FirstFailingSeed(20, /*in_place=*/true), 0u)
      << "stale arena reuse survived 20 in-place seeds";
}

TEST(DifferentialMutationTest, FailingTraceMinimizesAndReplaysByteIdentically) {
  test_hooks::ScopedMutation plant(&test_hooks::off_by_one_window);
  uint64_t seed = FirstFailingSeed(20);
  ASSERT_NE(seed, 0u);
  RunConfig cfg = ConfigForSeed(seed);
  std::vector<Event> trace = MakeTrace(seed);
  Status original = RunTrace(cfg, trace);
  ASSERT_FALSE(original.ok());

  std::vector<Event> minimized = MinimizeTrace(cfg, trace);
  EXPECT_LE(minimized.size(), trace.size());
  Status first = RunTrace(cfg, minimized);
  Status second = RunTrace(cfg, minimized);
  ASSERT_FALSE(first.ok());
  // Byte-identical replay: same trace serialization, same failure, twice.
  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(SerializeTrace(minimized), SerializeTrace(minimized));
  // The minimized trace still names the defect the seed found.
  EXPECT_FALSE(second.ok());
}

// --- Schedule controller semantics. ---

TEST(ScheduleControllerTest, PermutationPreservesPerStreamOrder) {
  ScheduleController schedule(7);
  std::vector<StreamBatch> batches;
  for (StreamId s = 0; s < 3; ++s) {
    for (BatchSeq b = 0; b < 5; ++b) {
      batches.push_back({s, b, {}});
    }
  }
  schedule.PermuteBatchOrder(&batches);
  ASSERT_EQ(batches.size(), 15u);
  std::vector<BatchSeq> next(3, 0);
  for (const StreamBatch& b : batches) {
    EXPECT_EQ(b.seq, next[b.stream]) << "stream " << b.stream;
    ++next[b.stream];
  }
  EXPECT_GT(schedule.decisions(), 0u);
}

TEST(ScheduleControllerTest, SameSeedSamePermutation) {
  auto permute = [](uint64_t seed) {
    ScheduleController schedule(seed);
    std::vector<StreamBatch> batches;
    for (StreamId s = 0; s < 4; ++s) {
      for (BatchSeq b = 0; b < 4; ++b) {
        batches.push_back({s, b, {}});
      }
    }
    schedule.PermuteBatchOrder(&batches);
    std::vector<std::pair<StreamId, BatchSeq>> order;
    for (const StreamBatch& b : batches) {
      order.emplace_back(b.stream, b.seq);
    }
    return order;
  };
  EXPECT_EQ(permute(11), permute(11));
  EXPECT_NE(permute(11), permute(12));  // 16 batches: collision ~ never.
}

TEST(ScheduleControllerTest, JitterAndPicksStayInRange) {
  ScheduleController schedule(3);
  for (int i = 0; i < 100; ++i) {
    auto j = schedule.MaintenanceJitter(std::chrono::milliseconds(50));
    EXPECT_GE(j.count(), 0);
    EXPECT_LE(j.count(), 50);
    size_t pick = schedule.PickIndex(7);
    EXPECT_LT(pick, 7u);
  }
  EXPECT_EQ(schedule.PickIndex(1), 0u);
}

// --- Shedding lane: "correct modulo declared loss". ---
//
// Overload is configured so only *door* shedding can fire (whole-tuple suffix
// drops; the transient budget stays unbounded so no asymmetric injector
// loss). The oracle is fed post-door-shed batches via the batch logger, so
// engine and oracle must still agree exactly, while the shed ledger accounts
// for every dropped tuple.
TEST(DifferentialShedTest, DoorShedResultsMatchOracleModuloDeclaredLoss) {
  ClusterConfig config;
  config.nodes = 2;
  config.batch_interval_ms = kInterval;
  config.batches_per_sn = 2;
  config.overload.enabled = true;
  config.overload.shed_timing = true;
  config.overload.max_plan_extensions = 1;
  config.overload.pending_queue_capacity = 16;
  config.overload.shed.start_pressure = 0.05;
  config.overload.shed.min_keep_fraction = 0.0;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  Cluster cluster(config);
  StringServer* strings = cluster.strings();
  StreamId s0 = *cluster.DefineStream("S0", {"tg"});
  ASSERT_TRUE(cluster.DefineStream("S1").ok());

  ReferenceOracle oracle(strings, kInterval, config.batches_per_sn);
  oracle.DefineStream("S0");
  oracle.DefineStream("S1");
  cluster.SetBatchLogger([&oracle](const StreamBatch& b) {
    oracle.AddBatch(b.stream, b.seq, b.tuples);
  });

  // S0 runs 8 batches ahead while S1 is silent: Stable_SN stalls, the plan
  // cap parks S0 batches at the door, occupancy drives the shed policy.
  StreamTupleVec burst;
  for (BatchSeq b = 0; b < 8; ++b) {
    for (int i = 0; i < 6; ++i) {
      burst.push_back({{strings->InternVertex("e" + std::to_string(i)),
                        strings->InternPredicate("tg"),
                        strings->InternVertex(std::to_string(i))},
                       b * kInterval + 10 + static_cast<StreamTime>(i),
                       TupleKind::kTimeless});
    }
  }
  ASSERT_TRUE(cluster.FeedStream(s0, burst).ok());
  cluster.AdvanceStreams(9 * kInterval);  // S1 empty batches release the SNs.

  const OverloadStats stats = cluster.overload_stats();
  ASSERT_GT(stats.door_shed_tuples, 0u) << "lane failed to provoke door shedding";
  EXPECT_EQ(stats.injector_shed_edges, 0u) << "injector loss would be asymmetric";
  EXPECT_EQ(stats.timing_edges_lost, 0u);

  // Ledger audit: per-batch records cover exactly the global counter, and no
  // batch sheds more than it admitted.
  uint64_t ledger_shed = 0;
  for (BatchSeq b = 0; b < 9; ++b) {
    Cluster::ShedInfo info = cluster.ShedInfoFor(s0, b);
    EXPECT_LE(info.door_shed_tuples, info.timing_tuples) << "batch " << b;
    ledger_shed += info.door_shed_tuples;
  }
  EXPECT_EQ(ledger_shed, stats.door_shed_tuples);
  // Registry counters are bumped at the shed sites themselves; they must
  // agree with both the OverloadStats mirror and the per-batch ledger
  // (unless the obs layer was compiled out entirely).
  if (obs::kCompiledIn) {
    EXPECT_EQ(registry.GetCounter("wukongs_door_shed_tuples_total")->value(),
              stats.door_shed_tuples);
    EXPECT_EQ(registry.GetCounter("wukongs_injector_shed_edges_total")->value(),
              0u);
    EXPECT_EQ(registry.GetCounter("wukongs_timing_edges_lost_total")->value(),
              0u);
  }

  // Differential check over the shed window: the oracle saw post-shed
  // batches, so results agree exactly — correct modulo declared loss.
  auto handle = cluster.RegisterContinuous(
      "REGISTER QUERY shed AS SELECT ?X ?G FROM STREAM <S0> "
      "[RANGE 400ms STEP 100ms] WHERE { GRAPH <S0> { ?X tg ?G } }");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const StreamTime end = 8 * kInterval;
  ASSERT_TRUE(cluster.WindowReady(*handle, end));
  VectorTimestamp stable = cluster.coordinator()->StableVts();
  auto exec = cluster.ExecuteContinuousAt(*handle, end);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  SnapshotChecker checker(config.batches_per_sn);
  SnapshotNum sn = checker.RecomputeStableSn(stable, 2);
  auto want = oracle.Evaluate(cluster.ContinuousQueryOf(*handle), sn, stable, end);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(CanonicalBag(exec->result), CanonicalBag(*want));
  EXPECT_GT(exec->shed_fraction, 0.0);  // The loss is declared, not hidden.

  // The absolute loss count must equal the ledger-derived truth for exactly
  // the window's batches ([RANGE 400ms] ending at 800ms = batches 4..7), in
  // edge units (1 door tuple = 2 dispatched edges).
  uint64_t window_total = 0;
  uint64_t window_lost = 0;
  for (BatchSeq b = 4; b <= 7; ++b) {
    Cluster::ShedInfo info = cluster.ShedInfoFor(s0, b);
    window_total += 2 * info.timing_tuples;
    window_lost += 2 * info.door_shed_tuples + info.injector_lost_edges;
  }
  EXPECT_EQ(exec->timing_edges_lost, window_lost);
  ASSERT_GT(window_total, 0u);
  EXPECT_DOUBLE_EQ(exec->shed_fraction,
                   static_cast<double>(window_lost) /
                       static_cast<double>(window_total));
}

// The fork-join merge path must thread the loss accounting through to the
// client exactly like the in-place path: a UNION query (which always takes
// ExecuteUnion's merge step) over the same shed window reports the same
// shed_fraction and timing_edges_lost as the single-branch execution above.
TEST(DifferentialShedTest, ForkJoinMergeThreadsLossAccounting) {
  ClusterConfig config;
  config.nodes = 2;
  config.batch_interval_ms = kInterval;
  config.batches_per_sn = 2;
  config.force_fork_join = true;  // Every branch takes the merge path.
  config.overload.enabled = true;
  config.overload.shed_timing = true;
  config.overload.max_plan_extensions = 1;
  config.overload.pending_queue_capacity = 16;
  config.overload.shed.start_pressure = 0.05;
  config.overload.shed.min_keep_fraction = 0.0;
  Cluster cluster(config);
  StringServer* strings = cluster.strings();
  StreamId s0 = *cluster.DefineStream("S0", {"tg"});
  ASSERT_TRUE(cluster.DefineStream("S1").ok());

  StreamTupleVec burst;
  for (BatchSeq b = 0; b < 8; ++b) {
    for (int i = 0; i < 6; ++i) {
      burst.push_back({{strings->InternVertex("e" + std::to_string(i)),
                        strings->InternPredicate("tg"),
                        strings->InternVertex(std::to_string(i))},
                       b * kInterval + 10 + static_cast<StreamTime>(i),
                       TupleKind::kTimeless});
    }
  }
  ASSERT_TRUE(cluster.FeedStream(s0, burst).ok());
  cluster.AdvanceStreams(9 * kInterval);
  ASSERT_GT(cluster.overload_stats().door_shed_tuples, 0u);

  auto handle = cluster.RegisterContinuous(
      "REGISTER QUERY shedu AS SELECT ?X ?G FROM STREAM <S0> "
      "[RANGE 400ms STEP 100ms] WHERE { { GRAPH <S0> { ?X tg ?G } } UNION "
      "{ GRAPH <S0> { ?X tg ?G } } }");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const StreamTime end = 8 * kInterval;
  ASSERT_TRUE(cluster.WindowReady(*handle, end));
  auto exec = cluster.ExecuteContinuousAt(*handle, end);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();

  uint64_t window_total = 0;
  uint64_t window_lost = 0;
  for (BatchSeq b = 4; b <= 7; ++b) {
    Cluster::ShedInfo info = cluster.ShedInfoFor(s0, b);
    window_total += 2 * info.timing_tuples;
    window_lost += 2 * info.door_shed_tuples + info.injector_lost_edges;
  }
  ASSERT_GT(window_lost, 0u);
  EXPECT_EQ(exec->timing_edges_lost, window_lost)
      << "fork-join merge dropped the loss accounting";
  EXPECT_DOUBLE_EQ(exec->shed_fraction,
                   static_cast<double>(window_lost) /
                       static_cast<double>(window_total));
}

// --- Threaded lane: the controller's hooks under real concurrency. ---
//
// Exercises MaintenanceDaemon jitter and WorkerPool dequeue picking with a
// live schedule controller while queries run; primarily a TSan target (the
// CI matrix builds this binary with -fsanitize=thread).
TEST(DifferentialThreadedTest, ScheduleControllerUnderConcurrency) {
  ScheduleController schedule(99);
  ClusterConfig config;
  config.nodes = 2;
  config.batch_interval_ms = kInterval;
  config.schedule = &schedule;
  Cluster cluster(config);
  StringServer* strings = cluster.strings();
  StreamId s0 = *cluster.DefineStream("S0");
  std::vector<Triple> base;
  for (int i = 0; i < 50; ++i) {
    base.push_back({strings->InternVertex("e" + std::to_string(i % 8)),
                    strings->InternPredicate("p0"),
                    strings->InternVertex("e" + std::to_string((i + 1) % 8))});
  }
  cluster.LoadBase(base);

  MaintenanceDaemon daemon(
      &cluster, [] { return StreamTime{0}; }, std::chrono::milliseconds(2),
      &schedule);
  WorkerPool pool(&cluster, 3, &schedule);
  std::vector<std::future<StatusOr<QueryExecution>>> futures;
  for (int i = 0; i < 24; ++i) {
    auto q = ParseQuery("SELECT ?X ?Y WHERE { ?X p0 ?Y }", strings);
    ASSERT_TRUE(q.ok());
    futures.push_back(pool.SubmitOneShot(*q));
    if (i % 6 == 0) {
      StreamTupleVec tuples = {{{strings->InternVertex("e1"),
                                 strings->InternPredicate("p0"),
                                 strings->InternVertex("e2")},
                                static_cast<StreamTime>(i / 6) * kInterval + 5,
                                TupleKind::kTimeless}};
      ASSERT_TRUE(cluster.FeedStream(s0, tuples).ok());
    }
    if (i % 8 == 0) {
      daemon.Kick();
    }
  }
  pool.Drain();
  for (auto& f : futures) {
    auto exec = f.get();
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    // Concurrent feeds advance the snapshot mid-run, so later one-shots may
    // also see the injected p0 edges (up to 4 of them) on top of the base 50.
    EXPECT_GE(exec->result.rows.size(), 50u);
    EXPECT_LE(exec->result.rows.size(), 54u);
  }
  EXPECT_EQ(pool.executed(), 24u);
  EXPECT_GT(schedule.decisions(), 0u);
}

}  // namespace
}  // namespace wukongs::testkit
