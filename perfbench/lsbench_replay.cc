// LSBench replay benchmark.
//
// Replays pre-generated LSBench input into a 4-node Cluster from a closed loop
// on one thread and times every public call with its own steady_clock. Each
// 100 ms stream step runs, in order:
//   1. FeedStream on each of the five streams, then AdvanceStreams;
//   2. ExecuteContinuousAt for every registration, in registration order,
//      once its window is ready;
//   3. the step's one-shots (OneShotParsed);
//   4. RunMaintenance with horizon = step end - 1 s.
//
//   lsbench_replay --workload social|analytics|ingest --seed N --seconds S
//                  --trace 0|1 [--trace-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 attaches the cluster's
// MetricsRegistry, records spans around every call and prints the per-layer
// metrics derived from them. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Sampled results are
// checked against testkit::ReferenceOracle; a mismatch prints correct=false
// and exits 1. perfbench/README.md maps every metric to its layer.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/rng.h"
#include "src/sparql/parser.h"
#include "src/testkit/reference_oracle.h"
#include "src/testkit/snapshot_checker.h"
#include "src/workloads/lsbench.h"

// Heap accounting for peak_mem_mb. Every allocation of the engine goes through
// the global operator new, so these counters see what the system holds, not
// what glibc keeps mapped after a free. The driver is single-threaded (the
// cluster starts no threads in this configuration), so plain counters do.
namespace heap {
size_t live_bytes = 0;
size_t peak_bytes = 0;
}  // namespace heap

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  heap::live_bytes += malloc_usable_size(p);
  heap::peak_bytes = std::max(heap::peak_bytes, heap::live_bytes);
  return p;
}

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    heap::live_bytes -= malloc_usable_size(p);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace wukongs::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

constexpr StreamTime kStepMs = 100;
constexpr StreamTime kWindowMs = 1000;
// Steps replayed before measuring, so every 1 s window is full.
constexpr size_t kWarmupSteps = 10;
// Steps whose sampled results are checked against the oracle. The check pass
// replays up to the last of them only.
constexpr std::array<size_t, 3> kCheckSteps = {kWarmupSteps, kWarmupSteps + 20,
                                               kWarmupSteps + 40};
constexpr size_t kUsers = 4000;
constexpr uint32_t kNodes = 4;
// Dedicated set-ups, half before and half after the measured replay.
constexpr int kSetups = 20;
// A replay stops early once its measured steps take this many times
// --seconds (but no less than kCapFloorSeconds), so that a much slower build
// still ends within its time limit.
constexpr double kCapFactor = 2.5;
constexpr double kCapFloorSeconds = 60.0;
// Results and one-shots a replay must yield, at least.
constexpr size_t kMinSamples = 200;
// The traced run fails when calls it did not time exceed this share of the
// replay wall.
constexpr double kMaxUnattributedShare = 0.05;

constexpr size_t kStreams = 5;
constexpr std::array<const char*, kStreams> kStreamNames = {
    "PO_Stream", "POL_Stream", "PH_Stream", "PHL_Stream", "GPS_Stream"};

double Ms(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "lsbench_replay: " << what << "\n";
  std::exit(2);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) {
    Die(what + ": " + s.ToString());
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  double rate_scale = 1.0;
  std::vector<std::pair<int, size_t>> continuous;  // (L number, registrations)
  std::vector<int> oneshot_kinds;                  // S numbers, cycled.
  size_t oneshots_per_step = 0;
  // Measured steps per --seconds: about the rate at which a 20 s replay of
  // this workload runs on a 4-core Xeon VM, so that one replay lasts about
  // --seconds. Replays slow down as the store grows, so this is not linear.
  size_t steps_per_second = 0;
};

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"social", 1.0, {{1, 256}, {2, 256}, {3, 256}}, {2, 3, 5}, 4, 12},
      {"analytics", 2.0, {{4, 1}, {5, 1}, {6, 1}}, {1, 3, 4}, 2, 35},
      {"ingest", 10.0, {{1, 8}}, {2}, 1, 28},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------------
// Inputs, generated before any timing.

struct OneShotInput {
  int kind = 0;
  Query query;
};

struct StepInput {
  std::array<StreamTupleVec, kStreams> batches;
  std::vector<OneShotInput> oneshots;
  size_t tuples = 0;
};

struct Inputs {
  TripleVec base;
  std::vector<std::string> registrations;  // Query texts, registration order.
  std::vector<StepInput> steps;
};

size_t StreamIndex(const std::string& name) {
  for (size_t s = 0; s < kStreams; ++s) {
    if (name == kStreamNames[s]) {
      return s;
    }
  }
  Die("unknown LSBench stream " + name);
}

// Runs the LSBench generator against a throwaway cluster that shares
// `strings`, capturing its output through the Tee. The cluster is destroyed
// before this returns, so the system under test receives only the captured
// triples, tuples and query texts.
Inputs Generate(const WorkloadSpec& spec, uint64_t seed, size_t measured_steps,
                StringServer* strings) {
  Inputs in;
  ClusterConfig scratch_config;
  Cluster scratch(scratch_config, strings);
  LsBenchConfig config;
  config.users = kUsers;
  config.seed = seed;
  config.rate_scale = spec.rate_scale;
  LsBench bench(&scratch, config);
  Must(bench.Setup(), "LSBench setup");
  in.base = bench.initial_graph();

  in.steps.resize(kWarmupSteps + measured_steps);
  StepInput* current = nullptr;
  bench.SetTee([&current](const std::string& name, const StreamTupleVec& tuples) {
    current->batches[StreamIndex(name)] = tuples;
    current->tuples += tuples.size();
  });
  for (size_t k = 0; k < in.steps.size(); ++k) {
    current = &in.steps[k];
    Must(bench.FeedInterval(k * kStepMs, (k + 1) * kStepMs), "LSBench feed");
  }

  Rng rng(seed ^ 0x5eedb0a710adull);
  for (const auto& [number, count] : spec.continuous) {
    for (size_t i = 0; i < count; ++i) {
      in.registrations.push_back(bench.ContinuousQueryText(number, &rng));
    }
  }
  // LsBench fixes each one-shot's anchors by its config seed, so a fresh
  // seed per slot varies the anchor user, tag and post.
  size_t slot = 0;
  for (StepInput& step : in.steps) {
    for (size_t j = 0; j < spec.oneshots_per_step; ++j, ++slot) {
      const int kind = spec.oneshot_kinds[slot % spec.oneshot_kinds.size()];
      LsBenchConfig anchors = config;
      anchors.seed = rng.engine()();
      auto q = ParseQuery(LsBench(&scratch, anchors).OneShotQueryText(kind), strings);
      Must(q.status(), "one-shot S" + std::to_string(kind) + " parse");
      step.oneshots.push_back({kind, std::move(*q)});
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Output-check sample: which results of a replay are kept and compared.

struct SamplePlan {
  std::vector<std::vector<size_t>> regs;      // Per step: registration indices.
  std::vector<std::vector<size_t>> oneshots;  // Per step: one-shot slots.
};

// At each check step, one registration of every L kind and every one-shot.
// S4's oracle evaluation is a brute-force scan of all posts (seconds), so it
// is sampled at the first check step only.
SamplePlan MakeSamplePlan(const WorkloadSpec& spec, const Inputs& in, uint64_t seed) {
  SamplePlan plan;
  plan.regs.resize(in.steps.size());
  plan.oneshots.resize(in.steps.size());
  Rng rng(seed ^ 0xc4ec4ull);
  bool s4_sampled = false;
  for (size_t k : kCheckSteps) {
    size_t first = 0;
    for (const auto& [number, count] : spec.continuous) {
      plan.regs[k].push_back(first + rng.Uniform(0, count - 1));
      first += count;
    }
    for (size_t j = 0; j < in.steps[k].oneshots.size(); ++j) {
      if (in.steps[k].oneshots[j].kind == 4) {
        if (s4_sampled) {
          continue;
        }
        s4_sampled = true;
      }
      plan.oneshots[k].push_back(j);
    }
  }
  return plan;
}

struct Kept {
  size_t step = 0;
  bool oneshot = false;
  size_t slot = 0;  // Registration index or one-shot slot.
  StreamTime end = 0;
  VectorTimestamp stable;  // Captured before the call (check pass only).
  QueryResult result;
};

using SampleKey = std::tuple<size_t, bool, size_t>;
using Expected = std::map<SampleKey, std::vector<std::string>>;

// Empty when `got` is bag-equal to `want`; otherwise a short diff.
std::string Compare(const Kept& k, const QueryResult& got,
                    const std::vector<std::string>& want) {
  std::vector<std::string> bag = testkit::CanonicalBag(got);
  if (bag == want) {
    return "";
  }
  std::string msg = std::string(k.oneshot ? "one-shot slot " : "registration ") +
                    std::to_string(k.slot) + " at step " + std::to_string(k.step) +
                    ": engine " + std::to_string(bag.size()) + " rows vs oracle " +
                    std::to_string(want.size());
  for (size_t i = 0; i < std::max(bag.size(), want.size()) && i < 3; ++i) {
    msg += "\n  engine=" + (i < bag.size() ? bag[i] : "<none>") +
           " oracle=" + (i < want.size() ? want[i] : "<none>");
  }
  return msg;
}

// ---------------------------------------------------------------------------
// Timing record: call counts always, spans in the traced run.

enum class Op : uint8_t {
  kConstruct,
  kDefineStreams,
  kLoadBase,
  kRegister,
  kStep,
  kFeed,
  kAdvance,
  kTrigger,
  kOneShot,
  kMaintenance,
  kRelease,
};
constexpr std::array<const char*, 11> kOpNames = {
    "construct", "define_streams", "load_base",   "register",
    "step",      "feed",           "advance",     "trigger",
    "oneshot",   "maintenance",    "release"};

struct Span {
  Op op = Op::kStep;
  bool ok = true;
  bool fork_join = false;
  int64_t step = -1;      // Parent step; -1 during set-up.
  uint64_t request = 0;   // Window end (trigger) or one-shot sequence number.
  uint64_t item = 0;      // Stream, registration or one-shot slot.
  TimePoint start, end;
  double cpu_ms = 0.0;
  double net_ms = 0.0;
  uint64_t rows = 0;
  uint64_t delta_cached = 0;
  uint64_t delta_fresh = 0;

  double ms() const { return Ms(start, end); }
};

class Recorder {
 public:
  // Spans are kept only while enabled (the traced replay); calls are always
  // counted.
  void EnableSpans(bool on) { spans_enabled_ = on; }

  Span* Call(Op op, int64_t step, uint64_t item, uint64_t request, TimePoint start,
             TimePoint end, bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
    return Record(op, step, item, request, start, end, ok);
  }

  void Exec(Op op, int64_t step, uint64_t item, uint64_t request, TimePoint start,
            TimePoint end, const StatusOr<QueryExecution>& exec) {
    Span* s = Call(op, step, item, request, start, end, exec.ok());
    if (s == nullptr || !exec.ok()) {
      return;
    }
    s->fork_join = exec->fork_join;
    s->cpu_ms = exec->cpu_ms;
    s->net_ms = exec->net_ms;
    s->rows = exec->result.rows.size();
    s->delta_cached = exec->delta_slices_cached;
    s->delta_fresh = exec->delta_slices_fresh;
  }

  // A span that is not a public call (a whole step, a result release).
  void Mark(Op op, int64_t step, uint64_t item, uint64_t request, TimePoint start,
            TimePoint end) {
    Record(op, step, item, request, start, end, true);
  }

  // Destroys a returned execution inside a release span: freeing a large
  // row-major result is client-side work that the call's own span misses.
  void Release(int64_t step, uint64_t item, uint64_t request,
               StatusOr<QueryExecution>&& exec) {
    const TimePoint t0 = Clock::now();
    { StatusOr<QueryExecution> sink = std::move(exec); }
    Mark(Op::kRelease, step, item, request, t0, Clock::now());
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Span* Record(Op op, int64_t step, uint64_t item, uint64_t request, TimePoint start,
               TimePoint end, bool ok) {
    if (!spans_enabled_) {
      return nullptr;
    }
    Span& s = spans_.emplace_back();
    s.op = op;
    s.ok = ok;
    s.step = step;
    s.request = request;
    s.item = item;
    s.start = start;
    s.end = end;
    return &s;
  }

  bool spans_enabled_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// System under test.

struct Sut {
  std::unique_ptr<Cluster> cluster;
  std::array<StreamId, kStreams> streams{};
  std::vector<Cluster::ContinuousHandle> handles;
};

// Construct the cluster, define the streams, load the base graph and register
// every query. Returns the wall time of the whole set-up in seconds.
double SetUp(const Inputs& in, StringServer* strings, obs::MetricsRegistry* registry,
             Recorder* rec, Sut* sut) {
  const TimePoint begin = Clock::now();
  ClusterConfig config;
  config.nodes = kNodes;
  config.metrics = registry;
  sut->cluster = std::make_unique<Cluster>(config, strings);
  TimePoint t = Clock::now();
  rec->Call(Op::kConstruct, -1, 0, 0, begin, t, true);
  Cluster& cluster = *sut->cluster;

  for (size_t s = 0; s < kStreams; ++s) {
    const TimePoint t0 = Clock::now();
    auto id = s == 4 ? cluster.DefineStream(kStreamNames[s], {"ga"})
                     : cluster.DefineStream(kStreamNames[s]);
    rec->Call(Op::kDefineStreams, -1, s, 0, t0, Clock::now(), id.ok());
    Must(id.status(), std::string("define ") + kStreamNames[s]);
    sut->streams[s] = *id;
  }

  t = Clock::now();
  cluster.LoadBase(in.base);
  rec->Call(Op::kLoadBase, -1, 0, 0, t, Clock::now(), true);

  sut->handles.clear();
  for (size_t i = 0; i < in.registrations.size(); ++i) {
    const TimePoint t0 = Clock::now();
    auto h = cluster.RegisterContinuous(in.registrations[i]);
    rec->Call(Op::kRegister, -1, i, 0, t0, Clock::now(), h.ok());
    Must(h.status(), "register " + in.registrations[i]);
    sut->handles.push_back(*h);
  }
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Cluster-side counters read between steps, outside every timed span.
struct LayerCounters {
  double inject_ms = 0.0;
  double index_ms = 0.0;
  uint64_t tuples_injected = 0;
  uint64_t gc_reclaimed_bytes = 0;
  Cluster::MqoStats mqo;
  FabricStats fabric;
};

LayerCounters ReadCounters(Cluster& cluster, const Sut& sut,
                           obs::MetricsRegistry* registry) {
  LayerCounters c;
  for (StreamId s : sut.streams) {
    Cluster::InjectionProfile p = cluster.injection_profile(s);
    c.inject_ms += p.inject_ms;
    c.index_ms += p.index_ms;
    c.tuples_injected += p.tuples;
  }
  if (registry != nullptr) {
    cluster.UpdateScrapedMetrics();
    for (const char* name : kStreamNames) {
      c.gc_reclaimed_bytes +=
          registry
              ->GetCounter(obs::MetricsRegistry::Labeled(
                  "wukongs_transient_gc_bytes_reclaimed_total", {{"stream", name}}))
              ->value();
    }
  }
  c.mqo = cluster.mqo_stats();
  c.fabric = cluster.fabric()->stats();
  return c;
}

// What one replay measured. Samples and sums cover measured steps only.
struct ReplayStats {
  double replay_ms = 0.0;  // First measured step start to last step end.
  uint64_t tuples = 0;     // Tuples fed in measured steps.
  std::vector<double> result_ms;
  std::vector<double> oneshot_ms;
  std::vector<double> step_peak_bytes;  // Heap high-water of each step.
  bool cut_short = false;               // Stopped at the time cap.
  std::vector<Kept> kept;
  LayerCounters before, after;  // Around the measured steps.
  Cluster::MemoryReport memory;  // At the end of the replay.

  double throughput() const {
    return replay_ms > 0 ? static_cast<double>(tuples) / (replay_ms / 1000.0) : 0.0;
  }
};

// Replays the first `steps` steps, or fewer if the measured steps run past
// `cap_ms`. `capture_stable` records Stable_VTS before each sampled call,
// which the oracle needs (check pass only: it is not free).
void Replay(const Inputs& in, const SamplePlan& plan, size_t steps, double cap_ms,
            Sut* sut, obs::MetricsRegistry* registry, bool capture_stable,
            Recorder* rec, ReplayStats* out) {
  Cluster& cluster = *sut->cluster;
  uint64_t oneshot_seq = 0;
  TimePoint measured_start;
  for (size_t k = 0; k < steps; ++k) {
    const StepInput& step = in.steps[k];
    const StreamTime end = (k + 1) * kStepMs;
    const bool measured = k >= kWarmupSteps;
    const int64_t sk = static_cast<int64_t>(k);
    if (k == kWarmupSteps) {
      out->before = ReadCounters(cluster, *sut, registry);
    }
    heap::peak_bytes = heap::live_bytes;
    const TimePoint step_start = Clock::now();
    if (k == kWarmupSteps) {
      measured_start = step_start;
    }

    for (size_t s = 0; s < kStreams; ++s) {
      const TimePoint t0 = Clock::now();
      Status st = cluster.FeedStream(sut->streams[s], step.batches[s]);
      rec->Call(Op::kFeed, sk, s, end, t0, Clock::now(), st.ok());
    }
    {
      const TimePoint t0 = Clock::now();
      cluster.AdvanceStreams(end);
      rec->Call(Op::kAdvance, sk, 0, end, t0, Clock::now(), true);
    }
    if (measured) {
      out->tuples += step.tuples;
    }

    const std::vector<size_t>& keep_regs = plan.regs[k];
    size_t next_keep = 0;
    for (size_t i = 0; i < sut->handles.size(); ++i) {
      const bool keep = next_keep < keep_regs.size() && keep_regs[next_keep] == i;
      Kept kept;
      if (keep) {
        ++next_keep;
        if (capture_stable) {
          kept.stable = cluster.coordinator()->StableVts();
        }
      }
      const Cluster::ContinuousHandle h = sut->handles[i];
      const TimePoint t0 = Clock::now();
      StatusOr<QueryExecution> exec =
          cluster.WindowReady(h, end)
              ? cluster.ExecuteContinuousAt(h, end)
              : StatusOr<QueryExecution>(Status::FailedPrecondition("window not ready"));
      const TimePoint t1 = Clock::now();
      rec->Exec(Op::kTrigger, sk, i, end, t0, t1, exec);
      if (exec.ok() && measured) {
        out->result_ms.push_back(Ms(step_start, t1));
      }
      if (exec.ok() && keep) {
        kept.step = k;
        kept.slot = i;
        kept.end = end;
        kept.result = std::move(exec->result);
        out->kept.push_back(std::move(kept));
      }
      rec->Release(sk, i, end, std::move(exec));
    }

    const std::vector<size_t>& keep_shots = plan.oneshots[k];
    for (size_t j = 0; j < step.oneshots.size(); ++j) {
      const bool keep =
          std::find(keep_shots.begin(), keep_shots.end(), j) != keep_shots.end();
      Kept kept;
      if (keep && capture_stable) {
        kept.stable = cluster.coordinator()->StableVts();
      }
      const TimePoint t0 = Clock::now();
      StatusOr<QueryExecution> exec = cluster.OneShotParsed(step.oneshots[j].query);
      const TimePoint t1 = Clock::now();
      rec->Exec(Op::kOneShot, sk, j, oneshot_seq, t0, t1, exec);
      if (exec.ok() && measured) {
        out->oneshot_ms.push_back(Ms(t0, t1));
      }
      if (exec.ok() && keep) {
        kept.step = k;
        kept.oneshot = true;
        kept.slot = j;
        kept.result = std::move(exec->result);
        out->kept.push_back(std::move(kept));
      }
      rec->Release(sk, j, oneshot_seq++, std::move(exec));
    }

    {
      const TimePoint t0 = Clock::now();
      cluster.RunMaintenance(end > kWindowMs ? end - kWindowMs : 0);
      rec->Call(Op::kMaintenance, sk, 0, end, t0, Clock::now(), true);
    }
    const TimePoint step_end = Clock::now();
    rec->Mark(Op::kStep, sk, 0, end, step_start, step_end);
    if (!measured) {
      continue;
    }
    out->replay_ms = Ms(measured_start, step_end);
    out->step_peak_bytes.push_back(static_cast<double>(heap::peak_bytes));
    if (out->replay_ms > cap_ms) {
      out->cut_short = true;
      break;
    }
  }
  out->after = ReadCounters(cluster, *sut, registry);
  out->memory = cluster.Memory();
}

// ---------------------------------------------------------------------------
// Oracle check.

// Untimed pass: replays the inputs on a fresh cluster whose batch logger feeds
// the reference oracle, then evaluates every sampled query in the oracle at
// the Stable_VTS captured before the engine ran it. Fills `expected` and
// returns the mismatches; `kept` receives the engine's sampled results.
std::vector<std::string> CheckPass(const Inputs& in, const SamplePlan& plan,
                                   StringServer* strings, Expected* expected,
                                   std::vector<Kept>* kept) {
  testkit::ReferenceOracle oracle(strings, kDefaultBatchIntervalMs, 1);
  for (const char* name : kStreamNames) {
    oracle.DefineStream(name);
  }
  oracle.LoadBase(in.base);

  Recorder rec;
  Sut sut;
  SetUp(in, strings, nullptr, &rec, &sut);
  sut.cluster->SetBatchLogger([&oracle](const StreamBatch& b) {
    oracle.AddBatch(b.stream, b.seq, b.tuples);
  });
  ReplayStats replay;
  Replay(in, plan, kCheckSteps.back() + 1, std::numeric_limits<double>::infinity(), &sut,
         nullptr, /*capture_stable=*/true, &rec, &replay);

  std::vector<std::string> errors;
  if (rec.failed() != 0) {
    errors.push_back(std::to_string(rec.failed()) + " calls failed in the check pass");
  }
  testkit::SnapshotChecker checker(sut.cluster->config().batches_per_sn);
  for (const Kept& k : replay.kept) {
    const Query& q = k.oneshot ? in.steps[k.step].oneshots[k.slot].query
                               : sut.cluster->ContinuousQueryOf(sut.handles[k.slot]);
    const SnapshotNum sn = checker.RecomputeStableSn(k.stable, kStreams);
    auto want = oracle.Evaluate(q, sn, k.stable, k.oneshot ? 0 : k.end);
    if (!want.ok()) {
      errors.push_back("oracle failed: " + want.status().ToString());
      continue;
    }
    std::vector<std::string> bag = testkit::CanonicalBag(*want);
    std::string diff = Compare(k, k.result, bag);
    if (!diff.empty()) {
      errors.push_back(diff);
    }
    (*expected)[{k.step, k.oneshot, k.slot}] = std::move(bag);
  }
  *kept = std::move(replay.kept);
  return errors;
}

std::vector<std::string> CheckReplay(const std::vector<Kept>& kept,
                                     const Expected& expected) {
  std::vector<std::string> errors;
  if (kept.size() != expected.size()) {
    errors.push_back("replay kept " + std::to_string(kept.size()) +
                     " sampled results, the check pass " +
                     std::to_string(expected.size()));
  }
  for (const Kept& k : kept) {
    auto it = expected.find({k.step, k.oneshot, k.slot});
    std::string diff = it == expected.end() ? "sample missing from the check pass"
                                            : Compare(k, k.result, it->second);
    if (!diff.empty()) {
      errors.push_back(diff);
    }
  }
  return errors;
}

// Self-test: corrupting one value of one sampled row must make the check
// reject the result. Returns an error when the check let it through.
std::string SelfTest(const std::vector<Kept>& kept, const Expected& expected) {
  for (const Kept& k : kept) {
    if (k.result.rows.empty() || k.result.rows[0].empty()) {
      continue;
    }
    QueryResult corrupted = k.result;
    ResultValue& v = corrupted.rows[0][0];
    v.vid += 1;
    v.number += 1.0;
    if (Compare(k, corrupted, expected.at({k.step, k.oneshot, k.slot})).empty()) {
      return "self-test: a corrupted row passed the output check";
    }
    std::cerr << "self-test: corrupted row of " << (k.oneshot ? "one-shot slot " : "registration ")
              << k.slot << " at step " << k.step << " rejected\n";
    return "";
  }
  return "self-test: no sampled result has a row to corrupt";
}

// ---------------------------------------------------------------------------
// Statistics and output.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(idx));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

// Writes the traced run's spans as JSON lines, times relative to `origin`.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                TimePoint origin) {
  std::ofstream f(path);
  if (!f) {
    Die("cannot write " + path);
  }
  auto ns = [origin](TimePoint t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  };
  for (const Span& s : spans) {
    f << "{\"name\":\"" << kOpNames[static_cast<size_t>(s.op)] << "\",\"step\":" << s.step
      << ",\"request\":" << s.request << ",\"item\":" << s.item
      << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end)
      << ",\"ok\":" << (s.ok ? "true" : "false");
    if (s.op == Op::kTrigger || s.op == Op::kOneShot) {
      f << ",\"fork_join\":" << (s.fork_join ? "true" : "false") << ",\"cpu_ms\":" << s.cpu_ms
        << ",\"net_ms\":" << s.net_ms << ",\"rows\":" << s.rows
        << ",\"delta_cached\":" << s.delta_cached << ",\"delta_fresh\":" << s.delta_fresh;
    }
    f << "}\n";
  }
}

// Per-layer metrics of the traced replay, derived from its spans and the
// cluster counters read around it. Fails the run through `errors` when the
// timed calls miss more than 5% of the replay wall.
std::vector<Metric> LayerMetrics(const std::vector<Span>& spans, const ReplayStats& r,
                                 double overhead_ratio,
                                 std::vector<std::string>* errors) {
  std::map<int64_t, TimePoint> step_start;
  for (const Span& s : spans) {
    if (s.op == Op::kStep) {
      step_start[s.step] = s.start;
    }
  }
  std::array<double, kOpNames.size()> sum_ms{};
  std::vector<double> maintenance_ms, trigger_us, wait_ms;
  double exec_ms = 0, fork_join_ms = 0, outside_ms = 0, net_ms = 0, timed_ms = 0;
  double load_base_ms = 0, register_ms = 0;
  uint64_t rows = 0, cached = 0, fresh = 0;
  for (const Span& s : spans) {
    if (s.step < 0) {
      if (s.op == Op::kLoadBase) {
        load_base_ms += s.ms();
      } else if (s.op == Op::kRegister) {
        register_ms += s.ms();
      }
      continue;
    }
    if (s.step < static_cast<int64_t>(kWarmupSteps) || s.op == Op::kStep) {
      continue;
    }
    sum_ms[static_cast<size_t>(s.op)] += s.ms();
    timed_ms += s.ms();
    if (s.op == Op::kMaintenance) {
      maintenance_ms.push_back(s.ms());
    }
    if (s.op == Op::kTrigger) {
      trigger_us.push_back(s.ms() * 1000.0);
      wait_ms.push_back(Ms(step_start.at(s.step), s.start));
    }
    if (s.op == Op::kTrigger || s.op == Op::kOneShot) {
      net_ms += s.net_ms;
      rows += s.rows;
      cached += s.delta_cached;
      fresh += s.delta_fresh;
      if (s.fork_join) {
        fork_join_ms += s.ms();
      } else {
        exec_ms += s.cpu_ms;
        outside_ms += s.ms() - s.cpu_ms;
      }
    }
  }
  auto op_ms = [&sum_ms](Op op) { return sum_ms[static_cast<size_t>(op)]; };
  auto diff = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  if (r.replay_ms - timed_ms > kMaxUnattributedShare * r.replay_ms) {
    errors->push_back("timed calls cover only " +
                      std::to_string(100.0 * timed_ms / r.replay_ms) +
                      "% of the replay wall");
  }
  const double hit_ratio =
      cached + fresh == 0 ? 0.0
                          : static_cast<double>(cached) / static_cast<double>(cached + fresh);
  const FabricStats& fa = r.after.fabric;
  const FabricStats& fb = r.before.fabric;
  return {
      {"stream.feed_ms", op_ms(Op::kFeed), "ms"},
      {"stream.advance_ms", op_ms(Op::kAdvance), "ms"},
      {"stream.inject_ms", r.after.inject_ms - r.before.inject_ms, "ms"},
      {"stream.index_ms", r.after.index_ms - r.before.index_ms, "ms"},
      {"stream.tuples_injected", diff(r.after.tuples_injected, r.before.tuples_injected),
       "count"},
      {"stream.gc_reclaimed_bytes",
       diff(r.after.gc_reclaimed_bytes, r.before.gc_reclaimed_bytes), "bytes"},
      {"stream.index_bytes", static_cast<double>(r.memory.stream_index_bytes), "bytes"},
      {"stream.transient_bytes", static_cast<double>(r.memory.transient_bytes), "bytes"},
      {"store.maintenance_ms", op_ms(Op::kMaintenance), "ms"},
      {"store.maintenance_p50_ms", Percentile(maintenance_ms, 0.5), "ms"},
      {"store.load_base_ms", load_base_ms, "ms"},
      {"store.bytes", static_cast<double>(r.memory.store_bytes), "bytes"},
      {"store.snapshot_meta_bytes", static_cast<double>(r.memory.snapshot_meta_bytes),
       "bytes"},
      {"engine.exec_ms", exec_ms, "ms"},
      {"engine.fork_join_ms", fork_join_ms, "ms"},
      {"engine.rows_out", static_cast<double>(rows), "count"},
      {"engine.delta_hit_ratio", hit_ratio, "ratio"},
      {"engine.result_free_ms", op_ms(Op::kRelease), "ms"},
      {"cluster.trigger_ms", op_ms(Op::kTrigger), "ms"},
      {"cluster.trigger_p50_us", Percentile(trigger_us, 0.5), "us"},
      {"cluster.trigger_p95_us", Percentile(trigger_us, 0.95), "us"},
      {"cluster.outside_exec_ms", outside_ms, "ms"},
      {"cluster.wait_p50_ms", Percentile(wait_ms, 0.5), "ms"},
      {"cluster.mqo_shared_evals", diff(r.after.mqo.shared_evals, r.before.mqo.shared_evals),
       "count"},
      {"cluster.mqo_fanout_served",
       diff(r.after.mqo.fanout_served, r.before.mqo.fanout_served), "count"},
      {"cluster.mqo_fallbacks",
       diff(r.after.mqo.independent_fallbacks, r.before.mqo.independent_fallbacks), "count"},
      {"cluster.register_ms", register_ms, "ms"},
      {"cluster.oneshot_ms", op_ms(Op::kOneShot), "ms"},
      {"rdma.net_model_ms", net_ms, "ms"},
      {"rdma.one_sided_reads", diff(fa.one_sided_reads, fb.one_sided_reads), "count"},
      {"rdma.messages", diff(fa.messages, fb.messages), "count"},
      {"rdma.bytes",
       diff(fa.one_sided_read_bytes + fa.message_bytes,
            fb.one_sided_read_bytes + fb.message_bytes),
       "bytes"},
      {"obs.unattributed_ms", r.replay_ms - timed_ms, "ms"},
      {"obs.trace_overhead_ratio", overhead_ratio, "ratio"},
  };
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return a;
}

int Run(const Args& args) {
  const auto& workloads = Workloads();
  auto spec_it = std::find_if(workloads.begin(), workloads.end(),
                              [&](const WorkloadSpec& w) { return w.name == args.workload; });
  if (spec_it == workloads.end()) {
    Die("unknown workload '" + args.workload + "' (social, analytics, ingest)");
  }
  const WorkloadSpec& spec = *spec_it;
  const TimePoint origin = Clock::now();

  // Enough steps for kMinSamples results and one-shots and for every check
  // step, whatever --seconds asks for.
  size_t registrations = 0;
  for (const auto& c : spec.continuous) {
    registrations += c.second;
  }
  const size_t per_step = std::min(registrations, spec.oneshots_per_step);
  const size_t measured_steps = std::max(
      {(kMinSamples + per_step - 1) / per_step, kCheckSteps.back() + 1 - kWarmupSteps,
       static_cast<size_t>(args.seconds * static_cast<double>(spec.steps_per_second))});
  StringServer strings;
  const Inputs in = Generate(spec, args.seed, measured_steps, &strings);
  const double baseline_bytes = static_cast<double>(heap::live_bytes);
  const SamplePlan plan = MakeSamplePlan(spec, in, args.seed);
  std::cerr << "inputs: " << in.base.size() << " base triples, " << in.steps.size()
            << " steps, " << in.registrations.size() << " registrations ("
            << std::chrono::duration<double>(Clock::now() - origin).count() << " s)\n";

  std::vector<std::string> errors;
  Expected expected;
  {
    std::vector<Kept> kept;
    errors = CheckPass(in, plan, &strings, &expected, &kept);
    std::string self = SelfTest(kept, expected);
    if (!self.empty()) {
      errors.push_back(self);
    }
  }
  std::cerr << "check pass: " << expected.size() << " sampled results vs oracle ("
            << std::chrono::duration<double>(Clock::now() - origin).count() << " s)\n";

  Recorder rec;
  std::vector<double> setup_s;
  auto set_up_only = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Sut sut;
      setup_s.push_back(SetUp(in, &strings, nullptr, &rec, &sut));
    }
  };
  // One replay on a fresh cluster; the traced run adds a traced replay of the
  // same inputs. Each replay's own set-up is one more set-up sample.
  auto replay = [&](bool traced) {
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* attached = traced ? &registry : nullptr;
    rec.EnableSpans(traced);
    ReplayStats stats;
    Sut sut;
    setup_s.push_back(SetUp(in, &strings, attached, &rec, &sut));
    const double cap_ms = std::max(kCapFactor * args.seconds, kCapFloorSeconds) * 1000.0;
    Replay(in, plan, in.steps.size(), cap_ms, &sut, attached, /*capture_stable=*/false, &rec,
           &stats);
    rec.EnableSpans(false);
    for (const std::string& e : CheckReplay(stats.kept, expected)) {
      errors.push_back(e);
    }
    const uint64_t injected = stats.after.tuples_injected - stats.before.tuples_injected;
    if (injected != stats.tuples) {
      errors.push_back("injected " + std::to_string(injected) + " tuples, fed " +
                       std::to_string(stats.tuples));
    }
    if (stats.result_ms.size() < kMinSamples || stats.oneshot_ms.size() < kMinSamples) {
      errors.push_back("too few samples: " + std::to_string(stats.result_ms.size()) +
                       " results, " + std::to_string(stats.oneshot_ms.size()) +
                       " one-shots");
    }
    std::cerr << (traced ? "traced " : "") << "replay: " << measured_steps
              << " measured steps in " << stats.replay_ms / 1000.0 << " s"
              << (stats.cut_short ? " (cut short at the time cap)" : "") << ", "
              << stats.result_ms.size() << " results, " << stats.oneshot_ms.size()
              << " one-shots\n";
    return stats;
  };

  set_up_only(kSetups / 2);
  const ReplayStats plain = replay(false);
  set_up_only(kSetups - kSetups / 2);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"ingest_tuples_per_s", plain.throughput(), "1/s"},
        {"result_p50_ms", Percentile(plain.result_ms, 0.5), "ms"},
        {"result_p95_ms", Percentile(plain.result_ms, 0.95), "ms"},
        {"oneshot_p50_ms", Percentile(plain.oneshot_ms, 0.5), "ms"},
        {"oneshot_p95_ms", Percentile(plain.oneshot_ms, 0.95), "ms"},
        {"peak_mem_mb",
         (Percentile(plain.step_peak_bytes, 0.5) - baseline_bytes) / (1024.0 * 1024.0), "MB"},
        {"success_rate",
         static_cast<double>(rec.attempted() - rec.failed()) /
             static_cast<double>(rec.attempted()),
         "ratio"},
    };
  } else {
    const ReplayStats traced = replay(true);
    const double ratio = traced.throughput() / plain.throughput();
    metrics = LayerMetrics(rec.spans(), traced, ratio, &errors);
    std::filesystem::create_directories(args.trace_dir);
    WriteSpans(args.trace_dir + "/" + spec.name + ".spans.jsonl", rec.spans(), origin);
  }

  for (const std::string& e : errors) {
    std::cerr << "CHECK FAILED: " << e << "\n";
  }
  std::cerr << "set-ups (s):";
  for (double s : setup_s) {
    std::cerr << " " << s;
  }
  std::cerr << "\n";
  PrintResult(errors.empty(), rec.attempted(), rec.failed(), metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wukongs::perfbench

int main(int argc, char** argv) {
  return wukongs::perfbench::Run(wukongs::perfbench::ParseArgs(argc, argv));
}
