// Shared harness for the paper-reproduction benches.
//
// Every bench binary prints (a) the network/cost model in effect, (b) the
// workload scale, and (c) a table shaped like the paper's. Absolute numbers
// are not expected to match the paper (simulated fabric, scaled datasets);
// the shape — who wins, by roughly what factor — is the reproduction target.
// EXPERIMENTS.md records paper-vs-measured for every row.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/baseline_streams.h"
#include "src/cluster/cluster.h"
#include "src/common/histogram.h"
#include "src/common/table_printer.h"
#include "src/obs/metrics.h"
#include "src/sparql/parser.h"
#include "src/workloads/lsbench.h"

namespace wukongs {
namespace bench {

// One LSBench deployment: a Wukong+S cluster fed with streams, plus the
// identical workload captured for baseline engines (initial graph + full
// per-stream tuple logs).
struct LsEnvironment {
  std::unique_ptr<StringServer> strings;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<LsBench> bench;
  std::map<std::string, StreamTupleVec> captured;  // Stream name -> tuples.
  StreamTime fed_to_ms = 0;

  static LsEnvironment Create(uint32_t nodes, LsBenchConfig config,
                              StreamTime feed_to_ms,
                              ClusterConfig cluster_config = {}) {
    LsEnvironment env;
    env.strings = std::make_unique<StringServer>();
    cluster_config.nodes = nodes;
    env.cluster = std::make_unique<Cluster>(cluster_config, env.strings.get());
    env.bench = std::make_unique<LsBench>(env.cluster.get(), config);
    env.bench->SetTee([&env](const std::string& name, const StreamTupleVec& tuples) {
      auto& log = env.captured[name];
      log.insert(log.end(), tuples.begin(), tuples.end());
    });
    Status s = env.bench->Setup();
    if (!s.ok()) {
      std::cerr << "LSBench setup failed: " << s.ToString() << "\n";
      std::abort();
    }
    s = env.bench->FeedInterval(0, feed_to_ms);
    if (!s.ok()) {
      std::cerr << "LSBench feeding failed: " << s.ToString() << "\n";
      std::abort();
    }
    env.fed_to_ms = feed_to_ms;
    return env;
  }

  // Loads the captured workload into a BaselineStreams instance.
  void FillBaselineStreams(BaselineStreams* streams) const {
    for (const char* name :
         {"PO_Stream", "POL_Stream", "PH_Stream", "PHL_Stream", "GPS_Stream"}) {
      auto id = streams->Define(name);
      if (id.ok()) {
        auto it = captured.find(name);
        if (it != captured.end()) {
          Status s = streams->Feed(*id, it->second);
          if (!s.ok()) {
            std::cerr << "baseline feed failed: " << s.ToString() << "\n";
            std::abort();
          }
        }
      }
    }
  }
};

// Median latency of a continuous query executed at `samples` successive
// window ends (paper: median of one hundred runs).
inline Histogram MeasureContinuous(Cluster* cluster, Cluster::ContinuousHandle h,
                                   StreamTime first_end_ms, StreamTime step_ms,
                                   int samples) {
  Histogram hist;
  for (int i = 0; i < samples; ++i) {
    StreamTime end = first_end_ms + static_cast<StreamTime>(i) * step_ms;
    auto exec = cluster->ExecuteContinuousAt(h, end);
    if (!exec.ok()) {
      std::cerr << "continuous execution failed: " << exec.status().ToString()
                << "\n";
      std::abort();
    }
    hist.Add(exec->latency_ms());
  }
  return hist;
}

// Same measurement against any engine exposed as a callable
// (StreamTime end) -> StatusOr<QueryExecution>. Returns an empty histogram if
// the engine reports Unimplemented (rendered as "x" in tables).
template <typename Fn>
Histogram MeasureEngine(Fn&& execute, StreamTime first_end_ms, StreamTime step_ms,
                        int samples, bool* unsupported = nullptr) {
  Histogram hist;
  if (unsupported != nullptr) {
    *unsupported = false;
  }
  for (int i = 0; i < samples; ++i) {
    StreamTime end = first_end_ms + static_cast<StreamTime>(i) * step_ms;
    auto exec = execute(end);
    if (!exec.ok()) {
      if (exec.status().code() == StatusCode::kUnimplemented &&
          unsupported != nullptr) {
        *unsupported = true;
        return hist;
      }
      std::cerr << "engine execution failed: " << exec.status().ToString() << "\n";
      std::abort();
    }
    hist.Add(exec->latency_ms());
  }
  return hist;
}

// --- machine-readable artifacts (DESIGN.md §5.8) -------------------------
//
// Every bench accepts `--json <path>`; when given, the numbers behind the
// printed table are mirrored into a MetricsRegistry (full latency
// distributions as histograms, scalars as gauges/counters) and dumped as
// `{"bench": <name>, "metrics": <registry JSON>}` so CI can upload them and
// runs can be diffed without scraping stdout.

inline std::string JsonOutPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      return argv[i + 1];
    }
  }
  return {};
}

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == flag) {
      return true;
    }
  }
  return false;
}

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

class BenchArtifact {
 public:
  explicit BenchArtifact(std::string name) : name_(std::move(name)) {}

  // Replays a measured latency distribution into the registry so the JSON
  // carries p50/p90/p99/max, not just the one number the table printed.
  void RecordLatencies(const std::string& metric, const MetricLabels& labels,
                       const Histogram& hist) {
    obs::HistogramMetric* h =
        registry_.GetHistogram(obs::MetricsRegistry::Labeled(metric, labels));
    for (double v : hist.samples()) {
      h->Observe(v);
    }
  }

  void SetValue(const std::string& metric, const MetricLabels& labels,
                double value) {
    registry_.GetGauge(obs::MetricsRegistry::Labeled(metric, labels))
        ->Set(value);
  }

  // Adds `n` to a counter of the artifact's own registry.
  void AddCount(const std::string& metric, const MetricLabels& labels,
                uint64_t n) {
    registry_.GetCounter(obs::MetricsRegistry::Labeled(metric, labels))
        ->Add(n);
  }

  // Folds a live registry (e.g. the cluster's, when the bench ran with
  // observability attached) into the artifact.
  void MergeRegistry(const obs::MetricsRegistry& other) {
    registry_.MergeFrom(other);
  }

  // No-op when `path` is empty (bench invoked without --json).
  void Write(const std::string& path) const {
    if (path.empty()) {
      return;
    }
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write bench artifact to " << path << "\n";
      std::abort();
    }
    out << "{\"bench\":\"" << name_ << "\",\"metrics\":" << registry_.ToJson()
        << "}\n";
    std::cout << "\nartifact: " << path << "\n";
  }

 private:
  std::string name_;
  obs::MetricsRegistry registry_;
};

inline void PrintHeader(const std::string& title, const NetworkModel& model) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "cost model: " << model.DebugString() << "\n";
}

inline Query MustParse(const std::string& text, StringServer* strings) {
  auto q = ParseQuery(text, strings);
  if (!q.ok()) {
    std::cerr << "query parse failed: " << q.status().ToString() << "\nquery:\n"
              << text << "\n";
    std::abort();
  }
  return std::move(*q);
}

}  // namespace bench
}  // namespace wukongs

#endif  // BENCH_BENCH_COMMON_H_
