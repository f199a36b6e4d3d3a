// Unified metrics registry (DESIGN.md §5.8).
//
// Before this layer, every subsystem kept its own ad-hoc counters —
// OverloadStats atomics, FaultStats, FabricStats, the shed ledger — each with
// its own accessor and no common export. The registry gives them one home:
//
//   Counter    monotone uint64; merge = sum. Event counts (shed tuples,
//              retries, rejections, injected batches).
//   Gauge      last-written double; merge = max. Levels sampled at export
//              time (phi suspicion, VTS lag, pressure, memory bytes).
//   HistogramMetric
//              mergeable log-linear BucketHistogram; merge = bucket-count
//              addition (exact, associative, commutative). Distributions
//              (latency, batch sizes).
//
// Metric names follow Prometheus conventions: `wukongs_<noun>_total` for
// counters, labels inline in the name (`wukongs_vts_lag_batches{stream="S0"}`).
// TextDump() emits a deterministic Prometheus-style exposition (sorted by
// name); MergeFrom() folds one node's registry into a cluster-wide view.
//
// Handles returned by GetCounter/GetGauge/GetHistogram are stable for the
// registry's lifetime, so hot paths resolve them once at construction and pay
// one atomic add per event thereafter. A registry is also the single home of
// the counts it holds: a Cluster keeps its event counters here (in the
// registry attached through ClusterConfig::metrics, or in one it owns) and
// its typed stats accessors read them back, so a counter and its stats field
// can never disagree. Tracing (trace.h) is the only opt-in part of the layer.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"

namespace wukongs::obs {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // Overwrite, for counters mirrored from an external monotone source
  // (scraping FabricStats into the registry) rather than incremented in place.
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class HistogramMetric {
 public:
  void Observe(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Add(v);
  }
  BucketHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hist_;
  }
  void MergeInto(const BucketHistogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    hist_.Merge(other);
  }

 private:
  mutable std::mutex mu_;
  BucketHistogram hist_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned pointers remain valid for the registry lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  HistogramMetric* GetHistogram(const std::string& name);

  // `name{k1="v1",k2="v2"}`; labels are emitted in the order given.
  static std::string Labeled(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& labels);

  // Cluster-wide merge: counters sum, gauges take the max (a merged gauge
  // reports the worst level across nodes), histograms merge exactly.
  void MergeFrom(const MetricsRegistry& other);

  // Deterministic Prometheus-style exposition, sorted by metric name. A
  // non-empty `name_filter` restricts output to names containing it (used for
  // per-node views over node-labeled metrics).
  std::string TextDump(const std::string& name_filter = "") const;

  // Deterministic JSON object {"counters":{...},"gauges":{...},
  // "histograms":{name:{count,sum,mean,p50,p90,p99,max,overflow}}} — the
  // payload bench artifacts embed.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

// Renders a double deterministically for dumps: integers print without a
// fractional part, everything else with up to 9 significant digits.
std::string FormatMetricValue(double v);

// Hot-path increment for a pre-resolved (never null) handle. Found by ADL on
// the Counter* argument, so wiring sites call it unqualified.
inline void Bump(Counter* c, uint64_t n = 1) {
  if (n > 0) {
    c->Add(n);
  }
}

}  // namespace wukongs::obs

#endif  // SRC_OBS_METRICS_H_
