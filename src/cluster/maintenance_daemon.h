// Background garbage collection (paper §4.1: "The GC thread will be
// periodically invoked in the background").
//
// The daemon periodically runs cluster maintenance — snapshot-marker
// collapse plus stream-index and transient-slice eviction — using a caller
// supplied horizon function ("the earliest stream time any registered window
// can still reach", typically newest time minus the largest window range).

#ifndef SRC_CLUSTER_MAINTENANCE_DAEMON_H_
#define SRC_CLUSTER_MAINTENANCE_DAEMON_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "src/cluster/cluster.h"
#include "src/testkit/schedule_controller.h"

namespace wukongs {

class MaintenanceDaemon {
 public:
  using HorizonFn = std::function<StreamTime()>;

  // `schedule` (optional, non-owning): a schedule fuzzer that jitters the
  // periodic wait so GC passes land at seeded-random points relative to
  // injection and queries, instead of only on the metronome.
  MaintenanceDaemon(Cluster* cluster, HorizonFn horizon,
                    std::chrono::milliseconds period,
                    testkit::ScheduleController* schedule = nullptr);
  ~MaintenanceDaemon();

  MaintenanceDaemon(const MaintenanceDaemon&) = delete;
  MaintenanceDaemon& operator=(const MaintenanceDaemon&) = delete;

  // Runs one maintenance pass immediately (also callable while running).
  void RunOnce();

  // Pressure hook: wakes the daemon thread for an immediate pass instead of
  // waiting out the period — wired to transient-budget exhaustion so GC
  // reacts to overload the moment it appears. Safe from any thread.
  void Kick();

  // Views over the registry counters the daemon bumps. Daemons on one
  // registry (one cluster, or clusters sharing ClusterConfig::metrics) share
  // them, so each then reports the sum.
  size_t passes() const { return obs_passes_->value(); }
  size_t kicks() const { return obs_kicks_->value(); }

 private:
  void Loop(std::chrono::milliseconds period);

  Cluster* cluster_;
  HorizonFn horizon_;
  testkit::ScheduleController* schedule_;
  // Resolved from Cluster::metrics() at construction (never null).
  obs::Counter* obs_passes_ = nullptr;
  obs::Counter* obs_kicks_ = nullptr;
  std::mutex mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  bool kicked_ = false;
  std::thread thread_;
};

}  // namespace wukongs

#endif  // SRC_CLUSTER_MAINTENANCE_DAEMON_H_
