#include "src/cluster/maintenance_daemon.h"

namespace wukongs {

MaintenanceDaemon::MaintenanceDaemon(Cluster* cluster, HorizonFn horizon,
                                     std::chrono::milliseconds period,
                                     testkit::ScheduleController* schedule)
    : cluster_(cluster), horizon_(std::move(horizon)), schedule_(schedule) {
  obs::MetricsRegistry* m = cluster_->metrics();
  obs_passes_ = m->GetCounter("wukongs_maintenance_passes_total");
  obs_kicks_ = m->GetCounter("wukongs_maintenance_kicks_total");
  thread_ = std::thread([this, period] { Loop(period); });
}

MaintenanceDaemon::~MaintenanceDaemon() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void MaintenanceDaemon::RunOnce() {
  cluster_->RunMaintenance(horizon_());
  Bump(obs_passes_);
}

void MaintenanceDaemon::Kick() {
  {
    std::lock_guard lock(mu_);
    kicked_ = true;
  }
  Bump(obs_kicks_);
  stop_cv_.notify_all();
}

void MaintenanceDaemon::Loop(std::chrono::milliseconds period) {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    std::chrono::milliseconds wait = period;
    if (schedule_ != nullptr) {
      wait += schedule_->MaintenanceJitter(period);
    }
    stop_cv_.wait_for(lock, wait, [this] { return stopping_ || kicked_; });
    if (stopping_) {
      return;
    }
    kicked_ = false;
    lock.unlock();
    RunOnce();
    lock.lock();
  }
}

}  // namespace wukongs
