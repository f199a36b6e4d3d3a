#include "src/cluster/worker_pool.h"

#include <algorithm>

namespace wukongs {

WorkerPool::WorkerPool(Cluster* cluster, uint32_t threads,
                       testkit::ScheduleController* schedule)
    : cluster_(cluster), schedule_(schedule) {
  obs::MetricsRegistry* m = cluster_->metrics();
  obs_submitted_ = m->GetCounter("wukongs_pool_tasks_submitted_total");
  obs_executed_ = m->GetCounter("wukongs_pool_tasks_executed_total");
  obs_rejected_ = m->GetCounter("wukongs_query_rejections_total");
  obs_rejected_concurrency_ = m->GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_query_rejections_by_reason_total", {{"reason", "concurrency"}}));
  obs_rejected_deadline_ = m->GetCounter(obs::MetricsRegistry::Labeled(
      "wukongs_query_rejections_by_reason_total", {{"reason", "deadline"}}));
  workers_.reserve(std::max(threads, 1u));
  for (uint32_t t = 0; t < std::max(threads, 1u); ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

std::future<StatusOr<QueryExecution>> WorkerPool::SubmitContinuous(
    Cluster::ContinuousHandle handle, StreamTime end_ms, double deadline_ms) {
  Bump(obs_submitted_);
  std::packaged_task<StatusOr<QueryExecution>()> task(
      [this, handle, end_ms, deadline_ms] {
        return cluster_->ExecuteContinuousAt(handle, end_ms, deadline_ms);
      });
  auto future = task.get_future();
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return future;
}

void WorkerPool::SetAdmissionController(AdmissionController* admission) {
  admission_ = admission;
}

std::future<StatusOr<QueryExecution>> WorkerPool::SubmitOneShot(Query query,
                                                                NodeId home,
                                                                double deadline_ms) {
  if (admission_ != nullptr) {
    AdmissionRejection rejection;
    Status verdict = admission_->Admit(deadline_ms, &rejection);
    if (!verdict.ok()) {
      Bump(obs_rejected_);
      Bump(rejection.reason == AdmissionRejection::Reason::kDeadline
               ? obs_rejected_deadline_
               : obs_rejected_concurrency_);
      // Fast rejection: the future is ready before the caller even waits —
      // no worker slot, no queue residency. The status carries a
      // retry_after_ms hint derived from the controller's wait estimate.
      std::promise<StatusOr<QueryExecution>> rejected;
      rejected.set_value(StatusOr<QueryExecution>(std::move(verdict)));
      return rejected.get_future();
    }
  }
  Bump(obs_submitted_);
  std::packaged_task<StatusOr<QueryExecution>()> task(
      [this, q = std::move(query), home, deadline_ms] {
        auto exec = cluster_->OneShotParsed(q, home, deadline_ms);
        if (admission_ != nullptr) {
          admission_->Complete(exec.ok() ? exec->latency_ms() : 0.0);
        }
        return exec;
      });
  auto future = task.get_future();
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
  return future;
}

size_t WorkerPool::Pending() const {
  std::lock_guard lock(mu_);
  return queue_.size() + in_flight_;
}

void WorkerPool::Drain() {
  std::unique_lock lock(mu_);
  drained_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void WorkerPool::WorkerLoop() {
  while (true) {
    std::packaged_task<StatusOr<QueryExecution>()> task;
    {
      std::unique_lock lock(mu_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Stopping and nothing left to do.
      }
      size_t pick = schedule_ != nullptr ? schedule_->PickIndex(queue_.size()) : 0;
      task = std::move(queue_[pick]);
      queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(pick));
      ++in_flight_;
    }
    task();
    Bump(obs_executed_);
    {
      std::lock_guard lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        drained_.notify_all();
      }
    }
  }
}

}  // namespace wukongs
