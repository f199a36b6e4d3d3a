// Worker pool: the query-engine layer's thread model (paper §3: "The query
// engine layer binds a worker thread on each core with a logical task queue
// to continuously handle requests").
//
// Callers submit continuous executions and one-shot queries; workers drain
// the queue concurrently and fulfil futures. The pool exists so deployments
// can actually serve concurrent clients — the benches derive throughput
// analytically instead (one core cannot host 8x16 workers), but the tests
// drive this pool for real.

#ifndef SRC_CLUSTER_WORKER_POOL_H_
#define SRC_CLUSTER_WORKER_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/overload/admission_controller.h"
#include "src/testkit/schedule_controller.h"

namespace wukongs {

class WorkerPool {
 public:
  // `schedule` (optional, non-owning): a schedule fuzzer that picks which
  // queued task a worker pops — the pool promises completion, not FIFO, so
  // any dequeue order is a legal schedule worth testing.
  WorkerPool(Cluster* cluster, uint32_t threads,
             testkit::ScheduleController* schedule = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Admission control (optional, non-owning; must outlive the pool). When
  // set, one-shot submissions past the concurrency cap or an unmeetable
  // deadline are rejected fast with kResourceExhausted instead of queueing.
  void SetAdmissionController(AdmissionController* admission);

  // Enqueues the execution of a registered continuous query for the window
  // ending at `end_ms`. `deadline_ms` (0 = none) is the trigger's latency
  // budget, activated on the worker thread that executes the task (the
  // budget prices modeled work, not queue residency).
  std::future<StatusOr<QueryExecution>> SubmitContinuous(
      Cluster::ContinuousHandle handle, StreamTime end_ms,
      double deadline_ms = 0.0);

  // Enqueues a one-shot query. `deadline_ms` (0 = none) is the caller's
  // latency budget: checked by the admission controller at the door
  // (rejections carry a retry-after hint) and carried into the execution,
  // where an exhausted budget cancels remaining remote work.
  std::future<StatusOr<QueryExecution>> SubmitOneShot(Query query, NodeId home = 0,
                                                      double deadline_ms = 0.0);

  // Tasks accepted but not yet finished.
  size_t Pending() const;
  // Blocks until the queue is empty and all workers are idle.
  void Drain();

  // Tasks run to completion: a view over the registry counter the pool
  // bumps. Pools on one registry (one cluster, or clusters sharing
  // ClusterConfig::metrics) share that counter, so each then reports the sum.
  size_t executed() const { return obs_executed_->value(); }

 private:
  void WorkerLoop();

  Cluster* cluster_;
  AdmissionController* admission_ = nullptr;
  testkit::ScheduleController* schedule_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable drained_;
  std::deque<std::packaged_task<StatusOr<QueryExecution>()>> queue_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
  // Resolved from Cluster::metrics() at construction (never null).
  obs::Counter* obs_submitted_ = nullptr;
  obs::Counter* obs_executed_ = nullptr;
  obs::Counter* obs_rejected_ = nullptr;
  // Rejection split by admission reason (concurrency cap vs unmeetable
  // deadline); obs_rejected_ stays the unlabeled total.
  obs::Counter* obs_rejected_concurrency_ = nullptr;
  obs::Counter* obs_rejected_deadline_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace wukongs

#endif  // SRC_CLUSTER_WORKER_POOL_H_
