// The estimation server: one tenant shard of a ServingFleet — the
// concurrent front of one Warper controller.
//
// It composes the serving pieces — SnapshotStore (versioned immutable model
// bundles), MicroBatcher (coalesced inference) and AdmissionController
// (bounded queue, deadlines). Optimizer traffic calls Estimate() /
// EstimateAsync() with an EstimateRequest and only ever touches published
// snapshots; SubmitInvocation() hands new workload to the fleet's shared
// background adaptation executor, which runs Warper::Invoke, evaluates the
// adapted model against a publish gate, and either publishes the next
// version or rolls M and the learned modules back to the last good one
// (§3.4).
//
// Threading: the server owns no thread. Adaptation multiplexes onto the
// fleet's prioritized executor and batch dispatch onto the fleet's
// util::ThreadPool, so a 32-tenant fleet runs on O(cores) threads, not
// O(tenants). A single-tenant deployment is a ServingFleet with one tenant.
#ifndef WARPER_SERVE_SERVER_H_
#define WARPER_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/warper.h"
#include "serve/adapt_executor.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::serve {

class EstimationServer {
 public:
  // `config` is the fleet's per-tenant derivation of its ServeConfig.
  // Adaptation runs on the shared `executor`, which must be stopped BEFORE
  // the server (the fleet enforces this ordering); batches drain on
  // `dispatch_pool`; every publish bumps `fleet_epoch`, so cross-tenant
  // observers can detect "some tenant swapped" with one atomic load.
  // `tenant_id` is echoed into responses and names the per-tenant metrics
  // (serve.tenant.{rollbacks,publishes}.<id>, warper.drift_severity.<id>).
  // Everything passed must outlive the server; `warper` must be
  // Initialize()d before Start().
  EstimationServer(core::Warper* warper, const core::ServeConfig& config,
                   AdaptationExecutor* executor,
                   util::ThreadPool* dispatch_pool,
                   std::atomic<uint64_t>* fleet_epoch, uint64_t tenant_id);
  ~EstimationServer();

  EstimationServer(const EstimationServer&) = delete;
  EstimationServer& operator=(const EstimationServer&) = delete;

  // Optional fixed benchmark for the publish gate. With an eval set the
  // gate compares ModelGmq on these examples before/after each adaptation;
  // without one it falls back to the invocation's own recent-window GMQ.
  // Must be called before Start().
  Status SetEvalSet(std::vector<ce::LabeledExample> eval_set);

  // Validates the serving config, publishes version 1 (a clone of the
  // current model + captured modules) and starts the batcher.
  // InvalidArgument for a bad ServeConfig; FailedPrecondition when the
  // warper is uninitialized or its model does not support Clone().
  Status Start();
  // Stops the batcher; still-queued requests are answered with
  // Unavailable. Stop via the fleet, which stops the shared executor first.
  // Idempotent.
  void Stop();
  bool running() const;

  // Estimate against the current snapshot — see MicroBatcher for the
  // batched/inline/async semantics. Valid only between Start() and Stop().
  Result<EstimateResponse> Estimate(const EstimateRequest& request);
  std::future<Result<EstimateResponse>> EstimateAsync(EstimateRequest request);

  // Hands an invocation to the shared adaptation executor. The future
  // resolves once the pass (including the publish-or-rollback decision)
  // completes. FailedPrecondition when the server is not running.
  std::future<Result<AdaptationOutcome>> SubmitInvocation(
      core::Warper::Invocation invocation);

  const SnapshotStore& store() const { return store_; }
  uint64_t CurrentVersion() const { return store_.CurrentVersion(); }
  MicroBatcher* batcher() { return batcher_.get(); }

  // --- Priority signals for the shared executor (wait-free reads). ---
  // Last drift severity observed by an adaptation pass of this tenant
  // (InvocationResult::drift_severity); 0 until the first pass.
  double drift_severity() const {
    return drift_severity_.load(std::memory_order_relaxed);
  }
  // Requests this tenant served since its last adaptation pass finished.
  double traffic_since_adapt() const;
  // Unhealthy traffic share of this tenant's template tracker, refreshed on
  // every adaptation pass and every ReportObservation (∈ [0, 1]).
  double offender_pressure() const {
    return offender_pressure_.load(std::memory_order_relaxed);
  }

  // --- Per-template error feedback (the serving-path labeled estimates). ---
  // Feeds one executed query's true cardinality back to the tenant's
  // template tracker: the error recorded is against the CURRENT serving
  // snapshot's estimate, i.e. what the optimizer actually saw. Thread-safe;
  // callable from any thread while the server runs. FailedPrecondition when
  // the server is not running, InvalidArgument on a feature-dim mismatch.
  Status ReportObservation(const std::vector<double>& features, double actual);
  // The tenant's k worst templates (TemplateTracker::TopOffenders).
  std::vector<core::TemplateTracker::Offender> TopOffenders(size_t k) const {
    return warper_->tracker().TopOffenders(k);
  }

 private:
  // One pass: Invoke, gate, publish or roll back. Runs on an executor
  // worker.
  Result<AdaptationOutcome> Adapt(const core::Warper::Invocation& invocation);
  // Clone M + capture modules at the current warper state and publish it as
  // the next version with gate score `gmq`. Bumps the fleet epoch.
  Status PublishCurrent(double gmq);

  core::Warper* warper_;
  core::ServeConfig config_;
  AdaptationExecutor* executor_;
  util::ThreadPool* dispatch_pool_;
  std::atomic<uint64_t>* fleet_epoch_;
  uint64_t tenant_id_;
  // Written by SetEvalSet strictly before Start() (enforced with a Status);
  // immutable while adaptation passes run, so Adapt reads it unlocked.
  std::vector<ce::LabeledExample> eval_set_;
  SnapshotStore store_;
  std::unique_ptr<MicroBatcher> batcher_;
  // Touched by Start() (before any executor worker can run a pass for this
  // server) and then only under the single in-flight pass per server —
  // never concurrently.
  uint64_t next_version_ = 1;

  std::atomic<double> drift_severity_{0.0};
  std::atomic<double> offender_pressure_{0.0};
  std::atomic<uint64_t> served_at_last_adapt_{0};
  // Per-tenant metric handles.
  util::Counter* tenant_rollbacks_;
  util::Counter* tenant_publishes_;
  // Per-tenant drift severity gauge (warper.drift_severity.<id>): keeps the
  // executor's priority probe and the offender view telling one story —
  // the global warper.drift_severity gauge only shows the LAST tenant that
  // adapted.
  util::Gauge* tenant_drift_severity_;

  mutable util::Mutex mu_;
  bool started_ WARPER_GUARDED_BY(mu_) = false;
  bool stop_ WARPER_GUARDED_BY(mu_) = false;
};

}  // namespace warper::serve

#endif  // WARPER_SERVE_SERVER_H_
