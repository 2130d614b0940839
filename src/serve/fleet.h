// The multi-tenant serving fleet: N per-tenant EstimationServer shards
// behind a tenant/predicate router, sharing one dispatch ThreadPool and ONE
// prioritized background-adaptation executor — so a 32-tenant deployment
// runs on O(cores) threads instead of O(tenants) (per-tenant dispatcher +
// adaptation threads do not scale past a few tenants on one box).
//
// What the fleet adds over a loose collection of servers:
//   - Routing: EstimateRequest::tenant_id → shard via ShardRouter (exact),
//     or predicate-hash routing (EstimateHashed) for callers that partition
//     one logical workload without explicit tenant ids.
//   - Shared adaptation: every tenant's SubmitInvocation lands on one
//     AdaptationExecutor, scheduled by drift severity × traffic with aging
//     (starvation-free); at most one pass per tenant in flight.
//   - Isolation: each tenant gets its own micro-batcher queue
//     (tenant_queue_depth) plus an optional shed budget — a saturated
//     tenant is refused (Unavailable) before it can park caller threads or
//     consume fleet-wide headroom; EstimateRequest::priority > 0 bypasses
//     the budget.
//   - Fleet epoch: one atomic bumped on EVERY tenant's publish. Readers of
//     any tenant keep serving lock-free from their own SnapshotStore while
//     another tenant hot-swaps — the epoch is how cross-tenant observers
//     (benchmarks, cache invalidation) notice "something swapped" without
//     polling N stores.
//
// Lifecycle: AddTenant/SetEvalSet (setup phase, single-threaded) → Start()
// → concurrent Estimate/EstimateAsync/SubmitInvocation from any thread →
// Stop() (executor first, so no adaptation pass touches a stopping server).
#ifndef WARPER_SERVE_FLEET_H_
#define WARPER_SERVE_FLEET_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/warper.h"
#include "serve/adapt_executor.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/server.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace warper::serve {

class ServingFleet {
 public:
  // `config` is the fleet-wide ServeConfig; each tenant serves with a
  // per-tenant derivation (queue_capacity = tenant_queue_depth). Dispatch
  // runs on `dispatch_pool` (must outlive the fleet), or on
  // util::ThreadPool::Global() when null.
  explicit ServingFleet(const core::ServeConfig& config,
                        util::ThreadPool* dispatch_pool = nullptr);
  ~ServingFleet();

  ServingFleet(const ServingFleet&) = delete;
  ServingFleet& operator=(const ServingFleet&) = delete;

  // Registers a tenant before Start(). `warper` must be Initialize()d and
  // outlive the fleet; `tenant_id` must be unique. Setup phase only (not
  // thread-safe).
  Status AddTenant(uint64_t tenant_id, core::Warper* warper);
  // Installs a tenant's publish-gate eval set (see
  // EstimationServer::SetEvalSet). Before Start() only.
  Status SetEvalSet(uint64_t tenant_id,
                    std::vector<ce::LabeledExample> eval_set);

  // Validates the fleet config, freezes the router, starts the shared
  // executor and every tenant's server. InvalidArgument for a bad config,
  // FailedPrecondition with zero tenants / double Start.
  Status Start();
  // Stops the shared executor FIRST (joining in-flight adaptation passes),
  // then every tenant's server. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Serves `request` on the shard owning request.tenant_id. NotFound for an
  // unregistered tenant; Unavailable when the tenant is over its shed
  // budget (priority > 0 bypasses); FailedPrecondition when not running.
  Result<EstimateResponse> Estimate(const EstimateRequest& request);
  std::future<Result<EstimateResponse>> EstimateAsync(EstimateRequest request);
  // Predicate-hash routing: ignores request.tenant_id and routes by FNV-1a
  // over the features (ShardRouter::ShardForFeatures). The response's
  // tenant_id reports the shard that actually served it.
  Result<EstimateResponse> EstimateHashed(const EstimateRequest& request);

  // Hands `invocation` to the shared executor as tenant `tenant_id`'s next
  // adaptation pass, prioritized by that tenant's live drift severity ×
  // traffic signals.
  std::future<Result<AdaptationOutcome>> SubmitInvocation(
      uint64_t tenant_id, core::Warper::Invocation invocation);

  // Feeds one executed query's true cardinality back to the tenant's
  // template tracker (EstimationServer::ReportObservation). NotFound for an
  // unregistered tenant.
  Status ReportObservation(uint64_t tenant_id,
                           const std::vector<double>& features, double actual);
  // The tenant's k worst templates by EWMA error — the per-tenant offender
  // view the shared executor's priority probes key off. NotFound (empty
  // result unavailable via Status) for an unregistered tenant.
  Result<std::vector<core::TemplateTracker::Offender>> TenantTopOffenders(
      uint64_t tenant_id, size_t k);

  // Fleet-wide snapshot epoch: total publishes across all tenants since
  // Start. One relaxed-atomic read; never blocks a publisher or reader.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  size_t NumTenants() const { return tenants_.size(); }
  // The tenant's server, for inspection (version, store, signals); null for
  // unregistered ids.
  EstimationServer* tenant(uint64_t tenant_id);
  const ShardRouter& router() const { return router_; }
  AdaptationExecutor* executor() { return &executor_; }

 private:
  struct TenantEntry {
    uint64_t id = 0;
    std::unique_ptr<EstimationServer> server;
    util::Counter* requests = nullptr;  // serve.tenant.requests.<id>
    util::Counter* shed = nullptr;      // serve.tenant.shed.<id>
  };

  // Routing + shed-budget admission; the entry to delegate to, or the
  // refusal status.
  Result<TenantEntry*> Admit(const EstimateRequest& request);

  core::ServeConfig config_;
  util::ThreadPool* dispatch_pool_;
  AdaptationExecutor executor_;
  ShardRouter router_;
  std::atomic<uint64_t> epoch_{0};
  // Indexed by shard (router maps tenant i → shard i in registration
  // order). Mutated only during setup; immutable once running_ is
  // published, so the serving hot path reads it lock-free.
  std::vector<std::unique_ptr<TenantEntry>> tenants_;

  // Published by Start() (release) after the table above is final; the hot
  // path gates on it (acquire) instead of taking a lock.
  std::atomic<bool> running_{false};
  mutable util::Mutex mu_;
  bool started_ WARPER_GUARDED_BY(mu_) = false;
  bool stop_ WARPER_GUARDED_BY(mu_) = false;
};

}  // namespace warper::serve

#endif  // WARPER_SERVE_FLEET_H_
