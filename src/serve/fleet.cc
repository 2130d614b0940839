#include "serve/fleet.h"

#include <utility>

#include "util/metrics.h"

namespace warper::serve {
namespace {

struct FleetMetrics {
  util::Gauge* tenants = util::Metrics().GetGauge("serve.fleet.tenants");
};

FleetMetrics& GetFleetMetrics() {
  static FleetMetrics* metrics = new FleetMetrics();
  return *metrics;
}

}  // namespace

ServingFleet::ServingFleet(const core::ServeConfig& config,
                           util::ThreadPool* dispatch_pool)
    : config_(config),
      dispatch_pool_(dispatch_pool != nullptr ? dispatch_pool
                                              : &util::ThreadPool::Global()),
      executor_(config) {}

ServingFleet::~ServingFleet() { Stop(); }

Status ServingFleet::AddTenant(uint64_t tenant_id, core::Warper* warper) {
  if (warper == nullptr) {
    return Status::InvalidArgument("AddTenant: warper is null");
  }
  {
    util::MutexLock lk(&mu_);
    if (started_ || stop_) {
      return Status::FailedPrecondition(
          "ServingFleet::AddTenant: fleet already started");
    }
  }
  WARPER_RETURN_NOT_OK(router_.AddTenant(tenant_id, tenants_.size()));

  auto entry = std::make_unique<TenantEntry>();
  entry->id = tenant_id;
  entry->requests = util::Metrics().GetCounter(
      TenantMetricName("serve.tenant.requests", tenant_id));
  entry->shed = util::Metrics().GetCounter(
      TenantMetricName("serve.tenant.shed", tenant_id));

  // Per-tenant derivation: each tenant gets its own bounded queue so one
  // saturated tenant cannot consume the whole fleet's queueing headroom.
  core::ServeConfig tenant_config = config_;
  tenant_config.queue_capacity = config_.tenant_queue_depth;
  entry->server = std::make_unique<EstimationServer>(
      warper, tenant_config, &executor_, dispatch_pool_, &epoch_, tenant_id);
  tenants_.push_back(std::move(entry));
  return Status::OK();
}

Status ServingFleet::SetEvalSet(uint64_t tenant_id,
                                std::vector<ce::LabeledExample> eval_set) {
  EstimationServer* server = tenant(tenant_id);
  if (server == nullptr) {
    return Status::NotFound("tenant " + std::to_string(tenant_id) +
                            " is not registered");
  }
  return server->SetEvalSet(std::move(eval_set));
}

Status ServingFleet::Start() {
  util::MutexLock lk(&mu_);
  if (started_ || stop_) {
    return Status::FailedPrecondition(
        "ServingFleet::Start: already started or stopped");
  }
  if (tenants_.empty()) {
    return Status::FailedPrecondition("ServingFleet has no tenants");
  }
  WARPER_RETURN_NOT_OK(config_.Validate());
  router_.Freeze();
  WARPER_RETURN_NOT_OK(executor_.Start());
  for (std::unique_ptr<TenantEntry>& entry : tenants_) {
    Status status = entry->server->Start();
    if (!status.ok()) {
      // Unwind already-started siblings so Start is all-or-nothing.
      executor_.Stop();
      for (std::unique_ptr<TenantEntry>& other : tenants_) {
        other->server->Stop();
      }
      return status;
    }
  }
  GetFleetMetrics().tenants->Set(static_cast<double>(tenants_.size()));
  started_ = true;
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void ServingFleet::Stop() {
  {
    util::MutexLock lk(&mu_);
    if (stop_) return;
    stop_ = true;
  }
  running_.store(false, std::memory_order_release);
  // Executor first: its workers run Adapt() against tenant servers, so they
  // must be joined before any server starts tearing down.
  executor_.Stop();
  for (std::unique_ptr<TenantEntry>& entry : tenants_) {
    if (entry->server != nullptr) entry->server->Stop();
  }
}

Result<ServingFleet::TenantEntry*> ServingFleet::Admit(
    const EstimateRequest& request) {
  if (!running()) {
    return Status::FailedPrecondition("ServingFleet is not running");
  }
  Result<size_t> shard = router_.ShardFor(request.tenant_id);
  WARPER_RETURN_NOT_OK(shard.status());
  TenantEntry* entry = tenants_[shard.ValueOrDie()].get();
  entry->requests->Increment();
  // Shed budget: refuse a saturated tenant before its request can park a
  // caller thread (Overflow::kBlock) or occupy fleet headroom. Advisory
  // depth read — the budget bounds steady-state queueing, not an exact
  // instantaneous count. priority > 0 bypasses (still subject to the
  // tenant's queue capacity).
  if (request.priority <= 0 && config_.tenant_shed_budget > 0) {
    // running() implies every tenant's batcher exists (Start is
    // all-or-nothing).
    if (entry->server->batcher()->ApproxQueueDepth() >=
        config_.tenant_shed_budget) {
      entry->shed->Increment();
      return Status::Unavailable(
          "tenant " + std::to_string(request.tenant_id) +
          " is over its shed budget");
    }
  }
  return entry;
}

Result<EstimateResponse> ServingFleet::Estimate(const EstimateRequest& request) {
  Result<TenantEntry*> entry = Admit(request);
  WARPER_RETURN_NOT_OK(entry.status());
  return entry.ValueOrDie()->server->Estimate(request);
}

std::future<Result<EstimateResponse>> ServingFleet::EstimateAsync(
    EstimateRequest request) {
  Result<TenantEntry*> entry = Admit(request);
  if (!entry.ok()) {
    std::promise<Result<EstimateResponse>> failed;
    failed.set_value(entry.status());
    return failed.get_future();
  }
  return entry.ValueOrDie()->server->EstimateAsync(std::move(request));
}

Result<EstimateResponse> ServingFleet::EstimateHashed(
    const EstimateRequest& request) {
  if (!running()) {
    return Status::FailedPrecondition("ServingFleet is not running");
  }
  Result<size_t> shard = router_.ShardForFeatures(request.features);
  WARPER_RETURN_NOT_OK(shard.status());
  TenantEntry* entry = tenants_[shard.ValueOrDie()].get();
  // Rewrite the tenant id so the response names the shard that served it.
  EstimateRequest routed = request;
  routed.tenant_id = entry->id;
  entry->requests->Increment();
  return entry->server->Estimate(routed);
}

std::future<Result<AdaptationOutcome>> ServingFleet::SubmitInvocation(
    uint64_t tenant_id, core::Warper::Invocation invocation) {
  EstimationServer* server = tenant(tenant_id);
  if (server == nullptr || !running()) {
    std::promise<Result<AdaptationOutcome>> failed;
    failed.set_value(
        server == nullptr
            ? Status::NotFound("tenant " + std::to_string(tenant_id) +
                               " is not registered")
            : Status::FailedPrecondition("ServingFleet is not running"));
    return failed.get_future();
  }
  return server->SubmitInvocation(std::move(invocation));
}

Status ServingFleet::ReportObservation(uint64_t tenant_id,
                                       const std::vector<double>& features,
                                       double actual) {
  EstimationServer* server = tenant(tenant_id);
  if (server == nullptr) {
    return Status::NotFound("tenant " + std::to_string(tenant_id) +
                            " is not registered");
  }
  return server->ReportObservation(features, actual);
}

Result<std::vector<core::TemplateTracker::Offender>>
ServingFleet::TenantTopOffenders(uint64_t tenant_id, size_t k) {
  EstimationServer* server = tenant(tenant_id);
  if (server == nullptr) {
    return Status::NotFound("tenant " + std::to_string(tenant_id) +
                            " is not registered");
  }
  return server->TopOffenders(k);
}

EstimationServer* ServingFleet::tenant(uint64_t tenant_id) {
  // Registration order == shard index, but before Freeze() the router
  // cannot be queried — scan instead (tiny N, cold path).
  for (std::unique_ptr<TenantEntry>& entry : tenants_) {
    if (entry->id == tenant_id) return entry->server.get();
  }
  return nullptr;
}

}  // namespace warper::serve
