// EstimationServer, the tenant shard of a ServingFleet: snapshot lifecycle,
// publish gate and §3.4 rollback, driven through a one-tenant fleet.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "serve/fleet.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace warper::serve {
namespace {

struct Env {
  storage::Table table;
  storage::Annotator annotator;
  ce::SingleTableDomain domain;
  util::Rng rng;

  explicit Env(uint64_t seed, size_t rows = 20000)
      : table(storage::MakePrsa(rows, seed)),
        annotator(&table),
        domain(&annotator),
        rng(seed) {}

  std::vector<ce::LabeledExample> Examples(workload::GenMethod method,
                                           size_t n) {
    std::vector<storage::RangePredicate> preds =
        workload::GenerateWorkload(table, {method}, n, &rng);
    std::vector<int64_t> counts = annotator.BatchCount(preds);
    std::vector<ce::LabeledExample> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
    }
    return out;
  }
};

EstimateRequest Req(std::vector<double> features) {
  EstimateRequest request;
  request.features = std::move(features);
  return request;
}

// A single-tenant deployment: a ServingFleet with one tenant serving with
// the warper's own serve knobs.
constexpr uint64_t kTenant = 0;

std::unique_ptr<ServingFleet> OneTenantFleet(core::Warper* warper,
                                             uint64_t tenant_id = kTenant) {
  auto fleet = std::make_unique<ServingFleet>(warper->config().serve);
  WARPER_CHECK(fleet->AddTenant(tenant_id, warper).ok());
  return fleet;
}

core::WarperConfig FastConfig() {
  core::WarperConfig config;
  config.hidden_units = 64;
  config.hidden_layers = 2;
  config.n_i = 60;
  config.n_p = 200;
  return config;
}

std::unique_ptr<ce::LmMlp> TrainModel(
    Env& env, const std::vector<ce::LabeledExample>& train, uint64_t seed) {
  auto model = std::make_unique<ce::LmMlp>(env.domain.FeatureDim(),
                                           ce::LmMlpConfig{}, seed);
  nn::Matrix x;
  std::vector<double> y;
  ce::ExamplesToMatrix(train, &x, &y);
  model->Train(x, y);
  return model;
}

// Eval examples labeled with the model's own current estimates: the served
// model scores a (near-)perfect GMQ on them, and any weight movement can
// only look like a regression. Restricted to estimates above the q-error
// floor θ so changed predictions actually change the score.
std::vector<ce::LabeledExample> SelfLabeledEvalSet(
    const ce::CardinalityEstimator& model,
    const std::vector<ce::LabeledExample>& pool) {
  std::vector<ce::LabeledExample> eval;
  for (const ce::LabeledExample& ex : pool) {
    double est = model.EstimateCardinality(ex.features);
    if (est > 10.0 * ce::kQErrorTheta) {
      eval.push_back({ex.features, static_cast<int64_t>(std::llround(est))});
    }
  }
  return eval;
}

TEST(EstimationServerTest, StartRequiresInitializedWarper) {
  Env env(30);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 30);
  core::Warper warper(&env.domain, model.get(), FastConfig());
  EXPECT_FALSE(OneTenantFleet(&warper)->Start().ok());  // no Initialize()
}

TEST(EstimationServerTest, StartPublishesVersionOneAndServes) {
  Env env(31);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 31);
  core::Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());

  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);
  ASSERT_TRUE(fleet->Start().ok());
  EXPECT_TRUE(server->running());
  EXPECT_EQ(server->CurrentVersion(), 1u);
  EXPECT_FALSE(fleet->Start().ok());  // double Start

  // Served estimates come from the snapshot clone and match the live model
  // exactly while no adaptation has run.
  const std::vector<double>& probe = train[0].features;
  Result<EstimateResponse> served = server->Estimate(Req(probe));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.ValueOrDie().estimate, model->EstimateCardinality(probe));
  EXPECT_EQ(served.ValueOrDie().version, 1u);
  fleet->Stop();
  EXPECT_FALSE(server->running());
  EXPECT_FALSE(server->Estimate(Req(probe)).ok());
}

TEST(EstimationServerTest, AdaptationPublishesNewVersion) {
  Env env(32);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 32);
  core::WarperConfig config = FastConfig();
  // A gate this loose never rolls back: the pass must publish.
  config.serve.regression_tolerance = 100.0;
  core::Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);
  ASSERT_TRUE(fleet->Start().ok());

  core::Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  Result<AdaptationOutcome> outcome =
      server->SubmitInvocation(std::move(invocation)).get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.ValueOrDie().result.model_updated);
  EXPECT_TRUE(outcome.ValueOrDie().published);
  EXPECT_FALSE(outcome.ValueOrDie().rolled_back);
  EXPECT_EQ(outcome.ValueOrDie().version, 2u);
  EXPECT_EQ(server->CurrentVersion(), 2u);

  // The new snapshot serves the adapted model's estimates, and the response
  // reports the version that served it.
  const std::vector<double>& probe = train[0].features;
  Result<EstimateResponse> served = server->Estimate(Req(probe));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.ValueOrDie().estimate, model->EstimateCardinality(probe));
  EXPECT_EQ(served.ValueOrDie().version, 2u);
  fleet->Stop();
}

TEST(EstimationServerTest, RegressionRollsBackModelAndVersion) {
  Env env(33);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 33);
  core::WarperConfig config = FastConfig();
  // Strictest gate: any eval-set degradation at all is a regression.
  config.serve.regression_tolerance = 1.0;
  core::Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);
  std::vector<ce::LabeledExample> eval = SelfLabeledEvalSet(*model, train);
  ASSERT_GE(eval.size(), 10u);
  ASSERT_TRUE(server->SetEvalSet(eval).ok());
  ASSERT_TRUE(fleet->Start().ok());

  const std::vector<double>& probe = eval[0].features;
  double before = model->EstimateCardinality(probe);

  core::Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  Result<AdaptationOutcome> result =
      server->SubmitInvocation(std::move(invocation)).get();
  ASSERT_TRUE(result.ok());
  AdaptationOutcome outcome = result.MoveValueOrDie();
  EXPECT_TRUE(outcome.rolled_back);
  EXPECT_FALSE(outcome.published);
  EXPECT_GT(outcome.gate_after, outcome.gate_before);
  // Version unchanged; the live model's weights are restored bit-exact.
  EXPECT_EQ(server->CurrentVersion(), 1u);
  EXPECT_EQ(model->EstimateCardinality(probe), before);
  fleet->Stop();
}

TEST(EstimationServerTest, EvalSetValidation) {
  Env env(34);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 34);
  core::Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());
  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);

  EXPECT_FALSE(server->SetEvalSet({{{1.0, 2.0}, 10}}).ok());  // wrong width
  ASSERT_TRUE(fleet->Start().ok());
  EXPECT_FALSE(server->SetEvalSet(train).ok());  // too late
  fleet->Stop();
}

TEST(EstimationServerTest, ReportObservationValidation) {
  Env env(36);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 36);
  core::Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());
  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);

  const std::vector<double>& probe = train[0].features;
  // Not running yet.
  EXPECT_EQ(server->ReportObservation(probe, 100.0).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(fleet->Start().ok());
  // Wrong feature width.
  EXPECT_EQ(server->ReportObservation({1.0, 2.0}, 100.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(server->ReportObservation(probe, 100.0).ok());
  fleet->Stop();
  EXPECT_FALSE(server->ReportObservation(probe, 100.0).ok());
}

TEST(EstimationServerTest, ReportObservationDrivesOffenderPressure) {
  Env env(37);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 37);
  core::WarperConfig config = FastConfig();
  config.tracker.min_count = 2;
  core::Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);
  ASSERT_TRUE(fleet->Start().ok());
  EXPECT_DOUBLE_EQ(server->offender_pressure(), 0.0);
  EXPECT_TRUE(server->TopOffenders(3).empty());

  // Serving-path feedback far off the served estimate: the only observed
  // template goes unhealthy, so its traffic share — the offender pressure
  // the executor probe reads — is 1.
  const std::vector<double>& probe = train[0].features;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server->ReportObservation(probe, 1e9).ok());
  }
  EXPECT_DOUBLE_EQ(server->offender_pressure(), 1.0);
  std::vector<core::TemplateTracker::Offender> top = server->TopOffenders(3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].stats.count, 3u);
  EXPECT_GT(top[0].drift_score, 1.0);
  fleet->Stop();
}

TEST(EstimationServerTest, TenantMetricsPublishDriftSeverityGauge) {
  Env env(38);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 600);
  auto model = TrainModel(env, train, 38);
  core::WarperConfig config = FastConfig();
  config.serve.regression_tolerance = 100.0;  // never roll back
  core::Warper warper(&env.domain, model.get(), config);
  ASSERT_TRUE(warper.Initialize(train).ok());

  auto fleet = OneTenantFleet(&warper, /*tenant_id=*/77);
  EstimationServer* server = fleet->tenant(77);
  ASSERT_TRUE(fleet->Start().ok());

  core::Warper::Invocation invocation;
  invocation.new_queries = env.Examples(workload::GenMethod::kW3, 60);
  ASSERT_TRUE(server->SubmitInvocation(std::move(invocation)).get().ok());

  // The per-tenant instance carries this tenant's severity (the global
  // warper.drift_severity gauge only shows the last writer fleet-wide).
  util::MetricsSnapshot snap = util::Metrics().Snapshot();
  auto it = snap.gauges.find("warper.drift_severity.77");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_DOUBLE_EQ(it->second, server->drift_severity());
  fleet->Stop();
}

TEST(EstimationServerTest, SubmitBeforeStartIsRefused) {
  Env env(35);
  std::vector<ce::LabeledExample> train =
      env.Examples(workload::GenMethod::kW1, 400);
  auto model = TrainModel(env, train, 35);
  core::Warper warper(&env.domain, model.get(), FastConfig());
  ASSERT_TRUE(warper.Initialize(train).ok());
  auto fleet = OneTenantFleet(&warper);
  EstimationServer* server = fleet->tenant(kTenant);

  Result<AdaptationOutcome> refused =
      server->SubmitInvocation(core::Warper::Invocation{}).get();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace warper::serve
