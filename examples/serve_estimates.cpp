// Serving: concurrent cardinality estimates in front of a live Warper.
//
// Trains an LM-mlp on workload w1, serves it from a one-tenant
// ServingFleet, then runs optimizer traffic and adaptation at the same time:
//   - four producer threads stream estimate requests through the
//     micro-batcher (one GEMM per coalesced batch) while
//   - the background adaptation executor ingests drifted w3 queries via
//     SubmitInvocation, gates each adapted model on a fixed eval set, and
//     hot-swaps the served snapshot when the gate passes.
// Producers never block on a swap: they read versioned immutable snapshots
// published RCU-style. The final pass demonstrates the §3.4 rollback — an
// adversarial eval set makes any update look like a regression, so the
// server restores the last good weights instead of publishing.
#include <atomic>
#include <cmath>
#include <iostream>
#include <thread>
#include <vector>

#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/query_domain.h"
#include "core/warper.h"
#include "serve/fleet.h"
#include "storage/annotator.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "workload/generator.h"

using namespace warper;  // NOLINT — example brevity

namespace {

constexpr uint64_t kTenant = 1;

std::vector<ce::LabeledExample> MakeExamples(
    const storage::Table& table, const storage::Annotator& annotator,
    const ce::SingleTableDomain& domain, workload::GenMethod method, size_t n,
    util::Rng* rng) {
  std::vector<storage::RangePredicate> preds =
      workload::GenerateWorkload(table, {method}, n, rng);
  std::vector<int64_t> counts = annotator.BatchCount(preds);
  std::vector<ce::LabeledExample> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = {domain.FeaturizePredicate(preds[i]), counts[i]};
  }
  return out;
}

}  // namespace

int main() {
  util::Rng rng(11);
  storage::Table table = storage::MakePrsa(/*rows=*/30000, /*seed=*/11);
  storage::Annotator annotator(&table);
  ce::SingleTableDomain domain(&annotator);

  // Train M on the historical workload.
  std::vector<ce::LabeledExample> train = MakeExamples(
      table, annotator, domain, workload::GenMethod::kW1, 800, &rng);
  ce::LmMlp model(domain.FeatureDim(), ce::LmMlpConfig{}, /*seed=*/11);
  {
    nn::Matrix x;
    std::vector<double> y;
    ce::ExamplesToMatrix(train, &x, &y);
    model.Train(x, y);
  }

  // The controller plus serving knobs: coalesce up to 16 requests per
  // forward pass, shed when more than 512 are queued.
  core::WarperConfig config;
  config.n_p = 200;
  config.serve.batch_max = 16;
  config.serve.tenant_queue_depth = 512;
  config.serve.overflow = core::ServeConfig::Overflow::kShed;
  core::Warper warper(&domain, &model, config);
  if (Status st = warper.Initialize(train); !st.ok()) {
    std::cerr << "Initialize failed: " << st.ToString() << "\n";
    return 1;
  }

  // Gate adaptations on a held-out slice of the drifted workload: an
  // adaptation only ships if it does not regress on this benchmark.
  std::vector<ce::LabeledExample> eval = MakeExamples(
      table, annotator, domain, workload::GenMethod::kW3, 150, &rng);
  // A single-tenant deployment is a ServingFleet with one tenant.
  serve::ServingFleet fleet(config.serve);
  Status st = fleet.AddTenant(kTenant, &warper);
  if (st.ok()) st = fleet.SetEvalSet(kTenant, eval);
  if (st.ok()) st = fleet.Start();
  if (!st.ok()) {
    std::cerr << "fleet start failed: " << st.ToString() << "\n";
    return 1;
  }
  serve::EstimationServer* server = fleet.tenant(kTenant);
  std::cout << "serving version " << server->CurrentVersion()
            << " (gate GMQ on eval set: "
            << server->store().Current()->gmq() << ")\n";

  // Optimizer traffic: four producers streaming drifted-workload estimates
  // while adaptation runs underneath them.
  std::vector<std::vector<double>> request_features;
  for (const ce::LabeledExample& ex :
       MakeExamples(table, annotator, domain, workload::GenMethod::kW3, 256,
                    &rng)) {
    request_features.push_back(ex.features);
  }
  std::atomic<bool> stop_traffic{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      util::Rng local(100 + p);
      while (!stop_traffic.load()) {
        size_t i = static_cast<size_t>(local.UniformInt(
            0, static_cast<int64_t>(request_features.size()) - 1));
        serve::EstimateRequest request;
        request.tenant_id = kTenant;
        request.features = request_features[i];
        if (fleet.Estimate(request).ok()) served.fetch_add(1);
      }
    });
  }

  // Adaptation under load: three batches of drifted queries arrive; each
  // pass that clears the gate hot-swaps a new snapshot under the producers.
  for (int step = 1; step <= 3; ++step) {
    core::Warper::Invocation invocation;
    invocation.new_queries = MakeExamples(table, annotator, domain,
                                          workload::GenMethod::kW3, 48, &rng);
    Result<serve::AdaptationOutcome> outcome =
        fleet.SubmitInvocation(kTenant, std::move(invocation)).get();
    if (!outcome.ok()) {
      std::cerr << "adaptation failed: " << outcome.status().ToString()
                << "\n";
      return 1;
    }
    const serve::AdaptationOutcome& o = outcome.ValueOrDie();
    std::cout << "step " << step << ": mode=" << o.result.mode.ToString()
              << " gate " << o.gate_before << " -> " << o.gate_after
              << (o.published ? " PUBLISHED v" + std::to_string(o.version)
                  : o.rolled_back ? std::string(" ROLLED BACK")
                                  : std::string(" unchanged"))
              << "\n";
  }
  stop_traffic.store(true);
  for (std::thread& t : producers) t.join();
  std::cout << "served " << served.load()
            << " estimates concurrently with adaptation; final version "
            << server->CurrentVersion() << "\n";

  // Rollback demo: label an eval set with the model's own estimates — the
  // served model is "perfect" on it, so any further weight movement gates
  // as a regression and the server restores the last good version.
  std::vector<ce::LabeledExample> adversarial;
  for (const ce::LabeledExample& ex : eval) {
    double est = model.EstimateCardinality(ex.features);
    if (est > 100.0) {
      adversarial.push_back(
          {ex.features, static_cast<int64_t>(std::llround(est))});
    }
  }
  fleet.Stop();
  core::WarperConfig strict = config;
  strict.serve.regression_tolerance = 1.0;
  core::Warper warper2(&domain, &model, strict);
  if (Status st = warper2.Initialize(train); !st.ok()) {
    std::cerr << "Initialize failed: " << st.ToString() << "\n";
    return 1;
  }
  serve::ServingFleet guard(strict.serve);
  if (!guard.AddTenant(kTenant, &warper2).ok() ||
      !guard.SetEvalSet(kTenant, adversarial).ok() || !guard.Start().ok()) {
    std::cerr << "guard fleet failed to start\n";
    return 1;
  }
  core::Warper::Invocation invocation;
  invocation.new_queries = MakeExamples(table, annotator, domain,
                                        workload::GenMethod::kW2, 60, &rng);
  Result<serve::AdaptationOutcome> guarded =
      guard.SubmitInvocation(kTenant, std::move(invocation)).get();
  if (!guarded.ok()) {
    std::cerr << "adaptation failed: " << guarded.status().ToString() << "\n";
    return 1;
  }
  std::cout << "strict gate: " << guarded.ValueOrDie().gate_before << " -> "
            << guarded.ValueOrDie().gate_after
            << (guarded.ValueOrDie().rolled_back
                    ? " => rolled back, still serving v"
                    : " => serving v")
            << guard.tenant(kTenant)->CurrentVersion() << "\n";
  guard.Stop();
  return 0;
}
