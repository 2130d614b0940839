// bench_e2e: one drift-under-serving run of the Warper stack.
//
// A ServingFleet of LM-mlp tenants answers open-loop estimate traffic from
// this process while, on the adaptation workloads, a drift::DriftSpec drives
// live adaptation passes through ServingFleet::SubmitInvocation. Every layer
// is timed from outside, around calls into its public API; nothing under
// src/ is instrumented for this benchmark.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <raw.json>
//
// The binary records raw observations (per-request due/send/done times,
// per-pass outcomes, data-event timings, registry deltas and, when tracing,
// spans) into <raw.json>; run.py turns them into the named metrics. Output
// checks (finite, non-negative estimates; published versions; served estimate ==
// direct estimate on the same snapshot; BatchCount == row-by-row recount)
// are counted here and reported as failed operations.
//
// Threads: this process keeps 4 threads alive: the sender (main), the
// single adaptation-executor worker, and either two workers of the shared
// util::ThreadPool (serve_steady: batch dispatch) or one worker plus the
// drift controller (adaptation workloads).
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ce/estimator.h"
#include "ce/lm.h"
#include "ce/metrics.h"
#include "ce/query_domain.h"
#include "core/config.h"
#include "core/warper.h"
#include "drift/schedule.h"
#include "drift/spec.h"
#include "nn/matrix.h"
#include "serve/fleet.h"
#include "storage/annotate_kernels.h"
#include "storage/annotator.h"
#include "storage/data_drift.h"
#include "storage/datasets.h"
#include "storage/table.h"
#include "util/cpu_features.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/spec.h"

#ifndef WARPER_BENCH_BUILD_TYPE
#define WARPER_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace warper;  // NOLINT: one-file benchmark program
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions. Rates, sizes and step counts are fixed numbers: they
// never depend on measured capacity, so two commits see the same inputs.

struct WorkloadConfig {
  std::string name;
  bool higgs = false;  // table: Higgs-like (8 numeric cols) or PRSA-like
  size_t table_rows = 0;
  size_t tenants = 1;
  std::vector<size_t> hidden;  // LM-mlp trunk
  int train_epochs = 10;
  size_t train_size = 600;
  std::string workload_spec;  // workload::WorkloadSpec grammar
  std::string drift_spec;     // drift::DriftSpec grammar; "none" = no drift
  size_t steps = 0;           // adaptation steps (passes per tenant)
  size_t queries_per_step = 0;
  size_t annotation_budget = 0;
  bool gate_eval_set = true;  // install the eval set as the publish gate
  size_t batch_max = 1;
  double open_rate = 1000.0;  // open-loop requests per second
  double open_share = 1.0;    // share of the window spent open loop
  size_t closed_clients = 0;  // closed-loop clients (rest of the window)
  size_t closed_burst = 0;    // requests per client call
  // Learned-module shapes and budgets of each tenant's Warper.
  size_t module_units = 16;
  size_t module_layers = 1;
  size_t embedding_dim = 4;
  int n_i = 2;
  size_t n_p = 20;
  double gen_fraction = 0.1;
  // Shared util::ThreadPool size (the caller plus size-1 workers): batch
  // dispatch on serve_steady, kernels and training on the adaptation
  // workloads, whose fourth thread is the drift controller.
  int pool_threads = 2;
};

// Set-ups per run (setup_s is their median) and eval-set size.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kEvalSize = 1000;

WorkloadConfig MakeWorkload(const std::string& name) {
  WorkloadConfig w;
  w.name = name;
  if (name == "serve_steady") {
    // Serving only: 8 tenants of the wide bench_serving model behind
    // pool-mode micro-batching. Core and storage do no work.
    w.table_rows = 20000;
    w.tenants = 8;
    w.hidden = {512, 512};
    w.train_epochs = 3;
    w.train_size = 400;
    w.workload_spec = "w1-5";
    w.drift_spec = "none";
    w.batch_max = 32;
    w.open_rate = 3000.0;
    w.open_share = 0.7;
    w.closed_clients = 4;
    w.closed_burst = 32;
    w.pool_threads = 3;
  } else if (name == "adapt_workload_drift") {
    // Workload drift on a cache-resident PRSA table: passes train the
    // GAN/AE modules and generate queries (c2) while the inline path serves.
    w.table_rows = 20000;
    w.tenants = 4;
    w.hidden = {128, 64};
    w.train_epochs = 20;
    w.train_size = 600;
    w.workload_spec = "w12/345";
    w.drift_spec = "workload@1.0/2+labels";
    w.steps = 6;
    w.queries_per_step = 100;
    w.annotation_budget = 100;
    w.batch_max = 1;
    w.open_rate = 2000.0;
    w.module_units = 64;
    w.module_layers = 2;
    w.embedding_dim = 16;
    w.n_i = 100;
    w.n_p = 100;
    w.gen_fraction = 1.0;
  } else if (name == "adapt_data_drift") {
    // Data drift on a 2M-row Higgs table (128 MB of column data, far beyond
    // any per-core cache): c1 passes re-annotate stale queries after
    // appends, updates and sort+truncate events. Estimate traffic is light.
    // Each event's cost grows with the table (about 1.6 s per million rows
    // on a 4-vCPU Xeon VM), which bounds the size within the run budget.
    w.higgs = true;
    w.table_rows = 2000000;
    w.tenants = 1;
    w.hidden = {128, 64};
    w.train_epochs = 20;
    w.train_size = 600;
    w.workload_spec = "w1-5";
    w.drift_spec = "data@1.0/2";
    w.steps = 4;
    w.queries_per_step = 100;
    w.annotation_budget = 800;
    w.gate_eval_set = false;  // labels go stale with every event
    w.batch_max = 1;
    w.open_rate = 1000.0;
    w.module_units = 32;
    w.module_layers = 1;
    w.embedding_dim = 8;
    w.n_i = 10;
    w.n_p = 800;
    w.gen_fraction = 0.1;
  } else {
    w.name.clear();
  }
  return w;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per thread, written out at the end. A span's trace
// id groups the spans of one request (or one adaptation pass).

struct Span {
  uint64_t trace = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog(bool enabled, uint32_t id_base) : enabled_(enabled), next_(id_base) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  // Reserves an id, for a parent recorded after its children.
  uint32_t NewId() { return enabled_ ? next_++ : 0; }
  void Put(uint32_t id, const char* name, uint64_t trace, uint32_t parent,
           int64_t start_ns, int64_t end_ns) {
    if (enabled_) spans_.push_back({trace, id, parent, name, start_ns, end_ns});
  }
  uint32_t Add(const char* name, uint64_t trace, uint32_t parent,
               int64_t start_ns, int64_t end_ns) {
    uint32_t id = NewId();
    Put(id, name, trace, parent, start_ns, end_ns);
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t next_;
  std::vector<Span> spans_;
};

// The open-loop sender's CPU. CPU 0 commonly takes device interrupts.
constexpr int kSenderCpu = 1;

// Pins the calling thread to CPU `cpu`, or to every CPU but it when
// `exclude` is set. Threads inherit the mask of the thread that creates
// them. Best effort: a failed call leaves the mask as it was.
void PinSelf(int cpu, bool exclude) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n < 2) return;
  for (int c = 0; c < n; ++c) {
    if ((c == cpu) != exclude) CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

Clock::time_point g_t0;
int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_t0).count();
}
int64_t NowNs() { return Ns(Clock::now()); }

// ---------------------------------------------------------------------------
// Minimal JSON emission for the raw record.

class Json {
 public:
  explicit Json(std::ostream* out) : out_(out) { out_->precision(17); }
  Json& Open(char c) { Sep(); *out_ << c; first_ = true; return *this; }
  Json& Close(char c) { *out_ << c; first_ = false; return *this; }
  Json& Key(const std::string& k) {
    Sep();
    *out_ << '"' << k << "\":";
    first_ = true;
    return *this;
  }
  Json& Str(const std::string& v) { Sep(); *out_ << '"' << v << '"'; return *this; }
  Json& Num(double v) {
    Sep();
    if (std::isfinite(v)) {
      *out_ << v;
    } else {
      *out_ << "null";
    }
    return *this;
  }
  Json& Int(int64_t v) { Sep(); *out_ << v; return *this; }
  Json& Bool(bool v) { Sep(); *out_ << (v ? "true" : "false"); return *this; }
  template <typename T>
  Json& IntArray(const std::vector<T>& v) {
    Open('[');
    for (const T& x : v) Int(static_cast<int64_t>(x));
    return Close(']');
  }
  Json& NumArray(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    return Close(']');
  }

 private:
  void Sep() {
    if (!first_) *out_ << ',';
    first_ = false;
  }
  std::ostream* out_;
  bool first_ = true;
};

// ---------------------------------------------------------------------------
// Registry deltas: the existing util::Metrics() counters and histograms,
// read before and after a phase.

struct RegistryView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, double>> histograms;  // count, sum
};

RegistryView ReadRegistry() {
  util::MetricsSnapshot snap = util::Metrics().Snapshot();
  RegistryView view;
  view.counters = std::move(snap.counters);
  for (const auto& [name, h] : snap.histograms) {
    view.histograms[name] = {h.count, h.sum};
  }
  return view;
}

const char* kCounters[] = {
    "serve.batches",        "serve.shed",           "serve.expired",
    "warper.pi_escalations", "annotator.predicates", "annotator.rows_scanned",
    "annotator.blocks_pruned"};

void EmitRegistryDelta(Json* j, const RegistryView& a, const RegistryView& b) {
  j->Open('{');
  for (const char* name : kCounters) {
    auto get = [&](const RegistryView& v) -> uint64_t {
      auto it = v.counters.find(name);
      return it == v.counters.end() ? 0 : it->second;
    };
    j->Key(name).Int(static_cast<int64_t>(get(b) - get(a)));
  }
  auto hist = [&](const RegistryView& v) -> std::pair<uint64_t, double> {
    auto it = v.histograms.find("serve.batch_size");
    return it == v.histograms.end() ? std::pair<uint64_t, double>{0, 0.0}
                                    : it->second;
  };
  j->Key("serve.batch_size.count")
      .Int(static_cast<int64_t>(hist(b).first - hist(a).first));
  j->Key("serve.batch_size.sum").Num(hist(b).second - hist(a).second);
  j->Close('}');
}

// ---------------------------------------------------------------------------
// Output checks shared by every thread that sees responses.

enum RequestStatus : uint8_t { kOk = 0, kShed, kExpired, kError, kBadOutput };

RequestStatus StatusOf(const Status& s) {
  switch (s.code()) {
    case StatusCode::kUnavailable:
      return kShed;
    case StatusCode::kDeadlineExceeded:
      return kExpired;
    default:
      return kError;
  }
}

struct Sample {
  uint64_t tenant;
  uint64_t version;
  std::vector<double> features;
  double estimate;
};

// Kept by the sender thread, which sees every response.
struct Checks {
  std::vector<std::pair<uint64_t, uint64_t>> seen_versions;  // (tenant, ver)
  std::vector<Sample> samples;
  uint64_t responses = 0;
  uint64_t bad_values = 0;
  // 0 is in the estimator's range (an empty result; ce::TargetToCard clamps
  // there), so it is counted, not failed.
  uint64_t zero_estimates = 0;

  // Checks one response; false when the estimate itself is unusable.
  bool Observe(const serve::EstimateResponse& r,
               const std::vector<double>& features) {
    ++responses;
    std::pair<uint64_t, uint64_t> key{r.tenant_id, r.version};
    if (std::find(seen_versions.begin(), seen_versions.end(), key) ==
        seen_versions.end()) {
      seen_versions.push_back(key);
    }
    if (!std::isfinite(r.estimate) || r.estimate < 0.0) {
      ++bad_values;
      return false;
    }
    if (r.estimate == 0.0) ++zero_estimates;
    // Every 16th response is re-estimated after the run, against the same
    // snapshot when it is still the one serving.
    if (responses % 16 == 0) {
      samples.push_back({r.tenant_id, r.version, features, r.estimate});
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// The world one run measures.

struct Tenant {
  std::unique_ptr<ce::CardinalityEstimator> model;
  std::unique_ptr<core::Warper> warper;
  std::vector<std::vector<ce::LabeledExample>> arrivals;  // per step
};

struct PassRecord {
  uint64_t tenant = 0;
  size_t step = 0;
  int64_t submit_ns = 0;
  int64_t ready_ns = 0;
  bool ok = false;
  serve::AdaptationOutcome outcome;
  size_t table_rows = 0;
  RegistryView before;
  RegistryView after;
};

struct EventRecord {
  size_t step = 0;
  int64_t apply_ns = 0;        // ApplyDataEventAt
  int64_t first_count_ns = 0;  // first BatchCount afterwards
  drift::DriftEvent event;
  size_t rows_after = 0;
};

// Featurization statistics: a two-row table holding each column's min and
// max, which is all RangePredicate::Featurize reads, so featurizing against
// it gives the live table's features. Estimate traffic featurizes against
// the published catalog; the controller republishes it after each data
// event, so traffic never reads a table that is being rewritten.
struct Catalog {
  explicit Catalog(const storage::Table& live) : table("catalog") {
    std::vector<double> lo, hi;
    for (size_t c = 0; c < live.NumColumns(); ++c) {
      const storage::Column& col = live.column(c);
      table.AddColumn(col.name(), col.type());
      lo.push_back(col.Min());
      hi.push_back(col.Max());
    }
    table.AppendRow(lo);
    table.AppendRow(hi);
    // Compute the lazy min/max now, so readers only ever read them.
    for (size_t c = 0; c < table.NumColumns(); ++c) table.column(c).Min();
  }
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  storage::Table table;
  storage::Annotator annotator{&table};
  ce::SingleTableDomain domain{&annotator};
};

struct World {
  WorkloadConfig cfg;
  storage::Table table{"t"};
  std::unique_ptr<storage::Annotator> annotator;
  std::unique_ptr<ce::SingleTableDomain> domain;
  workload::WorkloadSpec wspec;
  drift::DriftSpec dspec;
  std::unique_ptr<drift::DriftSchedule> schedule;
  std::vector<ce::LabeledExample> train;
  std::vector<storage::RangePredicate> eval_preds;
  std::vector<ce::LabeledExample> eval;
  std::vector<storage::RangePredicate> traffic;
  std::vector<storage::RangePredicate> canaries;
  std::vector<int64_t> canary_counts;
  std::vector<Tenant> tenants;
  std::vector<size_t> layer_sizes;
  std::atomic<std::shared_ptr<const Catalog>> catalog;
  util::Rng rng{1};
  // Declared last: destroyed (after Stop) before everything it serves.
  std::unique_ptr<serve::ServingFleet> fleet;

  ~World() {
    if (fleet) fleet->Stop();
  }
};

std::vector<ce::LabeledExample> Label(const World& w,
                                      const std::vector<storage::RangePredicate>& preds,
                                      bool with_labels) {
  std::vector<int64_t> counts(preds.size(), -1);
  if (with_labels) counts = w.annotator->BatchCount(preds);
  std::vector<ce::LabeledExample> out(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    out[i] = {w.domain->FeaturizePredicate(preds[i]), counts[i]};
  }
  return out;
}

util::ParallelConfig BenchParallel(int threads) {
  util::ParallelConfig p;
  p.threads = threads;
  // Deterministic partitioning keeps accuracy metrics identical across runs
  // of one seed; the SIMD kernels stay on where the CPU has them.
  p.deterministic = true;
  p.simd = util::BestSupportedSimdLevel() == util::SimdLevel::kAvx2
               ? util::SimdMode::kAvx2
               : util::SimdMode::kScalar;
  return p;
}

// Builds everything up to the first timed request: table, model training,
// Warper::Initialize per tenant, fleet Start and a short warm-up.
std::unique_ptr<World> Setup(const WorkloadConfig& cfg, uint64_t seed) {
  auto w = std::make_unique<World>();
  w->cfg = cfg;
  w->rng = util::Rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  w->table = cfg.higgs ? storage::MakeHiggs(cfg.table_rows, seed)
                       : storage::MakePrsa(cfg.table_rows, seed);
  w->annotator = std::make_unique<storage::Annotator>(&w->table);
  w->domain = std::make_unique<ce::SingleTableDomain>(w->annotator.get());
  w->wspec = workload::WorkloadSpec::Parse(cfg.workload_spec).ValueOrDie();
  if (cfg.drift_spec == "none") {
    w->dspec.family = drift::DriftFamily::kNone;
  } else {
    w->dspec = drift::DriftSpec::Parse(cfg.drift_spec).ValueOrDie();
  }
  w->dspec.seed ^= seed;
  w->schedule = std::make_unique<drift::DriftSchedule>(
      w->dspec, w->wspec, std::max<size_t>(cfg.steps, 1));

  std::vector<storage::RangePredicate> train_preds =
      workload::GenerateWorkload(w->table, w->wspec.train, cfg.train_size,
                                 &w->rng);
  w->train = Label(*w, train_preds, true);
  w->eval_preds = workload::GenerateWorkload(
      w->table, w->schedule->EvalMix(), kEvalSize, &w->rng);
  w->eval = Label(*w, w->eval_preds, true);
  w->traffic = workload::GenerateWorkload(w->table, w->schedule->EvalMix(),
                                          4096, &w->rng);
  if (w->dspec.DriftsData()) {
    w->canaries = storage::MakeCanaryPredicates(w->table, 16, &w->rng);
    w->canary_counts = w->annotator->BatchCount(w->canaries);
  }

  // One trained model, cloned per tenant: tenants differ by the arrivals
  // their controllers adapt to.
  ce::LmMlpConfig mcfg;
  mcfg.hidden = cfg.hidden;
  mcfg.train_epochs = cfg.train_epochs;
  ce::LmMlp base(w->domain->FeatureDim(), mcfg, seed);
  {
    nn::Matrix x;
    std::vector<double> y;
    ce::ExamplesToMatrix(w->train, &x, &y);
    base.Train(x, y);
  }
  w->layer_sizes.push_back(w->domain->FeatureDim());
  for (size_t h : cfg.hidden) w->layer_sizes.push_back(h);
  w->layer_sizes.push_back(1);

  core::WarperConfig wc;
  wc.hidden_units = cfg.module_units;
  wc.hidden_layers = cfg.module_layers;
  wc.embedding_dim = cfg.embedding_dim;
  wc.n_i = cfg.n_i;
  wc.n_p = cfg.n_p;
  wc.gen_fraction = cfg.gen_fraction;
  wc.parallel = BenchParallel(cfg.pool_threads);
  wc.tracker.export_name = "";

  core::ServeConfig sc;
  sc.batch_max = cfg.batch_max;
  sc.queue_capacity = 4096;
  sc.tenant_queue_depth = 1024;
  sc.overflow = core::ServeConfig::Overflow::kBlock;
  sc.adapt_threads = 1;
  wc.serve = sc;

  w->fleet = std::make_unique<serve::ServingFleet>(sc);
  w->tenants.resize(cfg.tenants);
  for (size_t t = 0; t < cfg.tenants; ++t) {
    Tenant& tenant = w->tenants[t];
    tenant.model = base.Clone();
    wc.seed = seed + 101 * t;
    tenant.warper = std::make_unique<core::Warper>(w->domain.get(),
                                                   tenant.model.get(), wc);
    WARPER_CHECK(tenant.warper->Initialize(w->train).ok());
    WARPER_CHECK(w->fleet->AddTenant(t, tenant.warper.get()).ok());
    if (cfg.gate_eval_set && cfg.steps > 0) {
      WARPER_CHECK(w->fleet->SetEvalSet(t, w->eval).ok());
    }
    // Workload-drift arrivals are fixed up front; data-drift arrivals are
    // drawn after each event, from the mutated table.
    if (w->dspec.DriftsWorkload()) {
      util::Rng trng(seed ^ (0xA24BAED4963EE407ULL * (t + 1)));
      for (size_t s = 0; s < cfg.steps; ++s) {
        tenant.arrivals.push_back(Label(
            *w,
            workload::GenerateWorkload(w->table, w->schedule->ArrivalMixAt(s),
                                       cfg.queries_per_step, &trng),
            w->schedule->arrivals_labeled()));
      }
    }
  }
  w->catalog.store(std::make_shared<const Catalog>(w->table));
  WARPER_CHECK(w->fleet->Start().ok());
  // Warm-up: every tenant answers a few estimates before timing starts.
  for (size_t i = 0; i < 64 * cfg.tenants; ++i) {
    serve::EstimateRequest req;
    req.tenant_id = i % cfg.tenants;
    req.features = w->catalog.load()->domain.FeaturizePredicate(
        w->traffic[i % w->traffic.size()]);
    WARPER_CHECK(w->fleet->Estimate(req).ok());
  }
  return w;
}

double ServingGmq(World* w) {
  double sum = 0.0;
  for (size_t t = 0; t < w->tenants.size(); ++t) {
    auto snap = w->fleet->tenant(t)->store().Current();
    sum += ce::ModelGmq(snap->model(), w->eval);
  }
  return sum / static_cast<double>(w->tenants.size());
}

// ---------------------------------------------------------------------------
// The open-loop sender. Request i is due at start + i/rate; it is timed from
// that due time, so a stall delays every request behind it.

struct RequestLog {
  std::vector<int64_t> due, sent, done;
  std::vector<uint8_t> status;
  void Reserve(size_t n) {
    due.reserve(n);
    sent.reserve(n);
    done.reserve(n);
    status.reserve(n);
  }
};

void WaitUntil(Clock::time_point due) {
  Clock::time_point now = Clock::now();
  // Waking from a sleep can take milliseconds on a busy virtual machine, so
  // the sender spins through gaps shorter than that.
  if (due - now > std::chrono::milliseconds(3)) {
    std::this_thread::sleep_until(due - std::chrono::milliseconds(2));
  }
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

std::vector<double> Featurize(World* w, const storage::RangePredicate& pred,
                              SpanLog* spans, uint64_t trace, uint32_t parent) {
  int64_t s = spans->enabled() ? NowNs() : 0;
  std::vector<double> f = w->catalog.load()->domain.FeaturizePredicate(pred);
  if (spans->enabled()) spans->Add("ce.featurize", trace, parent, s, NowNs());
  return f;
}

// Inline path (batch_max = 1): the sender computes each estimate itself.
// Runs until `stop_ns` and, past it, until `keep_going` turns false.
void OpenLoopInline(World* w, double rate, Clock::time_point start,
                    int64_t stop_ns, const std::atomic<bool>& keep_going,
                    RequestLog* log, Checks* checks, SpanLog* spans) {
  const double period_ns = 1e9 / rate;
  const int64_t start_ns = Ns(start);
  for (uint64_t i = 0;; ++i) {
    int64_t due = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= stop_ns && !keep_going.load(std::memory_order_acquire)) break;
    WaitUntil(g_t0 + std::chrono::nanoseconds(due));
    int64_t sent = NowNs();
    uint32_t root = spans->NewId();
    const storage::RangePredicate& pred = w->traffic[i % w->traffic.size()];
    serve::EstimateRequest req;
    req.tenant_id = i % w->tenants.size();
    req.features = Featurize(w, pred, spans, i, root);
    int64_t est_start = spans->enabled() ? NowNs() : 0;
    Result<serve::EstimateResponse> r = w->fleet->Estimate(req);
    int64_t done = NowNs();
    spans->Add("serve.estimate", i, root, est_start, done);
    spans->Put(root, "request", i, 0, due, done);
    uint8_t status = kOk;
    if (!r.ok()) {
      status = StatusOf(r.status());
    } else if (!checks->Observe(r.ValueOrDie(), req.features)) {
      status = kBadOutput;
    }
    log->due.push_back(due);
    log->sent.push_back(sent);
    log->done.push_back(done);
    log->status.push_back(status);
  }
}

// Batched path: the sender enqueues EstimateAsync at the due times and, in
// the gaps, polls its in-flight futures, stamping each completion within a
// loop turn of its fulfilment.
void OpenLoopAsync(World* w, double rate, Clock::time_point start,
                   int64_t stop_ns, RequestLog* log, Checks* checks,
                   SpanLog* spans) {
  struct InFlight {
    uint64_t index;
    uint32_t root;
    int64_t est_start;
    std::vector<double> features;
    std::future<Result<serve::EstimateResponse>> future;
  };
  std::vector<InFlight> inflight;
  const double period_ns = 1e9 / rate;
  const int64_t start_ns = Ns(start);
  const size_t expected =
      static_cast<size_t>(static_cast<double>(stop_ns - start_ns) / period_ns) + 1;
  log->due.resize(expected);
  log->sent.resize(expected);
  log->done.resize(expected);
  log->status.resize(expected);

  auto reap = [&] {
    for (size_t k = 0; k < inflight.size();) {
      InFlight& item = inflight[k];
      if (item.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      int64_t done = NowNs();
      Result<serve::EstimateResponse> r = item.future.get();
      spans->Add("serve.estimate", item.index, item.root, item.est_start, done);
      spans->Put(item.root, "request", item.index, 0, log->due[item.index],
                 done);
      uint8_t status = kOk;
      if (!r.ok()) {
        status = StatusOf(r.status());
      } else if (!checks->Observe(r.ValueOrDie(), item.features)) {
        status = kBadOutput;
      }
      log->done[item.index] = done;
      log->status[item.index] = status;
      std::swap(item, inflight.back());
      inflight.pop_back();
    }
  };

  size_t sent_count = 0;
  for (uint64_t i = 0; i < expected; ++i) {
    int64_t due = start_ns + static_cast<int64_t>(static_cast<double>(i) * period_ns);
    if (due >= stop_ns) break;
    while (NowNs() < due) reap();
    int64_t sent = NowNs();
    uint32_t root = spans->NewId();
    serve::EstimateRequest req;
    req.tenant_id = i % w->tenants.size();
    req.features = Featurize(w, w->traffic[i % w->traffic.size()], spans, i, root);
    int64_t est_start = spans->enabled() ? NowNs() : 0;
    std::vector<double> features = req.features;
    auto future = w->fleet->EstimateAsync(std::move(req));
    log->due[i] = due;
    log->sent[i] = sent;
    inflight.push_back({i, root, est_start, std::move(features), std::move(future)});
    ++sent_count;
  }
  while (!inflight.empty()) reap();
  log->due.resize(sent_count);
  log->sent.resize(sent_count);
  log->done.resize(sent_count);
  log->status.resize(sent_count);
}

// Closed loop: `clients` callers, each submitting a burst of `burst`
// estimates to one tenant and waiting for all of them before the next call.
struct ClosedResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

ClosedResult ClosedLoop(World* w, size_t clients, size_t burst,
                        int64_t stop_ns, Checks* checks) {
  ClosedResult res;
  res.start_ns = NowNs();
  using Futures = std::vector<std::future<Result<serve::EstimateResponse>>>;
  std::vector<Futures> calls(clients);
  std::vector<std::vector<std::vector<double>>> feats(clients);
  uint64_t next = 0;
  auto submit = [&](size_t c) {
    uint64_t tenant = (next / burst) % w->tenants.size();
    calls[c].clear();
    feats[c].clear();
    for (size_t k = 0; k < burst; ++k, ++next) {
      serve::EstimateRequest req;
      req.tenant_id = tenant;
      req.features = w->catalog.load()->domain.FeaturizePredicate(
          w->traffic[next % w->traffic.size()]);
      feats[c].push_back(req.features);
      calls[c].push_back(w->fleet->EstimateAsync(std::move(req)));
    }
  };
  for (size_t c = 0; c < clients; ++c) submit(c);
  for (size_t c = 0;; c = (c + 1) % clients) {
    for (size_t k = 0; k < calls[c].size(); ++k) {
      Result<serve::EstimateResponse> r = calls[c][k].get();
      if (r.ok() && checks->Observe(r.ValueOrDie(), feats[c][k])) {
        ++res.completed;
      } else {
        ++res.failed;
      }
    }
    calls[c].clear();
    if (NowNs() >= stop_ns) {
      bool drained = true;
      for (const Futures& f : calls) drained = drained && f.empty();
      if (drained) break;
      continue;
    }
    submit(c);
  }
  res.end_ns = NowNs();
  return res;
}

// ---------------------------------------------------------------------------
// The drift controller (adaptation workloads): steps through the schedule,
// applying data events while no pass is in flight, and submits one pass per
// tenant per step, one at a time.

struct ControllerLog {
  std::vector<PassRecord> passes;
  std::vector<EventRecord> events;
  std::vector<double> gmq_series;  // first drift step, then after each step
  uint64_t labels_checked = 0;
  uint64_t label_mismatches = 0;
  int64_t end_ns = 0;
};

int64_t RecountRowByRow(const storage::Table& table,
                        const storage::RangePredicate& pred) {
  int64_t n = 0;
  for (size_t row = 0; row < table.NumRows(); ++row) {
    if (pred.Matches(table, row)) ++n;
  }
  return n;
}

// Applies step `step`'s table mutation and times the first BatchCount
// after it (the canary re-count, which pays the lazy zone-map refresh).
// Returns the canary shift.
double ApplyEvent(World* w, size_t step, ControllerLog* log, SpanLog* spans) {
  EventRecord ev;
  ev.step = step;
  const uint64_t trace = 1000000 + step;
  {
    int64_t s = NowNs();
    ev.event = w->schedule->ApplyDataEventAt(&w->table, step);
    int64_t e = NowNs();
    ev.apply_ns = e - s;
    spans->Add("storage.data_event", trace, 0, s, e);
  }
  w->catalog.store(std::make_shared<const Catalog>(w->table));
  ev.rows_after = w->table.NumRows();
  int64_t s = NowNs();
  double shift =
      storage::CanaryShift(*w->annotator, w->canaries, w->canary_counts);
  int64_t e = NowNs();
  ev.first_count_ns = e - s;
  spans->Add("storage.first_count", trace, 0, s, e);
  log->events.push_back(ev);
  return shift;
}

void RunController(World* w, uint64_t seed, ControllerLog* log, SpanLog* spans) {
  const WorkloadConfig& cfg = w->cfg;
  util::Rng rng(seed ^ 0xC0FFEEULL);
  auto relabel_eval = [&] {
    std::vector<int64_t> counts = w->annotator->BatchCount(w->eval_preds);
    for (size_t i = 0; i < w->eval.size(); ++i) {
      w->eval[i] = {w->domain->FeaturizePredicate(w->eval_preds[i]), counts[i]};
    }
    // Sampled labels against a row-by-row recount of the mutated table.
    for (size_t i = 0; i < 2 && i < w->eval_preds.size(); ++i) {
      ++log->labels_checked;
      if (RecountRowByRow(w->table, w->eval_preds[i]) != counts[i]) {
        ++log->label_mismatches;
      }
    }
  };

  for (size_t step = 0; step < cfg.steps; ++step) {
    double changed = 0.0;
    double canary_shift = 0.0;
    if (w->schedule->HasDataEventAt(step)) {
      uint64_t snapshot = w->table.ChangeCounter();
      w->canary_counts = w->annotator->BatchCount(w->canaries);
      canary_shift = ApplyEvent(w, step, log, spans);
      changed = w->table.ChangedFractionSince(snapshot);
      relabel_eval();
    }
    if (step == 0) log->gmq_series.push_back(ServingGmq(w));
    for (size_t t = 0; t < w->tenants.size(); ++t) {
      core::Warper::Invocation inv;
      if (w->dspec.DriftsWorkload()) {
        inv.new_queries = w->tenants[t].arrivals[step];
      } else {
        std::vector<storage::RangePredicate> preds = workload::GenerateWorkload(
            w->table, w->schedule->ArrivalMixAt(step), cfg.queries_per_step, &rng);
        inv.new_queries = Label(*w, preds, w->schedule->arrivals_labeled());
      }
      inv.data_changed_fraction = changed;
      inv.canary_shift = canary_shift;
      inv.annotation_budget = cfg.annotation_budget;
      // Feedback from executed queries: the labeled arrivals.
      for (const ce::LabeledExample& q : inv.new_queries) {
        if (q.cardinality >= 0) {
          WARPER_CHECK(w->fleet
                           ->ReportObservation(t, q.features,
                                               static_cast<double>(q.cardinality))
                           .ok());
        }
      }
      PassRecord rec;
      rec.tenant = t;
      rec.step = step;
      rec.table_rows = w->table.NumRows();
      rec.before = ReadRegistry();
      rec.submit_ns = NowNs();
      auto future = w->fleet->SubmitInvocation(t, std::move(inv));
      Result<serve::AdaptationOutcome> r = future.get();
      rec.ready_ns = NowNs();
      spans->Add("serve.adapt_pass", 3000000 + log->passes.size(), 0,
                 rec.submit_ns, rec.ready_ns);
      rec.after = ReadRegistry();
      rec.ok = r.ok();
      if (r.ok()) rec.outcome = r.MoveValueOrDie();
      log->passes.push_back(std::move(rec));
    }
    log->gmq_series.push_back(ServingGmq(w));
  }
  log->end_ns = NowNs();
}

// ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out.empty() && a->seconds > 0;
}

void EmitSpans(Json* j, const std::vector<const SpanLog*>& logs) {
  j->Open('[');
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      j->Open('[')
          .Int(static_cast<int64_t>(s.trace))
          .Int(s.id)
          .Int(s.parent)
          .Str(s.name)
          .Int(s.start_ns)
          .Int(s.end_ns)
          .Close(']');
    }
  }
  j->Close(']');
}

void EmitPass(Json* j, const PassRecord& p) {
  const core::Warper::InvocationResult& r = p.outcome.result;
  j->Open('{');
  j->Key("tenant").Int(static_cast<int64_t>(p.tenant));
  j->Key("step").Int(static_cast<int64_t>(p.step));
  j->Key("submit_ns").Int(p.submit_ns);
  j->Key("ready_ns").Int(p.ready_ns);
  j->Key("ok").Bool(p.ok);
  j->Key("published").Bool(p.outcome.published);
  j->Key("rolled_back").Bool(p.outcome.rolled_back);
  j->Key("version").Int(static_cast<int64_t>(p.outcome.version));
  j->Key("gate_before").Num(p.outcome.gate_before);
  j->Key("gate_after").Num(p.outcome.gate_after);
  j->Key("table_rows").Int(static_cast<int64_t>(p.table_rows));
  j->Key("mode").Open('[')
      .Bool(r.mode.c1).Bool(r.mode.c2).Bool(r.mode.c3).Bool(r.mode.c4)
      .Close(']');
  j->Key("generated").Int(static_cast<int64_t>(r.generated));
  j->Key("picked").Int(static_cast<int64_t>(r.picked));
  j->Key("annotated").Int(static_cast<int64_t>(r.annotated));
  j->Key("targeted_skip").Bool(r.targeted_skip);
  j->Key("invoke_wall_s").Num(r.timing.wall_seconds);
  j->Key("invoke_cpu_s").Num(r.timing.cpu_seconds);
  j->Key("phases").Open('[');
  for (const core::Warper::PhaseTiming& ph : r.timing.phases) {
    j->Open('[').Str(ph.name).Num(ph.wall_seconds).Num(ph.cpu_seconds).Close(']');
  }
  j->Close(']');
  j->Key("registry");
  EmitRegistryDelta(j, p.before, p.after);
  j->Close('}');
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: bench_e2e --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> --out <raw.json>\n";
    return 2;
  }
  WorkloadConfig cfg = MakeWorkload(args.workload);
  if (cfg.name.empty()) {
    std::cerr << "bench_e2e: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // The open-loop sender (this thread) gets a CPU to itself during the
  // measured window; every other thread, including the ones the library
  // starts, runs on the remaining CPUs.
  PinSelf(kSenderCpu, true);
  core::ApplyParallelConfig(BenchParallel(cfg.pool_threads));

  // Set-up runs several times; the last world is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  for (size_t k = 0; k < kSetupRepeats; ++k) {
    world.reset();
    auto s = Clock::now();
    world = Setup(cfg, args.seed);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - s).count());
  }
  World* w = world.get();

  SpanLog main_spans(args.trace, 1);
  SpanLog helper_spans(args.trace, 0x20000000u);
  Checks checks;
  RequestLog requests;
  requests.Reserve(static_cast<size_t>(cfg.open_rate * args.seconds * 1.5) + 16);
  ControllerLog control;
  ClosedResult closed;

  const double gmq_start = ServingGmq(w);
  // Peak RSS counts from here: the set-up repetitions before it are a
  // measurement device, not part of the run. Writing 5 resets VmHWM.
  { std::ofstream("/proc/self/clear_refs") << "5"; }
  PinSelf(kSenderCpu, false);
  g_t0 = Clock::now();
  const int64_t window_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t open_stop_ns =
      static_cast<int64_t>(static_cast<double>(window_ns) * cfg.open_share);
  RegistryView reg_start = ReadRegistry();
  RegistryView reg_open_end;
  if (cfg.steps == 0) {
    if (cfg.batch_max > 1) {
      OpenLoopAsync(w, cfg.open_rate, g_t0, open_stop_ns, &requests,
                    &checks, &main_spans);
    } else {
      std::atomic<bool> no{false};
      OpenLoopInline(w, cfg.open_rate, g_t0, open_stop_ns, no, &requests,
                     &checks, &main_spans);
    }
    reg_open_end = ReadRegistry();
    if (cfg.closed_clients > 0) {
      closed = ClosedLoop(w, cfg.closed_clients, cfg.closed_burst, window_ns,
                          &checks);
    }
  } else {
    std::atomic<bool> controller_running{true};
    std::thread controller([&] {
      PinSelf(kSenderCpu, true);
      RunController(w, args.seed, &control, &helper_spans);
      controller_running.store(false, std::memory_order_release);
    });
    OpenLoopInline(w, cfg.open_rate, g_t0, window_ns, controller_running,
                   &requests, &checks, &main_spans);
    controller.join();
    reg_open_end = ReadRegistry();
  }
  const int64_t measured_end_ns = NowNs();
  RegistryView reg_end = ReadRegistry();
  const double gmq_final = ServingGmq(w);

  // Direct forward probes on the served snapshot (traced run only): one
  // row, batch_max rows, and the observed mean batch size.
  std::vector<double> fwd_b1, fwd_bmax, fwd_bmean;
  size_t bmean_rows = 1;
  {
    auto it_c = reg_open_end.histograms.find("serve.batch_size");
    auto it_s = reg_start.histograms.find("serve.batch_size");
    if (it_c != reg_open_end.histograms.end() && it_s != reg_start.histograms.end()) {
      uint64_t n = it_c->second.first - it_s->second.first;
      double sum = it_c->second.second - it_s->second.second;
      if (n > 0) bmean_rows = std::max<size_t>(1, static_cast<size_t>(std::lround(sum / n)));
    }
  }
  if (args.trace) {
    auto snap = w->fleet->tenant(0)->store().Current();
    auto probe = [&](size_t rows, size_t reps, std::vector<double>* out) {
      nn::Matrix x(rows, w->domain->FeatureDim());
      for (size_t r = 0; r < rows; ++r) {
        x.SetRow(r, w->domain->FeaturizePredicate(w->traffic[r % w->traffic.size()]));
      }
      for (size_t k = 0; k < reps; ++k) {
        int64_t s = NowNs();
        std::vector<double> y = snap->model().EstimateTargets(x);
        int64_t e = NowNs();
        main_spans.Add("nn.forward", 2000000 + k, 0, s, e);
        out->push_back(static_cast<double>(e - s) / 1e3);
      }
    };
    probe(1, 400, &fwd_b1);
    probe(cfg.batch_max, 100, &fwd_bmax);
    probe(bmean_rows, 200, &fwd_bmean);
  }

  // Output checks that need the final state.
  std::vector<std::pair<uint64_t, uint64_t>> published;
  for (size_t t = 0; t < w->tenants.size(); ++t) published.push_back({t, 1});
  for (const PassRecord& p : control.passes) {
    if (p.ok && p.outcome.published) published.push_back({p.tenant, p.outcome.version});
  }
  uint64_t bad_versions = 0;
  uint64_t sample_checked = 0, sample_skipped = 0, sample_mismatch = 0;
  for (const auto& v : checks.seen_versions) {
    if (std::find(published.begin(), published.end(), v) == published.end()) {
      ++bad_versions;
    }
  }
  for (const Sample& s : checks.samples) {
    auto snap = w->fleet->tenant(s.tenant)->store().Current();
    if (snap->version() != s.version) {
      ++sample_skipped;
      continue;
    }
    ++sample_checked;
    double direct = snap->model().EstimateCardinality(s.features);
    if (!(std::fabs(direct - s.estimate) <= 1e-9 * std::fabs(direct))) {
      ++sample_mismatch;
    }
  }
  uint64_t failed_passes = 0;
  for (const PassRecord& p : control.passes) failed_passes += p.ok ? 0 : 1;
  const double peak_rss_mb = PeakRssMb();
  w->fleet->Stop();

  std::ofstream out(args.out);
  if (!out) {
    std::cerr << "bench_e2e: cannot write " << args.out << "\n";
    return 1;
  }
  Json j(&out);
  j.Open('{');
  j.Key("workload").Str(cfg.name);
  j.Key("seed").Int(static_cast<int64_t>(args.seed));
  j.Key("seconds").Num(args.seconds);
  j.Key("trace").Bool(args.trace);
  j.Key("fingerprint").Open('{');
  const util::CpuFeatures& cpu = util::GetCpuFeatures();
  j.Key("cpu_flags").Open('[');
  if (cpu.avx) j.Str("avx");
  if (cpu.fma) j.Str("fma");
  if (cpu.avx2) j.Str("avx2");
  if (cpu.avx512f) j.Str("avx512f");
  j.Close(']');
  j.Key("hardware_threads").Int(std::thread::hardware_concurrency());
  j.Key("build_type").Str(WARPER_BENCH_BUILD_TYPE);
  j.Key("nn_kernel").Str(nn::ActiveKernelName());
  j.Key("annotate_kernel").Str(storage::internal::ActiveAnnotateKernelName());
  j.Close('}');
  j.Key("config").Open('{');
  j.Key("dataset").Str(cfg.higgs ? "higgs" : "prsa");
  j.Key("table_rows").Int(static_cast<int64_t>(cfg.table_rows));
  j.Key("table_columns").Int(static_cast<int64_t>(w->table.NumColumns()));
  j.Key("tenants").Int(static_cast<int64_t>(cfg.tenants));
  j.Key("layer_sizes").IntArray(w->layer_sizes);
  j.Key("batch_max").Int(static_cast<int64_t>(cfg.batch_max));
  j.Key("open_rate").Num(cfg.open_rate);
  j.Key("closed_clients").Int(static_cast<int64_t>(cfg.closed_clients));
  j.Key("closed_burst").Int(static_cast<int64_t>(cfg.closed_burst));
  j.Key("workload_spec").Str(cfg.workload_spec);
  j.Key("drift_spec").Str(cfg.drift_spec);
  j.Key("steps").Int(static_cast<int64_t>(cfg.steps));
  j.Key("inline").Bool(cfg.batch_max == 1);
  j.Close('}');
  j.Key("setup_s").NumArray(setup_s);
  j.Key("window_ns").Int(window_ns);
  j.Key("measured_end_ns").Int(measured_end_ns);
  j.Key("requests").Open('{');
  j.Key("due").IntArray(requests.due);
  j.Key("sent").IntArray(requests.sent);
  j.Key("done").IntArray(requests.done);
  j.Key("status").IntArray(requests.status);
  j.Close('}');
  j.Key("closed").Open('{');
  j.Key("completed").Int(static_cast<int64_t>(closed.completed));
  j.Key("failed").Int(static_cast<int64_t>(closed.failed));
  j.Key("start_ns").Int(closed.start_ns);
  j.Key("end_ns").Int(closed.end_ns);
  j.Close('}');
  j.Key("registry_open");
  EmitRegistryDelta(&j, reg_start, reg_open_end);
  j.Key("registry_closed");
  EmitRegistryDelta(&j, reg_open_end, reg_end);
  j.Key("passes").Open('[');
  for (const PassRecord& p : control.passes) EmitPass(&j, p);
  j.Close(']');
  j.Key("events").Open('[');
  for (const EventRecord& e : control.events) {
    j.Open('{');
    j.Key("step").Int(static_cast<int64_t>(e.step));
    j.Key("apply_ns").Int(e.apply_ns);
    j.Key("first_count_ns").Int(e.first_count_ns);
    j.Key("rows_appended").Int(static_cast<int64_t>(e.event.rows_appended));
    j.Key("rows_updated").Int(static_cast<int64_t>(e.event.rows_updated));
    j.Key("rows_truncated").Int(static_cast<int64_t>(e.event.rows_truncated));
    j.Key("rows_after").Int(static_cast<int64_t>(e.rows_after));
    j.Close('}');
  }
  j.Close(']');
  j.Key("controller_end_ns").Int(control.end_ns);
  j.Key("gmq_start").Num(gmq_start);
  j.Key("gmq_series").NumArray(control.gmq_series);
  j.Key("gmq_final").Num(gmq_final);
  j.Key("checks").Open('{');
  j.Key("responses").Int(static_cast<int64_t>(checks.responses));
  j.Key("bad_values").Int(static_cast<int64_t>(checks.bad_values));
  j.Key("zero_estimates")
      .Int(static_cast<int64_t>(checks.zero_estimates));
  j.Key("bad_versions").Int(static_cast<int64_t>(bad_versions));
  j.Key("samples_checked").Int(static_cast<int64_t>(sample_checked));
  j.Key("samples_skipped").Int(static_cast<int64_t>(sample_skipped));
  j.Key("sample_mismatches").Int(static_cast<int64_t>(sample_mismatch));
  j.Key("labels_checked").Int(static_cast<int64_t>(control.labels_checked));
  j.Key("label_mismatches").Int(static_cast<int64_t>(control.label_mismatches));
  j.Key("failed_passes").Int(static_cast<int64_t>(failed_passes));
  j.Close('}');
  j.Key("forward_us").Open('{');
  j.Key("b1").NumArray(fwd_b1);
  j.Key("bmax").NumArray(fwd_bmax);
  j.Key("bmean").NumArray(fwd_bmean);
  j.Key("bmean_rows").Int(static_cast<int64_t>(bmean_rows));
  j.Close('}');
  j.Key("peak_rss_mb").Num(peak_rss_mb);
  j.Key("spans");
  EmitSpans(&j, {&main_spans, &helper_spans});
  j.Close('}');
  out << '\n';
  return out.good() ? 0 : 1;
}
