// MicroBatcher: coalescing, determinism, admission, deadlines and
// workerless-pool dispatch.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "serve_test_util.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace warper::serve {
namespace {

constexpr size_t kDim = 4;

core::ServeConfig Config(size_t batch_max, size_t capacity = 1024) {
  core::ServeConfig config;
  config.batch_max = batch_max;
  config.queue_capacity = capacity;
  return config;
}

EstimateRequest Req(std::vector<double> features, int64_t deadline_us = 0) {
  EstimateRequest request;
  request.features = std::move(features);
  request.deadline_us = deadline_us;
  return request;
}

std::vector<double> RandomFeatures(util::Rng* rng) {
  std::vector<double> f(kDim);
  for (double& v : f) v = rng->Uniform();
  return f;
}

TEST(MicroBatcherTest, BatchedMatchesDirectBitIdentical) {
  // The default ParallelConfig is deterministic (scalar kernels), so an
  // N-row pass must reproduce each 1-row pass bit for bit.
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/3.7));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/8), &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());

  util::Rng rng(42);
  std::vector<std::vector<double>> features;
  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (size_t i = 0; i < 64; ++i) {
    features.push_back(RandomFeatures(&rng));
    futures.push_back(batcher.EstimateAsync(Req(features.back())));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<EstimateResponse> batched = futures[i].get();
    ASSERT_TRUE(batched.ok());
    Result<EstimateResponse> direct = batcher.EstimateDirect(Req(features[i]));
    ASSERT_TRUE(direct.ok());
    // Bit-identical, not approximately equal.
    EXPECT_EQ(batched.ValueOrDie().estimate, direct.ValueOrDie().estimate);
    // Both served from the same published snapshot version.
    EXPECT_EQ(batched.ValueOrDie().version, 1u);
    EXPECT_EQ(direct.ValueOrDie().version, 1u);
  }
  batcher.Stop();
}

TEST(MicroBatcherTest, BlockingEstimateResolvesThroughTheQueue) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.0));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());

  EstimateRequest request = Req({0.1, 0.2, 0.3, 0.4});
  request.tenant_id = 7;
  Result<EstimateResponse> got = batcher.Estimate(request);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().estimate,
            batcher.EstimateDirect(request).ValueOrDie().estimate);
  // The response echoes the request's tenant.
  EXPECT_EQ(got.ValueOrDie().tenant_id, 7u);
}

TEST(MicroBatcherTest, BatchMaxOneIsTheInlineFastPath) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/2.0));
  MicroBatcher batcher(Config(/*batch_max=*/1), &store, kDim);
  // Never started: batch_max == 1 never touches the queue or a drain task.
  Result<EstimateResponse> got = batcher.Estimate(Req({1.0, 1.0, 1.0, 1.0}));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().estimate,
            batcher.EstimateDirect(Req({1.0, 1.0, 1.0, 1.0}))
                .ValueOrDie()
                .estimate);
}

TEST(MicroBatcherTest, ShedPolicyRefusesOverflowWithUnavailable) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  core::ServeConfig config = Config(/*batch_max=*/2, /*capacity=*/2);
  config.overflow = core::ServeConfig::Overflow::kShed;
  util::ThreadPool pool(2);
  MicroBatcher batcher(config, &store, kDim);

  // Dispatch not started yet, so the queue fills deterministically.
  std::vector<double> f(kDim, 0.5);
  auto f1 = batcher.EstimateAsync(Req(f));
  auto f2 = batcher.EstimateAsync(Req(f));
  auto f3 = batcher.EstimateAsync(Req(f));  // over capacity -> shed
  Result<EstimateResponse> shed = f3.get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  // The admitted two are served once dispatch starts.
  ASSERT_TRUE(batcher.Start(&pool).ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, AsyncCallersAreNeverParkedByBlockPolicy) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  core::ServeConfig config = Config(/*batch_max=*/2, /*capacity=*/1);
  config.overflow = core::ServeConfig::Overflow::kBlock;
  util::ThreadPool pool(2);
  MicroBatcher batcher(config, &store, kDim);

  std::vector<double> f(kDim, 0.5);
  auto admitted = batcher.EstimateAsync(Req(f));
  // kBlock would park a synchronous caller; the pipelining API must return
  // immediately with Unavailable instead of deadlocking the producer.
  auto refused = batcher.EstimateAsync(Req(f));
  Result<EstimateResponse> r = refused.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  ASSERT_TRUE(batcher.Start(&pool).ok());
  EXPECT_TRUE(admitted.get().ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, ExpiredRequestsGetDeadlineExceeded) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);

  // Enqueue with a 1µs deadline while dispatch is not running, let it
  // lapse, then start: the drain task must expire it, not serve it.
  auto expired = batcher.EstimateAsync(
      Req(std::vector<double>(kDim, 0.5), /*deadline_us=*/1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(batcher.Start(&pool).ok());
  Result<EstimateResponse> r = expired.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  batcher.Stop();
}

TEST(MicroBatcherTest, WrongFeatureWidthIsRefusedUpFront) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());
  Result<EstimateResponse> r = batcher.Estimate(Req({1.0, 2.0}));  // kDim is 4
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(batcher.EstimateDirect(Req({1.0})).ok());
  batcher.Stop();
}

TEST(MicroBatcherTest, EstimateWithoutSnapshotFailsCleanly) {
  SnapshotStore store;  // nothing published
  MicroBatcher batcher(Config(/*batch_max=*/1), &store, kDim);
  Result<EstimateResponse> r =
      batcher.Estimate(Req(std::vector<double>(kDim, 0.5)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, StopAnswersQueuedRequestsAndIsIdempotent) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  util::ThreadPool pool(2);
  MicroBatcher batcher(Config(/*batch_max=*/4), &store, kDim);
  auto orphan = batcher.EstimateAsync(Req(std::vector<double>(kDim, 0.5)));
  batcher.Stop();  // never started: the queued request must still resolve
  Result<EstimateResponse> r = orphan.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  batcher.Stop();  // idempotent
  EXPECT_FALSE(batcher.Start(&pool).ok());  // no restart after Stop
  EXPECT_FALSE(batcher.running());
}

TEST(MicroBatcherTest, PoolModeServesBatchesWithoutADispatcherThread) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.3));
  util::ThreadPool pool(3);
  MicroBatcher batcher(Config(/*batch_max=*/8), &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());

  util::Rng rng(7);
  std::vector<std::vector<double>> features;
  std::vector<std::future<Result<EstimateResponse>>> futures;
  for (size_t i = 0; i < 64; ++i) {
    features.push_back(RandomFeatures(&rng));
    futures.push_back(batcher.EstimateAsync(Req(features.back())));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<EstimateResponse> got = futures[i].get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.ValueOrDie().estimate,
              batcher.EstimateDirect(Req(features[i])).ValueOrDie().estimate);
  }
  EXPECT_GE(batcher.served_total(), 64u);
  batcher.Stop();
}

uint64_t ServeLatencySamples() {
  util::MetricsSnapshot snap = util::Metrics().Snapshot();
  auto it = snap.histograms.find("serve.latency_us");
  return it == snap.histograms.end() ? 0 : it->second.count;
}

TEST(MicroBatcherTest, DirectEstimatesRecordServeLatency) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1));
  MicroBatcher batcher(Config(/*batch_max=*/1), &store, kDim);
  const std::vector<double> f(kDim, 0.5);
  const uint64_t before = ServeLatencySamples();

  // One sample per served direct estimate, whether called directly or via
  // the batch_max == 1 inline Estimate().
  ASSERT_TRUE(batcher.EstimateDirect(Req(f)).ok());
  EXPECT_EQ(ServeLatencySamples(), before + 1);
  ASSERT_TRUE(batcher.Estimate(Req(f)).ok());
  EXPECT_EQ(ServeLatencySamples(), before + 2);
  // A refused request is not a served one.
  ASSERT_FALSE(batcher.EstimateDirect(Req({1.0})).ok());
  EXPECT_EQ(ServeLatencySamples(), before + 2);
}

// ThreadPool(1) has no workers: Submit runs the drain task inline on the
// enqueueing thread. This is the path a one-tenant fleet takes on a 1-vCPU
// host through ThreadPool::Global().
TEST(MicroBatcherTest, WorkerlessPoolServesSynchronousBatchedEstimates) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/2.9));
  util::ThreadPool pool(1);
  MicroBatcher batcher(Config(/*batch_max=*/8), &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());

  util::Rng rng(11);
  for (size_t i = 0; i < 32; ++i) {
    EstimateRequest request = Req(RandomFeatures(&rng));
    Result<EstimateResponse> got = batcher.Estimate(request);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.ValueOrDie().estimate,
              batcher.EstimateDirect(request).ValueOrDie().estimate);
  }
  // An async request is already answered when EstimateAsync returns.
  std::vector<double> f = RandomFeatures(&rng);
  std::future<Result<EstimateResponse>> async = batcher.EstimateAsync(Req(f));
  ASSERT_EQ(async.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(async.get().ValueOrDie().estimate,
            batcher.EstimateDirect(Req(f)).ValueOrDie().estimate);
  batcher.Stop();
}

TEST(MicroBatcherTest, WorkerlessPoolBlockQueueAtCapacityResolves) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.7));
  core::ServeConfig config = Config(/*batch_max=*/2, /*capacity=*/4);
  config.overflow = core::ServeConfig::Overflow::kBlock;
  util::Rng rng(13);
  std::vector<std::vector<double>> features;
  for (size_t i = 0; i < 10; ++i) features.push_back(RandomFeatures(&rng));

  // Started: a queue filled to capacity before Start, plus a synchronous
  // caller that kBlock parks, all drain inline and match EstimateDirect.
  {
    util::ThreadPool pool(1);
    MicroBatcher batcher(config, &store, kDim);
    std::vector<std::future<Result<EstimateResponse>>> queued;
    for (size_t i = 0; i < 4; ++i) {
      queued.push_back(batcher.EstimateAsync(Req(features[i])));
    }
    ASSERT_EQ(batcher.ApproxQueueDepth(), 4u);
    std::future<Result<EstimateResponse>> parked =
        std::async(std::launch::async,
                   [&] { return batcher.Estimate(Req(features[4])); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(batcher.Start(&pool).ok());
    queued.push_back(std::move(parked));
    for (size_t i = 0; i < queued.size(); ++i) {
      Result<EstimateResponse> got = queued[i].get();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.ValueOrDie().estimate,
                batcher.EstimateDirect(Req(features[i])).ValueOrDie().estimate);
    }
    batcher.Stop();
  }
  // Stopped at capacity: the queued requests are answered Unavailable and
  // the parked caller is released instead of waiting for room forever.
  {
    util::ThreadPool pool(1);
    MicroBatcher batcher(config, &store, kDim);
    std::vector<std::future<Result<EstimateResponse>>> queued;
    for (size_t i = 5; i < 9; ++i) {
      queued.push_back(batcher.EstimateAsync(Req(features[i])));
    }
    std::future<Result<EstimateResponse>> parked =
        std::async(std::launch::async,
                   [&] { return batcher.Estimate(Req(features[9])); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    batcher.Stop();
    for (auto& f : queued) {
      EXPECT_EQ(f.get().status().code(), StatusCode::kUnavailable);
    }
    EXPECT_EQ(parked.get().status().code(), StatusCode::kFailedPrecondition);
  }
}

}  // namespace
}  // namespace warper::serve
