// Concurrency stress for the serving layer — the TSan target: N producer
// threads hammer the estimate paths while a writer hot-swaps snapshots in a
// tight loop. Every estimate must come from exactly one coherent version
// (scale k predicts k·Σf), and no request may be lost.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "serve/batcher.h"
#include "serve/snapshot.h"
#include "serve_test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace warper::serve {
namespace {

constexpr size_t kDim = 4;

// Features summing to exactly 1.0 so a snapshot with scale k answers k — any
// torn read across versions would produce a value that is no version's
// answer.
std::vector<double> UnitFeatures() { return {0.25, 0.25, 0.25, 0.25}; }

EstimateRequest UnitRequest() {
  EstimateRequest request;
  request.features = UnitFeatures();
  return request;
}

bool IsSomeVersionsAnswer(double card, size_t max_version) {
  for (size_t k = 1; k <= max_version; ++k) {
    if (card == ce::TargetToCard(static_cast<double>(k))) return true;
  }
  return false;
}

TEST(ServingStressTest, ProducersVsHotSwapsDirectPath) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.0));
  core::ServeConfig config;
  config.batch_max = 1;  // inline fast path
  MicroBatcher batcher(config, &store, kDim);

  constexpr size_t kProducers = 4;
  constexpr size_t kSwaps = 200;
  constexpr size_t kRequestsPerProducer = 400;

  std::atomic<bool> go{false};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < kRequestsPerProducer; ++i) {
        Result<EstimateResponse> r = batcher.Estimate(UnitRequest());
        if (!r.ok() ||
            !IsSomeVersionsAnswer(r.ValueOrDie().estimate, kSwaps + 1)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    while (!go.load()) std::this_thread::yield();
    for (size_t k = 2; k <= kSwaps + 1; ++k) {
      store.Publish(MakeStubSnapshot(k, /*scale=*/static_cast<double>(k)));
    }
  });
  go.store(true);
  for (std::thread& t : producers) t.join();
  writer.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(store.CurrentVersion(), kSwaps + 1);
}

TEST(ServingStressTest, ProducersVsHotSwapsBatchedPath) {
  SnapshotStore store;
  store.Publish(MakeStubSnapshot(1, /*scale=*/1.0));
  core::ServeConfig config;
  config.batch_max = 8;
  util::ThreadPool pool(2);
  MicroBatcher batcher(config, &store, kDim);
  ASSERT_TRUE(batcher.Start(&pool).ok());

  constexpr size_t kProducers = 4;
  constexpr size_t kSwaps = 100;
  constexpr size_t kRequestsPerProducer = 50;
  constexpr size_t kPipeline = 8;

  std::atomic<bool> go{false};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      std::vector<std::future<Result<EstimateResponse>>> inflight;
      for (size_t i = 0; i < kRequestsPerProducer; ++i) {
        inflight.push_back(batcher.EstimateAsync(UnitRequest()));
        if (inflight.size() >= kPipeline) {
          for (auto& f : inflight) {
            Result<EstimateResponse> r = f.get();
            if (!r.ok() || !IsSomeVersionsAnswer(r.ValueOrDie().estimate,
                                                 kSwaps + 1)) {
              bad.fetch_add(1);
            }
          }
          inflight.clear();
        }
      }
      for (auto& f : inflight) {
        Result<EstimateResponse> r = f.get();
        if (!r.ok() ||
            !IsSomeVersionsAnswer(r.ValueOrDie().estimate, kSwaps + 1)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    while (!go.load()) std::this_thread::yield();
    for (size_t k = 2; k <= kSwaps + 1; ++k) {
      store.Publish(MakeStubSnapshot(k, /*scale=*/static_cast<double>(k)));
      std::this_thread::yield();
    }
  });
  go.store(true);
  for (std::thread& t : producers) t.join();
  writer.join();
  batcher.Stop();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace warper::serve
