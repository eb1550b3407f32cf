// SnapshotStore semantics: versioning and meta stamping, version
// lifetimes (a held version is never freed, one nobody holds is), the
// exactly-once materialization contract, and a publish-while-read stress
// that TSan can chew on (ctest -L serve runs in the TSan tree via
// tools/run_checks.sh).

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/covariance_estimate.h"
#include "obs/metrics.h"
#include "serve/query_service.h"
#include "serve/snapshot_store.h"

namespace dswm {
namespace {

// A d x d covariance whose (0,0) entry encodes `tag`, so readers can
// cross-check that the version they hold serves that version's bytes.
Matrix TaggedCovariance(int d, double tag) {
  Matrix c(d, d);
  for (int i = 0; i < d; ++i) c(i, i) = 1.0 + static_cast<double>(i);
  c(0, 0) = tag;
  return c;
}

Status PublishTagged(serve::SnapshotStore* store, int d, double tag,
                     Timestamp at) {
  return store->Publish(
      CovarianceEstimate::FromCovariance(TaggedCovariance(d, tag)), at,
      /*window=*/100);
}

TEST(SnapshotStore, RejectsEmptyEstimateAndBadOptions) {
  serve::SnapshotStore store;
  const Status empty = store.Publish(CovarianceEstimate(), 10, 100);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.latest_version(), 0u);
  EXPECT_EQ(store.Latest(), nullptr);
}

TEST(SnapshotStore, VersionsAndMetaStamping) {
  serve::SnapshotStore store;
  EXPECT_EQ(store.Latest(), nullptr);  // before the first publish

  ASSERT_TRUE(PublishTagged(&store, 4, 7.0, 250).ok());
  ASSERT_TRUE(PublishTagged(&store, 4, 8.0, 350).ok());
  EXPECT_EQ(store.latest_version(), 2u);

  const serve::SnapshotRef ref = store.Latest();
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->meta().version, 2u);
  EXPECT_EQ(ref->meta().published_at, 350);
  EXPECT_EQ(ref->meta().window, 100);
  // Coverage (window_start, published_at] with cutoff = t - window.
  EXPECT_EQ(ref->meta().window_start, 251);
  EXPECT_DOUBLE_EQ(ref->estimate().Covariance()(0, 0), 8.0);
  EXPECT_TRUE(ref->estimate().sealed());
}

TEST(SnapshotStore, PinnedVersionSurvivesLaterPublishes) {
  serve::SnapshotStore store;
  ASSERT_TRUE(PublishTagged(&store, 4, 1.0, 100).ok());

  std::weak_ptr<const serve::Snapshot> first;
  std::weak_ptr<const serve::Snapshot> second;
  {
    const serve::SnapshotRef pinned = store.Latest();
    first = pinned;
    ASSERT_TRUE(PublishTagged(&store, 4, 2.0, 200).ok());
    second = store.Latest();
    ASSERT_TRUE(PublishTagged(&store, 4, 3.0, 300).ok());
    // Version 1 is held here, so it outlives two later publishes and its
    // bytes stay version-consistent. Version 2 had no holder left once
    // version 3 replaced it.
    EXPECT_EQ(pinned->meta().version, 1u);
    EXPECT_DOUBLE_EQ(pinned->estimate().Covariance()(0, 0), 1.0);
    EXPECT_FALSE(first.expired());
    EXPECT_TRUE(second.expired());
  }
  // Dropping the last holder frees version 1 without another publish.
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(store.latest_version(), 3u);
}

TEST(SnapshotStore, ReaderDestructionReclaims) {
  serve::SnapshotStore store;
  ASSERT_TRUE(PublishTagged(&store, 3, 1.0, 100).ok());
  const std::weak_ptr<const serve::Snapshot> first = store.Latest();
  serve::QueryService service(&store);
  {
    serve::QueryService::Session session = service.NewSession();
    const std::vector<double> x(3, 1.0);
    ASSERT_TRUE(session.Pca(x.data(), 3).ok());
    ASSERT_TRUE(PublishTagged(&store, 3, 2.0, 200).ok());
    // The idle session still holds the version of its last query.
    EXPECT_FALSE(first.expired());
  }
  // Destroying the session frees it without needing another publish.
  EXPECT_TRUE(first.expired());
}

TEST(SnapshotStore, RefOutlivesTheStore) {
  serve::SnapshotRef ref;
  {
    serve::SnapshotStore store;
    ASSERT_TRUE(PublishTagged(&store, 3, 5.0, 100).ok());
    ref = store.Latest();
  }
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->meta().version, 1u);
  EXPECT_DOUBLE_EQ(ref->estimate().Covariance()(0, 0), 5.0);
}

TEST(SnapshotStore, MaterializesEachVersionExactlyOnce) {
  // The acceptance counter-assert: per published version, exactly one
  // eigendecomposition and one PSD root (covariance-native estimates make
  // the root real O(d^3) work), no matter how many readers query.
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  obs::Registry().ResetForTest();

  const int kVersions = 5;
  serve::SnapshotStore store;
  for (int v = 1; v <= kVersions; ++v) {
    ASSERT_TRUE(PublishTagged(&store, 6, static_cast<double>(v), 100 * v).ok());
  }
  serve::QueryService service(&store);
  for (int s = 0; s < 3; ++s) {
    serve::QueryService::Session session = service.NewSession();
    const std::vector<double> x(6, 1.0);
    for (int q = 0; q < 10; ++q) {
      ASSERT_TRUE(session.Pca(x.data(), 6).ok());
      ASSERT_TRUE(session.Anomaly(x.data(), 6).ok());
    }
  }

  long eigen_count = 0;
  long psd_count = 0;
  for (const auto& [name, value] : obs::Registry().Snapshot().counters) {
    const auto ends_with = [&name](const char* suffix) {
      const size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with("query.eigen.count")) eigen_count += value;
    if (ends_with("query.psd_sqrt.count")) psd_count += value;
  }
  EXPECT_EQ(eigen_count, kVersions);
  EXPECT_EQ(psd_count, kVersions);

  obs::SetEnabled(was_enabled);
}

TEST(SnapshotStore, PublishWhileReadStress) {
  // Concurrency stress for TSan: one publisher task races reader tasks of
  // two kinds. Store readers take store.Latest() on every read; session
  // readers query through QueryService::Session, which re-fetches only
  // when the version moves. Both verify that whatever version they read
  // serves that version's bytes -- a version freed while held shows up as
  // a torn tag, a use-after-free, or a TSan report -- and session readers
  // also check that their versions never go backwards.
  const int kStoreReaders = 3;
  const int kSessionReaders = 2;
  const int kVersions = 60;
  const int d = 8;
  const double kLambdaFraction = 0.01;
  serve::StoreOptions options;
  options.lambda_fraction = kLambdaFraction;
  serve::SnapshotStore store(options);
  serve::QueryService service(&store);
  std::atomic<bool> done{false};
  std::atomic<long> mismatches{0};
  std::atomic<long> reads{0};

  // Off-tag diagonal sum of TaggedCovariance: 2 + 3 + ... + d.
  double rest = 0.0;
  for (int i = 1; i < d; ++i) rest += 1.0 + static_cast<double>(i);
  // score(e0) = 1 / (C(0,0) + lambda) for the diagonal C of version v.
  const auto expected_score = [&](uint64_t version) {
    const double tag = static_cast<double>(version);
    return 1.0 / (tag + kLambdaFraction * (tag + rest) / d);
  };

  ThreadPool pool(kStoreReaders + kSessionReaders + 1);
  pool.Submit([&] {
    for (int v = 1; v <= kVersions; ++v) {
      ASSERT_TRUE(
          PublishTagged(&store, d, static_cast<double>(v), 10 * v).ok());
    }
    done.store(true, std::memory_order_release);
  });
  for (int r = 0; r < kStoreReaders; ++r) {
    pool.Submit([&] {
      long local_reads = 0;
      while (!done.load(std::memory_order_acquire) || local_reads < 100) {
        const serve::SnapshotRef ref = store.Latest();
        if (ref == nullptr) continue;
        ++local_reads;
        const double tag = ref->estimate().Covariance()(0, 0);
        if (tag != static_cast<double>(ref->meta().version)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // Touch the memoized views too: all shared, all sealed.
        if (ref->estimate().Rows().cols() != d) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }
  for (int r = 0; r < kSessionReaders; ++r) {
    pool.Submit([&] {
      serve::QueryService::Session session = service.NewSession();
      std::vector<double> e0(d, 0.0);
      e0[0] = 1.0;
      uint64_t seen = 0;
      long local_reads = 0;
      while (!done.load(std::memory_order_acquire) || local_reads < 100) {
        const auto got = session.Anomaly(e0.data(), d);
        if (!got.ok()) continue;  // nothing published yet
        ++local_reads;
        const uint64_t version = got.value().meta.version;
        if (version < seen) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        seen = version;
        const double want = expected_score(version);
        if (std::fabs(got.value().score - want) > 1e-9 * want) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }
  pool.WaitIdle();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(reads.load(), (kStoreReaders + kSessionReaders) * 100);
  EXPECT_EQ(store.latest_version(), static_cast<uint64_t>(kVersions));
  // Every reader and session is gone, so the store is the last holder of
  // the latest version and the next publish frees it.
  const std::weak_ptr<const serve::Snapshot> last = store.Latest();
  ASSERT_TRUE(PublishTagged(&store, d, kVersions + 1.0, 10000).ok());
  EXPECT_TRUE(last.expired());
}

}  // namespace
}  // namespace dswm
