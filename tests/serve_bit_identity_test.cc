// The serving-tier determinism contract: published snapshot bytes are a
// pure function of the stream and the window, untouched by any number of
// concurrent readers.

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/tracker_factory.h"
#include "linalg/matrix.h"
#include "monitor/driver.h"
#include "serve/query_service.h"
#include "serve/snapshot_store.h"
#include "stream/synthetic.h"

namespace dswm {
namespace {

std::vector<TimedRow> SmallStream(int rows) {
  SyntheticConfig config;
  config.rows = rows;
  config.dim = 8;
  config.seed = 3;
  SyntheticGenerator gen(config);
  return Materialize(&gen, config.rows);
}

struct VersionBytes {
  uint64_t version = 0;
  Timestamp published_at = 0;
  std::vector<double> covariance;
  std::vector<double> rows;
};

std::vector<double> CopyMatrix(const Matrix& m) {
  const size_t n = static_cast<size_t>(m.rows()) * static_cast<size_t>(m.cols());
  return std::vector<double>(m.data(), m.data() + n);
}

// Replays `rows` with publication wired into the driver, recording every
// published version's bytes. `reader_threads` concurrent sessions hammer
// the store for the whole run (0 = none).
std::vector<VersionBytes> RunAndRecord(Algorithm algorithm,
                                       const std::vector<TimedRow>& rows,
                                       Timestamp window, int reader_threads) {
  TrackerConfig config;
  config.dim = 8;
  config.num_sites = 3;
  config.window = window;
  config.epsilon = 0.2;
  config.seed = 11;
  auto tracker = MakeTracker(algorithm, config);
  EXPECT_TRUE(tracker.ok()) << tracker.status().message();

  std::vector<VersionBytes> recorded;
  serve::StoreOptions store_options;
  store_options.on_publish = [&recorded](const serve::Snapshot& snapshot) {
    VersionBytes v;
    v.version = snapshot.meta().version;
    v.published_at = snapshot.meta().published_at;
    v.covariance = CopyMatrix(snapshot.estimate().Covariance());
    v.rows = CopyMatrix(snapshot.estimate().Rows());
    recorded.push_back(std::move(v));
  };
  serve::SnapshotStore store(store_options);
  serve::QueryService service(&store);

  DriverOptions options;
  options.query_points = 4;
  options.seed = 123;
  options.publish_store = &store;

  std::atomic<bool> done{false};
  ThreadPool pool(reader_threads + 1);
  for (int r = 0; r < reader_threads; ++r) {
    pool.Submit([&service, &done] {
      serve::QueryService::Session session = service.NewSession();
      const std::vector<double> x(8, 0.5);
      long served = 0;
      while (!done.load(std::memory_order_acquire) || served < 50) {
        if (session.Pca(x.data(), 8).ok()) ++served;
        if (session.Anomaly(x.data(), 8).ok()) ++served;
      }
    });
  }
  auto run = RunTracker(tracker.value().get(), rows, config.num_sites, window,
                        options);
  done.store(true, std::memory_order_release);
  pool.WaitIdle();
  EXPECT_TRUE(run.ok()) << run.status().message();
  EXPECT_GE(recorded.size(), 2u);
  return recorded;
}

void ExpectSameVersions(const std::vector<VersionBytes>& got,
                        const std::vector<VersionBytes>& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].version, want[i].version) << label << " v" << i;
    EXPECT_EQ(got[i].published_at, want[i].published_at) << label << " v" << i;
    ASSERT_EQ(got[i].covariance.size(), want[i].covariance.size())
        << label << " v" << i;
    EXPECT_EQ(std::memcmp(got[i].covariance.data(), want[i].covariance.data(),
                          got[i].covariance.size() * sizeof(double)),
              0)
        << label << " covariance v" << i;
    ASSERT_EQ(got[i].rows.size(), want[i].rows.size()) << label << " v" << i;
    EXPECT_EQ(std::memcmp(got[i].rows.data(), want[i].rows.data(),
                          got[i].rows.size() * sizeof(double)),
              0)
        << label << " rows v" << i;
  }
}

TEST(ServeBitIdentity, SnapshotBytesIdenticalAcrossReaders) {
  const std::vector<TimedRow> rows = SmallStream(500);
  const Timestamp window =
      (rows.back().timestamp - rows.front().timestamp + 1) / 3;

  // DA2 publishes covariance-native estimates, PWOR rows-native sketches:
  // both conversion directions must be deterministic.
  for (Algorithm a : {Algorithm::kDa2, Algorithm::kPwor}) {
    SCOPED_TRACE(AlgorithmName(a));
    const auto oracle = RunAndRecord(a, rows, window, 0);
    const auto with_readers = RunAndRecord(a, rows, window, 4);
    ExpectSameVersions(with_readers, oracle, "4readers");
  }
}

TEST(ServeBitIdentity, LoadedRunsRepeatIdentically) {
  // Two identical loaded runs (readers racing the feed) record identical
  // publication streams: reader pressure cannot perturb published state.
  const std::vector<TimedRow> rows = SmallStream(400);
  const Timestamp window =
      (rows.back().timestamp - rows.front().timestamp + 1) / 3;
  const auto first = RunAndRecord(Algorithm::kDa2, rows, window, 2);
  const auto second = RunAndRecord(Algorithm::kDa2, rows, window, 2);
  ExpectSameVersions(second, first, "repeat");
}

}  // namespace
}  // namespace dswm
