// Bit-identity of the batched small-matrix engine against sequential
// loops, over a grid of dimensions x batch sizes (including 0 and 1) x
// thread counts. The batched engine's contract (linalg/batched.h) is that
// problem i writes only slot i and the per-problem computation is the
// same instruction sequence as the loop, so batched == looped == threaded
// byte for byte. The *Threaded* tests also run under TSan via the
// 'ThreadPool|Threaded' filter in tools/run_checks.sh.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/batched.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "sketch/frequent_directions.h"
#include "window/matrix_eh.h"

namespace dswm {
namespace {

Matrix RandomSymmetric(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(d, d);
  for (int i = 0; i < d; ++i) {
    for (int j = 0; j <= i; ++j) {
      const double v = rng.NextGaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  for (int i = 0; i < a.rows(); ++i) {
    if (std::memcmp(a.Row(i), b.Row(i),
                    sizeof(double) * static_cast<size_t>(a.cols())) != 0) {
      return ::testing::AssertionFailure() << "row " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitIdenticalValues(const std::vector<double>& a,
                                              const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(1); }
};

struct BatchedCase {
  int dim;
  int batch;
  int threads;
};

class ThreadedBatchedEngine : public ::testing::TestWithParam<BatchedCase> {};

// One SymmetricEigen per slot through one BatchedDispatch: the shape of the
// driver's query-error fan-out (monitor/replay.cc), where every slot
// decomposes a d x d error matrix.
TEST_P(ThreadedBatchedEngine, SymEigenMatchesLoopedSequential) {
  const auto [dim, batch, threads] = GetParam();

  std::vector<Matrix> problems;
  problems.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    problems.push_back(
        RandomSymmetric(dim, 900 + 31ULL * dim + 7ULL * i));
  }

  // Looped oracle, always single-threaded-inline semantics.
  std::vector<EigenResult> looped;
  for (const Matrix& m : problems) looped.push_back(SymmetricEigen(m));

  ScopedThreads scoped(threads);
  std::vector<EigenResult> batched(batch);
  BatchedDispatch(batch, [&problems, &batched](int i) {
    batched[i] = SymmetricEigen(problems[i]);
  });

  for (int i = 0; i < batch; ++i) {
    EXPECT_TRUE(BitIdenticalValues(batched[i].values, looped[i].values))
        << "problem " << i;
    EXPECT_TRUE(BitIdentical(batched[i].vectors, looped[i].vectors))
        << "problem " << i;
  }
}

TEST_P(ThreadedBatchedEngine, FdShrinkMatchesLoopedSequential) {
  const auto [dim, batch, threads] = GetParam();
  const int ell = 3;

  // Per job: a destination FD with a part-full buffer, two source FDs
  // whose rows force embedded shrinks during the merge, and alternating
  // compact flags.
  std::vector<FrequentDirections> dsts;
  std::vector<FrequentDirections> srcs;
  dsts.reserve(batch);
  srcs.reserve(2 * batch);
  for (int i = 0; i < batch; ++i) {
    Rng rng(4400 + 13ULL * dim + static_cast<uint64_t>(i));
    FrequentDirections dst(dim, ell);
    std::vector<double> row(dim);
    for (int r = 0; r < ell + i % 3; ++r) {
      for (double& v : row) v = rng.NextGaussian();
      dst.Append(row.data());
    }
    dsts.push_back(std::move(dst));
    for (int s = 0; s < 2; ++s) {
      FrequentDirections src(dim, ell);
      for (int r = 0; r < 2 * ell - s; ++r) {
        for (double& v : row) v = rng.NextGaussian();
        src.Append(row.data());
      }
      srcs.push_back(std::move(src));
    }
  }

  // Looped oracle on copies: the exact Merge/Compact sequence each job
  // will replay.
  std::vector<FrequentDirections> expected = dsts;
  for (int i = 0; i < batch; ++i) {
    expected[i].Merge(srcs[2 * i]);
    expected[i].Merge(srcs[2 * i + 1]);
    if (i % 2 == 0) expected[i].Compact();
  }

  std::vector<FdShrinkJob> jobs(batch);
  for (int i = 0; i < batch; ++i) {
    jobs[i].fd = &dsts[i];
    jobs[i].sources = {&srcs[2 * i], &srcs[2 * i + 1]};
    jobs[i].compact = i % 2 == 0;
  }

  ScopedThreads scoped(threads);
  BatchedFdShrink(jobs.data(), batch);

  for (int i = 0; i < batch; ++i) {
    EXPECT_EQ(dsts[i].row_count(), expected[i].row_count()) << "job " << i;
    EXPECT_TRUE(BitIdentical(dsts[i].RowsMatrix(), expected[i].RowsMatrix()))
        << "job " << i;
    const double got = dsts[i].shrinkage();
    const double want = expected[i].shrinkage();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << "job " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ThreadedBatchedEngine,
    ::testing::Values(BatchedCase{1, 0, 1}, BatchedCase{1, 1, 4},
                      BatchedCase{3, 2, 1}, BatchedCase{3, 5, 4},
                      BatchedCase{8, 0, 4}, BatchedCase{8, 1, 1},
                      BatchedCase{8, 3, 2}, BatchedCase{8, 16, 4},
                      BatchedCase{17, 2, 4}, BatchedCase{17, 7, 3},
                      BatchedCase{33, 4, 4}, BatchedCase{33, 9, 2}));

// End-to-end: the same stream replayed through MatrixExpHistogram at 1 vs
// N threads produces byte-identical sketches. The stream interleaves unit
// rows with heavy bursts so Compress runs many multi-source merge groups
// (the batched path) as well as single merges and no-op passes.
TEST(ThreadedMehCompress, EndToEndBitIdenticalOneVsFourThreads) {
  const int d = 24;
  const double eps = 0.4;
  const Timestamp window = 600;

  auto replay = [&]() {
    MatrixExpHistogram meh(d, eps, window);
    Rng rng(77);
    std::vector<double> row(d);
    for (int t = 1; t <= 900; ++t) {
      for (double& v : row) v = rng.NextGaussian();
      if (t % 37 == 0) {
        for (double& v : row) v *= 16.0;  // heavy burst: cascades merges
      }
      meh.Insert(row.data(), t);
    }
    return meh;
  };

  const MatrixExpHistogram single = replay();
  MatrixExpHistogram threaded(d, eps, window);
  {
    ScopedThreads scoped(4);
    threaded = replay();
  }

  EXPECT_EQ(single.TotalRows(), threaded.TotalRows());
  EXPECT_EQ(single.SpaceWords(), threaded.SpaceWords());
  const double f1 = single.FrobeniusSquaredEstimate();
  const double f4 = threaded.FrobeniusSquaredEstimate();
  EXPECT_EQ(std::memcmp(&f1, &f4, sizeof(double)), 0);
  EXPECT_TRUE(BitIdentical(single.QueryRows(), threaded.QueryRows()));
  EXPECT_TRUE(
      BitIdentical(single.QueryCovariance(), threaded.QueryCovariance()));
}

}  // namespace
}  // namespace dswm
