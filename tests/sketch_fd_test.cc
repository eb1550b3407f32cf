#include "sketch/frequent_directions.h"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "test_util.h"

namespace dswm {
namespace {

Matrix RandomRows(int n, int d, uint64_t seed, double spike_every = 0.0) {
  Rng rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    const double scale =
        (spike_every > 0.0 && rng.NextDouble() < spike_every) ? 20.0 : 1.0;
    for (int j = 0; j < d; ++j) m(i, j) = scale * rng.NextGaussian();
  }
  return m;
}

double SketchError(const Matrix& input, const FrequentDirections& fd) {
  const Matrix exact = GramTranspose(input);
  const Matrix approx = fd.Covariance();
  return SpectralNormExact(Subtract(exact, approx));
}

TEST(FrequentDirections, ExactBelowCapacity) {
  FrequentDirections fd(4, 8);
  const Matrix rows = RandomRows(10, 4, 1);  // 10 < 2*8
  for (int i = 0; i < 10; ++i) fd.Append(rows.Row(i));
  EXPECT_EQ(fd.row_count(), 10);
  EXPECT_DOUBLE_EQ(fd.shrinkage(), 0.0);
  EXPECT_LT(SketchError(rows, fd), 1e-9);
}

TEST(FrequentDirections, InputMassTracksAppends) {
  FrequentDirections fd(3, 2);
  const double r[] = {3.0, 0.0, 4.0};
  fd.Append(r);
  fd.Append(r);
  EXPECT_DOUBLE_EQ(fd.input_mass(), 50.0);
}

struct FdCase {
  int n;
  int d;
  int ell;
};

class FdGuarantee : public ::testing::TestWithParam<FdCase> {};

TEST_P(FdGuarantee, CovarianceErrorWithinBoundAndUnderestimates) {
  const auto [n, d, ell] = GetParam();
  const Matrix rows = RandomRows(n, d, 11 * n + d + ell, 0.02);
  FrequentDirections fd(d, ell);
  for (int i = 0; i < n; ++i) fd.Append(rows.Row(i));

  EXPECT_LE(fd.row_count(), 2 * ell);
  EXPECT_NEAR(fd.input_mass(), rows.FrobeniusNormSquared(), 1e-6);

  // Guarantee: error <= shrinkage <= ||A||_F^2 / (ell+1).
  const double err = SketchError(rows, fd);
  EXPECT_LE(err, fd.shrinkage() + 1e-6);
  EXPECT_LE(fd.shrinkage(), rows.FrobeniusNormSquared() / (ell + 1) + 1e-6);

  // FD underestimates: A^T A - B^T B is PSD.
  const EigenResult gap =
      SymmetricEigen(Subtract(GramTranspose(rows), fd.Covariance()));
  EXPECT_GE(gap.values.back(), -1e-6 * rows.FrobeniusNormSquared());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FdGuarantee,
    ::testing::Values(FdCase{50, 8, 2}, FdCase{200, 8, 4}, FdCase{200, 16, 8},
                      FdCase{500, 16, 3}, FdCase{1000, 32, 10},
                      FdCase{300, 4, 1}, FdCase{64, 64, 8}));

TEST(FrequentDirections, MergePreservesGuarantee) {
  const int d = 10;
  const Matrix a = RandomRows(300, d, 21);
  const Matrix b = RandomRows(200, d, 22);
  FrequentDirections fa(d, 6);
  FrequentDirections fb(d, 6);
  for (int i = 0; i < a.rows(); ++i) fa.Append(a.Row(i));
  for (int i = 0; i < b.rows(); ++i) fb.Append(b.Row(i));
  fa.Merge(fb);

  Matrix all(0, d);
  for (int i = 0; i < a.rows(); ++i) all.AppendRow(a.Row(i), d);
  for (int i = 0; i < b.rows(); ++i) all.AppendRow(b.Row(i), d);
  const double err = SketchError(all, fa);
  EXPECT_LE(err, fa.shrinkage() + 1e-6);
  EXPECT_LE(err, all.FrobeniusNormSquared() / 7.0 * 2.5);
}

TEST(FrequentDirections, CompactReducesToEllRows) {
  FrequentDirections fd(6, 3);
  const Matrix rows = RandomRows(5, 6, 30);
  for (int i = 0; i < 5; ++i) fd.Append(rows.Row(i));
  EXPECT_EQ(fd.row_count(), 5);
  fd.Compact();
  EXPECT_LE(fd.row_count(), 3);
}

TEST(FrequentDirections, ResetClearsState) {
  FrequentDirections fd(4, 2);
  const Matrix rows = RandomRows(9, 4, 31);
  for (int i = 0; i < 9; ++i) fd.Append(rows.Row(i));
  fd.Reset();
  EXPECT_EQ(fd.row_count(), 0);
  EXPECT_DOUBLE_EQ(fd.input_mass(), 0.0);
  EXPECT_DOUBLE_EQ(fd.shrinkage(), 0.0);
  EXPECT_DOUBLE_EQ(fd.Covariance().FrobeniusNormSquared(), 0.0);
}

TEST(FrequentDirections, SpaceWordsMatchesRows) {
  FrequentDirections fd(4, 2);
  const Matrix rows = RandomRows(3, 4, 32);
  for (int i = 0; i < 3; ++i) fd.Append(rows.Row(i));
  EXPECT_EQ(fd.SpaceWords(), 12);
}

// The pre-zero-copy shrink, reimplemented verbatim: materialize the live
// rows, take a full RightSvd, rebuild shrunk rows in a fresh buffer. The
// production in-place shrink must stay numerically equivalent to it.
class LegacyFrequentDirections {
 public:
  LegacyFrequentDirections(int d, int ell) : d_(d), ell_(ell), rows_(0, d) {}

  void Append(const double* row) {
    if (rows_.rows() == 2 * ell_) Shrink();
    rows_.AppendRow(row, d_);
  }

  [[nodiscard]] Matrix Covariance() const { return GramTranspose(rows_); }

 private:
  void Shrink() {
    const RightSvdResult svd = RightSvd(rows_);
    const int r = static_cast<int>(svd.sigma_squared.size());
    const double delta =
        (ell_ < r) ? std::max(svd.sigma_squared[ell_], 0.0) : 0.0;
    Matrix shrunk(0, d_);
    for (int i = 0; i < std::min(ell_, r); ++i) {
      const double s2 = std::max(svd.sigma_squared[i], 0.0) - delta;
      if (s2 <= 0.0) break;
      std::vector<double> row(svd.vt.Row(i), svd.vt.Row(i) + d_);
      Scale(row.data(), d_, std::sqrt(s2));
      shrunk.AppendRow(row.data(), d_);
    }
    rows_ = std::move(shrunk);
  }

  int d_;
  int ell_;
  Matrix rows_;
};

TEST(FrequentDirections, ZeroCopyShrinkMatchesLegacyShrink) {
  // Both the short-side (n <= d) and Gram-side (n > d) shrink paths.
  for (const auto& [d, ell] : {std::pair<int, int>{24, 8},
                               std::pair<int, int>{6, 5}}) {
    FrequentDirections fd(d, ell);
    LegacyFrequentDirections legacy(d, ell);
    const Matrix input = RandomRows(300, d, 91 + static_cast<uint64_t>(d));
    for (int i = 0; i < input.rows(); ++i) {
      fd.Append(input.Row(i));
      legacy.Append(input.Row(i));
    }
    const Matrix cov = fd.Covariance();
    const Matrix legacy_cov = legacy.Covariance();
    const double scale = std::max(1.0, legacy_cov.FrobeniusNormSquared());
    EXPECT_LT(MaxAbsDiff(cov, legacy_cov) / scale, 1e-9)
        << "d=" << d << " ell=" << ell;
  }
}

TEST(FrequentDirections, AdversarialSingleHeavyDirection) {
  // One giant direction among noise must survive sketching.
  const int d = 12;
  FrequentDirections fd(d, 4);
  Rng rng(40);
  std::vector<double> heavy(d, 0.0);
  heavy[3] = 100.0;
  Matrix all(0, d);
  std::vector<double> row(d);
  for (int i = 0; i < 400; ++i) {
    if (i == 200) {
      fd.Append(heavy.data());
      all.AppendRow(heavy.data(), d);
      continue;
    }
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    fd.Append(row.data());
    all.AppendRow(row.data(), d);
  }
  const Matrix cov = fd.Covariance();
  // The heavy direction's mass (10000) must be nearly intact.
  EXPECT_GT(cov(3, 3), 9000.0);
}

}  // namespace
}  // namespace dswm
