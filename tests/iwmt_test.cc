#include "core/iwmt.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "linalg/symmetric_eigen.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace dswm {
namespace {

struct IwmtCase {
  int d;
  int ell;
  double theta_scale;  // theta as a fraction of final stream mass
};

class IwmtProperty : public ::testing::TestWithParam<IwmtCase> {};

TEST_P(IwmtProperty, PrefixCovarianceGapStaysBounded) {
  const auto [d, ell, theta_scale] = GetParam();
  IwmtProtocol iwmt(d, ell);
  Rng rng(101 + d);

  Matrix input_cov(d, d);
  Matrix output_cov(d, d);
  double input_mass = 0.0;
  std::vector<double> row(d);
  std::vector<IwmtOutput> outs;

  double worst_ratio = 0.0;
  for (int i = 0; i < 1500; ++i) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    input_cov.AddOuterProduct(row.data(), 1.0);
    input_mass += NormSquared(row.data(), d);
    const double theta = std::max(theta_scale * input_mass, 1e-12);

    outs.clear();
    iwmt.Input(row.data(), theta, &outs);
    for (const IwmtOutput& o : outs) {
      output_cov.AddOuterProduct(o.direction.data(), 1.0);
      // Every emitted direction carries >= theta/2 squared mass (the
      // communication bound's linchpin).
      EXPECT_GE(NormSquared(o.direction.data(), d), theta / 2.0 - 1e-9);
    }

    if (i > 50 && i % 31 == 0) {
      const double gap =
          SpectralNormSym(Subtract(input_cov, output_cov));
      // Contract: gap <= theta + FD shrinkage (<= mass/(ell+1)).
      const double budget = theta + input_mass / (ell + 1) + 1e-9;
      worst_ratio = std::max(worst_ratio, gap / budget);
    }
  }
  EXPECT_LE(worst_ratio, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IwmtProperty,
                         ::testing::Values(IwmtCase{8, 4, 0.05},
                                           IwmtCase{8, 10, 0.02},
                                           IwmtCase{16, 8, 0.1},
                                           IwmtCase{4, 2, 0.2},
                                           IwmtCase{24, 12, 0.05}));

TEST(Iwmt, FlushEmitsEverythingAndResets) {
  const int d = 6;
  IwmtProtocol iwmt(d, 3);
  Rng rng(5);
  Matrix input_cov(d, d);
  std::vector<double> row(d);
  std::vector<IwmtOutput> outs;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    input_cov.AddOuterProduct(row.data(), 1.0);
    iwmt.Input(row.data(), 1e9, &outs);  // huge theta: nothing emits
  }
  EXPECT_TRUE(outs.empty());
  EXPECT_GT(iwmt.unreported_mass(), 0.0);

  iwmt.Flush(&outs);
  EXPECT_FALSE(outs.empty());
  EXPECT_DOUBLE_EQ(iwmt.unreported_mass(), 0.0);

  Matrix output_cov(d, d);
  for (const IwmtOutput& o : outs) {
    output_cov.AddOuterProduct(o.direction.data(), 1.0);
  }
  // After a flush, the only gap left is FD shrinkage.
  const double gap = SpectralNormSym(Subtract(input_cov, output_cov));
  EXPECT_LE(gap, input_cov.FrobeniusNormSquared());
  EXPECT_LE(gap, 40.0 * d / 4.0);  // mass/(ell+1) ballpark
}

TEST(Iwmt, CommunicationSublinearInStreamLength) {
  const int d = 8;
  IwmtProtocol iwmt(d, 4);
  Rng rng(6);
  std::vector<double> row(d);
  std::vector<IwmtOutput> outs;
  double mass = 0.0;
  for (int i = 0; i < 5000; ++i) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    mass += NormSquared(row.data(), d);
    iwmt.Input(row.data(), std::max(0.05 * mass, 1e-12), &outs);
  }
  // #directions <= 2*mass/theta_final-ish; far below 5000 rows.
  EXPECT_LT(outs.size(), 500u);
  EXPECT_GT(outs.size(), 2u);
}

TEST(Iwmt, SingleHeavyRowEmitsImmediately) {
  const int d = 4;
  IwmtProtocol iwmt(d, 2);
  std::vector<IwmtOutput> outs;
  const double heavy[] = {100.0, 0.0, 0.0, 0.0};
  iwmt.Input(heavy, /*theta=*/50.0, &outs);
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_NEAR(NormSquared(outs[0].direction.data(), d), 10000.0, 1e-6);
}

// The trigger's factor persists across inputs, so SpaceWords counts it on
// top of the residual rows: nothing before the first rebuild, at most the
// full factor and projections afterwards, and nothing after a flush.
TEST(Iwmt, SpaceWordsCountsTheTriggerFactor) {
  const int d = 16;
  const int ell = 4;
  IwmtProtocol iwmt(d, ell);
  Rng rng(17);
  std::vector<double> row(d);
  std::vector<IwmtOutput> outs;
  for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
  iwmt.Input(row.data(), /*theta=*/1e9, &outs);
  EXPECT_EQ(iwmt.SpaceWords(), iwmt.residual().SpaceWords());

  const long rows = 2 * ell;
  const long rank = std::min<long>(rows, d);
  const long factor_cap = rank * (d + 1) + rows * rank + rows * (rows + 1) / 2;
  double mass = 0.0;
  bool counted_factor = false;
  for (int i = 0; i < 400; ++i) {
    for (int j = 0; j < d; ++j) row[j] = rng.NextGaussian();
    mass += NormSquared(row.data(), d);
    iwmt.Input(row.data(), 0.05 * mass, &outs);
    const long extra = iwmt.SpaceWords() - iwmt.residual().SpaceWords();
    EXPECT_GE(extra, 0);
    EXPECT_LE(extra, factor_cap);
    counted_factor |= extra > 0;
  }
  EXPECT_TRUE(counted_factor);
  iwmt.Flush(&outs);
  EXPECT_EQ(iwmt.SpaceWords(), 0);
}

// Brute-force reference for the trigger: the same FD residual, decomposed
// after every input, emitting exactly when its top sigma^2 reaches theta.
class ReferenceIwmt {
 public:
  ReferenceIwmt(int d, int ell) : d_(d), residual_(d, ell) {}

  void Input(const double* row, double theta, std::vector<IwmtOutput>* out) {
    residual_.Append(row);
    const RightSvdResult svd = RightSvd(residual_.RowsMatrix());
    if (svd.sigma_squared.empty() || svd.sigma_squared[0] < theta) return;
    residual_.Reset();
    std::vector<double> scaled(d_);
    for (size_t i = 0; i < svd.sigma_squared.size(); ++i) {
      const double s2 = svd.sigma_squared[i];
      if (s2 <= 0.0) continue;
      const double* v = svd.vt.Row(static_cast<int>(i));
      for (int j = 0; j < d_; ++j) scaled[j] = std::sqrt(s2) * v[j];
      if (s2 >= theta / 2.0) {
        out->push_back(IwmtOutput{scaled});
      } else {
        residual_.Append(scaled.data());
      }
    }
  }

  void Flush(std::vector<IwmtOutput>* out) {
    for (int i = 0; i < residual_.row_count(); ++i) {
      out->push_back(IwmtOutput{std::vector<double>(
          residual_.Row(i), residual_.Row(i) + d_)});
    }
    residual_.Reset();
  }

 private:
  int d_;
  FrequentDirections residual_;
};

double TopSigmaSquared(const FrequentDirections& sketch) {
  const RightSvdResult svd = RightSvd(sketch.RowsMatrix());
  return svd.sigma_squared.empty() ? 0.0 : svd.sigma_squared[0];
}

void ExpectSameOutputs(const std::vector<IwmtOutput>& got,
                       const std::vector<IwmtOutput>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t k = 0; k < got.size(); ++k) {
    const std::vector<double>& a = got[k].direction;
    const std::vector<double>& b = want[k].direction;
    ASSERT_EQ(a.size(), b.size());
    const double scale = std::max(
        1.0, std::sqrt(NormSquared(b.data(), static_cast<int>(b.size()))));
    for (size_t j = 0; j < a.size(); ++j) {
      ASSERT_NEAR(a[j], b[j], 1e-9 * scale) << "step " << step;
    }
  }
}

enum class Stream { kIsotropic, kRankOne, kHeavyAfterLight };
enum class Theta { kGrowing, kShrinking, kFixed, kSawtooth };

struct TriggerCase {
  int d;
  int ell;
  Stream stream;
  Theta theta;
  int flush_every;  // 0: never
  int rows;
};

// The rows and thresholds of one case, step by step (steps count from 1).
class TriggerInputs {
 public:
  explicit TriggerInputs(const TriggerCase& c)
      : c_(c), rng_(900 + c.d), direction_(c.d), row_(c.d) {
    for (int j = 0; j < c.d; ++j) direction_[j] = rng_.NextGaussian();
    Scale(direction_.data(), c.d,
          1.0 / std::sqrt(NormSquared(direction_.data(), c.d)));
  }

  // Draws the row of step i into row() and returns its theta.
  double Next(int i) {
    switch (c_.stream) {
      case Stream::kIsotropic:
        for (int j = 0; j < c_.d; ++j) row_[j] = rng_.NextGaussian();
        break;
      case Stream::kRankOne: {
        const double g = rng_.NextGaussian();
        for (int j = 0; j < c_.d; ++j) row_[j] = g * direction_[j];
        break;
      }
      case Stream::kHeavyAfterLight: {
        const double scale = i % 150 == 0 ? 40.0 : 1.0;
        for (int j = 0; j < c_.d; ++j) row_[j] = scale * rng_.NextGaussian();
        break;
      }
    }
    const double w = NormSquared(row_.data(), c_.d);
    mass_ += w;
    // About twice the top sigma^2 of a full residual of unit rows.
    const double full = 2.0 * (2 * c_.ell + c_.d);
    switch (c_.theta) {
      case Theta::kGrowing:  // IWMT_c's eps/2 * (mass read so far)
        return 0.025 * mass_;
      case Theta::kShrinking:  // from full to a fifth of it
        return full * (1.0 - 0.8 * i / c_.rows);
      case Theta::kFixed:
        return 0.5 * full;
      case Theta::kSawtooth:
        // DA2's theta: a share of the window's mass, which grows with each
        // row and falls by a step when a block of rows expires.
        live_ += w;
        if (i % 40 == 0) live_ *= 0.5;
        return 0.05 * live_;
    }
    return 0.0;
  }

  [[nodiscard]] const double* row() const { return row_.data(); }

 private:
  TriggerCase c_;
  Rng rng_;
  std::vector<double> direction_;
  std::vector<double> row_;
  double mass_ = 0.0;
  double live_ = 0.0;
};

class IwmtTrigger : public ::testing::TestWithParam<TriggerCase> {};

// The certified trigger decides exactly like a full decomposition after
// every input: the same directions are emitted at the same steps, and
// every input that emitted nothing leaves the residual's exact top below
// theta. Counters confirm that both the certificate and the decomposition
// ran, and the row counts that FD shrinks ran.
TEST_P(IwmtTrigger, MatchesFullDecompositionReference) {
  const TriggerCase c = GetParam();
  IwmtProtocol iwmt(c.d, c.ell);
  ReferenceIwmt reference(c.d, c.ell);
  TriggerInputs inputs(c);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::MetricsSnapshot before = obs::Registry().Snapshot();

  std::vector<IwmtOutput> got;
  std::vector<IwmtOutput> want;
  int shrinks = 0;
  for (int i = 1; i <= c.rows; ++i) {
    const double theta = inputs.Next(i);
    const int rows_before = iwmt.residual().row_count();
    got.clear();
    want.clear();
    iwmt.Input(inputs.row(), theta, &got);
    reference.Input(inputs.row(), theta, &want);
    ExpectSameOutputs(got, want, i);
    if (got.empty()) {
      EXPECT_LT(TopSigmaSquared(iwmt.residual()), theta) << "step " << i;
      if (iwmt.residual().row_count() != rows_before + 1) ++shrinks;
    }
    if (c.flush_every > 0 && i % c.flush_every == 0) {
      got.clear();
      want.clear();
      iwmt.Flush(&got);
      reference.Flush(&want);
      ExpectSameOutputs(got, want, i);
    }
  }

  const obs::MetricsSnapshot delta =
      obs::Registry().Snapshot().DeltaSince(before);
  obs::SetEnabled(was_enabled);
  const auto count = [&delta](const char* name) {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0L : it->second;
  };
  EXPECT_GT(count("core.iwmt.decompositions"), 0);
  // On an aligned stream the free mass prefilter is already exact, so only
  // the other streams reach the certificate with something to certify.
  if (c.stream != Stream::kRankOne) {
    EXPECT_GT(count("core.iwmt.certified_skips"), 0);
  }
  if (c.stream == Stream::kIsotropic && c.flush_every == 0) {
    EXPECT_GT(shrinks, 0);
  }
  // Only a lossless residual (l >= d) leaves shrunk rows that are not
  // orthogonal, and only then is the factor an eigensolve.
  if (c.ell < c.d) {
    EXPECT_EQ(count("core.iwmt.shrink_eigensolves"), 0);
  } else if (shrinks > 0) {
    EXPECT_GT(count("core.iwmt.shrink_eigensolves"), 0);
  }
}

// The trigger as it was before its Cholesky factor outlived a certificate
// run: every run past the prefilter factors all m new rows afresh at the
// current theta. It counts its own skips and decompositions.
class RefactoringIwmt {
 public:
  RefactoringIwmt(int d, int ell) : d_(d), residual_(d, ell) {}

  void Input(const double* row, double theta, std::vector<IwmtOutput>* out) {
    const int before = residual_.row_count();
    residual_.Append(row);
    if (residual_.row_count() != before + 1) {
      FactorShrunkRows(residual_.row_count() - 1);
    }
    mass_since_check_ += NormSquared(row, d_);
    if (last_top_ + mass_since_check_ < (1.0 - kTopMargin) * theta) return;
    if (CertifiedBelow(theta)) {
      ++skips_;
      return;
    }
    Decompose(theta, out);
  }

  void Flush(std::vector<IwmtOutput>* out) {
    for (int i = 0; i < residual_.row_count(); ++i) {
      out->push_back(IwmtOutput{std::vector<double>(
          residual_.Row(i), residual_.Row(i) + d_)});
    }
    residual_.Reset();
    rank_ = 0;
    Rebase(0);
  }

  [[nodiscard]] long SpaceWords() const {
    const long r = rank_;
    const long m = projected_;
    return residual_.SpaceWords() + r * (d_ + 1) + m * r + m * (m + 1) / 2;
  }

  [[nodiscard]] const FrequentDirections& residual() const {
    return residual_;
  }
  [[nodiscard]] long skips() const { return skips_; }
  [[nodiscard]] long decompositions() const { return decompositions_; }

 private:
  static constexpr double kTopMargin = 1e-4;
  static constexpr double kSchurMargin = 1e-6;

  void AllocateFactor() {
    if (!sigma2_.empty()) return;
    const int max_rows = 2 * residual_.ell();
    const int max_rank = std::min(max_rows, d_);
    basis_ = Matrix(max_rank, d_);
    sigma2_.assign(max_rank, 0.0);
    weight_.assign(max_rank, 0.0);
    proj_ = Matrix(max_rows, max_rank);
    scaled_ = Matrix(max_rows, max_rank);
    gram_ = Matrix(max_rows, max_rows);
    chol_ = Matrix(max_rows, max_rows);
  }

  void FactorShrunkRows(int rows) {
    AllocateFactor();
    rank_ = 0;
    if (residual_.ell() >= d_) {
      const EigenResult eig =
          SymmetricEigen(GramTransposePrefix(residual_.RowsMatrix(), rows));
      for (int k = 0; k < d_; ++k) {
        if (eig.values[k] <= 0.0) continue;
        basis_.SetRow(rank_, eig.vectors.Row(k));
        sigma2_[rank_++] = eig.values[k];
      }
      Rebase(rows);
      return;
    }
    for (int i = 0; i < rows; ++i) {
      const double* src = residual_.Row(i);
      const double s2 = NormSquared(src, d_);
      if (s2 <= 0.0) continue;
      double* v = basis_.Row(rank_);
      const double inv = 1.0 / std::sqrt(s2);
      for (int j = 0; j < d_; ++j) v[j] = inv * src[j];
      sigma2_[rank_++] = s2;
    }
    Rebase(rows);
  }

  void Rebase(int rows) {
    base_rows_ = rows;
    projected_ = 0;
    last_top_ = 0.0;
    for (int k = 0; k < rank_; ++k) {
      last_top_ = std::max(last_top_, sigma2_[k]);
    }
    mass_since_check_ = 0.0;
  }

  bool CertifiedBelow(double theta) {
    if (last_top_ > (1.0 - kTopMargin) * theta) return false;
    AllocateFactor();
    const int m = residual_.row_count() - base_rows_;
    for (; projected_ < m; ++projected_) {
      const double* f = residual_.Row(base_rows_ + projected_);
      double* z = proj_.Row(projected_);
      for (int k = 0; k < rank_; ++k) z[k] = Dot(basis_.Row(k), f, d_);
      double* g = gram_.Row(projected_);
      for (int b = 0; b <= projected_; ++b) {
        g[b] = Dot(residual_.Row(base_rows_ + b), f, d_);
      }
    }
    for (int k = 0; k < rank_; ++k) {
      weight_[k] = std::sqrt(sigma2_[k] / (theta - sigma2_[k]));
    }
    for (int i = 0; i < m; ++i) {
      const double* z = proj_.Row(i);
      double* zs = scaled_.Row(i);
      for (int k = 0; k < rank_; ++k) zs[k] = z[k] * weight_[k];
      double* li = chol_.Row(i);
      for (int j = 0; j <= i; ++j) {
        const double s = (i == j ? (1.0 - kSchurMargin) * theta : 0.0) -
                         gram_(i, j) - Dot(zs, scaled_.Row(j), rank_) -
                         Dot(li, chol_.Row(j), j);
        if (j < i) {
          li[j] = s / chol_(j, j);
        } else if (s > 0.0) {
          li[i] = std::sqrt(s);
        } else {
          return false;
        }
      }
    }
    return true;
  }

  void Decompose(double theta, std::vector<IwmtOutput>* out) {
    ++decompositions_;
    const RightSvdResult svd = RightSvd(residual_.RowsMatrix());
    AllocateFactor();
    const bool emit =
        !svd.sigma_squared.empty() && svd.sigma_squared[0] >= theta;
    if (emit) residual_.Reset();
    rank_ = 0;
    std::vector<double> scaled(d_);
    for (size_t i = 0; i < svd.sigma_squared.size(); ++i) {
      const double s2 = svd.sigma_squared[i];
      if (s2 <= 0.0) continue;
      const double* v = svd.vt.Row(static_cast<int>(i));
      if (emit) {
        const double s = std::sqrt(s2);
        for (int j = 0; j < d_; ++j) scaled[j] = s * v[j];
        if (s2 >= theta / 2.0) {
          out->push_back(IwmtOutput{scaled});
          continue;
        }
        residual_.Append(scaled.data());
      }
      basis_.SetRow(rank_, v);
      sigma2_[rank_++] = s2;
    }
    Rebase(residual_.row_count());
  }

  int d_;
  FrequentDirections residual_;
  double last_top_ = 0.0;
  double mass_since_check_ = 0.0;
  int base_rows_ = 0;
  int rank_ = 0;
  Matrix basis_;
  std::vector<double> sigma2_;
  int projected_ = 0;
  Matrix proj_;
  Matrix gram_;
  std::vector<double> weight_;
  Matrix scaled_;
  Matrix chol_;
  long skips_ = 0;
  long decompositions_ = 0;
};

void ExpectIdenticalOutputs(const std::vector<IwmtOutput>& got,
                            const std::vector<IwmtOutput>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].direction.size(), want[k].direction.size());
    EXPECT_EQ(std::memcmp(got[k].direction.data(), want[k].direction.data(),
                          got[k].direction.size() * sizeof(double)),
              0)
        << "step " << step << ", direction " << k;
  }
}

void ExpectIdenticalResidual(const FrequentDirections& got,
                             const FrequentDirections& want, int d,
                             int step) {
  ASSERT_EQ(got.row_count(), want.row_count()) << "step " << step;
  for (int i = 0; i < got.row_count(); ++i) {
    EXPECT_EQ(std::memcmp(got.Row(i), want.Row(i), d * sizeof(double)), 0)
        << "step " << step << ", row " << i;
  }
}

// Extending the certificate's factor instead of refactoring it changes no
// bit: after every input and flush the emitted directions and the residual
// rows are memcmp-equal to the refactoring trigger's, SpaceWords agrees,
// and so does every skip and decomposition.
TEST_P(IwmtTrigger, MatchesRefactoringCertificate) {
  const TriggerCase c = GetParam();
  IwmtProtocol iwmt(c.d, c.ell);
  RefactoringIwmt reference(c.d, c.ell);
  TriggerInputs inputs(c);

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::Counter* skips =
      obs::Registry().GetCounter("core.iwmt.certified_skips");
  const obs::Counter* decompositions =
      obs::Registry().GetCounter("core.iwmt.decompositions");
  const long skips_before = skips->value();
  const long decompositions_before = decompositions->value();

  std::vector<IwmtOutput> got;
  std::vector<IwmtOutput> want;
  for (int i = 1; i <= c.rows; ++i) {
    const double theta = inputs.Next(i);
    got.clear();
    want.clear();
    iwmt.Input(inputs.row(), theta, &got);
    reference.Input(inputs.row(), theta, &want);
    if (c.flush_every > 0 && i % c.flush_every == 0) {
      iwmt.Flush(&got);
      reference.Flush(&want);
    }
    ExpectIdenticalOutputs(got, want, i);
    ExpectIdenticalResidual(iwmt.residual(), reference.residual(), c.d, i);
    ASSERT_EQ(iwmt.SpaceWords(), reference.SpaceWords()) << "step " << i;
    ASSERT_EQ(skips->value() - skips_before, reference.skips())
        << "step " << i;
    ASSERT_EQ(decompositions->value() - decompositions_before,
              reference.decompositions())
        << "step " << i;
  }
  obs::SetEnabled(was_enabled);
  EXPECT_GT(reference.decompositions(), 0);
  if (c.stream != Stream::kRankOne) {
    EXPECT_GT(reference.skips(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IwmtTrigger,
    ::testing::Values(
        // d = 4 <= ell = 5: every FD shrink is lossless, a Cholesky of the
        // d x d Gram, and the factor decomposes the shrunk rows' Gram.
        TriggerCase{4, 5, Stream::kIsotropic, Theta::kGrowing, 0, 800},
        TriggerCase{4, 5, Stream::kIsotropic, Theta::kShrinking, 0, 800},
        // d = 43 < 2 * ell = 50 (n > d); d = 128 > 2 * ell = 80 (n <= d).
        TriggerCase{43, 25, Stream::kIsotropic, Theta::kGrowing, 0, 600},
        TriggerCase{43, 25, Stream::kIsotropic, Theta::kShrinking, 0, 600},
        TriggerCase{128, 40, Stream::kIsotropic, Theta::kGrowing, 0, 300},
        TriggerCase{128, 40, Stream::kIsotropic, Theta::kShrinking, 0, 300},
        TriggerCase{43, 10, Stream::kIsotropic, Theta::kShrinking, 0, 600},
        TriggerCase{43, 10, Stream::kRankOne, Theta::kGrowing, 0, 600},
        TriggerCase{128, 40, Stream::kRankOne, Theta::kShrinking, 0, 300},
        TriggerCase{43, 10, Stream::kHeavyAfterLight, Theta::kGrowing, 0, 600},
        TriggerCase{128, 40, Stream::kHeavyAfterLight, Theta::kShrinking, 0,
                    300},
        TriggerCase{43, 10, Stream::kIsotropic, Theta::kGrowing, 37, 600},
        TriggerCase{128, 40, Stream::kIsotropic, Theta::kShrinking, 53, 300},
        // A constant theta: a failed extension is the full test's failure.
        TriggerCase{43, 10, Stream::kIsotropic, Theta::kFixed, 0, 600},
        TriggerCase{128, 40, Stream::kHeavyAfterLight, Theta::kFixed, 0,
                    300},
        // Theta falls below the factor's: the certificate refactors.
        TriggerCase{43, 25, Stream::kIsotropic, Theta::kSawtooth, 0, 600},
        TriggerCase{128, 40, Stream::kIsotropic, Theta::kSawtooth, 0, 300}));

}  // namespace
}  // namespace dswm
