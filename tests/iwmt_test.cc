#include "core/iwmt.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "linalg/spectral_norm.h"
#include "linalg/svd.h"
#include "obs/metrics.h"

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
enum class Theta { kGrowing, kShrinking };

struct TriggerCase {
  int d;
  int ell;
  Stream stream;
  Theta theta;
  int flush_every;  // 0: never
  int rows;
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
  Rng rng(900 + c.d);
  std::vector<double> direction(c.d);
  for (int j = 0; j < c.d; ++j) direction[j] = rng.NextGaussian();
  Scale(direction.data(), c.d,
        1.0 / std::sqrt(NormSquared(direction.data(), c.d)));

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const obs::MetricsSnapshot before = obs::Registry().Snapshot();

  std::vector<double> row(c.d);
  std::vector<IwmtOutput> got;
  std::vector<IwmtOutput> want;
  double mass = 0.0;
  int shrinks = 0;
  for (int i = 1; i <= c.rows; ++i) {
    switch (c.stream) {
      case Stream::kIsotropic:
        for (int j = 0; j < c.d; ++j) row[j] = rng.NextGaussian();
        break;
      case Stream::kRankOne: {
        const double g = rng.NextGaussian();
        for (int j = 0; j < c.d; ++j) row[j] = g * direction[j];
        break;
      }
      case Stream::kHeavyAfterLight: {
        const double scale = i % 150 == 0 ? 40.0 : 1.0;
        for (int j = 0; j < c.d; ++j) row[j] = scale * rng.NextGaussian();
        break;
      }
    }
    mass += NormSquared(row.data(), c.d);
    // Growing: IWMT_c's eps/2 * (mass read so far). Shrinking: from about
    // twice the top sigma^2 of a full residual of unit rows to a fifth of
    // that over the stream.
    const double theta =
        c.theta == Theta::kGrowing
            ? 0.025 * mass
            : 2.0 * (2 * c.ell + c.d) * (1.0 - 0.8 * i / c.rows);

    const int rows_before = iwmt.residual().row_count();
    got.clear();
    want.clear();
    iwmt.Input(row.data(), theta, &got);
    reference.Input(row.data(), theta, &want);
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
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IwmtTrigger,
    ::testing::Values(
        // d = 4 < 2 * ell: FD shrinks through the d x d Gram (n > d).
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
        TriggerCase{128, 40, Stream::kIsotropic, Theta::kShrinking, 53, 300}));

}  // namespace
}  // namespace dswm
