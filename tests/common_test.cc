#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"

namespace dswm {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoublesInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.NextOpenDouble();
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowUniformish) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("epsilon must be > 0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: epsilon must be > 0");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

Status FailingHelper() { return Status::IoError("disk"); }
Status Propagating() {
  DSWM_RETURN_NOT_OK(FailingHelper());
  return Status::OK();
}

TEST(Status, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(Propagating().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dswm
