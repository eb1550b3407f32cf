// Helpers the tests share, built only on the library's public API: matrix
// differences and transposes, an exact spectral norm, a wall-time-free
// metrics snapshot and per-kind ledger totals.

#ifndef DSWM_TESTS_TEST_UTIL_H_
#define DSWM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>

#include "common/check.h"
#include "linalg/matrix.h"
#include "linalg/symmetric_eigen.h"
#include "net/ledger.h"
#include "obs/metrics.h"

namespace dswm {

/// Returns A - B (same shape).
[[nodiscard]] inline Matrix Subtract(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.AddScaled(b, -1.0);
  return c;
}

/// Max absolute entry difference (same shape).
[[nodiscard]] inline double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  DSWM_CHECK_EQ(a.rows(), b.rows());
  DSWM_CHECK_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

/// Returns A^T.
[[nodiscard]] inline Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

/// max_i |lambda_i| of a symmetric matrix, from a full SymmetricEigen: the
/// exact spectral norm the estimators are checked against.
[[nodiscard]] inline double SpectralNormExact(const Matrix& a) {
  double m = 0.0;
  for (const double lambda : SymmetricEigen(a).values) {
    m = std::max(m, std::fabs(lambda));
  }
  return m;
}

/// `s` without the metrics whose names end in ".wall_ns" (the
/// nondeterministic wall-clock convention): what two runs must agree on.
[[nodiscard]] inline obs::MetricsSnapshot WithoutWallTimes(
    const obs::MetricsSnapshot& s) {
  const auto is_wall = [](const std::string& name) {
    static constexpr std::string_view kSuffix = ".wall_ns";
    return name.size() >= kSuffix.size() &&
           name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) == 0;
  };
  obs::MetricsSnapshot out;
  for (const auto& [name, v] : s.counters) {
    if (!is_wall(name)) out.counters[name] = v;
  }
  for (const auto& [name, v] : s.gauges) {
    if (!is_wall(name)) out.gauges[name] = v;
  }
  for (const auto& [name, h] : s.histograms) {
    if (!is_wall(name)) out.histograms[name] = h;
  }
  return out;
}

/// Transmission attempts of one message kind and the words they cost.
struct KindTotals {
  long count = 0;
  long words = 0;  // payload_words * copies, summed
};

/// Sums the ledger's entries of `kind`.
[[nodiscard]] inline KindTotals TotalsOfKind(const net::MessageLedger& ledger,
                                             net::MessageKind kind) {
  KindTotals totals;
  for (const net::LedgerEntry& e : ledger.entries()) {
    if (e.kind != kind) continue;
    ++totals.count;
    totals.words += static_cast<long>(e.payload_words) * e.copies;
  }
  return totals;
}

}  // namespace dswm

#endif  // DSWM_TESTS_TEST_UTIL_H_
