#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/rng.h"
#include "linalg/matrix_io.h"

namespace dswm {
namespace {

Matrix RandomMatrix(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

// Reads a T at `offset` of `bytes`, as an external reader of the
// documented layout would; callers check the size first.
template <typename T>
T At(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

// Checks `bytes` against matrix_io.h's layout: 4-byte magic, u32 version,
// i64 rows, i64 cols, then row-major f64 entries from offset 24.
void ExpectLayout(const std::string& bytes, const Matrix& m) {
  ASSERT_EQ(bytes.size(),
            24 + sizeof(double) * static_cast<size_t>(m.rows()) *
                     static_cast<size_t>(m.cols()));
  EXPECT_EQ(bytes.substr(0, 4), "DSWM");
  EXPECT_EQ(At<uint32_t>(bytes, 4), 1u);
  EXPECT_EQ(At<int64_t>(bytes, 8), m.rows());
  EXPECT_EQ(At<int64_t>(bytes, 16), m.cols());
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      const size_t offset =
          24 + sizeof(double) * static_cast<size_t>(i * m.cols() + j);
      // Bitwise: the payload is the doubles' exact bytes.
      const double got = At<double>(bytes, offset);
      const double want = m(i, j);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(MatrixIo, BinaryByteLayout) {
  const Matrix m = RandomMatrix(7, 5, 1);
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrixBinary(m, &buffer).ok());
  ExpectLayout(buffer.str(), m);
}

TEST(MatrixIo, BinaryEmptyMatrix) {
  // A 0 x 3 matrix is the 24-byte header alone, shape included.
  std::stringstream buffer;
  ASSERT_TRUE(WriteMatrixBinary(Matrix(0, 3), &buffer).ok());
  ExpectLayout(buffer.str(), Matrix(0, 3));
}

TEST(MatrixIo, FileRoundTrip) {
  // The file holds exactly the stream encoding, so reading it back with
  // the documented layout recovers the matrix.
  const std::string path = ::testing::TempDir() + "/dswm_matrix_io.bin";
  const Matrix m = RandomMatrix(5, 9, 4);
  ASSERT_TRUE(SaveMatrixBinary(m, path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  ExpectLayout(bytes, m);
}

TEST(MatrixIo, MissingFile) {
  EXPECT_EQ(SaveMatrixBinary(Matrix(1, 1), "/definitely/not/here.bin").code(),
            StatusCode::kIoError);
}

TEST(Flags, ParsesBothForms) {
  const char* argv[] = {"prog", "run",          "--epsilon=0.1",
                        "--sites", "20",        "--dataset=wiki"};
  const auto flags =
      FlagSet::Parse(6, argv, {"epsilon", "sites", "dataset"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags.value().positional().size(), 1u);
  EXPECT_EQ(flags.value().positional()[0], "run");
  EXPECT_DOUBLE_EQ(flags.value().GetDouble("epsilon", 0), 0.1);
  EXPECT_EQ(flags.value().GetInt("sites", 0), 20);
  EXPECT_EQ(flags.value().GetString("dataset", ""), "wiki");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const auto flags = FlagSet::Parse(1, argv, {"x"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags.value().Has("x"));
  EXPECT_EQ(flags.value().GetInt("x", 42), 42);
  EXPECT_EQ(flags.value().GetString("x", "d"), "d");
}

TEST(Flags, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(FlagSet::Parse(2, argv, {"real"}).ok());
}

TEST(Flags, RejectsTrailingValuelessFlag) {
  const char* argv[] = {"prog", "--sites"};
  EXPECT_FALSE(FlagSet::Parse(2, argv, {"sites"}).ok());
}

}  // namespace
}  // namespace dswm
