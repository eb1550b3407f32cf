#include "linalg/matrix_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <ostream>
#include <vector>

namespace dswm {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'W', 'M'};
constexpr uint32_t kVersion = 1;

// Binary output is staged through a char buffer with std::memcpy (which takes
// void*, needing no cast) instead of reinterpret_cast'ing object pointers
// to char*: type-punning casts are confined to src/net framing by semlint
// rule cast-confinement, and matrix I/O is nowhere near hot enough for the
// extra copy to matter.
template <typename T>
void WritePod(std::ostream* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->write(buf, sizeof(T));
}

}  // namespace

Status WriteMatrixBinary(const Matrix& m, std::ostream* out) {
  out->write(kMagic, 4);
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  WritePod(out, kVersion);
  WritePod(out, rows);
  WritePod(out, cols);
  // Skip the payload entirely for 0-element matrices: an empty Matrix (and
  // an empty staging vector) may hand out nullptr, which memcpy and stream
  // I/O must never see even with a zero count.
  const size_t payload = static_cast<size_t>(rows * cols) * sizeof(double);
  if (payload != 0) {
    std::vector<char> buf(payload);
    std::memcpy(buf.data(), m.data(), payload);
    out->write(buf.data(), static_cast<std::streamsize>(payload));
  }
  if (!*out) return Status::IoError("matrix write failed");
  return Status::OK();
}

Status SaveMatrixBinary(const Matrix& m, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  return WriteMatrixBinary(m, &out);
}

}  // namespace dswm
