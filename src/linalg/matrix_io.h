// Matrix serialization: a versioned binary format that lets applications
// persist tracked sketches (`dswm_cli run --save-sketch`).
//
// Layout (no padding; fields in host byte order, which is little-endian
// on x86-64):
//
//   offset  size          field
//   0       4             magic "DSWM"
//   4       4             u32 format version (1)
//   8       8             i64 rows
//   16      8             i64 cols
//   24      8*rows*cols   f64 entries, row-major
//
// An external reader can load the payload directly, e.g. with numpy:
// np.fromfile(path, dtype="<f8", offset=24).reshape(rows, cols).

#ifndef DSWM_LINALG_MATRIX_IO_H_
#define DSWM_LINALG_MATRIX_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "linalg/matrix.h"

namespace dswm {

/// Writes `m` in the binary layout above.
Status WriteMatrixBinary(const Matrix& m, std::ostream* out);
Status SaveMatrixBinary(const Matrix& m, const std::string& path);

}  // namespace dswm

#endif  // DSWM_LINALG_MATRIX_IO_H_
