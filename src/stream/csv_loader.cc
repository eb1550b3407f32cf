#include "stream/csv_loader.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dswm {

namespace {

Status ParseLine(const std::string& line, char delimiter,
                 std::vector<double>* fields) {
  fields->clear();
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find(delimiter, start);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(start, end - start);
    char* parse_end = nullptr;
    const double value = std::strtod(token.c_str(), &parse_end);
    if (parse_end == token.c_str() ||
        static_cast<size_t>(parse_end - token.c_str()) != token.size()) {
      return Status::InvalidArgument("non-numeric field: '" + token + "'");
    }
    fields->push_back(value);
    if (end == line.size()) break;
    start = end + 1;
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<TimedRow>> ParseCsv(const std::string& content,
                                         const CsvOptions& options) {
  std::vector<TimedRow> rows;
  std::istringstream in(content);
  std::string line;
  std::vector<double> fields;
  int expected_fields = -1;
  int line_no = 0;
  bool skipped_header = false;

  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (options.skip_header && !skipped_header) {
      skipped_header = true;
      continue;
    }
    DSWM_RETURN_NOT_OK(ParseLine(line, options.delimiter, &fields));
    if (expected_fields < 0) {
      expected_fields = static_cast<int>(fields.size());
      if (options.timestamp_column >= expected_fields) {
        return Status::InvalidArgument("timestamp_column out of range");
      }
    } else if (static_cast<int>(fields.size()) != expected_fields) {
      return Status::InvalidArgument(
          "ragged row at line " + std::to_string(line_no));
    }

    TimedRow row;
    if (options.timestamp_column >= 0) {
      // llround is unspecified outside the int64 range, and NaN has no
      // tick at all.
      const double ticks =
          fields[options.timestamp_column] * options.timestamp_scale;
      if (!std::isfinite(ticks)) {
        return Status::InvalidArgument("non-finite timestamp at line " +
                                       std::to_string(line_no));
      }
      if (ticks < -0x1p63 || ticks >= 0x1p63) {
        return Status::InvalidArgument(
            "timestamp out of int64 range at line " + std::to_string(line_no));
      }
      row.timestamp = static_cast<Timestamp>(std::llround(ticks));
      for (int j = 0; j < expected_fields; ++j) {
        if (j != options.timestamp_column) row.values.push_back(fields[j]);
      }
    } else {
      row.timestamp = static_cast<Timestamp>(rows.size() + 1);
      row.values = fields;
    }
    rows.push_back(std::move(row));
  }

  // Trackers require non-decreasing timestamps.
  if (!std::is_sorted(rows.begin(), rows.end(),
                      [](const TimedRow& a, const TimedRow& b) {
                        return a.timestamp < b.timestamp;
                      })) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const TimedRow& a, const TimedRow& b) {
                       return a.timestamp < b.timestamp;
                     });
  }
  return rows;
}

StatusOr<std::vector<TimedRow>> LoadCsv(const std::string& path,
                                        const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), options);
}

}  // namespace dswm
