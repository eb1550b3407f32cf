// Regenerates the committed fuzz seed corpus (fuzz/corpus/...).
//
//   build/fuzz/fuzz_make_seed_corpus <repo-root>/fuzz/corpus
//
// One valid frame per wire message kind, frames at the sizes the trackers
// ship (WIKI d = 512, PAMAP d = 43, SYNTHETIC d = 128), structured
// near-misses (truncations, bad tags, inflated counts, an out-of-range
// support index), and CSV seeds covering every option nibble the harness
// decodes. Deterministic output: regenerating over an unchanged wire format
// is a no-op diff.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "net/wire.h"

namespace {

bool WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  for (uint8_t b : bytes) out.put(static_cast<char>(b));
  return static_cast<bool>(out);
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

// A dense d-vector of exact binary fractions (the same bytes on every
// host and libm), varied by `salt`.
std::vector<double> Dense(int d, int salt) {
  std::vector<double> v(static_cast<size_t>(d));
  for (int j = 0; j < d; ++j) {
    v[static_cast<size_t>(j)] =
        static_cast<double>((j * 37 + salt * 11) % 101 - 50) / 64.0;
  }
  return v;
}

// A WIKI-shaped PWOR upload: d = 512, 40 nonzero words, key and timestamp.
dswm::net::RowUploadMsg WikiRow() {
  dswm::net::RowUploadMsg row;
  row.values.assign(512, 0.0);
  for (int k = 0; k < 40; ++k) row.support.push_back((k * 97 + 5) % 512);
  std::sort(row.support.begin(), row.support.end());
  for (int j : row.support) {
    row.values[static_cast<size_t>(j)] = 0.25 + static_cast<double>(j % 13) / 8.0;
  }
  row.timestamp = 3949;
  row.has_key = true;
  row.key = 0.8125;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dswm::net;
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_make_seed_corpus <corpus-dir>\n");
    return 2;
  }
  const std::filesystem::path root = argv[1];
  std::filesystem::create_directories(root / "wire");
  std::filesystem::create_directories(root / "csv");

  std::vector<std::pair<std::string, WireMessage>> messages;
  RowUploadMsg row;
  row.values = {1.0, -2.5, 3.25, 0.0};
  row.timestamp = 42;
  row.support = {0, 2, 3};
  row.has_key = true;
  row.key = 0.125;
  row.has_sampler = true;
  row.sampler = 7;
  messages.emplace_back("row_upload", row);
  RowUploadMsg row_plain;
  row_plain.values = {5.0, 6.0};
  row_plain.timestamp = 1;
  messages.emplace_back("row_upload_plain", row_plain);
  messages.emplace_back("retrieve_request", RetrieveRequestMsg{0.5});
  messages.emplace_back("retrieve_response", RetrieveResponseMsg{-1.75});
  messages.emplace_back("threshold_broadcast", ThresholdBroadcastMsg{2.0});
  EigenpairMsg eig;
  eig.lambda = 3.5;
  eig.vector = {0.5, 0.5, -0.5, 0.5};
  messages.emplace_back("eigenpair", eig);
  Da2DeltaMsg da2;
  da2.direction = {1.0, 0.0, -1.0};
  da2.timestamp = 99;
  da2.flag = -1;
  messages.emplace_back("da2_delta", da2);
  messages.emplace_back("row_upload_wiki_d512", WikiRow());
  RowUploadMsg central;  // CENTRAL on PAMAP: d = 43 + timestamp
  central.values = Dense(43, 1);
  central.timestamp = 20000;
  messages.emplace_back("row_upload_central_d43", central);
  messages.emplace_back("eigenpair_d128", EigenpairMsg{6.5, Dense(128, 2)});
  messages.emplace_back("da2_delta_d128", Da2DeltaMsg{Dense(128, 3), 4000, 1});
  messages.emplace_back("sum_delta", SumDeltaMsg{12.5});
  messages.emplace_back("expiry_notice", ExpiryNoticeMsg{1234});
  messages.emplace_back("ack", AckMsg{77});

  int failures = 0;
  std::vector<uint8_t> frame;
  for (const auto& [name, msg] : messages) {
    SerializeMessage(msg, &frame);
    if (!WriteBytes((root / "wire" / (name + ".bin")).string(), frame)) {
      ++failures;
    }
  }

  // Structured near-misses: the shapes a parser most plausibly mishandles.
  SerializeMessage(RetrieveRequestMsg{1.0}, &frame);
  std::vector<uint8_t> truncated(frame.begin(), frame.begin() + 6);
  if (!WriteBytes((root / "wire" / "truncated_header.bin").string(),
                  truncated)) {
    ++failures;
  }
  std::vector<uint8_t> bad_kind = frame;
  bad_kind[0] = 0xee;  // outside [kMinMessageKind, kMaxMessageKind]
  if (!WriteBytes((root / "wire" / "bad_kind.bin").string(), bad_kind)) {
    ++failures;
  }
  std::vector<uint8_t> inflated = frame;
  inflated[4] = 0xff;  // payload_words claims far more than is present
  inflated[5] = 0xff;
  if (!WriteBytes((root / "wire" / "inflated_words.bin").string(),
                  inflated)) {
    ++failures;
  }
  std::vector<uint8_t> wrong_version = frame;
  wrong_version[2] = static_cast<uint8_t>(kWireFormatVersion + 1);
  if (!WriteBytes((root / "wire" / "wrong_version.bin").string(),
                  wrong_version)) {
    ++failures;
  }
  std::vector<uint8_t> version_zero = frame;
  version_zero[2] = 0;  // the pre-versioning layout's reserved bytes
  version_zero[3] = 0;
  if (!WriteBytes((root / "wire" / "version_zero.bin").string(),
                  version_zero)) {
    ++failures;
  }
  // A frame with every sequence byte set: the parser must treat the
  // transport sequence as opaque payload, never as structure.
  SerializeMessage(AckMsg{77}, &frame, ~0ULL);
  if (!WriteBytes((root / "wire" / "sequenced_ack.bin").string(), frame)) {
    ++failures;
  }
  if (!WriteBytes((root / "wire" / "empty.bin").string(), {})) ++failures;
  // A full-size sparse upload whose last support index is d: the parser
  // must copy the whole frame, then reject it on the index check.
  RowUploadMsg bad_support = WikiRow();
  bad_support.support.back() = 512;
  SerializeMessage(bad_support, &frame);
  if (!WriteBytes((root / "wire" / "support_out_of_range.bin").string(),
                  frame)) {
    ++failures;
  }

  // CSV seeds: first byte = option selector (see fuzz_csv_parse.cc).
  const std::pair<std::string, std::string> csvs[] = {
      {"comma_plain", std::string(1, '\x00') + "1,2,3\n4,5,6\n7,8,9\n"},
      {"semicolon", std::string(1, '\x01') + "1;2\n3;4\n"},
      {"tab_header", std::string(1, '\x06') + "a\tb\n1\t2\n3\t4\n"},
      {"ts_column", std::string(1, '\x08') + "10,1,2\n20,3,4\n30,5,6\n"},
      {"ts_scaled", std::string(1, '\x28') + "0.5,1\n1.0,2\n1.5,3\n"},
      {"ragged", std::string(1, '\x00') + "1,2,3\n4,5\n"},
      {"bad_number", std::string(1, '\x00') + "1,banana\n"},
      {"empty", std::string(1, '\x00')},
      {"negatives", std::string(1, '\x00') + "-1e300,2.5e-10\nnan,inf\n"},
      {"ts_nonfinite", std::string(1, '\x08') + "1,2\nnan,3\ninf,4\n"},
      {"ts_out_of_range", std::string(1, '\x08') + "-9.2e18,1\n1e300,2\n"},
  };
  for (const auto& [name, text] : csvs) {
    if (!WriteText((root / "csv" / (name + ".csv")).string(), text)) {
      ++failures;
    }
  }

  if (failures != 0) {
    std::fprintf(stderr, "fuzz_make_seed_corpus: %d write failure(s)\n",
                 failures);
    return 1;
  }
  std::printf("seed corpus written under %s\n", root.string().c_str());
  return 0;
}
