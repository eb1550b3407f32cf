// Wire-format tests: bit-exact round trips over adversarial payloads,
// Status (never a crash) on every malformed input the parser can see, and
// frame bytes pinned against a byte-at-a-time reference codec.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"

namespace dswm::net {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<uint8_t> Serialize(const WireMessage& msg) {
  std::vector<uint8_t> buf;
  SerializeMessage(msg, &buf);
  return buf;
}

WireMessage RoundTrip(const WireMessage& msg) {
  const std::vector<uint8_t> buf = Serialize(msg);
  StatusOr<WireMessage> parsed = ParseMessage(buf.data(), buf.size());
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return std::move(parsed).value();
}

// One representative instance of every message kind.
std::vector<WireMessage> OneOfEachKind() {
  RowUploadMsg row;
  row.values = {1.5, -2.25, 0.0};
  row.timestamp = 12345;
  row.support = {0, 2};
  row.has_key = true;
  row.key = 0.75;
  row.has_sampler = true;
  row.sampler = 42;
  return {row,
          RetrieveRequestMsg{3.5},
          RetrieveResponseMsg{-1.25},
          ThresholdBroadcastMsg{0.125},
          EigenpairMsg{2.0, {0.5, -0.5, 0.25, 0.0}},
          Da2DeltaMsg{{1.0, 2.0}, 77, -1},
          SumDeltaMsg{-4.5},
          ExpiryNoticeMsg{99},
          AckMsg{0xdeadbeefcafef00dULL}};
}

TEST(Wire, EveryKindRoundTripsAndMatchesTheCostCatalog) {
  for (const WireMessage& msg : OneOfEachKind()) {
    const std::vector<uint8_t> buf = Serialize(msg);
    const WireMessage back = RoundTrip(msg);
    EXPECT_EQ(KindOf(back), KindOf(msg));
    EXPECT_EQ(PayloadWords(back), PayloadWords(msg));
    // Frame size formula: header + 8 bytes per payload word (+ support).
    size_t aux = 0;
    if (const auto* row = std::get_if<RowUploadMsg>(&msg)) {
      aux = row->support.size();
    }
    EXPECT_EQ(buf.size(), kFrameHeaderBytes +
                              8 * static_cast<size_t>(PayloadWords(msg)) +
                              4 * aux);
  }
  // The documented per-kind word costs (DESIGN.md message catalog).
  RowUploadMsg row;
  row.values.resize(7);
  EXPECT_EQ(PayloadWords(WireMessage(row)), 8);  // d + timestamp
  row.has_key = true;
  EXPECT_EQ(PayloadWords(WireMessage(row)), 9);  // PWOR shape: d + 2
  row.has_sampler = true;
  EXPECT_EQ(PayloadWords(WireMessage(row)), 10);  // PWR-ST shape: d + 3
  EXPECT_EQ(PayloadWords(WireMessage(RetrieveRequestMsg{})), 1);
  EXPECT_EQ(PayloadWords(WireMessage(RetrieveResponseMsg{})), 1);
  EXPECT_EQ(PayloadWords(WireMessage(ThresholdBroadcastMsg{})), 1);
  EXPECT_EQ(PayloadWords(WireMessage(EigenpairMsg{0.0, {1, 2, 3, 4, 5}})), 6);
  EXPECT_EQ(PayloadWords(WireMessage(Da2DeltaMsg{{1, 2, 3}, 0, 1})), 5);
  EXPECT_EQ(PayloadWords(WireMessage(SumDeltaMsg{})), 1);
  EXPECT_EQ(PayloadWords(WireMessage(ExpiryNoticeMsg{})), 1);
  EXPECT_EQ(PayloadWords(WireMessage(AckMsg{})), 1);
}

TEST(Wire, AdversarialDoublesRoundTripBitExactly) {
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  double payload_nan = quiet_nan;
  {
    // A NaN with a nonzero mantissa payload: must survive byte-for-byte.
    uint64_t bits = Bits(quiet_nan) | 0xdeadbeefULL;
    std::memcpy(&payload_nan, &bits, sizeof(bits));
  }
  const std::vector<double> adversarial = {
      quiet_nan,
      payload_nan,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      0.0,
      -0.0,
  };

  RowUploadMsg row;
  row.values = adversarial;
  row.timestamp = std::numeric_limits<Timestamp>::max();
  row.has_key = true;
  row.key = payload_nan;
  const WireMessage back = RoundTrip(WireMessage(row));
  const auto parsed = std::get<RowUploadMsg>(std::move(back));
  ASSERT_EQ(parsed.values.size(), adversarial.size());
  for (size_t i = 0; i < adversarial.size(); ++i) {
    EXPECT_EQ(Bits(parsed.values[i]), Bits(adversarial[i])) << "index " << i;
  }
  EXPECT_EQ(parsed.timestamp, row.timestamp);
  EXPECT_EQ(Bits(parsed.key), Bits(payload_nan));

  // Scalar kinds carry the same bit patterns unharmed.
  for (double v : adversarial) {
    const auto delta =
        std::get<SumDeltaMsg>(RoundTrip(WireMessage(SumDeltaMsg{v})));
    EXPECT_EQ(Bits(delta.delta), Bits(v));
    const auto tau = std::get<ThresholdBroadcastMsg>(
        RoundTrip(WireMessage(ThresholdBroadcastMsg{v})));
    EXPECT_EQ(Bits(tau.threshold), Bits(v));
  }
}

TEST(Wire, DegenerateShapesRoundTrip) {
  // d = 1, no key, no sampler, empty support.
  RowUploadMsg tiny;
  tiny.values = {-0.0};
  tiny.timestamp = 1;
  const auto tiny_back = std::get<RowUploadMsg>(RoundTrip(WireMessage(tiny)));
  ASSERT_EQ(tiny_back.values.size(), 1u);
  EXPECT_EQ(Bits(tiny_back.values[0]), Bits(-0.0));
  EXPECT_TRUE(tiny_back.support.empty());
  EXPECT_FALSE(tiny_back.has_key);
  EXPECT_FALSE(tiny_back.has_sampler);

  // Empty retrieve set: the site answers with -infinity.
  const double none = -std::numeric_limits<double>::infinity();
  const auto resp = std::get<RetrieveResponseMsg>(
      RoundTrip(WireMessage(RetrieveResponseMsg{none})));
  EXPECT_EQ(Bits(resp.key), Bits(none));

  // Eigenpair with an empty vector (d = 0 is never sent, but the frame
  // is well-formed: just lambda).
  const auto eig =
      std::get<EigenpairMsg>(RoundTrip(WireMessage(EigenpairMsg{3.5, {}})));
  EXPECT_TRUE(eig.vector.empty());
  EXPECT_EQ(Bits(eig.lambda), Bits(3.5));
}

TEST(Wire, EveryTruncationReturnsStatusNotACrash) {
  for (const WireMessage& msg : OneOfEachKind()) {
    const std::vector<uint8_t> buf = Serialize(msg);
    for (size_t len = 0; len < buf.size(); ++len) {
      const StatusOr<WireMessage> parsed = ParseMessage(buf.data(), len);
      EXPECT_FALSE(parsed.ok())
          << KindName(KindOf(msg)) << " accepted a " << len << "-byte prefix";
    }
    // One trailing byte of garbage is a size mismatch, not a crash.
    std::vector<uint8_t> longer = buf;
    longer.push_back(0x5a);
    EXPECT_FALSE(ParseMessage(longer.data(), longer.size()).ok());
  }
  EXPECT_FALSE(ParseMessage(nullptr, 3).ok());
}

TEST(Wire, StructurallyMalformedFramesAreRejected) {
  std::vector<uint8_t> buf = Serialize(WireMessage(SumDeltaMsg{1.5}));

  for (uint8_t bad_kind : {uint8_t{0}, uint8_t{10}, uint8_t{255}}) {
    std::vector<uint8_t> frame = buf;
    frame[0] = bad_kind;
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[2] = static_cast<uint8_t>(kWireFormatVersion + 1);  // future version
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[3] = 1;  // version high byte: 256 + current
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[2] = 0;  // version 0 (the pre-versioning layout) is not accepted
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[1] = 1;  // flags on a non-row message
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[4] = 7;  // inflated word count vs. actual buffer size
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    // A scalar kind must be exactly 1 word even if the frame is
    // self-consistent about a larger size.
    std::vector<uint8_t> frame = buf;
    frame[4] = 2;
    frame.insert(frame.end(), 8, 0);
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
}

TEST(Wire, SequenceRoundTripsThroughTheHeader) {
  const uint64_t seq = 0x0123456789abcdefULL;
  std::vector<uint8_t> buf;
  SerializeMessage(WireMessage(SumDeltaMsg{2.5}), &buf, seq);

  // Header layout: version u16 at offset 2, sequence u64 little-endian at
  // offset 12 -- the offsets the incremental decoder and the fuzz corpus
  // rely on.
  EXPECT_EQ(buf[2], static_cast<uint8_t>(kWireFormatVersion));
  EXPECT_EQ(buf[3], static_cast<uint8_t>(kWireFormatVersion >> 8));
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buf[12 + i], static_cast<uint8_t>(seq >> (8 * i))) << i;
  }

  const StatusOr<ParsedFrame> parsed = ParseFrame(buf.data(), buf.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().sequence, seq);
  EXPECT_DOUBLE_EQ(std::get<SumDeltaMsg>(parsed.value().msg).delta, 2.5);

  // ParseMessage is the sequence-agnostic view of the same frame.
  EXPECT_TRUE(ParseMessage(buf.data(), buf.size()).ok());

  // Default sequence is 0 (callers outside a channel's Send path).
  std::vector<uint8_t> unsequenced;
  SerializeMessage(WireMessage(SumDeltaMsg{2.5}), &unsequenced);
  const StatusOr<ParsedFrame> p2 =
      ParseFrame(unsequenced.data(), unsequenced.size());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2.value().sequence, 0u);
}

TEST(Wire, RowUploadRejectsBadSupportAndShortFixedFields) {
  RowUploadMsg row;
  row.values = {1.0, 2.0};
  row.timestamp = 5;
  row.support = {1};
  std::vector<uint8_t> buf = Serialize(WireMessage(row));

  {
    std::vector<uint8_t> frame = buf;
    frame[frame.size() - 4] = 9;  // support index 9 >= d = 2
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[frame.size() - 1] = 0xff;  // negative support index
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    std::vector<uint8_t> frame = buf;
    frame[1] = 0xff;  // unknown flag bits set
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    // has_key + has_sampler + timestamp need 3 words; claim only 2. The
    // frame must also shrink so the size check is not what rejects it.
    RowUploadMsg empty;
    empty.has_key = true;
    empty.has_sampler = true;
    std::vector<uint8_t> frame = Serialize(WireMessage(empty));
    frame[4] = 2;
    frame.resize(kFrameHeaderBytes + 16);
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    // DA2 delta needs timestamp + flag: one word is too short.
    std::vector<uint8_t> frame =
        Serialize(WireMessage(Da2DeltaMsg{{}, 0, 1}));
    frame[4] = 1;
    frame.resize(kFrameHeaderBytes + 8);
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
  {
    // DA2 flag must be exactly +1 or -1 on the wire.
    std::vector<uint8_t> frame =
        Serialize(WireMessage(Da2DeltaMsg{{1.0}, 3, 1}));
    frame[frame.size() - 8] = 2;  // low byte of the trailing flag i64
    EXPECT_FALSE(ParseMessage(frame.data(), frame.size()).ok());
  }
}

TEST(Wire, SeededMutationCorpusNeverCrashesTheParser) {
  // Flip random bytes of valid frames; the parser must return (ok or not)
  // without crashing, and anything it accepts must re-serialize into a
  // frame it accepts again.
  Rng rng(20260805);
  const std::vector<WireMessage> corpus = OneOfEachKind();
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<uint8_t> buf =
        Serialize(corpus[rng.NextBelow(corpus.size())]);
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      buf[rng.NextBelow(buf.size())] =
          static_cast<uint8_t>(rng.NextU64() & 0xff);
    }
    // Occasionally truncate or extend as well.
    if (rng.NextBelow(4) == 0) buf.resize(rng.NextBelow(buf.size() + 8));
    const StatusOr<WireMessage> parsed = ParseMessage(buf.data(), buf.size());
    if (!parsed.ok()) continue;
    const std::vector<uint8_t> again = Serialize(parsed.value());
    const StatusOr<WireMessage> reparsed =
        ParseMessage(again.data(), again.size());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(KindOf(reparsed.value()), KindOf(parsed.value()));
    EXPECT_EQ(PayloadWords(reparsed.value()), PayloadWords(parsed.value()));
  }
}

// --- reference codec ------------------------------------------------------
//
// The frame codec as it was written before the array fast path: every word
// pushed and parsed one byte at a time, with shifts, so it is correct on a
// host of either byte order. The differential test below holds the
// production codec to it byte for byte and Status for Status.
namespace reference {

constexpr uint8_t kFlagHasKey = 1u << 0;
constexpr uint8_t kFlagHasSampler = 1u << 1;

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) { PutU64(out, Bits(v)); }

void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

  Status ReadU8(uint8_t* v) {
    DSWM_RETURN_NOT_OK(Need(1));
    *v = data_[pos_++];
    return Status::OK();
  }

  Status ReadU16(uint16_t* v) {
    DSWM_RETURN_NOT_OK(Need(2));
    *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return Status::OK();
  }

  Status ReadU32(uint32_t* v) {
    DSWM_RETURN_NOT_OK(Need(4));
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = r;
    return Status::OK();
  }

  Status ReadU64(uint64_t* v) {
    DSWM_RETURN_NOT_OK(Need(8));
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = r;
    return Status::OK();
  }

  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    DSWM_RETURN_NOT_OK(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadF64(double* v) {
    uint64_t bits = 0;
    DSWM_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status ReadI32(int32_t* v) {
    uint32_t u = 0;
    DSWM_RETURN_NOT_OK(ReadU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

 private:
  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::InvalidArgument("wire: truncated frame (need " +
                                     std::to_string(n) + " bytes, have " +
                                     std::to_string(remaining()) + ")");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Status BadFrame(const std::string& why) {
  return Status::InvalidArgument("wire: " + why);
}

std::vector<uint8_t> Serialize(const WireMessage& msg, uint64_t sequence) {
  std::vector<uint8_t> buf;
  std::vector<uint8_t>* out = &buf;
  const long words = PayloadWords(msg);
  uint8_t flags = 0;
  uint32_t aux = 0;
  if (const auto* row = std::get_if<RowUploadMsg>(&msg)) {
    if (row->has_key) flags |= kFlagHasKey;
    if (row->has_sampler) flags |= kFlagHasSampler;
    aux = static_cast<uint32_t>(row->support.size());
  }
  PutU8(out, static_cast<uint8_t>(KindOf(msg)));
  PutU8(out, flags);
  PutU16(out, kWireFormatVersion);
  PutU32(out, static_cast<uint32_t>(words));
  PutU32(out, aux);
  PutU64(out, sequence);

  struct Visitor {
    std::vector<uint8_t>* out;
    void operator()(const RowUploadMsg& m) {
      for (double v : m.values) PutF64(out, v);
      PutI64(out, m.timestamp);
      if (m.has_key) PutF64(out, m.key);
      if (m.has_sampler) PutI64(out, m.sampler);
      for (int idx : m.support) PutI32(out, idx);
    }
    void operator()(const RetrieveRequestMsg& m) { PutF64(out, m.bound); }
    void operator()(const RetrieveResponseMsg& m) { PutF64(out, m.key); }
    void operator()(const ThresholdBroadcastMsg& m) { PutF64(out, m.threshold); }
    void operator()(const EigenpairMsg& m) {
      PutF64(out, m.lambda);
      for (double v : m.vector) PutF64(out, v);
    }
    void operator()(const Da2DeltaMsg& m) {
      for (double v : m.direction) PutF64(out, v);
      PutI64(out, m.timestamp);
      PutI64(out, m.flag);
    }
    void operator()(const SumDeltaMsg& m) { PutF64(out, m.delta); }
    void operator()(const ExpiryNoticeMsg& m) { PutI64(out, m.cutoff); }
    void operator()(const AckMsg& m) { PutU64(out, m.sequence); }
  };
  std::visit(Visitor{out}, msg);
  return buf;
}

StatusOr<WireMessage> ParseBody(Reader& r, MessageKind kind, uint8_t flags,
                                uint32_t words, uint32_t aux) {
  switch (kind) {
    case MessageKind::kRowUpload: {
      RowUploadMsg m;
      m.has_key = (flags & kFlagHasKey) != 0;
      m.has_sampler = (flags & kFlagHasSampler) != 0;
      if ((flags & ~(kFlagHasKey | kFlagHasSampler)) != 0) {
        return BadFrame("unknown row-upload flags");
      }
      const long fixed = 1 + (m.has_key ? 1 : 0) + (m.has_sampler ? 1 : 0);
      if (static_cast<long>(words) < fixed) {
        return BadFrame("row upload shorter than its fixed fields");
      }
      const long d = static_cast<long>(words) - fixed;
      m.values.resize(static_cast<size_t>(d));
      for (double& v : m.values) DSWM_RETURN_NOT_OK(r.ReadF64(&v));
      DSWM_RETURN_NOT_OK(r.ReadI64(&m.timestamp));
      if (m.has_key) DSWM_RETURN_NOT_OK(r.ReadF64(&m.key));
      if (m.has_sampler) DSWM_RETURN_NOT_OK(r.ReadI64(&m.sampler));
      m.support.resize(aux);
      for (int& idx : m.support) {
        int32_t raw = 0;
        DSWM_RETURN_NOT_OK(r.ReadI32(&raw));
        if (raw < 0 || raw >= d) {
          return BadFrame("support index " + std::to_string(raw) +
                          " out of range for d=" + std::to_string(d));
        }
        idx = raw;
      }
      return WireMessage(std::move(m));
    }
    case MessageKind::kRetrieveRequest: {
      if (words != 1) return BadFrame("retrieve request must be 1 word");
      RetrieveRequestMsg m;
      DSWM_RETURN_NOT_OK(r.ReadF64(&m.bound));
      return WireMessage(m);
    }
    case MessageKind::kRetrieveResponse: {
      if (words != 1) return BadFrame("retrieve response must be 1 word");
      RetrieveResponseMsg m;
      DSWM_RETURN_NOT_OK(r.ReadF64(&m.key));
      return WireMessage(m);
    }
    case MessageKind::kThresholdBroadcast: {
      if (words != 1) return BadFrame("threshold broadcast must be 1 word");
      ThresholdBroadcastMsg m;
      DSWM_RETURN_NOT_OK(r.ReadF64(&m.threshold));
      return WireMessage(m);
    }
    case MessageKind::kEigenpair: {
      if (words < 1) return BadFrame("eigenpair missing lambda");
      EigenpairMsg m;
      DSWM_RETURN_NOT_OK(r.ReadF64(&m.lambda));
      m.vector.resize(words - 1);
      for (double& v : m.vector) DSWM_RETURN_NOT_OK(r.ReadF64(&v));
      return WireMessage(std::move(m));
    }
    case MessageKind::kDa2Delta: {
      if (words < 2) return BadFrame("da2 delta missing timestamp/flag");
      Da2DeltaMsg m;
      m.direction.resize(words - 2);
      for (double& v : m.direction) DSWM_RETURN_NOT_OK(r.ReadF64(&v));
      DSWM_RETURN_NOT_OK(r.ReadI64(&m.timestamp));
      int64_t flag = 0;
      DSWM_RETURN_NOT_OK(r.ReadI64(&flag));
      if (flag != 1 && flag != -1) {
        return BadFrame("da2 delta flag must be +1 or -1");
      }
      m.flag = static_cast<int>(flag);
      return WireMessage(std::move(m));
    }
    case MessageKind::kSumDelta: {
      if (words != 1) return BadFrame("sum delta must be 1 word");
      SumDeltaMsg m;
      DSWM_RETURN_NOT_OK(r.ReadF64(&m.delta));
      return WireMessage(m);
    }
    case MessageKind::kExpiryNotice: {
      if (words != 1) return BadFrame("expiry notice must be 1 word");
      ExpiryNoticeMsg m;
      DSWM_RETURN_NOT_OK(r.ReadI64(&m.cutoff));
      return WireMessage(m);
    }
    case MessageKind::kAck: {
      if (words != 1) return BadFrame("ack must be 1 word");
      AckMsg m;
      DSWM_RETURN_NOT_OK(r.ReadU64(&m.sequence));
      return WireMessage(m);
    }
  }
  return BadFrame("unhandled message kind");
}

StatusOr<ParsedFrame> ParseFrame(const uint8_t* data, size_t size) {
  if (data == nullptr && size > 0) return BadFrame("null buffer");
  Reader r(data, size);
  uint8_t kind_raw = 0;
  uint8_t flags = 0;
  uint16_t version = 0;
  uint32_t words = 0;
  uint32_t aux = 0;
  uint64_t sequence = 0;
  DSWM_RETURN_NOT_OK(r.ReadU8(&kind_raw));
  DSWM_RETURN_NOT_OK(r.ReadU8(&flags));
  DSWM_RETURN_NOT_OK(r.ReadU16(&version));
  DSWM_RETURN_NOT_OK(r.ReadU32(&words));
  DSWM_RETURN_NOT_OK(r.ReadU32(&aux));
  DSWM_RETURN_NOT_OK(r.ReadU64(&sequence));
  if (kind_raw < kMinMessageKind || kind_raw > kMaxMessageKind) {
    return BadFrame("unknown message kind " + std::to_string(kind_raw));
  }
  const MessageKind kind = static_cast<MessageKind>(kind_raw);
  if (version != kWireFormatVersion) {
    return BadFrame("unsupported wire format version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(kWireFormatVersion) + ")");
  }
  if (kind != MessageKind::kRowUpload && (flags != 0 || aux != 0)) {
    return BadFrame("flags/aux set on non-row message");
  }
  const uint64_t expect = kFrameHeaderBytes + 8ull * words + 4ull * aux;
  if (expect != size) {
    return BadFrame("frame size mismatch (header says " +
                    std::to_string(expect) + " bytes, buffer has " +
                    std::to_string(size) + ")");
  }
  StatusOr<WireMessage> body = ParseBody(r, kind, flags, words, aux);
  if (!body.ok()) return body.status();
  ParsedFrame frame;
  frame.msg = std::move(body).value();
  frame.sequence = sequence;
  return frame;
}

}  // namespace reference

// Every field of `msg`, as raw bit patterns in declaration order, behind
// the variant index: two messages are bit-equal iff these match.
std::vector<uint64_t> FieldBits(const WireMessage& msg) {
  struct Visitor {
    std::vector<uint64_t>* out;
    void Doubles(const std::vector<double>& values) {
      out->push_back(values.size());
      for (double v : values) out->push_back(Bits(v));
    }
    void operator()(const RowUploadMsg& m) {
      Doubles(m.values);
      out->push_back(static_cast<uint64_t>(m.timestamp));
      out->push_back(m.support.size());
      for (int idx : m.support) out->push_back(static_cast<uint64_t>(idx));
      out->push_back(m.has_key);
      out->push_back(Bits(m.key));
      out->push_back(m.has_sampler);
      out->push_back(static_cast<uint64_t>(m.sampler));
    }
    void operator()(const RetrieveRequestMsg& m) { out->push_back(Bits(m.bound)); }
    void operator()(const RetrieveResponseMsg& m) { out->push_back(Bits(m.key)); }
    void operator()(const ThresholdBroadcastMsg& m) {
      out->push_back(Bits(m.threshold));
    }
    void operator()(const EigenpairMsg& m) {
      out->push_back(Bits(m.lambda));
      Doubles(m.vector);
    }
    void operator()(const Da2DeltaMsg& m) {
      Doubles(m.direction);
      out->push_back(static_cast<uint64_t>(m.timestamp));
      out->push_back(static_cast<uint64_t>(static_cast<int64_t>(m.flag)));
    }
    void operator()(const SumDeltaMsg& m) { out->push_back(Bits(m.delta)); }
    void operator()(const ExpiryNoticeMsg& m) {
      out->push_back(static_cast<uint64_t>(m.cutoff));
    }
    void operator()(const AckMsg& m) { out->push_back(m.sequence); }
  };
  std::vector<uint64_t> out = {msg.index()};
  std::visit(Visitor{&out}, msg);
  return out;
}

// A value array of length n that mixes ordinary numbers with the bit
// patterns a byte-order or offset slip would mangle first.
std::vector<double> Payload(size_t n, Rng* rng) {
  double payload_nan = 0.0;
  const uint64_t nan_bits =
      Bits(std::numeric_limits<double>::quiet_NaN()) | 0x5a5a5ULL;
  std::memcpy(&payload_nan, &nan_bits, sizeof(nan_bits));
  const double specials[] = {payload_nan,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min() * 3,
                             std::numeric_limits<double>::min() / 7,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng->NextBelow(3) == 0 ? specials[rng->NextBelow(std::size(specials))]
                               : rng->NextGaussian() * 1e3;
  }
  return values;
}

// Sorted sparse support over [0, d): empty, full, or a random subset.
std::vector<int> Support(int d, Rng* rng) {
  std::vector<int> support;
  const uint64_t mode = rng->NextBelow(3);
  for (int j = 0; j < d; ++j) {
    if (mode == 1 || (mode == 2 && rng->NextBelow(4) == 0)) support.push_back(j);
  }
  return support;
}

// Every message kind; every array-carrying kind at each length the
// trackers ship (43 = PAMAP, 128 = SYNTHETIC, 512 = WIKI) and at the short
// lengths around word and vector-register boundaries.
std::vector<WireMessage> DifferentialCorpus() {
  const size_t lengths[] = {0, 1, 3, 4, 5, 7, 8, 9, 43, 128, 512};
  Rng rng(20261018);
  std::vector<WireMessage> corpus;
  for (size_t n : lengths) {
    for (int shape = 0; shape < 4; ++shape) {
      RowUploadMsg row;
      row.values = Payload(n, &rng);
      row.timestamp = shape == 3 ? std::numeric_limits<Timestamp>::min()
                                 : static_cast<Timestamp>(rng.NextU64() >> 1);
      row.support = Support(static_cast<int>(n), &rng);
      row.has_key = (shape & 1) != 0;
      row.key = row.has_key ? Payload(1, &rng)[0] : 0.0;
      row.has_sampler = (shape & 2) != 0;
      row.sampler = row.has_sampler ? -static_cast<int64_t>(n) - 1 : 0;
      corpus.emplace_back(std::move(row));
    }
    corpus.emplace_back(EigenpairMsg{Payload(1, &rng)[0], Payload(n, &rng)});
    corpus.emplace_back(
        Da2DeltaMsg{Payload(n, &rng), static_cast<Timestamp>(n) - 7,
                    n % 2 == 0 ? 1 : -1});
  }
  for (double v : Payload(8, &rng)) {
    corpus.emplace_back(RetrieveRequestMsg{v});
    corpus.emplace_back(RetrieveResponseMsg{v});
    corpus.emplace_back(ThresholdBroadcastMsg{v});
    corpus.emplace_back(SumDeltaMsg{v});
  }
  corpus.emplace_back(ExpiryNoticeMsg{-1});
  corpus.emplace_back(ExpiryNoticeMsg{std::numeric_limits<Timestamp>::max()});
  corpus.emplace_back(AckMsg{0});
  corpus.emplace_back(AckMsg{~0ULL});
  return corpus;
}

// Production and reference parsers agree on `bytes`: the same Status code
// and message, or bit-equal messages and sequence numbers.
void ExpectSameParse(const std::vector<uint8_t>& bytes, size_t len,
                     const std::string& what) {
  const StatusOr<ParsedFrame> got = ParseFrame(bytes.data(), len);
  const StatusOr<ParsedFrame> want = reference::ParseFrame(bytes.data(), len);
  ASSERT_EQ(got.ok(), want.ok()) << what << " len " << len;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << what;
    EXPECT_EQ(got.status().message(), want.status().message())
        << what << " len " << len;
    return;
  }
  EXPECT_EQ(got.value().sequence, want.value().sequence) << what;
  EXPECT_EQ(FieldBits(got.value().msg), FieldBits(want.value().msg)) << what;
}

TEST(WireDifferential, FramesMatchTheByteLoopCodecByteForByte) {
  std::vector<uint8_t> reused;  // a buffer that held a different frame
  uint64_t sequence = 0x0102030405060708ULL;
  for (const WireMessage& msg : DifferentialCorpus()) {
    sequence = sequence * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::string what = std::string(KindName(KindOf(msg))) + " words " +
                             std::to_string(PayloadWords(msg));
    const std::vector<uint8_t> want = reference::Serialize(msg, sequence);
    std::vector<uint8_t> got;
    SerializeMessage(msg, &got, sequence);
    ASSERT_EQ(got.size(), want.size()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0) << what;
    SerializeMessage(msg, &reused, sequence);
    EXPECT_EQ(reused, want) << what;

    const StatusOr<ParsedFrame> parsed = ParseFrame(got.data(), got.size());
    ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().message();
    EXPECT_EQ(parsed.value().sequence, sequence) << what;
    EXPECT_EQ(FieldBits(parsed.value().msg), FieldBits(msg)) << what;
    ExpectSameParse(want, want.size(), what);
  }
}

TEST(WireDifferential, MalformedFramesGetTheReferenceStatus) {
  for (const WireMessage& msg : DifferentialCorpus()) {
    const std::string what = std::string(KindName(KindOf(msg))) + " words " +
                             std::to_string(PayloadWords(msg));
    const std::vector<uint8_t> frame = reference::Serialize(msg, 99);
    // Every proper prefix.
    for (size_t len = 0; len < frame.size(); ++len) {
      ExpectSameParse(frame, len, what + " prefix");
    }
    // Every one-byte extension.
    for (int extra = 0; extra < 256; ++extra) {
      std::vector<uint8_t> longer = frame;
      longer.push_back(static_cast<uint8_t>(extra));
      ExpectSameParse(longer, longer.size(), what + " extended");
    }
    // Single-byte corruptions of the header and of the frame's tail, where
    // the support indices, timestamps, keys and DA2 flags sit.
    const size_t tail = frame.size() > 64 ? frame.size() - 64 : 0;
    for (size_t i = 0; i < frame.size(); ++i) {
      if (i >= kFrameHeaderBytes && i < tail) continue;
      for (uint8_t v : {uint8_t{0x00}, uint8_t{0x01}, uint8_t{0x80},
                        uint8_t{0xff}, static_cast<uint8_t>(frame[i] ^ 1)}) {
        std::vector<uint8_t> bad = frame;
        bad[i] = v;
        ExpectSameParse(bad, bad.size(),
                        what + " byte " + std::to_string(i) + " = " +
                            std::to_string(v));
      }
    }
  }
  EXPECT_EQ(ParseFrame(nullptr, 3).status().message(),
            reference::ParseFrame(nullptr, 3).status().message());
}

TEST(WireDifferential, SupportIndexErrorsNameTheFirstBadIndex) {
  RowUploadMsg row;
  row.values.assign(9, 1.0);
  row.timestamp = 3;
  row.support = {0, 4, 8, 8, 2};
  const std::vector<uint8_t> frame = reference::Serialize(WireMessage(row), 5);
  const size_t first = frame.size() - 4 * row.support.size();
  for (size_t k = 0; k < row.support.size(); ++k) {
    for (int32_t bad : {-1, 9, 1 << 30, std::numeric_limits<int32_t>::min()}) {
      std::vector<uint8_t> mutated = frame;
      // Corrupt index k and every later one: the error must name index k's
      // value, as the reference's index-by-index check does.
      for (size_t j = k; j < row.support.size(); ++j) {
        const auto v = static_cast<uint32_t>(j == k ? bad : -7);
        for (size_t b = 0; b < 4; ++b) {
          mutated[first + 4 * j + b] = static_cast<uint8_t>(v >> (8 * b));
        }
      }
      ExpectSameParse(mutated, mutated.size(),
                      "support slot " + std::to_string(k));
      const StatusOr<ParsedFrame> got =
          ParseFrame(mutated.data(), mutated.size());
      ASSERT_FALSE(got.ok());
      EXPECT_NE(got.status().message().find("support index " +
                                            std::to_string(bad) + " "),
                std::string::npos)
          << got.status().message();
    }
  }
}

}  // namespace
}  // namespace dswm::net
