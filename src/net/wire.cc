#include "net/wire.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/check.h"

namespace dswm::net {

namespace {

// --- little-endian primitives -------------------------------------------
//
// Frames are little-endian. On a little-endian host a value's bytes in
// memory already are its wire bytes, so a scalar is one memcpy and a value
// array is one memcpy for the whole array. A big-endian host assembles and
// takes apart each value byte by byte.

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

static_assert(sizeof(int) == sizeof(int32_t),
              "support indices cross the wire as i32");

/// Little-endian writer into a frame buffer sized up front.
class Writer {
 public:
  explicit Writer(uint8_t* pos) : pos_(pos) {}

  [[nodiscard]] const uint8_t* pos() const { return pos_; }

  void PutU8(uint8_t v) { *pos_++ = v; }
  void PutU16(uint16_t v) { PutUnsigned(v); }
  void PutU32(uint32_t v) { PutUnsigned(v); }
  void PutU64(uint64_t v) { PutUnsigned(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  // Exact for every double bit pattern (NaN payloads, +-inf, denormals,
  // signed zero).
  void PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  void PutF64s(const std::vector<double>& values) {
    if constexpr (kLittleEndianHost) {
      PutBytes(values.data(), sizeof(double) * values.size());
    } else {
      for (double v : values) PutF64(v);
    }
  }

  void PutI32s(const std::vector<int>& values) {
    if constexpr (kLittleEndianHost) {
      PutBytes(values.data(), sizeof(int32_t) * values.size());
    } else {
      for (int v : values) PutU32(static_cast<uint32_t>(v));
    }
  }

 private:
  template <typename T>
  void PutUnsigned(T v) {
    if constexpr (kLittleEndianHost) {
      PutBytes(&v, sizeof(v));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        *pos_++ = static_cast<uint8_t>(v >> (8 * i));
      }
    }
  }

  void PutBytes(const void* src, size_t n) {
    if (n == 0) return;  // an empty vector's data() may be null
    std::memcpy(pos_, src, n);
    pos_ += n;
  }

  uint8_t* pos_;
};

/// Bounds-checked little-endian reader over a frame.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

  Status ReadU8(uint8_t* v) {
    DSWM_RETURN_NOT_OK(Need(1));
    *v = data_[pos_++];
    return Status::OK();
  }

  Status ReadU16(uint16_t* v) { return ReadUnsigned(v); }
  Status ReadU32(uint32_t* v) { return ReadUnsigned(v); }
  Status ReadU64(uint64_t* v) { return ReadUnsigned(v); }

  Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    DSWM_RETURN_NOT_OK(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status ReadF64(double* v) {
    uint64_t bits = 0;
    DSWM_RETURN_NOT_OK(ReadU64(&bits));
    *v = std::bit_cast<double>(bits);
    return Status::OK();
  }

  // Fills `values` (already sized) from the next 8 * size() bytes: one
  // bounds check and one memcpy on a little-endian host.
  Status ReadF64s(std::vector<double>* values) {
    if constexpr (kLittleEndianHost) {
      return ReadBytes(values->data(), sizeof(double) * values->size());
    } else {
      for (double& v : *values) DSWM_RETURN_NOT_OK(ReadF64(&v));
      return Status::OK();
    }
  }

  // Fills `values` (already sized) from the next 4 * size() bytes, as
  // ReadF64s does. Range checks are the caller's.
  Status ReadI32s(std::vector<int>* values) {
    if constexpr (kLittleEndianHost) {
      return ReadBytes(values->data(), sizeof(int32_t) * values->size());
    } else {
      for (int& v : *values) {
        uint32_t u = 0;
        DSWM_RETURN_NOT_OK(ReadU32(&u));
        v = static_cast<int32_t>(u);
      }
      return Status::OK();
    }
  }

 private:
  template <typename T>
  Status ReadUnsigned(T* v) {
    if constexpr (kLittleEndianHost) {
      return ReadBytes(v, sizeof(T));
    } else {
      DSWM_RETURN_NOT_OK(Need(sizeof(T)));
      T r = 0;
      for (size_t i = 0; i < sizeof(T); ++i) {
        r |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
      }
      pos_ += sizeof(T);
      *v = r;
      return Status::OK();
    }
  }

  Status ReadBytes(void* dst, size_t n) {
    DSWM_RETURN_NOT_OK(Need(n));
    if (n == 0) return Status::OK();  // an empty vector's data() may be null
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

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

// RowUpload header flag bits.
constexpr uint8_t kFlagHasKey = 1u << 0;
constexpr uint8_t kFlagHasSampler = 1u << 1;

Status BadFrame(const std::string& why) {
  return Status::InvalidArgument("wire: " + why);
}

}  // namespace

const char* KindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kRowUpload: return "row_upload";
    case MessageKind::kRetrieveRequest: return "retrieve_request";
    case MessageKind::kRetrieveResponse: return "retrieve_response";
    case MessageKind::kThresholdBroadcast: return "threshold_broadcast";
    case MessageKind::kEigenpair: return "eigenpair";
    case MessageKind::kDa2Delta: return "da2_delta";
    case MessageKind::kSumDelta: return "sum_delta";
    case MessageKind::kExpiryNotice: return "expiry_notice";
    case MessageKind::kAck: return "ack";
  }
  return "unknown";
}

MessageKind KindOf(const WireMessage& msg) {
  struct Visitor {
    MessageKind operator()(const RowUploadMsg&) { return MessageKind::kRowUpload; }
    MessageKind operator()(const RetrieveRequestMsg&) { return MessageKind::kRetrieveRequest; }
    MessageKind operator()(const RetrieveResponseMsg&) { return MessageKind::kRetrieveResponse; }
    MessageKind operator()(const ThresholdBroadcastMsg&) { return MessageKind::kThresholdBroadcast; }
    MessageKind operator()(const EigenpairMsg&) { return MessageKind::kEigenpair; }
    MessageKind operator()(const Da2DeltaMsg&) { return MessageKind::kDa2Delta; }
    MessageKind operator()(const SumDeltaMsg&) { return MessageKind::kSumDelta; }
    MessageKind operator()(const ExpiryNoticeMsg&) { return MessageKind::kExpiryNotice; }
    MessageKind operator()(const AckMsg&) { return MessageKind::kAck; }
  };
  return std::visit(Visitor{}, msg);
}

long PayloadWords(const WireMessage& msg) {
  struct Visitor {
    long operator()(const RowUploadMsg& m) {
      return static_cast<long>(m.values.size()) + 1 + (m.has_key ? 1 : 0) +
             (m.has_sampler ? 1 : 0);
    }
    long operator()(const RetrieveRequestMsg&) { return 1; }
    long operator()(const RetrieveResponseMsg&) { return 1; }
    long operator()(const ThresholdBroadcastMsg&) { return 1; }
    long operator()(const EigenpairMsg& m) {
      return static_cast<long>(m.vector.size()) + 1;
    }
    long operator()(const Da2DeltaMsg& m) {
      return static_cast<long>(m.direction.size()) + 2;
    }
    long operator()(const SumDeltaMsg&) { return 1; }
    long operator()(const ExpiryNoticeMsg&) { return 1; }
    long operator()(const AckMsg&) { return 1; }
  };
  return std::visit(Visitor{}, msg);
}

void SerializeMessage(const WireMessage& msg, std::vector<uint8_t>* out,
                      uint64_t sequence) {
  out->clear();
  const MessageKind kind = KindOf(msg);
  const long words = PayloadWords(msg);
  uint8_t flags = 0;
  uint32_t aux = 0;
  if (const auto* row = std::get_if<RowUploadMsg>(&msg)) {
    if (row->has_key) flags |= kFlagHasKey;
    if (row->has_sampler) flags |= kFlagHasSampler;
    aux = static_cast<uint32_t>(row->support.size());
  }
  // One resize for the whole frame; the writer then fills it in place.
  out->resize(kFrameHeaderBytes + 8 * static_cast<size_t>(words) + 4 * aux);
  Writer w(out->data());
  w.PutU8(static_cast<uint8_t>(kind));
  w.PutU8(flags);
  w.PutU16(kWireFormatVersion);
  w.PutU32(static_cast<uint32_t>(words));
  w.PutU32(aux);
  w.PutU64(sequence);

  struct Visitor {
    Writer* w;
    void operator()(const RowUploadMsg& m) {
      w->PutF64s(m.values);
      w->PutI64(m.timestamp);
      if (m.has_key) w->PutF64(m.key);
      if (m.has_sampler) w->PutI64(m.sampler);
      w->PutI32s(m.support);
    }
    void operator()(const RetrieveRequestMsg& m) { w->PutF64(m.bound); }
    void operator()(const RetrieveResponseMsg& m) { w->PutF64(m.key); }
    void operator()(const ThresholdBroadcastMsg& m) { w->PutF64(m.threshold); }
    void operator()(const EigenpairMsg& m) {
      w->PutF64(m.lambda);
      w->PutF64s(m.vector);
    }
    void operator()(const Da2DeltaMsg& m) {
      w->PutF64s(m.direction);
      w->PutI64(m.timestamp);
      w->PutI64(m.flag);
    }
    void operator()(const SumDeltaMsg& m) { w->PutF64(m.delta); }
    void operator()(const ExpiryNoticeMsg& m) { w->PutI64(m.cutoff); }
    void operator()(const AckMsg& m) { w->PutU64(m.sequence); }
  };
  std::visit(Visitor{&w}, msg);
  DSWM_DCHECK(w.pos() == out->data() + out->size());
}

namespace {

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
      DSWM_RETURN_NOT_OK(r.ReadF64s(&m.values));
      DSWM_RETURN_NOT_OK(r.ReadI64(&m.timestamp));
      if (m.has_key) DSWM_RETURN_NOT_OK(r.ReadF64(&m.key));
      if (m.has_sampler) DSWM_RETURN_NOT_OK(r.ReadI64(&m.sampler));
      m.support.resize(aux);
      DSWM_RETURN_NOT_OK(r.ReadI32s(&m.support));
      for (int idx : m.support) {
        if (idx < 0 || idx >= d) {
          return BadFrame("support index " + std::to_string(idx) +
                          " out of range for d=" + std::to_string(d));
        }
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
      DSWM_RETURN_NOT_OK(r.ReadF64s(&m.vector));
      return WireMessage(std::move(m));
    }
    case MessageKind::kDa2Delta: {
      if (words < 2) return BadFrame("da2 delta missing timestamp/flag");
      Da2DeltaMsg m;
      m.direction.resize(words - 2);
      DSWM_RETURN_NOT_OK(r.ReadF64s(&m.direction));
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

}  // namespace

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
  const uint64_t expect =
      kFrameHeaderBytes + 8ull * words + 4ull * aux;
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

StatusOr<WireMessage> ParseMessage(const uint8_t* data, size_t size) {
  StatusOr<ParsedFrame> frame = ParseFrame(data, size);
  if (!frame.ok()) return frame.status();
  return std::move(frame).value().msg;
}

}  // namespace dswm::net
