// Typed wire messages for the site <-> coordinator transport (DESIGN.md
// section 9).
//
// One struct per message kind the paper's protocols put on the wire. Each
// serializes to an explicit little-endian frame (format version 1):
//
//   [kind u8][flags u8][version u16][payload_words u32][aux_count u32]
//   [sequence u64]
//   payload_words x 8-byte words (doubles bit-cast to u64, or i64)
//   aux_count x 4-byte i32 (RowUpload sparse-support indices only)
//
// `sequence` is the sender channel's monotonically increasing per-channel
// transmission number (1, 2, ...). It lets any receiver that does not
// share the sender's state -- a custom channel backend, a trace reader --
// detect reordering, duplication, and loss from the frame alone. Version 0 frames (the pre-sequence layout, where these
// two bytes were a zero reserved field) are rejected with a version error,
// not misparsed.
//
// The payload carries exactly the real numbers the paper's cost model
// charges for (one word each, Section IV-A), so a frame's word cost is
// payload bytes / 8. The 20-byte header and the sparse-support index list
// are framing metadata: a production encoding would ship sparse rows as
// (index, value) pairs and pay fewer words, but the paper's accounting --
// and ours -- charges the dense d words per row. Doubles round-trip
// bit-exactly (NaN payloads, infinities, denormals, signed zero included).
//
// Parsing returns Status on malformed input (truncation, bad kind, size
// mismatch, out-of-range support index) -- never crashes, never throws.

#ifndef DSWM_NET_WIRE_H_
#define DSWM_NET_WIRE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "common/status.h"
#include "stream/timed_row.h"

namespace dswm::net {

/// Every message kind the protocols exchange. Values are the on-wire tag.
enum class MessageKind : uint8_t {
  /// Site -> coordinator: one (possibly rescaled) sample row with its
  /// timestamp and, per protocol, a priority key and/or sampler id.
  /// PWOR/ESWOR: d+2 words; CENTRAL: d+1; PWR-ST/ESWR-ST: d+3.
  kRowUpload = 1,
  /// Coordinator -> site: request the site's best outstanding priority
  /// (Algorithm 1 negotiation). 1 word.
  kRetrieveRequest = 2,
  /// Site -> coordinator: the reply (its highest queued key). 1 word.
  kRetrieveResponse = 3,
  /// Coordinator -> all sites: new sampling threshold tau. 1 word per
  /// site (m words total, the paper's broadcast cost).
  kThresholdBroadcast = 4,
  /// Site -> coordinator: one significant eigenpair (lambda, v) of the
  /// DA1 gap matrix. d+1 words.
  kEigenpair = 5,
  /// Site -> coordinator: one DA2 IWMT direction with timestamp and
  /// flag +1 (forward/arrival) or -1 (backward/expiry). d+2 words.
  kDa2Delta = 6,
  /// Site -> coordinator: SUM-tracker delta D = C - C_hat. 1 word.
  kSumDelta = 7,
  /// Site -> coordinator: explicit expiry signal. 1 word. Reserved: the
  /// paper's protocols share a synchronized clock and never need it, but
  /// the transport supports it for asynchronous-clock extensions.
  kExpiryNotice = 8,
  /// Transport-level acknowledgment used by the reliability shim
  /// (FaultyChannel with reliable=true). 1 word.
  kAck = 9,
};

/// Lowest/highest valid MessageKind tags (parser range check).
inline constexpr uint8_t kMinMessageKind = 1;
inline constexpr uint8_t kMaxMessageKind = 9;

/// Display name ("row_upload", ...), stable for the JSONL trace format.
const char* KindName(MessageKind kind);

struct RowUploadMsg {
  std::vector<double> values;
  Timestamp timestamp = 0;
  /// Sparse support indices (framing metadata, not words; see header).
  std::vector<int> support;
  bool has_key = false;
  double key = 0.0;
  bool has_sampler = false;
  int64_t sampler = 0;
};

struct RetrieveRequestMsg {
  /// The threshold the coordinator is probing below (informational).
  double bound = 0.0;
};

struct RetrieveResponseMsg {
  /// The site's highest outstanding priority (-inf when none).
  double key = 0.0;
};

struct ThresholdBroadcastMsg {
  double threshold = 0.0;
};

struct EigenpairMsg {
  double lambda = 0.0;
  std::vector<double> vector;
};

struct Da2DeltaMsg {
  std::vector<double> direction;
  Timestamp timestamp = 0;
  /// +1 forward (IWMT_a output), -1 backward (IWMT_e output).
  int flag = 1;
};

struct SumDeltaMsg {
  double delta = 0.0;
};

struct ExpiryNoticeMsg {
  Timestamp cutoff = 0;
};

struct AckMsg {
  uint64_t sequence = 0;
};

using WireMessage =
    std::variant<RowUploadMsg, RetrieveRequestMsg, RetrieveResponseMsg,
                 ThresholdBroadcastMsg, EigenpairMsg, Da2DeltaMsg, SumDeltaMsg,
                 ExpiryNoticeMsg, AckMsg>;

/// The on-wire tag for a message.
MessageKind KindOf(const WireMessage& msg);

/// Word cost of one copy of `msg` under the paper's accounting: the
/// number of 8-byte payload words it serializes to.
[[nodiscard]] long PayloadWords(const WireMessage& msg);

/// Serializes `msg` into `out` (cleared first), stamping the sender's
/// per-channel transmission number into the header. Total frame size is
/// 20 + 8 * PayloadWords(msg) + 4 * support_count bytes.
void SerializeMessage(const WireMessage& msg, std::vector<uint8_t>* out,
                      uint64_t sequence = 0);

/// A parsed frame: the typed message plus its header sequence number.
struct ParsedFrame {
  WireMessage msg;
  uint64_t sequence = 0;
};

/// Parses a frame produced by SerializeMessage. Returns InvalidArgument
/// on truncated, oversized, structurally malformed, or wrong-version
/// input.
[[nodiscard]] StatusOr<ParsedFrame> ParseFrame(const uint8_t* data,
                                               size_t size);

/// ParseFrame, discarding the transport sequence number (callers that
/// only care about the protocol-level content).
[[nodiscard]] StatusOr<WireMessage> ParseMessage(const uint8_t* data,
                                                 size_t size);

/// Frame header size in bytes.
inline constexpr size_t kFrameHeaderBytes = 20;

/// On-wire format version stamped into (and required of) every frame.
inline constexpr uint16_t kWireFormatVersion = 1;

}  // namespace dswm::net

#endif  // DSWM_NET_WIRE_H_
