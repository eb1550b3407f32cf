// The message ledger: every transmission a Channel performs is recorded
// here with its kind, direction, site, timestamp, serialized size, and
// transport flags (retransmit / duplicate / dropped).
//
// The ledger is the single source of truth for communication accounting:
// the legacy CommStats counters are *derived* from it (one word per 8
// payload bytes, the paper's cost model), never hand-maintained by
// protocol code. It also provides a JSONL dump for observability
// (--trace-jsonl).

#ifndef DSWM_NET_LEDGER_H_
#define DSWM_NET_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/comm_stats.h"
#include "net/wire.h"

namespace dswm::net {

/// Which way a message travels.
enum class Direction : uint8_t {
  kUp = 0,         // site -> coordinator
  kDown = 1,       // coordinator -> one site
  kBroadcast = 2,  // coordinator -> all m sites (copies = m)
};

const char* DirectionName(Direction dir);

/// One recorded transmission attempt.
struct LedgerEntry {
  uint64_t sequence = 0;     // channel-global send order
  MessageKind kind = MessageKind::kRowUpload;
  Direction dir = Direction::kUp;
  int site = -1;             // sender (up) or recipient (down); -1 broadcast
  Timestamp time = 0;        // simulation clock at send
  uint32_t payload_words = 0;  // per copy; paper-model word cost
  uint32_t frame_bytes = 0;  // per copy, including header + support metadata
  uint16_t copies = 1;       // m for broadcasts, else 1
  bool dropped = false;      // lost by the fault injector
  bool retransmit = false;   // reliability-shim resend
  bool duplicate = false;    // fault-injector duplication
};

/// Append-only trace of everything a channel sent.
class MessageLedger {
 public:
  /// Records one transmission attempt and folds it into the derived
  /// CommStats.
  void Record(const LedgerEntry& entry);

  [[nodiscard]] const std::vector<LedgerEntry>& entries() const {
    return entries_;
  }

  /// Word/message counters derived from the recorded entries. Dropped
  /// transmissions still count: the bytes crossed the wire before the
  /// loss, which is exactly the cost the fault experiments measure.
  [[nodiscard]] const CommStats& stats() const { return stats_; }

  /// Total payload bytes across all copies (== 8 * stats().TotalWords()).
  [[nodiscard]] long TotalPayloadBytes() const { return payload_bytes_; }
  /// Total on-the-wire bytes including frame headers and support indices.
  [[nodiscard]] long TotalFrameBytes() const { return frame_bytes_; }

  /// Appends one JSON object per entry ("\n"-terminated) to `out`.
  void AppendJsonl(std::string* out) const;

 private:
  std::vector<LedgerEntry> entries_;
  CommStats stats_;
  long payload_bytes_ = 0;
  long frame_bytes_ = 0;
};

}  // namespace dswm::net

#endif  // DSWM_NET_LEDGER_H_
