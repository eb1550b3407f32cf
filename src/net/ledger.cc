#include "net/ledger.h"

#include <cstdio>

#include "common/check.h"

namespace dswm::net {

const char* DirectionName(Direction dir) {
  switch (dir) {
    case Direction::kUp: return "up";
    case Direction::kDown: return "down";
    case Direction::kBroadcast: return "broadcast";
  }
  return "unknown";
}

namespace {

bool CarriesRow(MessageKind kind) {
  return kind == MessageKind::kRowUpload || kind == MessageKind::kEigenpair ||
         kind == MessageKind::kDa2Delta;
}

}  // namespace

void MessageLedger::Record(const LedgerEntry& entry) {
  DSWM_DCHECK_GE(entry.copies, 1);
  entries_.push_back(entry);

  const long words =
      static_cast<long>(entry.payload_words) * entry.copies;
  const long pbytes = 8L * words;
  const long fbytes = static_cast<long>(entry.frame_bytes) * entry.copies;
  payload_bytes_ += pbytes;
  frame_bytes_ += fbytes;

  // Derived CommStats: the legacy model charged words at the send site,
  // whether or not the network later lost the message, so dropped and
  // duplicated transmissions count here too.
  switch (entry.dir) {
    case Direction::kUp:
      stats_.SendUp(words);
      break;
    case Direction::kDown:
      stats_.SendDown(words);
      break;
    case Direction::kBroadcast:
      stats_.Broadcast(words);
      break;
  }
  if (CarriesRow(entry.kind)) ++stats_.rows_sent;
}

void MessageLedger::AppendJsonl(std::string* out) const {
  char buf[256];
  for (const LedgerEntry& e : entries_) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"seq\":%llu,\"t\":%lld,\"kind\":\"%s\",\"dir\":\"%s\","
        "\"site\":%d,\"words\":%lu,\"payload_bytes\":%lu,"
        "\"frame_bytes\":%lu,\"copies\":%u,\"dropped\":%s,"
        "\"retransmit\":%s,\"duplicate\":%s}\n",
        static_cast<unsigned long long>(e.sequence),
        static_cast<long long>(e.time), KindName(e.kind),
        DirectionName(e.dir), e.site,
        static_cast<unsigned long>(e.payload_words) * e.copies,
        static_cast<unsigned long>(e.payload_words) * e.copies * 8,
        static_cast<unsigned long>(e.frame_bytes) * e.copies,
        static_cast<unsigned>(e.copies), e.dropped ? "true" : "false",
        e.retransmit ? "true" : "false", e.duplicate ? "true" : "false");
    out->append(buf);
  }
}

}  // namespace dswm::net
