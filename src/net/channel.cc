#include "net/channel.h"

#include "common/check.h"

namespace dswm::net {

bool IsDataPlaneKind(MessageKind kind) {
  return kind == MessageKind::kRowUpload || kind == MessageKind::kEigenpair ||
         kind == MessageKind::kDa2Delta || kind == MessageKind::kSumDelta;
}

uint64_t MixChannelSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status NetProfile::Validate() const {
  if (!(drop >= 0.0 && drop < 1.0)) {
    return Status::InvalidArgument("net drop probability must be in [0, 1)");
  }
  if (!(duplicate >= 0.0 && duplicate < 1.0)) {
    return Status::InvalidArgument(
        "net duplicate probability must be in [0, 1)");
  }
  if (delay_min < 0 || delay_max < delay_min) {
    return Status::InvalidArgument(
        "net delay range must satisfy 0 <= delay_min <= delay_max");
  }
  if (retry < 1) {
    return Status::InvalidArgument("net retry timeout must be >= 1 tick");
  }
  return Status::OK();
}

Channel::Channel(int num_sites) : num_sites_(num_sites) {
  DSWM_CHECK_GE(num_sites, 1);
}

void Channel::Send(Direction dir, int site, const WireMessage& msg) {
  DSWM_OBS_COUNT("net.sends", 1);
  DSWM_OBS_HISTOGRAM("net.payload_words",
                     (std::vector<long>{1, 4, 16, 64, 256, 1024, 4096}),
                     static_cast<long>(PayloadWords(msg)));
  FrameInfo frame;
  Delivery delivery;
  // Steal the scratch buffer under the lock (reusing its capacity), then
  // serialize into the now-local buffer with the lock released so Dispatch
  // -- and any handler it reaches, which may legally reenter Send -- never
  // runs under mu_.
  std::vector<uint8_t> buf;
  {
    MutexLock lock(mu_);
    buf = std::move(scratch_);
    delivery.sequence = ++wire_sequence_;
  }
  SerializeMessage(msg, &buf, delivery.sequence);
  // Deliver the parsed frame, not the original object: the receiving
  // side only ever sees what survived serialization. The two must agree
  // by construction; a parse failure here is a wire-format bug.
  StatusOr<ParsedFrame> parsed = ParseFrame(buf.data(), buf.size());
  DSWM_CHECK(parsed.ok());
  DSWM_CHECK(parsed.value().sequence == delivery.sequence);
  frame.kind = KindOf(msg);
  frame.payload_words = static_cast<uint32_t>(PayloadWords(msg));
  frame.frame_bytes = static_cast<uint32_t>(buf.size());
  delivery.dir = dir;
  delivery.site = dir == Direction::kBroadcast ? -1 : site;
  delivery.sent_at = now_;
  delivery.msg = std::move(parsed).value().msg;
  Dispatch(std::move(delivery), frame, buf);
  {
    MutexLock lock(mu_);
    scratch_ = std::move(buf);
  }
}

void Channel::Record(const Delivery& delivery, const FrameInfo& frame,
                     bool dropped, bool retransmit, bool duplicate) {
  MutexLock lock(mu_);
  LedgerEntry entry;
  entry.sequence = next_sequence_++;
  entry.kind = frame.kind;
  entry.dir = delivery.dir;
  entry.site = delivery.site;
  entry.time = now_;
  entry.payload_words = frame.payload_words;
  entry.frame_bytes = frame.frame_bytes;
  entry.copies = delivery.dir == Direction::kBroadcast
                     ? static_cast<uint16_t>(num_sites_)
                     : uint16_t{1};
  entry.dropped = dropped;
  entry.retransmit = retransmit;
  entry.duplicate = duplicate;
  ledger_.Record(entry);
}

void LoopbackChannel::Dispatch(Delivery delivery, const FrameInfo& frame,
                               const std::vector<uint8_t>& bytes) {
  (void)bytes;  // in-process: the parsed delivery already is the frame
  Record(delivery, frame, /*dropped=*/false, /*retransmit=*/false,
         /*duplicate=*/false);
  Handle(std::move(delivery));
}

FaultyChannel::FaultyChannel(int num_sites, const NetProfile& profile)
    : Channel(num_sites), profile_(profile), rng_(profile.seed) {}

void FaultyChannel::Dispatch(Delivery delivery, const FrameInfo& frame,
                             const std::vector<uint8_t>& bytes) {
  (void)bytes;  // in-process: the parsed delivery already is the frame
  if (!IsDataPlaneKind(frame.kind)) {
    // Control plane: the simulated negotiation reads shared state
    // synchronously, so these are always reliable and instant.
    Record(delivery, frame, false, false, false);
    Handle(std::move(delivery));
    return;
  }
  Attempt(std::move(delivery), frame, /*retransmit=*/false);
}

void FaultyChannel::Attempt(Delivery delivery, const FrameInfo& frame,
                            bool retransmit) {
  // Roll every fault die under the lock, in the exact order (and with the
  // exact knob-gated short-circuits) of the pre-lock implementation, so
  // the draw sequence -- and therefore every seeded experiment -- is
  // bit-identical. Records and deliveries happen after release.
  bool dropped = false;
  bool duplicated = false;
  Timestamp delay = 0;
  {
    MutexLock lock(fault_mu_);
    dropped = profile_.drop > 0.0 && rng_.NextDouble() < profile_.drop;
    if (!dropped) {
      duplicated =
          profile_.duplicate > 0.0 && rng_.NextDouble() < profile_.duplicate;
      if (profile_.delay_max > 0) {
        delay = profile_.delay_min +
                static_cast<Timestamp>(rng_.NextBelow(static_cast<uint64_t>(
                    profile_.delay_max - profile_.delay_min + 1)));
      }
    }
  }

  if (dropped) {
    Record(delivery, frame, /*dropped=*/true, retransmit, false);
    if (profile_.reliable) {
      // No ack will arrive; the sender times out and resends. The resend
      // rolls the fault dice again, so a frame can be lost repeatedly.
      Queued q;
      q.delivery = std::move(delivery);
      q.frame = frame;
      q.is_retransmit = true;
      Enqueue(now_ + profile_.retry, std::move(q));
    }
    return;
  }

  Record(delivery, frame, /*dropped=*/false, retransmit, false);
  if (profile_.reliable) {
    // Receiver acks the delivered frame: one word back the other way.
    // Transport-level only -- never surfaced to the handler.
    Delivery ack;
    ack.dir = delivery.dir == Direction::kUp ? Direction::kDown
                                             : Direction::kUp;
    ack.site = delivery.site;
    ack.sent_at = now_;
    FrameInfo ack_frame;
    ack_frame.kind = MessageKind::kAck;
    ack_frame.payload_words = 1;
    ack_frame.frame_bytes = static_cast<uint32_t>(kFrameHeaderBytes + 8);
    Record(ack, ack_frame, false, false, false);
  }

  if (duplicated) {
    // The duplicate is a real second transmission: ledgered, and
    // delivered right after the original copy.
    Record(delivery, frame, false, retransmit, /*duplicate=*/true);
  }

  if (delay == 0) {
    DeliverNow(delivery, frame);
    if (duplicated) DeliverNow(delivery, frame);
    return;
  }
  Queued q;
  q.delivery = delivery;
  q.frame = frame;
  Enqueue(now_ + delay, q);
  if (duplicated) Enqueue(now_ + delay, std::move(q));
}

void FaultyChannel::DeliverNow(Delivery delivery, const FrameInfo& frame) {
  (void)frame;
  Handle(std::move(delivery));
}

void FaultyChannel::Enqueue(Timestamp due, Queued item) {
  MutexLock lock(fault_mu_);
  queue_.emplace(std::make_pair(due, enqueue_counter_++), std::move(item));
}

void FaultyChannel::AdvanceTime(Timestamp t) {
  Channel::AdvanceTime(t);
  // Flush everything due by the new clock in (due, enqueue-order). An
  // attempt may re-enqueue (repeated loss under the shim); the map keeps
  // iteration deterministic regardless. Each item is popped under the
  // lock but delivered outside it: DeliverNow reaches the handler, which
  // may legally reenter Send/Enqueue.
  for (;;) {
    Queued item;
    {
      MutexLock lock(fault_mu_);
      if (queue_.empty() || queue_.begin()->first.first > now_) break;
      item = std::move(queue_.begin()->second);
      queue_.erase(queue_.begin());
    }
    if (item.is_retransmit) {
      Attempt(std::move(item.delivery), item.frame, /*retransmit=*/true);
    } else {
      DeliverNow(std::move(item.delivery), item.frame);
    }
  }
}

std::unique_ptr<Channel> MakeChannel(const NetProfile& profile, int num_sites,
                                     uint64_t salt) {
  if (!profile.faulty()) {
    return std::make_unique<LoopbackChannel>(num_sites);
  }
  NetProfile salted = profile;
  salted.seed = MixChannelSeed(profile.seed, salt);
  return std::make_unique<FaultyChannel>(num_sites, salted);
}

}  // namespace dswm::net
