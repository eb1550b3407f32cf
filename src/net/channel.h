// The site <-> coordinator transport abstraction.
//
// Every protocol constructs its traffic as typed wire messages (wire.h)
// and pushes them through a Channel. The channel serializes each message,
// records the transmission in its MessageLedger (the source of truth for
// word accounting), and delivers the *parsed* frame to the registered
// handler -- so what the coordinator applies is exactly what crossed the
// wire, byte for byte.
//
// Two implementations:
//
//  * LoopbackChannel -- deterministic in-process delivery: the handler
//    runs synchronously inside Send(), preserving the exact causal order
//    of the pre-transport code. All tracker metrics (err/msg/space) are
//    bit-identical to the direct-call design.
//
//  * FaultyChannel -- seeded drop / duplicate / delay injection on the
//    data plane (row uploads, eigenpairs, DA2 deltas, sum deltas), plus
//    an optional ack-and-resend reliability shim. Control messages
//    (retrieve negotiation, threshold broadcasts) stay synchronous and
//    reliable: the simulated protocols read shared threshold state
//    directly, so faulting them would be unobservable; the data plane is
//    where loss actually perturbs the coordinator's estimate. Delayed and
//    retransmitted frames are delivered on AdvanceTime in deterministic
//    (due-time, enqueue-order) order.
//
// Word accounting: one word per 8 payload bytes (the paper's cost model,
// Section IV-A). Dropped, duplicated, and retransmitted frames all count
// -- they crossed the wire -- which is exactly how the fault experiments
// quantify the price of unreliability and of the reliability shim.

#ifndef DSWM_NET_CHANNEL_H_
#define DSWM_NET_CHANNEL_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "net/ledger.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace dswm::net {

/// Fault-injection knobs for a channel; all-zero means a perfect network
/// and selects the loopback implementation (see MakeChannel).
struct NetProfile {
  /// Per-transmission-attempt loss probability in [0, 1).
  double drop = 0.0;
  /// Probability a delivered frame is duplicated, in [0, 1).
  double duplicate = 0.0;
  /// Uniform delivery delay in ticks, inclusive range. 0/0 = instant.
  Timestamp delay_min = 0;
  Timestamp delay_max = 0;
  /// Fault RNG seed (mixed with a per-channel salt for sub-protocols).
  uint64_t seed = 0;
  /// Ack-and-resend reliability shim: every delivered data frame is
  /// acked (1 word, opposite direction); a lost frame is retransmitted
  /// `retry` ticks after it was sent, until delivered.
  bool reliable = false;
  /// Retransmission timeout in ticks (>= 1).
  Timestamp retry = 1;

  /// True when any fault knob is active.
  [[nodiscard]] bool faulty() const {
    return drop > 0.0 || duplicate > 0.0 || delay_max > 0;
  }

  [[nodiscard]] Status Validate() const;
};

/// A parsed frame handed to the receiving side.
struct Delivery {
  Direction dir = Direction::kUp;
  /// Sender (kUp) or recipient (kDown); -1 for broadcasts.
  int site = -1;
  /// Simulation clock when the frame was sent.
  Timestamp sent_at = 0;
  /// The sender channel's per-channel transmission number (from the frame
  /// header): 1, 2, ... in Send order. A receiver can detect reordering and
  /// duplication from it without sharing the sender's state.
  uint64_t sequence = 0;
  WireMessage msg;
};

class Channel;
class FaultyChannel;

/// Factory for a custom transport implementation: builds the channel one
/// (sub-)protocol sends through. `salt` decorrelates sub-protocol fault
/// RNGs exactly as in MakeChannel. A caller that wraps or instruments the
/// transport (perfbench's timed channel) installs one into
/// TrackerConfig::channel_backend before MakeTracker; null keeps
/// MakeChannel's default loopback/faulty selection.
using ChannelBackendFn = std::function<std::unique_ptr<Channel>(
    const NetProfile& profile, int num_sites, uint64_t salt)>;

/// Transport base: serializes, ledgers, and routes messages.
class Channel {
 public:
  explicit Channel(int num_sites);
  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers the receive callback. At most one handler; the owning
  /// tracker dispatches on message kind.
  void SetHandler(std::function<void(Delivery)> handler) {
    handler_ = std::move(handler);
  }

  /// Serializes `msg`, records the transmission, and (per implementation)
  /// delivers it. `site` is the sender for kUp, the recipient for kDown,
  /// and ignored (-1) for kBroadcast, which charges num_sites copies.
  /// Reentrant: a handler invoked by a Send may itself Send (the
  /// coordinator answering a site), so no channel lock is ever held
  /// across the Dispatch/Handle call chain.
  void Send(Direction dir, int site, const WireMessage& msg)
      DSWM_EXCLUDES(mu_);

  /// Advances the transport clock; fault-injecting implementations flush
  /// due deliveries and retransmissions here, in deterministic order.
  virtual void AdvanceTime(Timestamp t) { now_ = t > now_ ? t : now_; }

  /// Closes the transport. Idempotent. After Close() every Send and every
  /// late delivery (a delayed frame flushed by AdvanceTime) is discarded
  /// and counted (net.send_after_close / net.drop_after_close) -- never a
  /// crash, so a handler that closes its own channel is benign. No caller
  /// in src/ closes a channel; the lifecycle tests pin the contract.
  virtual void Close() { closed_ = true; }
  [[nodiscard]] bool closed() const { return closed_; }

  /// The transmission trace. The returned reference is only stable while
  /// no Send/AdvanceTime runs concurrently; callers read it after the run
  /// quiesces (the driver does so after the replay loop).
  [[nodiscard]] const MessageLedger& ledger() const DSWM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ledger_;
  }
  /// Communication counters derived from the ledger. Same quiescence
  /// contract as ledger().
  [[nodiscard]] const CommStats& comm() const DSWM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return ledger_.stats();
  }
  [[nodiscard]] int num_sites() const { return num_sites_; }
  [[nodiscard]] Timestamp now() const { return now_; }

  /// Downcast hook so experiments can flip fault knobs mid-run.
  virtual FaultyChannel* AsFaulty() { return nullptr; }

  /// Transport health: a custom backend reports its first unrecoverable
  /// transport error here. Always OK for the in-process channels, and no
  /// caller in src/ reads it.
  [[nodiscard]] virtual Status Health() const { return Status::OK(); }

 protected:
  struct FrameInfo {
    MessageKind kind = MessageKind::kRowUpload;
    uint32_t payload_words = 0;
    uint32_t frame_bytes = 0;
  };

  /// Implementation hook: decide the fate of one outgoing frame. `bytes`
  /// is the serialized frame exactly as Record accounts for it; it is
  /// valid only for the duration of the call (a backend that ships or
  /// re-parses the frame reads it before returning; in-process backends
  /// ignore it -- they already hold the parsed delivery).
  virtual void Dispatch(Delivery delivery, const FrameInfo& frame,
                        const std::vector<uint8_t>& bytes) = 0;

  /// Records one transmission attempt in the ledger.
  void Record(const Delivery& delivery, const FrameInfo& frame, bool dropped,
              bool retransmit, bool duplicate) DSWM_EXCLUDES(mu_);

  /// Invokes the handler (if any) with a delivered frame. Never called
  /// with mu_ held: the handler may reenter Send. Deliveries that reach a
  /// closed channel (late flushes during teardown) are discarded.
  void Handle(Delivery delivery) DSWM_EXCLUDES(mu_) {
    if (closed_) {
      DSWM_OBS_COUNT("net.drop_after_close", 1);
      return;
    }
    DSWM_OBS_COUNT("net.deliveries", 1);
    if (handler_) handler_(std::move(delivery));
  }

  /// Simulation clock. Mutated only by AdvanceTime/Send on the driving
  /// thread (the replay loop owns time); not part of the mu_ domain.
  Timestamp now_ = std::numeric_limits<Timestamp>::min() / 2;
  /// Lifecycle latch; same single-driving-thread domain as now_.
  bool closed_ = false;

 private:
  int num_sites_;
  /// Set once during tracker construction, before any traffic; immutable
  /// while messages flow (Handle reads it without mu_ by that contract).
  std::function<void(Delivery)> handler_;
  /// Guards the send/record path: the serialization scratch buffer, the
  /// sequence counters, and the ledger they feed.
  mutable Mutex mu_;
  MessageLedger ledger_ DSWM_GUARDED_BY(mu_);
  std::vector<uint8_t> scratch_ DSWM_GUARDED_BY(mu_);
  uint64_t next_sequence_ DSWM_GUARDED_BY(mu_) = 0;
  /// Per-channel wire sequence stamped into frame headers (1, 2, ...).
  /// Distinct from next_sequence_: the ledger numbers every recorded
  /// attempt (drops, duplicates, retransmissions included) while the wire
  /// number identifies the logical Send, so a retransmitted frame carries
  /// the same wire sequence it was first sent with.
  uint64_t wire_sequence_ DSWM_GUARDED_BY(mu_) = 0;
};

/// Perfect in-process transport: synchronous FIFO delivery inside Send.
class LoopbackChannel final : public Channel {
 public:
  explicit LoopbackChannel(int num_sites) : Channel(num_sites) {}

 protected:
  void Dispatch(Delivery delivery, const FrameInfo& frame,
                const std::vector<uint8_t>& bytes) override;
};

/// Seeded fault injection with optional ack-and-resend reliability.
class FaultyChannel final : public Channel {
 public:
  FaultyChannel(int num_sites, const NetProfile& profile);

  void AdvanceTime(Timestamp t) override;
  FaultyChannel* AsFaulty() override { return this; }

  /// Live fault knobs; experiments mutate these mid-run (e.g. stop
  /// dropping to measure recovery).
  [[nodiscard]] NetProfile& profile() { return profile_; }
  [[nodiscard]] const NetProfile& profile() const { return profile_; }

  /// Frames currently queued (delayed or awaiting retransmission).
  [[nodiscard]] long in_flight() const DSWM_EXCLUDES(fault_mu_) {
    MutexLock lock(fault_mu_);
    return static_cast<long>(queue_.size());
  }

  /// Earliest queued due time, or nothing when no frame is in flight.
  /// A caller can jump the clock straight to this instant instead of
  /// polling tick by tick; the flush order is identical either way (the
  /// queue delivers in (due, enqueue-order) regardless of how far the
  /// clock jumps). No caller in src/ uses it; tests pin the contract.
  [[nodiscard]] std::optional<Timestamp> NextDueTime() const
      DSWM_EXCLUDES(fault_mu_) {
    MutexLock lock(fault_mu_);
    if (queue_.empty()) return std::nullopt;
    return queue_.begin()->first.first;
  }

 protected:
  void Dispatch(Delivery delivery, const FrameInfo& frame,
                const std::vector<uint8_t>& bytes) override;

 private:
  struct Queued {
    Delivery delivery;
    FrameInfo frame;
    bool is_retransmit = false;  // retransmission attempt vs. delayed copy
  };

  /// One transmission attempt: rolls drop/duplicate/delay and either
  /// delivers, queues, or (reliable) schedules a retransmission.
  void Attempt(Delivery delivery, const FrameInfo& frame, bool retransmit)
      DSWM_EXCLUDES(fault_mu_);
  void DeliverNow(Delivery delivery, const FrameInfo& frame)
      DSWM_EXCLUDES(fault_mu_);
  void Enqueue(Timestamp due, Queued item) DSWM_EXCLUDES(fault_mu_);

  /// Mutated through profile() by experiments between protocol steps;
  /// read by Attempt. Single-threaded by the simulation contract (the
  /// accessor exposes a bare reference, so it cannot be lock-guarded).
  NetProfile profile_;
  /// Guards the fault state shared between the send path (Dispatch ->
  /// Attempt) and the clock path (AdvanceTime): the fault dice and the
  /// delayed/retransmission queue. Released before every Handle call.
  mutable Mutex fault_mu_;
  Rng rng_ DSWM_GUARDED_BY(fault_mu_);
  // (due time, enqueue order) -> item; processed in key order.
  std::map<std::pair<Timestamp, uint64_t>, Queued> queue_
      DSWM_GUARDED_BY(fault_mu_);
  uint64_t enqueue_counter_ DSWM_GUARDED_BY(fault_mu_) = 0;
};

/// Builds the channel a tracker's config asks for: loopback when no fault
/// knob is set, otherwise a FaultyChannel whose RNG is seeded from
/// profile.seed mixed with `salt` (sub-protocols pass distinct salts so
/// they do not see correlated faults).
std::unique_ptr<Channel> MakeChannel(const NetProfile& profile, int num_sites,
                                     uint64_t salt);

/// The salt mix MakeChannel applies (splitmix64 finalizer). Exposed so
/// custom backends (TrackerConfig::channel_backend) seed their fault RNGs
/// identically to the in-process channels.
[[nodiscard]] uint64_t MixChannelSeed(uint64_t seed, uint64_t salt);

/// Data-plane kinds are the ones whose loss perturbs the coordinator's
/// estimate; only these are subject to fault injection. Control kinds
/// (retrieve negotiation, threshold broadcasts, acks) are always
/// synchronous and reliable on every backend.
[[nodiscard]] bool IsDataPlaneKind(MessageKind kind);

}  // namespace dswm::net

#endif  // DSWM_NET_CHANNEL_H_
