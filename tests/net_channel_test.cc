// Transport semantics: loopback synchrony, ledger-derived accounting, and
// the seeded fault injector (drop / duplicate / delay / ack-and-resend).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/channel.h"

namespace dswm::net {
namespace {

/// Collects every delivery the handler sees.
struct Sink {
  std::vector<Delivery> received;
  void Attach(Channel* channel) {
    channel->SetHandler(
        [this](Delivery d) { received.push_back(std::move(d)); });
  }
};

TEST(NetProfile, ValidateRejectsOutOfRangeKnobs) {
  NetProfile p;
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_FALSE(p.faulty());

  p.drop = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.drop = -0.1;
  EXPECT_FALSE(p.Validate().ok());
  p.drop = 0.5;
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_TRUE(p.faulty());

  p.duplicate = 1.0;
  EXPECT_FALSE(p.Validate().ok());
  p.duplicate = 0.0;

  p.delay_min = 3;
  p.delay_max = 1;
  EXPECT_FALSE(p.Validate().ok());
  p.delay_min = -1;
  EXPECT_FALSE(p.Validate().ok());
  p.delay_min = 0;
  p.delay_max = 4;
  EXPECT_TRUE(p.Validate().ok());

  p.retry = 0;
  EXPECT_FALSE(p.Validate().ok());
}

TEST(NetChannel, MakeChannelSelectsTheImplementation) {
  NetProfile clean;
  auto loop = MakeChannel(clean, 2, /*salt=*/0);
  EXPECT_EQ(loop->AsFaulty(), nullptr);

  NetProfile lossy;
  lossy.drop = 0.25;
  auto faulty = MakeChannel(lossy, 2, /*salt=*/0);
  ASSERT_NE(faulty->AsFaulty(), nullptr);
  // The salt is mixed into the fault seed, not visible in the profile
  // knobs the caller set.
  EXPECT_NEAR(faulty->AsFaulty()->profile().drop, 0.25, 0.0);

  // Sub-protocol salts decorrelate the fault RNGs: the channel's seed is
  // the profile seed mixed with its salt, and distinct salts differ.
  lossy.seed = 9;
  auto salted = MakeChannel(lossy, 2, /*salt=*/7);
  ASSERT_NE(salted->AsFaulty(), nullptr);
  EXPECT_EQ(salted->AsFaulty()->profile().seed, MixChannelSeed(lossy.seed, 7));
  EXPECT_NE(MixChannelSeed(lossy.seed, 0), MixChannelSeed(lossy.seed, 7));
}

TEST(NetChannel, LoopbackDeliversSynchronouslyInOrder) {
  LoopbackChannel channel(3);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(10);

  channel.Send(Direction::kUp, 1, WireMessage(SumDeltaMsg{2.5}));
  ASSERT_EQ(sink.received.size(), 1u);  // delivered inside Send
  channel.Send(Direction::kDown, 2, WireMessage(RetrieveRequestMsg{0.5}));
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{-1.0}));
  ASSERT_EQ(sink.received.size(), 3u);

  EXPECT_EQ(sink.received[0].dir, Direction::kUp);
  EXPECT_EQ(sink.received[0].site, 1);
  EXPECT_EQ(sink.received[0].sent_at, 10);
  EXPECT_NEAR(std::get<SumDeltaMsg>(sink.received[0].msg).delta, 2.5, 0.0);
  EXPECT_EQ(sink.received[1].dir, Direction::kDown);
  EXPECT_EQ(sink.received[1].site, 2);
  EXPECT_NEAR(std::get<SumDeltaMsg>(sink.received[2].msg).delta, -1.0, 0.0);

  const auto& entries = channel.ledger().entries();
  ASSERT_EQ(entries.size(), 3u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].sequence, i);
    EXPECT_EQ(entries[i].copies, 1);
    EXPECT_FALSE(entries[i].dropped);
    EXPECT_FALSE(entries[i].retransmit);
    EXPECT_FALSE(entries[i].duplicate);
  }
  EXPECT_EQ(channel.comm().words_up, 2);
  EXPECT_EQ(channel.comm().words_down, 1);
  EXPECT_EQ(channel.comm().messages, 3);
  EXPECT_EQ(channel.ledger().TotalPayloadBytes(),
            8 * channel.comm().TotalWords());
}

TEST(NetChannel, BroadcastChargesOneCopyPerSite) {
  LoopbackChannel channel(4);
  Sink sink;
  sink.Attach(&channel);
  channel.Send(Direction::kBroadcast, -1,
               WireMessage(ThresholdBroadcastMsg{0.75}));

  ASSERT_EQ(sink.received.size(), 1u);  // one logical delivery
  EXPECT_EQ(sink.received[0].site, -1);
  const auto& entry = channel.ledger().entries().at(0);
  EXPECT_EQ(entry.copies, 4);
  EXPECT_EQ(entry.payload_words, 1u);
  EXPECT_EQ(channel.comm().words_down, 4);  // m words, the paper's cost
  EXPECT_EQ(channel.comm().broadcasts, 1);
  EXPECT_EQ(channel.ledger().TotalPayloadBytes(), 32);
  EXPECT_EQ(channel.ledger().ByKind(MessageKind::kThresholdBroadcast).words,
            4);
}

TEST(NetChannel, CertainDropLosesDataButStillChargesWords) {
  NetProfile p;
  p.drop = 1.0;  // FaultyChannel applies the knob as-is (tests only;
                 // TrackerConfig::Validate forbids it for real runs)
  FaultyChannel channel(2, p);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(0);

  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_TRUE(sink.received.empty());
  ASSERT_EQ(channel.ledger().entries().size(), 1u);
  EXPECT_TRUE(channel.ledger().entries()[0].dropped);
  // The bytes crossed the wire before the loss: still one word up.
  EXPECT_EQ(channel.comm().words_up, 1);
  EXPECT_EQ(channel.in_flight(), 0);  // unreliable: nobody resends
  channel.AdvanceTime(100);
  EXPECT_TRUE(sink.received.empty());
}

TEST(NetChannel, ControlPlaneIsImmuneToFaults) {
  NetProfile p;
  p.drop = 1.0;
  p.delay_min = 5;
  p.delay_max = 5;
  FaultyChannel channel(2, p);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(0);

  channel.Send(Direction::kBroadcast, -1,
               WireMessage(ThresholdBroadcastMsg{1.0}));
  channel.Send(Direction::kDown, 0, WireMessage(RetrieveRequestMsg{1.0}));
  channel.Send(Direction::kUp, 0, WireMessage(RetrieveResponseMsg{2.0}));
  // All three are control plane: delivered instantly despite drop=1.
  EXPECT_EQ(sink.received.size(), 3u);
  for (const LedgerEntry& e : channel.ledger().entries()) {
    EXPECT_FALSE(e.dropped);
  }
  // A data-plane frame under the same profile is lost.
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(sink.received.size(), 3u);
}

TEST(NetChannel, ReliableShimRetransmitsUntilDelivered) {
  NetProfile p;
  p.drop = 1.0;
  p.reliable = true;
  p.retry = 2;
  FaultyChannel channel(2, p);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(0);

  channel.Send(Direction::kUp, 1, WireMessage(SumDeltaMsg{3.0}));
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(channel.in_flight(), 1);  // queued for resend at t=2

  channel.AdvanceTime(1);
  EXPECT_TRUE(sink.received.empty());  // not due yet

  // Network heals; the pending retransmission succeeds at its due time.
  channel.profile().drop = 0.0;
  channel.AdvanceTime(2);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_NEAR(std::get<SumDeltaMsg>(sink.received[0].msg).delta, 3.0, 0.0);
  EXPECT_EQ(channel.in_flight(), 0);

  // Ledger: original dropped attempt, successful retransmit, and its ack.
  const auto& entries = channel.ledger().entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_TRUE(entries[0].dropped);
  EXPECT_FALSE(entries[0].retransmit);
  EXPECT_FALSE(entries[1].dropped);
  EXPECT_TRUE(entries[1].retransmit);
  EXPECT_EQ(entries[2].kind, MessageKind::kAck);
  EXPECT_EQ(entries[2].dir, Direction::kDown);  // ack opposes the send
  // Both transmission attempts and the ack are charged.
  EXPECT_EQ(channel.comm().words_up, 2);
  EXPECT_EQ(channel.comm().words_down, 1);
}

TEST(NetChannel, AcksOnlyExistInReliableMode) {
  NetProfile p;
  p.duplicate = 0.0;
  p.delay_max = 0;
  p.drop = 0.0;
  p.reliable = true;
  // reliable + all-zero faults is not "faulty()", so build directly.
  FaultyChannel reliable(2, p);
  Sink sink;
  sink.Attach(&reliable);
  reliable.AdvanceTime(0);
  reliable.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(reliable.ledger().ByKind(MessageKind::kAck).count, 1);
  EXPECT_EQ(reliable.comm().words_down, 1);  // the ack word

  p.reliable = false;
  FaultyChannel unreliable(2, p);
  sink.Attach(&unreliable);
  unreliable.AdvanceTime(0);
  unreliable.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(unreliable.ledger().ByKind(MessageKind::kAck).count, 0);
  EXPECT_EQ(unreliable.comm().words_down, 0);
}

TEST(NetChannel, DuplicateDeliversAndChargesTwice) {
  NetProfile p;
  p.duplicate = 1.0;
  FaultyChannel channel(2, p);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(0);

  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{4.0}));
  ASSERT_EQ(sink.received.size(), 2u);
  const auto& entries = channel.ledger().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].duplicate);
  EXPECT_TRUE(entries[1].duplicate);
  EXPECT_EQ(channel.comm().words_up, 2);
}

TEST(NetChannel, DelayedFramesFlushAtTheirDueTick) {
  NetProfile p;
  p.delay_min = 3;
  p.delay_max = 3;
  FaultyChannel channel(2, p);
  Sink sink;
  sink.Attach(&channel);
  channel.AdvanceTime(10);

  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{5.0}));
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(channel.in_flight(), 1);
  channel.AdvanceTime(12);
  EXPECT_TRUE(sink.received.empty());
  channel.AdvanceTime(13);
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].sent_at, 10);  // send-time stamp preserved
  EXPECT_EQ(channel.in_flight(), 0);
}

TEST(NetChannel, SameSeedSameFaultsSameLedger) {
  const auto run = [](uint64_t seed) {
    NetProfile p;
    p.drop = 0.4;
    p.duplicate = 0.3;
    p.delay_min = 1;
    p.delay_max = 3;
    p.seed = seed;
    p.reliable = true;
    FaultyChannel channel(3, p);
    Sink sink;
    sink.Attach(&channel);
    for (int t = 0; t < 60; ++t) {
      channel.AdvanceTime(t);
      channel.Send(Direction::kUp, t % 3,
                   WireMessage(SumDeltaMsg{static_cast<double>(t)}));
    }
    // Drain: a retransmit can be re-dropped and re-queued at now+retry,
    // so keep ticking until the queue is empty.
    for (Timestamp t = 60; channel.in_flight() > 0 && t < 5000; ++t) {
      channel.AdvanceTime(t);
    }
    EXPECT_EQ(channel.in_flight(), 0);
    return std::make_pair(channel.ledger().entries(), sink.received.size());
  };

  const auto [entries_a, delivered_a] = run(99);
  const auto [entries_b, delivered_b] = run(99);
  ASSERT_EQ(entries_a.size(), entries_b.size());
  EXPECT_EQ(delivered_a, delivered_b);
  for (size_t i = 0; i < entries_a.size(); ++i) {
    EXPECT_EQ(entries_a[i].sequence, entries_b[i].sequence);
    EXPECT_EQ(entries_a[i].kind, entries_b[i].kind);
    EXPECT_EQ(entries_a[i].time, entries_b[i].time);
    EXPECT_EQ(entries_a[i].dropped, entries_b[i].dropped);
    EXPECT_EQ(entries_a[i].retransmit, entries_b[i].retransmit);
    EXPECT_EQ(entries_a[i].duplicate, entries_b[i].duplicate);
  }

  // A different seed produces a different fault pattern (overwhelmingly
  // likely over 60 sends at these rates).
  const auto [entries_c, delivered_c] = run(100);
  bool any_difference = entries_c.size() != entries_a.size();
  for (size_t i = 0; !any_difference && i < entries_a.size(); ++i) {
    any_difference = entries_a[i].dropped != entries_c[i].dropped ||
                     entries_a[i].duplicate != entries_c[i].duplicate ||
                     entries_a[i].kind != entries_c[i].kind;
  }
  EXPECT_TRUE(any_difference);
}

TEST(NetChannel, CommCountersAreExactlyTheLedgerDerivation) {
  NetProfile p;
  p.drop = 0.3;
  p.duplicate = 0.2;
  p.seed = 7;
  p.reliable = true;
  FaultyChannel channel(2, p);
  channel.AdvanceTime(0);
  for (int t = 0; t < 40; ++t) {
    channel.AdvanceTime(t);
    channel.Send(Direction::kUp, t % 2, WireMessage(SumDeltaMsg{1.0}));
    if (t % 10 == 0) {
      channel.Send(Direction::kBroadcast, -1,
                   WireMessage(ThresholdBroadcastMsg{0.5}));
    }
  }
  channel.AdvanceTime(1000);

  long up = 0;
  long down = 0;
  long messages = 0;
  long broadcasts = 0;
  for (const LedgerEntry& e : channel.ledger().entries()) {
    const long words = static_cast<long>(e.payload_words) * e.copies;
    switch (e.dir) {
      case Direction::kUp: up += words; break;
      case Direction::kDown: down += words; break;
      case Direction::kBroadcast:
        down += words;
        ++broadcasts;
        break;
    }
    ++messages;
  }
  EXPECT_EQ(channel.comm().words_up, up);
  EXPECT_EQ(channel.comm().words_down, down);
  EXPECT_EQ(channel.comm().messages, messages);
  EXPECT_EQ(channel.comm().broadcasts, broadcasts);
  EXPECT_EQ(channel.ledger().TotalPayloadBytes(), 8 * (up + down));
}

// Delayed FaultyChannel delivery order is identical whether the clock is
// polled tick by tick or jumped straight to NextDueTime, for both plain
// delay and reliable drop/retry traffic.
TEST(FaultyChannel, PolledAndEventDrivenDrainsAgree) {
  net::NetProfile profile;
  profile.drop = 0.3;
  profile.delay_min = 1;
  profile.delay_max = 4;
  profile.seed = 99;
  profile.reliable = true;
  profile.retry = 2;

  const auto drive = [&](bool event_driven) {
    net::FaultyChannel channel(2, profile);
    std::vector<std::pair<Timestamp, double>> delivered;
    channel.SetHandler([&](net::Delivery d) {
      if (const auto* sum = std::get_if<net::SumDeltaMsg>(&d.msg)) {
        delivered.emplace_back(channel.now(), sum->delta);
      }
    });
    channel.AdvanceTime(0);
    for (int i = 0; i < 40; ++i) {
      channel.Send(net::Direction::kUp, i % 2,
                   net::WireMessage(net::SumDeltaMsg{static_cast<double>(i)}));
      const Timestamp next = channel.now() + 1;
      if (event_driven) {
        // Jump only when something is due by `next`; otherwise advance
        // straight to the row's own tick.
        const auto due = channel.NextDueTime();
        if (due && *due < next) channel.AdvanceTime(*due);
        channel.AdvanceTime(next);
      } else {
        channel.AdvanceTime(next);
      }
    }
    // Flush the tail either way.
    while (channel.in_flight() > 0) {
      const auto due = channel.NextDueTime();
      EXPECT_TRUE(due.has_value());
      if (!due) break;
      channel.AdvanceTime(*due);
    }
    return delivered;
  };

  const auto polled = drive(false);
  const auto evented = drive(true);
  EXPECT_FALSE(polled.empty());
  EXPECT_EQ(polled, evented);
}

TEST(FaultyChannel, NextDueTimeTracksTheQueueHead) {
  net::NetProfile profile;
  profile.delay_min = 3;
  profile.delay_max = 3;
  profile.seed = 1;
  net::FaultyChannel channel(1, profile);
  int delivered = 0;
  channel.SetHandler([&](net::Delivery) { ++delivered; });
  channel.AdvanceTime(10);
  EXPECT_FALSE(channel.NextDueTime().has_value());
  channel.Send(net::Direction::kUp, 0,
               net::WireMessage(net::SumDeltaMsg{1.0}));
  ASSERT_TRUE(channel.NextDueTime().has_value());
  EXPECT_EQ(*channel.NextDueTime(), 13);
  EXPECT_EQ(delivered, 0);
  channel.AdvanceTime(13);
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(channel.NextDueTime().has_value());
}

}  // namespace
}  // namespace dswm::net
