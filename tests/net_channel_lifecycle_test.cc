// Channel lifecycle edges: send-after-close, a handler that closes its
// own channel mid-delivery, late delayed frames after close, null
// handlers, and zero-length-payload frames. These are the teardown and
// boundary paths of the transport; none may crash or corrupt accounting.

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.h"
#include "net/wire.h"

namespace dswm::net {
namespace {

TEST(ChannelLifecycle, SendAfterCloseIsDiscarded) {
  LoopbackChannel channel(2);
  int delivered = 0;
  channel.SetHandler([&](Delivery) { ++delivered; });
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.comm().messages, 1);

  channel.Close();
  EXPECT_TRUE(channel.closed());
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{2.0}));
  EXPECT_EQ(delivered, 1);
  // Nothing was serialized or ledgered: the frame never existed.
  EXPECT_EQ(channel.comm().messages, 1);

  // Close is idempotent.
  channel.Close();
  EXPECT_TRUE(channel.closed());
}

TEST(ChannelLifecycle, HandlerClosingItsOwnChannelIsSafe) {
  // A delivery handler that closes the channel it is being called from:
  // the in-flight delivery completes, later sends are discarded.
  LoopbackChannel channel(1);
  int delivered = 0;
  channel.SetHandler([&](Delivery) {
    ++delivered;
    channel.Close();
  });
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(delivered, 1);
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{2.0}));
  EXPECT_EQ(delivered, 1);
}

TEST(ChannelLifecycle, LateFaultyDeliveriesAfterCloseAreDropped) {
  NetProfile profile;
  profile.delay_min = 5;
  profile.delay_max = 5;
  profile.seed = 3;
  FaultyChannel channel(1, profile);
  int delivered = 0;
  channel.SetHandler([&](Delivery) { ++delivered; });
  channel.AdvanceTime(0);
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  EXPECT_EQ(delivered, 0);
  ASSERT_TRUE(channel.NextDueTime().has_value());

  // Teardown before the delayed frame lands: the flush discards it.
  channel.Close();
  channel.AdvanceTime(10);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(channel.in_flight(), 0);
  // The transmission was still ledgered when it was sent.
  EXPECT_EQ(channel.comm().messages, 1);
}

TEST(ChannelLifecycle, NullHandlerDropsDeliveriesWithoutCrashing) {
  LoopbackChannel channel(1);
  channel.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  channel.Send(Direction::kBroadcast, -1,
               WireMessage(ThresholdBroadcastMsg{0.5}));
  EXPECT_EQ(channel.comm().messages, 2);
  EXPECT_EQ(channel.comm().broadcasts, 1);
}

TEST(ChannelLifecycle, ZeroLengthPayloadFramesAreHandledCleanly) {
  // An eigenpair with an empty vector is the smallest real message: one
  // payload word (lambda). It must survive the full serialize ->
  // parse -> deliver path.
  LoopbackChannel channel(1);
  int delivered = 0;
  channel.SetHandler([&](Delivery d) {
    const auto& eig = std::get<EigenpairMsg>(d.msg);
    EXPECT_TRUE(eig.vector.empty());
    ++delivered;
  });
  channel.Send(Direction::kUp, 0, WireMessage(EigenpairMsg{1.5, {}}));
  EXPECT_EQ(delivered, 1);

  // A frame with *zero* payload words is structurally expressible (the
  // header admits words=0) but semantically invalid for every kind; the
  // parser must reject it as a Status, never deliver garbage.
  std::vector<uint8_t> header_only(kFrameHeaderBytes, 0);
  header_only[0] = kMinMessageKind;
  header_only[2] = static_cast<uint8_t>(kWireFormatVersion);
  for (uint8_t kind = kMinMessageKind; kind <= kMaxMessageKind; ++kind) {
    header_only[0] = kind;
    EXPECT_FALSE(ParseFrame(header_only.data(), header_only.size()).ok())
        << "kind " << static_cast<int>(kind);
  }
}

TEST(ChannelLifecycle, WireSequencesAreGaplessPerChannelAndIndependent) {
  LoopbackChannel a(1);
  LoopbackChannel b(1);
  std::vector<uint64_t> a_seqs;
  std::vector<uint64_t> b_seqs;
  a.SetHandler([&](Delivery d) { a_seqs.push_back(d.sequence); });
  b.SetHandler([&](Delivery d) { b_seqs.push_back(d.sequence); });
  for (int i = 0; i < 3; ++i) {
    a.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{1.0}));
  }
  b.Send(Direction::kUp, 0, WireMessage(SumDeltaMsg{2.0}));
  EXPECT_EQ(a_seqs, (std::vector<uint64_t>{1, 2, 3}));
  // Per-channel numbering: b starts at 1 regardless of a's traffic.
  EXPECT_EQ(b_seqs, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace dswm::net
