// Channel lifecycle edges: null handlers, zero-length-payload frames and
// per-channel wire sequences. These are the boundary paths of the
// transport; none may crash or corrupt accounting.

#include <gtest/gtest.h>

#include <vector>

#include "net/channel.h"
#include "net/wire.h"

namespace dswm::net {
namespace {

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
