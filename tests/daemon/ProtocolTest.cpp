//===- tests/daemon/ProtocolTest.cpp -----------------------------------------=//
//
// The pbt-serve wire protocol in isolation: encode/decode round-trips
// for every message type, strict rejection of malformed payloads
// (truncation at every byte boundary, trailing garbage, lying counts,
// unknown tags), and a deterministic random-bytes fuzz sweep -- the
// in-process half of the daemon fuzz wall (DaemonServerTest drives the
// same hostility through a live socket).
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace pbt::daemon;

namespace {

/// Deterministic xorshift so the fuzz sweep replays bit-identically.
struct Rng {
  uint64_t S = 0x9E3779B97F4A7C15ull;
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
};

} // namespace

TEST(ProtocolTest, HelloRoundTrip) {
  std::string P = makeHello("sort1");
  Message M;
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Type, MsgType::Hello);
  EXPECT_EQ(M.Text, "sort1");
}

TEST(ProtocolTest, PredictRoundTrip) {
  std::vector<uint64_t> Inputs = {0, 7, 42, 1ull << 40};
  std::string P = makePredict(Inputs);
  Message M;
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Type, MsgType::Predict);
  EXPECT_EQ(M.Inputs, Inputs);
}

TEST(ProtocolTest, BodylessRoundTrips) {
  for (auto [Payload, Type] :
       {std::pair{makeStats(), MsgType::Stats},
        std::pair{makeListTenants(), MsgType::ListTenants},
        std::pair{makeShutdown(), MsgType::Shutdown},
        std::pair{makeBye(), MsgType::Bye}}) {
    Message M;
    ASSERT_TRUE(decodeMessage(Payload, M));
    EXPECT_EQ(M.Type, Type);
  }
}

TEST(ProtocolTest, TenantOkRoundTrip) {
  std::string P = makeTenantOk(3, 12, 480);
  Message M;
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Type, MsgType::TenantOk);
  EXPECT_EQ(M.Epoch, 3u);
  EXPECT_EQ(M.Landmarks, 12u);
  EXPECT_EQ(M.NumInputs, 480u);
}

TEST(ProtocolTest, PredictionsRoundTrip) {
  std::vector<PredictedChoice> C = {{0, 1}, {5, 1}, {11, 2}};
  std::string P = makePredictions(C);
  Message M;
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Type, MsgType::Predictions);
  ASSERT_EQ(M.Choices.size(), C.size());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(M.Choices[I].Landmark, C[I].Landmark);
    EXPECT_EQ(M.Choices[I].Epoch, C[I].Epoch);
  }
}

TEST(ProtocolTest, ShedErrorStatsListRoundTrips) {
  Message M;
  ASSERT_TRUE(decodeMessage(makeShed(17, "queue full"), M));
  EXPECT_EQ(M.Type, MsgType::Shed);
  EXPECT_EQ(M.QueueDepth, 17u);
  EXPECT_EQ(M.Text, "queue full");

  ASSERT_TRUE(decodeMessage(makeError("boom"), M));
  EXPECT_EQ(M.Type, MsgType::Error);
  EXPECT_EQ(M.Text, "boom");

  ASSERT_TRUE(decodeMessage(makeStatsReply("{\"x\": 1}"), M));
  EXPECT_EQ(M.Type, MsgType::StatsReply);
  EXPECT_EQ(M.Text, "{\"x\": 1}");

  ASSERT_TRUE(decodeMessage(makeTenantList({"a", "b", "c"}), M));
  EXPECT_EQ(M.Type, MsgType::TenantList);
  EXPECT_EQ(M.Names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ProtocolTest, EmptyAndUnknownTagRejected) {
  Message M;
  EXPECT_FALSE(decodeMessage(std::string(), M));
  // 0x88 is Health's tag, but a bare Health without its body is still
  // malformed (0x06 left this list when it became Ping).
  for (uint8_t Tag : {0x00, 0x07, 0x42, 0x80, 0x88, 0xFF}) {
    std::string P(1, static_cast<char>(Tag));
    EXPECT_FALSE(decodeMessage(P, M)) << "tag " << int(Tag);
  }
}

TEST(ProtocolTest, PingRoundTrip) {
  Message M;
  ASSERT_TRUE(decodeMessage(makePing(), M));
  EXPECT_EQ(M.Type, MsgType::Ping);
}

TEST(ProtocolTest, HealthRoundTrip) {
  std::vector<TenantHealth> T = {{"sort1", 3, 5}, {"helmholtz3d", 1, 1}};
  std::string P = makeHealth(4242, 7, T);
  Message M;
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Type, MsgType::Health);
  EXPECT_EQ(M.Pid, 4242u);
  EXPECT_EQ(M.Sessions, 7u);
  ASSERT_EQ(M.Tenants.size(), T.size());
  for (size_t I = 0; I < T.size(); ++I) {
    EXPECT_EQ(M.Tenants[I].Name, T[I].Name);
    EXPECT_EQ(M.Tenants[I].ServiceEpoch, T[I].ServiceEpoch);
    EXPECT_EQ(M.Tenants[I].StoreEpoch, T[I].StoreEpoch);
  }
}

TEST(ProtocolTest, HealthWithNoTenantsRoundTrips) {
  Message M;
  ASSERT_TRUE(decodeMessage(makeHealth(1, 0, {}), M));
  EXPECT_EQ(M.Type, MsgType::Health);
  EXPECT_TRUE(M.Tenants.empty());
}

TEST(ProtocolTest, TruncationAtEveryBoundaryRejected) {
  // Every strict prefix of a valid payload must fail to decode, for
  // every message type with a body.
  for (const std::string &P :
       {makeHello("tenant"), makePredict({1, 2, 3}), makeTenantOk(1, 2, 3),
        makePredictions({{1, 1}, {2, 1}}), makeShed(4, "full"),
        makeError("message"), makeStatsReply("{}"),
        makeTenantList({"x", "yz"}),
        makeHealth(99, 2, {{"t", 1, 2}, {"u", 3, 4}})}) {
    for (size_t Cut = 1; Cut < P.size(); ++Cut) {
      Message M;
      EXPECT_FALSE(decodeMessage(P.substr(0, Cut), M))
          << "prefix " << Cut << "/" << P.size();
    }
  }
}

TEST(ProtocolTest, TrailingGarbageRejected) {
  for (std::string P : {makeHello("tenant"), makePredict({1}), makeStats(),
                        makeBye(), makePing(), makeHealth(1, 0, {})}) {
    P.push_back('\0');
    Message M;
    EXPECT_FALSE(decodeMessage(P, M));
  }
}

TEST(ProtocolTest, LyingCountsRejected) {
  // Predict claiming 5 inputs but carrying 2.
  std::string P = makePredict({1, 2, 3, 4, 5});
  P.resize(1 + 4 + 2 * 8);
  Message M;
  EXPECT_FALSE(decodeMessage(P, M));

  // Zero-input predict is meaningless on the wire.
  std::string Z;
  Z.push_back(static_cast<char>(MsgType::Predict));
  Z.append(4, '\0');
  EXPECT_FALSE(decodeMessage(Z, M));

  // A count far past the cap must be rejected before any allocation
  // sized off it.
  std::string Huge;
  Huge.push_back(static_cast<char>(MsgType::Predict));
  for (int I = 0; I < 4; ++I)
    Huge.push_back(static_cast<char>(0xFF));
  EXPECT_FALSE(decodeMessage(Huge, M));

  // String length past the remaining payload.
  std::string S;
  S.push_back(static_cast<char>(MsgType::Hello));
  S.push_back(static_cast<char>(0xFF));
  S.push_back(static_cast<char>(0x0F));
  S.append(3, 'a');
  EXPECT_FALSE(decodeMessage(S, M));
}

TEST(ProtocolTest, LyingCountsAreRejectedBeforeReserving) {
  // 9 bytes claiming the 65,536-input cap: the count passes the cap
  // check but not the bytes present, and nothing may be sized off it.
  std::string P;
  P.push_back(static_cast<char>(MsgType::Predict));
  P.append("\x00\x00\x01\x00", 4); // 65536, little-endian
  P.append(4, '\x07');
  ASSERT_EQ(P.size(), 9u);
  Message M;
  EXPECT_FALSE(decodeMessage(P, M));
  EXPECT_EQ(M.Inputs.capacity(), 0u);

  std::string C;
  C.push_back(static_cast<char>(MsgType::Predictions));
  C.append("\x00\x00\x01\x00", 4);
  C.append(12, '\x07'); // one entry of the 65,536 claimed
  Message N;
  EXPECT_FALSE(decodeMessage(C, N));
  EXPECT_EQ(N.Choices.capacity(), 0u);
}

TEST(ProtocolTest, BuildersSizeSixtyFourInputFramesExactly) {
  std::vector<uint64_t> Inputs(64, 3);
  std::vector<PredictedChoice> Choices(64, {2, 9});
  // 1 tag + 4 count + 64 x 8, and 1 tag + 4 count + 64 x (4 + 8).
  EXPECT_EQ(makePredict(Inputs).size(), 517u);
  EXPECT_EQ(makePredictions(Choices).size(), 773u);
}

TEST(ProtocolTest, BuilderTruncatesOversizedStrings) {
  // Builders clamp at the wire cap instead of emitting an invalid frame.
  std::string Long(2 * kMaxStringBytes, 'x');
  Message M;
  ASSERT_TRUE(decodeMessage(makeError(Long), M));
  EXPECT_EQ(M.Text.size(), kMaxStringBytes - 1);
}

TEST(ProtocolTest, RandomBytesNeverCrash) {
  Rng R;
  Message M;
  for (int Round = 0; Round < 2000; ++Round) {
    size_t Len = R.next() % 64;
    std::string P;
    P.reserve(Len);
    for (size_t I = 0; I < Len; ++I)
      P.push_back(static_cast<char>(R.next()));
    // Must never crash, over-read, or throw; the return value is free
    // to be either (a random payload can be a valid tiny message).
    (void)decodeMessage(P, M);
  }
}

TEST(ProtocolTest, MutatedValidPayloadsNeverCrash) {
  Rng R;
  Message M;
  const std::string Seeds[] = {makeHello("sort1"), makePredict({1, 2, 3}),
                               makePredictions({{1, 1}}),
                               makeTenantList({"a", "b"})};
  for (int Round = 0; Round < 2000; ++Round) {
    std::string P = Seeds[R.next() % 4];
    size_t Flips = 1 + R.next() % 4;
    for (size_t F = 0; F < Flips; ++F)
      P[R.next() % P.size()] ^= static_cast<char>(1u << (R.next() % 8));
    (void)decodeMessage(P, M);
  }
}
