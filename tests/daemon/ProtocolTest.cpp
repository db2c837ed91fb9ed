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
#include <iterator>
#include <string>
#include <utility>
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
  // HelloRing is the same body under its own tag.
  std::string R = makeHelloRing("sort1");
  EXPECT_EQ(R.substr(1), P.substr(1));
  ASSERT_TRUE(decodeMessage(R, M));
  EXPECT_EQ(M.Type, MsgType::HelloRing);
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

namespace {

/// Appends \p V as a \p Bytes-byte little-endian integer (zero bytes
/// past the eighth).
void appendLE(std::string &Out, uint64_t V, unsigned Bytes) {
  for (unsigned I = 0; I < Bytes; ++I)
    Out.push_back(static_cast<char>(I < 8 ? V >> (8 * I) : 0));
}

using RunList = std::vector<std::pair<uint64_t, uint32_t>>;

/// A Predictions payload put together field by field, from (epoch,
/// length) runs, so a test can write what no encoder would.
std::string rawPredictions(uint32_t Count, const RunList &Runs,
                           unsigned Width,
                           const std::vector<uint32_t> &Landmarks) {
  std::string P(1, static_cast<char>(MsgType::Predictions));
  appendLE(P, Count, 4);
  appendLE(P, Runs.size(), 4);
  for (const auto &[Epoch, Length] : Runs) {
    appendLE(P, Epoch, 8);
    appendLE(P, Length, 4);
  }
  appendLE(P, Width, 1);
  for (uint32_t L : Landmarks)
    appendLE(P, L, Width);
  return P;
}

/// Expects \p Choices to survive a Predictions round trip unchanged.
void expectPredictionsRoundTrip(const std::vector<PredictedChoice> &Choices) {
  Message M;
  ASSERT_TRUE(decodeMessage(makePredictions(Choices), M));
  EXPECT_EQ(M.Type, MsgType::Predictions);
  ASSERT_EQ(M.Choices.size(), Choices.size());
  for (size_t I = 0; I < Choices.size(); ++I) {
    EXPECT_EQ(M.Choices[I].Landmark, Choices[I].Landmark) << "answer " << I;
    EXPECT_EQ(M.Choices[I].Epoch, Choices[I].Epoch) << "answer " << I;
  }
}

} // namespace

TEST(ProtocolTest, PredictionsRoundTrip) {
  expectPredictionsRoundTrip({{0, 1}, {5, 1}, {11, 2}});
}

TEST(ProtocolTest, PredictIdsRoundTripAtEveryWidthBoundary) {
  // The width is the narrowest of 2, 4 or 8 bytes that holds the
  // largest id, so each boundary's two sides take different widths.
  const std::pair<uint64_t, unsigned> Cases[] = {
      {0, 2},
      {65535, 2},
      {65536, 4},
      {(1ull << 32) - 1, 4},
      {1ull << 32, 8},
      {~0ull, 8}};
  for (const auto &[Largest, Width] : Cases) {
    SCOPED_TRACE(Largest);
    std::vector<uint64_t> Inputs = {3, Largest, 1};
    std::string P = makePredict(Inputs);
    ASSERT_EQ(P.size(), 1 + 4 + 1 + 3 * Width);
    EXPECT_EQ(static_cast<uint8_t>(P[5]), Width);
    Message M;
    ASSERT_TRUE(decodeMessage(P, M));
    EXPECT_EQ(M.Inputs, Inputs);
  }
}

TEST(ProtocolTest, LandmarksRoundTripAtTheirWidthBoundary) {
  for (const auto &[Largest, Width] :
       {std::pair<uint32_t, unsigned>{65535, 2}, {65536, 4}, {~0u, 4}}) {
    SCOPED_TRACE(Largest);
    std::vector<PredictedChoice> C = {{1, 5}, {Largest, 5}, {0, 5}};
    std::string P = makePredictions(C);
    // tag, count, runs, one run, then the width byte.
    ASSERT_EQ(P.size(), 1 + 4 + 4 + 12 + 1 + 3 * Width);
    EXPECT_EQ(static_cast<uint8_t>(P[21]), Width);
    expectPredictionsRoundTrip(C);
  }
}

TEST(ProtocolTest, MultiRunRepliesRoundTrip) {
  // Each maximal span of equal epochs is one run on the wire; an epoch
  // that comes back after another is a new run.
  const std::vector<std::vector<PredictedChoice>> Replies = {
      {},
      {{4, 7}},
      {{0, 1}, {5, 1}, {11, 2}, {11, 2}},
      {{1, 3}, {2, 4}, {3, 3}, {4, 4}, {5, 3}},
      {{9, 1}, {9, 1}, {8, 2}, {7, 2}, {6, 2}, {5, 1ull << 40}, {4, 0}},
  };
  const uint32_t Runs[] = {0, 1, 2, 5, 4};
  for (size_t K = 0; K < Replies.size(); ++K) {
    SCOPED_TRACE("reply " + std::to_string(K));
    std::string P = makePredictions(Replies[K]);
    EXPECT_EQ(static_cast<uint8_t>(P[5]), Runs[K]);
    EXPECT_EQ(P.size(), 1 + 4 + 4 + 12 * Runs[K] + 1 + 2 * Replies[K].size());
    expectPredictionsRoundTrip(Replies[K]);
  }
  // Many runs past the first byte of the run count, landmarks at 4 bytes.
  std::vector<PredictedChoice> Long;
  for (uint32_t I = 0; I < 700; ++I)
    Long.push_back({I * 1000, I / 2});
  EXPECT_EQ(makePredictions(Long).size(), 1 + 4 + 4 + 12 * 350 + 1 + 4 * 700);
  expectPredictionsRoundTrip(Long);
}

TEST(ProtocolTest, NarrowBodiesRejectWhatNoEncoderWrites) {
  Message M;
  // The raw builder reproduces the encoder, so each case below differs
  // from a valid payload only where it says.
  ASSERT_EQ(rawPredictions(3, {{1, 2}, {2, 1}}, 2, {7, 8, 9}),
            makePredictions({{7, 1}, {8, 1}, {9, 2}}));
  ASSERT_TRUE(decodeMessage(rawPredictions(3, {{1, 2}, {2, 1}}, 2, {7, 8, 9}),
                            M));
  // A width this decoder also accepts, though no encoder picks it here.
  ASSERT_TRUE(decodeMessage(rawPredictions(3, {{1, 3}}, 4, {7, 8, 9}), M));

  // Widths outside their sets, each with exactly the bytes two values
  // of that width take: a Predict's id is 2, 4 or 8 bytes...
  for (unsigned Width : {0u, 1u, 3u, 5u, 7u, 9u, 16u, 255u}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    std::string P(1, static_cast<char>(MsgType::Predict));
    appendLE(P, 2, 4);
    appendLE(P, Width, 1);
    P.append(2 * Width, '\x01');
    EXPECT_FALSE(decodeMessage(P, M));
  }
  // ...and a landmark 2 or 4.
  for (unsigned Width : {0u, 1u, 3u, 8u, 255u})
    EXPECT_FALSE(decodeMessage(rawPredictions(2, {{1, 2}}, Width, {0, 0}), M))
        << "width " << Width;

  // More runs than answers (the run table is all there).
  EXPECT_FALSE(decodeMessage(
      rawPredictions(2, {{1, 1}, {2, 1}, {3, 0}}, 2, {0, 0}), M));
  EXPECT_FALSE(decodeMessage(rawPredictions(0, {{1, 0}}, 2, {}), M));
  // A zero-length run, first, between two others, and last.
  EXPECT_FALSE(
      decodeMessage(rawPredictions(2, {{1, 0}, {2, 2}}, 2, {0, 0}), M));
  EXPECT_FALSE(decodeMessage(
      rawPredictions(2, {{1, 1}, {2, 0}, {3, 1}}, 2, {0, 0}), M));
  EXPECT_FALSE(
      decodeMessage(rawPredictions(2, {{1, 2}, {2, 0}}, 2, {0, 0}), M));
  // Adjacent runs with one epoch: one run written as two.
  EXPECT_FALSE(
      decodeMessage(rawPredictions(3, {{4, 1}, {4, 2}}, 2, {0, 0, 0}), M));
  EXPECT_FALSE(decodeMessage(
      rawPredictions(3, {{4, 1}, {5, 1}, {5, 1}}, 2, {0, 0, 0}), M));
  // Run lengths short of the count, past it, and past it only once
  // summed in 32 bits wraps round to it.
  EXPECT_FALSE(
      decodeMessage(rawPredictions(3, {{1, 1}, {2, 1}}, 2, {0, 0, 0}), M));
  EXPECT_FALSE(
      decodeMessage(rawPredictions(3, {{1, 2}, {2, 2}}, 2, {0, 0, 0}), M));
  EXPECT_FALSE(decodeMessage(
      rawPredictions(3, {{1, 0xFFFFFFFFu}, {2, 4}}, 2, {0, 0, 0}), M));
  EXPECT_FALSE(decodeMessage(
      rawPredictions(3, {{1, 2}, {2, 0xFFFFFFFFu}, {3, 2}}, 2, {0, 0, 0}), M));

  // Trailing bytes after either narrow array.
  for (std::string P :
       {makePredict({1, 2}), makePredict({1ull << 40}),
        makePredictions({{1, 1}, {2, 2}}), makePredictions({})}) {
    P.push_back('\0');
    EXPECT_FALSE(decodeMessage(P, M));
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
  // Stats over many tenants outgrows a string field's cap.
  std::string Json =
      "{\"tenants\": [" + std::string(3 * kMaxStringBytes, ' ') + "]}";
  ASSERT_TRUE(decodeMessage(makeStatsReply(Json), M));
  EXPECT_EQ(M.Text, Json);

  ASSERT_TRUE(decodeMessage(makeTenantList({"a", "b", "c"}), M));
  EXPECT_EQ(M.Type, MsgType::TenantList);
  EXPECT_EQ(M.Names, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ProtocolTest, EmptyAndUnknownTagRejected) {
  Message M;
  EXPECT_FALSE(decodeMessage(std::string(), M));
  // 0x07 and 0x88 are HelloRing's and Health's tags, but each without
  // its body is still malformed (0x06 left this list when it became
  // Ping).
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
  // Predict claiming 5 inputs but carrying 2 (2-byte ids).
  std::string P = makePredict({1, 2, 3, 4, 5});
  P.resize(1 + 4 + 1 + 2 * 2);
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
  // 14 bytes claiming the 65,536-input cap at 8-byte width: the count
  // passes the cap check but not the bytes present, and nothing may be
  // sized off it.
  std::string P;
  P.push_back(static_cast<char>(MsgType::Predict));
  P.append("\x00\x00\x01\x00", 4); // 65536, little-endian
  P.push_back('\x08');
  P.append(8, '\x07'); // one id of the 65,536 claimed
  ASSERT_EQ(P.size(), 14u);
  Message M;
  EXPECT_FALSE(decodeMessage(P, M));
  EXPECT_EQ(M.Inputs.capacity(), 0u);

  // A reply claiming 65,536 answers in one run, whose run table is
  // present but whose landmarks are not.
  std::string C;
  C.push_back(static_cast<char>(MsgType::Predictions));
  C.append("\x00\x00\x01\x00", 4); // count 65536
  C.append("\x01\x00\x00\x00", 4); // one run
  C.append(8, '\x07');                 // its epoch
  C.append("\x00\x00\x01\x00", 4); // its length, the whole count
  C.push_back('\x02');
  C.append(2, '\x07'); // one landmark of the 65,536 claimed
  Message N;
  EXPECT_FALSE(decodeMessage(C, N));
  EXPECT_EQ(N.Choices.capacity(), 0u);

  // A run count past the run table present.
  std::string R;
  R.push_back(static_cast<char>(MsgType::Predictions));
  R.append("\x00\x00\x01\x00", 4);
  R.append("\x00\x00\x01\x00", 4); // 65536 runs
  R.append(12, '\x07');                // one of them
  EXPECT_FALSE(decodeMessage(R, N));
  EXPECT_EQ(N.Choices.capacity(), 0u);
}

TEST(ProtocolTest, BuildersSizeSixtyFourInputFramesExactly) {
  std::vector<uint64_t> Inputs(64, 3);
  std::vector<PredictedChoice> Choices(64, {2, 9});
  // 1 tag + 4 count + 1 width + 64 x 2, and 1 tag + 4 count + 4 runs +
  // one (8 epoch + 4 length) run + 1 width + 64 x 2.
  EXPECT_EQ(makePredict(Inputs).size(), 134u);
  EXPECT_EQ(makePredictions(Choices).size(), 150u);
  // Each id at 8 bytes once one needs more than 4; each epoch change
  // adds one 12-byte run; a landmark past 2 bytes widens them all to 4.
  Inputs[5] = 1ull << 32;
  EXPECT_EQ(makePredict(Inputs).size(), 1 + 4 + 1 + 64 * 8u);
  Choices[10].Epoch = 10;
  EXPECT_EQ(makePredictions(Choices).size(), 150u + 2 * 12);
  Choices[0].Landmark = 1u << 16;
  EXPECT_EQ(makePredictions(Choices).size(), 150u + 2 * 12 + 64 * 2);
}

TEST(ProtocolTest, EncodersIntoAReusedBufferMatchTheBuilders) {
  // A session and a client encode every Predict round trip into one
  // kept buffer: a shorter payload after a longer one must come out
  // exactly as a fresh build does, with no bytes of the longer one left.
  std::string Buf;
  for (size_t N : {64u, 1u, 3u, 64u}) {
    std::vector<uint64_t> Inputs(N);
    std::vector<PredictedChoice> Choices(N);
    for (size_t I = 0; I < N; ++I) {
      Inputs[I] = 1000 * N + I;
      Choices[I] = {static_cast<uint32_t>(I % 5), N};
    }
    encodePredict(Buf, Inputs);
    EXPECT_EQ(Buf, makePredict(Inputs)) << N << " inputs";
    EXPECT_EQ(Buf.size(), 1 + 4 + 1 + 2 * N);
    encodePredictions(Buf, Choices);
    EXPECT_EQ(Buf, makePredictions(Choices)) << N << " choices";
    EXPECT_EQ(Buf.size(), 1 + 4 + 4 + 12 + 1 + 2 * N);
  }
}

/// Expects \p Got and \p Want to agree on every field of Message.
static void expectSameMessage(const Message &Got, const Message &Want) {
  EXPECT_EQ(Got.Type, Want.Type);
  EXPECT_EQ(Got.Text, Want.Text);
  EXPECT_EQ(Got.Inputs, Want.Inputs);
  ASSERT_EQ(Got.Choices.size(), Want.Choices.size());
  for (size_t I = 0; I < Got.Choices.size(); ++I) {
    EXPECT_EQ(Got.Choices[I].Landmark, Want.Choices[I].Landmark);
    EXPECT_EQ(Got.Choices[I].Epoch, Want.Choices[I].Epoch);
  }
  EXPECT_EQ(Got.Names, Want.Names);
  EXPECT_EQ(Got.Epoch, Want.Epoch);
  EXPECT_EQ(Got.Landmarks, Want.Landmarks);
  EXPECT_EQ(Got.NumInputs, Want.NumInputs);
  EXPECT_EQ(Got.QueueDepth, Want.QueueDepth);
  EXPECT_EQ(Got.Pid, Want.Pid);
  EXPECT_EQ(Got.Sessions, Want.Sessions);
  ASSERT_EQ(Got.Tenants.size(), Want.Tenants.size());
  for (size_t I = 0; I < Got.Tenants.size(); ++I) {
    EXPECT_EQ(Got.Tenants[I].Name, Want.Tenants[I].Name);
    EXPECT_EQ(Got.Tenants[I].ServiceEpoch, Want.Tenants[I].ServiceEpoch);
    EXPECT_EQ(Got.Tenants[I].StoreEpoch, Want.Tenants[I].StoreEpoch);
  }
}

TEST(ProtocolTest, DecodingIntoAReusedMessageLeaksNoFields) {
  // A session decodes every request, and a client every reply, into one
  // Message. Each payload below sets every field its type carries to a
  // non-default value, so a field the decoder fails to reset shows up in
  // whichever later message does not carry it.
  const std::string Payloads[] = {
      makeHello("tenant-a"),
      makePredict({3, 9, 1ull << 40}),
      makeStats(),
      makeListTenants(),
      makeShutdown(),
      makePing(),
      makeTenantOk(7, 5, 99),
      makePredictions({{2, 7}, {4, 8}}),
      makeShed(12, "request queue full"),
      makeError("boom"),
      makeStatsReply("{\"requests\": 1}"),
      makeTenantList({"x", "yy"}),
      makeBye(),
      makeHealth(1234, 3, {{"t", 5, 6}}),
  };
  for (const std::string &First : Payloads)
    for (const std::string &Second : Payloads) {
      SCOPED_TRACE("tag " + std::to_string(uint8_t(First[0])) +
                   " then tag " + std::to_string(uint8_t(Second[0])));
      Message Reused, Fresh;
      ASSERT_TRUE(decodeMessage(First, Reused));
      ASSERT_TRUE(decodeMessage(Second, Reused));
      ASSERT_TRUE(decodeMessage(Second, Fresh));
      expectSameMessage(Reused, Fresh);
    }
}

TEST(ProtocolTest, BuilderTruncatesOversizedStrings) {
  // Builders clamp at the wire cap instead of emitting an invalid frame.
  std::string Long(2 * kMaxStringBytes, 'x');
  Message M;
  ASSERT_TRUE(decodeMessage(makeError(Long), M));
  EXPECT_EQ(M.Text.size(), kMaxStringBytes - 1);
  // The Stats JSON is clamped only where its frame would pass the cap.
  std::string P = makeStatsReply(std::string(2 * kMaxFrameBytes, 'x'));
  EXPECT_EQ(P.size(), kMaxFrameBytes);
  ASSERT_TRUE(decodeMessage(P, M));
  EXPECT_EQ(M.Text.size(), kMaxFrameBytes - 5); // tag and 4-byte length
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
  const std::string Seeds[] = {
      makeHello("sort1"),
      makePredict({1, 2, 3}),
      makePredict({1, 1ull << 40, 3}),
      makePredictions({{1, 1}}),
      makePredictions({{1, 1}, {70000, 1}, {2, 2}, {3, 1}}),
      makeTenantList({"a", "b"}),
      makeStatsReply("{\"tenants\": []}")};
  for (int Round = 0; Round < 2000; ++Round) {
    std::string P = Seeds[R.next() % std::size(Seeds)];
    size_t Flips = 1 + R.next() % 4;
    for (size_t F = 0; F < Flips; ++F)
      P[R.next() % P.size()] ^= static_cast<char>(1u << (R.next() % 8));
    (void)decodeMessage(P, M);
  }
}
