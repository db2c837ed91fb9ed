//===- tests/daemon/RingTest.cpp ---------------------------------------------=//
//
// The shared-memory ring pair under a Unix-domain session, driven
// directly over a socketpair: a frame larger than the ring streams
// through intact, two ends that always sleep lose no wake-up, a peer
// that closes or dies while the reader spins ends the wait, a scribbled
// position is a broken ring rather than an over-read or a hang, so is a
// socket flooded with doorbells, and the region cannot be resized under
// a mapping.
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"
#include "daemon/Transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pbt::daemon;

namespace {

/// Both ends of one ring pair over a socketpair, in this process. The
/// sockets time out reads after 10 s, so a lost wake-up shows as a slow
/// or failed read instead of a hang.
struct RingPair {
  int Fds[2] = {-1, -1};
  std::unique_ptr<FrameRing> Server, Client;

  RingPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, Fds), 0);
    timeval TV{10, 0};
    for (int Fd : Fds)
      ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof TV);
    std::string Err;
    int Mem = createSealedMemory(kRingRegionBytes, Err);
    EXPECT_GE(Mem, 0) << Err;
    Server = FrameRing::map(Mem, FrameRing::End::Server, Err);
    Client = FrameRing::map(Mem, FrameRing::End::Client, Err);
    EXPECT_TRUE(Server && Client) << Err;
    ::close(Mem);
  }
  ~RingPair() {
    for (int Fd : Fds)
      if (Fd >= 0)
        ::close(Fd);
  }

  Channel server() const { return Channel{Fds[0], Server.get()}; }
  Channel client() const { return Channel{Fds[1], Client.get()}; }
};

std::string pattern(size_t Size, uint32_t Seed) {
  std::string S(Size, '\0');
  for (size_t I = 0; I < Size; ++I) {
    Seed = Seed * 1664525u + 1013904223u;
    S[I] = static_cast<char>(Seed >> 24);
  }
  return S;
}

/// Busy-waits a deterministic 0 to about 2 microseconds, different for
/// each \p I.
void jitter(int I) {
  for (volatile unsigned Delay = (static_cast<unsigned>(I) * 7919u) % 1024;
       Delay > 0;)
    Delay = Delay - 1;
}

} // namespace

TEST(RingTest, FramesLargerThanTheRingStreamThroughIntact) {
  RingPair P;
  const size_t Sizes[] = {1,
                          kRingBytes - 4,
                          kRingBytes,
                          kRingBytes + 1,
                          3 * kRingBytes + 17,
                          kMaxFrameBytes};
  std::thread Writer([&] {
    for (size_t Size : Sizes)
      EXPECT_EQ(writeFrame(P.client(), pattern(Size, Size)), FrameStatus::Ok)
          << Size;
  });
  FrameReader Reader;
  std::string Payload;
  for (size_t Size : Sizes) {
    ASSERT_EQ(Reader.read(P.server(), Payload, 10.0), FrameStatus::Ok) << Size;
    EXPECT_TRUE(Payload == pattern(Size, Size)) << Size;
  }
  Writer.join();
  // Only the bytes of whole frames went through: nothing is left over.
  EXPECT_EQ(Reader.buffered(), 0u);
  EXPECT_EQ(P.Server->readable(), 0);
}

TEST(RingTest, BothEndsSleepingLoseNoWakeUp) {
  // A reader that skips its spin goes through the sleep handshake on
  // every frame: flag, second look, doorbell. A frame published between
  // its first look and its flag store would be lost without the second
  // look, and the read would time out. 10,000 round trips with both ends
  // sleeping, then 10,000 with each end sleeping while the other spins:
  // a spinning peer answers within a few hundred nanoseconds, and the
  // sleeper starts each wait up to a couple of microseconds late, so
  // the answers land across every instant of its handshake.
  const std::pair<bool, bool> Phases[] = {
      {true, true}, {true, false}, {false, true}};
  for (auto [ClientSleeps, ServerSleeps] : Phases) {
    SCOPED_TRACE(std::string("client ") + (ClientSleeps ? "sleeps" : "spins") +
                 ", server " + (ServerSleeps ? "sleeps" : "spins"));
    RingPair P;
    constexpr int kRoundTrips = 10000;
    std::thread Echo([&, ServerSleeps = ServerSleeps] {
      FrameReader Reader;
      std::string Payload;
      for (int I = 0; I < kRoundTrips; ++I) {
        if (ServerSleeps) {
          Reader.skipNextSpin();
          jitter(I);
        }
        ASSERT_EQ(Reader.read(P.server(), Payload), FrameStatus::Ok) << I;
        ASSERT_EQ(writeFrame(P.server(), Payload), FrameStatus::Ok) << I;
      }
    });
    FrameReader Reader;
    std::string Payload;
    const std::string Predict = makePredict(std::vector<uint64_t>(64, 7));
    int Slept = 0;
    for (int I = 0; I < kRoundTrips; ++I) {
      EXPECT_EQ(writeFrame(P.client(), Predict), FrameStatus::Ok) << I;
      if (ClientSleeps) {
        Reader.skipNextSpin();
        jitter(I);
      }
      // A lost wake-up sleeps until the socket's 10 s read timeout.
      auto Start = std::chrono::steady_clock::now();
      FrameStatus FS = Reader.read(P.client(), Payload);
      if (FS != FrameStatus::Ok || Payload != Predict ||
          std::chrono::steady_clock::now() - Start > std::chrono::seconds(2)) {
        ADD_FAILURE() << "round trip " << I << " lost a wake-up or its reply";
        ::shutdown(P.Fds[1], SHUT_RDWR); // end the echo thread's wait
        break;
      }
      Slept += Reader.lastWait() == FrameWait::Slept;
    }
    Echo.join();
    if (ClientSleeps) {
      EXPECT_EQ(Slept, kRoundTrips);
    }
  }
}

TEST(RingTest, PeerClosingMidSpinEndsTheWait) {
  // The reader spins on its ring; the peer closes its socket without
  // publishing anything. The spin ends, the sleep sees the EOF, and the
  // wait is Closed at once rather than at any timeout.
  RingPair P;
  FrameReader Reader;
  std::string Payload;
  auto Start = std::chrono::steady_clock::now();
  std::thread Closer([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(5));
    ::shutdown(P.Fds[1], SHUT_RDWR);
  });
  EXPECT_EQ(Reader.read(P.server(), Payload), FrameStatus::Closed);
  Closer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(5));

  // A frame published just before the peer went is still read whole.
  RingPair Q;
  ASSERT_EQ(writeFrame(Q.client(), makePing()), FrameStatus::Ok);
  ::shutdown(Q.Fds[1], SHUT_RDWR);
  ASSERT_EQ(Reader.read(Q.server(), Payload), FrameStatus::Ok);
  EXPECT_EQ(Payload, makePing());
  EXPECT_EQ(Reader.read(Q.server(), Payload), FrameStatus::Closed);
}

TEST(RingTest, PeerDyingMidFrameEndsTheWaitBeforeTheDeadline) {
  // A child process maps the client end, publishes half a length
  // prefix, and is killed while the parent's reader waits for the rest:
  // the dead peer's socket closes, and the read is Truncated well inside
  // its 30 s deadline. A live peer that stalls mid-frame is TimedOut at
  // the deadline instead.
  RingPair P;
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    ::close(P.Fds[0]);
    const uint8_t Half[2] = {0x10, 0x00};
    writeRaw(P.client(), Half, sizeof Half);
    for (;;)
      ::pause();
  }
  ::close(P.Fds[1]);
  P.Fds[1] = -1;
  std::thread Killer([Child] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::kill(Child, SIGKILL);
  });
  FrameReader Reader;
  std::string Payload;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Reader.read(P.server(), Payload, 30.0), FrameStatus::Truncated);
  EXPECT_LT(std::chrono::steady_clock::now() - Start, std::chrono::seconds(10));
  Killer.join();
  int Status = 0;
  ::waitpid(Child, &Status, 0);

  RingPair Q;
  const uint8_t Half[2] = {0x10, 0x00};
  ASSERT_EQ(writeRaw(Q.client(), Half, sizeof Half), FrameStatus::Ok);
  Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Reader.read(Q.server(), Payload, 0.1), FrameStatus::TimedOut);
  EXPECT_GE(std::chrono::steady_clock::now() - Start,
            std::chrono::milliseconds(100));
}

namespace {

/// Sends junk on \p Fd as fast as the socket takes it, until \p Stop
/// is set, a send fails (the reader closed), or 5 s pass.
void floodSocket(int Fd, const std::atomic<bool> &Stop) {
  const std::string Junk(4096, '\x5a');
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!Stop.load() && std::chrono::steady_clock::now() < Until) {
    ssize_t N =
        ::send(Fd, Junk.data(), Junk.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return;
    if (N < 0)
      std::this_thread::yield();
  }
}

} // namespace

TEST(RingTest, DoorbellsWithNothingToReadEndTheWait) {
  // A peer can keep the socket non-empty without publishing anything.
  // Flooding it sends more doorbell bytes than the reader's flag stores
  // let through: the wait ends at once as a broken ring, both mid-frame
  // and at a frame start, where it would otherwise drain the flood until
  // the peer stopped, here after 5 s. A peer that rings exactly once per
  // flag store, as an honest writer would but with nothing to read,
  // still cannot hold a frame past its deadline.
  for (bool MidFrame : {true, false}) {
    SCOPED_TRACE(MidFrame ? "flood mid-frame" : "flood at a frame start");
    RingPair P;
    const uint8_t Half[2] = {0x10, 0x00};
    if (MidFrame) {
      ASSERT_EQ(writeRaw(P.client(), Half, sizeof Half), FrameStatus::Ok);
    }
    std::atomic<bool> Stop{false};
    std::thread Flooder(floodSocket, P.Fds[1], std::cref(Stop));
    FrameReader Reader;
    std::string Payload;
    auto Start = std::chrono::steady_clock::now();
    EXPECT_EQ(Reader.read(P.server(), Payload, 2.0), FrameStatus::BadRing);
    EXPECT_LT(std::chrono::steady_clock::now() - Start,
              std::chrono::seconds(2));
    Stop.store(true);
    Flooder.join();
  }

  RingPair P;
  const uint8_t Half[2] = {0x10, 0x00};
  ASSERT_EQ(writeRaw(P.client(), Half, sizeof Half), FrameStatus::Ok);
  std::atomic<bool> Stop{false};
  std::thread Ringer([&] {
    auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!Stop.load() && std::chrono::steady_clock::now() < Until)
      if (P.Client->wakePeer(RingControl::kWaitData))
        (void)::send(P.Fds[1], "", 1, MSG_NOSIGNAL);
  });
  FrameReader Reader;
  std::string Payload;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Reader.read(P.server(), Payload, 0.2), FrameStatus::TimedOut);
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(2));
  Stop.store(true);
  Ringer.join();
}

TEST(RingTest, ScribbledPositionsAreABrokenRing) {
  // The reader trusts no position the peer stores: a Head more than a
  // ring ahead of its own Tail or behind it, and a Tail that leaves more
  // than a ring unread, are BadRing -- never an over-read or a wait.
  for (int Case = 0; Case < 2; ++Case) {
    SCOPED_TRACE(Case);
    RingPair P;
    ASSERT_EQ(writeFrame(P.client(), makePing()), FrameStatus::Ok);
    RingControl &C = P.Client->control();
    C.Head[0].V.store(Case == 0 ? kRingBytes + 1 : uint64_t(0) - 1);
    FrameReader Reader;
    std::string Payload;
    EXPECT_EQ(Reader.read(P.server(), Payload, 1.0), FrameStatus::BadRing);
  }
  RingPair P;
  P.Client->control().Tail[1].V.store(12345);
  EXPECT_EQ(writeFrame(P.server(), makeBye()), FrameStatus::BadRing);
  // Up to a whole ring of unread bytes is a position: the reader takes
  // the bytes, and framing judges them.
  RingPair Q;
  Q.Client->control().Head[0].V.store(kRingBytes);
  FrameReader Reader;
  std::string Payload;
  EXPECT_EQ(Reader.read(Q.server(), Payload, 1.0), FrameStatus::TooLarge);
}

TEST(RingTest, RegionCannotBeResizedUnderItsMappings) {
  // A peer that shrank the region would turn the other end's loads into
  // SIGBUS; the seals refuse any resize and any unsealing.
  std::string Err;
  int Mem = createSealedMemory(kRingRegionBytes, Err);
  ASSERT_GE(Mem, 0) << Err;
  EXPECT_NE(::ftruncate(Mem, 0), 0);
  EXPECT_NE(::ftruncate(Mem, 2 * kRingRegionBytes), 0);
  EXPECT_NE(::fcntl(Mem, F_ADD_SEALS, F_SEAL_WRITE), 0);
  ::close(Mem);

  // A region too small for the rings is refused before it is mapped.
  int Small = ::memfd_create("pbt-ring-test", MFD_CLOEXEC);
  ASSERT_GE(Small, 0);
  ASSERT_EQ(::ftruncate(Small, kRingControlBytes), 0);
  EXPECT_EQ(FrameRing::map(Small, FrameRing::End::Client, Err), nullptr);
  ::close(Small);
}
