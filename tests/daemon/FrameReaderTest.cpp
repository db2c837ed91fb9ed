//===- tests/daemon/FrameReaderTest.cpp --------------------------------------=//
//
// Framing over a socketpair, with no daemon: writeFrame puts a whole
// frame on the wire in one send; FrameReader reassembles frames however
// the bytes arrive (one at a time, two frames per write, frames larger
// than its buffer), keeps the stall deadline for a frame whose first
// bytes were already buffered, and maps every end of stream onto the
// same FrameStatus as before (Closed / Truncated / TooLarge / TimedOut).
// The wait for a frame to start spins briefly before it blocks: an idle
// peer costs the reader no CPU past that window, and a close or a
// pipelined frame that lands during the spin reads as it always did.
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

using namespace pbt::daemon;

namespace {

/// A connected pair of Unix sockets of \p Type, closed on scope exit.
struct SocketPair {
  int Fd[2] = {-1, -1};
  explicit SocketPair(int Type = SOCK_STREAM) {
    EXPECT_EQ(::socketpair(AF_UNIX, Type, 0, Fd), 0);
  }
  ~SocketPair() {
    for (int F : Fd)
      if (F >= 0)
        ::close(F);
  }
  int writer() const { return Fd[0]; }
  int reader() const { return Fd[1]; }
  /// Bounds every blocking recv on the reader end, so a reader that
  /// ignores its deadline fails with IoError instead of hanging.
  void boundReads(int Seconds) {
    timeval TV{Seconds, 0};
    EXPECT_EQ(::setsockopt(reader(), SOL_SOCKET, SO_RCVTIMEO, &TV,
                           sizeof(TV)),
              0);
  }
};

/// The wire bytes of one frame: the 4-byte little-endian length, then
/// \p Payload.
std::string frameBytes(const std::string &Payload) {
  std::string F(4, '\0');
  for (int I = 0; I < 4; ++I)
    F[I] = static_cast<char>(Payload.size() >> (8 * I));
  return F + Payload;
}

void sendAll(int Fd, const std::string &Bytes) {
  ASSERT_EQ(::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Bytes.size()));
}

/// CPU time the calling thread has used.
std::chrono::nanoseconds threadCpu() {
  timespec TS{};
  EXPECT_EQ(::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS), 0);
  return std::chrono::seconds(TS.tv_sec) + std::chrono::nanoseconds(TS.tv_nsec);
}

std::string predict64() {
  std::vector<uint64_t> Inputs(64);
  for (size_t I = 0; I < Inputs.size(); ++I)
    Inputs[I] = I * 7919;
  return makePredict(Inputs);
}

} // namespace

TEST(FrameReaderTest, OneSendPerFrame) {
  // A stream socket's recv coalesces separate sends, so only a
  // record-preserving socket can show how many sends a frame took: on
  // SOCK_SEQPACKET a peek returns exactly the first send's bytes.
  SocketPair P(SOCK_SEQPACKET);
  const std::string Payload = predict64();
  ASSERT_EQ(writeFrame(P.writer(), Payload), FrameStatus::Ok);
  char Buf[2048];
  ssize_t N = ::recv(P.reader(), Buf, sizeof(Buf), MSG_PEEK);
  EXPECT_EQ(N, static_cast<ssize_t>(4 + Payload.size()));
  EXPECT_EQ(std::string(Buf, static_cast<size_t>(N)), frameBytes(Payload));
}

TEST(FrameReaderTest, ByteAtATimeFrameIsReassembled) {
  SocketPair P;
  const std::string Payload = predict64();
  const std::string Bytes = frameBytes(Payload);
  std::thread Writer([&] {
    for (char C : Bytes) {
      ASSERT_EQ(::send(P.writer(), &C, 1, MSG_NOSIGNAL), 1);
      std::this_thread::yield();
    }
  });
  FrameReader R;
  std::string Got;
  EXPECT_EQ(R.read(Channel{P.reader()}, Got, 10.0), FrameStatus::Ok);
  Writer.join();
  EXPECT_EQ(Got, Payload);
  EXPECT_EQ(R.buffered(), 0u);
}

TEST(FrameReaderTest, TwoFramesInOneWriteComeBackInOrder) {
  SocketPair P;
  const std::string A = predict64(), B = makeHello("sort1");
  sendAll(P.writer(), frameBytes(A) + frameBytes(B));
  FrameReader R;
  std::string Got;
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
  EXPECT_EQ(Got, A);
  // The second frame came in with the first recv and waits in the
  // buffer; reading it needs no further bytes from the socket.
  EXPECT_EQ(R.buffered(), 4 + B.size());
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
  EXPECT_EQ(Got, B);
  EXPECT_EQ(R.buffered(), 0u);
}

TEST(FrameReaderTest, FrameLargerThanTheBufferIsReadIntoThePayload) {
  SocketPair P;
  std::string Big(FrameReader::kBufferBytes * 5 + 3, '\0');
  for (size_t I = 0; I < Big.size(); ++I)
    Big[I] = static_cast<char>(I * 31);
  const std::string Next = makeStats();
  std::thread Writer([&] {
    EXPECT_EQ(writeFrame(P.writer(), Big), FrameStatus::Ok);
    EXPECT_EQ(writeFrame(P.writer(), Next), FrameStatus::Ok);
  });
  FrameReader R;
  std::string Got;
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 10.0), FrameStatus::Ok);
  EXPECT_EQ(Got, Big);
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 10.0), FrameStatus::Ok);
  EXPECT_EQ(Got, Next);
  Writer.join();
}

TEST(FrameReaderTest, BufferedStartOfAFrameStillHitsTheDeadline) {
  // The first frame and the first 6 bytes of the next arrive in one
  // recv. The held bytes start the second frame's deadline, so a peer
  // that then stalls is timed out, not waited on forever.
  SocketPair P;
  P.boundReads(3);
  const std::string A = makePing();
  const std::string B = frameBytes(predict64());
  sendAll(P.writer(), frameBytes(A) + B.substr(0, 6));
  FrameReader R;
  std::string Got;
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 0.1), FrameStatus::Ok);
  EXPECT_EQ(Got, A);
  EXPECT_EQ(R.buffered(), 6u);
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_EQ(R.read(Channel{P.reader()}, Got, 0.1), FrameStatus::TimedOut);
  EXPECT_LT(std::chrono::steady_clock::now() - T0, std::chrono::seconds(5));
  EXPECT_EQ(R.buffered(), 0u); // a failed read drops what it held
}

TEST(FrameReaderTest, PartialHeaderStallHitsTheDeadline) {
  SocketPair P;
  P.boundReads(3);
  sendAll(P.writer(), std::string("\x10\x00", 2));
  FrameReader R;
  std::string Got;
  EXPECT_EQ(R.read(Channel{P.reader()}, Got, 0.1), FrameStatus::TimedOut);
}

TEST(FrameReaderTest, CleanEofIsClosed) {
  SocketPair P;
  ASSERT_EQ(::shutdown(P.writer(), SHUT_WR), 0);
  FrameReader R;
  std::string Got;
  EXPECT_EQ(R.read(Channel{P.reader()}, Got), FrameStatus::Closed);
  EXPECT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Closed);
}

TEST(FrameReaderTest, EofAfterAWholeFrameIsClosed) {
  SocketPair P;
  sendAll(P.writer(), frameBytes(makeBye()));
  ASSERT_EQ(::shutdown(P.writer(), SHUT_WR), 0);
  FrameReader R;
  std::string Got;
  ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
  EXPECT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Closed);
}

TEST(FrameReaderTest, EofMidFrameIsTruncated) {
  const std::string Bytes = frameBytes(predict64());
  // Mid-header and mid-payload, with and without a deadline.
  for (size_t Cut : {size_t(2), size_t(4), Bytes.size() - 1})
    for (double Deadline : {0.0, 1.0}) {
      SocketPair P;
      sendAll(P.writer(), Bytes.substr(0, Cut));
      ASSERT_EQ(::shutdown(P.writer(), SHUT_WR), 0);
      FrameReader R;
      std::string Got;
      EXPECT_EQ(R.read(Channel{P.reader()}, Got, Deadline),
                FrameStatus::Truncated)
          << "cut " << Cut << " deadline " << Deadline;
    }
}

TEST(FrameReaderTest, ZeroOrOverCapLengthIsTooLarge) {
  for (uint32_t Len : {0u, kMaxFrameBytes + 1, 0xFFFFFFFFu}) {
    SocketPair P;
    std::string Hdr(4, '\0');
    for (int I = 0; I < 4; ++I)
      Hdr[I] = static_cast<char>(Len >> (8 * I));
    sendAll(P.writer(), Hdr);
    FrameReader R;
    std::string Got;
    EXPECT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::TooLarge)
        << Len;
    EXPECT_LE(Got.capacity(), kMaxFrameBytes); // nothing sized off Len
  }
}

TEST(FrameReaderTest, WriteFrameRejectsEmptyAndOverCapPayloads) {
  SocketPair P;
  EXPECT_EQ(writeFrame(P.writer(), std::string()), FrameStatus::TooLarge);
  EXPECT_EQ(writeFrame(P.writer(), std::string(kMaxFrameBytes + 1, 'x')),
            FrameStatus::TooLarge);
}

TEST(FrameReaderTest, WriteToAVanishedPeerIsIoError) {
  SocketPair P;
  ::close(P.Fd[1]);
  P.Fd[1] = -1;
  // MSG_NOSIGNAL: an error status, never SIGPIPE.
  EXPECT_EQ(writeFrame(P.writer(), predict64()), FrameStatus::IoError);
}

//===----------------------------------------------------------------------===//
// The wait for a frame to start: spin, then block
//===----------------------------------------------------------------------===//

TEST(FrameReaderTest, IdlePeerCostsTheReaderNoCpuPastTheSpin) {
  // A reader asks a peer that answers Fast requests at once and the
  // next one only after 200 ms. That wait spins at most
  // FrameReader::kSpinWindow and then sleeps in recv, for a fresh reader
  // (no fast exchange) and for one whose spin ten fast exchanges armed.
  // The two cases run side by side, each on its own socket pair.
  using namespace std::chrono_literals;
  struct Outcome {
    std::chrono::nanoseconds Cpu{0};
    FrameWait How = FrameWait::Held;
    bool Ok = false;
  };
  auto Ask = [](int Fast, Outcome &Out) {
    const std::string Req = makePing(), Rep = makeBye();
    SocketPair P;
    std::thread Peer([&] {
      FrameReader R;
      std::string Got;
      for (int I = 0; I <= Fast; ++I) {
        if (R.read(Channel{P.writer()}, Got) != FrameStatus::Ok)
          return;
        if (I == Fast)
          std::this_thread::sleep_for(200ms);
        if (writeFrame(P.writer(), Rep) != FrameStatus::Ok)
          return;
      }
    });
    FrameReader R;
    std::string Got;
    bool Ok = true;
    for (int I = 0; I < Fast && Ok; ++I)
      Ok = writeFrame(P.reader(), Req) == FrameStatus::Ok &&
           R.read(Channel{P.reader()}, Got) == FrameStatus::Ok;
    Ok = Ok && writeFrame(P.reader(), Req) == FrameStatus::Ok;
    auto Cpu0 = threadCpu();
    Ok = Ok && R.read(Channel{P.reader()}, Got) == FrameStatus::Ok &&
         Got == Rep;
    Out.Cpu = threadCpu() - Cpu0;
    Out.How = R.lastWait();
    Out.Ok = Ok;
    Peer.join();
  };
  Outcome Fresh, Armed;
  std::thread A(Ask, 0, std::ref(Fresh)), B(Ask, 10, std::ref(Armed));
  A.join();
  B.join();
  for (const Outcome *O : {&Fresh, &Armed}) {
    const char *Name = O == &Fresh ? "fresh reader" : "after ten fast exchanges";
    ASSERT_TRUE(O->Ok) << Name;
    EXPECT_LT(O->Cpu, 5ms) << Name;
    EXPECT_EQ(O->How, FrameWait::Slept) << Name;
  }
}

TEST(FrameReaderTest, SkipNextSpinMakesTheNextWaitSleep) {
  // A frame already on the socket is caught by the spin's first recv;
  // after skipNextSpin the same wait goes straight to the blocking recv.
  SocketPair P;
  const std::string A = makePing();
  FrameReader R;
  std::string Got;
  sendAll(P.writer(), frameBytes(A));
  ASSERT_EQ(R.read(Channel{P.reader()}, Got), FrameStatus::Ok);
  EXPECT_EQ(R.lastWait(), FrameWait::Spun);
  sendAll(P.writer(), frameBytes(A));
  R.skipNextSpin();
  ASSERT_EQ(R.read(Channel{P.reader()}, Got), FrameStatus::Ok);
  EXPECT_EQ(R.lastWait(), FrameWait::Slept);
  EXPECT_EQ(Got, A);
}

TEST(FrameReaderTest, CloseDuringTheSpinIsClosed) {
  // The close lands a few microseconds after the read starts, so most
  // trials catch the reader inside its spin and the rest in its
  // blocking recv; either way the read ends Closed, never IoError. A
  // peer's close and a local shutdown(SHUT_RDWR) from another thread
  // (how a server unblocks its sessions) both count.
  for (bool LocalShutdown : {false, true})
    for (int Trial = 0; Trial < 50; ++Trial) {
      SocketPair P;
      std::atomic<bool> Reading{false};
      std::thread Closer([&] {
        while (!Reading.load())
          std::this_thread::yield();
        if (LocalShutdown) {
          ::shutdown(P.reader(), SHUT_RDWR);
        } else {
          ::close(P.Fd[0]);
          P.Fd[0] = -1;
        }
      });
      FrameReader R;
      std::string Got;
      Reading.store(true);
      EXPECT_EQ(R.read(Channel{P.reader()}, Got), FrameStatus::Closed)
          << (LocalShutdown ? "shutdown" : "close") << " trial " << Trial;
      Closer.join();
    }
}

TEST(FrameReaderTest, PipelinedFramesArrivingDuringTheSpinComeBackInOrder) {
  // Frames B and C land in one send while the reader waits for B's
  // start: B is returned, C waits in the buffer exactly as a pipelined
  // frame always has, and reading it needs no wait at all.
  const std::string A = makePing(), B = predict64(), C = makeHello("sort1");
  for (int Trial = 0; Trial < 20; ++Trial) {
    SocketPair P;
    P.boundReads(5);
    std::atomic<bool> Reading{false};
    sendAll(P.writer(), frameBytes(A));
    std::thread Writer([&] {
      while (!Reading.load())
        std::this_thread::yield();
      sendAll(P.writer(), frameBytes(B) + frameBytes(C));
    });
    FrameReader R;
    std::string Got;
    ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
    EXPECT_EQ(Got, A);
    Reading.store(true);
    ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
    Writer.join();
    EXPECT_EQ(Got, B);
    EXPECT_EQ(R.buffered(), 4 + C.size());
    ASSERT_EQ(R.read(Channel{P.reader()}, Got, 1.0), FrameStatus::Ok);
    EXPECT_EQ(Got, C);
    EXPECT_EQ(R.lastWait(), FrameWait::Held);
    EXPECT_EQ(R.buffered(), 0u);
  }
}
