//===- daemon/Protocol.cpp - pbt-serve wire protocol -----------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include "daemon/Transport.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

//===----------------------------------------------------------------------===//
// Little-endian store/load helpers
//===----------------------------------------------------------------------===//

// Byte-wise shifts through a raw pointer: portable across host byte
// orders, and compilers merge them into single word stores and loads.
void storeU16(uint8_t *P, uint16_t V) {
  P[0] = static_cast<uint8_t>(V);
  P[1] = static_cast<uint8_t>(V >> 8);
}

void storeU32(uint8_t *P, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    P[I] = static_cast<uint8_t>(V >> (8 * I));
}

void storeU64(uint8_t *P, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    P[I] = static_cast<uint8_t>(V >> (8 * I));
}

uint32_t loadU32(const uint8_t *P) {
  uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(P[I]) << (8 * I);
  return V;
}

uint64_t loadU64(const uint8_t *P) {
  uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

/// Builders truncate strings at the wire cap instead of producing an
/// invalid frame the peer would drop the connection over.
size_t wireStrLen(const std::string &S) {
  return S.size() < kMaxStringBytes ? S.size() : kMaxStringBytes - 1;
}

/// Wire bytes of a string field: the 2-byte length plus the bytes.
size_t strBytes(const std::string &S) { return 2 + wireStrLen(S); }

/// Payload builder over an exactly-sized buffer: the constructor takes
/// the body size, so each field is a store at the cursor with no
/// capacity check or regrowth.
class WireWriter {
public:
  WireWriter(MsgType Type, size_t BodyBytes)
      : B(1 + BodyBytes, '\0'), Cur(reinterpret_cast<uint8_t *>(&B[0])) {
    *Cur++ = static_cast<uint8_t>(Type);
  }

  void u32(uint32_t V) {
    storeU32(Cur, V);
    Cur += 4;
  }

  void u64(uint64_t V) {
    storeU64(Cur, V);
    Cur += 8;
  }

  void str(const std::string &S) {
    size_t N = wireStrLen(S);
    storeU16(Cur, static_cast<uint16_t>(N));
    std::memcpy(Cur + 2, S.data(), N);
    Cur += 2 + N;
  }

  std::string take() {
    assert(Cur == reinterpret_cast<uint8_t *>(&B[0]) + B.size() &&
           "payload size mismatch");
    return std::move(B);
  }

private:
  std::string B;
  uint8_t *Cur;
};

/// Cursor over a received payload. Every take checks the remaining
/// length; once a take fails the reader stays failed.
class WireReader {
public:
  WireReader(const uint8_t *Data, size_t Size) : Cur(Data), Left(Size) {}

  bool u8(uint8_t &V) {
    const uint8_t *P = take(1);
    if (P)
      V = *P;
    return P != nullptr;
  }

  bool u16(uint16_t &V) {
    const uint8_t *P = take(2);
    if (P)
      V = static_cast<uint16_t>(P[0] | P[1] << 8);
    return P != nullptr;
  }

  bool u32(uint32_t &V) {
    const uint8_t *P = take(4);
    if (P)
      V = loadU32(P);
    return P != nullptr;
  }

  bool u64(uint64_t &V) {
    const uint8_t *P = take(8);
    if (P)
      V = loadU64(P);
    return P != nullptr;
  }

  bool str(std::string &S) {
    uint16_t N = 0;
    if (!u16(N))
      return false;
    if (N >= kMaxStringBytes)
      return fail();
    const uint8_t *P = take(N);
    if (P)
      S.assign(reinterpret_cast<const char *>(P), N);
    return P != nullptr;
  }

  /// \p Count fixed-width entries of \p Width bytes each, checked against
  /// the remaining bytes once: the start of the run, or null (and
  /// failed) when the payload is too short to hold them.
  const uint8_t *array(uint32_t Count, size_t Width) {
    if (Count > Left / Width) {
      fail();
      return nullptr;
    }
    return take(Count * Width);
  }

  /// A valid payload is consumed exactly: trailing bytes are garbage.
  bool done() const { return !Failed && Left == 0; }

private:
  const uint8_t *take(size_t N) {
    if (Left < N) {
      fail();
      return nullptr;
    }
    const uint8_t *P = Cur;
    Cur += N;
    Left -= N;
    return P;
  }

  bool fail() {
    Failed = true;
    return false;
  }

  const uint8_t *Cur;
  size_t Left;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Raw fd helpers
//===----------------------------------------------------------------------===//

bool writeAll(int Fd, const void *Buf, size_t Len) {
  const char *P = static_cast<const char *>(Buf);
  size_t Sent = 0;
  while (Sent < Len) {
    ssize_t N = ::send(Fd, P + Sent, Len - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

/// One blocking recv into \p Buf, EINTR retried: the wait for a frame
/// to start, and every read when there is no deadline.
ssize_t recvBlocking(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, Len, 0);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

/// Up to \p Len bytes of a frame already underway, by \p Deadline: a
/// nonblocking recv first, then poll only when nothing is there yet.
/// Returns the byte count (0 = EOF), -1 on errno failure, -2 on
/// deadline expiry. EINTR on either syscall retries with the remaining
/// budget recomputed.
ssize_t recvBy(int Fd, void *Buf, size_t Len,
               std::chrono::steady_clock::time_point Deadline) {
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, Len, MSG_DONTWAIT);
    if (N >= 0)
      return N;
    if (errno == EINTR)
      continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Deadline)
      return -2;
    struct pollfd Pfd = {Fd, POLLIN, 0};
    int PR = ::poll(&Pfd, 1, pollTimeoutMs(Deadline - Now));
    if (PR < 0 && errno != EINTR)
      return -1;
    if (PR == 0)
      return -2;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Payload builders
//===----------------------------------------------------------------------===//

std::string makeHello(const std::string &Tenant) {
  WireWriter W(MsgType::Hello, strBytes(Tenant));
  W.str(Tenant);
  return W.take();
}

std::string makePredict(const std::vector<uint64_t> &Inputs) {
  WireWriter W(MsgType::Predict, 4 + 8 * Inputs.size());
  W.u32(static_cast<uint32_t>(Inputs.size()));
  for (uint64_t In : Inputs)
    W.u64(In);
  return W.take();
}

std::string makeStats() {
  return std::string(1, static_cast<char>(MsgType::Stats));
}

std::string makeListTenants() {
  return std::string(1, static_cast<char>(MsgType::ListTenants));
}

std::string makeShutdown() {
  return std::string(1, static_cast<char>(MsgType::Shutdown));
}

std::string makePing() {
  return std::string(1, static_cast<char>(MsgType::Ping));
}

std::string makeTenantOk(uint64_t Epoch, uint32_t Landmarks,
                         uint64_t NumInputs) {
  WireWriter W(MsgType::TenantOk, 8 + 4 + 8);
  W.u64(Epoch);
  W.u32(Landmarks);
  W.u64(NumInputs);
  return W.take();
}

std::string makePredictions(const std::vector<PredictedChoice> &Choices) {
  WireWriter W(MsgType::Predictions, 4 + 12 * Choices.size());
  W.u32(static_cast<uint32_t>(Choices.size()));
  for (const PredictedChoice &C : Choices) {
    W.u32(C.Landmark);
    W.u64(C.Epoch);
  }
  return W.take();
}

std::string makeShed(uint32_t QueueDepth, const std::string &Reason) {
  WireWriter W(MsgType::Shed, 4 + strBytes(Reason));
  W.u32(QueueDepth);
  W.str(Reason);
  return W.take();
}

std::string makeError(const std::string &Message) {
  WireWriter W(MsgType::Error, strBytes(Message));
  W.str(Message);
  return W.take();
}

std::string makeStatsReply(const std::string &Json) {
  WireWriter W(MsgType::StatsReply, strBytes(Json));
  W.str(Json);
  return W.take();
}

std::string makeTenantList(const std::vector<std::string> &Names) {
  size_t Body = 4;
  for (const std::string &N : Names)
    Body += strBytes(N);
  WireWriter W(MsgType::TenantList, Body);
  W.u32(static_cast<uint32_t>(Names.size()));
  for (const std::string &N : Names)
    W.str(N);
  return W.take();
}

std::string makeBye() {
  return std::string(1, static_cast<char>(MsgType::Bye));
}

std::string makeHealth(uint64_t Pid, uint32_t Sessions,
                       const std::vector<TenantHealth> &Tenants) {
  size_t Body = 8 + 4 + 4;
  for (const TenantHealth &T : Tenants)
    Body += strBytes(T.Name) + 8 + 8;
  WireWriter W(MsgType::Health, Body);
  W.u64(Pid);
  W.u32(Sessions);
  W.u32(static_cast<uint32_t>(Tenants.size()));
  for (const TenantHealth &T : Tenants) {
    W.str(T.Name);
    W.u64(T.ServiceEpoch);
    W.u64(T.StoreEpoch);
  }
  return W.take();
}

//===----------------------------------------------------------------------===//
// Decode
//===----------------------------------------------------------------------===//

bool decodeMessage(const uint8_t *Data, size_t Size, Message &Out) {
  WireReader R(Data, Size);
  uint8_t Tag = 0;
  if (!R.u8(Tag))
    return false;
  Out = Message();
  Out.Type = static_cast<MsgType>(Tag);
  switch (Out.Type) {
  case MsgType::Hello:
    return R.str(Out.Text) && R.done();
  case MsgType::Predict: {
    uint32_t Count = 0;
    if (!R.u32(Count) || Count == 0 || Count > kMaxBatchInputs)
      return false;
    // The count is checked against the bytes actually present before
    // anything is sized off it.
    const uint8_t *P = R.array(Count, 8);
    if (!P)
      return false;
    Out.Inputs.resize(Count);
    for (uint32_t I = 0; I < Count; ++I)
      Out.Inputs[I] = loadU64(P + 8 * I);
    return R.done();
  }
  case MsgType::Stats:
  case MsgType::ListTenants:
  case MsgType::Shutdown:
  case MsgType::Ping:
  case MsgType::Bye:
    return R.done();
  case MsgType::TenantOk:
    return R.u64(Out.Epoch) && R.u32(Out.Landmarks) && R.u64(Out.NumInputs) &&
           R.done();
  case MsgType::Predictions: {
    uint32_t Count = 0;
    if (!R.u32(Count) || Count > kMaxBatchInputs)
      return false;
    const uint8_t *P = R.array(Count, 12);
    if (!P)
      return false;
    Out.Choices.resize(Count);
    for (uint32_t I = 0; I < Count; ++I) {
      Out.Choices[I].Landmark = loadU32(P + 12 * I);
      Out.Choices[I].Epoch = loadU64(P + 12 * I + 4);
    }
    return R.done();
  }
  case MsgType::Shed:
    return R.u32(Out.QueueDepth) && R.str(Out.Text) && R.done();
  case MsgType::Error:
  case MsgType::StatsReply:
    return R.str(Out.Text) && R.done();
  case MsgType::TenantList: {
    uint32_t Count = 0;
    // Each name costs >= 2 bytes on the wire, so the payload length
    // already bounds a sane count; reject anything past the frame cap.
    if (!R.u32(Count) || Count > kMaxFrameBytes / 2)
      return false;
    Out.Names.reserve(Count < 1024 ? Count : 1024);
    for (uint32_t I = 0; I < Count; ++I) {
      std::string N;
      if (!R.str(N))
        return false;
      Out.Names.push_back(std::move(N));
    }
    return R.done();
  }
  case MsgType::Health: {
    if (!R.u64(Out.Pid) || !R.u32(Out.Sessions))
      return false;
    uint32_t Count = 0;
    // Each tenant entry costs >= 18 wire bytes, so the frame cap already
    // bounds a sane count; reject anything past it before reserving.
    if (!R.u32(Count) || Count > kMaxFrameBytes / 18)
      return false;
    Out.Tenants.reserve(Count < 1024 ? Count : 1024);
    for (uint32_t I = 0; I < Count; ++I) {
      TenantHealth T;
      if (!R.str(T.Name) || !R.u64(T.ServiceEpoch) || !R.u64(T.StoreEpoch))
        return false;
      Out.Tenants.push_back(std::move(T));
    }
    return R.done();
  }
  }
  return false; // unknown tag
}

//===----------------------------------------------------------------------===//
// Framed IO
//===----------------------------------------------------------------------===//

FrameStatus FrameReader::read(int Fd, std::string &Payload,
                              double DeadlineSeconds) {
  // Every failure leaves the stream position lost: drop what is held.
  auto Fail = [this](FrameStatus Status) {
    reset();
    return Status;
  };
  // recvBy's and recvBlocking's results, mapped for a frame underway.
  auto MidFrame = [](ssize_t N) {
    return N == 0    ? FrameStatus::Truncated
           : N == -2 ? FrameStatus::TimedOut
                     : FrameStatus::IoError;
  };

  // Wait, unbounded, for a frame to start -- unless a previous recv
  // already delivered its first bytes.
  if (Begin == End) {
    Begin = End = 0;
    ssize_t N = recvBlocking(Fd, Buf, kBufferBytes);
    if (N <= 0)
      return Fail(N == 0 || errno == ECONNRESET ? FrameStatus::Closed
                                                : FrameStatus::IoError);
    End = static_cast<size_t>(N);
  }

  // A byte of this frame is held: from here on it must finish in time.
  // The cap (about 31 years) keeps the clock arithmetic from overflowing.
  const bool Bounded = DeadlineSeconds > 0;
  std::chrono::steady_clock::time_point Deadline;
  if (Bounded)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       std::min(DeadlineSeconds, 1e9)));
  auto Recv = [&](void *Dst, size_t Len) {
    return Bounded ? recvBy(Fd, Dst, Len, Deadline)
                   : recvBlocking(Fd, Dst, Len);
  };

  while (End - Begin < 4) {
    if (Begin > 0) { // keep the partial header at the front
      std::memmove(Buf, Buf + Begin, End - Begin);
      End -= Begin;
      Begin = 0;
    }
    ssize_t N = Recv(Buf + End, kBufferBytes - End);
    if (N <= 0)
      return Fail(MidFrame(N));
    End += static_cast<size_t>(N);
  }
  uint32_t Len = loadU32(Buf + Begin);
  Begin += 4;
  if (Len == 0 || Len > kMaxFrameBytes)
    return Fail(FrameStatus::TooLarge);

  Payload.resize(Len);
  size_t Held = std::min<size_t>(End - Begin, Len);
  std::memcpy(&Payload[0], Buf + Begin, Held);
  Begin += Held;
  // The rest of the frame goes straight into the payload: exactly the
  // missing bytes, so nothing past this frame is consumed.
  for (size_t Got = Held; Got < Len;) {
    ssize_t N = Recv(&Payload[Got], Len - Got);
    if (N <= 0)
      return Fail(MidFrame(N));
    Got += static_cast<size_t>(N);
  }
  return FrameStatus::Ok;
}

FrameStatus writeFrame(int Fd, const std::string &Payload) {
  if (Payload.empty() || Payload.size() > kMaxFrameBytes)
    return FrameStatus::TooLarge;
  uint8_t Hdr[4];
  storeU32(Hdr, static_cast<uint32_t>(Payload.size()));
  struct iovec Iov[2] = {{Hdr, sizeof(Hdr)},
                         {const_cast<char *>(Payload.data()), Payload.size()}};
  struct msghdr Msg = {};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = 2;
  ssize_t N;
  do
    N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
  while (N < 0 && errno == EINTR);
  if (N < 0)
    return FrameStatus::IoError;
  // A short write finishes with the plain send loop.
  size_t Sent = static_cast<size_t>(N);
  if (Sent < sizeof(Hdr)) {
    if (!writeAll(Fd, Hdr + Sent, sizeof(Hdr) - Sent))
      return FrameStatus::IoError;
    Sent = sizeof(Hdr);
  }
  Sent -= sizeof(Hdr);
  if (!writeAll(Fd, Payload.data() + Sent, Payload.size() - Sent))
    return FrameStatus::IoError;
  return FrameStatus::Ok;
}

} // namespace daemon
} // namespace pbt
