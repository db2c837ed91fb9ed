//===- daemon/Protocol.cpp - pbt-serve wire protocol -----------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Protocol.h"

#include "daemon/Transport.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <type_traits>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

//===----------------------------------------------------------------------===//
// Little-endian store/load helpers
//===----------------------------------------------------------------------===//

// Byte-wise loads through a raw pointer: portable across host byte
// orders, and compilers merge them into single word loads. The stores
// are wire::putU16/putU32/putU64.
uint16_t loadU16(const uint8_t *P) {
  return static_cast<uint16_t>(P[0] | P[1] << 8);
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

/// A StatsReply's JSON grows with the tenant count, past any string
/// field's cap, so it travels as a 4-byte length plus the bytes, clamped
/// only so that its frame fits kMaxFrameBytes.
size_t wireJsonLen(const std::string &S) {
  return std::min<size_t>(S.size(), kMaxFrameBytes - 1 - 4);
}

/// Payload builder over an exactly-sized buffer: the constructor takes
/// the body size, so each field is a store at the cursor with no
/// capacity check or regrowth.
class WireWriter {
public:
  WireWriter(MsgType Type, size_t BodyBytes)
      : Cur(wire::beginPayload(B, Type, BodyBytes)) {}

  void u32(uint32_t V) { Cur = wire::putU32(Cur, V); }

  void u64(uint64_t V) { Cur = wire::putU64(Cur, V); }

  void str(const std::string &S) {
    size_t N = wireStrLen(S);
    Cur = wire::putU16(Cur, static_cast<uint16_t>(N));
    std::memcpy(Cur, S.data(), N);
    Cur += N;
  }

  void json(const std::string &S) {
    size_t N = wireJsonLen(S);
    Cur = wire::putU32(Cur, static_cast<uint32_t>(N));
    std::memcpy(Cur, S.data(), N);
    Cur += N;
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
      V = loadU16(P);
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

  bool json(std::string &S) {
    uint32_t N = 0;
    if (!u32(N))
      return false;
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
// Narrow integer arrays
//===----------------------------------------------------------------------===//

/// The array both bodies of the Predict round trip end with: a width
/// byte W, then each value as a W-byte little-endian integer, W the
/// narrowest of 2, 4 or 8 that holds the largest value. \p Field maps an
/// element of the vector carried to the integer that goes on the wire (a
/// reference to it, when decoding).
struct NarrowArray {
  /// The width \p Values go on the wire at. Their bitwise OR has a bit
  /// past a width exactly when one of them does.
  template <typename T, typename FieldFn>
  static unsigned widthOf(const std::vector<T> &Values, FieldFn Field) {
    uint64_t AllBits = 0;
    for (const T &V : Values)
      AllBits |= Field(V);
    return AllBits <= 0xFFFF ? 2 : AllBits <= 0xFFFFFFFF ? 4 : 8;
  }

  /// Wire bytes of \p Count values at \p Width, the width byte included.
  static size_t bytes(size_t Count, unsigned Width) {
    return 1 + Count * Width;
  }

  /// Writes \p Values at \p Width (from widthOf) and returns the byte
  /// past them.
  template <typename T, typename FieldFn>
  static uint8_t *put(uint8_t *P, unsigned Width, const std::vector<T> &Values,
                      FieldFn Field) {
    *P++ = static_cast<uint8_t>(Width);
    switch (Width) {
    case 2:
      for (const T &V : Values)
        P = wire::putU16(P, static_cast<uint16_t>(Field(V)));
      break;
    case 4:
      for (const T &V : Values)
        P = wire::putU32(P, static_cast<uint32_t>(Field(V)));
      break;
    default:
      for (const T &V : Values)
        P = wire::putU64(P, Field(V));
      break;
    }
    return P;
  }

  /// Reads \p Count values into \p Out, sized to \p Count only once the
  /// width is one of 2, 4 or 8, at most \p MaxWidth, and the payload
  /// holds that many values; false otherwise.
  template <typename T, typename FieldFn>
  static bool get(WireReader &R, uint32_t Count, unsigned MaxWidth,
                  std::vector<T> &Out, FieldFn Field) {
    uint8_t Width = 0;
    if (!R.u8(Width) || (Width != 2 && Width != 4 && Width != 8) ||
        Width > MaxWidth)
      return false;
    const uint8_t *P = R.array(Count, Width);
    if (!P)
      return false;
    Out.resize(Count);
    // MaxWidth keeps every value inside its field.
    using Int = std::remove_reference_t<decltype(Field(Out[0]))>;
    switch (Width) {
    case 2:
      for (uint32_t I = 0; I < Count; ++I)
        Field(Out[I]) = static_cast<Int>(loadU16(P + 2 * I));
      break;
    case 4:
      for (uint32_t I = 0; I < Count; ++I)
        Field(Out[I]) = static_cast<Int>(loadU32(P + 4 * I));
      break;
    default:
      for (uint32_t I = 0; I < Count; ++I)
        Field(Out[I]) = static_cast<Int>(loadU64(P + 8 * I));
      break;
    }
    return true;
  }
};

/// A Predict's input id and an answer's landmark: what each body's
/// narrow array carries.
constexpr auto InputId = [](auto &V) -> auto & { return V; };
constexpr auto LandmarkOf = [](auto &C) -> auto & { return C.Landmark; };

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
/// to start once any spin is over, and every read when there is no
/// deadline.
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

/// pull()'s and pullSpin()'s result when nothing has arrived yet.
constexpr ssize_t kNothingYet = -4;

/// Whether more threads are runnable on this host right now than it has
/// hardware threads, from the running count Linux reports in
/// /proc/loadavg ("0.50 0.40 0.30 3/412 1234"). False where that file
/// cannot be read.
bool runnableExceedsCores() {
  static const int Fd = ::open("/proc/loadavg", O_RDONLY | O_CLOEXEC);
  static const unsigned long Cores =
      std::max(1u, std::thread::hardware_concurrency());
  char Text[128];
  ssize_t N = Fd < 0 ? -1 : ::pread(Fd, Text, sizeof(Text) - 1, 0);
  if (N <= 0)
    return false;
  Text[N] = '\0';
  const char *Slash = std::strchr(Text, '/');
  if (!Slash)
    return false;
  const char *Digits = Slash;
  while (Digits > Text && Digits[-1] >= '0' && Digits[-1] <= '9')
    --Digits;
  return std::strtoul(Digits, nullptr, 10) > Cores;
}

/// runnableExceedsCores(), sampled at most once per kContentionSample
/// for the whole process by whichever spinning reader finds the sample
/// stale: a spin then costs no more than two relaxed loads per poll.
constexpr std::chrono::milliseconds kContentionSample{1};
std::atomic<std::chrono::steady_clock::rep> ContentionSampledAt{0};
std::atomic<bool> Contended{false};

bool coresContended(std::chrono::steady_clock::time_point Now) {
  using std::chrono::steady_clock;
  const steady_clock::rep T = Now.time_since_epoch().count();
  steady_clock::rep Last = ContentionSampledAt.load(std::memory_order_relaxed);
  if (T - Last >= std::chrono::duration_cast<steady_clock::duration>(
                      kContentionSample)
                      .count() &&
      ContentionSampledAt.compare_exchange_strong(Last, T,
                                                  std::memory_order_relaxed))
    Contended.store(runnableExceedsCores(), std::memory_order_relaxed);
  return Contended.load(std::memory_order_relaxed);
}

/// pull()'s and pullWait()'s result when the peer stored a ring position
/// that is not one.
constexpr ssize_t kBadRing = -3;

/// Wakes \p Ch's peer if it sleeps waiting for \p Why: one doorbell byte
/// on the socket. A full socket buffer already holds a doorbell, and a
/// vanished peer is seen by its own reads, so a failed send is ignored.
void ringDoorbell(const Channel &Ch, uint64_t Why) {
  if (!Ch.Ring->wakePeer(Why))
    return;
  const char Bell = 0;
  ssize_t N;
  do
    N = ::send(Ch.Fd, &Bell, 1, MSG_NOSIGNAL | MSG_DONTWAIT);
  while (N < 0 && errno == EINTR);
}

/// Up to \p Len bytes that are already there, without blocking: the
/// byte count, 0 at a socket's EOF, -1 on an errno failure, kBadRing, or
/// kNothingYet.
ssize_t pull(const Channel &Ch, void *Buf, size_t Len) {
  if (!Ch.Ring) {
    ssize_t N = ::recv(Ch.Fd, Buf, Len, MSG_DONTWAIT);
    if (N >= 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR))
      return N;
    return kNothingYet;
  }
  int64_t Ready = Ch.Ring->readable();
  if (Ready <= 0)
    return Ready < 0 ? kBadRing : kNothingYet;
  size_t N = std::min<size_t>(Len, static_cast<size_t>(Ready));
  Ch.Ring->take(Buf, N);
  // The peer may be a writer waiting for the space just freed.
  ringDoorbell(Ch, RingControl::kWaitSpace);
  return static_cast<ssize_t>(N);
}

/// The sleep of a ring end that found nothing to do: it stores its
/// Sleeping flag (\p Why), looks again (\p Changed), and only if that
/// still finds nothing blocks on the socket until the peer rings,
/// closes, or \p Deadline (when set) passes. Either the second look sees
/// what the peer published, or the peer sees the flag and rings. Returns
/// 1 when the end should look again, kBadRing when the peer sent more
/// doorbell bytes than the flag stores let it (FrameRing::acceptBells),
/// otherwise what the socket said: 0 = EOF, -1 = errno failure,
/// -2 = deadline.
template <typename LookFn>
ssize_t sleepOnRing(const Channel &Ch, uint64_t Why, LookFn Changed,
                    const std::chrono::steady_clock::time_point *Deadline) {
  Ch.Ring->setSleeping(Why);
  if (Changed()) {
    Ch.Ring->setSleeping(RingControl::kAwake);
    return 1;
  }
  char Bells[64];
  ssize_t N = Deadline ? recvBy(Ch.Fd, Bells, sizeof Bells, *Deadline)
                       : recvBlocking(Ch.Fd, Bells, sizeof Bells);
  int Errno = errno;
  Ch.Ring->setSleeping(RingControl::kAwake);
  errno = Errno;
  if (N <= 0)
    return N;
  return Ch.Ring->acceptBells(static_cast<size_t>(N)) ? 1 : kBadRing;
}

/// Up to \p Len bytes, waiting for them until \p Deadline (when set):
/// the byte count (0 = EOF), -1 on an errno failure, -2 when the
/// deadline passes, or kBadRing. When a ring's socket ends, or the
/// deadline passes -- also while the peer keeps ringing with nothing to
/// read -- the reader looks a last time, for bytes the peer published
/// just before.
ssize_t pullWait(const Channel &Ch, void *Buf, size_t Len,
                 const std::chrono::steady_clock::time_point *Deadline) {
  if (!Ch.Ring)
    return Deadline ? recvBy(Ch.Fd, Buf, Len, *Deadline)
                    : recvBlocking(Ch.Fd, Buf, Len);
  for (;;) {
    ssize_t N = pull(Ch, Buf, Len);
    if (N != kNothingYet)
      return N;
    ssize_t Woke = sleepOnRing(
        Ch, RingControl::kWaitData,
        [&Ch] { return Ch.Ring->readable() != 0; }, Deadline);
    if (Woke == kBadRing)
      return kBadRing;
    if (Woke > 0) {
      if (!Deadline || std::chrono::steady_clock::now() < *Deadline)
        continue;
      Woke = -2;
    }
    int Errno = errno;
    N = pull(Ch, Buf, Len);
    errno = Errno;
    return N != kNothingYet ? N : Woke;
  }
}

/// Polls \p Ch until bytes, EOF or a failure arrive, or until \p Until:
/// pull()'s result, or kNothingYet. Gives up early when the host's cores
/// are contended, so that a spin never holds a core that runnable work
/// is waiting for.
ssize_t pullSpin(const Channel &Ch, void *Buf, size_t Len,
                 std::chrono::steady_clock::time_point Until) {
  for (;;) {
    ssize_t N = pull(Ch, Buf, Len);
    if (N != kNothingYet)
      return N;
    auto Now = std::chrono::steady_clock::now();
    if (Now >= Until || coresContended(Now))
      return kNothingYet;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

/// Writes the \p Count pieces at \p Pieces into \p Ch's ring, in order,
/// publishing whatever fits at once and sleeping (sleepOnRing) while the
/// ring is full.
FrameStatus ringWrite(const Channel &Ch, iovec *Pieces, size_t Count) {
  FrameRing &R = *Ch.Ring;
  for (size_t Done = 0; Done < Count;) {
    int64_t Room = R.writable();
    if (Room == 0) {
      ssize_t Woke = sleepOnRing(
          Ch, RingControl::kWaitSpace, [&R] { return R.writable() != 0; },
          nullptr);
      if (Woke <= 0)
        return Woke == kBadRing ? FrameStatus::BadRing : FrameStatus::IoError;
      continue;
    }
    if (Room < 0)
      return FrameStatus::BadRing;
    for (size_t Left = static_cast<size_t>(Room); Done < Count && Left > 0;) {
      iovec &P = Pieces[Done];
      size_t N = std::min(Left, P.iov_len);
      R.put(P.iov_base, N);
      P.iov_base = static_cast<uint8_t *>(P.iov_base) + N;
      P.iov_len -= N;
      Left -= N;
      Done += P.iov_len == 0;
    }
    R.publish();
    ringDoorbell(Ch, RingControl::kWaitData);
  }
  return FrameStatus::Ok;
}

} // namespace

//===----------------------------------------------------------------------===//
// The ring pair
//===----------------------------------------------------------------------===//

std::unique_ptr<FrameRing> FrameRing::map(int MemFd, End Which,
                                          std::string &Err) {
  struct stat St;
  if (::fstat(MemFd, &St) < 0 ||
      St.st_size < static_cast<off_t>(kRingRegionBytes)) {
    Err = "ring region missing or too small";
    return nullptr;
  }
  void *Region = ::mmap(nullptr, kRingRegionBytes, PROT_READ | PROT_WRITE,
                        MAP_SHARED, MemFd, 0);
  if (Region == MAP_FAILED) {
    Err = std::string("mmap(ring region): ") + std::strerror(errno);
    return nullptr;
  }
  return std::unique_ptr<FrameRing>(new FrameRing(Region, Which));
}

FrameRing::FrameRing(void *Region, End Which)
    : Region(Region), Ctl(static_cast<RingControl *>(Region)),
      In(static_cast<unsigned>(Which)), Out(1 - In),
      InBytes(static_cast<const uint8_t *>(Region) + kRingControlBytes +
              In * kRingBytes),
      OutBytes(static_cast<uint8_t *>(Region) + kRingControlBytes +
               Out * kRingBytes) {}

FrameRing::~FrameRing() { ::munmap(Region, kRingRegionBytes); }

int64_t FrameRing::readable() const {
  uint64_t Unread = Ctl->Head[In].V.load() - InTail;
  return Unread > kRingBytes ? -1 : static_cast<int64_t>(Unread);
}

void FrameRing::take(void *Buf, size_t Len) {
  size_t At = static_cast<size_t>(InTail % kRingBytes);
  size_t First = std::min(Len, kRingBytes - At);
  std::memcpy(Buf, InBytes + At, First);
  std::memcpy(static_cast<uint8_t *>(Buf) + First, InBytes, Len - First);
  InTail += Len;
  Ctl->Tail[In].V.store(InTail);
}

int64_t FrameRing::writable() const {
  uint64_t Unread = OutHead - Ctl->Tail[Out].V.load();
  if (Unread > kRingBytes)
    return -1;
  return static_cast<int64_t>(kRingBytes - Unread - (OutPut - OutHead));
}

void FrameRing::put(const void *Buf, size_t Len) {
  size_t At = static_cast<size_t>(OutPut % kRingBytes);
  size_t First = std::min(Len, kRingBytes - At);
  std::memcpy(OutBytes + At, Buf, First);
  std::memcpy(OutBytes, static_cast<const uint8_t *>(Buf) + First,
              Len - First);
  OutPut += Len;
}

void FrameRing::publish() {
  OutHead = OutPut;
  Ctl->Head[Out].V.store(OutHead);
}

// End E reads direction E, so Sleeping[In] is this end's flag and
// Sleeping[Out] the peer's.
void FrameRing::setSleeping(uint64_t Why) {
  BellsDue += Why != RingControl::kAwake;
  Ctl->Sleeping[In].V.store(Why);
}

bool FrameRing::acceptBells(size_t N) {
  if (N > BellsDue)
    return false;
  BellsDue -= N;
  return true;
}

bool FrameRing::wakePeer(uint64_t Why) {
  // Sequentially consistent like the position stores before it and the
  // sleeper's flag store and second look: either this load sees the
  // flag, or that look sees the new position.
  uint64_t Flag = Ctl->Sleeping[Out].V.load();
  return Flag == Why && Ctl->Sleeping[Out].V.compare_exchange_strong(
                            Flag, RingControl::kAwake);
}

//===----------------------------------------------------------------------===//
// Payload builders
//===----------------------------------------------------------------------===//

uint8_t *wire::beginPayload(std::string &Out, MsgType Type, size_t BodyBytes) {
  Out.resize(1 + BodyBytes);
  uint8_t *P = reinterpret_cast<uint8_t *>(&Out[0]);
  *P = static_cast<uint8_t>(Type);
  return P + 1;
}

void encodePredict(std::string &Out, const std::vector<uint64_t> &Inputs) {
  const unsigned Width = NarrowArray::widthOf(Inputs, InputId);
  uint8_t *P =
      wire::beginPayload(Out, MsgType::Predict,
                         4 + NarrowArray::bytes(Inputs.size(), Width));
  P = wire::putU32(P, static_cast<uint32_t>(Inputs.size()));
  NarrowArray::put(P, Width, Inputs, InputId);
}

void encodePredictions(std::string &Out,
                       const std::vector<PredictedChoice> &Answers) {
  const size_t N = Answers.size();
  uint32_t Runs = 0;
  for (size_t I = 0; I < N; ++I)
    Runs += I == 0 || Answers[I].Epoch != Answers[I - 1].Epoch;
  const unsigned Width = NarrowArray::widthOf(Answers, LandmarkOf);
  uint8_t *P = wire::beginPayload(Out, MsgType::Predictions,
                                  4 + 4 + 12 * size_t(Runs) +
                                      NarrowArray::bytes(N, Width));
  P = wire::putU32(P, static_cast<uint32_t>(N));
  P = wire::putU32(P, Runs);
  for (size_t I = 0; I < N;) {
    size_t End = I + 1;
    while (End < N && Answers[End].Epoch == Answers[I].Epoch)
      ++End;
    P = wire::putU32(wire::putU64(P, Answers[I].Epoch),
                     static_cast<uint32_t>(End - I));
    I = End;
  }
  NarrowArray::put(P, Width, Answers, LandmarkOf);
}

std::string makeHello(const std::string &Tenant) {
  WireWriter W(MsgType::Hello, strBytes(Tenant));
  W.str(Tenant);
  return W.take();
}

std::string makeHelloRing(const std::string &Tenant) {
  WireWriter W(MsgType::HelloRing, strBytes(Tenant));
  W.str(Tenant);
  return W.take();
}

std::string makePredict(const std::vector<uint64_t> &Inputs) {
  std::string Out;
  encodePredict(Out, Inputs);
  return Out;
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
  std::string Out;
  encodePredictions(Out, Choices);
  return Out;
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
  WireWriter W(MsgType::StatsReply, 4 + wireJsonLen(Json));
  W.json(Json);
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
  // Every field back to a fresh Message's value, the containers keeping
  // their capacity for the next decode into this Message.
  Out.Type = static_cast<MsgType>(Tag);
  Out.Text.clear();
  Out.Inputs.clear();
  Out.Choices.clear();
  Out.Names.clear();
  Out.Epoch = 0;
  Out.Landmarks = 0;
  Out.NumInputs = 0;
  Out.QueueDepth = 0;
  Out.Pid = 0;
  Out.Sessions = 0;
  Out.Tenants.clear();
  switch (Out.Type) {
  case MsgType::Hello:
  case MsgType::HelloRing:
    return R.str(Out.Text) && R.done();
  case MsgType::Predict: {
    uint32_t Count = 0;
    if (!R.u32(Count) || Count == 0 || Count > kMaxBatchInputs)
      return false;
    return NarrowArray::get(R, Count, 8, Out.Inputs, InputId) && R.done();
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
    uint32_t Count = 0, Runs = 0;
    if (!R.u32(Count) || Count > kMaxBatchInputs || !R.u32(Runs) ||
        Runs > Count)
      return false;
    const uint8_t *RunTable = R.array(Runs, 12);
    if (!RunTable)
      return false;
    // Each run is nonempty and differs in epoch from the one before, and
    // the lengths add up to the count: Covered never passes Count.
    uint32_t Covered = 0;
    for (uint32_t K = 0; K < Runs; ++K) {
      const uint8_t *Run = RunTable + 12 * K;
      const uint32_t Len = loadU32(Run + 8);
      if (Len == 0 || Len > Count - Covered ||
          (K > 0 && loadU64(Run) == loadU64(Run - 12)))
        return false;
      Covered += Len;
    }
    if (Covered != Count ||
        !NarrowArray::get(R, Count, 4, Out.Choices, LandmarkOf))
      return false;
    PredictedChoice *C = Out.Choices.data();
    for (uint32_t K = 0; K < Runs; ++K) {
      const uint64_t Epoch = loadU64(RunTable + 12 * K);
      const uint32_t Len = loadU32(RunTable + 12 * K + 8);
      for (PredictedChoice *End = C + Len; C != End; ++C)
        C->Epoch = Epoch;
    }
    return R.done();
  }
  case MsgType::Shed:
    return R.u32(Out.QueueDepth) && R.str(Out.Text) && R.done();
  case MsgType::Error:
    return R.str(Out.Text) && R.done();
  case MsgType::StatsReply:
    return R.json(Out.Text) && R.done();
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

FrameStatus FrameReader::read(const Channel &Ch, std::string &Payload,
                              double DeadlineSeconds, int *PassedFd) {
  // Every failure leaves the stream position lost: drop what is held.
  auto Fail = [this](FrameStatus Status) {
    reset();
    return Status;
  };
  // pullWait's results, mapped for a frame underway.
  auto MidFrame = [](ssize_t N) {
    return N == 0          ? FrameStatus::Truncated
           : N == -2       ? FrameStatus::TimedOut
           : N == kBadRing ? FrameStatus::BadRing
                           : FrameStatus::IoError;
  };

  // Wait, with no deadline, for a frame to start -- unless a previous
  // read already delivered its first bytes. Spin first when this
  // reader's last wait was short; block when the window passes with
  // nothing.
  LastWait = FrameWait::Held;
  if (Begin == End) {
    Begin = End = 0;
    const auto Start = std::chrono::steady_clock::now();
    ssize_t N;
    LastWait = FrameWait::Slept;
    if (PassedFd)
      N = recvWithFd(Ch.Fd, Buf, kBufferBytes, *PassedFd);
    else if (Hot && (N = pullSpin(Ch, Buf, kBufferBytes,
                                  Start + kSpinWindow)) != kNothingYet)
      LastWait = FrameWait::Spun;
    else
      N = pullWait(Ch, Buf, kBufferBytes, nullptr);
    if (N <= 0)
      return Fail(N == kBadRing                   ? FrameStatus::BadRing
                  : N == 0 || errno == ECONNRESET ? FrameStatus::Closed
                                                  : FrameStatus::IoError);
    Hot = LastWait == FrameWait::Spun ||
          std::chrono::steady_clock::now() - Start <= kSpinWindow;
    End = static_cast<size_t>(N);
  }

  // A byte of this frame is held: from here on it must finish in time.
  // The cap (about 31 years) keeps the clock arithmetic from overflowing.
  std::chrono::steady_clock::time_point Deadline;
  if (DeadlineSeconds > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       std::min(DeadlineSeconds, 1e9)));
  const std::chrono::steady_clock::time_point *By =
      DeadlineSeconds > 0 ? &Deadline : nullptr;

  while (End - Begin < 4) {
    if (Begin > 0) { // keep the partial header at the front
      std::memmove(Buf, Buf + Begin, End - Begin);
      End -= Begin;
      Begin = 0;
    }
    ssize_t N = pullWait(Ch, Buf + End, kBufferBytes - End, By);
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
    ssize_t N = pullWait(Ch, &Payload[Got], Len - Got, By);
    if (N <= 0)
      return Fail(MidFrame(N));
    Got += static_cast<size_t>(N);
  }
  return FrameStatus::Ok;
}

FrameStatus writeFrame(const Channel &Ch, const std::string &Payload) {
  if (!Ch.Ring)
    return writeFrame(Ch.Fd, Payload);
  if (Payload.empty() || Payload.size() > kMaxFrameBytes)
    return FrameStatus::TooLarge;
  uint8_t Hdr[4];
  wire::putU32(Hdr, static_cast<uint32_t>(Payload.size()));
  iovec Pieces[2] = {{Hdr, sizeof Hdr},
                     {const_cast<char *>(Payload.data()), Payload.size()}};
  return ringWrite(Ch, Pieces, 2);
}

FrameStatus writeFrame(int Fd, const std::string &Payload, int PassFd) {
  if (Payload.empty() || Payload.size() > kMaxFrameBytes)
    return FrameStatus::TooLarge;
  uint8_t Hdr[4];
  wire::putU32(Hdr, static_cast<uint32_t>(Payload.size()));
  struct iovec Iov[2] = {{Hdr, sizeof(Hdr)},
                         {const_cast<char *>(Payload.data()), Payload.size()}};
  ssize_t N = sendWithFd(Fd, Iov, 2, PassFd);
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

FrameStatus writeRaw(const Channel &Ch, const void *Data, size_t Size) {
  iovec Piece = {const_cast<void *>(Data), Size};
  if (Ch.Ring)
    return ringWrite(Ch, &Piece, Size > 0 ? 1 : 0);
  return writeAll(Ch.Fd, Data, Size) ? FrameStatus::Ok : FrameStatus::IoError;
}

} // namespace daemon
} // namespace pbt
