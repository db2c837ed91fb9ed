//===- daemon/Protocol.h - pbt-serve wire protocol -------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol between a pbt-serve daemon and
/// its clients, over a Unix-domain or TCP stream socket, and on a
/// Unix-domain session through a shared-memory ring pair.
///
/// Framing is length-prefixed: every message is a 4-byte little-endian
/// payload length (1 .. kMaxFrameBytes) followed by that many payload
/// bytes. The payload is one tag byte (MsgType) and a little-endian body
/// laid out per type (see MsgType); strings travel as a 2-byte length plus
/// bytes, except a StatsReply's JSON, which has a 4-byte length.
/// Decoding is strict and total: every read is bounds-checked,
/// every count is capped before any allocation sizes off it, and a
/// payload must be consumed exactly -- truncated frames, oversized
/// lengths, trailing garbage and unknown tags all decode to a clean
/// failure, never a crash, over-read, or huge allocation. That is the
/// property the daemon fuzz wall (tests/daemon/) hammers on.
///
/// The frames travel over a Channel: a connected socket, or a ring pair
/// with the socket kept as its doorbell. A session starts on its socket.
/// A client on a Unix-domain socket attaches with HelloRing instead of
/// Hello; the daemon then creates a sealed shared-memory region (one
/// FrameRing per direction, kRingRegionBytes in all) and passes its fd
/// with the TenantOk reply (SCM_RIGHTS). From the next frame on, both
/// ends move every frame through the rings, and the same bytes -- length
/// prefix and payload -- go through the same FrameReader and decoders.
/// A frame larger than a ring streams through it in pieces. TCP sessions
/// never ask, and keep their frames on the socket.
///
/// On a socket, framed IO costs one syscall per frame each way in the
/// common case. writeFrame gathers the header and the payload into one
/// sendmsg (two iovecs, no copy). A FrameReader, held per connection,
/// pulls up to FrameReader::kBufferBytes per recv, so a whole request or
/// reply arrives in one recv, and bytes of a following frame stay
/// buffered for the next read. A socket Predict round trip is thus four
/// syscalls when nobody waits. On a ring it is none: a frame is a copy
/// into shared memory and one position store, and a reader that finds
/// its ring empty spins on it before it sleeps (FrameReader::read). A
/// reader that does sleep says so in the shared region first, and only
/// then does the writer send the one-byte doorbell on the socket that
/// wakes it. A peer that closes or dies closes the socket, which ends
/// every sleep.
///
/// The two bodies of the Predict round trip are narrow, since their bytes
/// are most of what a warm round trip moves. Each ends with a narrow
/// integer array: a width byte W, then each value as a W-byte
/// little-endian integer, W the narrowest of 2, 4 or 8 bytes that holds
/// the largest value (a landmark never needs 8). A reply's epochs travel
/// once per run of equal epochs, not once per answer: a frozen tenant's
/// batch is one run, and an adapting tenant that swaps mid-batch sends
/// one more run per swap. A 64-input Predict over a universe of fewer
/// than 65,536 inputs is a 134-byte payload and its one-run reply 150
/// bytes, 292 bytes both ways with their length prefixes. There is no
/// version negotiation: client and daemon must come from the same build.
///
/// Neither end allocates a buffer per Predict once warm: the server's
/// session and the client each keep their request, reply and decoded
/// Message, the Predict and Predictions payloads are encoded into those
/// kept buffers (encodePredict, encodePredictions), and decodeMessage
/// refills a Message without dropping its capacity.
///
/// A session speaks: Hello (attach to a tenant by name), then any mix of
/// Predict (a batch of input ids answered by Predictions, or Shed when
/// the server's bounded request queue is full), Stats, ListTenants, and
/// Shutdown. The server answers exactly one response frame per request
/// frame, always.
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_PROTOCOL_H
#define PBT_DAEMON_PROTOCOL_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace pbt {
namespace daemon {

/// Hard cap on one frame's payload; a length prefix above this is a
/// protocol violation and the connection is dropped without allocating.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;
/// Cap on a string field (tenant names, error messages) on the wire; a
/// StatsReply's JSON is bounded by kMaxFrameBytes instead.
inline constexpr uint32_t kMaxStringBytes = 1u << 12;
/// Cap on input ids per Predict request.
inline constexpr uint32_t kMaxBatchInputs = 1u << 16;

enum class MsgType : uint8_t {
  // Client -> server.
  Hello = 0x01,       ///< str tenant -- attach this session to a tenant
  Predict = 0x02,     ///< u32 count, u8 width, count x width-byte input
                      ///< id (width 2, 4 or 8; see file comment)
  Stats = 0x03,       ///< no body -- server + per-tenant stats as JSON
  ListTenants = 0x04, ///< no body
  Shutdown = 0x05,    ///< no body -- ask the daemon to exit cleanly
  Ping = 0x06,        ///< no body -- liveness probe, answered by Health
  HelloRing = 0x07,   ///< str tenant -- Hello, and move a Unix-domain
                      ///< session onto a ring pair (see file comment)
  // Server -> client.
  TenantOk = 0x81,    ///< u64 epoch, u32 landmarks, u64 inputs
  Predictions = 0x82, ///< u32 count, u32 runs, runs x (u64 epoch, u32
                      ///< length), u8 width, count x width-byte landmark
                      ///< (width 2 or 4). The runs are the maximal spans
                      ///< of answers with one epoch, in order.
  Shed = 0x83,        ///< u32 queue depth, str reason -- admission refusal
  Error = 0x84,       ///< str message
  StatsReply = 0x85,  ///< u32 length + JSON bytes (bounded by the frame
                      ///< cap, not kMaxStringBytes: it grows per tenant)
  TenantList = 0x86,  ///< u32 count, count x str
  Bye = 0x87,         ///< shutdown acknowledged
  Health = 0x88,      ///< u64 pid, u32 sessions, u32 count, count x
                      ///< (str tenant, u64 service epoch, u64 store epoch)
};

/// One answered input of a Predict batch.
struct PredictedChoice {
  uint32_t Landmark = 0;
  uint64_t Epoch = 0;
};

/// One tenant's liveness line in a Health reply. The store epoch lets a
/// supervisor check that a replica has converged onto the model store's
/// CURRENT pointer; the service epoch distinguishes in-process hot-swaps.
struct TenantHealth {
  std::string Name;
  uint64_t ServiceEpoch = 0;
  uint64_t StoreEpoch = 0;
};

/// A decoded payload: the tag plus whichever fields its type carries.
/// decodeMessage resets every field before it fills the ones its type
/// carries, keeping the containers' capacity, so one Message can be
/// decoded into for a session's whole life. A new field must be reset
/// there too.
struct Message {
  MsgType Type = MsgType::Error;
  /// Hello or HelloRing tenant / Shed reason / Error message /
  /// StatsReply JSON.
  std::string Text;
  /// Predict input ids.
  std::vector<uint64_t> Inputs;
  /// Predictions.
  std::vector<PredictedChoice> Choices;
  /// TenantList names.
  std::vector<std::string> Names;
  /// TenantOk.
  uint64_t Epoch = 0;
  uint32_t Landmarks = 0;
  uint64_t NumInputs = 0;
  /// Shed.
  uint32_t QueueDepth = 0;
  /// Health.
  uint64_t Pid = 0;
  uint32_t Sessions = 0;
  std::vector<TenantHealth> Tenants;
};

/// Strict payload decode (see file comment). Returns false -- with \p Out
/// unspecified -- on any malformed payload. On success \p Out equals a
/// decode into a fresh Message, whatever it held before.
bool decodeMessage(const uint8_t *Data, size_t Size, Message &Out);
inline bool decodeMessage(const std::string &Payload, Message &Out) {
  return decodeMessage(reinterpret_cast<const uint8_t *>(Payload.data()),
                       Payload.size(), Out);
}

// Payload builders, one per message type.
std::string makeHello(const std::string &Tenant);
std::string makeHelloRing(const std::string &Tenant);
std::string makePredict(const std::vector<uint64_t> &Inputs);
std::string makeStats();
std::string makeListTenants();
std::string makeShutdown();
std::string makePing();
std::string makeTenantOk(uint64_t Epoch, uint32_t Landmarks,
                         uint64_t NumInputs);
std::string makePredictions(const std::vector<PredictedChoice> &Choices);
std::string makeShed(uint32_t QueueDepth, const std::string &Reason);
std::string makeError(const std::string &Message);
std::string makeStatsReply(const std::string &Json);
std::string makeTenantList(const std::vector<std::string> &Names);
std::string makeBye();
std::string makeHealth(uint64_t Pid, uint32_t Sessions,
                       const std::vector<TenantHealth> &Tenants);

//===----------------------------------------------------------------------===//
// Encoding into a reused buffer
//===----------------------------------------------------------------------===//
//
// The Predict round trip's two payloads are encoded into a buffer the
// caller keeps, so a session or a client that sends them over and over
// reuses one allocation.

namespace wire {

/// Little-endian stores through a raw pointer, each one word store (a
/// byte swap first on a big-endian host). Each returns the byte past
/// what it wrote. Byte-wise shifts would be portable too, but GCC 12
/// then merged neighbouring fields into one word assembled byte by byte,
/// which about doubled the time to encode 64 choices (x86-64, Release
/// build).
inline uint8_t *putU16(uint8_t *P, uint16_t V) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap16(V);
#endif
  std::memcpy(P, &V, sizeof V);
  return P + sizeof V;
}

inline uint8_t *putU32(uint8_t *P, uint32_t V) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap32(V);
#endif
  std::memcpy(P, &V, sizeof V);
  return P + sizeof V;
}

inline uint8_t *putU64(uint8_t *P, uint64_t V) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  V = __builtin_bswap64(V);
#endif
  std::memcpy(P, &V, sizeof V);
  return P + sizeof V;
}

/// Sizes \p Out to a \p Type payload with a \p BodyBytes body, keeping
/// its capacity, writes the tag, and returns the body's first byte.
uint8_t *beginPayload(std::string &Out, MsgType Type, size_t BodyBytes);

} // namespace wire

/// The Predict payload for \p Inputs, into \p Out.
void encodePredict(std::string &Out, const std::vector<uint64_t> &Inputs);

/// The Predictions payload answering with \p Answers, into \p Out: the
/// one Predictions encoder. A server session keeps one answer buffer,
/// which AdaptiveService::serveAnswers fills in place, and encodes it
/// from there.
void encodePredictions(std::string &Out,
                       const std::vector<PredictedChoice> &Answers);

//===----------------------------------------------------------------------===//
// The ring pair of a Unix-domain session
//===----------------------------------------------------------------------===//

/// Bytes of each direction's ring. A 64-input Predict and its reply
/// (138 and 154 bytes with their length prefixes) fit many times over;
/// a larger frame, up to kMaxFrameBytes, streams through in pieces.
inline constexpr size_t kRingBytes = size_t(16) << 10;
/// The control page at the start of a session's shared region.
inline constexpr size_t kRingControlBytes = 4096;
/// A session's shared region: the control page, then the
/// client-to-server ring, then the server-to-client ring.
inline constexpr size_t kRingRegionBytes = kRingControlBytes + 2 * kRingBytes;

/// A shared word alone on its cache line, so that the two ends' stores
/// never contend for a line.
struct alignas(64) RingWord {
  std::atomic<uint64_t> V;
};
static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "ring positions are shared between processes");

/// The control page. Direction 0 carries client-to-server bytes,
/// direction 1 server-to-client bytes. Head[D] counts the bytes ever
/// written into direction D and is stored only by its writer; Tail[D]
/// counts the bytes ever read out of it and is stored only by its
/// reader. Sleeping[E] is stored by end E (0 server, 1 client) before it
/// blocks on the socket: kWaitData while it waits for bytes to read,
/// kWaitSpace while it waits for room to write. The peer that changes
/// what E waits for clears the flag and sends the doorbell.
///
/// Each end keeps its own positions in private memory and checks every
/// value the peer can store: a Head more than kRingBytes past its own
/// Tail, or a Tail that leaves more than kRingBytes unread behind its own
/// Head, is not a position (FrameStatus::BadRing). More doorbell bytes
/// on the socket than this end stored waiting flags is a broken ring
/// too (FrameRing::acceptBells): the peer clears a flag when it rings
/// it. The region is sealed against resizing, so a peer cannot make the
/// mapping's pages vanish.
struct RingControl {
  static constexpr uint64_t kAwake = 0, kWaitData = 1, kWaitSpace = 2;
  RingWord Head[2];
  RingWord Tail[2];
  RingWord Sleeping[2];
};
static_assert(sizeof(RingControl) <= kRingControlBytes,
              "the ring control words fit their page");

/// One end's view of a session's mapped ring pair: it reads the
/// direction that comes to it and writes the other. Not thread-safe:
/// one session thread, or one client, drives an end.
class FrameRing {
public:
  enum class End : unsigned { Server = 0, Client = 1 };

  /// Maps the region behind \p MemFd (at least kRingRegionBytes, made by
  /// createSealedMemory) as end \p Which. Null, with \p Err set, when it
  /// cannot be mapped. The caller may close \p MemFd afterwards.
  static std::unique_ptr<FrameRing> map(int MemFd, End Which,
                                        std::string &Err);
  ~FrameRing();
  FrameRing(const FrameRing &) = delete;
  FrameRing &operator=(const FrameRing &) = delete;

  /// Bytes the peer has published and this end has not read yet, or -1
  /// when the peer's Head is not a position.
  int64_t readable() const;
  /// Copies \p Len <= readable() bytes out and publishes their space.
  void take(void *Buf, size_t Len);
  /// Bytes this end may still put, or -1 when the peer's Tail is not a
  /// position.
  int64_t writable() const;
  /// Copies \p Len <= writable() bytes in, unpublished.
  void put(const void *Buf, size_t Len);
  /// Publishes every byte put since the last publish.
  void publish();
  /// Stores this end's Sleeping flag (RingControl::kAwake, kWaitData or
  /// kWaitSpace). Each store of a waiting flag lets the peer send one
  /// more doorbell byte.
  void setSleeping(uint64_t Why);
  /// Counts \p N doorbell bytes received: false when they exceed what
  /// this end's flag stores let the peer send. A peer that wakes this
  /// end clears its flag, so an honest one sends at most one byte per
  /// store; more is a peer flooding the socket to keep this end awake.
  bool acceptBells(size_t N);
  /// Whether the peer sleeps waiting for \p Why; if so, clears its flag,
  /// and the caller owes it one doorbell byte.
  bool wakePeer(uint64_t Why);

  /// The shared control page (tests scribble on it as a hostile peer).
  RingControl &control() { return *Ctl; }

private:
  FrameRing(void *Region, End Which);

  void *Region;
  RingControl *Ctl;
  /// The direction this end reads (its End's number) and the one it
  /// writes.
  unsigned In, Out;
  const uint8_t *InBytes;
  uint8_t *OutBytes;
  /// This end's own positions: read so far, published so far, put so far.
  uint64_t InTail = 0, OutHead = 0, OutPut = 0;
  /// Doorbell bytes the peer may still send (acceptBells).
  uint64_t BellsDue = 0;
};

/// Where a session's frames travel: the connected socket \p Fd, or, once
/// Ring is set, the ring pair, with Fd left as the doorbell and as the
/// session's lifetime.
struct Channel {
  int Fd = -1;
  FrameRing *Ring = nullptr;
};

//===----------------------------------------------------------------------===//
// Framed blocking IO over a Channel
//===----------------------------------------------------------------------===//

enum class FrameStatus {
  Ok,       ///< one whole frame read/written
  Closed,   ///< orderly EOF before any byte of a frame
  Truncated,///< peer vanished mid-frame
  TooLarge, ///< length prefix exceeds kMaxFrameBytes (or is zero)
  IoError,  ///< errno-level failure
  TimedOut, ///< frame started but did not finish within the deadline
  BadRing,  ///< the peer stored a ring position that is not one
};

/// How a FrameReader::read got the first bytes of its frame.
enum class FrameWait {
  Held,  ///< already buffered by an earlier recv: no wait
  Spun,  ///< arrived while the reader polled its channel
  Slept, ///< arrived after the reader blocked on its socket
};

/// Per-connection buffered frame reader. Holds at most kBufferBytes
/// read from its channel and never grows: a frame larger than what the
/// buffer holds is finished by reading straight into the payload.
/// Bytes past the end of a frame (a pipelined next frame) stay held for
/// the next read(). One reader per connection, reset on connect and
/// close; not thread-safe.
class FrameReader {
public:
  static constexpr size_t kBufferBytes = 4096;
  /// How long read() polls for a frame to start before it blocks.
  static constexpr std::chrono::microseconds kSpinWindow{20};

  /// Reads one length-prefixed frame from \p Ch into \p Payload, never
  /// allocating more than kMaxFrameBytes.
  ///
  /// Waiting for a frame to *start* has no deadline -- an idle session
  /// is legitimate -- and is spin-then-block. The reader first polls its
  /// channel for kSpinWindow (nonblocking recvs on a socket, loads of
  /// the peer's Head on a ring), then blocks. On a socket it blocks in
  /// recv. On a ring it stores its Sleeping flag, looks at the ring once
  /// more, and only then blocks in recv on the socket for the doorbell,
  /// so a frame the peer publishes at any moment either is seen by that
  /// second look or finds the flag and rings. A closed-loop peer's next
  /// frame usually lands while this thread still runs on its core, so
  /// the round trip pays no scheduler wake-up for it. Two rules keep the
  /// spin to where it pays:
  ///  - the gate: a reader spins only if its previous wait for a frame
  ///    start ended within kSpinWindow (a fresh reader spins once), so
  ///    an idle or slow peer costs no CPU after its first wait; its
  ///    owner can also skip the next spin when it has seen the peer is
  ///    busy (skipNextSpin);
  ///  - contention: a spin ends as soon as more threads are runnable on
  ///    the host than it has hardware threads (Linux's running count,
  ///    sampled at most once a millisecond per process), so it never
  ///    holds a core that runnable work is waiting for. Spinning threads
  ///    count as running, so the rule also bounds how many spin at once.
  ///
  /// Once any byte of the frame is held (a leftover byte counts), the
  /// rest must arrive within \p DeadlineSeconds or the read fails with
  /// TimedOut, so a peer that stalls mid-frame cannot pin the reading
  /// thread. DeadlineSeconds <= 0 means no deadline. Any status but Ok
  /// drops the held bytes: the stream position is lost.
  ///
  /// With \p PassedFd set (a socket only), the wait for the frame start
  /// is one blocking recvmsg that also takes a file descriptor passed
  /// with the frame's first bytes, or leaves -1 there: a HelloRing's
  /// TenantOk carries the ring region this way.
  FrameStatus read(const Channel &Ch, std::string &Payload,
                   double DeadlineSeconds = 0, int *PassedFd = nullptr);

  /// Drops every held byte.
  void reset() { Begin = End = 0; }
  /// Bytes held past the last frame returned.
  size_t buffered() const { return End - Begin; }
  /// Makes the next wait for a frame start block without spinning, for
  /// a caller that has seen its peer is busy (a Shed reply, a Predict
  /// that queued for a slot). A short wait arms the spin again.
  void skipNextSpin() { Hot = false; }
  /// How the last Ok read() got its frame's first bytes.
  FrameWait lastWait() const { return LastWait; }

private:
  uint8_t Buf[kBufferBytes];
  size_t Begin = 0, End = 0;
  /// The last wait for a frame start ended within kSpinWindow.
  bool Hot = true;
  FrameWait LastWait = FrameWait::Held;
};

/// Writes one length-prefixed frame. On a socket, header and payload go
/// in one gathered sendmsg, with \p PassFd (when >= 0) attached as
/// SCM_RIGHTS; a short write is finished by a send loop. On a ring,
/// both are copied in and published at once; a ring that fills waits
/// for the reader the way read() waits for bytes, without a deadline,
/// as a socket send does. A peer that disappeared mid-write is IoError,
/// never SIGPIPE.
FrameStatus writeFrame(const Channel &Ch, const std::string &Payload);
FrameStatus writeFrame(int Fd, const std::string &Payload, int PassFd = -1);

/// Writes \p Size raw bytes, with no framing, through \p Ch (the fuzz
/// wall's hostile client).
FrameStatus writeRaw(const Channel &Ch, const void *Data, size_t Size);

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_PROTOCOL_H
