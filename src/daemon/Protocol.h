//===- daemon/Protocol.h - pbt-serve wire protocol -------------------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol between a pbt-serve daemon and
/// its clients, over a Unix-domain stream socket.
///
/// Framing is length-prefixed: every message is a 4-byte little-endian
/// payload length (1 .. kMaxFrameBytes) followed by that many payload
/// bytes. The payload is one tag byte (MsgType) and a fixed
/// little-endian body per type; strings travel as a 2-byte length plus
/// bytes, except a StatsReply's JSON, which has a 4-byte length.
/// Decoding is strict and total: every read is bounds-checked,
/// every count is capped before any allocation sizes off it, and a
/// payload must be consumed exactly -- truncated frames, oversized
/// lengths, trailing garbage and unknown tags all decode to a clean
/// failure, never a crash, over-read, or huge allocation. That is the
/// property the daemon fuzz wall (tests/daemon/) hammers on.
///
/// Framed IO costs one syscall per frame each way in the common case.
/// writeFrame gathers the header and the payload into one sendmsg (two
/// iovecs, no copy). A FrameReader, held per connection, pulls up to
/// FrameReader::kBufferBytes per recv, so a whole request or reply --
/// a 64-input Predict is 521 B, its Predictions 777 B -- arrives in one
/// recv, and bytes of a following frame stay buffered for the next
/// read. A Predict round trip is thus four socket syscalls when nobody
/// waits: the client's sendmsg and recv, and the server's recv and
/// sendmsg. A reader that does wait for a frame to start spins a few
/// nonblocking recvs first (FrameReader::read), so a closed-loop peer's
/// next frame usually costs no scheduler wake-up.
///
/// Neither end allocates a buffer per Predict once warm: the server's
/// session and the client each keep their request, reply and decoded
/// Message, the Predict and Predictions payloads are encoded into those
/// kept buffers (encodePredict, encodePredictions), and decodeMessage
/// refills a Message without dropping its capacity. On traced
/// `serve-warm` runs (perfbench `--trace 1`, eight seeds, 4-core x86 VM)
/// the median `daemon.codec_us` -- one 64-input Predict and its reply
/// built and decoded -- went from 1.24 to 0.98 us, `runtime.decide_us`
/// from 3.99 to 1.99 us and `daemon.residual_us` from 23.9 to 17.8 us.
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

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
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
  Predict = 0x02,     ///< u32 count, count x u64 input id
  Stats = 0x03,       ///< no body -- server + per-tenant stats as JSON
  ListTenants = 0x04, ///< no body
  Shutdown = 0x05,    ///< no body -- ask the daemon to exit cleanly
  Ping = 0x06,        ///< no body -- liveness probe, answered by Health
  // Server -> client.
  TenantOk = 0x81,    ///< u64 epoch, u32 landmarks, u64 inputs
  Predictions = 0x82, ///< u32 count, count x (u32 landmark, u64 epoch)
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
  /// Hello tenant / Shed reason / Error message / StatsReply JSON.
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
/// then merges a choice's landmark with half of its epoch into one word
/// assembled byte by byte, which about doubled the time to encode 64
/// choices (x86-64, Release build).
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
/// which AdaptiveService::decideAnswers fills in place (or, under --adapt,
/// AdaptiveService::serveAnswers), and encodes it from there.
void encodePredictions(std::string &Out,
                       const std::vector<PredictedChoice> &Answers);

//===----------------------------------------------------------------------===//
// Framed blocking IO over a connected socket fd
//===----------------------------------------------------------------------===//

enum class FrameStatus {
  Ok,       ///< one whole frame read/written
  Closed,   ///< orderly EOF before any byte of a frame
  Truncated,///< peer vanished mid-frame
  TooLarge, ///< length prefix exceeds kMaxFrameBytes (or is zero)
  IoError,  ///< errno-level failure
  TimedOut, ///< frame started but did not finish within the deadline
};

/// How a FrameReader::read got the first bytes of its frame.
enum class FrameWait {
  Held,  ///< already buffered by an earlier recv: no wait
  Spun,  ///< arrived while the reader polled the socket
  Slept, ///< arrived in the blocking recv
};

/// Per-connection buffered frame reader. Holds at most kBufferBytes
/// read from its socket and never grows: a frame larger than what the
/// buffer holds is finished by reading straight into the payload.
/// Bytes past the end of a frame (a pipelined next frame) stay held for
/// the next read(). One reader per connection, reset on connect and
/// close; not thread-safe.
class FrameReader {
public:
  static constexpr size_t kBufferBytes = 4096;
  /// How long read() polls for a frame to start before it blocks.
  static constexpr std::chrono::microseconds kSpinWindow{20};

  /// Reads one length-prefixed frame from \p Fd into \p Payload, never
  /// allocating more than kMaxFrameBytes.
  ///
  /// Waiting for a frame to *start* has no deadline -- an idle session
  /// is legitimate -- and is spin-then-block. The reader first polls
  /// the socket with nonblocking recvs for kSpinWindow, then falls back
  /// to one blocking recv. A closed-loop peer's next frame then usually
  /// lands while this thread still runs on its core, so the round trip
  /// pays no scheduler wake-up for it. Three rules keep the spin to
  /// where it pays:
  ///  - the gate: a reader spins only if its previous wait for a frame
  ///    start ended within kSpinWindow (a fresh reader spins once), so
  ///    an idle or slow peer costs no CPU after its first wait; its
  ///    owner can also skip the next spin when it has seen the peer is
  ///    busy (skipNextSpin);
  ///  - the cap: at most max(1, hardware threads / 4) readers of one
  ///    process spin at once, so a client and a server on one host
  ///    spin on at most half its cores between them; a reader over the
  ///    cap blocks at once;
  ///  - contention: a spin ends as soon as more threads are runnable on
  ///    the host than it has hardware threads (Linux's running count,
  ///    sampled at most once a millisecond per process), so it never
  ///    holds a core that runnable work is waiting for.
  ///
  /// Once any byte of the frame is held (a leftover byte counts), the
  /// rest must arrive within \p DeadlineSeconds or the read fails with
  /// TimedOut, so a peer that stalls mid-frame cannot pin the reading
  /// thread. DeadlineSeconds <= 0 means no deadline. Any status but Ok
  /// drops the held bytes: the stream position is lost.
  FrameStatus read(int Fd, std::string &Payload, double DeadlineSeconds = 0);

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

/// Writes one length-prefixed frame: header and payload in one gathered
/// sendmsg; a short write is finished by a send loop. A peer that
/// disappeared mid-write is IoError, never SIGPIPE.
FrameStatus writeFrame(int Fd, const std::string &Payload);

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_PROTOCOL_H
