//===- daemon/Transport.h - stream transports for pbt-serve ----------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transport abstraction under the framed Protocol: the same
/// length-prefixed frames travel over either a Unix-domain stream socket
/// (co-located clients, the PR 7 default) or a TCP socket (cross-host
/// fleets and supervised replica processes).
///
/// Endpoints are spelled as strings so CLI flags, port files and client
/// endpoint lists stay uniform:
///
///   unix:/path/to.sock   explicit Unix-domain socket
///   /path/to.sock        bare path, Unix-domain (back-compat)
///   tcp:HOST:PORT        TCP; HOST resolves via getaddrinfo, PORT 0
///                        binds an ephemeral port (read it back from
///                        Listener::bound())
///
/// All fds are opened close-on-exec: a supervisor fork/execs replicas,
/// and listener or client fds must never leak into a child server.
///
/// A Unix-domain session can also move its frames onto shared memory
/// (daemon/Protocol.h): the daemon creates the region here
/// (createSealedMemory) and passes its fd over the socket
/// (sendWithFd, recvWithFd).
///
//===----------------------------------------------------------------------===//

#ifndef PBT_DAEMON_TRANSPORT_H
#define PBT_DAEMON_TRANSPORT_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include <sys/types.h>
#include <sys/uio.h>

namespace pbt {
namespace daemon {

/// A parsed listen/connect address for either transport.
struct Endpoint {
  enum class Kind { Unix, Tcp };
  Kind K = Kind::Unix;
  std::string Path; ///< Unix: socket path.
  std::string Host; ///< Tcp: hostname or numeric address.
  uint16_t Port = 0; ///< Tcp: port; 0 asks the kernel for one.
};

/// Parses an endpoint spec (see file comment). Returns false with \p Err
/// set on a malformed spec (empty path, non-numeric or out-of-range
/// port, missing host).
bool parseEndpoint(const std::string &Spec, Endpoint &Out, std::string &Err);

/// Canonical string form ("unix:/path" or "tcp:host:port"); parses back
/// to an equal endpoint.
std::string endpointString(const Endpoint &E);

/// A bound, listening stream socket on either transport. Not copyable;
/// closing unlinks a Unix socket path it bound.
class Listener {
public:
  Listener() = default;
  ~Listener() { close(); }
  Listener(const Listener &) = delete;
  Listener &operator=(const Listener &) = delete;
  Listener(Listener &&O) noexcept;
  Listener &operator=(Listener &&O) noexcept;

  /// socket/bind/listen. TCP sets SO_REUSEADDR and resolves an ephemeral
  /// port request, so bound() always carries the real port.
  bool open(const Endpoint &E, std::string &Err);

  /// Accepts one pending connection: returns a connected CLOEXEC fd, or
  /// -1 if nothing was pending or the listener is closed. Retries EINTR;
  /// TCP connections get TCP_NODELAY (small framed RPCs).
  int acceptConnection();

  int fd() const { return Fd; }
  bool valid() const { return Fd >= 0; }
  /// The endpoint actually bound (TCP port resolved).
  const Endpoint &bound() const { return Bound; }

  void close();

private:
  int Fd = -1;
  Endpoint Bound;
};

/// Connects to \p E with a wall-clock timeout: nonblocking connect plus
/// poll, EINTR-safe, CLOEXEC, TCP_NODELAY for TCP. Returns a connected
/// blocking fd, or -1 with \p Err set.
int connectEndpoint(const Endpoint &E, double TimeoutSeconds,
                    std::string &Err);

/// A shared-memory file of \p Bytes for one session's ring pair:
/// memfd_create (close-on-exec), sized, then sealed against shrinking,
/// growing and further sealing, so a peer that maps it can never make a
/// mapping's pages vanish under the other end (SIGBUS). Its fd, or -1
/// with \p Err set.
int createSealedMemory(size_t Bytes, std::string &Err);

/// One sendmsg of \p Iov on socket \p Fd, with \p PassFd attached as
/// SCM_RIGHTS when it is >= 0. EINTR is retried and a vanished peer is
/// -1, never SIGPIPE. Returns the bytes sent (possibly short) or -1.
ssize_t sendWithFd(int Fd, const iovec *Iov, int IovCount, int PassFd);

/// One blocking recvmsg of up to \p Len bytes that also takes a file
/// descriptor passed with them (close-on-exec) into \p PassedFd, or -1
/// there when none came; any further passed fds are closed. EINTR is
/// retried. Returns the byte count (0 = EOF) or -1.
ssize_t recvWithFd(int Fd, void *Buf, size_t Len, int &PassedFd);

/// The poll() timeout for a wait of \p Left: whole milliseconds rounded
/// up, so the wait never ends before its deadline, and clamped to
/// INT_MAX, so a deadline weeks away cannot wrap into poll's negative
/// "wait forever".
int pollTimeoutMs(std::chrono::duration<double, std::milli> Left);

} // namespace daemon
} // namespace pbt

#endif // PBT_DAEMON_TRANSPORT_H
