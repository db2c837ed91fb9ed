//===- daemon/Transport.cpp - stream transports for pbt-serve --------------==//
//
// Part of the pbtuner project.
//
//===----------------------------------------------------------------------===//

#include "daemon/Transport.h"

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pbt {
namespace daemon {

namespace {

void setCloexec(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFD, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFD, Flags | FD_CLOEXEC);
}

void setNodelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

bool parsePort(const std::string &S, uint16_t &Out) {
  if (S.empty() || S.size() > 5)
    return false;
  unsigned long V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<unsigned long>(C - '0');
  }
  if (V > 65535)
    return false;
  Out = static_cast<uint16_t>(V);
  return true;
}

bool fillUnixAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string &Err) {
  Addr = sockaddr_un{};
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path empty or too long: '" + Path + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// Resolves a TCP endpoint to its first usable IPv4/IPv6 address.
/// getaddrinfo blocks, but both listen and connect paths are setup-time.
bool resolveTcp(const Endpoint &E, sockaddr_storage &Addr, socklen_t &Len,
                std::string &Err) {
  addrinfo Hints{};
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_NUMERICSERV;
  addrinfo *Res = nullptr;
  std::string Service = std::to_string(E.Port);
  int RC = ::getaddrinfo(E.Host.c_str(), Service.c_str(), &Hints, &Res);
  if (RC != 0 || !Res) {
    Err = "resolve('" + E.Host + "'): " + ::gai_strerror(RC);
    return false;
  }
  std::memcpy(&Addr, Res->ai_addr, Res->ai_addrlen);
  Len = static_cast<socklen_t>(Res->ai_addrlen);
  ::freeaddrinfo(Res);
  return true;
}

uint16_t boundPort(int Fd) {
  sockaddr_storage SS{};
  socklen_t Len = sizeof(SS);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &Len) < 0)
    return 0;
  if (SS.ss_family == AF_INET)
    return ntohs(reinterpret_cast<sockaddr_in *>(&SS)->sin_port);
  if (SS.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<sockaddr_in6 *>(&SS)->sin6_port);
  return 0;
}

} // namespace

bool parseEndpoint(const std::string &Spec, Endpoint &Out, std::string &Err) {
  Out = Endpoint();
  std::string S = Spec;
  if (S.rfind("tcp:", 0) == 0) {
    S = S.substr(4);
    size_t Colon = S.rfind(':');
    if (Colon == std::string::npos || Colon == 0) {
      Err = "tcp endpoint must be tcp:HOST:PORT: '" + Spec + "'";
      return false;
    }
    Out.K = Endpoint::Kind::Tcp;
    Out.Host = S.substr(0, Colon);
    if (!parsePort(S.substr(Colon + 1), Out.Port)) {
      Err = "bad tcp port in '" + Spec + "'";
      return false;
    }
    return true;
  }
  if (S.rfind("unix:", 0) == 0)
    S = S.substr(5);
  if (S.empty()) {
    Err = "empty endpoint spec";
    return false;
  }
  Out.K = Endpoint::Kind::Unix;
  Out.Path = S;
  return true;
}

std::string endpointString(const Endpoint &E) {
  if (E.K == Endpoint::Kind::Tcp)
    return "tcp:" + E.Host + ":" + std::to_string(E.Port);
  return "unix:" + E.Path;
}

Listener::Listener(Listener &&O) noexcept
    : Fd(O.Fd), Bound(std::move(O.Bound)) {
  O.Fd = -1;
}

Listener &Listener::operator=(Listener &&O) noexcept {
  if (this != &O) {
    close();
    Fd = O.Fd;
    Bound = std::move(O.Bound);
    O.Fd = -1;
  }
  return *this;
}

bool Listener::open(const Endpoint &E, std::string &Err) {
  close();
  Bound = E;
  if (E.K == Endpoint::Kind::Unix) {
    sockaddr_un Addr;
    if (!fillUnixAddr(E.Path, Addr, Err))
      return false;
    Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Err = std::string("socket(unix): ") + std::strerror(errno);
      return false;
    }
    ::unlink(E.Path.c_str()); // stale socket from a crashed predecessor
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      Err = "bind('" + E.Path + "'): " + std::strerror(errno);
      close();
      return false;
    }
  } else {
    sockaddr_storage Addr;
    socklen_t Len = 0;
    if (!resolveTcp(E, Addr, Len, Err))
      return false;
    Fd = ::socket(Addr.ss_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0) {
      Err = std::string("socket(tcp): ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), Len) < 0) {
      Err = "bind('" + endpointString(E) + "'): " + std::strerror(errno);
      close();
      return false;
    }
    Bound.Port = boundPort(Fd); // resolve an ephemeral-port request
  }
  if (::listen(Fd, 64) < 0) {
    Err = std::string("listen(): ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

int Listener::acceptConnection() {
  if (Fd < 0)
    return -1;
  for (;;) {
    int C = ::accept(Fd, nullptr, nullptr);
    if (C < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    setCloexec(C);
    if (Bound.K == Endpoint::Kind::Tcp)
      setNodelay(C);
    return C;
  }
}

void Listener::close() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
  if (Bound.K == Endpoint::Kind::Unix && !Bound.Path.empty())
    ::unlink(Bound.Path.c_str());
}

int createSealedMemory(size_t Bytes, std::string &Err) {
  int Fd = ::memfd_create("pbt-serve-ring", MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (Fd < 0) {
    Err = std::string("memfd_create(): ") + std::strerror(errno);
    return -1;
  }
  if (::ftruncate(Fd, static_cast<off_t>(Bytes)) < 0 ||
      ::fcntl(Fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) < 0) {
    Err = std::string("sizing and sealing shared memory: ") +
          std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

ssize_t sendWithFd(int Fd, const iovec *Iov, int IovCount, int PassFd) {
  msghdr Msg = {};
  Msg.msg_iov = const_cast<iovec *>(Iov);
  Msg.msg_iovlen = static_cast<size_t>(IovCount);
  alignas(cmsghdr) char Control[CMSG_SPACE(sizeof(int))];
  if (PassFd >= 0) {
    std::memset(Control, 0, sizeof Control);
    Msg.msg_control = Control;
    Msg.msg_controllen = sizeof Control;
    cmsghdr *C = CMSG_FIRSTHDR(&Msg);
    C->cmsg_level = SOL_SOCKET;
    C->cmsg_type = SCM_RIGHTS;
    C->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(C), &PassFd, sizeof(int));
  }
  for (;;) {
    ssize_t N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

ssize_t recvWithFd(int Fd, void *Buf, size_t Len, int &PassedFd) {
  PassedFd = -1;
  iovec Iov = {Buf, Len};
  // Room for a few fds, so that a peer passing more than one cannot
  // leave any of them unclosed in this process.
  alignas(cmsghdr) char Control[CMSG_SPACE(4 * sizeof(int))];
  msghdr Msg = {};
  Msg.msg_iov = &Iov;
  Msg.msg_iovlen = 1;
  Msg.msg_control = Control;
  Msg.msg_controllen = sizeof Control;
  ssize_t N;
  do
    N = ::recvmsg(Fd, &Msg, MSG_CMSG_CLOEXEC);
  while (N < 0 && errno == EINTR);
  if (N < 0)
    return N;
  for (cmsghdr *C = CMSG_FIRSTHDR(&Msg); C; C = CMSG_NXTHDR(&Msg, C)) {
    if (C->cmsg_level != SOL_SOCKET || C->cmsg_type != SCM_RIGHTS)
      continue;
    size_t Count = (C->cmsg_len - CMSG_LEN(0)) / sizeof(int);
    for (size_t I = 0; I < Count; ++I) {
      int Got;
      std::memcpy(&Got, CMSG_DATA(C) + I * sizeof(int), sizeof(int));
      if (PassedFd < 0)
        PassedFd = Got;
      else
        ::close(Got);
    }
  }
  return N;
}

int pollTimeoutMs(std::chrono::duration<double, std::milli> Left) {
  double Ms = Left.count();
  if (Ms < 0)
    return 0;
  return Ms >= INT_MAX - 1 ? INT_MAX : static_cast<int>(Ms) + 1;
}

int connectEndpoint(const Endpoint &E, double TimeoutSeconds,
                    std::string &Err) {
  sockaddr_storage Addr{};
  socklen_t AddrLen = 0;
  if (E.K == Endpoint::Kind::Unix) {
    sockaddr_un UA;
    if (!fillUnixAddr(E.Path, UA, Err))
      return -1;
    std::memcpy(&Addr, &UA, sizeof(UA));
    AddrLen = sizeof(UA);
  } else if (!resolveTcp(E, Addr, AddrLen, Err)) {
    return -1;
  }
  int Fd = ::socket(Addr.ss_family, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket(): ") + std::strerror(errno);
    return -1;
  }
  auto Abort = [&](const std::string &Msg) {
    Err = Msg;
    ::close(Fd);
    return -1;
  };
  const std::string Name = endpointString(E);

  // Nonblocking connect + poll bounds the connect itself (a listening
  // socket with a full backlog, or an unroutable host, can otherwise
  // block indefinitely).
  int Flags = 0;
  if (TimeoutSeconds > 0) {
    Flags = ::fcntl(Fd, F_GETFL, 0);
    if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) < 0)
      return Abort(std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno));
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), AddrLen) < 0) {
    if (TimeoutSeconds <= 0 || errno != EINPROGRESS)
      return Abort("connect('" + Name + "'): " + std::strerror(errno));
    // EINTR recomputes the remaining budget and retries; a supervisor's
    // signals must not surface as spurious connect failures.
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(TimeoutSeconds);
    for (;;) {
      auto Now = std::chrono::steady_clock::now();
      if (Now >= Deadline)
        return Abort("connect('" + Name + "'): timed out");
      pollfd PFD{};
      PFD.fd = Fd;
      PFD.events = POLLOUT;
      int Ready = ::poll(&PFD, 1, pollTimeoutMs(Deadline - Now));
      if (Ready < 0) {
        if (errno == EINTR)
          continue;
        return Abort(std::string("poll(): ") + std::strerror(errno));
      }
      if (Ready == 0)
        return Abort("connect('" + Name + "'): timed out");
      break;
    }
    int SockErr = 0;
    socklen_t Len = sizeof(SockErr);
    if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SockErr, &Len) < 0 ||
        SockErr != 0)
      return Abort("connect('" + Name +
                   "'): " + std::strerror(SockErr ? SockErr : errno));
  }
  if (TimeoutSeconds > 0 && ::fcntl(Fd, F_SETFL, Flags) < 0)
    return Abort(std::string("fcntl(restore): ") + std::strerror(errno));
  if (E.K == Endpoint::Kind::Tcp)
    setNodelay(Fd);
  return Fd;
}

} // namespace daemon
} // namespace pbt
