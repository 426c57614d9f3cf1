//===- net/TcpTransport.cpp - Loopback TCP transport backend ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/TcpTransport.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace adore;
using namespace adore::net;

namespace {

/// The one place the POSIX sockaddr aliasing contract is honored.
/// adore_lint allowlists this file for decode-cast: the cast converts
/// an address we built, not untrusted bytes we received.
sockaddr *asSockaddr(sockaddr_in &A) {
  return reinterpret_cast<sockaddr *>(&A);
}

sockaddr_in loopbackAddr(uint16_t Port) {
  sockaddr_in A;
  std::memset(&A, 0, sizeof(A));
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  A.sin_port = htons(Port);
  return A;
}

void setNoDelay(int Fd) {
  int One = 1;
  (void)setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// writev batches at most this many queued frames per syscall.
constexpr int MaxIov = 64;

} // namespace

TcpTransport::TcpTransport(TcpTransportOptions Opts) : Opts(Opts) {}

TcpTransport::~TcpTransport() {
  std::vector<Endpoint *> All;
  {
    sync::MutexLock Lock(RegMu);
    for (auto &KV : Registry)
      All.push_back(KV.second.get());
  }
  for (Endpoint *E : All) {
    {
      sync::MutexLock Lock(E->Mu);
      E->Stop = true;
    }
    wake(*E);
  }
  for (Endpoint *E : All)
    if (E->Loop.joinable())
      E->Loop.join();
  for (Endpoint *E : All) {
    sync::MutexLock Lock(E->Mu);
    if (E->ListenFd >= 0)
      (void)::close(E->ListenFd);
    for (const auto &KV : E->Inbounds)
      (void)::close(KV.first);
    E->Inbounds.clear();
    if (E->Out.Fd >= 0)
      (void)::close(E->Out.Fd);
    (void)::close(E->WakeFd);
    (void)::close(E->EpollFd);
  }
}

uint64_t TcpTransport::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void TcpTransport::wake(const Endpoint &E) {
  uint64_t One = 1;
  (void)!::write(E.WakeFd, &One, sizeof(One));
}

TcpTransport::Endpoint *TcpTransport::find(NodeId Id) const {
  sync::MutexLock Lock(RegMu);
  auto It = Registry.find(Id);
  return It == Registry.end() ? nullptr : It->second.get();
}

void TcpTransport::attach(NodeId Id, Handler H) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return;
  sockaddr_in A = loopbackAddr(0);
  if (::bind(Fd, asSockaddr(A), sizeof(A)) != 0 || ::listen(Fd, 128) != 0) {
    (void)::close(Fd);
    return;
  }
  socklen_t Len = sizeof(A);
  (void)::getsockname(Fd, asSockaddr(A), &Len);
  uint16_t Port = ntohs(A.sin_port);

  Endpoint *E;
  {
    sync::MutexLock Lock(RegMu);
    std::unique_ptr<Endpoint> &Slot = Registry[Id];
    if (!Slot) {
      Slot = std::make_unique<Endpoint>();
      Slot->Id = Id;
      Slot->EpollFd = epoll_create1(EPOLL_CLOEXEC);
      Slot->WakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      epoll_event Ev{};
      Ev.events = EPOLLIN;
      Ev.data.fd = Slot->WakeFd;
      (void)epoll_ctl(Slot->EpollFd, EPOLL_CTL_ADD, Slot->WakeFd, &Ev);
      Endpoint *New = Slot.get();
      Slot->Loop = std::thread([this, New] { loop(*New); });
    }
    E = Slot.get();
  }

  sync::MutexLock Lock(E->Mu);
  // Replacing an endpoint retires its old listener; established inbound
  // connections keep delivering (to the new handler — the destination
  // id is what names them). The thread touches the listener only under
  // Mu, so closing it here cannot race an accept.
  if (E->ListenFd >= 0)
    (void)::close(E->ListenFd); // close() drops it from epoll.
  E->ListenFd = Fd;
  E->Port = Port;
  E->Deliver = std::move(H);
  E->Attached = true;
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = Fd;
  (void)epoll_ctl(E->EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
}

void TcpTransport::detach(NodeId Id) {
  Endpoint *E = find(Id);
  if (!E)
    return;
  sync::MutexLock Lock(E->Mu);
  if (E->Stop)
    return; // Thread gone; the dtor closes everything.
  if (E->Attached) {
    E->Attached = false;
    E->Deliver = nullptr;
    (void)::close(E->ListenFd);
    E->ListenFd = -1;
    E->Port = 0;
    // The outgoing connection toward it, and anything still queued, are
    // dropped (datagram semantics); a later re-attach re-dials fresh.
    Peer &P = E->Out;
    if (P.Fd >= 0)
      (void)::close(P.Fd);
    FramesDropped.fetch_add(P.WriteQ.size(), std::memory_order_relaxed);
    P = Peer{};
  }
  uint64_t Gen = ++E->DetachGenRequested;
  wake(*E);
  // Rendezvous: once the thread has passed the top of its loop, no
  // handler invocation for Id can be in flight (dispatch happens only
  // on that thread, between those passes).
  while (E->DetachGenDone < Gen && !E->Stop)
    E->Cv.wait(E->Mu);
}

void TcpTransport::post(NodeId To, std::string Frame) {
  Endpoint *E = frameable(Frame) ? find(To) : nullptr;
  if (!E) {
    // Unframeable, or an unknown destination: dropped like a packet to
    // a dead host.
    FramesDropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  bool NeedWake = false;
  {
    sync::MutexLock Lock(E->Mu);
    Peer &P = E->Out;
    size_t Framed = Frame.size() + FrameHeaderBytes;
    if (E->Stop || !E->Attached ||
        P.QueuedBytes + Framed > Opts.MaxQueuedBytesPerPeer) {
      FramesDropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::string Bytes;
    Bytes.reserve(Framed);
    appendFrame(Bytes, Frame);
    P.WriteQ.push_back(std::move(Bytes));
    P.QueuedBytes += Framed;
    // The thread only sleeps once the queue is armed (EPOLLOUT or a
    // retry timeout), so a wake is needed exactly on the empty ->
    // non-empty transition.
    NeedWake = P.WriteQ.size() == 1;
  }
  if (NeedWake)
    wake(*E);
}

uint16_t TcpTransport::listenPort(NodeId Id) const {
  Endpoint *E = find(Id);
  if (!E)
    return 0;
  sync::MutexLock Lock(E->Mu);
  return E->Port;
}

TcpTransportStats TcpTransport::stats() const {
  TcpTransportStats S;
  S.FramesDelivered = FramesDelivered.load(std::memory_order_relaxed);
  S.FramesDropped = FramesDropped.load(std::memory_order_relaxed);
  S.BytesSent = BytesSent.load(std::memory_order_relaxed);
  S.BytesReceived = BytesReceived.load(std::memory_order_relaxed);
  S.Dials = Dials.load(std::memory_order_relaxed);
  S.Accepts = Accepts.load(std::memory_order_relaxed);
  S.ConnectionDrops = ConnectionDrops.load(std::memory_order_relaxed);
  return S;
}

bool TcpTransport::processDetach(Endpoint &E) {
  if (E.DetachGenDone == E.DetachGenRequested)
    return false;
  // Inbound connections die with the endpoint, unless a re-attach
  // already revived it (they then deliver to the new handler).
  if (!E.Attached) {
    for (const auto &KV : E.Inbounds)
      (void)::close(KV.first);
    E.Inbounds.clear();
  }
  E.DetachGenDone = E.DetachGenRequested;
  return true;
}

void TcpTransport::acceptAll(Endpoint &E) {
  for (;;) {
    int Fd = ::accept4(E.ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return; // EAGAIN.
    setNoDelay(Fd);
    Accepts.fetch_add(1, std::memory_order_relaxed);
    E.Inbounds[Fd] = FrameSplitter{};
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    (void)epoll_ctl(E.EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  }
}

void TcpTransport::serviceInbound(Endpoint &E, int Fd) {
  // Only this thread closes an inbound fd, so reading it unlocked is
  // safe; its splitter and the handler are read under Mu.
  char Buf[65536];
  for (;;) {
    ssize_t R = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (R > 0) {
      BytesReceived.fetch_add(static_cast<uint64_t>(R),
                              std::memory_order_relaxed);
      std::vector<std::string> Frames;
      Handler Deliver;
      bool StreamOk = true;
      {
        sync::MutexLock Lock(E.Mu);
        auto It = E.Inbounds.find(Fd);
        if (It == E.Inbounds.end())
          return;
        StreamOk = It->second.feed(
            Buf, static_cast<size_t>(R),
            [&Frames](std::string F) { Frames.push_back(std::move(F)); });
        Deliver = E.Deliver;
      }
      if (Deliver) {
        for (std::string &F : Frames) {
          FramesDelivered.fetch_add(1, std::memory_order_relaxed);
          Deliver(std::move(F));
        }
      } else {
        FramesDropped.fetch_add(Frames.size(), std::memory_order_relaxed);
      }
      if (!StreamOk) {
        // Poisoned framing: nothing after a bogus header can be
        // trusted; drop the connection like a corrupt packet.
        sync::MutexLock Lock(E.Mu);
        closeInbound(E, Fd);
        return;
      }
      continue;
    }
    if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;
    if (R < 0 && errno == EINTR)
      continue;
    // EOF or error: the sender's side is gone.
    sync::MutexLock Lock(E.Mu);
    closeInbound(E, Fd);
    return;
  }
}

void TcpTransport::closeInbound(Endpoint &E, int Fd) {
  if (E.Inbounds.erase(Fd) != 0)
    (void)::close(Fd);
}

void TcpTransport::dialPeer(Endpoint &E) {
  Peer &P = E.Out;
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
    return;
  }
  setNoDelay(Fd);
  sockaddr_in A = loopbackAddr(E.Port);
  int R = ::connect(Fd, asSockaddr(A), sizeof(A));
  if (R != 0 && errno != EINPROGRESS) {
    (void)::close(Fd);
    P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
    return;
  }
  Dials.fetch_add(1, std::memory_order_relaxed);
  P.Fd = Fd;
  P.Connecting = R != 0;
  P.WantWrite = true;
  epoll_event Ev{};
  Ev.events = EPOLLIN | EPOLLOUT;
  Ev.data.fd = Fd;
  (void)epoll_ctl(E.EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
}

void TcpTransport::dropPeerConnection(Endpoint &E) {
  Peer &P = E.Out;
  if (P.Fd >= 0) {
    (void)::close(P.Fd);
    P.Fd = -1;
    ConnectionDrops.fetch_add(1, std::memory_order_relaxed);
  }
  P.Connecting = false;
  P.WantWrite = false;
  if (P.HeadOffset != 0) {
    // A partially-sent frame cannot resume on a fresh connection (the
    // receiver starts at a frame boundary); it is lost with the link.
    P.QueuedBytes -= P.WriteQ.front().size() - P.HeadOffset;
    P.WriteQ.pop_front();
    P.HeadOffset = 0;
    FramesDropped.fetch_add(1, std::memory_order_relaxed);
  }
  P.RetryAtUs = nowUs() + Opts.ReconnectDelayUs;
}

void TcpTransport::flushPeer(Endpoint &E) {
  Peer &P = E.Out;
  if (P.Fd < 0 || P.Connecting)
    return;
  while (P.QueuedBytes != 0) {
    iovec Iov[MaxIov];
    int NIov = 0;
    size_t Off = P.HeadOffset;
    for (auto It = P.WriteQ.begin(); It != P.WriteQ.end() && NIov != MaxIov;
         ++It) {
      Iov[NIov].iov_base = It->data() + Off;
      Iov[NIov].iov_len = It->size() - Off;
      ++NIov;
      Off = 0;
    }
    ssize_t W = ::writev(P.Fd, Iov, NIov);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break; // Kernel buffer full: EPOLLOUT will resume us.
      dropPeerConnection(E);
      return;
    }
    BytesSent.fetch_add(static_cast<uint64_t>(W), std::memory_order_relaxed);
    size_t Left = static_cast<size_t>(W);
    while (Left != 0) {
      std::string &Front = P.WriteQ.front();
      size_t Avail = Front.size() - P.HeadOffset;
      if (Left >= Avail) {
        Left -= Avail;
        P.QueuedBytes -= Avail;
        P.WriteQ.pop_front();
        P.HeadOffset = 0;
      } else {
        P.HeadOffset += Left;
        P.QueuedBytes -= Left;
        Left = 0;
      }
    }
  }
  bool Want = P.QueuedBytes != 0;
  if (Want != P.WantWrite) {
    P.WantWrite = Want;
    epoll_event Ev{};
    Ev.events = EPOLLIN | (Want ? EPOLLOUT : 0u);
    Ev.data.fd = P.Fd;
    (void)epoll_ctl(E.EpollFd, EPOLL_CTL_MOD, P.Fd, &Ev);
  }
}

uint64_t TcpTransport::servicePeer(Endpoint &E) {
  Peer &P = E.Out;
  if (P.QueuedBytes == 0)
    return 0;
  if (P.Fd < 0) {
    if (P.RetryAtUs > nowUs())
      return P.RetryAtUs;
    dialPeer(E);
    if (P.Fd < 0)
      return P.RetryAtUs; // The dial failed at once; retry later.
  }
  flushPeer(E);
  return 0;
}

void TcpTransport::serviceOutgoing(Endpoint &E, uint32_t Ev) {
  Peer &P = E.Out;
  if ((Ev & (EPOLLERR | EPOLLHUP)) != 0) {
    dropPeerConnection(E);
    return;
  }
  if (P.Connecting) {
    int Err = 0;
    socklen_t Len = sizeof(Err);
    (void)::getsockopt(P.Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
    if (Err != 0) {
      dropPeerConnection(E);
      return;
    }
    P.Connecting = false;
  }
  if ((Ev & EPOLLIN) != 0) {
    // The receiver never writes back on the outgoing connection;
    // readable means EOF or reset.
    char Probe[64];
    ssize_t R = ::recv(P.Fd, Probe, sizeof(Probe), 0);
    if (R == 0 || (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      dropPeerConnection(E);
      return;
    }
  }
  flushPeer(E);
}

void TcpTransport::loop(Endpoint &E) {
  rt::markDedicatedDeliveryThread(E.Id);
  epoll_event Events[16];
  for (;;) {
    uint64_t NextRetryUs;
    {
      sync::MutexLock Lock(E.Mu);
      if (processDetach(E))
        E.Cv.notifyAll();
      if (E.Stop) {
        // Release any detach() still parked on the rendezvous.
        E.DetachGenDone = E.DetachGenRequested;
        E.Cv.notifyAll();
        return;
      }
      NextRetryUs = servicePeer(E);
    }
    int TimeoutMs = -1;
    if (NextRetryUs != 0) {
      uint64_t Now = nowUs();
      TimeoutMs = NextRetryUs > Now
                      ? static_cast<int>((NextRetryUs - Now) / 1000 + 1)
                      : 0;
    }
    int N = ::epoll_wait(E.EpollFd, Events, 16, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    for (int I = 0; I != N; ++I) {
      int Fd = Events[I].data.fd;
      if (Fd == E.WakeFd) {
        uint64_t V;
        while (::read(E.WakeFd, &V, sizeof(V)) == sizeof(V)) {
        }
        continue;
      }
      bool IsInbound = false;
      {
        // Classify by the current state: an event for an fd retired
        // earlier in this batch matches nothing and is skipped.
        sync::MutexLock Lock(E.Mu);
        if (Fd == E.ListenFd)
          acceptAll(E);
        else if (Fd == E.Out.Fd)
          serviceOutgoing(E, Events[I].events);
        else
          IsInbound = E.Inbounds.count(Fd) != 0;
      }
      if (IsInbound)
        serviceInbound(E, Fd);
    }
  }
}
