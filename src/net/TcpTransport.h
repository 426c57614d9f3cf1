//===- net/TcpTransport.h - Loopback TCP transport backend ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-socket implementation of the rt::Transport seam: every
/// attached endpoint gets a loopback TCP listener on an ephemeral port
/// (the in-process port registry replaces DNS), and post() queues
/// length-framed bytes for a lazily dialed connection toward the
/// destination.
///
/// Each endpoint owns everything about frames headed to it: its
/// listener and the connections it accepted (with their FrameSplitters),
/// the one outgoing connection toward it and that connection's bounded
/// write queue, and its own epoll fd, wake eventfd, mutex and delivery
/// thread. That thread flushes the queue with vectored writev, reads
/// the accepted connections, and runs the handler; it is the endpoint's
/// dedicated delivery thread (rt::onDedicatedDeliveryThread), so a
/// handler that blocks delays only its own endpoint. post(To) touches
/// To's endpoint alone.
///
/// Semantics match the in-process Bus deliberately — best-effort
/// datagram-over-stream: frames to unattached ids are dropped, a
/// dropped connection loses whatever the kernel had not accepted and is
/// re-dialed on the next service pass (reconnect-on-drop), and per
/// (sender, destination) pair delivered frames arrive in post() order.
/// The consensus layer above tolerates all of it by design.
///
/// Threading: attach()/post() run on caller threads and touch only the
/// registry and the destination endpoint's mutex-guarded state. Socket
/// reads and writes and handler dispatch happen on the endpoint's
/// thread; detach() rendezvouses with it, so after detach returns the
/// handler is never invoked again (detach must not be called from the
/// endpoint's own handler). Endpoints, threads included, live until the
/// transport is destroyed, so a post racing a detach never dangles and
/// a re-attach reuses them.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_NET_TCPTRANSPORT_H
#define ADORE_NET_TCPTRANSPORT_H

#include "net/Framing.h"
#include "rt/Transport.h"
#include "support/Ids.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>

namespace adore {
namespace net {

/// Tuning knobs; the defaults suit tests and loopback benches.
struct TcpTransportOptions {
  /// Per-destination cap on queued-but-unsent bytes; past it, post()
  /// drops frames (datagram semantics — backpressure never blocks a
  /// posting thread).
  size_t MaxQueuedBytesPerPeer = size_t(1) << 25;
  /// Backoff before re-dialing a destination whose connection dropped
  /// or refused.
  uint64_t ReconnectDelayUs = 2000;
};

/// Counters for tests and bench reports (monotone, racy-read safe).
struct TcpTransportStats {
  uint64_t FramesDelivered = 0;
  uint64_t FramesDropped = 0;
  uint64_t BytesSent = 0;
  uint64_t BytesReceived = 0;
  uint64_t Dials = 0;
  uint64_t Accepts = 0;
  uint64_t ConnectionDrops = 0;
};

/// See the file comment. One instance is one fabric: endpoints attached
/// to different instances cannot reach each other (separate port
/// registries), exactly like two disjoint buses.
class TcpTransport final : public rt::Transport {
public:
  explicit TcpTransport(TcpTransportOptions Opts = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport &) = delete;
  TcpTransport &operator=(const TcpTransport &) = delete;

  void attach(NodeId Id, Handler H) override;
  void detach(NodeId Id) override;
  void post(NodeId To, std::string Frame) override;

  /// The loopback port \p Id's listener is bound to, or 0 if not
  /// attached. Test introspection.
  uint16_t listenPort(NodeId Id) const;

  TcpTransportStats stats() const;

private:
  /// The outgoing connection toward an endpoint, shared by all senders.
  struct Peer {
    int Fd = -1;
    bool Connecting = false; ///< connect() in flight (EINPROGRESS).
    bool WantWrite = false;  ///< EPOLLOUT armed (partial flush pending).
    std::deque<std::string> WriteQ; ///< Framed bytes, oldest first.
    size_t HeadOffset = 0; ///< Sent prefix of WriteQ.front().
    size_t QueuedBytes = 0;
    uint64_t RetryAtUs = 0; ///< Earliest re-dial time (monotonic us).
  };

  /// Everything about frames headed to one id; see the file comment.
  /// Created on the id's first attach, destroyed with the transport.
  struct Endpoint {
    NodeId Id = InvalidNodeId;
    int EpollFd = -1; ///< Immutable after creation.
    int WakeFd = -1;  ///< Immutable after creation.

    mutable sync::Mutex Mu;
    /// Detach rendezvous: the thread bumps DetachGenDone.
    sync::CondVar Cv;
    bool Attached ADORE_GUARDED_BY(Mu) = false;
    Handler Deliver ADORE_GUARDED_BY(Mu);
    int ListenFd ADORE_GUARDED_BY(Mu) = -1;
    uint16_t Port ADORE_GUARDED_BY(Mu) = 0;
    /// Accepted connections, by fd; frames on them are for this id.
    std::map<int, FrameSplitter> Inbounds ADORE_GUARDED_BY(Mu);
    Peer Out ADORE_GUARDED_BY(Mu);
    uint64_t DetachGenRequested ADORE_GUARDED_BY(Mu) = 0;
    uint64_t DetachGenDone ADORE_GUARDED_BY(Mu) = 0;
    bool Stop ADORE_GUARDED_BY(Mu) = false;

    std::thread Loop; ///< Started at creation, joined in the dtor.
  };

  /// The endpoint registered under \p Id, or null.
  Endpoint *find(NodeId Id) const ADORE_EXCLUDES(RegMu);

  /// Endpoint thread: the delivery loop.
  void loop(Endpoint &E);
  /// Endpoint thread: retire the endpoint if a detach asked for it;
  /// returns true if it did (waiters need a notify).
  bool processDetach(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: accept everything pending on the listener.
  void acceptAll(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: read an inbound connection dry, dispatching
  /// frames.
  void serviceInbound(Endpoint &E, int Fd) ADORE_EXCLUDES(E.Mu);
  /// Endpoint thread: handle an event on the outgoing connection.
  void serviceOutgoing(Endpoint &E, uint32_t Ev) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: dial/flush the outgoing queue if it holds bytes
  /// and its retry time has passed. Returns the retry time still ahead
  /// (0 if none).
  uint64_t servicePeer(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: flush the write queue with writev.
  void flushPeer(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: start a non-blocking dial toward the listener.
  void dialPeer(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: tear down the outgoing connection and schedule a
  /// re-dial.
  void dropPeerConnection(Endpoint &E) ADORE_REQUIRES(E.Mu);
  /// Endpoint thread: close an inbound connection.
  void closeInbound(Endpoint &E, int Fd) ADORE_REQUIRES(E.Mu);

  uint64_t nowUs() const;
  static void wake(const Endpoint &E);

  TcpTransportOptions Opts;

  /// Guards the id -> endpoint map only; entries are never erased
  /// before the dtor, so a looked-up pointer stays valid.
  mutable sync::Mutex RegMu;
  std::map<NodeId, std::unique_ptr<Endpoint>> Registry ADORE_GUARDED_BY(RegMu);

  std::atomic<uint64_t> FramesDelivered{0};
  std::atomic<uint64_t> FramesDropped{0};
  std::atomic<uint64_t> BytesSent{0};
  std::atomic<uint64_t> BytesReceived{0};
  std::atomic<uint64_t> Dials{0};
  std::atomic<uint64_t> Accepts{0};
  std::atomic<uint64_t> ConnectionDrops{0};
};

} // namespace net
} // namespace adore

#endif // ADORE_NET_TCPTRANSPORT_H
