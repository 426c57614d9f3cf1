//===- rt/Transport.h - Abstract byte transport seam ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport seam of the real-time runtime: a byte-oriented,
/// datagram-style point-to-point fabric. Endpoints attach a delivery
/// handler under a NodeId, any thread posts opaque serialized frames
/// (see rt/Wire.h) to a NodeId, and frames to ids nobody is attached
/// under are silently dropped — like packets to a dead host. Delivery
/// is best-effort and asynchronous; a returned post() says nothing
/// about arrival.
///
/// Implementations: rt::Bus (in-process, synchronous delivery on the
/// posting thread) and net::TcpTransport (loopback TCP, one delivery
/// loop per endpoint, length-framed streams, reconnect-on-drop). Hosts
/// (RtNode) program against this interface only, so the whole
/// rt/chaos/bench stack runs unmodified over either fabric.
///
/// Contract for implementations:
///  - attach(Id, H) replaces any previous handler for Id; the handler
///    must be invokable from arbitrary threads until detach(Id) (or the
///    transport's destruction) returns.
///  - detach(Id) ends delivery to Id: posts that observe the detach
///    drop their frames. A post already past its handler lookup may
///    still complete concurrently, so callers must keep the handler's
///    target alive until all posting threads have quiesced (hosts stop
///    every worker before tearing down any endpoint).
///  - post(To, Frame) never blocks on the receiver; per (sender,
///    receiver) pair, frames that do arrive arrive in post() order.
///
/// Dedicated delivery threads: an implementation may run an endpoint's
/// handler on a thread that serves that endpoint alone. While it does,
/// onDedicatedDeliveryThread(Id) is true on that thread, and the
/// handler may block (say, on a WAL fsync) without delaying delivery to
/// any other endpoint. The flag is a thread_local the implementation
/// sets on its own thread, so decorators that wrap a handler stay
/// transparent. rt::Bus has no such threads (a Bus handler runs on the
/// poster's thread, which may serve anything); net::TcpTransport runs
/// every endpoint's handler on one.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_TRANSPORT_H
#define ADORE_RT_TRANSPORT_H

#include "support/Ids.h"

#include <functional>
#include <string>

namespace adore {
namespace rt {

namespace detail {
/// The endpoint the calling thread delivers to alone, or InvalidNodeId.
inline thread_local NodeId DedicatedDeliveryId = InvalidNodeId;
} // namespace detail

/// True iff the calling thread is a transport's dedicated delivery
/// thread for \p Id (see the file comment).
inline bool onDedicatedDeliveryThread(NodeId Id) {
  return Id != InvalidNodeId && detail::DedicatedDeliveryId == Id;
}

/// For implementations: marks the calling thread, for its lifetime, as
/// the one that delivers to \p Id alone.
inline void markDedicatedDeliveryThread(NodeId Id) {
  detail::DedicatedDeliveryId = Id;
}

/// Abstract point-to-point frame transport; see the file comment for
/// the endpoint-lifecycle and delivery contract.
class Transport {
public:
  using Handler = std::function<void(std::string Frame)>;

  virtual ~Transport() = default;

  /// Registers the delivery handler for \p Id, replacing any previous
  /// one. Handlers must be internally thread-safe.
  virtual void attach(NodeId Id, Handler H) = 0;

  /// Unregisters \p Id's handler; see the file comment for the
  /// quiescence caveat. Detaching an unknown id is a no-op.
  virtual void detach(NodeId Id) = 0;

  /// Posts \p Frame toward \p To, best-effort; drops it if nobody is
  /// attached under \p To.
  virtual void post(NodeId To, std::string Frame) = 0;
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_TRANSPORT_H
