//===- perfbench/cpp/TracingTransport.h - Transport decorator ---*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An rt::Transport decorator that observes every frame from outside the
/// program: each post() is timed and its frame decoded through
/// rt::decodeMsg to count frames by core::Msg::Kind, and each delivery
/// is matched back to its post to time post -> handler. Matching keys
/// on the frame's bytes per receiver, in post order: the Transport
/// contract keeps per-(sender, receiver) order, and the sender id is
/// inside the bytes, so equal keys only ever come from one sender.
/// A frame that was dropped leaves its entry behind; that only matters
/// if a byte-identical frame from the same sender follows it.
///
/// The decorator forwards every call unchanged, so the nodes above see
/// the inner transport's behaviour (the tests check the committed
/// ledger is the same with and without it).
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_TRACINGTRANSPORT_H
#define ADORE_PERFBENCH_TRACINGTRANSPORT_H

#include "Trace.h"

#include "core/RaftCore.h"
#include "rt/Transport.h"

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace adore {
namespace perfbench {

/// Frame counts observed at post(), classified by decoded core::Msg kind.
struct FrameCounts {
  uint64_t Frames = 0;
  uint64_t Bytes = 0;
  uint64_t Undecodable = 0;
  /// AppendEntries carrying no entries.
  uint64_t Heartbeats = 0;
  /// ReadIndexQuery with Done=true: a leader's confirmation probe.
  uint64_t ReadProbes = 0;
  /// ReadIndexReply with Done=false and Success=false: a forwarded read
  /// NACKed back to the follower (the client retries at the leader).
  uint64_t ReadNacks = 0;
  /// Terms in which some node sent RequestVote / some leader sent
  /// AppendEntries (a leader existed in that term).
  std::set<Time> VoteTerms;
  std::set<Time> LeaderTerms;

  /// Terms with a RequestVote but no leader ever sending AppendEntries:
  /// elections that produced no winner.
  uint64_t splitVoteTerms() const;
};

class TracingTransport final : public rt::Transport {
public:
  /// \p Spans may be null (counts and timings only). \p Inner must
  /// outlive this decorator.
  TracingTransport(rt::Transport &Inner, SpanLog *Spans);

  void attach(NodeId Id, Handler H) override;
  void detach(NodeId Id) override;
  void post(NodeId To, std::string Frame) override;

  /// Restarts every counter and sample (the measured window begins).
  void reset();

  FrameCounts counts() const;
  Samples postUs() const;
  Samples deliverUs() const;
  /// Every 8th frame posted since reset(), up to 4096 of them, for
  /// timing the wire codec offline.
  std::vector<std::string> capturedFrames() const;

private:
  struct Pending {
    uint64_t PostNs = 0;
    uint64_t SpanId = 0;
  };

  void delivered(NodeId Id, const std::string &Frame);

  rt::Transport &Inner;
  SpanLog *Spans;

  mutable sync::Mutex Mu;
  FrameCounts Counts ADORE_GUARDED_BY(Mu);
  Samples PostUs ADORE_GUARDED_BY(Mu);
  Samples DeliverUs ADORE_GUARDED_BY(Mu);
  std::vector<std::string> Captured ADORE_GUARDED_BY(Mu);
  /// Receiver -> frame bytes -> posts not yet delivered, oldest first.
  std::map<NodeId, std::unordered_map<std::string, std::deque<Pending>>>
      InFlight ADORE_GUARDED_BY(Mu);
};

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_TRACINGTRANSPORT_H
