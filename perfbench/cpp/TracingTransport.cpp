//===- perfbench/cpp/TracingTransport.cpp - Transport decorator -----------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TracingTransport.h"

#include "rt/Wire.h"

using namespace adore;
using namespace adore::perfbench;

uint64_t FrameCounts::splitVoteTerms() const {
  uint64_t N = 0;
  for (Time T : VoteTerms)
    if (!LeaderTerms.count(T))
      ++N;
  return N;
}

TracingTransport::TracingTransport(rt::Transport &Inner, SpanLog *Spans)
    : Inner(Inner), Spans(Spans) {}

void TracingTransport::attach(NodeId Id, Handler H) {
  Inner.attach(Id, [this, Id, H = std::move(H)](std::string Frame) {
    delivered(Id, Frame);
    H(std::move(Frame));
  });
}

void TracingTransport::detach(NodeId Id) { Inner.detach(Id); }

void TracingTransport::post(NodeId To, std::string Frame) {
  core::Msg M;
  bool Decoded = rt::decodeMsg(Frame, M);
  uint64_t ReqId = 0;
  if (Decoded)
    for (const core::LogEntry &E : M.Entries)
      if (E.ClientSeq != 0) {
        ReqId = E.ClientSeq;
        break;
      }
  uint64_t SpanId = Spans ? Spans->newId() : 0;
  uint64_t Start = nowNs();
  {
    sync::MutexLock Lock(Mu);
    ++Counts.Frames;
    Counts.Bytes += Frame.size();
    if (!Decoded) {
      ++Counts.Undecodable;
    } else {
      switch (M.K) {
      case core::Msg::Kind::RequestVote:
        Counts.VoteTerms.insert(M.Term);
        break;
      case core::Msg::Kind::AppendEntries:
        Counts.LeaderTerms.insert(M.Term);
        Counts.Heartbeats += M.Entries.empty();
        break;
      case core::Msg::Kind::ReadIndexQuery:
        Counts.ReadProbes += M.Done;
        break;
      case core::Msg::Kind::ReadIndexReply:
        Counts.ReadNacks += !M.Done && !M.Success;
        break;
      default:
        break;
      }
    }
    if (Counts.Frames % 8 == 0 && Captured.size() < 4096)
      Captured.push_back(Frame);
    // Registered before the inner post: the bus delivers synchronously
    // inside it.
    InFlight[To][Frame].push_back(Pending{Start, SpanId});
  }
  Inner.post(To, std::move(Frame));
  uint64_t End = nowNs();
  {
    sync::MutexLock Lock(Mu);
    PostUs.push_back(static_cast<double>(End - Start) / 1000.0);
  }
  if (Spans)
    Spans->add(Span{SpanId, 0, "rt", "post", Start, End, ReqId});
}

void TracingTransport::delivered(NodeId Id, const std::string &Frame) {
  uint64_t Now = nowNs();
  Pending P;
  {
    sync::MutexLock Lock(Mu);
    auto &ByFrame = InFlight[Id];
    auto It = ByFrame.find(Frame);
    if (It == ByFrame.end())
      return; // Posted before reset() or by an undecorated path.
    P = It->second.front();
    It->second.pop_front();
    if (It->second.empty())
      ByFrame.erase(It);
    DeliverUs.push_back(static_cast<double>(Now - P.PostNs) / 1000.0);
  }
  if (Spans)
    Spans->add(Span{0, P.SpanId, "net", "deliver", P.PostNs, Now, 0});
}

void TracingTransport::reset() {
  sync::MutexLock Lock(Mu);
  Counts = FrameCounts();
  PostUs.clear();
  DeliverUs.clear();
  Captured.clear();
}

FrameCounts TracingTransport::counts() const {
  sync::MutexLock Lock(Mu);
  return Counts;
}

Samples TracingTransport::postUs() const {
  sync::MutexLock Lock(Mu);
  return PostUs;
}

Samples TracingTransport::deliverUs() const {
  sync::MutexLock Lock(Mu);
  return DeliverUs;
}

std::vector<std::string> TracingTransport::capturedFrames() const {
  sync::MutexLock Lock(Mu);
  return Captured;
}
