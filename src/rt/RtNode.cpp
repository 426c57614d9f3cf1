//===- rt/RtNode.cpp - Real-time threaded host for the Raft core ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RtNode.h"

#include "rt/Wire.h"

#include <vector>

using namespace adore;
using namespace adore::rt;

RtNode::RtNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
               core::CoreOptions Opts, uint64_t Seed, Transport &Net,
               host::Hooks Hooks, store::NodeStore *Store, RtHostOptions Host)
    : Id(Id), Net(&Net), Host(Host), Epoch(Clock::now()),
      R(Id, Scheme, std::move(InitialConf), std::move(Opts), Seed, Env{this},
        std::move(Hooks), Store) {
  Net.attach(Id, [this](std::string Frame) {
    enqueueFrame(std::move(Frame));
  });
}

RtNode::~RtNode() {
  stop();
  // End the endpoint's transport lifetime before members die: an
  // asynchronous transport (TCP loop thread) may still hold buffered
  // frames for this id, and must stop invoking enqueueFrame now.
  Net->detach(Id);
}

void RtNode::start() {
  // LifeMu serializes whole lifecycle transitions; without it, a
  // start() racing a stop() could assign Worker while the stop was
  // joining the old thread (a data race on the std::thread object the
  // original lock scheme left unguarded — surfaced by annotating
  // Worker GUARDED_BY and letting the analysis reject the old code).
  sync::MutexLock Life(LifeMu);
  {
    sync::MutexLock Lock(Mu);
    if (Started)
      return;
    Started = true;
    Stopping = false;
    // The worker starts the core, so it owns the node from the outset:
    // no inline caller may step a core that has not started yet.
    Owned = true;
  }
  Worker = std::thread([this] { run(); });
}

void RtNode::stop() {
  sync::MutexLock Life(LifeMu);
  {
    sync::MutexLock Lock(Mu);
    if (!Started)
      return;
    Stopping = true;
  }
  Cv.notifyAll();
  // Joining under LifeMu is safe: no step ever acquires it.
  if (Worker.joinable())
    Worker.join();
  // An inline owner releases after its current dispatch once it sees
  // Stopping; after that nothing can claim the node again.
  sync::MutexLock Lock(Mu);
  while (Owned)
    Cv.wait(Mu);
  Started = false;
}

namespace {

/// How many nodes this thread is running inline right now (nested runs
/// included). Nonzero means a frame this thread posts comes from a
/// replica running on a borrowed thread, so its receiver may run inline
/// too. A worker's own drains do not count: under load (the inline
/// bound handed work back, or a timer fired) the replicas keep their
/// own threads and run in parallel instead of funnelling a whole
/// group's work through one worker.
thread_local unsigned InlineDepth = 0;

} // namespace

void RtNode::enqueue(Item It, bool MayRunInline) {
  sync::MutexLock Lock(Mu);
  Inbox.push_back(std::move(It));
  if (Owned)
    return; // The owner re-checks the inbox before it releases.
  if (MayRunInline && Started && !Stopping) {
    Owned = true;
    Lock.unlock();
    drain(/*Inline=*/true);
    return;
  }
  Lock.unlock();
  Cv.notifyAll();
}

void RtNode::enqueueClient(Item It) {
  enqueue(std::move(It), /*MayRunInline=*/!R.hasStore());
}

void RtNode::enqueueFrame(std::string Frame) {
  Item It;
  It.K = Item::Kind::Frame;
  It.Frame = std::move(Frame);
  enqueue(std::move(It), !R.hasStore() && InlineDepth != 0);
}

void RtNode::submit(MethodId Method, uint64_t ClientSeq) {
  Item It;
  It.K = Item::Kind::Submit;
  It.Method = Method;
  It.ClientSeq = ClientSeq;
  enqueueClient(std::move(It));
}

void RtNode::requestReconfig(Config NewConf) {
  Item It;
  It.K = Item::Kind::Reconfig;
  It.Conf = std::move(NewConf);
  enqueueClient(std::move(It));
}

void RtNode::read(uint64_t ReadId) {
  Item It;
  It.K = Item::Kind::Read;
  It.ReadId = ReadId;
  enqueueClient(std::move(It));
}

void RtNode::crash() {
  Item It;
  It.K = Item::Kind::Crash;
  enqueueClient(std::move(It));
}

void RtNode::restart() {
  Item It;
  It.K = Item::Kind::Restart;
  enqueueClient(std::move(It));
}

RtNodeStatus RtNode::status() const {
  sync::MutexLock Lock(StatusMu);
  return Cached;
}

std::optional<core::Role> RtNode::liveRole() const {
  sync::MutexLock Lock(StatusMu);
  if (Cached.Crashed)
    return std::nullopt;
  return Cached.Role;
}

uint64_t RtNode::malformedFrames() const {
  return Malformed.load(std::memory_order_relaxed);
}

uint64_t RtNode::Env::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Node->Epoch)
          .count());
}

void RtNode::Env::send(core::Msg &&M) {
  Node->Net->post(M.To, encodeMsg(M));
}

void RtNode::Env::armTimer(core::TimerId T, uint64_t Gen, uint64_t DelayUs) {
  Deadline &D = Node->deadline(T);
  D.Armed = true;
  D.Gen = Gen;
  D.At = Clock::now() + std::chrono::microseconds(DelayUs);
}

std::optional<RtNode::Clock::time_point> RtNode::nextDeadline() const {
  std::optional<Clock::time_point> Next;
  if (Election.Armed)
    Next = Election.At;
  if (Heartbeat.Armed && (!Next || Heartbeat.At < *Next))
    Next = Heartbeat.At;
  return Next;
}

void RtNode::run() {
  // start() made this thread the owner.
  R.start();
  publishStatus();
  drain(/*Inline=*/false);
  sync::MutexLock Lock(Mu);
  for (;;) {
    if (Stopping)
      return;
    if (!Owned && (!Inbox.empty() || (Wake && *Wake <= Clock::now()))) {
      Owned = true;
      Lock.unlock();
      drain(/*Inline=*/false);
      Lock.lock();
      continue;
    }
    // While another thread owns the node, its release wakes us if the
    // earliest deadline moved before the one we sleep toward.
    Clock::time_point Until =
        !Owned && Wake ? *Wake : Clock::time_point::max();
    WorkerSleepsUntil = Until;
    if (Until == Clock::time_point::max())
      Cv.wait(Mu);
    else
      Cv.waitUntil(Mu, Until);
  }
}

void RtNode::drain(bool Inline) {
  InlineDepth += Inline;
  size_t Dispatched = 0;
  bool IdlePassDone = false;
  sync::MutexLock Lock(Mu);
  for (;;) {
    if (Stopping)
      break;
    if (Inbox.empty()) {
      if (IdlePassDone)
        break;
      // Idle: flush a partial append batch now instead of waiting for
      // it to fill or for a heartbeat, and fire due timers. Either may
      // bring new input (on the bus, replies land in our inbox), so the
      // inbox is checked once more before releasing.
      IdlePassDone = true;
      Lock.unlock();
      if (R.core().pendingBatch() > 0) {
        core::Effects Effs;
        R.core().flushAppendBatch(Effs);
        dispatch(std::move(Effs));
      }
      fireDueTimers();
      Lock.lock();
      continue;
    }
    if (Inline && Dispatched >= MaxInlineDispatches)
      break; // Hand the rest to the worker (woken below).
    // Drain a batch: consecutive core-step items (frames, submits,
    // reconfigs, reads) coalesce into ONE effect batch, so a store-
    // backed host's persist pre-pass fsyncs once for the whole burst
    // (group commit). Crash/restart are barriers and run alone,
    // preserving their store side-effect ordering.
    Item First = std::move(Inbox.front());
    Inbox.pop_front();
    if (!isBatchable(First)) {
      Lock.unlock();
      processBarrier(First);
    } else {
      std::vector<Item> Batch;
      Batch.push_back(std::move(First));
      while (Batch.size() < Host.MaxInboxBatch && !Inbox.empty() &&
             isBatchable(Inbox.front())) {
        Batch.push_back(std::move(Inbox.front()));
        Inbox.pop_front();
      }
      Lock.unlock();
      core::Effects Effs;
      for (Item &It : Batch)
        step(It, Effs);
      dispatch(std::move(Effs));
    }
    ++Dispatched;
    IdlePassDone = false;
    // Timers may have come due while processing.
    fireDueTimers();
    Lock.lock();
  }
  // Release. An inline owner wakes the worker (or a waiting stop())
  // only for work left behind — stop, or the inline bound — or for a
  // deadline earlier than the worker's current wait. The worker itself
  // re-checks everything before it sleeps.
  Wake = nextDeadline();
  Owned = false;
  bool Notify = Inline && (Stopping || !Inbox.empty() ||
                           (Wake && *Wake < WorkerSleepsUntil));
  Lock.unlock();
  if (Notify)
    Cv.notifyAll();
  InlineDepth -= Inline;
}

bool RtNode::isBatchable(const Item &It) {
  return It.K == Item::Kind::Frame || It.K == Item::Kind::Submit ||
         It.K == Item::Kind::Reconfig || It.K == Item::Kind::Read;
}

void RtNode::step(Item &It, core::Effects &Out) {
  core::RaftCore &Core = R.core();
  switch (It.K) {
  case Item::Kind::Frame: {
    core::Msg M;
    if (!decodeMsg(It.Frame, M)) {
      Malformed.fetch_add(1, std::memory_order_relaxed);
      return; // Malformed frame: dropped like a corrupt packet.
    }
    core::Effects Step = Core.onMessage(M, R.env().nowUs());
    for (core::Effect &E : Step)
      Out.push_back(std::move(E));
    return;
  }
  case Item::Kind::Submit:
    Core.submit(It.Method, It.ClientSeq, Out);
    return;
  case Item::Kind::Reconfig:
    Core.requestReconfig(It.Conf, Out);
    return;
  case Item::Kind::Read:
    // Lease expiry is checked lazily against the wall clock here; the
    // heartbeat timer drives renewals and probe retransmission.
    Core.readQuery(It.ReadId, R.env().nowUs(), Out);
    return;
  case Item::Kind::Crash:
  case Item::Kind::Restart:
    // Barriers never reach here; run() routes them to processBarrier.
    return;
  }
}

void RtNode::processBarrier(Item &It) {
  switch (It.K) {
  case Item::Kind::Crash:
    R.crash();
    break;
  case Item::Kind::Restart:
    R.restart();
    break;
  case Item::Kind::Frame:
  case Item::Kind::Submit:
  case Item::Kind::Reconfig:
  case Item::Kind::Read:
    // Batchable items never reach here; run() routes them to step().
    return;
  }
  publishStatus();
}

void RtNode::fireDueTimers() {
  // At most one firing per timer per pass; re-arms take a fresh
  // deadline, so the loop in run() converges.
  Clock::time_point Now = Clock::now();
  for (core::TimerId T : {core::TimerId::Election, core::TimerId::Heartbeat}) {
    Deadline &D = deadline(T);
    if (D.Armed && D.At <= Now) {
      D.Armed = false;
      R.fire(T, D.Gen);
      publishStatus();
    }
  }
}

void RtNode::dispatch(core::Effects Effs) {
  R.dispatch(std::move(Effs));
  publishStatus();
}

void RtNode::publishStatus() {
  const core::RaftCore &Core = R.core();
  const Config &Conf = Core.config();
  sync::MutexLock Lock(StatusMu);
  Cached.Role = Core.role();
  Cached.Term = Core.term();
  Cached.CommitIndex = Core.commitIndex();
  Cached.LogSize = Core.logSize();
  Cached.Crashed = Core.isCrashed();
  Cached.Passive = Core.isPassive();
  // The configuration moves only at a reconfig append or a truncation
  // past one; skip copying its member sets on every other dispatch.
  if (Cached.Conf != Conf)
    Cached.Conf = Conf;
}
