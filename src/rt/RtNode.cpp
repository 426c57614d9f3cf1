//===- rt/RtNode.cpp - Real-time threaded host for the Raft core ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RtNode.h"

#include "rt/Wire.h"
#include "store/NodeStore.h"

#include <vector>

using namespace adore;
using namespace adore::rt;

RtNode::RtNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
               core::CoreOptions Opts, uint64_t Seed, Transport &Net,
               RtNodeHooks Hooks, store::NodeStore *Store, RtHostOptions Host)
    : Id(Id), Net(&Net), Hooks(std::move(Hooks)), Host(Host),
      Core(Id, Scheme, std::move(InitialConf), Opts, Seed),
      Epoch(Clock::now()), Store(Store) {
  // Adopt whatever the store's directory already holds, before the
  // worker thread exists (the core is fresh, so installing is legal).
  if (Store)
    recoverFromStore(/*CheckAgainstCore=*/false);
  Net.attach(Id, [this](std::string Frame) {
    enqueueFrame(std::move(Frame));
  });
}

void RtNode::recoverFromStore(bool CheckAgainstCore) {
  store::RecoveredState RS = Store->open();
  if (RS.Error) {
    // Unrecoverable directory: keep the in-memory state so the node can
    // proceed, but surface the mismatch — under the supported fault
    // model this must never happen.
    StoreMismatches.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (CheckAgainstCore) {
    // Persist-carrying batches fsync before any effect escapes, so only
    // deferred Commit records may be lost at a crash: recovered
    // term/vote/log must equal the in-memory copy exactly, and the
    // commit index may only lag.
    bool Mismatch = RS.Term != Core.term() || RS.Vote != Core.votedFor() ||
                    RS.Log != Core.log() ||
                    RS.CommitIndex > Core.commitIndex();
    if (Mismatch)
      StoreMismatches.fetch_add(1, std::memory_order_relaxed);
  }
  Core.installDurableState(RS.Term, RS.Vote, std::move(RS.Log),
                           RS.CommitIndex);
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
  enqueue(std::move(It), /*MayRunInline=*/Store == nullptr);
}

void RtNode::enqueueFrame(std::string Frame) {
  Item It;
  It.K = Item::Kind::Frame;
  It.Frame = std::move(Frame);
  enqueue(std::move(It), Store == nullptr && InlineDepth != 0);
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

uint64_t RtNode::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            Epoch)
          .count());
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
  dispatch(Core.start());
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
      if (Core.pendingBatch() > 0) {
        core::Effects Effs;
        Core.flushAppendBatch(Effs);
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
  switch (It.K) {
  case Item::Kind::Frame: {
    core::Msg M;
    if (!decodeMsg(It.Frame, M)) {
      Malformed.fetch_add(1, std::memory_order_relaxed);
      return; // Malformed frame: dropped like a corrupt packet.
    }
    core::Effects Step = Core.onMessage(M, nowUs());
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
    Core.readQuery(It.ReadId, nowUs(), Out);
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
    dispatch(Core.crash());
    if (Store)
      Store->crash(); // Power cut: the fault model mangles the directory.
    return;
  case Item::Kind::Restart:
    // Restarting a node that never crashed is a no-op; only a crashed
    // core may have durable state re-installed.
    if (Store && Core.isCrashed())
      recoverFromStore(/*CheckAgainstCore=*/true);
    dispatch(Core.restart());
    return;
  case Item::Kind::Frame:
  case Item::Kind::Submit:
  case Item::Kind::Reconfig:
  case Item::Kind::Read:
    // Batchable items never reach here; run() routes them to step().
    return;
  }
}

void RtNode::fireDueTimers() {
  // At most one firing per timer per pass; re-arms take a fresh
  // deadline, so the loop in run() converges.
  Clock::time_point Now = Clock::now();
  if (Election.Armed && Election.At <= Now) {
    Election.Armed = false;
    dispatch(Core.onTimer(core::TimerId::Election, Election.Gen, nowUs()));
  }
  if (Heartbeat.Armed && Heartbeat.At <= Now) {
    Heartbeat.Armed = false;
    dispatch(Core.onTimer(core::TimerId::Heartbeat, Heartbeat.Gen, nowUs()));
  }
}

void RtNode::dispatch(core::Effects Effs) {
  // Persist-before-act: the core emits Persist at the END of a step's
  // batch (after the Sends it must gate), so a store-backed host
  // flushes the whole durable delta up front — nothing below,
  // especially no Send, may escape before the state backing it is on
  // disk. One fsync covers the whole batch (group commit).
  if (size_t From = Store ? core::persistFloor(Effs) : 0) {
    Store->persistFrom(Core, From);
    Store->sync();
  }
  for (core::Effect &E : Effs) {
    // The switch enumerates every Effect::Kind with no default: adding
    // a kind without deciding what this host does with it is a compile
    // error under -Werror=switch, not a silently dropped effect.
    switch (E.K) {
    case core::Effect::Kind::Send:
      Net->post(E.M.To, encodeMsg(E.M));
      break;
    case core::Effect::Kind::SetTimer: {
      Deadline &D =
          E.Timer == core::TimerId::Election ? Election : Heartbeat;
      D.Armed = true;
      D.Gen = E.TimerGen;
      D.At = Clock::now() + std::chrono::microseconds(E.DelayUs);
      break;
    }
    case core::Effect::Kind::CancelTimer:
      (E.Timer == core::TimerId::Election ? Election : Heartbeat).Armed =
          false;
      break;
    case core::Effect::Kind::Apply:
      if (Hooks.OnApply)
        Hooks.OnApply(Id, E.Index, E.Entry);
      break;
    case core::Effect::Kind::CommitAdvanced:
      // Deferred durability: the commit record rides the next sync
      // barrier; losing it at a crash is safe (recovery re-derives
      // commits from the quorum).
      if (Store)
        Store->noteCommit(E.Index);
      break;
    case core::Effect::Kind::Persist:
      // Handled by the pre-pass above. Without a store, crash is
      // state-level and the core preserves durable fields by fiat.
      break;
    case core::Effect::Kind::LeaderElected:
      if (Hooks.OnLeader)
        Hooks.OnLeader(Id, E.Term);
      break;
    case core::Effect::Kind::ReplicaSuspected:
      if (Hooks.OnSuspicion)
        Hooks.OnSuspicion(Id, E.Peer, /*Suspected=*/true);
      break;
    case core::Effect::Kind::ReplicaRecovered:
      if (Hooks.OnSuspicion)
        Hooks.OnSuspicion(Id, E.Peer, /*Suspected=*/false);
      break;
    case core::Effect::Kind::ReadReady:
      if (Hooks.OnReadDone)
        Hooks.OnReadDone(Id, E.ReadId, /*Ok=*/true, E.Index);
      break;
    case core::Effect::Kind::ReadFailed:
      if (Hooks.OnReadDone)
        Hooks.OnReadDone(Id, E.ReadId, /*Ok=*/false, 0);
      break;
    }
  }
  publishStatus();
}

void RtNode::publishStatus() {
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
