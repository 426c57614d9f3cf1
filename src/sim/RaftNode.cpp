//===- sim/RaftNode.cpp - Simulator host for the Raft core ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/RaftNode.h"

#include "store/NodeStore.h"
#include "support/Debug.h"

using namespace adore;
using namespace adore::sim;

namespace {

core::CoreOptions toCoreOptions(const NodeOptions &Opts) {
  core::CoreOptions C;
  C.ElectionTimeoutMinUs = Opts.ElectionTimeoutMinUs;
  C.ElectionTimeoutMaxUs = Opts.ElectionTimeoutMaxUs;
  C.HeartbeatUs = Opts.HeartbeatUs;
  C.MaxEntriesPerAppend = Opts.MaxEntriesPerAppend;
  C.DisableVoteStickiness = Opts.DisableVoteStickiness;
  C.EnableSuspicion = Opts.EnableSuspicion;
  C.SuspicionSuspectScore = Opts.SuspicionSuspectScore;
  C.SuspicionRecoverScore = Opts.SuspicionRecoverScore;
  C.EnableSnapshotCatchup = Opts.EnableSnapshotCatchup;
  C.SnapshotLagEntries = Opts.SnapshotLagEntries;
  C.SnapshotChunkBytes = Opts.SnapshotChunkBytes;
  C.EnableReadIndex = Opts.EnableReadIndex;
  C.EnableLease = Opts.EnableLease;
  C.LeaseDurationUs = Opts.LeaseDurationUs;
  C.MaxDriftPpm = Opts.MaxDriftPpm;
  C.EnableFollowerReads = Opts.EnableFollowerReads;
  C.TestIgnoreLeaseExpiry = Opts.TestIgnoreLeaseExpiry;
  return C;
}

} // namespace

RaftNode::RaftNode(
    NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
    NodeOptions Opts, EventQueue &Queue, uint64_t Seed,
    std::function<void(SimMsg)> Send,
    std::function<void(NodeId, size_t, const SimLogEntry &)> OnApply,
    store::NodeStore *Store)
    : Queue(&Queue),
      Core(Id, Scheme, std::move(InitialConf), toCoreOptions(Opts), Seed),
      SendFn(std::move(Send)), ApplyFn(std::move(OnApply)), Store(Store) {
  // Adopt whatever the store's directory already holds (usually nothing:
  // clusters start on fresh directories).
  if (Store)
    recoverFromStore(/*CheckAgainstCore=*/false);
}

void RaftNode::crash() {
  dispatch(Core.crash());
  if (Store)
    Store->crash(); // Power cut: the fault model mangles the directory.
}

void RaftNode::restart() {
  // Restarting a node that never crashed is a no-op; only a crashed
  // core may have durable state re-installed.
  if (Store && Core.isCrashed())
    recoverFromStore(/*CheckAgainstCore=*/true);
  dispatch(Core.restart());
}

void RaftNode::recoverFromStore(bool CheckAgainstCore) {
  auto Violation = [&](const std::string &What) {
    if (StoreViolations)
      StoreViolations->push_back("S" + std::to_string(Core.id()) +
                                 " store recovery: " + What);
  };

  store::RecoveredState RS = Store->open();
  if (RS.Error) {
    // Unrecoverable directory. Leave the idealized in-memory state in
    // place (so the run can proceed) but report the violation: under
    // the supported fault model this must never happen.
    Violation(*RS.Error);
    return;
  }

  if (CheckAgainstCore) {
    // Every Persist-carrying batch fsyncs before any of its effects
    // escape, so the only bytes a crash may cost are deferred Commit
    // records. Recovered term/vote/log must therefore match the
    // idealized in-memory copy EXACTLY — even with crash faults on —
    // and only the commit index may lag.
    if (RS.Term != Core.term())
      Violation("recovered term " + std::to_string(RS.Term) +
                " != in-memory " + std::to_string(Core.term()));
    if (RS.Vote != Core.votedFor())
      Violation("recovered vote differs from in-memory vote");
    if (RS.Log != Core.log())
      Violation("recovered log (" + std::to_string(RS.Log.size()) +
                " entries) differs from in-memory log (" +
                std::to_string(Core.log().size()) + " entries)");
    if (RS.CommitIndex > Core.commitIndex())
      Violation("recovered commit index " + std::to_string(RS.CommitIndex) +
                " ahead of in-memory " + std::to_string(Core.commitIndex()));
  }

  Core.installDurableState(RS.Term, RS.Vote, std::move(RS.Log),
                           RS.CommitIndex);
}

bool RaftNode::submit(MethodId Method, uint64_t ClientSeq) {
  core::Effects Effs;
  bool Accepted = Core.submit(Method, ClientSeq, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::requestReconfig(const Config &NewConf) {
  core::Effects Effs;
  bool Accepted = Core.requestReconfig(NewConf, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::transferLeadership(NodeId Target) {
  core::Effects Effs;
  bool Accepted = Core.transferLeadership(Target, Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

bool RaftNode::read(uint64_t ReadId) {
  core::Effects Effs;
  bool Accepted = Core.readQuery(ReadId, nowUs(), Effs);
  dispatch(std::move(Effs));
  return Accepted;
}

void RaftNode::dispatch(core::Effects Effs) {
  // Persist-before-act: the core emits Persist at the END of a step's
  // batch (after the Sends it must gate), so a store-backed host
  // flushes the whole durable delta up front. Persisting more than the
  // step strictly required is always safe; acting before the flush is
  // not. Store traffic consumes no virtual time and no cluster RNG
  // draws, so the event schedule is identical with the store on or off.
  if (size_t From = Store ? core::persistFloor(Effs) : 0) {
    Store->persistFrom(Core, From);
    Store->sync();
  }
  for (core::Effect &E : Effs) {
    switch (E.K) {
    case core::Effect::Kind::Send:
      SendFn(std::move(E.M));
      break;
    case core::Effect::Kind::SetTimer: {
      // The scheduled callback re-enters the core with the generation it
      // was armed under; the core rejects it if superseded. Effects the
      // firing produces are dispatched recursively.
      core::TimerId Timer = E.Timer;
      uint64_t Gen = E.TimerGen;
      Queue->scheduleAfter(E.DelayUs, [this, Timer, Gen] {
        dispatch(Core.onTimer(Timer, Gen, nowUs()));
      });
      break;
    }
    case core::Effect::Kind::CancelTimer:
      // Nothing to do: a stale firing is rejected by generation.
      break;
    case core::Effect::Kind::Apply:
      ApplyFn(Core.id(), E.Index, E.Entry);
      break;
    case core::Effect::Kind::CommitAdvanced:
      // Deferred durability: the commit record is appended now but only
      // fsynced by the NEXT sync barrier, so a crash can lose it — which
      // is safe, since recovery re-derives commits from the quorum.
      if (Store)
        Store->noteCommit(E.Index);
      break;
    case core::Effect::Kind::Persist:
      // Handled by the pre-pass above (in-memory mode: crash() already
      // preserves exactly the persistent fields by fiat).
      break;
    case core::Effect::Kind::LeaderElected:
      if (OnLeader)
        OnLeader(Core.id(), E.Term);
      break;
    case core::Effect::Kind::ReplicaSuspected:
      if (OnSuspicion)
        OnSuspicion(Core.id(), E.Peer, /*Suspected=*/true);
      break;
    case core::Effect::Kind::ReplicaRecovered:
      if (OnSuspicion)
        OnSuspicion(Core.id(), E.Peer, /*Suspected=*/false);
      break;
    case core::Effect::Kind::ReadReady:
      if (OnRead)
        OnRead(Core.id(), E.ReadId, /*Ok=*/true, E.Index);
      break;
    case core::Effect::Kind::ReadFailed:
      if (OnRead)
        OnRead(Core.id(), E.ReadId, /*Ok=*/false, 0);
      break;
    }
  }
}
