//===- host/Replica.h - The one effect interpreter for the Raft core -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// host::Replica owns a core::RaftCore, its optional store::NodeStore
/// and the host hooks, and interprets the core's effect lists. Both
/// runtime hosts (sim::RaftNode and rt::RtNode) run their replicas
/// through it, so persist-before-act, store recovery and effect dispatch
/// exist once. A host supplies only its environment, bound statically
/// as the template parameter so the dispatch loop pays no indirection:
///
///   uint64_t nowUs() const;           // the protocol clock
///   void send(core::Msg &&M);         // hand a message to the network
///   void armTimer(core::TimerId T, uint64_t Gen, uint64_t DelayUs);
///   void cancelTimer(core::TimerId T);
///
/// A fired timer re-enters through fire(T, Gen); the core rejects a
/// firing whose generation was superseded, so cancellation is advisory.
///
/// Persist-before-act: the core emits Persist at the END of a step's
/// effect list, after the Sends it must gate. A store-backed replica
/// therefore flushes the batch's whole durable delta (persistFrom from
/// core::persistFloor, then ONE sync) before executing any effect of a
/// Persist-carrying batch. Persisting more than the step required is
/// always safe; acting first is the lost-vote/lost-entry bug class.
/// Without a store, crash keeps the durable fields in memory by fiat.
///
/// Recovery cross-check: since every Persist-carrying batch syncs
/// before it acts, a crash can cost only deferred Commit records, so on
/// restart the state recovered from the store must equal the in-memory
/// copy exactly in term, vote and log, and the commit index may only
/// lag. Every divergence (and an unrecoverable directory) is recorded
/// as text in storeMismatches().
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_HOST_REPLICA_H
#define ADORE_HOST_REPLICA_H

#include "core/RaftCore.h"
#include "store/NodeStore.h"

#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace adore {
namespace host {

/// Host callbacks, each fired from dispatch in effect order. Unset
/// hooks are skipped.
struct Hooks {
  /// Every entry this replica applies (commits), in log order.
  std::function<void(NodeId, size_t, const core::LogEntry &)> OnApply;
  /// This replica won an election; the term it now leads.
  std::function<void(NodeId, Time)> OnLeader;
  /// Leader-observed liveness transition: (observer, peer, suspected).
  /// Fires only with core::CoreOptions::EnableSuspicion.
  std::function<void(NodeId, NodeId, bool)> OnSuspicion;
  /// Read outcome: (node, ReadId, ok, safe index). On ok the replica's
  /// applied state machine has reached the safe index, so serving the
  /// read from it is linearizable. Fires only when a read tier
  /// (core::CoreOptions::EnableReadIndex/...) is on.
  std::function<void(NodeId, uint64_t, bool, size_t)> OnRead;
};

/// Installs what \p Store recovers into \p Core (fresh or crashed).
/// With \p CheckAgainstCore, first compares the recovered term, vote,
/// log and commit index against the core's in-memory copy. Appends one
/// line per divergence to \p Mismatches, or the store's error when the
/// directory is unrecoverable (the core then keeps its in-memory state).
void recoverFromStore(core::RaftCore &Core, store::NodeStore &Store,
                      bool CheckAgainstCore,
                      std::vector<std::string> &Mismatches);

template <class Env> class Replica {
public:
  /// \p Store, when non-null, makes persistence real: the replica
  /// adopts whatever the store's directory already holds, flushes it
  /// before acting on a Persist-carrying batch, powers it down on crash
  /// and recovers from it on restart.
  Replica(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
          core::CoreOptions Opts, uint64_t Seed, Env E, Hooks H,
          store::NodeStore *Store)
      : Core(Id, Scheme, std::move(InitialConf), std::move(Opts), Seed),
        E(std::move(E)), H(std::move(H)), Store(Store) {
    if (Store)
      recoverFromStore(Core, *Store, /*CheckAgainstCore=*/false,
                       Mismatches);
  }

  Replica(const Replica &) = delete;
  Replica &operator=(const Replica &) = delete;

  /// Executes \p Effs in emission order (after the persist pre-pass).
  void dispatch(core::Effects Effs);

  void start() { dispatch(Core.start()); }
  void receive(const core::Msg &M) {
    dispatch(Core.onMessage(M, E.nowUs()));
  }
  /// A timer armed with \p Gen came due.
  void fire(core::TimerId T, uint64_t Gen) {
    dispatch(Core.onTimer(T, Gen, E.nowUs()));
  }

  /// Runs a client-facing core call \p Call(Core, Effs) and dispatches
  /// the effects it produced; returns whether the core accepted it.
  template <class Fn> bool run(Fn &&Call) {
    core::Effects Effs;
    bool Accepted = Call(Core, Effs);
    dispatch(std::move(Effs));
    return Accepted;
  }

  /// State-level fail-stop; a store-backed replica also loses power,
  /// and its directory suffers whatever the store's crash hook does.
  void crash() {
    dispatch(Core.crash());
    if (Store)
      Store->crash();
  }

  /// Restart after a crash. A store-backed replica recovers from its
  /// directory and cross-checks the result first; restarting a replica
  /// that never crashed re-installs nothing.
  void restart() {
    if (Store && Core.isCrashed())
      recoverFromStore(Core, *Store, /*CheckAgainstCore=*/true, Mismatches);
    dispatch(Core.restart());
  }

  core::RaftCore &core() { return Core; }
  const core::RaftCore &core() const { return Core; }
  Env &env() { return E; }
  Hooks &hooks() { return H; }
  bool hasStore() const { return Store != nullptr; }

  /// Every recovery divergence or unrecoverable directory so far, one
  /// line each, naming the replica. Always empty without a store.
  const std::vector<std::string> &storeMismatches() const {
    return Mismatches;
  }

private:
  core::RaftCore Core;
  Env E;
  Hooks H;
  store::NodeStore *Store;
  std::vector<std::string> Mismatches;
};

template <class Env> void Replica<Env>::dispatch(core::Effects Effs) {
  if (size_t From = Store ? core::persistFloor(Effs) : 0) {
    Store->persistFrom(Core, From);
    Store->sync();
  }
  NodeId Id = Core.id();
  for (core::Effect &Ef : Effs) {
    // Every Effect::Kind is enumerated with no default: a new kind
    // without a decision here is a compile error under -Werror=switch.
    switch (Ef.K) {
    case core::Effect::Kind::Send:
      E.send(std::move(Ef.M));
      break;
    case core::Effect::Kind::SetTimer:
      E.armTimer(Ef.Timer, Ef.TimerGen, Ef.DelayUs);
      break;
    case core::Effect::Kind::CancelTimer:
      E.cancelTimer(Ef.Timer);
      break;
    case core::Effect::Kind::Apply:
      if (H.OnApply)
        H.OnApply(Id, Ef.Index, Ef.Entry);
      break;
    case core::Effect::Kind::CommitAdvanced:
      // Deferred durability: the commit record rides the next sync; a
      // crash may lose it safely (recovery re-derives commits from the
      // quorum).
      if (Store)
        Store->noteCommit(Ef.Index);
      break;
    case core::Effect::Kind::Persist:
      break; // Handled by the pre-pass above.
    case core::Effect::Kind::LeaderElected:
      if (H.OnLeader)
        H.OnLeader(Id, Ef.Term);
      break;
    case core::Effect::Kind::ReplicaSuspected:
      if (H.OnSuspicion)
        H.OnSuspicion(Id, Ef.Peer, /*Suspected=*/true);
      break;
    case core::Effect::Kind::ReplicaRecovered:
      if (H.OnSuspicion)
        H.OnSuspicion(Id, Ef.Peer, /*Suspected=*/false);
      break;
    case core::Effect::Kind::ReadReady:
      if (H.OnRead)
        H.OnRead(Id, Ef.ReadId, /*Ok=*/true, Ef.Index);
      break;
    case core::Effect::Kind::ReadFailed:
      if (H.OnRead)
        H.OnRead(Id, Ef.ReadId, /*Ok=*/false, 0);
      break;
    }
  }
}

} // namespace host
} // namespace adore

#endif // ADORE_HOST_REPLICA_H
