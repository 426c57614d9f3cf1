//===- mc/CoreNetModel.h - The production core as a model -----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Model-checks the *production* protocol implementation: a state is a
/// vector of core::RaftCore values (the exact translation unit the sim
/// and rt runtimes execute) plus the in-flight message multiset and the
/// armed-timer bits, and a transition is one timer firing, one client or
/// admin input, one host idle flush of a partial append batch, or one
/// message delivery. Where mc/RaftNetModel.h explores the network-level
/// *specification*, this model closes the last gap in the story: the
/// code the chaos suite bombards is the code the checker exhaustively
/// explores on small clusters.
///
/// Time is abstracted to the two instants the protocol can distinguish:
/// "a live leader was heard from recently" (NowRecent, inside the Raft
/// §4.2.3 vote-stickiness window) and "leader contact has expired"
/// (NowExpired). Every RequestVote whose outcome depends on the window
/// is delivered both ways, so the checker covers the disruptive-server
/// regression states of §4.2.3 — including, with
/// CoreOptions::DisableVoteStickiness set, the buggy behaviours the
/// guard exists to forbid.
///
/// Timer delays and the core's Rng are abstracted entirely (an armed
/// timer may fire whenever armed), matching their exclusion from
/// RaftCore::addToSink.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_MC_CORENETMODEL_H
#define ADORE_MC_CORENETMODEL_H

#include "core/RaftCore.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace adore {
namespace mc {

/// Bounds for production-core exploration.
struct CoreNetModelOptions {
  /// Cap on any replica's term (elections stop past it).
  Time MaxTerm = 2;
  /// Cap on client/admin appends per log (leader no-ops ride on top, so
  /// logs stay bounded by MaxLog + MaxTerm).
  size_t MaxLog = 2;
  /// Cap on in-flight messages; effects past it are dropped, which is
  /// ordinary message loss, so the reachable set stays sound for safety.
  size_t MaxPending = 6;
  /// Allow reconfig transitions.
  bool WithReconfig = true;
  /// Explore crash/restart of single replicas.
  bool ExploreCrash = false;
  /// Give every replica its own drifting clock: NowUs observations use
  /// the per-node clock, and a tick transition advances one node's
  /// clock by ClockQuantumUs — the adversary schedules drift, subject
  /// only to the pairwise skew bound below. Off: the legacy two-instant
  /// time abstraction (and its stickiness dual-delivery) is used.
  bool WithClocks = false;
  /// Max |clock_i - clock_j| the tick adversary may create. To model a
  /// deployment that KEEPS its CoreOptions::MaxDriftPpm promise over
  /// the explored horizon, pick EffectiveLease + 2*Bound <=
  /// ElectionTimeoutMinUs; to model one that breaks it, pick a larger
  /// bound than declared and watch the lease invariants fire.
  uint64_t ClockSkewBoundUs = 1000;
  /// Clocks start at one quantum (0 would collide with the core's
  /// "never contacted" sentinel) and never tick past this, which keeps
  /// the reachable set finite and eventually starves lease renewal.
  uint64_t MaxClockUs = 6000;
  uint64_t ClockQuantumUs = 1000;
  /// Total linearizable-read submissions to explore (0 = none). Each
  /// read records the maximum commit index across live replicas at
  /// submission; a ReadReady below that is a stale read.
  uint64_t MaxReads = 0;
  /// Start the exploration from a converged prefix instead of cold
  /// boot: the first member is driven to leadership deterministically
  /// (election timer plus a synchronous-network drain), then through
  /// one heartbeat round, which replicates the term-start no-op and —
  /// with leases enabled — leaves it holding a fresh quorum-granted
  /// lease. Every step taken is an ordinary model transition on one
  /// fixed schedule, so the constructed state is reachable; the depth
  /// budget is just spent on the interesting suffix (a rival election
  /// under clock drift, say) instead of the boring election prefix.
  bool StartEstablished = false;
};

/// The production-core transition system.
class CoreNetModel {
public:
  struct State {
    std::vector<core::RaftCore> Cores;
    /// Armed-timer bits per core, maintained from SetTimer/CancelTimer
    /// effects (indexes parallel to Cores).
    std::vector<uint8_t> ElectionArmed;
    std::vector<uint8_t> HeartbeatArmed;
    /// In-flight messages. Order is immaterial (any may deliver next);
    /// the encoding canonicalizes it as a multiset.
    std::vector<core::Msg> Pending;
    /// Per-node clocks (WithClocks only; empty otherwise).
    std::vector<uint64_t> ClockUs;
    /// Reads submitted but not yet resolved (MaxReads only). MinCommit
    /// is the linearizability floor captured at submission.
    struct PendingRead {
      uint32_t Node = 0; ///< Index into Cores of the submission target.
      uint64_t ReadId = 0;
      uint64_t MinCommit = 0;
    };
    std::vector<PendingRead> PendingReads;
    uint64_t NextReadId = 0;
    /// First stale read observed while folding effects, if any; the
    /// invariant surfaces it.
    std::string ReadViolation;
  };

  CoreNetModel(const ReconfigScheme &Scheme, Config InitialConf,
               CoreNetModelOptions Opts = {},
               core::CoreOptions CoreOpts = {})
      : Scheme(&Scheme), InitialConf(std::move(InitialConf)), Opts(Opts),
        CoreOpts(CoreOpts) {}

  std::vector<State> initialStates() const {
    State St;
    for (NodeId Id : Scheme->mbrs(InitialConf)) {
      // The seed is arbitrary: the Rng only perturbs timer delays,
      // which this model abstracts over.
      St.Cores.emplace_back(Id, *Scheme, InitialConf, CoreOpts,
                            /*Seed=*/Id);
      St.ElectionArmed.push_back(0);
      St.HeartbeatArmed.push_back(0);
    }
    if (Opts.WithClocks)
      // One quantum, not zero: a contact stamped at clock 0 would
      // collide with LastLeaderContactUs's never-contacted sentinel.
      St.ClockUs.assign(St.Cores.size(), Opts.ClockQuantumUs);
    for (size_t I = 0; I != St.Cores.size(); ++I)
      absorb(St, I, St.Cores[I].start());
    if (Opts.StartEstablished)
      establish(St);
    return {std::move(St)};
  }

  uint64_t fingerprint(const State &St) const {
    Fnv1aHasher H;
    addToSink(H, St);
    return H.finish();
  }

  std::string encode(const State &St) const {
    StateEncoder E;
    addToSink(E, St);
    return E.take();
  }

  bool equal(const State &A, const State &B) const {
    return encode(A) == encode(B);
  }

  std::optional<std::string> invariant(const State &St) const {
    // A stale read is recorded the moment its ReadReady folds in.
    if (!St.ReadViolation.empty())
      return St.ReadViolation;
    // Election safety, state-based: a deposed leader always observes a
    // higher term first, so two same-term leaders would coexist in some
    // reachable state.
    for (size_t A = 0; A != St.Cores.size(); ++A)
      for (size_t B = A + 1; B != St.Cores.size(); ++B) {
        const core::RaftCore &CA = St.Cores[A];
        const core::RaftCore &CB = St.Cores[B];
        if (CA.isLeader() && CB.isLeader() && CA.term() == CB.term() &&
            !CA.isCrashed() && !CB.isCrashed())
          return "election safety violated: nodes " +
                 std::to_string(CA.id()) + " and " + std::to_string(CB.id()) +
                 " both lead term " + std::to_string(CA.term());
        // Single live lease: each holder judges liveness on its OWN
        // clock — that is exactly the overlap drift could create.
        if (leaseLiveHere(St, A) && leaseLiveHere(St, B))
          return "two live leases: nodes " + std::to_string(CA.id()) +
                 " (term " + std::to_string(CA.leaseTerm()) + ") and " +
                 std::to_string(CB.id()) + " (term " +
                 std::to_string(CB.leaseTerm()) + ")";
        if (auto V = checkLogMatching(CA, CB))
          return V;
        if (auto V = checkCommittedAgreement(CA, CB))
          return V;
      }
    for (const core::RaftCore &C : St.Cores) {
      if (auto V = checkConfigCache(C))
        return V;
      if (auto V = checkReconfigSpacing(C))
        return V;
      if (auto V = checkReconfigTermPrecedence(C))
        return V;
      if (auto V = checkSuspicionSanity(C))
        return V;
      if (auto V = checkLeaseSanity(C))
        return V;
    }
    return std::nullopt;
  }

  std::string describe(const State &St) const {
    std::ostringstream OS;
    for (size_t I = 0; I != St.Cores.size(); ++I) {
      OS << St.Cores[I].describe()
         << (St.ElectionArmed[I] ? " [E]" : "")
         << (St.HeartbeatArmed[I] ? " [H]" : "");
      if (Opts.WithClocks)
        OS << " clk=" << St.ClockUs[I];
      OS << "\n";
    }
    if (!St.PendingReads.empty())
      OS << "reads-in-flight: " << St.PendingReads.size() << "\n";
    OS << "pending(" << St.Pending.size() << "):";
    for (const core::Msg &M : St.Pending)
      OS << " " << M.str();
    return OS.str();
  }

  template <typename FnT>
  void forEachSuccessor(const State &St, FnT &&Fn) const {
    bool RoomToSend = St.Pending.size() < Opts.MaxPending;
    NodeSet Universe = Scheme->mbrs(InitialConf);

    for (size_t I = 0; I != St.Cores.size(); ++I) {
      const core::RaftCore &C = St.Cores[I];
      std::string Nid = std::to_string(C.id());
      // Election timeout fires (an armed timer may fire at any moment).
      if (St.ElectionArmed[I] && !C.isCrashed() && C.term() < Opts.MaxTerm &&
          RoomToSend) {
        State Next = St;
        Next.ElectionArmed[I] = 0;
        absorb(Next, I,
               Next.Cores[I].onTimer(core::TimerId::Election,
                                     C.electionGen(), nowFor(St, I)));
        Fn(std::move(Next), "electionTimeout(" + Nid + ")");
      }
      // Heartbeat fires.
      if (St.HeartbeatArmed[I] && !C.isCrashed() && C.isLeader() &&
          RoomToSend) {
        State Next = St;
        Next.HeartbeatArmed[I] = 0;
        absorb(Next, I,
               Next.Cores[I].onTimer(core::TimerId::Heartbeat,
                                     C.heartbeatGen(), nowFor(St, I)));
        Fn(std::move(Next), "heartbeat(" + Nid + ")");
      }
      // One node's clock ticks: the adversary drifts clocks apart in
      // quantum steps, constrained only by the pairwise skew bound and
      // the horizon.
      if (Opts.WithClocks && canTick(St, I)) {
        State Next = St;
        Next.ClockUs[I] += Opts.ClockQuantumUs;
        Fn(std::move(Next), "tick(" + Nid + ")");
      }
      // Linearizable read submission. The floor is the max commit
      // index across replicas NOW: everything committed anywhere
      // before the read was invoked must be visible to it.
      if (Opts.MaxReads != 0 && St.NextReadId < Opts.MaxReads &&
          !C.isCrashed() && RoomToSend) {
        State Next = St;
        State::PendingRead PR;
        PR.Node = static_cast<uint32_t>(I);
        PR.ReadId = ++Next.NextReadId;
        for (const core::RaftCore &Peer : St.Cores)
          PR.MinCommit = std::max(PR.MinCommit,
                                  static_cast<uint64_t>(Peer.commitIndex()));
        // Registered before absorb: a lease-holding leader answers
        // synchronously and the fold must find the pending record.
        Next.PendingReads.push_back(PR);
        core::Effects Effs;
        Next.Cores[I].readQuery(PR.ReadId, nowFor(St, I), Effs);
        absorb(Next, I, std::move(Effs));
        Fn(std::move(Next), "read(" + Nid + ")");
      }
      // Client command (constant identity: it never affects guards).
      if (C.isLeader() && !C.isCrashed() &&
          appendedEntries(C) < Opts.MaxLog) {
        State Next = St;
        core::Effects Effs;
        if (Next.Cores[I].submit(/*Method=*/1, /*ClientSeq=*/0, Effs)) {
          absorb(Next, I, std::move(Effs));
          Fn(std::move(Next), "submit(" + Nid + ")");
        }
      }
      // Idle flush: the host found its inbox drained and broadcasts the
      // partial append batch (only ever pending with MaxAppendBatch > 1,
      // so default-tuning explorations are unchanged).
      if (C.pendingBatch() > 0) {
        State Next = St;
        core::Effects Effs;
        Next.Cores[I].flushAppendBatch(Effs);
        absorb(Next, I, std::move(Effs));
        Fn(std::move(Next), "flush(" + Nid + ")");
      }
      // Admin reconfig.
      if (Opts.WithReconfig && C.isLeader() && !C.isCrashed() &&
          appendedEntries(C) < Opts.MaxLog) {
        for (const Config &Ncf :
             Scheme->candidateReconfigs(C.config(), Universe)) {
          State Next = St;
          core::Effects Effs;
          if (Next.Cores[I].requestReconfig(Ncf, Effs)) {
            absorb(Next, I, std::move(Effs));
            Fn(std::move(Next), "reconfig(" + Nid + "," + Ncf.str() + ")");
          }
        }
      }
      // Crash / restart.
      if (Opts.ExploreCrash) {
        State Next = St;
        if (C.isCrashed()) {
          absorb(Next, I, Next.Cores[I].restart());
          Fn(std::move(Next), "restart(" + Nid + ")");
        } else {
          absorb(Next, I, Next.Cores[I].crash());
          // crash() cancels both timers through effects; mirror that
          // even if the effect list is ever trimmed.
          Next.ElectionArmed[I] = 0;
          Next.HeartbeatArmed[I] = 0;
          Fn(std::move(Next), "crash(" + Nid + ")");
        }
      }
    }

    // Deliveries. Every pending message may arrive next; a RequestVote
    // whose fate hinges on the §4.2.3 stickiness window arrives both
    // inside it (refused) and after it expired (considered). With real
    // per-node clocks the window's passage is explored by tick
    // transitions instead, so the dual delivery is redundant there.
    for (size_t MI = 0; MI != St.Pending.size(); ++MI) {
      const core::Msg &M = St.Pending[MI];
      size_t RI = indexOf(St, M.To);
      if (RI == St.Cores.size())
        continue; // Addressee outside the model: undeliverable.
      deliver(St, MI, RI, nowFor(St, RI), "deliver", Fn);
      if (!Opts.WithClocks && stickinessSensitive(St.Cores[RI], M))
        deliver(St, MI, RI, NowExpired(), "deliverLate", Fn);
    }
  }

private:
  /// The instant inside the vote-stickiness window of a leader heard
  /// from at NowRecent (LastLeaderContactUs is only ever 0 or this).
  uint64_t NowRecent() const { return 1; }
  /// The first instant past that window.
  uint64_t NowExpired() const {
    return NowRecent() + CoreOpts.ElectionTimeoutMinUs;
  }
  /// What node \p I's protocol clock reads in \p St.
  uint64_t nowFor(const State &St, size_t I) const {
    return Opts.WithClocks ? St.ClockUs[I] : NowRecent();
  }
  /// May node \p I's clock advance one quantum without leaving the
  /// horizon or stretching any pairwise skew past the bound? (Only the
  /// growing side can break the bound.)
  bool canTick(const State &St, size_t I) const {
    uint64_t Next = St.ClockUs[I] + Opts.ClockQuantumUs;
    if (Next > Opts.MaxClockUs)
      return false;
    for (uint64_t Other : St.ClockUs)
      if (Next > Other + Opts.ClockSkewBoundUs)
        return false;
    return true;
  }
  /// Is node \p I's lease live, judged on its own clock — the only
  /// clock the node itself can consult before serving a read?
  bool leaseLiveHere(const State &St, size_t I) const {
    return St.Cores[I].leaseLiveAt(nowFor(St, I));
  }

  /// Client/admin appends in \p C's log (leader no-ops excluded), the
  /// quantity MaxLog bounds.
  static size_t appendedEntries(const core::RaftCore &C) {
    size_t N = 0;
    for (const core::LogEntry &E : C.log())
      if (E.Kind == raft::EntryKind::Reconfig || E.Method != 0)
        ++N;
    return N;
  }

  size_t indexOf(const State &St, NodeId Id) const {
    for (size_t I = 0; I != St.Cores.size(); ++I)
      if (St.Cores[I].id() == Id)
        return I;
    return St.Cores.size();
  }

  /// True when delivering \p M to \p C now vs. after the stickiness
  /// window could differ: only RequestVotes that the window would refuse.
  bool stickinessSensitive(const core::RaftCore &C,
                           const core::Msg &M) const {
    return M.K == core::Msg::Kind::RequestVote && !M.TransferElection &&
           !CoreOpts.DisableVoteStickiness && !C.isCrashed() &&
           !C.isLeader() && C.leaderHint().has_value();
  }

  template <typename FnT>
  void deliver(const State &St, size_t MsgIdx, size_t CoreIdx,
               uint64_t NowUs, const char *Verb, FnT &&Fn) const {
    State Next = St;
    core::Msg M = std::move(Next.Pending[MsgIdx]);
    Next.Pending.erase(Next.Pending.begin() +
                       static_cast<ptrdiff_t>(MsgIdx));
    absorb(Next, CoreIdx, Next.Cores[CoreIdx].onMessage(M, NowUs));
    Fn(std::move(Next), std::string(Verb) + "(" + M.str() + ")");
  }

  /// Initial-state construction only: deliver every pending message in
  /// FIFO order until the network is quiet — one fixed schedule of
  /// ordinary deliver transitions (a synchronous network).
  void drainPending(State &St) const {
    while (!St.Pending.empty()) {
      core::Msg M = std::move(St.Pending.front());
      St.Pending.erase(St.Pending.begin());
      size_t RI = indexOf(St, M.To);
      if (RI == St.Cores.size())
        continue;
      absorb(St, RI, St.Cores[RI].onMessage(M, nowFor(St, RI)));
    }
  }

  /// StartEstablished: elect the first member and run one heartbeat
  /// round on a synchronous network (see the option's comment).
  void establish(State &St) const {
    if (St.ElectionArmed[0]) {
      St.ElectionArmed[0] = 0;
      absorb(St, 0,
             St.Cores[0].onTimer(core::TimerId::Election,
                                 St.Cores[0].electionGen(), nowFor(St, 0)));
      drainPending(St);
    }
    // The heartbeat replicates the term-start no-op (committing it on
    // the next exchange) and, with leases enabled, opens the
    // confirmation round whose acks grant the leader its lease.
    if (St.Cores[0].isLeader() && St.HeartbeatArmed[0]) {
      St.HeartbeatArmed[0] = 0;
      absorb(St, 0,
             St.Cores[0].onTimer(core::TimerId::Heartbeat,
                                 St.Cores[0].heartbeatGen(),
                                 nowFor(St, 0)));
      drainPending(St);
    }
  }

  /// Folds a core's effect list into the model state: sends join the
  /// network (dropped as loss when full), timer effects maintain the
  /// armed bits, everything else is host-side and invisible here.
  void absorb(State &St, size_t I, core::Effects Effs) const {
    for (core::Effect &E : Effs) {
      switch (E.K) {
      case core::Effect::Kind::Send:
        if (St.Pending.size() < Opts.MaxPending)
          St.Pending.push_back(std::move(E.M));
        break;
      case core::Effect::Kind::SetTimer:
        (E.Timer == core::TimerId::Election ? St.ElectionArmed
                                            : St.HeartbeatArmed)[I] = 1;
        break;
      case core::Effect::Kind::CancelTimer:
        (E.Timer == core::TimerId::Election ? St.ElectionArmed
                                            : St.HeartbeatArmed)[I] = 0;
        break;
      case core::Effect::Kind::ReadReady:
      case core::Effect::Kind::ReadFailed: {
        // Resolve the pending read this effect answers. A ReadReady
        // below the linearizability floor captured at submission IS
        // the stale read the lease/ReadIndex machinery must prevent.
        auto It = std::find_if(St.PendingReads.begin(),
                               St.PendingReads.end(),
                               [&](const State::PendingRead &PR) {
                                 return PR.Node == I &&
                                        PR.ReadId == E.ReadId;
                               });
        if (It == St.PendingReads.end())
          break; // E.g. dropped by a crash; nothing to resolve.
        if (E.K == core::Effect::Kind::ReadReady &&
            static_cast<uint64_t>(E.Index) < It->MinCommit &&
            St.ReadViolation.empty())
          St.ReadViolation =
              "stale read: node " + std::to_string(St.Cores[I].id()) +
              " served read " + std::to_string(E.ReadId) + " at index " +
              std::to_string(E.Index) + " < committed floor " +
              std::to_string(It->MinCommit);
        St.PendingReads.erase(It);
        break;
      }
      case core::Effect::Kind::Apply:
      case core::Effect::Kind::CommitAdvanced:
      case core::Effect::Kind::Persist:
      case core::Effect::Kind::LeaderElected:
      // Suspicion transitions are host-side notifications (the heal
      // driver's input); the *state* behind them lives in the core and
      // is fingerprinted there, so the model checker explores every
      // suspect/recover interleaving without extra bookkeeping here.
      case core::Effect::Kind::ReplicaSuspected:
      case core::Effect::Kind::ReplicaRecovered:
        break;
      }
    }
  }

  template <typename SinkT>
  static void addMsgToSink(SinkT &S, const core::Msg &M) {
    S.addByte(static_cast<uint8_t>(M.K));
    S.addU32(M.From);
    S.addU32(M.To);
    S.addU64(M.Term);
    S.addU64(M.LastLogTerm);
    S.addU64(M.LastLogIndex);
    S.addBool(M.TransferElection);
    S.addBool(M.Granted);
    S.addU64(M.PrevIndex);
    S.addU64(M.PrevTerm);
    S.addU64(M.LeaderCommit);
    S.addBool(M.Success);
    S.addU64(M.MatchIndex);
    S.addU64(M.SnapIndex);
    S.addU64(M.SnapTerm);
    S.addU64(M.Offset);
    S.addBool(M.Done);
    S.addString(M.Chunk);
    S.addU64(M.ReadRound);
    S.addU64(M.Entries.size());
    for (const core::LogEntry &E : M.Entries) {
      S.addU64(E.Term);
      S.addByte(static_cast<uint8_t>(E.Kind));
      S.addU64(E.Method);
      E.Conf.addToSink(S);
      S.addU64(E.ClientSeq);
    }
  }

  template <typename SinkT>
  void addToSink(SinkT &S, const State &St) const {
    S.addU64(St.Cores.size());
    for (size_t I = 0; I != St.Cores.size(); ++I) {
      St.Cores[I].addToSink(S);
      S.addBool(St.ElectionArmed[I] != 0);
      S.addBool(St.HeartbeatArmed[I] != 0);
    }
    // Model-level read/clock bookkeeping, gated on the options that
    // introduce it so legacy explorations encode byte-identically.
    if (Opts.WithClocks)
      for (uint64_t Clock : St.ClockUs)
        S.addU64(Clock);
    if (Opts.MaxReads != 0) {
      S.addU64(St.NextReadId);
      S.addU64(St.PendingReads.size());
      for (const State::PendingRead &PR : St.PendingReads) {
        S.addU32(PR.Node);
        S.addU64(PR.ReadId);
        S.addU64(PR.MinCommit);
      }
      S.addString(St.ReadViolation);
    }
    // The network is a multiset: sort per-message digests so states
    // differing only in arrival order coincide.
    S.addU64(St.Pending.size());
    std::vector<decltype(sinkSubResult(S))> Subs;
    Subs.reserve(St.Pending.size());
    for (const core::Msg &M : St.Pending) {
      SinkT Sub;
      addMsgToSink(Sub, M);
      Subs.push_back(sinkSubResult(Sub));
    }
    std::sort(Subs.begin(), Subs.end());
    for (const auto &Sub : Subs)
      addSubResult(S, Sub);
  }

  /// Raft log matching, pairwise: same term at one index implies equal
  /// prefixes up to it. Scan from the highest shared index downward.
  static std::optional<std::string>
  checkLogMatching(const core::RaftCore &A, const core::RaftCore &B) {
    size_t Common = std::min(A.logSize(), B.logSize());
    for (size_t I = Common; I > 0; --I) {
      if (A.entry(I).Term != B.entry(I).Term)
        continue;
      for (size_t J = 1; J <= I; ++J)
        if (A.entry(J) != B.entry(J))
          return "log matching violated: nodes " + std::to_string(A.id()) +
                 " and " + std::to_string(B.id()) + " agree at index " +
                 std::to_string(I) + " but differ at " + std::to_string(J);
      return std::nullopt; // Prefixes equal; lower indexes all match.
    }
    return std::nullopt;
  }

  /// Committed entries must agree across replicas.
  static std::optional<std::string>
  checkCommittedAgreement(const core::RaftCore &A, const core::RaftCore &B) {
    size_t Common = std::min(A.commitIndex(), B.commitIndex());
    for (size_t I = 1; I <= Common; ++I)
      if (A.entry(I) != B.entry(I))
        return "committed logs disagree: nodes " + std::to_string(A.id()) +
               " and " + std::to_string(B.id()) + " at index " +
               std::to_string(I);
    return std::nullopt;
  }

  /// The core's cached configuration must equal a full scan of its log,
  /// for the whole log and every prefix of it.
  std::optional<std::string> checkConfigCache(const core::RaftCore &C) const {
    if (C.config() != raft::configOfPrefix(C.log(), C.logSize(), InitialConf))
      return "config cache stale: node " + std::to_string(C.id()) +
             " runs under " + C.config().str();
    for (size_t K = 0; K != C.logSize(); ++K)
      if (C.configOfPrefix(K) != raft::configOfPrefix(C.log(), K, InitialConf))
        return "config cache stale: node " + std::to_string(C.id()) +
               " misreports the config of prefix " + std::to_string(K);
    return std::nullopt;
  }

  /// R2-derived: a leader never starts a reconfiguration while another
  /// is uncommitted, so no log ever holds two uncommitted reconfigs.
  static std::optional<std::string>
  checkReconfigSpacing(const core::RaftCore &C) {
    size_t Uncommitted = 0;
    for (size_t I = C.commitIndex() + 1; I <= C.logSize(); ++I)
      if (C.entry(I).Kind == raft::EntryKind::Reconfig)
        ++Uncommitted;
    if (Uncommitted > 1)
      return "R2 violated: node " + std::to_string(C.id()) + " holds " +
             std::to_string(Uncommitted) + " uncommitted reconfigs";
    return std::nullopt;
  }

  /// R3-derived: a leader commits an entry of its own term (its no-op)
  /// before reconfiguring, so every reconfig entry of term t is
  /// preceded in its log by another entry of term t.
  static std::optional<std::string>
  checkReconfigTermPrecedence(const core::RaftCore &C) {
    for (size_t I = 1; I <= C.logSize(); ++I) {
      if (C.entry(I).Kind != raft::EntryKind::Reconfig)
        continue;
      bool Preceded = false;
      for (size_t J = 1; J != I; ++J)
        if (C.entry(J).Term == C.entry(I).Term) {
          Preceded = true;
          break;
        }
      if (!Preceded)
        return "R3 violated: node " + std::to_string(C.id()) +
               " holds a term-" + std::to_string(C.entry(I).Term) +
               " reconfig at index " + std::to_string(I) +
               " with no prior entry of that term";
    }
    return std::nullopt;
  }

  /// Healing sanity: suspicion is leader-local soft state. A non-leader
  /// holding suspicions, or a suspicion of a non-member, would let the
  /// heal driver act on observations nobody is maintaining — both must
  /// be unreachable (the core clears the set on every leadership exit
  /// and prunes it against the new config the moment a reconfig entry
  /// is appended, as well as each heartbeat round).
  std::optional<std::string>
  checkSuspicionSanity(const core::RaftCore &C) const {
    if (C.suspected().empty())
      return std::nullopt;
    if (!C.isLeader() || C.isCrashed())
      return "suspicion outside leadership: node " + std::to_string(C.id()) +
             " holds suspicions but is not an active leader";
    if (!C.suspected().isSubsetOf(Scheme->mbrs(C.config())))
      return "node " + std::to_string(C.id()) +
             " suspects a non-member of its own configuration";
    return std::nullopt;
  }

  /// Lease structural invariants, liveness aside: (a) lease⊆term — a
  /// lease only ever belongs to the current term's active leader (the
  /// core clears it on every leadership or term exit); (b) lease dies
  /// at reconfig-append — no lease may coexist with an uncommitted
  /// reconfig entry, because the new config could elect a leader whose
  /// voters never promised the lease holder anything.
  static std::optional<std::string>
  checkLeaseSanity(const core::RaftCore &C) {
    if (C.leaseUntilUs() == 0)
      return std::nullopt;
    if (!C.isLeader() || C.isCrashed() || C.leaseTerm() != C.term())
      return "lease outside leadership: node " + std::to_string(C.id()) +
             " holds a term-" + std::to_string(C.leaseTerm()) +
             " lease but is not the active term-" +
             std::to_string(C.term()) + " leader";
    for (size_t I = C.commitIndex() + 1; I <= C.logSize(); ++I)
      if (C.entry(I).Kind == raft::EntryKind::Reconfig)
        return "lease survived reconfig-append: node " +
               std::to_string(C.id()) +
               " holds a lease with an uncommitted reconfig at index " +
               std::to_string(I);
    return std::nullopt;
  }

  const ReconfigScheme *Scheme;
  Config InitialConf;
  CoreNetModelOptions Opts;
  core::CoreOptions CoreOpts;
};

} // namespace mc
} // namespace adore

#endif // ADORE_MC_CORENETMODEL_H
