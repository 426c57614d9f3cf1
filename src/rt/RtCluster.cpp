//===- rt/RtCluster.cpp - Threaded cluster harness --------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/RtCluster.h"

#include "net/TcpTransport.h"
#include "support/Rng.h"

#include <chrono>
#include <sstream>

using namespace adore;
using namespace adore::rt;

namespace {

std::chrono::steady_clock::time_point deadlineIn(uint64_t Ms) {
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
}

} // namespace

std::unique_ptr<Transport> rt::makeTransport(TransportKind K) {
  switch (K) {
  case TransportKind::Bus:
    return std::make_unique<Bus>();
  case TransportKind::Tcp:
    return std::make_unique<net::TcpTransport>();
  }
  return std::make_unique<Bus>();
}

RtCluster::RtCluster(RtClusterOptions Opts)
    : Opts(Opts), Scheme(makeScheme(Opts.Scheme)),
      OwnNet(Opts.SharedNet ? nullptr : makeTransport(Opts.Transport)),
      Net(Opts.SharedNet ? Opts.SharedNet : OwnNet.get()) {
  size_t Total = Opts.NumNodes + Opts.NumSpares;
  NodeSet Members;
  for (size_t I = 1; I <= Opts.NumNodes; ++I)
    Members.insert(Opts.IdBase + static_cast<NodeId>(I));
  InitialConf = Config(Members);

  Rng SeedRng(Opts.Seed);
  RtNodeHooks Hooks;
  Hooks.OnApply = [this](NodeId N, size_t I, const core::LogEntry &E) {
    // The extra tap runs first and lock-free: cluster bookkeeping takes
    // ObsMu, and a sharded pool's map state machine must be free to
    // take its own locks without ordering against ours.
    if (this->Opts.OnApplyExtra)
      this->Opts.OnApplyExtra(N, I, E);
    onApply(N, I, E);
  };
  Hooks.OnLeader = [this](NodeId N, Time T) { onLeader(N, T); };
  Hooks.OnSuspicion = [this](NodeId N, NodeId Peer, bool SuspectedNow) {
    if (this->Opts.OnSuspicion)
      this->Opts.OnSuspicion(N, Peer, SuspectedNow);
  };
  Hooks.OnReadDone = [this](NodeId N, uint64_t Id, bool Ok, size_t Index) {
    onReadDone(N, Id, Ok, Index);
  };
  if (Opts.DurableStore) {
    store::Vfs *Backing = Opts.ExternalDisk;
    if (!Backing) {
      Disk = std::make_unique<store::MemVfs>(Opts.Seed ^ 0xD15CFA017ULL,
                                             Opts.StoreFaults);
      Backing = Disk.get();
    }
    for (size_t I = 1; I <= Total; ++I) {
      auto St = std::make_unique<store::NodeStore>(
          *Backing,
          Opts.StoreDirPrefix + "n" + std::to_string(Opts.IdBase + I),
          Opts.Store);
      // Only the internal MemVfs models power loss; an external disk
      // keeps everything it was handed (crash is a pure fail-stop).
      if (!Opts.ExternalDisk) {
        store::NodeStore *Ptr = St.get();
        St->setCrashHook([this, Ptr] { Disk->crashDir(Ptr->dir() + "/"); });
      }
      Stores.push_back(std::move(St));
    }
  }
  for (size_t I = 1; I <= Total; ++I) {
    store::NodeStore *St = Opts.DurableStore ? Stores[I - 1].get() : nullptr;
    Nodes.push_back(std::make_unique<RtNode>(
        Opts.IdBase + static_cast<NodeId>(I), *Scheme, InitialConf,
        Opts.Node, SeedRng.next(), *Net, Hooks, St, Opts.Host));
  }
}

NodeSet RtCluster::universe() const {
  NodeSet S;
  for (const auto &N : Nodes)
    S.insert(N->id());
  return S;
}

Config RtCluster::currentConfig() const {
  if (RtNode *L = liveNode(/*Leader=*/true))
    return L->status().Conf;
  return InitialConf;
}

RtNode *RtCluster::liveNode(bool Leader) const {
  for (const auto &N : Nodes) {
    std::optional<core::Role> R = N->liveRole();
    if (R && (*R == core::Role::Leader) == Leader)
      return N.get();
  }
  return nullptr;
}

RtNode *RtCluster::leaderOr(size_t Rotor) const {
  // Prefer the node that currently claims leadership; fall back to
  // round-robin so a stale claim cannot wedge the client.
  if (RtNode *L = liveNode(/*Leader=*/true))
    return L;
  return Nodes[Rotor % Nodes.size()].get();
}

store::StoreStats RtCluster::storeStats() const {
  store::StoreStats Sum;
  for (const auto &St : Stores)
    Sum.accumulate(St->stats());
  return Sum;
}

RtCluster::~RtCluster() { stop(); }

void RtCluster::start() {
  // LifeMu makes cluster lifecycle transitions atomic: the old unlocked
  // Running flag let a start() racing a stop() interleave node
  // starts/joins arbitrarily (annotating Running GUARDED_BY is what
  // forced this). Joining under LifeMu is fine — workers only ever
  // need ObsMu.
  sync::MutexLock Lock(LifeMu);
  if (Running)
    return;
  Running = true;
  for (auto &N : Nodes)
    N->start();
}

void RtCluster::stop() {
  sync::MutexLock Lock(LifeMu);
  if (!Running)
    return;
  for (auto &N : Nodes)
    N->stop();
  Running = false;
}

NodeId RtCluster::waitForLeader(uint64_t TimeoutMs) const {
  auto Deadline = deadlineIn(TimeoutMs);
  for (;;) {
    if (RtNode *L = liveNode(/*Leader=*/true))
      return L->id();
    if (std::chrono::steady_clock::now() >= Deadline)
      return InvalidNodeId;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool RtCluster::submitAndWait(MethodId Method, uint64_t TimeoutMs) {
  uint64_t Seq;
  {
    sync::MutexLock Lock(ObsMu);
    Seq = NextClientSeq++;
  }
  auto Deadline = deadlineIn(TimeoutMs);
  size_t Rotor = 0;
  for (;;) {
    // At-least-once with a stable sequence number: re-sending after an
    // unobserved commit is harmless because commitment is keyed by Seq.
    leaderOr(Rotor++)->submit(Method, Seq);

    // Open-coded predicate wait (rather than the wait_until overload
    // taking a lambda): the predicate reads ObsMu-guarded state, and a
    // lambda body is outside the lexical scope the thread-safety
    // analysis can check against the held capability.
    sync::MutexLock Lock(ObsMu);
    auto Retry = deadlineIn(40);
    while (CommittedSeqs.count(Seq) == 0) {
      if (ObsCv.waitUntil(ObsMu, Retry) == std::cv_status::timeout)
        break;
    }
    if (CommittedSeqs.count(Seq) != 0)
      return true;
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
  }
}

void RtCluster::submitAsync(MethodId Method, uint64_t ClientSeq,
                            size_t Rotor) {
  leaderOr(Rotor)->submit(Method, ClientSeq);
}

bool RtCluster::reconfigAndWait(const Config &NewConf, uint64_t TimeoutMs) {
  auto Deadline = deadlineIn(TimeoutMs);
  size_t Rotor = 0;
  for (;;) {
    leaderOr(Rotor++)->requestReconfig(NewConf);

    sync::MutexLock Lock(ObsMu);
    auto Retry = deadlineIn(40);
    while (!confCommittedLocked(NewConf)) {
      if (ObsCv.waitUntil(ObsMu, Retry) == std::cv_status::timeout)
        break;
    }
    if (confCommittedLocked(NewConf))
      return true;
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
  }
}

std::optional<size_t> RtCluster::readAndWait(uint64_t TimeoutMs,
                                             bool AtFollower) {
  auto Deadline = deadlineIn(TimeoutMs);
  size_t Rotor = 0;
  for (;;) {
    // Pick the target: some live non-leader for follower reads, else
    // the node claiming leadership (or round-robin).
    RtNode *Target = AtFollower ? liveNode(/*Leader=*/false) : nullptr;
    if (!Target)
      Target = leaderOr(Rotor++);

    uint64_t ReadId;
    size_t LedgerLb;
    {
      sync::MutexLock Lock(ObsMu);
      ReadId = NextReadId++;
      // Snapshot BEFORE issuing: everything committed by now must be
      // visible to a linearizable read that starts after now.
      LedgerLb = Ledger.size();
    }
    Target->read(ReadId);

    sync::MutexLock Lock(ObsMu);
    auto Retry = deadlineIn(40);
    while (ReadResults.count(ReadId) == 0) {
      if (ObsCv.waitUntil(ObsMu, Retry) == std::cv_status::timeout)
        break;
    }
    auto It = ReadResults.find(ReadId);
    if (It != ReadResults.end()) {
      ReadOutcome R = It->second;
      ReadResults.erase(It);
      if (R.Ok) {
        if (R.Index < LedgerLb) {
          std::ostringstream OS;
          OS << "stale read: served at index " << R.Index << " but "
             << LedgerLb << " entries were committed before issue";
          Violations.push_back(OS.str());
        }
        return R.Index;
      }
      // ReadFailed: a follower NACK (wrong leader / lease lapsed) or a
      // leader losing its role mid-read. Fall back to the leader on
      // the next attempt, like the retry-at-leader client policy.
      AtFollower = false;
    }
    if (std::chrono::steady_clock::now() >= Deadline)
      return std::nullopt;
  }
}

bool RtCluster::confCommittedLocked(const Config &NewConf) const {
  for (const Config &C : CommittedConfs)
    if (C == NewConf)
      return true;
  return false;
}

void RtCluster::crash(NodeId Id) {
  for (auto &N : Nodes)
    if (N->id() == Id)
      N->crash();
}

void RtCluster::restart(NodeId Id) {
  for (auto &N : Nodes)
    if (N->id() == Id)
      N->restart();
}

RtNodeStatus RtCluster::nodeStatus(NodeId Id) const {
  for (const auto &N : Nodes)
    if (N->id() == Id)
      return N->status();
  return RtNodeStatus();
}

const core::RaftCore &RtCluster::coreForInspection(NodeId Id) const {
  for (const auto &N : Nodes)
    if (N->id() == Id)
      return N->coreForInspection();
  return Nodes.front()->coreForInspection();
}

size_t RtCluster::committedCount() const {
  sync::MutexLock Lock(ObsMu);
  return Ledger.size();
}

std::vector<std::string> RtCluster::violations() const {
  sync::MutexLock Lock(ObsMu);
  return Violations;
}

void RtCluster::onApply(NodeId Node, size_t Index, const core::LogEntry &E) {
  sync::MutexLock Lock(ObsMu);
  auto It = Ledger.find(Index);
  if (It == Ledger.end()) {
    Ledger.emplace(Index, E);
    if (E.Kind == raft::EntryKind::Method && E.ClientSeq != 0)
      CommittedSeqs.insert(E.ClientSeq);
    if (E.Kind == raft::EntryKind::Reconfig)
      CommittedConfs.push_back(E.Conf);
  } else if (It->second != E) {
    std::ostringstream OS;
    OS << "divergent apply at index " << Index << ": node " << Node
       << " applied a different entry than first committed";
    Violations.push_back(OS.str());
  }
  ObsCv.notifyAll();
}

void RtCluster::onLeader(NodeId Node, Time Term) {
  sync::MutexLock Lock(ObsMu);
  auto &Set = LeadersByTerm[Term];
  Set.insert(Node);
  if (Set.size() > 1) {
    std::ostringstream OS;
    OS << "election safety violated: " << Set.size() << " leaders in term "
       << Term;
    Violations.push_back(OS.str());
  }
  ObsCv.notifyAll();
}

void RtCluster::onReadDone(NodeId, uint64_t ReadId, bool Ok, size_t Index) {
  sync::MutexLock Lock(ObsMu);
  ReadResults[ReadId] = ReadOutcome{Ok, Index};
  ObsCv.notifyAll();
}

std::vector<std::string> RtCluster::checkFinalAgreement() {
  sync::MutexLock Lock(ObsMu);
  for (const auto &N : Nodes) {
    if (uint64_t M = N->storeMismatches()) {
      std::ostringstream OS;
      OS << "node " << N->id() << " observed " << M
         << " store recovery mismatch(es): disk state diverged from the "
         << "in-memory copy";
      Violations.push_back(OS.str());
    }
  }
  for (const auto &N : Nodes) {
    const core::RaftCore &C = N->coreForInspection();
    for (size_t I = 1; I <= C.commitIndex(); ++I) {
      auto It = Ledger.find(I);
      if (It == Ledger.end())
        continue; // Ledger only sees entries somebody applied.
      if (C.entry(I) != It->second) {
        std::ostringstream OS;
        OS << "final log of node " << C.id() << " disagrees with ledger at "
           << "index " << I;
        Violations.push_back(OS.str());
      }
    }
  }
  return Violations;
}
