//===- chaos/RtRun.cpp - Chaos scenarios on the threaded runtime ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// One driver for a single group and for a pool. Groups=1 (other than
// shard-reconfig) builds a plain rt::RtCluster with ids 1..Members.
// Anything else builds an rt::ShardedRtCluster: a metadata group plus
// Groups data groups on one transport, with keyed writes routed through
// the pool map by a shard::ShardedKvClient. Each scenario script runs
// once per data group; pool-map work (migrations, the map sync after a
// heal) runs only where a pool exists. Nothing here is deterministic:
// thread scheduling is genuine, which is the point, since this path
// runs under TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "chaos/RtRun.h"

#include "heal/Healer.h"
#include "read/ReadPath.h"
#include "rt/ShardedRt.h"
#include "support/Rng.h"
#include "support/Sync.h"

#include <chrono>
#include <memory>
#include <optional>
#include <thread>

using namespace adore;
using namespace adore::chaos;
using adore::shard::GroupId;

namespace {

void sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// The highest-id live member of \p Grp's current configuration other
/// than \p Leader (highest first, for reproducibility of the choice).
NodeId pickVictim(const rt::RtCluster &Grp, NodeId Leader) {
  NodeId Victim = InvalidNodeId;
  for (NodeId M : Grp.scheme().mbrs(Grp.currentConfig()))
    if (M != Leader && !Grp.nodeStatus(M).Crashed)
      Victim = M;
  return Victim;
}

class RtChaosRun {
public:
  RtChaosRun(const RtRunOptions &Opts, uint64_t Seed);
  ChaosRunResult run();

private:
  size_t dataGroups() const { return Pool ? Pool->dataGroups() : 1; }
  rt::RtCluster &group(GroupId G) { return Pool ? Pool->group(G) : *Single; }
  std::string tag(GroupId G) const;
  bool allLead() const;
  uint64_t nowUs() const;

  void submit(size_t Count);
  bool reconfig(GroupId G, const Config &To, const char *What);
  void script(GroupId G);
  void killForever(GroupId G);
  bool fullyReplicated(rt::RtCluster &Grp) const;
  void healStep(GroupId G);
  void migrate();
  void finish();

  RtRunOptions Opts;
  ChaosRunResult Result;
  /// Wall-clock origin: the healer's backoff clock and the healing
  /// latency metrics (rt runs live on the real clock).
  std::chrono::steady_clock::time_point T0 = std::chrono::steady_clock::now();
  /// Forks the pool, migration and workload seeds, in that order.
  Rng Master;
  uint64_t ClusterSeed = Master.next();
  uint64_t ScenarioSeed = Master.next();
  uint64_t WorkloadSeed = Master.next();
  Rng Workload{WorkloadSeed};

  // Self-healing (kill-forever only): one Healer per data group, fed by
  // the suspicion tap on node worker threads; HealMu serializes it
  // against the harness thread. Declared before the clusters so the
  // workers never outlive what the tap reaches.
  sync::Mutex HealMu;
  std::vector<std::unique_ptr<heal::Healer>> Healers ADORE_GUARDED_BY(HealMu);
  uint64_t FirstSuspectUs ADORE_GUARDED_BY(HealMu) = 0;
  uint64_t FirstKillUs = 0;

  /// Exactly one of these is set.
  std::unique_ptr<rt::RtCluster> Single;
  std::unique_ptr<rt::ShardedRtCluster> Pool;
  /// Pool runs only: the routing client (declared after the pool its
  /// transport reaches) and the executed ops per group.
  std::optional<shard::ShardedKvClient> Client;
  std::vector<size_t> OpsByGroup;
};

RtChaosRun::RtChaosRun(const RtRunOptions &O, uint64_t Seed)
    : Opts(O), Master(Seed) {
  Result.Seed = Seed;
  Result.Kind = Opts.Kind;

  rt::RtClusterOptions CO;
  CO.Scheme = Opts.Scheme;
  CO.Transport = Opts.Transport;
  CO.DurableStore = Opts.DurableStore || Opts.Kind == Scenario::DiskFaults;
  if (CO.DurableStore)
    CO.StoreFaults = ChaosRunOptions::defaultStoreFaults();
  Result.DurableStore = CO.DurableStore;
  // The read-path scenario: the rt runtime lives on the real clock (no
  // skew to inject — loopback clocks agree), so what it buys is the
  // whole read ladder under genuine concurrency: ReadIndex rounds,
  // lease renewal off real deadline timers, follower forwarding, and
  // the retry-at-leader fallback, all with every read staleness-checked
  // against the ledger snapshot taken at issue.
  Result.ReadPath = Opts.Kind == Scenario::ClockDrift;
  if (Result.ReadPath) {
    // fastNodeOptions: ETmin 50ms, heartbeat 15ms. Effective lease =
    // 30ms * (1 - 2*10%) = 24ms — longer than a heartbeat gap, so the
    // lease stays continuously renewed, and well under ETmin.
    read::ReadOptions RO;
    RO.Tier = read::ReadTier::FollowerLease;
    RO.LeaseDurationUs = 30000;
    RO.MaxDriftPpm = 100000;
    read::applyTier(RO, CO.Node);
  }
  Result.Healing = Opts.Kind == Scenario::KillForever;
  if (Result.Healing) {
    CO.Node.EnableSuspicion = true;
    CO.Node.EnableSnapshotCatchup = true;
    CO.Node.SnapshotLagEntries = 8;
    CO.OnSuspicion = [this](NodeId Observer, NodeId Peer, bool SuspectedNow) {
      GroupId G = Pool ? shard::groupOfNode(Observer) : 1;
      sync::MutexLock L(HealMu);
      if (G == shard::MetaGroupId || G >= Healers.size())
        return;
      if (SuspectedNow) {
        Healers[G]->observeSuspected(Peer);
        if (!FirstSuspectUs)
          FirstSuspectUs = nowUs();
      } else {
        Healers[G]->observeRecovered(Peer);
      }
    };
  }

  if (Opts.Groups <= 1 && Opts.Kind != Scenario::ShardReconfig) {
    CO.NumNodes = Opts.Members;
    CO.NumSpares = Result.Healing ? Opts.Spares : 0;
    CO.Seed = Seed;
    Single = std::make_unique<rt::RtCluster>(CO);
  } else {
    rt::ShardedRtOptions SO;
    SO.Group = CO;
    SO.Group.Seed = ClusterSeed;
    SO.Groups = Opts.Groups < 1 ? 1 : Opts.Groups;
    SO.NumShards = Opts.Shards;
    SO.Members = Opts.Members;
    SO.Spares = Opts.Spares;
    SO.MetaMembers = Opts.Members;
    Pool = std::make_unique<rt::ShardedRtCluster>(SO);
    OpsByGroup.assign(Pool->dataGroups() + 1, 0);

    // Perform round-trips the request and reply through the wire codecs
    // (the rt path carries frames, so exercise the framing), validates
    // ingress against the committed map, and executes accepted writes
    // as a submitAndWait on the owning group.
    shard::ShardedKvClient::Transport T;
    T.Perform = [this](const shard::RouteRequest &R,
                       shard::ShardedKvClient::ReplyFn Done) {
      std::string Frame;
      shard::encodeRouteRequest(Frame, R);
      shard::RouteRequest Req;
      shard::GroupReply Reply;
      if (!shard::decodeRouteRequest(Frame, Req)) {
        Done(Reply); // Ok=false: a malformed frame is a definite failure.
        return;
      }
      if (std::optional<shard::WrongGroupNack> N =
              Pool->ingressCheck(Req.Group, Req.Shard, Req.MapGen)) {
        Reply.HasNack = true;
        Reply.Nack = *N;
      } else {
        Reply.Ok = Pool->group(Req.Group).submitAndWait(Req.Payload,
                                                        Opts.OpTimeoutMs);
        ++OpsByGroup[Req.Group];
      }
      std::string ReplyFrame;
      shard::encodeGroupReply(ReplyFrame, Reply);
      shard::GroupReply Decoded;
      if (shard::decodeGroupReply(ReplyFrame, Decoded))
        Done(Decoded);
      else
        Done(shard::GroupReply{});
    };
    T.FetchMap = [this](shard::ShardedKvClient::MapFn Done) {
      Done(Pool->committedMap());
    };
    // Perform runs synchronously on the harness thread, so a blocking
    // sleep paces the retry loop without touching any worker thread.
    T.Sleep = [](uint64_t DelayUs, std::function<void()> Resume) {
      std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
      Resume();
    };
    shard::BackoffOptions Backoff;
    Backoff.Seed = WorkloadSeed ^ 0xBAC0FFULL;
    Backoff.BaseUs = 500;
    Backoff.MaxUs = 8000;
    Client.emplace(Pool->committedMap(), std::move(T), Backoff);
  }

  if (Result.Healing) {
    sync::MutexLock L(HealMu);
    Healers.resize(dataGroups() + 1);
    for (GroupId G = 1; G <= dataGroups(); ++G) {
      heal::HealerOptions HO;
      HO.Seed = Seed ^ (0x4EA1D05EULL + G);
      HO.BaseBackoffUs = 50000;
      HO.MaxBackoffUs = 800000;
      HO.CooldownUs = 100000;
      HO.TargetReplication = Opts.Members;
      Healers[G] = std::make_unique<heal::Healer>(group(G).scheme(), HO);
    }
  }
}

std::string RtChaosRun::tag(GroupId G) const {
  if (!Pool)
    return "rt: ";
  if (G == shard::MetaGroupId)
    return "rt meta: ";
  return "rt group " + std::to_string(G) + ": ";
}

bool RtChaosRun::allLead() const {
  return Pool ? Pool->waitForAllLeaders(Opts.ConvergeTimeoutMs)
              : Single->waitForLeader(Opts.ConvergeTimeoutMs) !=
                    InvalidNodeId;
}

uint64_t RtChaosRun::nowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

void RtChaosRun::submit(size_t Count) {
  for (size_t I = 0; I != Count; ++I) {
    ++Result.OpsTotal;
    MethodId Method = 1 + (Result.OpsTotal % 7);
    bool Ok = false;
    if (Client)
      Client->submit(Workload.nextBelow(64), Method, /*IsRead=*/false,
                     [&Ok](const shard::GroupReply &Rep) { Ok = Rep.Ok; });
    else
      Ok = Single->submitAndWait(Method, Opts.OpTimeoutMs);
    if (Ok)
      ++Result.OpsOk;
    else
      ++Result.OpsFailed;
  }
}

bool RtChaosRun::reconfig(GroupId G, const Config &To, const char *What) {
  ++Result.ReconfigsRequested;
  if (group(G).reconfigAndWait(To, Opts.ConvergeTimeoutMs)) {
    ++Result.ReconfigsCommitted;
    return true;
  }
  Result.Violations.push_back(tag(G) + What + " never committed");
  return false;
}

void RtChaosRun::script(GroupId G) {
  rt::RtCluster &Grp = group(G);
  if (Opts.Kind == Scenario::KillForever) {
    killForever(G);
    return;
  }
  NodeId Victim = pickVictim(Grp, Grp.waitForLeader(Opts.ConvergeTimeoutMs));
  if (Victim == InvalidNodeId)
    return;
  NodeSet Rest = Grp.scheme().mbrs(Grp.initialConfig());
  Rest.erase(Victim);
  Config Without(Rest);
  // One crash/restart of the victim with \p WhileDown in between.
  auto Bounce = [&](auto WhileDown) {
    Grp.crash(Victim);
    WhileDown();
    sleepMs(50);
    Grp.restart(Victim);
    sleepMs(50);
  };
  switch (Opts.Kind) {
  case Scenario::Reconfigs:
    // Two full hot cycles: remove a follower, bring it back, twice.
    for (int Round = 0; Round != 2; ++Round) {
      reconfig(G, Without, "removal reconfig");
      reconfig(G, Grp.initialConfig(), "re-add reconfig");
    }
    break;
  case Scenario::CrashMidReconfig:
    // Crash the node being removed while its removal is in flight:
    // the remaining members must commit it without the victim.
    Grp.crash(Victim);
    reconfig(G, Without, "removal with crashed subject");
    Grp.restart(Victim);
    reconfig(G, Grp.initialConfig(), "re-add after restart");
    break;
  case Scenario::Mixed:
    // One crash/restart cycle plus one reconfig cycle.
    Grp.crash(Victim);
    submit(2);
    Grp.restart(Victim);
    if (reconfig(G, Without, "mixed removal"))
      reconfig(G, Grp.initialConfig(), "mixed re-add");
    break;
  case Scenario::ShardReconfig:
  case Scenario::KillForever:
    // Unreachable: migrate() and killForever() run these. Listed so the
    // switch stays exhaustive under -Werror=switch.
    break;
  case Scenario::ClockDrift: {
    auto Read = [&](bool AtFollower) {
      ++Result.ReadsIssued;
      if (AtFollower)
        ++Result.ReadsAtFollower;
      if (Grp.readAndWait(Opts.OpTimeoutMs, AtFollower))
        ++Result.ReadsOk;
      else
        ++Result.ReadsFailed;
    };
    for (int Round = 0; Round != 2; ++Round) {
      // Read-heavy phase: alternate leader- and follower-side reads
      // with writes interleaved so safe indexes keep moving.
      for (int I = 0; I != 6; ++I) {
        Read(/*AtFollower=*/(I % 2) == 0);
        submit(1);
      }
      // Reads must keep resolving while a replica is down (the
      // leader's quorum round and lease survive one crash of three).
      Bounce([&] {
        submit(1);
        Read(/*AtFollower=*/false);
      });
    }
    break;
  }
  case Scenario::Crashes:
  case Scenario::Partitions:
  case Scenario::Cuts:
  case Scenario::NetChaos:
  case Scenario::SplitBrain:
  case Scenario::DiskFaults:
    // Crash-flavored mapping for the network scenarios: the rt bus
    // has no cuttable links, so fault pressure comes from losing and
    // recovering a replica (twice, with traffic in between). Listed
    // explicitly (no default) so a new Scenario forces a decision
    // here under -Werror=switch instead of inheriting this mapping.
    for (int Round = 0; Round != 2; ++Round)
      Bounce([&] { submit(2); });
    break;
  }
}

void RtChaosRun::killForever(GroupId G) {
  // Permanent kills: the victim never restarts, so only the healing
  // pipeline — the suspicion tap feeding the Healer, certified
  // reconfigs swapping spares in, snapshot catch-up for the
  // replacement — can restore the replication factor. One kill per
  // round, each of which must heal before the next.
  rt::RtCluster &Grp = group(G);
  size_t Kills = Opts.Spares < 2 ? Opts.Spares : 2;
  for (size_t K = 0; K != Kills; ++K) {
    NodeId L = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
    if (L == InvalidNodeId) {
      Result.Violations.push_back(tag(G) + "self-healing: no leader to "
                                           "observe the kill");
      return;
    }
    NodeId Victim = pickVictim(Grp, L);
    if (Victim == InvalidNodeId)
      return;
    Grp.crash(Victim);
    ++Result.PermanentKills;
    uint64_t KillUs = nowUs();
    if (!FirstKillUs)
      FirstKillUs = KillUs;
    submit(2);

    bool Healed = false;
    uint64_t Deadline = KillUs + 3 * Opts.ConvergeTimeoutMs * 1000;
    while (nowUs() < Deadline && !(Healed = fullyReplicated(Grp))) {
      healStep(G);
      sleepMs(20);
    }
    if (!Healed) {
      Result.Violations.push_back(
          tag(G) + "self-healing: never returned to full replication "
                   "after kill " +
          std::to_string(K + 1));
      return;
    }
    Result.TimeToFullReplicationUs = nowUs() - KillUs;
    // Routing state follows the heal: commit the corrected map through
    // the metadata group's generation-CAS, or flag the run if it never
    // lands.
    bool MapSynced = !Pool;
    for (int Try = 0; Try != 5 && !MapSynced; ++Try) {
      L = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
      if (L == InvalidNodeId)
        break;
      NodeSet Live = Grp.scheme().mbrs(Grp.nodeStatus(L).Conf);
      shard::PoolMap M = Pool->committedMap();
      MapSynced = M.GroupReplicas[G] == Live ||
                  Pool->proposeMap(heal::withGroupReplicas(M, G, Live),
                                   Opts.ConvergeTimeoutMs);
    }
    if (!MapSynced)
      Result.Violations.push_back(tag(G) + "pool map never caught up with "
                                           "the healed configuration");
  }
}

bool RtChaosRun::fullyReplicated(rt::RtCluster &Grp) const {
  NodeId L = Grp.waitForLeader(100);
  if (L == InvalidNodeId)
    return false;
  rt::RtNodeStatus LS = Grp.nodeStatus(L);
  NodeSet Members = Grp.scheme().mbrs(LS.Conf);
  if (Members.size() < Opts.Members)
    return false;
  for (NodeId M : Members) {
    rt::RtNodeStatus S = Grp.nodeStatus(M);
    if (S.Crashed || S.Passive || S.LogSize < LS.CommitIndex)
      return false;
  }
  return true;
}

void RtChaosRun::healStep(GroupId G) {
  rt::RtCluster &Grp = group(G);
  NodeId L = Grp.waitForLeader(100);
  if (L == InvalidNodeId)
    return;
  Config Cur = Grp.nodeStatus(L).Conf;
  std::optional<Config> P;
  {
    sync::MutexLock Lk(HealMu);
    P = Healers[G]->tick(nowUs(), Cur, Grp.universe(), L);
  }
  if (!P)
    return;
  ++Result.ReconfigsRequested;
  bool Ok = Grp.reconfigAndWait(*P, Opts.ConvergeTimeoutMs);
  if (Ok)
    ++Result.ReconfigsCommitted;
  sync::MutexLock Lk(HealMu);
  Healers[G]->onReconfigResult(Ok, nowUs());
}

void RtChaosRun::migrate() {
  // Live migrations: commit a pool map naming the group's next replica
  // set, then hot-reconfigure the group to match. Two rounds, traffic in
  // between — stale-stamped ops after each map change earn NACKs and
  // drive the client's refetch loop.
  Rng R(ScenarioSeed);
  for (int Round = 0; Round != 2; ++Round) {
    GroupId G = 1 + static_cast<GroupId>(R.nextBelow(dataGroups()));
    rt::RtCluster &Grp = group(G);
    if (!Grp.scheme().allowsReconfig())
      return;
    NodeId Leader = Grp.waitForLeader(Opts.ConvergeTimeoutMs);
    // Only candidates keeping the current leader: the core refuses a
    // reconfig that removes the leader itself, so anything else would
    // just spin until leadership happens to move.
    std::vector<Config> Cands;
    for (const Config &C :
         Grp.scheme().candidateReconfigs(Grp.currentConfig(), Grp.universe()))
      if (Leader != InvalidNodeId && Grp.scheme().mbrs(C).contains(Leader))
        Cands.push_back(C);
    if (Cands.empty())
      continue;
    Config Next = R.pick(Cands);
    shard::PoolMap NewMap = heal::withGroupReplicas(Pool->committedMap(), G,
                                                    Grp.scheme().mbrs(Next));
    ++Result.ReconfigsRequested;
    // Failures here are not violations — the rt runtime is honestly
    // nondeterministic (leadership can move mid-migration), and the sim
    // driver treats timed-out migrations the same way. The invariants
    // checked at the end still hold either way.
    if (!Pool->proposeMap(NewMap, Opts.ConvergeTimeoutMs))
      continue;
    if (Grp.reconfigAndWait(Next, Opts.ConvergeTimeoutMs))
      ++Result.ReconfigsCommitted;
    submit(2);
  }
}

ChaosRunResult RtChaosRun::run() {
  if (Pool)
    Pool->start();
  else
    Single->start();

  if (!allLead()) {
    Result.Violations.push_back("rt: not every group elected a leader at "
                                "startup");
  } else {
    size_t Half = Opts.NumOps / 2;
    submit(Half);
    if (Opts.Kind == Scenario::ShardReconfig)
      migrate();
    else
      for (GroupId G = 1; G <= dataGroups(); ++G)
        script(G);
    submit(Opts.NumOps - Half);
    // Everything was healed inline; give in-flight appends one beat to
    // drain before the final audit.
    if (!allLead())
      Result.Violations.push_back("rt: not every group has a leader after "
                                  "faults healed");
    sleepMs(100);
  }

  Result.HealedAll = true;
  if (Pool)
    Pool->stop();
  else
    Single->stop();
  finish();
  return Result;
}

void RtChaosRun::finish() {
  // Workers are joined: the cores are safe to inspect directly.
  GroupId First = Pool ? shard::MetaGroupId : 1;
  for (GroupId G = First; G <= dataGroups(); ++G) {
    rt::RtCluster &Grp = group(G);
    for (const std::string &V : Grp.checkFinalAgreement())
      Result.Violations.push_back(tag(G) + V);
    Result.CommittedEntries += Grp.committedCount();
    if (Result.DurableStore)
      Result.Store.accumulate(Grp.storeStats());
    if (Pool) {
      ChaosRunResult::GroupStatsEntry GS;
      GS.Group = G;
      GS.CommittedEntries = Grp.committedCount();
      GS.Ops = OpsByGroup[G];
      Result.GroupStats.push_back(GS);
    }
    if (Result.Healing && G != shard::MetaGroupId) {
      for (NodeId Id : Grp.universe()) {
        const core::RaftCore &Core = Grp.coreForInspection(Id);
        Result.SnapshotBytesTransferred += Core.snapshotBytesReceived();
        Result.SnapshotsInstalled += Core.snapshotsInstalled();
      }
      sync::MutexLock Lk(HealMu);
      Result.HealReconfigsCommitted += Healers[G]->heals();
      Result.HealReconfigRetries += Healers[G]->retries();
    }
  }
  if (Result.Healing) {
    sync::MutexLock Lk(HealMu);
    if (FirstKillUs && FirstSuspectUs > FirstKillUs)
      Result.TimeToDetectUs = FirstSuspectUs - FirstKillUs;
  }
  if (!Pool)
    return;

  const shard::RouteStats &RS = Client->stats();
  Result.WrongGroupNacks = RS.WrongGroupNacks;
  Result.MapRefreshes = RS.MapRefreshes;
  Result.MapGeneration = Pool->committedMap().Generation;
  Result.MapChangesCommitted = Pool->mapChangesCommitted();
  if (Result.MapGeneration != 1 + Result.MapChangesCommitted)
    Result.Violations.push_back(
        "pool map: generation " + std::to_string(Result.MapGeneration) +
        " != 1 + " + std::to_string(Result.MapChangesCommitted) +
        " committed changes");
}

} // namespace

ChaosRunResult adore::chaos::runRtScenario(const RtRunOptions &Opts,
                                           uint64_t Seed) {
  return RtChaosRun(Opts, Seed).run();
}
