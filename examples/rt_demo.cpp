//===- examples/rt_demo.cpp - The threaded runtime in 80 lines ---------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The sans-I/O core on real threads: three rt::RtNode replicas — each a
// worker thread owning one core::RaftCore, exchanging length-framed
// binary messages over an in-process bus — elect a leader against the
// wall clock, commit client commands, hot-swap the membership, and ride
// out a crash/restart. The protocol logic is the same translation unit
// the simulator replays deterministically and the model checker
// explores exhaustively; only the host differs.
//
// Every replica persists through the durable store onto real files: a
// CRC-framed write-ahead log plus snapshots under ./rt_demo_store/n<id>/
// (wiped at startup). The crashed replica recovers its term, vote, and
// log from that directory before rejoining. Delete a node's directory
// between runs to watch it rejoin empty and catch up.
//
//   cmake --build build --target rt_demo && ./build/examples/rt_demo
//
// With --groups N (N > 1) the demo runs the multi-group pool instead:
// N data consensus groups plus a metadata group replicating the pool
// map, all on one bus. A shard::ShardedKvClient routes keyed writes by
// jump hash, a live migration moves one group's replica set through a
// pool-map CAS on the metadata log, and the resulting wrong-group NACKs
// drive the client's refetch/retry loop.
//
//   ./build/examples/rt_demo --groups 3
//
// With --heal the demo runs the self-healing pipeline instead: a
// replica is killed permanently (never restarted), the leader's
// missed-ack detector suspects it, a heal::Healer proposes certified
// reconfigs that swap a passive spare in, and the newcomer catches up
// over chunked InstallSnapshot transfers — the cluster repairs itself
// back to full replication with no operator in the loop.
//
//   ./build/examples/rt_demo --heal
//
//===----------------------------------------------------------------------===//

#include "heal/Healer.h"
#include "rt/RtCluster.h"
#include "rt/ShardedRt.h"
#include "shard/ShardedKvClient.h"
#include "store/Vfs.h"
#include "support/Sync.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

using namespace adore;

namespace {

int runSingleGroup() {
  std::printf("== Adore rt runtime demo: 3 replicas, real threads, "
              "WAL on disk ==\n\n");

  const char *StoreRoot = "rt_demo_store";
  std::filesystem::remove_all(StoreRoot);
  store::PosixVfs Disk(StoreRoot);

  rt::RtClusterOptions Opts;
  Opts.NumNodes = 3;
  Opts.Seed = 42;
  Opts.DurableStore = true;
  Opts.ExternalDisk = &Disk;
  rt::RtCluster C(Opts);
  C.start();

  NodeId Leader = C.waitForLeader(/*TimeoutMs=*/5000);
  if (Leader == InvalidNodeId) {
    std::printf("no leader elected within 5s\n");
    return 1;
  }
  std::printf("S%u won the election\n", Leader);

  std::printf("submitting 10 commands... ");
  size_t Committed = 0;
  for (MethodId M = 1; M <= 10; ++M)
    Committed += C.submitAndWait(M, /*TimeoutMs=*/5000);
  std::printf("%zu/10 committed (ledger: %zu entries)\n", Committed,
              C.committedCount());

  // Hot reconfiguration: drop one follower, then bring it back.
  NodeSet Shrunk;
  for (NodeId Id : C.scheme().mbrs(C.initialConfig()))
    if (Id == Leader || Shrunk.size() + 1 < Opts.NumNodes)
      Shrunk.insert(Id);
  std::printf("shrinking membership to %s... ", Config(Shrunk).str().c_str());
  std::printf("%s\n", C.reconfigAndWait(Config(Shrunk), 5000) ? "committed"
                                                              : "timed out");
  std::printf("restoring %s... ", C.initialConfig().str().c_str());
  std::printf("%s\n", C.reconfigAndWait(C.initialConfig(), 5000)
                          ? "committed"
                          : "timed out");

  // Fail-stop the leader; the survivors take over.
  std::printf("crashing the leader S%u... ", Leader);
  C.crash(Leader);
  std::printf("%s\n", C.submitAndWait(11, 15000)
                          ? "survivors still commit"
                          : "commit timed out");
  C.restart(Leader);
  std::printf("restarted S%u from %s/n%u (WAL + snapshot recovery); "
              "one more command: %s\n",
              Leader, StoreRoot, Leader,
              C.submitAndWait(12, 5000) ? "committed" : "timed out");

  C.stop();
  auto Violations = C.checkFinalAgreement();
  for (const std::string &V : C.violations())
    std::printf("VIOLATION: %s\n", V.c_str());
  store::StoreStats SS = C.storeStats();
  std::printf("\n%zu committed entries, %zu violations — %s\n",
              C.committedCount(), Violations.size(),
              Violations.empty() ? "all replicas agree" : "FAILED");
  std::printf("store: %llu fsyncs, %llu records, %llu bytes, "
              "%llu recoveries (max %llu records/fsync)\n",
              static_cast<unsigned long long>(SS.Syncs),
              static_cast<unsigned long long>(SS.RecordsWritten),
              static_cast<unsigned long long>(SS.BytesWritten),
              static_cast<unsigned long long>(SS.Recoveries),
              static_cast<unsigned long long>(SS.MaxBatchRecords));
  return Violations.empty() ? 0 : 1;
}

int runHealing() {
  std::printf("== Adore rt self-healing demo: kill a replica forever, watch "
              "the cluster repair itself ==\n\n");

  auto T0 = std::chrono::steady_clock::now();
  auto NowUs = [T0] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
  };

  // The suspicion tap runs on node worker threads; Mu serializes it
  // against the main thread's healer ticks.
  sync::Mutex Mu;
  std::optional<heal::Healer> Doc;

  rt::RtClusterOptions Opts;
  Opts.NumNodes = 3;
  Opts.NumSpares = 2; // passive until a heal reconfig adopts them
  Opts.Seed = 42;
  Opts.Node.EnableSuspicion = true; // missed-ack detector on the leader
  Opts.Node.EnableSnapshotCatchup = true;
  Opts.Node.SnapshotLagEntries = 8; // snapshot any follower 8+ behind
  Opts.OnSuspicion = [&](NodeId Observer, NodeId Peer, bool SuspectedNow) {
    std::printf("  [detector] leader S%u %s S%u\n", Observer,
                SuspectedNow ? "suspects" : "recovered", Peer);
    sync::MutexLock L(Mu);
    if (!Doc)
      return;
    if (SuspectedNow)
      Doc->observeSuspected(Peer);
    else
      Doc->observeRecovered(Peer);
  };
  rt::RtCluster C(Opts);
  {
    heal::HealerOptions HO;
    HO.Seed = 7;
    HO.BaseBackoffUs = 50000;
    HO.MaxBackoffUs = 800000;
    HO.CooldownUs = 100000;
    HO.TargetReplication = Opts.NumNodes;
    sync::MutexLock L(Mu);
    Doc.emplace(C.scheme(), HO);
  }
  C.start();

  NodeId Leader = C.waitForLeader(5000);
  if (Leader == InvalidNodeId) {
    std::printf("no leader elected within 5s\n");
    return 1;
  }
  std::printf("S%u leads %s (S4, S5 passive spares)\n", Leader,
              C.initialConfig().str().c_str());

  std::printf("committing 20 commands so the newcomer has a log to "
              "catch up on... ");
  size_t Committed = 0;
  for (MethodId M = 1; M <= 20; ++M)
    Committed += C.submitAndWait(M, 5000);
  std::printf("%zu/20\n\n", Committed);

  // Kill the highest-id non-leader member. Permanently: nothing below
  // ever restarts it — only the healing pipeline can restore the
  // replication factor.
  NodeId Victim = InvalidNodeId;
  for (NodeId M : C.scheme().mbrs(C.nodeStatus(Leader).Conf))
    if (M != Leader && !C.nodeStatus(M).Crashed)
      Victim = M;
  std::printf("killing S%u forever\n", Victim);
  C.crash(Victim);
  // crash() is a queued request to the node's worker thread; wait for
  // the status flag to flip so the heal clock starts at the real kill.
  while (!C.nodeStatus(Victim).Crashed)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  uint64_t KillUs = NowUs();

  auto FullyReplicated = [&]() -> bool {
    NodeId L = C.waitForLeader(100);
    if (L == InvalidNodeId)
      return false;
    rt::RtNodeStatus LS = C.nodeStatus(L);
    NodeSet Members = C.scheme().mbrs(LS.Conf);
    if (Members.size() < Opts.NumNodes)
      return false;
    for (NodeId M : Members) {
      rt::RtNodeStatus S = C.nodeStatus(M);
      if (S.Crashed || S.Passive || S.LogSize < LS.CommitIndex)
        return false;
    }
    return true;
  };

  bool Healed = false;
  while (NowUs() < KillUs + 15000000) {
    if (FullyReplicated()) {
      Healed = true;
      break;
    }
    NodeId L = C.waitForLeader(100);
    if (L != InvalidNodeId) {
      Config Cur = C.nodeStatus(L).Conf;
      std::optional<Config> P;
      {
        sync::MutexLock Lk(Mu);
        P = Doc->tick(NowUs(), Cur, C.universe(), L);
      }
      if (P) {
        std::printf("  [healer] proposing %s -> %s... ", Cur.str().c_str(),
                    P->str().c_str());
        bool Ok = C.reconfigAndWait(*P, 5000);
        std::printf("%s\n", Ok ? "committed" : "rejected/timed out");
        sync::MutexLock Lk(Mu);
        Doc->onReconfigResult(Ok, NowUs());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  uint64_t HealMs = (NowUs() - KillUs) / 1000;

  std::printf("\none more command through the healed cluster: %s\n",
              C.submitAndWait(21, 5000) ? "committed" : "timed out");
  C.stop();

  // Workers joined: the cores are safe to inspect directly.
  uint64_t SnapBytes = 0, SnapInstalls = 0;
  for (NodeId Id : C.universe()) {
    SnapBytes += C.coreForInspection(Id).snapshotBytesReceived();
    SnapInstalls += C.coreForInspection(Id).snapshotsInstalled();
  }
  auto Violations = C.checkFinalAgreement();
  for (const std::string &V : Violations)
    std::printf("VIOLATION: %s\n", V.c_str());
  size_t Heals;
  {
    sync::MutexLock Lk(Mu);
    Heals = Doc->heals();
  }
  std::printf("%s in %llu ms: %zu heal reconfigs, %llu snapshot bytes "
              "installed (%llu transfers), %zu violations\n",
              Healed ? "healed to full replication" : "NOT healed",
              static_cast<unsigned long long>(HealMs), Heals,
              static_cast<unsigned long long>(SnapBytes),
              static_cast<unsigned long long>(SnapInstalls),
              Violations.size());
  return Healed && Violations.empty() ? 0 : 1;
}

int runSharded(size_t Groups) {
  std::printf("== Adore rt multi-group demo: %zu data groups + a metadata "
              "group, one bus ==\n\n",
              Groups);

  rt::ShardedRtOptions SO;
  SO.Group.Seed = 42;
  SO.Groups = Groups;
  rt::ShardedRtCluster Pool(SO);
  Pool.start();
  if (!Pool.waitForAllLeaders(/*TimeoutMs=*/10000)) {
    std::printf("not every group elected a leader within 10s\n");
    Pool.stop();
    return 1;
  }
  std::printf("all %zu groups elected leaders (meta leader: S%u)\n",
              Pool.dataGroups() + 1, Pool.meta().waitForLeader(1000));

  // The routing client: jump-hash the key to a shard, the cached pool
  // map names the owning group; the pool NACKs stale-stamped requests.
  shard::ShardedKvClient::Transport T;
  T.Perform = [&Pool](const shard::RouteRequest &Req,
                      shard::ShardedKvClient::ReplyFn Done) {
    shard::GroupReply Reply;
    if (std::optional<shard::WrongGroupNack> N =
            Pool.ingressCheck(Req.Group, Req.Shard, Req.MapGen)) {
      Reply.HasNack = true;
      Reply.Nack = *N;
    } else {
      Reply.Ok = Pool.group(Req.Group).submitAndWait(Req.Payload, 5000);
    }
    Done(Reply);
  };
  T.FetchMap = [&Pool](shard::ShardedKvClient::MapFn Done) {
    Done(Pool.committedMap());
  };
  T.Sleep = [](uint64_t DelayUs, std::function<void()> Resume) {
    std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
    Resume();
  };
  shard::ShardedKvClient Client(Pool.committedMap(), std::move(T));

  auto Route = [&Client](uint64_t First, uint64_t Count) {
    size_t Ok = 0;
    for (uint64_t Key = First; Key != First + Count; ++Key) {
      bool Committed = false;
      Client.submit(Key, /*Payload=*/1 + Key % 7, /*IsRead=*/false,
                    [&Committed](const shard::GroupReply &R) {
                      Committed = R.Ok;
                    });
      Ok += Committed;
    }
    return Ok;
  };
  std::printf("routing 16 keyed writes across the pool... %zu/16 "
              "committed\n",
              Route(0, 16));

  // Live migration: commit a new pool map (generation CAS through the
  // metadata group's log) swapping one of group 1's followers for a
  // spare, then hot-reconfigure the group to match.
  rt::RtCluster &G1 = Pool.group(1);
  NodeId Leader = G1.waitForLeader(5000);
  Config Cur = G1.currentConfig();
  // Only scheme-legal transitions that keep the current leader (the
  // core refuses a reconfig that removes the leader itself).
  Config Next = Cur;
  for (const Config &C : G1.scheme().candidateReconfigs(Cur, G1.universe()))
    if (Leader != InvalidNodeId && G1.scheme().mbrs(C).contains(Leader)) {
      Next = C;
      break;
    }
  if (Next.str() == Cur.str()) {
    std::printf("no migration candidate in group 1\n");
    Pool.stop();
    return 1;
  }
  NodeSet NextSet = G1.scheme().mbrs(Next);

  shard::PoolMap NewMap = Pool.committedMap();
  ++NewMap.Generation;
  NewMap.GroupReplicas[1] = NextSet;
  NewMap.Roster = NewMap.Roster.unionWith(NextSet);
  std::printf("migrating group 1: %s -> %s (map gen %llu -> %llu)... ",
              Cur.str().c_str(), Next.str().c_str(),
              static_cast<unsigned long long>(NewMap.Generation - 1),
              static_cast<unsigned long long>(NewMap.Generation));
  bool MapOk = Pool.proposeMap(NewMap, 5000);
  bool ConfOk = MapOk && G1.reconfigAndWait(Next, 5000);
  std::printf("%s\n", ConfOk  ? "map + membership committed"
                      : MapOk ? "map committed, reconfig timed out"
                              : "map CAS lost/timed out");

  // Post-migration traffic: the client's stamp is now stale, so the
  // first send earns a WrongGroup NACK, a map refetch, and a retry.
  std::printf("routing 16 more keyed writes (stale map stamp)... %zu/16 "
              "committed\n",
              Route(16, 16));

  Pool.stop();
  size_t Violations = 0;
  for (shard::GroupId G = 0; G <= Pool.dataGroups(); ++G)
    Violations += Pool.group(G).checkFinalAgreement().size();
  if (Pool.committedMap().Generation != 1 + Pool.mapChangesCommitted()) {
    std::printf("POOL MAP VIOLATION: generation != 1 + committed changes\n");
    ++Violations;
  }
  const shard::RouteStats &RS = Client.stats();
  std::printf("\nrouting: %llu sends, %llu wrong-group NACKs, %llu map "
              "refreshes; map at gen %llu after %llu committed changes\n",
              static_cast<unsigned long long>(RS.Routed),
              static_cast<unsigned long long>(RS.WrongGroupNacks),
              static_cast<unsigned long long>(RS.MapRefreshes),
              static_cast<unsigned long long>(Pool.committedMap().Generation),
              static_cast<unsigned long long>(Pool.mapChangesCommitted()));
  std::printf("%zu violations — %s\n", Violations,
              Violations == 0 ? "all groups agree" : "FAILED");
  return Violations == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Groups = 1;
  bool Heal = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--groups") == 0 && I + 1 < Argc) {
      char *End = nullptr;
      unsigned long V = std::strtoul(Argv[++I], &End, 10);
      if (End == nullptr || *End != '\0' || V == 0) {
        std::fprintf(stderr, "usage: rt_demo [--groups N | --heal]\n");
        return 2;
      }
      Groups = V;
    } else if (std::strcmp(Argv[I], "--heal") == 0) {
      Heal = true;
    } else {
      std::fprintf(stderr, "usage: rt_demo [--groups N | --heal]\n");
      return 2;
    }
  }
  if (Heal)
    return runHealing();
  return Groups > 1 ? runSharded(Groups) : runSingleGroup();
}
