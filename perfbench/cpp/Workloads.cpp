//===- perfbench/cpp/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// A run is a series of episodes. Each episode builds a fresh cluster
// (that is the timed set-up), loads it for a short unmeasured warm-up and
// then for one measured window, and checks every correctness gate. Every
// end-to-end figure is the median over the episodes.
//
// Episodes rather than one long window, because the replicas keep their
// whole log in memory and some per-step work is linear in its length:
// in one 20 s closed-loop run, reads-bus throughput fell from ~32k to
// ~5k ops/s as the log grew, so a single long window measures mostly how
// long it ran. Fresh clusters keep every window at the same log lengths,
// and the median over episodes keeps a burst of outside interference
// from moving the run's figure.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "CoreReplay.h"
#include "OpenLoop.h"
#include "Trace.h"
#include "TracingTransport.h"
#include "TracingVfs.h"

#include "net/TcpTransport.h"
#include "read/ReadPath.h"
#include "rt/Bus.h"
#include "rt/RtCluster.h"
#include "rt/Wire.h"
#include "support/Rng.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <unordered_set>

#include <sys/resource.h>

using namespace adore;
using namespace adore::perfbench;

namespace {

enum class Kind { WritesTcp, ReadsBus, FailoverBus };

struct Spec {
  Kind K;
  const char *Name;
};

const Spec Specs[] = {{Kind::WritesTcp, "writes-tcp"},
                      {Kind::ReadsBus, "reads-bus"},
                      {Kind::FailoverBus, "failover-bus"}};

/// Measured seconds per episode; a run of S seconds has S / 2 episodes.
constexpr unsigned EpisodeSeconds = 2;
/// Unmeasured load before each window, so lazy set-up (TCP dials, the
/// first WAL segment, allocator warm-up) is paid before timing starts.
constexpr uint64_t WarmupNs = 500000000ULL;
/// Paced writers' rate. 200/s holds with zero failures on 4 cores with
/// the shipped defaults; faster rates build a backlog (see README.md).
constexpr uint64_t WriteRate = 200;
/// A paced write not observed committed this long after its due time
/// counts as failed. failover-bus allows for an election plus the
/// re-post that follows it.
constexpr uint64_t WritesTcpLimitNs = 1000000000ULL;
constexpr uint64_t FailoverLimitNs = 3000000000ULL;
/// Closed-loop operation timeout (reads-bus).
constexpr uint64_t ClosedLoopTimeoutMs = 1000;
constexpr unsigned ReadClients = 2;
/// A failover-bus fault cycle runs only in a window at least this long.
constexpr uint64_t FaultCycleBudgetNs = 1500000000ULL;

constexpr MethodId WarmMethod = 1u << 20;
constexpr MethodId PacedMethodBase = uint64_t(1) << 32;

double msSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e6;
}

void sleepUntilNs(uint64_t Ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(Ns)));
}

void pause(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

void append(Samples &To, const Samples &From) {
  To.insert(To.end(), From.begin(), From.end());
}

core::CoreOptions nodeOptions(Kind K) {
  rt::RtClusterOptions CO;
  if (K == Kind::ReadsBus) {
    // E9's lease settings: 30 ms requested, derated by 10% declared drift.
    read::ReadOptions RO;
    RO.Tier = read::ReadTier::FollowerLease;
    RO.LeaseDurationUs = 30000;
    RO.MaxDriftPpm = 100000;
    read::applyTier(RO, CO.Node);
  }
  return CO.Node;
}

/// One constructed cluster with the fabric and disk it runs on. Members
/// are destroyed bottom-up, so the cluster goes before what it uses.
struct Rig {
  std::unique_ptr<rt::Transport> Fabric;
  net::TcpTransport *Tcp = nullptr;
  std::unique_ptr<TracingTransport> TNet;
  std::unique_ptr<store::MemVfs> Disk;
  std::unique_ptr<TracingVfs> TDisk;
  std::unique_ptr<rt::RtCluster> Cluster;
};

/// The shipped defaults (RtClusterOptions{}) plus only what the workload
/// needs: a store, a read tier, a fabric. No hot-path knob is set.
/// \p Spans non-null means a traced run: the decorators go in.
std::unique_ptr<Rig> makeRig(Kind K, uint64_t Seed, SpanLog *Spans,
                             CompletionTracker &Tracker) {
  auto R = std::make_unique<Rig>();
  rt::RtClusterOptions CO;
  CO.Seed = Seed;
  CO.Node = nodeOptions(K);
  if (K == Kind::WritesTcp) {
    auto T = std::make_unique<net::TcpTransport>();
    R->Tcp = T.get();
    R->Fabric = std::move(T);
  } else {
    R->Fabric = std::make_unique<rt::Bus>();
  }
  rt::Transport *Net = R->Fabric.get();
  if (Spans) {
    R->TNet = std::make_unique<TracingTransport>(*Net, Spans);
    Net = R->TNet.get();
  }
  CO.SharedNet = Net;
  if (K == Kind::WritesTcp) {
    // The store code runs whole (record encoding, CRC32C, segments,
    // snapshots, group commit) into an in-memory disk; see README.md for
    // why the files are not on the checkout's filesystem.
    CO.DurableStore = true;
    R->Disk = std::make_unique<store::MemVfs>(Seed);
    store::Vfs *D = R->Disk.get();
    if (Spans) {
      R->TDisk = std::make_unique<TracingVfs>(*D, Spans);
      D = R->TDisk.get();
    }
    CO.ExternalDisk = D;
  }
  if (K == Kind::FailoverBus) {
    CO.DurableStore = true;
    CO.StoreFaults.LoseUnsyncedOnCrash = true;
  }
  CO.OnApplyExtra = [&Tracker](NodeId, size_t, const core::LogEntry &E) {
    Tracker.onApply(E, nowNs());
  };
  R->Cluster = std::make_unique<rt::RtCluster>(CO);
  return R;
}

/// Everything one pass (plain or traced) measured, over all episodes.
struct Pass {
  std::vector<std::string> Gates;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  unsigned Episodes = 0;
  double MeasuredS = 0;

  // One value per episode; the reported figure is their median.
  std::vector<double> SetupS, OpsPerS, WriteP50, WriteP99, ReadP50,
      ReadP99, UnavailMs, ReconfigMs, CatchupMs;

  // Whole-run counts (report basis and per-layer ratios).
  uint64_t WriteSamples = 0, ReadSamples = 0;
  uint64_t Completed = 0;
  uint64_t Writes = 0; ///< Measured writes observed committed.
  uint64_t Reads = 0;
  uint64_t FollowerReads = 0;
  uint64_t Kills = 0;
  uint64_t StaleReads = 0;
  Samples GenLagUs, SubmitCallUs;

  // Decorator and counter readings over the measured windows (traced).
  FrameCounts Frames;
  uint64_t ElectionTerms = 0, SplitVoteTerms = 0;
  Samples PostUs, DeliverUs;
  std::vector<std::string> Captured;
  Samples AppendUs, SyncUs;
  /// Whole-life store counters of the measured clusters, and the writes
  /// they acknowledged over that life.
  store::StoreStats Store;
  uint64_t StoreWrites = 0;
  uint64_t FramesDropped = 0, ConnectionDrops = 0;
};

void addCounts(FrameCounts &To, const FrameCounts &From) {
  To.Frames += From.Frames;
  To.Bytes += From.Bytes;
  To.Undecodable += From.Undecodable;
  To.Heartbeats += From.Heartbeats;
  To.ReadProbes += From.ReadProbes;
  To.ReadNacks += From.ReadNacks;
}

/// One episode: set up a fresh cluster, warm it up, load it for one
/// measured window, drain, stop, and check the gates. Results are merged
/// into the pass.
class Episode {
public:
  Episode(Kind K, Pass &P, uint64_t Seed, uint64_t WindowNs, SpanLog *Spans)
      : K(K), P(P), Seed(Seed), WindowNs(WindowNs), Spans(Spans),
        Tracker(static_cast<size_t>(
            WriteRate * (WarmupNs + WindowNs) / 1000000000ULL + 16)) {}

  void run() {
    uint64_t Start = nowNs();
    R = makeRig(K, Seed, Spans, Tracker);
    rt::RtCluster &C = *R->Cluster;
    C.start();
    bool Up = C.waitForLeader(5000) != InvalidNodeId &&
              C.submitAndWait(WarmMethod, 3000);
    P.SetupS.push_back(static_cast<double>(nowNs() - Start) / 1e9);
    if (!Up) {
      P.Gates.push_back("setup: no leader or warm-up write within limits");
      finish();
      return;
    }
    Acked.push_back(WarmMethod);

    T0 = nowNs();
    WindowStart = T0 + WarmupNs;
    WindowEnd = WindowStart + WindowNs;
    {
      std::vector<std::jthread> Threads;
      if (K == Kind::ReadsBus) {
        for (unsigned I = 0; I != ReadClients; ++I)
          Threads.emplace_back([this, I] { closedLoopClient(I); });
      } else {
        Threads.emplace_back([this] { pacedWriter(); });
        if (K == Kind::FailoverBus)
          Threads.emplace_back([this] { faultCycle(); });
      }
      sleepUntilNs(WindowStart);
      if (R->TNet)
        R->TNet->reset();
      if (R->TDisk)
        R->TDisk->reset();
      net::TcpTransportStats TcpStart;
      if (R->Tcp)
        TcpStart = R->Tcp->stats();
      sleepUntilNs(WindowEnd);
      readDecorators(TcpStart);
    }
    const double WindowS = static_cast<double>(WindowNs) / 1e9;
    P.MeasuredS += WindowS;
    if (LastDoneNs > WindowStart)
      P.OpsPerS.push_back(static_cast<double>(Completed) * 1e9 /
                          static_cast<double>(LastDoneNs - WindowStart));
    P.WriteP50.push_back(pct(WriteUs, 50));
    P.WriteP99.push_back(pct(WriteUs, 99));
    if (K == Kind::ReadsBus) {
      P.ReadP50.push_back(pct(ReadUs, 50));
      P.ReadP99.push_back(pct(ReadUs, 99));
    }
    P.WriteSamples += WriteUs.size();
    P.ReadSamples += ReadUs.size();
    P.Completed += Completed;
    finish();
  }

private:
  bool inWindow(uint64_t Ns) const {
    return Ns >= WindowStart && Ns < WindowEnd;
  }

  void span(const char *Layer, const char *Name, uint64_t Start,
            uint64_t End, uint64_t Req) {
    if (Spans)
      Spans->add(Span{0, 0, Layer, Name, Start, End, Req});
  }

  void readDecorators(const net::TcpTransportStats &TcpStart) {
    if (R->TNet) {
      FrameCounts Fc = R->TNet->counts();
      addCounts(P.Frames, Fc);
      P.ElectionTerms += Fc.VoteTerms.size();
      P.SplitVoteTerms += Fc.splitVoteTerms();
      append(P.PostUs, R->TNet->postUs());
      append(P.DeliverUs, R->TNet->deliverUs());
      for (std::string &F : R->TNet->capturedFrames())
        if (P.Captured.size() < 4096)
          P.Captured.push_back(std::move(F));
    }
    if (R->TDisk) {
      append(P.AppendUs, R->TDisk->appendUs());
      append(P.SyncUs, R->TDisk->syncUs());
    }
    if (R->Tcp) {
      net::TcpTransportStats S = R->Tcp->stats();
      P.FramesDropped += S.FramesDropped - TcpStart.FramesDropped;
      P.ConnectionDrops += S.ConnectionDrops - TcpStart.ConnectionDrops;
    }
  }

  /// The open-loop writer of writes-tcp and failover-bus. Each write is
  /// posted once at its due time. The writes still unacknowledged are
  /// re-posted (same ClientSeq) only when a new leader is observed, never
  /// on a timer: a re-post appends a duplicate entry, and a timer would
  /// turn an overload into a re-post storm. Without the leader-change
  /// re-post, writes-tcp loses every write queued at a leader that a
  /// spurious election (a >50 ms scheduling stall on a busy host) deposed.
  void pacedWriter() {
    rt::RtCluster &C = *R->Cluster;
    const uint64_t Limit =
        K == Kind::FailoverBus ? FailoverLimitNs : WritesTcpLimitNs;
    Pacer Pc(T0, WriteRate);
    const uint64_t N =
        std::min<uint64_t>(Pc.opsBefore(WindowEnd), Tracker.capacity());
    const uint64_t GiveUp = Pc.dueNs(N - 1) + Limit;
    NodeId Leader = InvalidNodeId;
    Time LeaderTerm = 0;
    uint64_t Oldest = 0; ///< No op below this is still unacknowledged.
    uint64_t Next = 0;
    for (;;) {
      uint64_t Now = nowNs();
      NodeId L = C.waitForLeader(0);
      Time T = L == InvalidNodeId ? 0 : C.nodeStatus(L).Term;
      if (L != InvalidNodeId && (L != Leader || T != LeaderTerm)) {
        Leader = L;
        LeaderTerm = T;
        while (Oldest < Next && Tracker.commitNs(Oldest) != 0)
          ++Oldest;
        for (uint64_t I = Oldest; I < Next; ++I)
          if (Tracker.commitNs(I) == 0)
            C.submitAsync(PacedMethodBase + I, CompletionTracker::SeqBase + I,
                          I);
      }
      if (Next < N && Pc.dueNs(Next) <= Now) {
        uint64_t Due = Pc.dueNs(Next);
        uint64_t Start = nowNs();
        C.submitAsync(PacedMethodBase + Next,
                      CompletionTracker::SeqBase + Next, Next);
        uint64_t End = nowNs();
        if (inWindow(Due)) {
          P.GenLagUs.push_back(
              static_cast<double>(Pacer::lateNs(Due, Start)) / 1000.0);
          P.SubmitCallUs.push_back(static_cast<double>(End - Start) /
                                   1000.0);
          span("rt", "submit", Start, End, CompletionTracker::SeqBase + Next);
        }
        ++Next;
        continue;
      }
      if (Next == N) {
        while (Oldest < N && Tracker.commitNs(Oldest) != 0)
          ++Oldest;
        if (Oldest == N || Now > GiveUp)
          break;
      }
      // Wake for the next due time; once all are posted, every 2 ms to
      // look for a new leader until the last write commits.
      sleepUntilNs(Next < N ? Pc.dueNs(Next) : Now + 2000000);
    }
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Due = Pc.dueNs(I);
      uint64_t Done = Tracker.commitNs(I);
      if (Done != 0)
        Acked.push_back(PacedMethodBase + I);
      if (!inWindow(Due))
        continue;
      ++P.Attempted;
      if (Done == 0 || Done - Due > Limit) {
        ++P.Failed;
        continue;
      }
      ++Completed;
      LastDoneNs = std::max(LastDoneNs, Done);
      ++P.Writes;
      WriteUs.push_back(static_cast<double>(Pacer::lateNs(Due, Done)) /
                        1000.0);
    }
  }

  /// One reads-bus client: a closed loop of 90% linearizable reads
  /// (alternating leader and follower targets) and 10% writes.
  void closedLoopClient(unsigned Id) {
    rt::RtCluster &C = *R->Cluster;
    Rng Mix(Seed * 0x9E3779B97F4A7C15ULL + Id);
    bool AtFollower = Id % 2 == 1;
    uint64_t Count = 0;
    uint64_t Attempted = 0, Failed = 0, Done = 0, Writes = 0, Reads = 0,
             FollowerReads = 0, MyLastDone = 0;
    Samples MyWriteUs, MyReadUs;
    std::vector<MethodId> MyAcks;
    for (;;) {
      uint64_t Start = nowNs();
      if (Start >= WindowEnd)
        break;
      bool IsWrite = Mix.nextBelow(10) == 0;
      bool Ok;
      bool Follower = false;
      if (IsWrite) {
        MethodId M = (static_cast<MethodId>(Id + 1) << 40) | ++Count;
        Ok = C.submitAndWait(M, ClosedLoopTimeoutMs);
        if (Ok)
          MyAcks.push_back(M);
      } else {
        Follower = AtFollower;
        AtFollower = !AtFollower;
        Ok = C.readAndWait(ClosedLoopTimeoutMs, Follower).has_value();
      }
      uint64_t End = nowNs();
      if (!inWindow(Start))
        continue;
      span("client", IsWrite ? "submitAndWait" : "readAndWait", Start, End,
           0);
      ++Attempted;
      if (!Ok) {
        ++Failed;
        continue;
      }
      ++Done;
      MyLastDone = End;
      double Us = static_cast<double>(End - Start) / 1000.0;
      if (IsWrite) {
        ++Writes;
        MyWriteUs.push_back(Us);
      } else {
        ++Reads;
        FollowerReads += Follower;
        MyReadUs.push_back(Us);
      }
    }
    sync::MutexLock Lock(MergeMu);
    P.Attempted += Attempted;
    P.Failed += Failed;
    Completed += Done;
    LastDoneNs = std::max(LastDoneNs, MyLastDone);
    P.Writes += Writes;
    P.Reads += Reads;
    P.FollowerReads += FollowerReads;
    append(WriteUs, MyWriteUs);
    append(ReadUs, MyReadUs);
    Acked.insert(Acked.end(), MyAcks.begin(), MyAcks.end());
  }

  /// failover-bus's fault cycle, in the style of the paper's Fig. 16:
  /// shrink 3 -> 2 and grow back under load, then crash the leader, wait
  /// for the first write committed by its successor, restart it (power
  /// loss: its unsynced WAL tail is gone) and wait for it to catch up.
  void faultCycle() {
    if (WindowNs < FaultCycleBudgetNs)
      return;
    rt::RtCluster &C = *R->Cluster;
    Rng Pick(Seed ^ 0xFA11);
    const Config Full = C.initialConfig();
    const NodeSet Members = C.scheme().mbrs(Full);
    sleepUntilNs(WindowStart);
    pause(300);
    NodeId L = C.waitForLeader(2000);
    if (L == InvalidNodeId)
      return fail("no leader before reconfiguration");
    std::vector<NodeId> Followers;
    for (NodeId N : Members)
      if (N != L)
        Followers.push_back(N);
    NodeId F = Followers[Pick.nextBelow(Followers.size())];
    NodeSet Shrunk;
    for (NodeId N : Members)
      if (N != F)
        Shrunk.insert(N);
    std::vector<double> Reconfigs;
    for (const Config &To : {Config(Shrunk), Full}) {
      ++FaultAttempted;
      uint64_t Start = nowNs();
      if (!C.reconfigAndWait(To, 5000))
        return fail("reconfiguration to " + To.str() + " timed out");
      Reconfigs.push_back(msSince(Start));
      pause(200);
    }
    pause(100);
    L = C.waitForLeader(2000);
    if (L == InvalidNodeId)
      return fail("no leader before crash");
    Tracker.watchTermAbove(C.nodeStatus(L).Term);
    uint64_t Crash = nowNs();
    C.crash(L);
    while (Tracker.watchHitNs() == 0 && nowNs() - Crash < 5000000000ULL)
      pause(1);
    if (Tracker.watchHitNs() == 0) {
      C.restart(L);
      return fail("no write committed within 5 s of the leader crash");
    }
    double Unavail = static_cast<double>(Tracker.watchHitNs() - Crash) / 1e6;
    pause(100);
    NodeId NewLeader = C.waitForLeader(2000);
    size_t Target =
        NewLeader == InvalidNodeId ? 0 : C.nodeStatus(NewLeader).CommitIndex;
    uint64_t Restart = nowNs();
    C.restart(L);
    while (C.nodeStatus(L).CommitIndex < Target &&
           nowNs() - Restart < 5000000000ULL)
      pause(1);
    if (C.nodeStatus(L).CommitIndex < Target)
      return fail("restarted leader did not catch up within 5 s");
    double Catchup = msSince(Restart);
    sync::MutexLock Lock(MergeMu);
    P.Kills += 1;
    P.UnavailMs.push_back(Unavail);
    P.CatchupMs.push_back(Catchup);
    P.ReconfigMs.push_back(median(Reconfigs));
  }

  void fail(const std::string &What) {
    sync::MutexLock Lock(MergeMu);
    ++FaultFailed;
    P.Gates.push_back("fault cycle: " + What);
  }

  /// Stops the cluster and checks every correctness gate.
  void finish() {
    rt::RtCluster &C = *R->Cluster;
    P.Attempted += FaultAttempted;
    P.Failed += FaultFailed;
    // Let every live replica reach the same commit index so the
    // acknowledged-write check below sees the whole ledger.
    for (int Spin = 0; Spin != 600; ++Spin) {
      size_t Lo = SIZE_MAX, Hi = 0;
      for (NodeId N : C.universe()) {
        rt::RtNodeStatus S = C.nodeStatus(N);
        if (S.Crashed)
          continue;
        Lo = std::min(Lo, S.CommitIndex);
        Hi = std::max(Hi, S.CommitIndex);
      }
      if (Lo == Hi)
        break;
      pause(5);
    }
    C.stop();
    // Store counters are plain fields owned by the node threads, so they
    // are read only once the nodes have stopped: they cover the whole
    // life of this cluster, and so does the write count they are
    // divided by.
    P.Store.accumulate(C.storeStats());
    P.StoreWrites += Acked.size();
    for (const std::string &V : C.violations()) {
      P.StaleReads += V.rfind("stale read", 0) == 0;
      P.Gates.push_back("violation: " + V);
    }
    for (const std::string &V : C.checkFinalAgreement())
      P.Gates.push_back("final agreement: " + V);
    const core::RaftCore *Best = nullptr;
    for (NodeId N : C.universe()) {
      const core::RaftCore &Core = C.coreForInspection(N);
      if (!Best || Core.commitIndex() > Best->commitIndex())
        Best = &Core;
    }
    std::unordered_set<MethodId> Ledger;
    for (size_t I = 1; Best && I <= Best->commitIndex(); ++I)
      if (Best->entry(I).Kind == raft::EntryKind::Method)
        Ledger.insert(Best->entry(I).Method);
    size_t Lost = 0;
    for (MethodId M : Acked)
      Lost += Ledger.count(M) == 0;
    if (Lost)
      P.Gates.push_back(std::to_string(Lost) + " of " +
                        std::to_string(Acked.size()) +
                        " acknowledged writes missing from the committed "
                        "ledger");
    R.reset();
  }

  const Kind K;
  Pass &P;
  const uint64_t Seed;
  const uint64_t WindowNs;
  SpanLog *Spans;
  CompletionTracker Tracker;
  std::unique_ptr<Rig> R;
  uint64_t T0 = 0, WindowStart = 0, WindowEnd = 0;
  sync::Mutex MergeMu;
  uint64_t Completed = 0;
  /// When the last measured op completed: ops_per_s divides the
  /// completed ops by the time from the window's start to here.
  uint64_t LastDoneNs = 0;
  Samples WriteUs, ReadUs;
  std::vector<MethodId> Acked;
  uint64_t FaultAttempted = 0;
  uint64_t FaultFailed = 0;
};

Pass runPass(Kind K, const RunArgs &Args, SpanLog *Spans) {
  Pass P;
  P.Episodes = std::max(1u, Args.Seconds / EpisodeSeconds);
  const uint64_t WindowNs =
      static_cast<uint64_t>(Args.Seconds) * 1000000000ULL / P.Episodes;
  // Each episode gets its own seed drawn from the run's, so a run covers
  // several election outcomes and op mixes, and the same --seed always
  // draws the same ones.
  Rng Seeds(Args.Seed);
  for (unsigned E = 0; E != P.Episodes; ++E)
    Episode(K, P, Seeds.next(), WindowNs, Spans).run();
  return P;
}

std::string episodes(const Pass &P, const char *What, size_t N) {
  return "median of " + std::to_string(P.Episodes) + " episodes; n=" +
         std::to_string(N) + " " + What;
}

Metric latency(const char *Name, const Pass &P,
               const std::vector<double> &PerEpisode, uint64_t Samples) {
  return {Name, "us", median(PerEpisode), episodes(P, "samples", Samples)};
}

/// The gated metrics: the ones every workload has, that are never 0,
/// and whose run-to-run spread on a shared 4-core machine stays well
/// inside a bound (README.md gives the measured spreads).
std::vector<Metric> endToEnd(const Pass &P) {
  return {
      {"setup_s", "s", median(P.SetupS),
       episodes(P, "setups", P.SetupS.size())},
      latency("write_p50_us", P, P.WriteP50, P.WriteSamples),
  };
}

/// Printed in every run, but not part of the result line: figures too
/// noisy on a shared machine to gate on, 0 by design, or present on one
/// workload only.
std::vector<Metric> reported(Kind K, const Pass &P) {
  std::vector<Metric> Out = {
      {"ops_per_s", "ops/s", median(P.OpsPerS),
       episodes(P, "ops", P.Completed)},
      latency("write_p99_us", P, P.WriteP99, P.WriteSamples),
      {"rss_mb", "MB", peakRssMb(), "peak of the process"},
      {"fail_frac", "ratio",
       P.Attempted ? static_cast<double>(P.Failed) /
                         static_cast<double>(P.Attempted)
                   : 0,
       std::to_string(P.Failed) + "/" + std::to_string(P.Attempted)},
  };
  if (K == Kind::ReadsBus) {
    Out.push_back(latency("read_p50_us", P, P.ReadP50, P.ReadSamples));
    Out.push_back(latency("read_p99_us", P, P.ReadP99, P.ReadSamples));
  }
  if (K == Kind::FailoverBus) {
    Out.push_back({"unavail_ms", "ms", median(P.UnavailMs),
                   episodes(P, "kills", P.UnavailMs.size())});
    Out.push_back({"reconfig_ms", "ms", median(P.ReconfigMs),
                   episodes(P, "cycles", P.ReconfigMs.size())});
    Out.push_back({"catchup_ms", "ms", median(P.CatchupMs),
                   episodes(P, "restarts", P.CatchupMs.size())});
  }
  return Out;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string count(const char *What, uint64_t N) {
  return std::string(What) + "=" + std::to_string(N);
}

std::string basis(const Samples &S) { return count("n", S.size()); }

std::vector<Metric> perLayer(Kind K, const RunArgs &Args, const Pass &Plain,
                             const Pass &T, std::vector<std::string> &Gates) {
  // Sans-I/O replay of one episode's op mix through three cores, with as
  // many ops as an episode of the traced pass completed, so the replayed
  // logs grow to the length the cluster's did.
  ReplayMix Mix;
  Mix.Ops = std::clamp<size_t>(T.Completed / std::max(1u, T.Episodes), 400,
                               50000);
  Mix.Seed = Args.Seed;
  Mix.Opts = nodeOptions(K);
  if (K == Kind::ReadsBus) {
    Mix.ReadPermille = 900;
    Mix.GapUs = 100;
  }
  ReplayResult Rp = replayCore(Mix);
  if (!Rp.Ok)
    Gates.push_back(Rp.Error);
  else if (Rp.WritesCommitted != Rp.Writes || Rp.ReadsServed != Rp.Reads)
    Gates.push_back("replay: " +
                    std::to_string(Rp.Writes - Rp.WritesCommitted) +
                    " writes uncommitted, " +
                    std::to_string(Rp.Reads - Rp.ReadsServed) +
                    " reads unserved");

  // Wire codec cost on frames the run actually carried; a frame that does
  // not survive decode+encode byte for byte fails the run.
  Samples EncNs, DecNs;
  size_t Mismatch = 0;
  for (const std::string &F : T.Captured) {
    core::Msg M;
    uint64_t A = nowNs();
    bool Ok = rt::decodeMsg(F, M);
    uint64_t B = nowNs();
    std::string Back = rt::encodeMsg(M);
    uint64_t C = nowNs();
    DecNs.push_back(static_cast<double>(B - A));
    EncNs.push_back(static_cast<double>(C - B));
    Mismatch += !Ok || Back != F;
  }
  if (Mismatch)
    Gates.push_back("wire: " + std::to_string(Mismatch) +
                    " captured frames did not round-trip");
  if (T.Frames.Undecodable)
    Gates.push_back("wire: " + std::to_string(T.Frames.Undecodable) +
                    " posted frames did not decode");

  const double W = static_cast<double>(T.Writes);
  const double SW = static_cast<double>(T.StoreWrites);
  const FrameCounts &Fc = T.Frames;
  std::vector<Metric> Out = {
      {"core.step_ns.client_request", "ns", pct(Rp.ClientRequestNs, 50),
       basis(Rp.ClientRequestNs)},
      {"core.step_ns.append_entries", "ns", pct(Rp.AppendEntriesNs, 50),
       basis(Rp.AppendEntriesNs)},
      {"core.step_ns.append_reply", "ns", pct(Rp.AppendReplyNs, 50),
       basis(Rp.AppendReplyNs)},
      {"core.step_ns.read_query", "ns", pct(Rp.ReadQueryNs, 50),
       basis(Rp.ReadQueryNs)},
      {"core.effects_per_write", "count",
       ratio(static_cast<double>(Rp.Effects),
             static_cast<double>(Rp.WritesCommitted)),
       count("replayed writes", Rp.WritesCommitted)},
      {"core.frames_per_write", "count",
       ratio(static_cast<double>(Fc.Frames), W), count("writes", T.Writes)},
      {"core.heartbeats_per_s", "1/s",
       ratio(static_cast<double>(Fc.Heartbeats), T.MeasuredS), ""},
      {"core.elections_per_kill", "count",
       ratio(static_cast<double>(T.ElectionTerms),
             static_cast<double>(T.Kills)),
       count("kills", T.Kills)},
      {"core.split_vote_terms", "count",
       static_cast<double>(T.SplitVoteTerms), ""},
      {"rt.post_us_p50", "us", pct(T.PostUs, 50), basis(T.PostUs)},
      {"rt.submit_call_us", "us", pct(T.SubmitCallUs, 50),
       basis(T.SubmitCallUs)},
      {"rt.wire.encode_ns", "ns", pct(EncNs, 50), basis(EncNs)},
      {"rt.wire.decode_ns", "ns", pct(DecNs, 50), basis(DecNs)},
      {"rt.wire.bytes_per_write", "B",
       ratio(static_cast<double>(Fc.Bytes), W), ""},
      {"net.deliver_us_p50", "us", pct(T.DeliverUs, 50), basis(T.DeliverUs)},
      {"net.deliver_us_p99", "us", pct(T.DeliverUs, 99), basis(T.DeliverUs)},
      {"net.frames_dropped", "count", static_cast<double>(T.FramesDropped),
       ""},
      {"net.connection_drops", "count",
       static_cast<double>(T.ConnectionDrops), ""},
      {"store.syncs_per_write", "count",
       ratio(static_cast<double>(T.Store.Syncs), SW),
       count("writes", T.StoreWrites)},
      {"store.sync_us_p50", "us", pct(T.SyncUs, 50), basis(T.SyncUs)},
      {"store.sync_us_p99", "us", pct(T.SyncUs, 99), basis(T.SyncUs)},
      {"store.append_us_p50", "us", pct(T.AppendUs, 50), basis(T.AppendUs)},
      {"store.bytes_per_write", "B",
       ratio(static_cast<double>(T.Store.BytesWritten), SW), ""},
      {"store.records_per_sync", "count",
       ratio(static_cast<double>(T.Store.RecordsWritten),
             static_cast<double>(T.Store.Syncs)),
       count("syncs", T.Store.Syncs)},
      {"store.recovery_us", "us", static_cast<double>(T.Store.RecoveryUsMax),
       "max over recoveries"},
      {"read.probe_frames_per_read", "count",
       ratio(static_cast<double>(Fc.ReadProbes), static_cast<double>(T.Reads)),
       count("reads", T.Reads)},
      {"read.follower_nack_frac", "ratio",
       ratio(static_cast<double>(Fc.ReadNacks),
             static_cast<double>(T.FollowerReads)),
       count("follower reads", T.FollowerReads)},
      {"bench.gen_lag_us_p99", "us", pct(T.GenLagUs, 99), basis(T.GenLagUs)},
  };
  // How much worse each end-to-end figure read with every decorator in
  // place; the unsuffixed one is for write_p50_us, the latency every
  // layer's prediction names.
  auto Overhead = [&](const char *Name, double PlainV, double TracedV,
                      bool HigherIsBetter) {
    double Worse = HigherIsBetter ? PlainV - TracedV : TracedV - PlainV;
    Out.push_back({Name, "ratio", ratio(Worse, PlainV),
                   "traced vs plain pass"});
  };
  Overhead("bench.trace_overhead_frac", median(Plain.WriteP50),
           median(T.WriteP50), false);
  Overhead("bench.trace_overhead_frac.setup_s", median(Plain.SetupS),
           median(T.SetupS), false);
  Overhead("bench.trace_overhead_frac.ops_per_s", median(Plain.OpsPerS),
           median(T.OpsPerS), true);
  Overhead("bench.trace_overhead_frac.write_p99_us", median(Plain.WriteP99),
           median(T.WriteP99), false);
  return Out;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const Spec &S : Specs)
      N.push_back(S.Name);
    return N;
  }();
  return Names;
}

RunReport perfbench::runBenchmark(const RunArgs &Args) {
  RunReport Rep;
  Kind K = Kind::WritesTcp;
  for (const Spec &S : Specs)
    if (Args.Workload == S.Name)
      K = S.K;

  Pass Plain = runPass(K, Args, nullptr);
  Rep.GateFailures = Plain.Gates;
  Rep.Attempted = Plain.Attempted;
  Rep.Failed = Plain.Failed;
  if (Plain.StaleReads)
    Rep.GateFailures.push_back(std::to_string(Plain.StaleReads) +
                               " stale reads");
  Rep.EndToEnd = endToEnd(Plain);
  Rep.Reported = reported(K, Plain);
  if (!Args.Trace)
    return Rep;

  SpanLog Spans;
  Pass Traced = runPass(K, Args, &Spans);
  for (const std::string &G : Traced.Gates)
    Rep.GateFailures.push_back("traced pass: " + G);
  if (Traced.StaleReads)
    Rep.GateFailures.push_back("traced pass: " +
                               std::to_string(Traced.StaleReads) +
                               " stale reads");
  Rep.Attempted += Traced.Attempted;
  Rep.Failed += Traced.Failed;
  Rep.PerLayer = perLayer(K, Args, Plain, Traced, Rep.GateFailures);
  Rep.SpanFile = Args.WorkDir + "/spans-" + Args.Workload + ".jsonl";
  if (!Spans.writeJsonl(Rep.SpanFile))
    Rep.GateFailures.push_back("could not write " + Rep.SpanFile);
  return Rep;
}
