//===- bench/bench_microops.cpp - E6: core-operation microbenchmarks --------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E6: microbenchmarks of the primitives every experiment
// rests on — cache-tree growth, the rdist metric (Definition 4.2), the
// selection functions of Fig. 9, canonical fingerprinting, oracle-choice
// enumeration (the checker's successor fan-out), SRaft protocol rounds,
// and the ADO baseline's operations — plus the production core's hot
// path (core::RaftCore) and the store's persist at several log lengths,
// whose per-call time must not grow with the log, and the two codecs a
// TCP hop runs (rt/Wire per message kind, net::FrameSplitter
// reassembly). Uses google-benchmark.
//
//===----------------------------------------------------------------------===//

#include "ado/Ado.h"
#include "core/RaftCore.h"
#include "adore/Invariants.h"
#include "adore/Ops.h"
#include "kv/KvStore.h"
#include "mc/AdoreModel.h"
#include "mc/Explorer.h"
#include "net/Framing.h"
#include "raft/SRaft.h"
#include "rt/Wire.h"
#include "store/NodeStore.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

using namespace adore;

namespace {

/// Builds a committed chain of N methods with a few forks, as produced
/// by a leader committing batches with occasional competition.
AdoreState buildChainState(const ReconfigScheme &Scheme, size_t Methods) {
  Semantics Sem(Scheme);
  AdoreState St(Scheme, Config(NodeSet{1, 2, 3}));
  Sem.pull(St, 1, PullChoice{NodeSet{1, 2}, 1});
  for (size_t I = 0; I != Methods; ++I)
    Sem.invoke(St, 1, I + 1);
  Sem.push(St, 1, PushChoice{NodeSet{1, 2}, St.Tree.activeCache(1)});
  // A competing fork.
  Sem.pull(St, 2, PullChoice{NodeSet{2, 3}, 2});
  Sem.invoke(St, 2, 999);
  return St;
}

void BM_CacheTreeAddLeaf(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  for (auto _ : State) {
    CacheTree Tree(Config(NodeSet{1, 2, 3}), NodeSet{1, 2, 3});
    CacheId Parent = RootCacheId;
    for (int I = 0; I != 64; ++I) {
      Cache C;
      C.Kind = CacheKind::Method;
      C.Caller = 1;
      C.T = 1;
      C.V = static_cast<Vrsn>(I + 1);
      C.Conf = Config(NodeSet{1, 2, 3});
      C.Supporters = NodeSet{1};
      Parent = Tree.addLeaf(Parent, std::move(C));
    }
    benchmark::DoNotOptimize(Tree.size());
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_CacheTreeAddLeaf);

void BM_Rdist(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreState St = buildChainState(*Scheme, 32);
  CacheId A = St.Tree.activeCache(1), B = St.Tree.activeCache(2);
  for (auto _ : State)
    benchmark::DoNotOptimize(St.Tree.rdist(A, B));
}
BENCHMARK(BM_Rdist);

void BM_TreeRdist(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreState St = buildChainState(*Scheme, 24);
  for (auto _ : State)
    benchmark::DoNotOptimize(St.Tree.treeRdist());
}
BENCHMARK(BM_TreeRdist);

void BM_MostRecent(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreState St = buildChainState(*Scheme, 48);
  NodeSet Q{2, 3};
  for (auto _ : State)
    benchmark::DoNotOptimize(St.Tree.mostRecent(Q));
}
BENCHMARK(BM_MostRecent);

void BM_CanonicalFingerprint(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreState St = buildChainState(*Scheme, 48);
  for (auto _ : State)
    benchmark::DoNotOptimize(St.fingerprint());
}
BENCHMARK(BM_CanonicalFingerprint);

void BM_SafetyCheck(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  AdoreState St = buildChainState(*Scheme, 48);
  for (auto _ : State)
    benchmark::DoNotOptimize(checkReplicatedStateSafety(St.Tree));
}
BENCHMARK(BM_SafetyCheck);

void BM_EnumeratePullChoices(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St = buildChainState(*Scheme, 16);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sem.enumeratePullChoices(St, 3));
}
BENCHMARK(BM_EnumeratePullChoices);

void BM_EnumeratePushChoices(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  AdoreState St = buildChainState(*Scheme, 16);
  for (auto _ : State)
    benchmark::DoNotOptimize(Sem.enumeratePushChoices(St, 1));
}
BENCHMARK(BM_EnumeratePushChoices);

void BM_AdorePullInvokePush(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Semantics Sem(*Scheme);
  for (auto _ : State) {
    AdoreState St(*Scheme, Config(NodeSet{1, 2, 3}));
    Sem.pull(St, 1, PullChoice{NodeSet{1, 2}, 1});
    Sem.invoke(St, 1, 7);
    Sem.push(St, 1, PushChoice{NodeSet{1, 2}, St.Tree.activeCache(1)});
    benchmark::DoNotOptimize(St.Tree.size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AdorePullInvokePush);

void BM_AdoPullInvokePush(benchmark::State &State) {
  for (auto _ : State) {
    ado::AdoObject Obj;
    Obj.pull(1, {1, ado::RootCid});
    Obj.invoke(1, 7);
    Obj.push(1, *Obj.activeCid(1));
    benchmark::DoNotOptimize(Obj.persistLog().size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AdoPullInvokePush);

void BM_SRaftRound(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  for (auto _ : State) {
    raft::RaftSystem Sys(*Scheme, Config(NodeSet{1, 2, 3}));
    raft::SRaftDriver Driver(Sys);
    Driver.electRound(1, NodeSet{1, 2});
    Sys.invoke(1, 7);
    Driver.commitRound(1, NodeSet{1, 2});
    benchmark::DoNotOptimize(Sys.commitIndex(1));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SRaftRound);

void BM_KvEncodeDecode(benchmark::State &State) {
  uint64_t Sink = 0;
  for (auto _ : State) {
    kv::KvOp Op{kv::KvOpKind::Put, 12345, 67890};
    kv::KvOp Back = kv::decodeKvOp(kv::encodeKvOp(Op));
    Sink += Back.Key;
  }
  benchmark::DoNotOptimize(Sink);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_KvEncodeDecode);

/// End-to-end engine throughput: a bounded exhaustive Adore exploration
/// per iteration, reporting states/sec as items/sec. The one bench that
/// exercises the whole stack (successor enumeration, fingerprinting,
/// visited store, invariants) rather than a single primitive.
void BM_ExploreAdoreBounded(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  mc::AdoreModelOptions Opts;
  Opts.MaxCaches = 4;
  Opts.MaxTime = 2;
  mc::AdoreModel M(*Scheme, Config(NodeSet{1, 2, 3}), SemanticsOptions(),
                   Opts);
  size_t States = 0;
  for (auto _ : State) {
    mc::ExploreResult Res = mc::explore(M);
    States = Res.States;
    benchmark::DoNotOptimize(Res.States);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(States));
}
BENCHMARK(BM_ExploreAdoreBounded);

void BM_SimClusterRequest(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  Config Initial(NodeSet::range(1, 3));
  sim::Cluster C(*Scheme, Initial, Initial.Members, sim::ClusterOptions(),
                 99);
  C.start();
  C.runUntilLeader(5000000);
  uint64_t Done = 0;
  for (auto _ : State) {
    C.submit(1, [&](bool, sim::SimTime) { ++Done; });
    uint64_t Target = Done + 1;
    while (Done < Target && C.queue().runNext())
      ;
  }
  benchmark::DoNotOptimize(Done);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_SimClusterRequest);

/// A follower (node 2 of {1, 2, 3}) recovered with \p Len committed term-1
/// entries, the first of them a Reconfig: the worst case for anything
/// that looks the configuration up by scanning back through the log.
core::RaftCore makeLongLogFollower(const ReconfigScheme &Scheme, size_t Len) {
  Config Conf(NodeSet{1, 2, 3});
  std::vector<core::LogEntry> Log(Len);
  for (core::LogEntry &E : Log)
    E.Term = 1;
  Log[0].Kind = raft::EntryKind::Reconfig;
  Log[0].Conf = Conf;
  core::RaftCore C(2, Scheme, Conf, core::CoreOptions(), 7);
  C.installDurableState(1, std::nullopt, std::move(Log), Len);
  C.start();
  return C;
}

/// The configuration lookup every core step makes (passivity, quorum
/// checks, broadcasts, read rounds).
void BM_CoreConfig(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  core::RaftCore C =
      makeLongLogFollower(*Scheme, static_cast<size_t>(State.range(0)));
  for (auto _ : State)
    benchmark::DoNotOptimize(C.config().Members.size());
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CoreConfig)->Arg(1 << 10)->Arg(1 << 16);

/// One follower AppendEntries step at a fixed log length: each frame
/// replaces the tail entry (alternating its term, so the follower
/// truncates one slot and appends one), which runs the consistency
/// check, the truncate/append splice, passivity, commit and the reply.
void BM_CoreStepAppendEntries(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  size_t Len = static_cast<size_t>(State.range(0));
  core::RaftCore C = makeLongLogFollower(*Scheme, Len);
  core::Msg Frames[2];
  for (Time T : {1, 2}) {
    core::Msg &M = Frames[T - 1];
    M.K = core::Msg::Kind::AppendEntries;
    M.From = 1;
    M.To = 2;
    M.Term = 2;
    M.PrevIndex = Len;
    M.PrevTerm = 1;
    M.Entries.resize(1);
    M.Entries[0].Term = T;
    M.LeaderCommit = Len;
  }
  size_t I = 0;
  for (auto _ : State) {
    core::Effects Out = C.onMessage(Frames[I++ & 1], /*NowUs=*/1);
    benchmark::DoNotOptimize(Out.data());
  }
  if (C.logSize() != Len + 1)
    State.SkipWithError("log length drifted");
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_CoreStepAppendEntries)->Arg(1 << 10)->Arg(1 << 16);

/// A store's persist of one follower step at a fixed log length: two
/// cores whose logs differ only in the tail slot's term alternate, so
/// each call diffs from the slot the step changed and writes a Truncate
/// plus an Append record (no fsync: the write path's diff cost alone).
void BM_StorePersist(benchmark::State &State) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  size_t Len = static_cast<size_t>(State.range(0));
  Config Conf(NodeSet{1, 2, 3});
  std::vector<core::RaftCore> Cores;
  for (Time T : {1, 2}) {
    std::vector<core::LogEntry> Log(Len + 1);
    for (core::LogEntry &E : Log)
      E.Term = 1;
    Log.back().Term = T;
    Cores.emplace_back(2, *Scheme, Conf, core::CoreOptions(), 7);
    Cores.back().installDurableState(2, std::nullopt, std::move(Log), Len);
  }
  store::MemVfs Disk(1);
  store::NodeStore Store(Disk, "n2");
  if (Store.open().Error || !Store.persistFrom(Cores[0], 1) || !Store.sync()) {
    State.SkipWithError("store setup failed");
    return;
  }
  const std::string Seg = "n2/" + store::segmentName(Store.segmentSeq());
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Store.persistFrom(Cores[++I & 1], Len + 1));
    if ((I & 4095) == 0) {
      // Keep the in-memory segment small; the store only ever appends.
      State.PauseTiming();
      Disk.truncate(Seg, store::SegmentHeaderBytes);
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_StorePersist)->Arg(1 << 10)->Arg(1 << 16);

/// A representative message of kind \p K, shaped like writes-tcp
/// traffic: an AppendEntries carries one client entry.
core::Msg sampleMsg(core::Msg::Kind K) {
  core::Msg M;
  M.K = K;
  M.From = 1;
  M.To = 2;
  M.Term = 3;
  switch (K) {
  case core::Msg::Kind::RequestVote:
    M.LastLogTerm = 2;
    M.LastLogIndex = 4096;
    break;
  case core::Msg::Kind::VoteReply:
    M.Granted = true;
    break;
  case core::Msg::Kind::AppendEntries: {
    M.PrevIndex = 4096;
    M.PrevTerm = 3;
    M.LeaderCommit = 4095;
    core::LogEntry E;
    E.Term = 3;
    E.Kind = raft::EntryKind::Method;
    E.Method = 12345;
    E.ClientSeq = 1234567890123ull;
    M.Entries = {E};
    break;
  }
  case core::Msg::Kind::AppendReply:
    M.Success = true;
    M.MatchIndex = 4097;
    break;
  case core::Msg::Kind::TimeoutNow:
    break;
  case core::Msg::Kind::InstallSnapshot:
    M.SnapIndex = 4096;
    M.SnapTerm = 3;
    M.Offset = 8192;
    M.Chunk.assign(1024, 's');
    break;
  case core::Msg::Kind::InstallSnapshotReply:
    M.Success = true;
    M.SnapIndex = 4096;
    M.Offset = 9216;
    break;
  case core::Msg::Kind::ReadIndexQuery:
    M.Done = true;
    M.ReadRound = 42;
    break;
  case core::Msg::Kind::ReadIndexReply:
    M.Done = true;
    M.Success = true;
    M.ReadRound = 42;
    break;
  }
  return M;
}

/// One rt/Wire encode plus decode of a message of each Msg::Kind (the
/// argument is the kind's ordinal): the codec work of one TCP hop.
void BM_WireEncodeDecode(benchmark::State &State) {
  core::Msg M = sampleMsg(static_cast<core::Msg::Kind>(State.range(0)));
  core::Msg Back;
  size_t Bytes = 0;
  for (auto _ : State) {
    std::string Frame = rt::encodeMsg(M);
    Bytes = Frame.size();
    if (!rt::decodeMsg(Frame, Back)) {
      State.SkipWithError("decode failed");
      return;
    }
    benchmark::DoNotOptimize(Back.Term);
  }
  State.SetBytesProcessed(State.iterations() * static_cast<int64_t>(Bytes));
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WireEncodeDecode)->DenseRange(
    0, static_cast<int>(core::Msg::Kind::ReadIndexReply));

/// net::FrameSplitter reassembling a stream of writes-tcp-sized frames
/// (AppendEntries with one entry, alternating with AppendReply) that
/// arrives cut at arbitrary boundaries, 1..1500 bytes per read.
void BM_FrameSplitterFeed(benchmark::State &State) {
  std::string Stream;
  size_t Frames = 0;
  for (core::Msg::Kind K :
       {core::Msg::Kind::AppendEntries, core::Msg::Kind::AppendReply})
    for (int I = 0; I != 256; ++I, ++Frames)
      net::appendFrame(Stream, rt::encodeMsg(sampleMsg(K)));
  std::vector<size_t> Cuts;
  uint64_t Lcg = 12345;
  for (size_t Pos = 0; Pos < Stream.size();) {
    Lcg = Lcg * 6364136223846793005ull + 1442695040888963407ull;
    size_t Len = std::min<size_t>(1 + (Lcg >> 33) % 1500, Stream.size() - Pos);
    Cuts.push_back(Len);
    Pos += Len;
  }
  size_t Got = 0;
  for (auto _ : State) {
    net::FrameSplitter Splitter;
    const char *P = Stream.data();
    for (size_t Len : Cuts) {
      Splitter.feed(P, Len, [&Got](std::string F) {
        Got += F.size() != 0;
      });
      P += Len;
    }
  }
  if (Got != State.iterations() * Frames)
    State.SkipWithError("frames lost in reassembly");
  State.SetBytesProcessed(State.iterations() *
                          static_cast<int64_t>(Stream.size()));
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(Frames));
}
BENCHMARK(BM_FrameSplitterFeed);

} // namespace

/// Like BENCHMARK_MAIN(), but defaults to also emitting the machine-
/// readable google-benchmark JSON report (BENCH_microops.json in the
/// working directory) unless the caller passed --benchmark_out itself.
int main(int argc, char **argv) {
  std::vector<char *> Args(argv, argv + argc);
  bool HasOut = false;
  for (int I = 1; I < argc; ++I)
    if (std::strncmp(argv[I], "--benchmark_out", 15) == 0)
      HasOut = true;
  static std::string OutFlag = "--benchmark_out=BENCH_microops.json";
  static std::string FmtFlag = "--benchmark_out_format=json";
  if (!HasOut) {
    Args.push_back(OutFlag.data());
    Args.push_back(FmtFlag.data());
  }
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
