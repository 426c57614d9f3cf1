//===- tests/RtTest.cpp - Real-time runtime tests ----------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the threaded runtime: the wire format (round-trips and
/// malformed-frame rejection) and RtCluster smoke runs — leader
/// election, concurrent client traffic, a hot reconfiguration, and a
/// crash/restart — on real threads against the wall clock. These are
/// the tests CI runs under ThreadSanitizer.
///
//===----------------------------------------------------------------------===//

#include "net/Framing.h"
#include "rt/Bus.h"
#include "rt/RtCluster.h"
#include "rt/Wire.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <vector>

using namespace adore;
using namespace adore::rt;

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

namespace {

core::Msg sampleMsg(core::Msg::Kind K) {
  core::Msg M;
  M.K = K;
  M.From = 3;
  M.To = 1;
  M.Term = 7;
  switch (K) {
  case core::Msg::Kind::RequestVote:
    M.LastLogTerm = 6;
    M.LastLogIndex = 41;
    M.TransferElection = true;
    break;
  case core::Msg::Kind::VoteReply:
    M.Granted = true;
    break;
  case core::Msg::Kind::AppendEntries: {
    M.PrevIndex = 12;
    M.PrevTerm = 5;
    M.LeaderCommit = 11;
    core::LogEntry Cmd;
    Cmd.Term = 6;
    Cmd.Kind = raft::EntryKind::Method;
    Cmd.Method = 99;
    Cmd.ClientSeq = 1234567890123ull;
    core::LogEntry Rcf;
    Rcf.Term = 7;
    Rcf.Kind = raft::EntryKind::Reconfig;
    Rcf.Conf = Config(NodeSet{1, 3, 5});
    M.Entries = {Cmd, Rcf};
    break;
  }
  case core::Msg::Kind::AppendReply:
    M.Success = true;
    M.MatchIndex = 14;
    break;
  case core::Msg::Kind::TimeoutNow:
    break;
  case core::Msg::Kind::InstallSnapshot:
    M.SnapIndex = 23;
    M.SnapTerm = 6;
    M.Offset = 8192;
    M.Chunk = std::string("snapshot-bytes\x00with-nul", 22);
    M.Done = true;
    break;
  case core::Msg::Kind::InstallSnapshotReply:
    M.Success = true;
    M.SnapIndex = 23;
    M.Offset = 8214;
    M.Done = true;
    break;
  case core::Msg::Kind::ReadIndexQuery:
    M.Done = true; // A confirmation-round probe.
    M.ReadRound = 42;
    break;
  case core::Msg::Kind::ReadIndexReply:
    M.Done = false; // An answer to a forwarded read.
    M.Success = true;
    M.ReadRound = 777; // The forwarding follower's cookie.
    M.LeaderCommit = 19; // The safe index.
    break;
  }
  return M;
}

void expectMsgEq(const core::Msg &A, const core::Msg &B) {
  EXPECT_EQ(A.K, B.K);
  EXPECT_EQ(A.From, B.From);
  EXPECT_EQ(A.To, B.To);
  EXPECT_EQ(A.Term, B.Term);
  EXPECT_EQ(A.LastLogTerm, B.LastLogTerm);
  EXPECT_EQ(A.LastLogIndex, B.LastLogIndex);
  EXPECT_EQ(A.TransferElection, B.TransferElection);
  EXPECT_EQ(A.Granted, B.Granted);
  EXPECT_EQ(A.PrevIndex, B.PrevIndex);
  EXPECT_EQ(A.PrevTerm, B.PrevTerm);
  EXPECT_EQ(A.LeaderCommit, B.LeaderCommit);
  EXPECT_EQ(A.Success, B.Success);
  EXPECT_EQ(A.MatchIndex, B.MatchIndex);
  EXPECT_EQ(A.SnapIndex, B.SnapIndex);
  EXPECT_EQ(A.SnapTerm, B.SnapTerm);
  EXPECT_EQ(A.Offset, B.Offset);
  EXPECT_EQ(A.Chunk, B.Chunk);
  EXPECT_EQ(A.Done, B.Done);
  EXPECT_EQ(A.ReadRound, B.ReadRound);
  ASSERT_EQ(A.Entries.size(), B.Entries.size());
  for (size_t I = 0; I != A.Entries.size(); ++I)
    EXPECT_EQ(A.Entries[I], B.Entries[I]);
}

} // namespace

TEST(WireTest, RoundTripsEveryMessageKind) {
  for (auto K :
       {core::Msg::Kind::RequestVote, core::Msg::Kind::VoteReply,
        core::Msg::Kind::AppendEntries, core::Msg::Kind::AppendReply,
        core::Msg::Kind::TimeoutNow, core::Msg::Kind::InstallSnapshot,
        core::Msg::Kind::InstallSnapshotReply,
        core::Msg::Kind::ReadIndexQuery, core::Msg::Kind::ReadIndexReply}) {
    core::Msg In = sampleMsg(K);
    std::string Bytes = encodeMsg(In);
    core::Msg Out;
    ASSERT_TRUE(decodeMsg(Bytes, Out));
    expectMsgEq(In, Out);
  }
}

TEST(WireTest, GoldenInstallSnapshotFrameIsPinned) {
  // The InstallSnapshot frame layout is an on-wire contract between
  // mixed-version replicas: a fixed chunked-transfer message must
  // encode to exactly the bytes pinned in the golden file (hex, one
  // line). Any drift — field order, widths, endianness, a new field
  // without a version bump — fails here before it can strand a
  // catch-up transfer between peers that disagree on the layout.
  core::Msg M;
  M.K = core::Msg::Kind::InstallSnapshot;
  M.From = 1;
  M.To = 4;
  M.Term = 3;
  M.SnapIndex = 17;
  M.SnapTerm = 2;
  M.Offset = 256;
  M.Done = false;
  M.Chunk = std::string("chunk\x00payload", 13);
  std::string Bytes = encodeMsg(M);
  std::string Hex;
  for (unsigned char C : Bytes) {
    char Buf[3];
    std::snprintf(Buf, sizeof(Buf), "%02x", C);
    Hex += Buf;
  }

  std::string GoldenPath =
      std::string(ADORE_TEST_GOLDEN_DIR) + "/install_snapshot_frame.hex";
  if (std::getenv("ADORE_UPDATE_GOLDEN")) {
    std::ofstream Out(GoldenPath);
    Out << Hex << "\n";
  }
  std::ifstream In(GoldenPath);
  ASSERT_TRUE(In.good()) << "golden file missing";
  std::string Golden;
  In >> Golden;
  EXPECT_EQ(Hex, Golden)
      << "InstallSnapshot wire layout drifted from the golden frame";

  // And the pinned bytes still decode to the same message.
  core::Msg Out;
  ASSERT_TRUE(decodeMsg(Bytes, Out));
  expectMsgEq(M, Out);
}

TEST(WireTest, RejectsTruncatedFrames) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::AppendEntries));
  core::Msg Out;
  // Every strict prefix must fail, not crash or mis-parse.
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(decodeMsg(Bytes.substr(0, Len), Out)) << "prefix " << Len;
}

TEST(WireTest, RejectsTrailingGarbage) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::VoteReply));
  core::Msg Out;
  EXPECT_FALSE(decodeMsg(Bytes + "x", Out));
}

TEST(WireTest, RejectsBadKindAndHugeCounts) {
  std::string Bytes = encodeMsg(sampleMsg(core::Msg::Kind::AppendEntries));
  core::Msg Out;
  {
    // Corrupt the message-kind byte (the first byte of the frame).
    std::string Bad = Bytes;
    Bad[0] = char(0xEE);
    EXPECT_FALSE(decodeMsg(Bad, Out));
  }
  {
    // An absurd declared entry count (the u64 after the fixed header)
    // must be rejected before any allocation.
    constexpr size_t CountOff = 1 + 4 + 4 + 8 * 3 + 2 + 8 * 3 + 1 + 8;
    std::string Bad = Bytes;
    for (size_t I = 0; I != 8; ++I)
      Bad[CountOff + I] = char(0xFF);
    EXPECT_FALSE(decodeMsg(Bad, Out));
  }
  EXPECT_FALSE(decodeMsg(std::string(), Out));
}

//===----------------------------------------------------------------------===//
// RtCluster smoke — the TSan targets
//===----------------------------------------------------------------------===//

TEST(RtClusterTest, ElectsALeaderQuickly) {
  RtClusterOptions Opts;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  EXPECT_NE(Leader, InvalidNodeId);
  C.stop();
  EXPECT_TRUE(C.violations().empty());
}

TEST(RtClusterTest, ConcurrentClientsAllCommit) {
  // The headline smoke: 100 operations from four genuinely concurrent
  // client threads, each observing commitment through the shared ledger.
  RtClusterOptions Opts;
  Opts.Seed = 7;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);

  constexpr int NumClients = 4;
  constexpr int OpsPerClient = 25;
  std::atomic<int> Committed{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&C, &Committed, T] {
      for (int I = 0; I != OpsPerClient; ++I)
        if (C.submitAndWait(MethodId(100 + T * OpsPerClient + I), 10000))
          ++Committed;
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Committed.load(), NumClients * OpsPerClient);
  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
  EXPECT_GE(C.committedCount(), size_t(NumClients * OpsPerClient));
}

TEST(RtClusterTest, HotReconfigUnderTraffic) {
  RtClusterOptions Opts;
  Opts.Seed = 13;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  // Shrink by one, keep traffic flowing, then grow back.
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  NodeSet Shrunk;
  for (NodeId Id : C.scheme().mbrs(C.initialConfig()))
    if (Id == Leader || Shrunk.size() + 1 < C.numNodes())
      Shrunk.insert(Id);
  EXPECT_TRUE(C.reconfigAndWait(Config(Shrunk), 10000));
  EXPECT_TRUE(C.submitAndWait(2, 10000));
  EXPECT_TRUE(C.reconfigAndWait(C.initialConfig(), 10000));
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, ConcurrentLifecycleIsSerialized) {
  // Regression test for the lock-discipline holes the thread-safety
  // annotations surfaced: RtCluster::Running was an unguarded flag and
  // RtNode::Worker (the std::thread object itself) was written by
  // start() and joined by stop() with no common lock, so concurrent
  // lifecycle calls could double-start workers or join a thread being
  // assigned. Both are now serialized under LifeMu; this hammers the
  // old interleavings. The race was on the lifecycle state, not the
  // data path, so the TSan CI job is where a regression shows up.
  RtClusterOptions Opts;
  Opts.Seed = 31;
  RtCluster C(Opts);

  constexpr int NumRacers = 4;
  constexpr int CyclesPerRacer = 8;
  std::vector<std::thread> Racers;
  for (int T = 0; T != NumRacers; ++T)
    Racers.emplace_back([&C, T] {
      for (int I = 0; I != CyclesPerRacer; ++I) {
        if ((T + I) % 2 == 0)
          C.start();
        else
          C.stop();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  for (std::thread &T : Racers)
    T.join();

  // Whatever state the race left behind, the cluster must still be
  // fully usable: idempotent start, an election, a commit, clean stop.
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  EXPECT_TRUE(C.submitAndWait(1, 10000));
  C.stop();
  C.stop(); // Idempotent.
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, SurvivesCrashAndRestart) {
  RtClusterOptions Opts;
  Opts.Seed = 23;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  // Kill the leader; the survivors fail over and keep committing.
  C.crash(Leader);
  EXPECT_TRUE(C.submitAndWait(2, 15000));
  C.restart(Leader);
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

//===----------------------------------------------------------------------===//
// Golden frames: the full wire-compat pin set
//===----------------------------------------------------------------------===//

namespace {

std::string hexOf(const std::string &Bytes) {
  std::string Hex;
  for (unsigned char C : Bytes) {
    char Buf[3];
    std::snprintf(Buf, sizeof(Buf), "%02x", C);
    Hex += Buf;
  }
  return Hex;
}

} // namespace

TEST(WireTest, GoldenFramesForEveryKindArePinned) {
  // One pinned frame per message kind, extending the InstallSnapshot
  // pin above to the whole vocabulary: since the TCP transport ships
  // the rt wire encoding verbatim (plus a length prefix), these hex
  // files ARE the cross-version network contract. Regenerate them
  // deliberately with ADORE_UPDATE_GOLDEN=1 after an intentional,
  // version-bumped layout change — never to silence this test.
  struct KindPin {
    core::Msg::Kind K;
    const char *File;
  };
  const KindPin Pins[] = {
      {core::Msg::Kind::RequestVote, "frame_request_vote.hex"},
      {core::Msg::Kind::VoteReply, "frame_vote_reply.hex"},
      {core::Msg::Kind::AppendEntries, "frame_append_entries.hex"},
      {core::Msg::Kind::AppendReply, "frame_append_reply.hex"},
      {core::Msg::Kind::TimeoutNow, "frame_timeout_now.hex"},
      {core::Msg::Kind::InstallSnapshot, "frame_install_snapshot.hex"},
      {core::Msg::Kind::InstallSnapshotReply,
       "frame_install_snapshot_reply.hex"},
      {core::Msg::Kind::ReadIndexQuery, "frame_read_index_query.hex"},
      {core::Msg::Kind::ReadIndexReply, "frame_read_index_reply.hex"},
  };
  for (const KindPin &P : Pins) {
    std::string Hex = hexOf(encodeMsg(sampleMsg(P.K)));
    std::string Path = std::string(ADORE_TEST_GOLDEN_DIR) + "/" + P.File;
    if (std::getenv("ADORE_UPDATE_GOLDEN")) {
      std::ofstream Out(Path);
      Out << Hex << "\n";
    }
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << P.File
                           << " missing (ADORE_UPDATE_GOLDEN=1 regenerates)";
    std::string Golden;
    In >> Golden;
    EXPECT_EQ(Hex, Golden) << P.File << ": wire layout drifted";
  }
}

TEST(WireTest, TcpFramingPreservesBusBytesForEveryKind) {
  // The transport-independence pin: a message travels over TCP as
  // exactly the bytes the in-process bus delivers, wrapped in exactly
  // four little-endian length bytes — nothing re-encoded, nothing
  // appended. Reassembly from one-byte reads returns the identical
  // payload, which still decodes to the identical message.
  for (auto K :
       {core::Msg::Kind::RequestVote, core::Msg::Kind::VoteReply,
        core::Msg::Kind::AppendEntries, core::Msg::Kind::AppendReply,
        core::Msg::Kind::TimeoutNow, core::Msg::Kind::InstallSnapshot,
        core::Msg::Kind::InstallSnapshotReply,
        core::Msg::Kind::ReadIndexQuery, core::Msg::Kind::ReadIndexReply}) {
    std::string BusFrame = encodeMsg(sampleMsg(K));
    ASSERT_TRUE(net::frameable(BusFrame));
    std::string Framed;
    net::appendFrame(Framed, BusFrame);
    std::string Header;
    codec::putU32(Header, static_cast<uint32_t>(BusFrame.size()));
    ASSERT_EQ(Framed, Header + BusFrame) << "kind " << int(K);

    net::FrameSplitter S;
    std::vector<std::string> Got;
    for (size_t I = 0; I != Framed.size(); ++I)
      ASSERT_TRUE(S.feed(Framed.data() + I, 1,
                         [&](std::string F) { Got.push_back(std::move(F)); }));
    ASSERT_EQ(Got.size(), 1u);
    EXPECT_EQ(Got[0], BusFrame);
    core::Msg Out;
    ASSERT_TRUE(decodeMsg(Got[0], Out));
    expectMsgEq(sampleMsg(K), Out);
  }
}

//===----------------------------------------------------------------------===//
// Bus semantics
//===----------------------------------------------------------------------===//

TEST(BusTest, DeliversOnThePostingThreadAndDropsUnknownIds) {
  Bus B;
  std::string Seen;
  B.attach(1, [&Seen](std::string F) { Seen = std::move(F); });
  B.post(1, "hello");
  EXPECT_EQ(Seen, "hello"); // Synchronous: visible before post returns.
  B.post(99, "dropped");    // Nobody attached; must not crash.
  B.detach(1);
  B.post(1, "after detach");
  EXPECT_EQ(Seen, "hello");
}

TEST(BusTest, PostRacingAttachDetachNeverDangles) {
  // Regression test: post() used to invoke the handler through a
  // reference into the Handlers map after unlocking, so a concurrent
  // detach()/attach() destroying that map entry left the reference
  // dangling — a use-after-free only a racing workload (or TSan/ASan)
  // would catch. post() now copies the handler out under the lock;
  // this hammers the old interleaving with handlers that own heap
  // state they touch on every delivery.
  Bus B;
  std::atomic<uint64_t> Delivered{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Posters;
  for (int T = 0; T != 4; ++T)
    Posters.emplace_back([&B, &Stop] {
      std::string Frame(256, 'f');
      while (!Stop.load(std::memory_order_relaxed))
        B.post(1, Frame);
    });
  // Churn the handler identity until the posters have demonstrably
  // delivered through several generations (bounded by iteration count
  // so a broken bus cannot hang the suite).
  for (int I = 0; I != 200000 && Delivered.load() < 1000; ++I) {
    // Each generation's handler owns a fresh heap payload and reads it
    // on delivery: a stale reference to a destroyed std::function (or
    // its captures) trips immediately under the sanitizers.
    auto Payload =
        std::make_shared<std::string>(64, static_cast<char>('a' + I % 26));
    B.attach(1, [&Delivered, Payload](std::string) {
      if (!Payload->empty() && (*Payload)[0] >= 'a')
        Delivered.fetch_add(1, std::memory_order_relaxed);
    });
    if (I % 3 == 0)
      B.detach(1);
  }
  Stop.store(true);
  for (std::thread &T : Posters)
    T.join();
  EXPECT_GT(Delivered.load(), 0u);
}

//===----------------------------------------------------------------------===//
// RtCluster over loopback TCP
//===----------------------------------------------------------------------===//

TEST(RtClusterTest, TcpTransportElectsCommitsAndFailsOver) {
  // The SurvivesCrashAndRestart smoke, re-run over real sockets: same
  // hosts, same consensus, only the fabric differs — which is the whole
  // point of the Transport seam.
  RtClusterOptions Opts;
  Opts.Transport = TransportKind::Tcp;
  Opts.Seed = 17;
  RtCluster C(Opts);
  C.start();
  NodeId Leader = C.waitForLeader(10000);
  ASSERT_NE(Leader, InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(1, 10000));

  C.crash(Leader);
  EXPECT_TRUE(C.submitAndWait(2, 20000));
  C.restart(Leader);
  EXPECT_TRUE(C.submitAndWait(3, 10000));

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtClusterTest, TcpPipelinedTuningCommitsConcurrentBursts) {
  // The bench's hot-path tuning (pipelined replication, append
  // batching, inbox-batch group commit) under concurrent clients on
  // TCP: correctness must not depend on the stop-and-wait defaults.
  RtClusterOptions Opts;
  Opts.Transport = TransportKind::Tcp;
  Opts.Seed = 29;
  Opts.Node.PipelineWindow = 8;
  Opts.Node.MaxAppendBatch = 16;
  Opts.Host.MaxInboxBatch = 16;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(10000), InvalidNodeId);

  constexpr int NumClients = 4;
  constexpr int OpsPerClient = 25;
  std::atomic<int> Committed{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T != NumClients; ++T)
    Clients.emplace_back([&C, &Committed, T] {
      for (int I = 0; I != OpsPerClient; ++I)
        if (C.submitAndWait(MethodId(500 + T * OpsPerClient + I), 15000))
          ++Committed;
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Committed.load(), NumClients * OpsPerClient);

  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
  EXPECT_GE(C.committedCount(), size_t(NumClients * OpsPerClient));
}

//===----------------------------------------------------------------------===//
// RtNode ownership hand-off: who may run a node, and for how long
//===----------------------------------------------------------------------===//

namespace {

/// A Vfs decorator that records which threads issue sync() once armed.
class SyncThreadRecorder final : public store::Vfs {
public:
  explicit SyncThreadRecorder(store::Vfs &Inner) : Inner(Inner) {}

  void arm() { Armed.store(true); }
  std::set<std::thread::id> syncThreads() {
    sync::MutexLock Lock(Mu);
    return Threads;
  }

  bool append(const std::string &Path, const std::string &Bytes) override {
    return Inner.append(Path, Bytes);
  }
  bool readFile(const std::string &Path, std::string &Out) override {
    return Inner.readFile(Path, Out);
  }
  bool truncate(const std::string &Path, uint64_t Size) override {
    return Inner.truncate(Path, Size);
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    return Inner.renameFile(From, To);
  }
  bool removeFile(const std::string &Path) override {
    return Inner.removeFile(Path);
  }
  bool exists(const std::string &Path) override { return Inner.exists(Path); }
  uint64_t fileSize(const std::string &Path) override {
    return Inner.fileSize(Path);
  }
  bool sync(const std::string &Path) override {
    if (Armed.load()) {
      sync::MutexLock Lock(Mu);
      Threads.insert(std::this_thread::get_id());
    }
    return Inner.sync(Path);
  }
  std::vector<std::string> list(const std::string &Prefix) override {
    return Inner.list(Prefix);
  }

private:
  store::Vfs &Inner;
  std::atomic<bool> Armed{false};
  sync::Mutex Mu;
  std::set<std::thread::id> Threads ADORE_GUARDED_BY(Mu);
};

} // namespace

TEST(RtNodeTest, StoreBackedNodesNeverSyncOnAClientThread) {
  // Inline execution is for storeless nodes only: a client's thread
  // must never wait on a WAL fsync. Every client call below — submits,
  // a crash and a restart — comes from this thread, so none of the
  // store's syncs may.
  store::MemVfs Mem(3);
  SyncThreadRecorder Disk(Mem);
  RtClusterOptions Opts;
  Opts.Seed = 41;
  Opts.DurableStore = true;
  Opts.ExternalDisk = &Disk;
  RtCluster C(Opts);
  Disk.arm(); // Construction-time recovery is not a client call.
  C.start();
  NodeId Leader = C.waitForLeader(5000);
  ASSERT_NE(Leader, InvalidNodeId);
  for (MethodId M = 1; M <= 20; ++M)
    ASSERT_TRUE(C.submitAndWait(M, 10000));
  NodeId Victim = Leader == 1 ? 2 : 1;
  C.crash(Victim);
  C.restart(Victim);
  ASSERT_TRUE(C.submitAndWait(21, 10000));
  C.stop();

  std::set<std::thread::id> Syncers = Disk.syncThreads();
  EXPECT_FALSE(Syncers.empty());
  EXPECT_EQ(Syncers.count(std::this_thread::get_id()), 0u);
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtNodeTest, InlineOwnerHandsBackAfterTheDispatchBound) {
  // A hook that keeps feeding the node from inside its own step must
  // not capture the caller's thread: the inline owner runs at most
  // MaxInlineDispatches dispatches (one apply each on a singleton
  // cluster), and the worker commits the rest.
  constexpr uint64_t Total = 1000;
  constexpr uint64_t SeqBase = uint64_t(1) << 40;
  const std::thread::id Caller = std::this_thread::get_id();
  std::atomic<uint64_t> Applied{0}, AppliedOnCaller{0};
  RtCluster *Cluster = nullptr;
  RtClusterOptions Opts;
  Opts.NumNodes = 1;
  Opts.Seed = 43;
  Opts.OnApplyExtra = [&](NodeId, size_t, const core::LogEntry &E) {
    if (E.Kind != raft::EntryKind::Method || E.Method == 0)
      return; // Not a client entry (the leader's term-start no-op).
    if (std::this_thread::get_id() == Caller)
      ++AppliedOnCaller;
    uint64_t N = ++Applied;
    if (N < Total)
      Cluster->submitAsync(7, SeqBase + N);
  };
  RtCluster C(Opts);
  Cluster = &C;
  C.start();
  ASSERT_NE(C.waitForLeader(5000), InvalidNodeId);
  ASSERT_TRUE(C.submitAndWait(7, 10000));
  EXPECT_GE(AppliedOnCaller.load(), 1u);
  EXPECT_LE(AppliedOnCaller.load(), RtNode::MaxInlineDispatches);

  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (Applied.load() < Total && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  C.stop();
  EXPECT_EQ(Applied.load(), Total);
  EXPECT_LE(AppliedOnCaller.load(), RtNode::MaxInlineDispatches);
  EXPECT_TRUE(C.violations().empty());
}

TEST(RtNodeTest, IdleFlushSendsALoneWriteWithoutWaitingForTheBatch) {
  // With append batching on, a lone request used to sit in the partial
  // batch until padding filled it or a heartbeat flushed it. An owner
  // that finds its inbox drained now flushes at once, so sequential
  // writes take microseconds, not a heartbeat each.
  RtClusterOptions Opts;
  Opts.Seed = 47;
  Opts.Node.MaxAppendBatch = 16;
  Opts.Node.HeartbeatUs = 1000000;
  Opts.Node.ElectionTimeoutMinUs = 2000000;
  Opts.Node.ElectionTimeoutMaxUs = 2500000;
  RtCluster C(Opts);
  C.start();
  ASSERT_NE(C.waitForLeader(10000), InvalidNodeId);
  auto Start = std::chrono::steady_clock::now();
  for (MethodId M = 1; M <= 20; ++M)
    ASSERT_TRUE(C.submitAndWait(M, 10000));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count();
  // Without the flush each write waits about one heartbeat; all twenty
  // together must finish inside a single one (slack for sanitizers).
  EXPECT_LT(Ms, int64_t(Opts.Node.HeartbeatUs / 1000))
      << "20 writes took " << Ms << " ms";
  C.stop();
  EXPECT_TRUE(C.violations().empty());
  EXPECT_TRUE(C.checkFinalAgreement().empty());
}

TEST(RtNodeTest, NoHookFiresAfterStopReturnsUnderClientTraffic) {
  // Client threads drive the nodes inline while the main thread cycles
  // stop()/start(). stop() must wait out an inline owner, and once
  // every node's stop() has returned no hook may fire. Meant for TSan.
  std::unique_ptr<ReconfigScheme> Scheme =
      makeScheme(SchemeKind::RaftSingleNode);
  Config Conf(NodeSet{1, 2, 3});
  core::CoreOptions Opts = RtClusterOptions::fastNodeOptions();
  Opts.EnableReadIndex = true;
  std::atomic<bool> Stopped{false};
  std::atomic<uint64_t> Hooks{0}, Late{0};
  auto Note = [&] {
    ++Hooks;
    // Linger, so a stop() that returned under a running hook shows.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    if (Stopped.load())
      ++Late;
  };
  RtNodeHooks H;
  H.OnApply = [&](NodeId, size_t, const core::LogEntry &) { Note(); };
  H.OnLeader = [&](NodeId, Time) { Note(); };
  H.OnReadDone = [&](NodeId, uint64_t, bool, size_t) { Note(); };
  Bus Net;
  std::vector<std::unique_ptr<RtNode>> Nodes;
  for (NodeId Id = 1; Id <= 3; ++Id)
    Nodes.push_back(
        std::make_unique<RtNode>(Id, *Scheme, Conf, Opts, 50 + Id, Net, H));
  for (auto &N : Nodes)
    N->start();

  std::atomic<bool> Done{false};
  std::vector<std::thread> Clients;
  for (int T = 0; T != 2; ++T)
    Clients.emplace_back([&, T] {
      uint64_t Seq = 0;
      while (!Done.load()) {
        RtNode &N = *Nodes[(Seq + T) % Nodes.size()];
        if (++Seq % 2 == 0)
          N.submit(MethodId(T + 1), (uint64_t(T + 1) << 32) | Seq);
        else
          N.read(Seq);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  for (int Cycle = 0; Cycle != 20; ++Cycle) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Cycle == 0 ? 200 : 10));
    for (auto &N : Nodes)
      N->stop();
    Stopped.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Stopped.store(false);
    for (auto &N : Nodes)
      N->start();
  }
  Done.store(true);
  for (std::thread &T : Clients)
    T.join();
  for (auto &N : Nodes)
    N->stop();
  EXPECT_GT(Hooks.load(), 0u);
  EXPECT_EQ(Late.load(), 0u);
}
