//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Decorator transparency, exact frame counting on a synthetic stream,
// open-loop due-time arithmetic, and the sans-I/O core replay.
//
//===----------------------------------------------------------------------===//

#include "CoreReplay.h"
#include "OpenLoop.h"
#include "Trace.h"
#include "TracingTransport.h"
#include "TracingVfs.h"

#include "read/ReadPath.h"
#include "rt/Bus.h"
#include "rt/RtCluster.h"
#include "rt/Wire.h"
#include "store/NodeStore.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

using namespace adore;
using namespace adore::perfbench;

namespace {

core::Msg msg(core::Msg::Kind K, Time Term) {
  core::Msg M;
  M.K = K;
  M.From = 1;
  M.To = 2;
  M.Term = Term;
  return M;
}

core::LogEntry entry(Time Term, MethodId Method, uint64_t Seq) {
  core::LogEntry E;
  E.Term = Term;
  E.Method = Method;
  E.ClientSeq = Seq;
  return E;
}

/// Client methods in the committed prefix of the most advanced replica,
/// first occurrence only (a re-posted write may commit twice).
std::vector<MethodId> committedMethods(const rt::RtCluster &C) {
  const core::RaftCore *Best = nullptr;
  for (NodeId N : C.universe()) {
    const core::RaftCore &Core = C.coreForInspection(N);
    if (!Best || Core.commitIndex() > Best->commitIndex())
      Best = &Core;
  }
  std::vector<MethodId> Out;
  std::set<MethodId> Seen;
  for (size_t I = 1; I <= Best->commitIndex(); ++I) {
    const core::LogEntry &E = Best->entry(I);
    if (E.Kind == raft::EntryKind::Method && E.ClientSeq != 0 &&
        Seen.insert(E.Method).second)
      Out.push_back(E.Method);
  }
  return Out;
}

/// Runs 30 sequential writes through a 3-replica cluster, optionally
/// wrapping its transport and/or disk in the decorators.
std::vector<MethodId> runLedger(bool DecorateNet, bool DecorateDisk,
                                const std::string &Dir) {
  std::filesystem::remove_all(Dir);
  rt::Bus Bus;
  TracingTransport TNet(Bus, nullptr);
  store::PosixVfs Disk(Dir);
  TracingVfs TDisk(Disk, nullptr);
  rt::RtClusterOptions CO;
  CO.Seed = 7;
  CO.SharedNet = DecorateNet ? static_cast<rt::Transport *>(&TNet) : &Bus;
  CO.DurableStore = true;
  CO.ExternalDisk =
      DecorateDisk ? static_cast<store::Vfs *>(&TDisk) : &Disk;
  std::vector<MethodId> Out;
  {
    rt::RtCluster C(CO);
    C.start();
    EXPECT_NE(C.waitForLeader(5000), InvalidNodeId);
    for (MethodId M = 1; M <= 30; ++M)
      EXPECT_TRUE(C.submitAndWait(M, 5000));
    C.stop();
    EXPECT_TRUE(C.violations().empty());
    EXPECT_TRUE(C.checkFinalAgreement().empty());
    Out = committedMethods(C);
  }
  if (DecorateNet) {
    EXPECT_GT(TNet.counts().Frames, 0u);
  }
  if (DecorateDisk) {
    EXPECT_GT(TDisk.syncs(), 0u);
  }
  std::filesystem::remove_all(Dir);
  return Out;
}

} // namespace

TEST(TracingTransportTest, SyntheticFrameStreamCountsExactly) {
  rt::Bus Bus;
  SpanLog Spans;
  TracingTransport T(Bus, &Spans);
  std::vector<std::string> Got;
  T.attach(2, [&Got](std::string F) { Got.push_back(std::move(F)); });

  std::vector<core::Msg> Stream;
  Stream.push_back(msg(core::Msg::Kind::RequestVote, 5));
  Stream.push_back(msg(core::Msg::Kind::RequestVote, 5));
  Stream.push_back(msg(core::Msg::Kind::RequestVote, 6));
  Stream.push_back(msg(core::Msg::Kind::VoteReply, 6));
  Stream.push_back(msg(core::Msg::Kind::AppendEntries, 6)); // heartbeat
  Stream.push_back(msg(core::Msg::Kind::AppendEntries, 6)); // identical
  core::Msg Ae = msg(core::Msg::Kind::AppendEntries, 6);
  Ae.Entries = {entry(6, 1, 77), entry(6, 2, 78)};
  Stream.push_back(Ae);
  Stream.push_back(msg(core::Msg::Kind::AppendReply, 6));
  core::Msg Probe = msg(core::Msg::Kind::ReadIndexQuery, 6);
  Probe.Done = true;
  Stream.push_back(Probe);
  Stream.push_back(msg(core::Msg::Kind::ReadIndexQuery, 6)); // forwarded
  Stream.push_back(msg(core::Msg::Kind::ReadIndexReply, 6)); // NACK
  core::Msg Ack = msg(core::Msg::Kind::ReadIndexReply, 6);
  Ack.Done = true;
  Ack.Success = true;
  Stream.push_back(Ack);

  std::vector<std::string> Sent;
  uint64_t Bytes = 0;
  for (const core::Msg &M : Stream) {
    Sent.push_back(rt::encodeMsg(M));
    Bytes += Sent.back().size();
  }
  Sent.push_back("not a frame");
  Bytes += Sent.back().size();
  for (const std::string &F : Sent)
    T.post(2, F);
  T.post(9, Sent.front()); // Nobody attached: dropped, never delivered.

  EXPECT_EQ(Got, Sent);
  FrameCounts C = T.counts();
  EXPECT_EQ(C.Frames, Sent.size() + 1);
  EXPECT_EQ(C.Bytes, Bytes + Sent.front().size());
  EXPECT_EQ(C.Undecodable, 1u);
  EXPECT_EQ(C.Heartbeats, 2u);
  EXPECT_EQ(C.ReadProbes, 1u);
  EXPECT_EQ(C.ReadNacks, 1u);
  EXPECT_EQ(C.VoteTerms, (std::set<Time>{5, 6}));
  EXPECT_EQ(C.LeaderTerms, (std::set<Time>{6}));
  EXPECT_EQ(C.splitVoteTerms(), 1u);
  EXPECT_EQ(T.postUs().size(), Sent.size() + 1);
  EXPECT_EQ(T.deliverUs().size(), Sent.size());
  // Every 8th frame is captured for the offline codec timing.
  EXPECT_EQ(T.capturedFrames().size(), (Sent.size() + 1) / 8);
  // One post span per frame, one deliver span per delivered frame; the
  // AppendEntries carrying writes is tagged with its first ClientSeq.
  EXPECT_EQ(Spans.size(), 2 * Sent.size() + 1);

  T.reset();
  EXPECT_EQ(T.counts().Frames, 0u);
  EXPECT_EQ(T.postUs().size(), 0u);
}

TEST(TracingTransportTest, CommittedLedgerIsUnchanged) {
  std::vector<MethodId> Want;
  for (MethodId M = 1; M <= 30; ++M)
    Want.push_back(M);
  EXPECT_EQ(runLedger(false, false, "perfbench_test_ledger"), Want);
  EXPECT_EQ(runLedger(true, false, "perfbench_test_ledger"), Want);
}

TEST(TracingVfsTest, CommittedLedgerIsUnchanged) {
  std::vector<MethodId> Want;
  for (MethodId M = 1; M <= 30; ++M)
    Want.push_back(M);
  EXPECT_EQ(runLedger(false, true, "perfbench_test_ledger"), Want);
  EXPECT_EQ(runLedger(true, true, "perfbench_test_ledger"), Want);
}

TEST(TracingVfsTest, FilesAreByteIdentical) {
  const std::string A = "perfbench_test_vfs_a", B = "perfbench_test_vfs_b";
  std::filesystem::remove_all(A);
  std::filesystem::remove_all(B);
  store::PosixVfs PA(A), PB(B);
  TracingVfs Traced(PA, nullptr);
  store::StoreOptions Small;
  Small.SegmentBytes = 512; // Force rotation and snapshots.
  Small.SnapshotEveryBytes = 2048;
  store::NodeStore SA(Traced, "n1", Small), SB(PB, "n1", Small);
  SA.open();
  SB.open();
  std::vector<core::LogEntry> Log;
  for (uint64_t I = 1; I <= 200; ++I) {
    Log.push_back(entry(1 + I / 50, I, I));
    ASSERT_TRUE(SA.persistState(1 + I / 50, 1, Log));
    ASSERT_TRUE(SB.persistState(1 + I / 50, 1, Log));
    SA.noteCommit(I);
    SB.noteCommit(I);
    ASSERT_TRUE(SA.sync());
    ASSERT_TRUE(SB.sync());
  }
  std::vector<std::string> FilesA = PA.list("n1/"), FilesB = PB.list("n1/");
  EXPECT_FALSE(FilesA.empty());
  EXPECT_EQ(FilesA, FilesB);
  for (const std::string &F : FilesA) {
    std::string DA, DB;
    ASSERT_TRUE(PA.readFile(F, DA));
    ASSERT_TRUE(PB.readFile(F, DB));
    EXPECT_EQ(DA, DB) << F;
  }
  EXPECT_GE(Traced.syncs(), 200u);
  EXPECT_EQ(Traced.syncUs().size(), Traced.syncs());
  EXPECT_EQ(Traced.appendUs().size(), Traced.appends());
  EXPECT_GT(Traced.appendedBytes(), 0u);
  Traced.reset();
  EXPECT_EQ(Traced.syncs(), 0u);
  std::filesystem::remove_all(A);
  std::filesystem::remove_all(B);
}

TEST(OpenLoopTest, DueTimesComeFromTheIndex) {
  Pacer P(1000, 200);
  EXPECT_EQ(P.dueNs(0), 1000u);
  EXPECT_EQ(P.dueNs(1), 1000u + 5000000u);
  EXPECT_EQ(P.dueNs(200), 1000u + 1000000000u);
  // A rate that does not divide a second: no rounding error builds up.
  Pacer Q(0, 3);
  EXPECT_EQ(Q.dueNs(1), 333333333u);
  EXPECT_EQ(Q.dueNs(2), 666666666u);
  EXPECT_EQ(Q.dueNs(3), 1000000000u);
  EXPECT_EQ(Q.dueNs(3000000), 1000000000000000u);
}

TEST(OpenLoopTest, OpsBeforeMatchesTheDueTimes) {
  for (uint64_t Rate : {1u, 3u, 7u, 200u, 1000u}) {
    Pacer P(500, Rate);
    EXPECT_EQ(P.opsBefore(0), 0u);
    EXPECT_EQ(P.opsBefore(500), 0u);
    EXPECT_EQ(P.opsBefore(501), 1u);
    for (uint64_t End : {501ull, 1000500ull, 333333834ull, 1000000500ull,
                         1000000501ull, 2500000000ull}) {
      uint64_t Count = 0;
      while (P.dueNs(Count) < End)
        ++Count;
      EXPECT_EQ(P.opsBefore(End), Count) << "rate " << Rate << " end " << End;
    }
  }
}

TEST(OpenLoopTest, LatenessIsClampedAtZero) {
  EXPECT_EQ(Pacer::lateNs(100, 250), 150u);
  EXPECT_EQ(Pacer::lateNs(250, 100), 0u);
  EXPECT_EQ(Pacer::lateNs(100, 100), 0u);
}

TEST(OpenLoopTest, TrackerKeepsTheFirstCommitOnly) {
  CompletionTracker T(4);
  const uint64_t Base = CompletionTracker::SeqBase;
  T.onApply(entry(1, 1, Base + 2), 50);
  T.onApply(entry(1, 1, Base + 2), 90); // Another replica's apply.
  T.onApply(entry(1, 1, Base + 9), 60); // Out of range: ignored.
  T.onApply(entry(1, 1, 5), 70);        // Not a paced write.
  EXPECT_EQ(T.commitNs(2), 50u);
  EXPECT_EQ(T.commitNs(0), 0u);
  EXPECT_EQ(T.commitNs(9), 0u);

  T.watchTermAbove(3);
  T.onApply(entry(3, 1, Base + 0), 100); // Old leader's term: no hit.
  EXPECT_EQ(T.watchHitNs(), 0u);
  T.onApply(entry(4, 1, Base + 1), 120);
  T.onApply(entry(4, 1, Base + 3), 130);
  EXPECT_EQ(T.watchHitNs(), 120u);
}

TEST(CoreReplayTest, WritesCommitAndReadsAreServed) {
  ReplayMix Mix;
  Mix.Ops = 600;
  ReplayResult W = replayCore(Mix);
  ASSERT_TRUE(W.Ok) << W.Error;
  EXPECT_EQ(W.Writes, 600u);
  EXPECT_EQ(W.WritesCommitted, 600u);
  EXPECT_EQ(W.ClientRequestNs.size(), 600u);
  // Each write is one AppendEntries to each of two followers, at least.
  EXPECT_GE(W.AppendEntriesNs.size(), 1200u);
  EXPECT_GT(W.Effects, 0u);

  rt::RtClusterOptions CO;
  read::ReadOptions RO;
  RO.Tier = read::ReadTier::FollowerLease;
  RO.LeaseDurationUs = 30000;
  RO.MaxDriftPpm = 100000;
  read::applyTier(RO, CO.Node);
  Mix.Opts = CO.Node;
  Mix.ReadPermille = 900;
  Mix.GapUs = 100;
  ReplayResult R = replayCore(Mix);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Reads, 400u);
  EXPECT_EQ(R.ReadsServed, R.Reads);
  EXPECT_EQ(R.WritesCommitted, R.Writes);
  EXPECT_EQ(R.ReadQueryNs.size(), R.Reads);
}
