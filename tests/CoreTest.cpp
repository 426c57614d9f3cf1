//===- tests/CoreTest.cpp - Sans-I/O Raft core tests -------------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for core::RaftCore driven entirely by hand-built inputs —
/// no event queue, no threads, no model checker. Also pins the shared
/// raft/Message.h log-comparison helpers (deduplicated from the sim and
/// raft layers) and the Raft §4.2.3 vote-stickiness guard, both at the
/// single-core level and as a full-cluster disruptive-server regression
/// test in the simulator.
///
//===----------------------------------------------------------------------===//

#include "core/Codec.h"
#include "core/RaftCore.h"
#include "sim/Cluster.h"

#include <gtest/gtest.h>

using namespace adore;
using namespace adore::core;

//===----------------------------------------------------------------------===//
// Shared log-comparison helpers (satellite: deduplicated into
// raft/Message.h; these pin the edge cases both callers rely on).
//===----------------------------------------------------------------------===//

TEST(LogHelpersTest, AtLeastAsUpToDateEmptyLogs) {
  // Two empty logs tie, and a tie counts as "at least as up to date".
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(0, 0, 0, 0));
}

TEST(LogHelpersTest, AtLeastAsUpToDateTermDominatesLength) {
  // A shorter log with a higher last term wins.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(3, 1, 2, 100));
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(2, 100, 3, 1));
}

TEST(LogHelpersTest, AtLeastAsUpToDateLengthBreaksTermTies) {
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(2, 5, 2, 5));  // Exact tie.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(2, 6, 2, 5));  // Longer wins.
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(2, 4, 2, 5)); // Shorter loses.
}

TEST(LogHelpersTest, AtLeastAsUpToDateAgainstEmpty) {
  // Anything is at least as up to date as an empty log; the empty log is
  // only as up to date as another empty log.
  EXPECT_TRUE(raft::logAtLeastAsUpToDate(1, 1, 0, 0));
  EXPECT_FALSE(raft::logAtLeastAsUpToDate(0, 0, 1, 1));
}

TEST(LogHelpersTest, LastLogTermEmptyIsZero) {
  std::vector<LogEntry> Empty;
  EXPECT_EQ(raft::lastLogTerm(Empty), 0u);
  LogEntry E;
  E.Term = 7;
  std::vector<LogEntry> One{E};
  EXPECT_EQ(raft::lastLogTerm(One), 7u);
}

TEST(LogHelpersTest, LogUpToDateAcrossEntryTypes) {
  // The template helpers compare a core::LogEntry log against a
  // raft::Entry log through their ADL entryTerm hooks — exactly how the
  // refinement layer matches the executable node against the spec.
  LogEntry C1;
  C1.Term = 2;
  std::vector<LogEntry> CoreLog{C1};

  raft::Entry R1;
  R1.T = 1;
  std::vector<raft::Entry> SpecLog{R1, R1};

  // Core log: last term 2, length 1. Spec log: last term 1, length 2.
  EXPECT_TRUE(raft::logUpToDate(CoreLog, SpecLog));
  EXPECT_FALSE(raft::logUpToDate(SpecLog, CoreLog));
}

TEST(LogHelpersTest, ConfigOfPrefixPicksNewestReconfigInPrefix) {
  Config Initial(NodeSet{1, 2, 3});
  Config Grown(NodeSet{1, 2, 3, 4});
  Config Shrunk(NodeSet{1, 2});

  std::vector<LogEntry> Log(4);
  Log[1].Kind = raft::EntryKind::Reconfig;
  Log[1].Conf = Grown;
  Log[3].Kind = raft::EntryKind::Reconfig;
  Log[3].Conf = Shrunk;

  EXPECT_EQ(raft::configOfPrefix(Log, 0, Initial), Initial);
  EXPECT_EQ(raft::configOfPrefix(Log, 1, Initial), Initial);
  EXPECT_EQ(raft::configOfPrefix(Log, 2, Initial), Grown);
  EXPECT_EQ(raft::configOfPrefix(Log, 3, Initial), Grown);
  EXPECT_EQ(raft::configOfPrefix(Log, 4, Initial), Shrunk);
}

//===----------------------------------------------------------------------===//
// RaftCore fixture: a 3-node configuration, cores driven by hand
//===----------------------------------------------------------------------===//

namespace {

struct CoreHarness {
  std::unique_ptr<ReconfigScheme> Scheme;
  Config Conf;
  CoreOptions Opts;

  CoreHarness() : Conf(NodeSet{1, 2, 3}) {
    Scheme = makeScheme(SchemeKind::RaftSingleNode);
  }

  RaftCore make(NodeId Id, uint64_t Seed = 1) const {
    return RaftCore(Id, *Scheme, Conf, Opts, Seed);
  }
};

/// Counts effects of one kind.
size_t count(const Effects &Effs, Effect::Kind K) {
  size_t N = 0;
  for (const Effect &E : Effs)
    N += E.K == K;
  return N;
}

/// First effect of one kind, or nullptr.
const Effect *find(const Effects &Effs, Effect::Kind K) {
  for (const Effect &E : Effs)
    if (E.K == K)
      return &E;
  return nullptr;
}

/// Drives \p C through a full election: fire its election timer, then
/// feed it a granted vote from node 2. Returns the election's effects.
Effects electLeader(RaftCore &C) {
  Effects Out = C.onTimer(TimerId::Election, C.electionGen(), /*Now=*/0);
  EXPECT_EQ(C.role(), Role::Candidate);
  Msg Grant;
  Grant.K = Msg::Kind::VoteReply;
  Grant.From = 2;
  Grant.To = C.id();
  Grant.Term = C.term();
  Grant.Granted = true;
  Effects Win = C.onMessage(Grant, /*Now=*/0);
  Out.insert(Out.end(), Win.begin(), Win.end());
  EXPECT_TRUE(C.isLeader());
  return Out;
}

} // namespace

TEST(RaftCoreTest, StartArmsElectionTimerWithinBounds) {
  CoreHarness H;
  RaftCore C = H.make(1);
  Effects Effs = C.start();
  ASSERT_EQ(Effs.size(), 1u);
  EXPECT_EQ(Effs[0].K, Effect::Kind::SetTimer);
  EXPECT_EQ(Effs[0].Timer, TimerId::Election);
  EXPECT_EQ(Effs[0].TimerGen, 1u);
  EXPECT_EQ(Effs[0].TimerGen, C.electionGen());
  EXPECT_GE(Effs[0].DelayUs, H.Opts.ElectionTimeoutMinUs);
  EXPECT_LE(Effs[0].DelayUs, H.Opts.ElectionTimeoutMaxUs);
}

TEST(RaftCoreTest, ElectionTimeoutStartsCampaign) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Effs = C.onTimer(TimerId::Election, C.electionGen(), 0);
  EXPECT_EQ(C.role(), Role::Candidate);
  EXPECT_EQ(C.term(), 1u);
  // A fresh retry timer, RequestVotes to both peers, and a Persist for
  // the term/vote change.
  EXPECT_EQ(count(Effs, Effect::Kind::SetTimer), 1u);
  EXPECT_EQ(count(Effs, Effect::Kind::Send), 2u);
  EXPECT_EQ(count(Effs, Effect::Kind::Persist), 1u);
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send) {
      EXPECT_EQ(E.M.K, Msg::Kind::RequestVote);
      EXPECT_EQ(E.M.Term, 1u);
      EXPECT_FALSE(E.M.TransferElection);
    }
}

TEST(RaftCoreTest, StaleTimerGenerationIsIgnored) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  uint64_t Stale = C.electionGen();
  // Granting a vote re-arms the election timer, invalidating Stale.
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 2;
  RV.To = 1;
  RV.Term = 1;
  C.onMessage(RV, 0);
  ASSERT_NE(C.electionGen(), Stale);
  Effects Effs = C.onTimer(TimerId::Election, Stale, 0);
  EXPECT_TRUE(Effs.empty());
  EXPECT_EQ(C.role(), Role::Follower);
}

TEST(RaftCoreTest, QuorumOfVotesElectsAndEmitsLeaderEffects) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Effs = electLeader(C);
  const Effect *Led = find(Effs, Effect::Kind::LeaderElected);
  ASSERT_NE(Led, nullptr);
  EXPECT_EQ(Led->Term, 1u);
  // The term-start no-op barrier is appended and replicated.
  ASSERT_EQ(C.logSize(), 1u);
  EXPECT_EQ(C.entry(1).Term, 1u);
  EXPECT_EQ(C.entry(1).Kind, raft::EntryKind::Method);
  EXPECT_EQ(C.entry(1).Method, 0u);
  // A heartbeat timer is armed; AppendEntries go to both peers.
  bool SawHeartbeat = false;
  size_t Appends = 0;
  for (const Effect &E : Effs) {
    if (E.K == Effect::Kind::SetTimer && E.Timer == TimerId::Heartbeat)
      SawHeartbeat = true;
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::AppendEntries)
      ++Appends;
  }
  EXPECT_TRUE(SawHeartbeat);
  EXPECT_EQ(Appends, 2u);
}

TEST(RaftCoreTest, DuplicateVoteFromSameNodeDoesNotElect) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  C.onTimer(TimerId::Election, C.electionGen(), 0);
  Msg Grant;
  Grant.K = Msg::Kind::VoteReply;
  Grant.From = 1; // Own vote echoed back: no new information.
  Grant.To = 1;
  Grant.Term = C.term();
  Grant.Granted = true;
  C.onMessage(Grant, 0);
  EXPECT_EQ(C.role(), Role::Candidate);
}

TEST(RaftCoreTest, SubmitRejectedUnlessLeader) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  Effects Out;
  EXPECT_FALSE(C.submit(42, 1, Out));
  EXPECT_TRUE(Out.empty());
  electLeader(C);
  EXPECT_TRUE(C.submit(42, 1, Out));
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.entry(2).Method, 42u);
  EXPECT_EQ(C.entry(2).ClientSeq, 1u);
  // The append replicates to both peers and persists.
  EXPECT_EQ(count(Out, Effect::Kind::Send), 2u);
  EXPECT_EQ(count(Out, Effect::Kind::Persist), 1u);
}

TEST(RaftCoreTest, CommitRequiresQuorumThenAppliesInOrder) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  EXPECT_EQ(C.commitIndex(), 0u);
  // Node 2 acknowledges the no-op: {1, 2} is a quorum of three.
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  Effects Effs = C.onMessage(Ack, 0);
  EXPECT_EQ(C.commitIndex(), 1u);
  const Effect *Commit = find(Effs, Effect::Kind::CommitAdvanced);
  ASSERT_NE(Commit, nullptr);
  EXPECT_EQ(Commit->Index, 1u);
  const Effect *Apply = find(Effs, Effect::Kind::Apply);
  ASSERT_NE(Apply, nullptr);
  EXPECT_EQ(Apply->Index, 1u);
  EXPECT_EQ(Apply->Entry, C.entry(1));
}

TEST(RaftCoreTest, FollowerAppendsTruncatesConflictsAndApplies) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  // A leader in term 1 sends two entries.
  LogEntry E1, E2;
  E1.Term = 1;
  E2.Term = 1;
  E2.Method = 5;
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = 1;
  App.To = 2;
  App.Term = 1;
  App.PrevIndex = 0;
  App.Entries = {E1, E2};
  App.LeaderCommit = 1;
  Effects Effs = C.onMessage(App, 1000);
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.commitIndex(), 1u);
  EXPECT_EQ(C.term(), 1u);
  EXPECT_EQ(C.leaderHint(), std::optional<NodeId>(1));
  const Effect *Reply = find(Effs, Effect::Kind::Send);
  ASSERT_NE(Reply, nullptr);
  EXPECT_EQ(Reply->M.K, Msg::Kind::AppendReply);
  EXPECT_TRUE(Reply->M.Success);
  EXPECT_EQ(Reply->M.MatchIndex, 2u);

  // A newer leader (term 2) overwrites the uncommitted slot 2.
  LogEntry N2;
  N2.Term = 2;
  N2.Method = 9;
  Msg App2;
  App2.K = Msg::Kind::AppendEntries;
  App2.From = 3;
  App2.To = 2;
  App2.Term = 2;
  App2.PrevIndex = 1;
  App2.PrevTerm = 1;
  App2.Entries = {N2};
  App2.LeaderCommit = 2;
  C.onMessage(App2, 2000);
  EXPECT_EQ(C.logSize(), 2u);
  EXPECT_EQ(C.entry(2).Term, 2u);
  EXPECT_EQ(C.entry(2).Method, 9u);
  EXPECT_EQ(C.commitIndex(), 2u);
}

TEST(RaftCoreTest, MismatchedPrevSlotIsRejectedWithHint) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = 1;
  App.To = 2;
  App.Term = 1;
  App.PrevIndex = 5; // We have nothing at slot 5.
  App.PrevTerm = 1;
  Effects Effs = C.onMessage(App, 0);
  const Effect *Reply = find(Effs, Effect::Kind::Send);
  ASSERT_NE(Reply, nullptr);
  EXPECT_FALSE(Reply->M.Success);
  EXPECT_EQ(Reply->M.MatchIndex, 0u); // Longest possibly matching prefix.
}

TEST(RaftCoreTest, CrashDropsVolatileStateRestartKeepsDurable) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Out;
  C.submit(7, 1, Out);
  Time TermBefore = C.term();
  size_t LogBefore = C.logSize();

  Effects CrashEffs = C.crash();
  EXPECT_TRUE(C.isCrashed());
  EXPECT_FALSE(C.isLeader());
  EXPECT_EQ(count(CrashEffs, Effect::Kind::CancelTimer), 2u);
  // Crashed cores ignore everything.
  EXPECT_TRUE(C.onTimer(TimerId::Election, C.electionGen(), 0).empty());
  EXPECT_FALSE(C.submit(8, 2, Out));

  Effects RestartEffs = C.restart();
  EXPECT_FALSE(C.isCrashed());
  EXPECT_EQ(C.role(), Role::Follower);
  EXPECT_EQ(C.term(), TermBefore);   // Durable state survives...
  EXPECT_EQ(C.logSize(), LogBefore); // ...including the log.
  EXPECT_FALSE(C.leaderHint().has_value()); // Volatile state does not.
  EXPECT_EQ(count(RestartEffs, Effect::Kind::SetTimer), 1u);
}

TEST(RaftCoreTest, CoresAreCopyableValues) {
  // Copy a core mid-protocol; both copies must evolve identically under
  // identical inputs (the Rng is owned by value).
  CoreHarness H;
  RaftCore A = H.make(1);
  A.start();
  RaftCore B = A;
  Effects EA = A.onTimer(TimerId::Election, A.electionGen(), 0);
  Effects EB = B.onTimer(TimerId::Election, B.electionGen(), 0);
  ASSERT_EQ(EA.size(), EB.size());
  for (size_t I = 0; I != EA.size(); ++I)
    EXPECT_EQ(EA[I].str(), EB[I].str());
  EXPECT_EQ(A.describe(), B.describe());
}

TEST(RaftCoreTest, StepVariantRoutesLikeDirectCalls) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects ViaStep = C.step(ClientRequest{11, 3}, 0);
  EXPECT_EQ(C.entry(C.logSize()).Method, 11u);
  EXPECT_FALSE(ViaStep.empty());
  EXPECT_TRUE(C.step(Tick{}, 0).empty());
}

//===----------------------------------------------------------------------===//
// Reconfiguration guards
//===----------------------------------------------------------------------===//

TEST(RaftCoreTest, ReconfigGuardsRejectBeforeR3Holds) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  // R3 fails until an own-term entry commits.
  EXPECT_FALSE(C.logSatisfiesR3());
  Effects Out;
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{1, 2}), Out));

  // Commit the no-op barrier; now R2 and R3 hold and the request lands.
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  C.onMessage(Ack, 0);
  EXPECT_TRUE(C.logSatisfiesR2());
  EXPECT_TRUE(C.logSatisfiesR3());
  EXPECT_TRUE(C.requestReconfig(Config(NodeSet{1, 2}), Out));
  EXPECT_EQ(C.entry(C.logSize()).Kind, raft::EntryKind::Reconfig);
  // R2 now blocks a second reconfig until the first commits.
  EXPECT_FALSE(C.logSatisfiesR2());
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{1, 2, 3}), Out));
}

TEST(RaftCoreTest, LeaderNeverRemovesItself) {
  CoreHarness H;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = 2;
  Ack.To = 1;
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = 1;
  C.onMessage(Ack, 0);
  Effects Out;
  EXPECT_FALSE(C.requestReconfig(Config(NodeSet{2, 3}), Out));
}

//===----------------------------------------------------------------------===//
// Vote stickiness (Raft §4.2.3) — core level
//===----------------------------------------------------------------------===//

namespace {

/// Feeds \p C a heartbeat from node 1 at \p Now, then a RequestVote from
/// node 3 at \p VoteNow, and reports whether the vote was processed (any
/// effects emitted / term adopted).
Effects contactThenVote(RaftCore &C, uint64_t Now, uint64_t VoteNow) {
  Msg Beat;
  Beat.K = Msg::Kind::AppendEntries;
  Beat.From = 1;
  Beat.To = C.id();
  Beat.Term = 1;
  C.onMessage(Beat, Now);
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 3;
  RV.To = C.id();
  RV.Term = 99;
  return C.onMessage(RV, VoteNow);
}

} // namespace

TEST(VoteStickinessTest, RecentLeaderContactSuppressesVote) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  // The vote arrives well inside the minimum election timeout: ignored
  // entirely, without even adopting the higher term.
  Effects Effs = contactThenVote(C, 1000, 2000);
  EXPECT_TRUE(Effs.empty());
  EXPECT_EQ(C.term(), 1u);
}

TEST(VoteStickinessTest, ExpiredContactWindowAllowsVote) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  uint64_t Late = 1000 + H.Opts.ElectionTimeoutMinUs;
  Effects Effs = contactThenVote(C, 1000, Late);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 99u);
}

TEST(VoteStickinessTest, TransferElectionsAreExempt) {
  CoreHarness H;
  RaftCore C = H.make(2);
  C.start();
  Msg Beat;
  Beat.K = Msg::Kind::AppendEntries;
  Beat.From = 1;
  Beat.To = 2;
  Beat.Term = 1;
  C.onMessage(Beat, 1000);
  Msg RV;
  RV.K = Msg::Kind::RequestVote;
  RV.From = 3;
  RV.To = 2;
  RV.Term = 2;
  RV.TransferElection = true;
  Effects Effs = C.onMessage(RV, 2000);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 2u);
}

TEST(VoteStickinessTest, InjectedMisbehaviorDropsTheGuard) {
  CoreHarness H;
  H.Opts.DisableVoteStickiness = true;
  RaftCore C = H.make(2);
  C.start();
  // Same stimulus as RecentLeaderContactSuppressesVote, but with the
  // injectable misbehavior the disruptive vote is processed.
  Effects Effs = contactThenVote(C, 1000, 2000);
  EXPECT_FALSE(Effs.empty());
  EXPECT_EQ(C.term(), 99u);
}

//===----------------------------------------------------------------------===//
// Vote stickiness — cluster-level disruptive-server regression (§4.2.3)
//===----------------------------------------------------------------------===//

namespace {

/// Runs the §4.2.3 disruptive-server scenario: partition a follower
/// away, remove it from the configuration while it cannot hear about
/// it, let its term climb, then heal. Returns how far the *members'*
/// term rose after the heal (0 = the stale server never disrupted them).
Time disruptionAfterHeal(bool DisableStickiness) {
  auto Scheme = makeScheme(SchemeKind::RaftSingleNode);
  sim::ClusterOptions Opts;
  Opts.Node.DisableVoteStickiness = DisableStickiness;
  Config Initial(NodeSet::range(1, 3));
  sim::Cluster C(*Scheme, Initial, NodeSet::range(1, 3), Opts, /*Seed=*/11);
  C.start();
  auto Leader = C.runUntilLeader(5000000);
  EXPECT_TRUE(Leader.has_value());
  if (!Leader)
    return 0;

  // Partition a non-leader away; its election attempts inflate its term.
  NodeId Victim = *Leader == 3 ? 2 : 3;
  NodeSet Others;
  for (NodeId Id : NodeSet::range(1, 3))
    if (Id != Victim)
      Others.insert(Id);
  C.partition(Others);

  // Remove the victim while it is partitioned: it can never learn of
  // its own removal — exactly the disruptive-server setup.
  bool Removed = false;
  C.requestReconfig(Config(Others), [&](bool Ok, sim::SimTime) {
    Removed = Ok;
  });
  sim::SimTime Deadline = C.queue().now() + 20000000;
  while (!Removed && C.queue().now() < Deadline && C.queue().runNext())
    ;
  EXPECT_TRUE(Removed);

  // Let the victim's term climb well past the members'.
  C.queue().runUntil(C.queue().now() + 3000000);
  EXPECT_GT(C.node(Victim).term(), C.node(*Leader).term());

  // Heal and give the stale server a fixed window to cause trouble.
  Time MemberTermAtHeal = C.node(*Leader).term();
  C.heal();
  C.queue().runUntil(C.queue().now() + 3000000);

  Time MaxMemberTerm = 0;
  for (NodeId Id : Others)
    MaxMemberTerm = std::max(MaxMemberTerm, C.node(Id).term());
  EXPECT_FALSE(C.checkLeaderUniqueness().has_value());
  return MaxMemberTerm - MemberTermAtHeal;
}

} // namespace

TEST(VoteStickinessTest, GuardKeepsRemovedServerFromDisruptingMembers) {
  // With the guard, members refuse the removed server's votes (recent
  // leader contact) and their term stays flat after the heal.
  EXPECT_EQ(disruptionAfterHeal(/*DisableStickiness=*/false), 0u);
}

TEST(VoteStickinessTest, WithoutGuardRemovedServerDeposesLeaders) {
  // Reintroduce the bug: the removed server's inflated-term RequestVotes
  // are processed, dragging the members' terms up and deposing leaders.
  EXPECT_GT(disruptionAfterHeal(/*DisableStickiness=*/true), 0u);
}

//===----------------------------------------------------------------------===//
// EventQueue past-schedule clamp (satellite: assert -> counted clamp)
//===----------------------------------------------------------------------===//

TEST(EventQueueClampTest, SchedulingIntoThePastClampsAndCounts) {
  sim::EventQueue Q;
  Q.scheduleAt(100, [] {});
  Q.runUntil(100);
  ASSERT_EQ(Q.now(), 100u);
  std::vector<int> Order;
  Q.scheduleAt(50, [&] { Order.push_back(1); });  // In the past: clamped.
  Q.scheduleAt(100, [&] { Order.push_back(2); }); // "Now": fine.
  EXPECT_EQ(Q.stats().ClampedPastSchedules, 1u);
  while (Q.runNext())
    ;
  // The clamped event runs at now, keeping FIFO order among same-time
  // events, and the clock never moves backwards.
  EXPECT_EQ(Order, (std::vector<int>{1, 2}));
  EXPECT_EQ(Q.now(), 100u);
}

//===----------------------------------------------------------------------===//
// Failure detection (leader-observed suspicion with hysteresis)
//===----------------------------------------------------------------------===//

namespace {

/// Grants node \p From's latest append round back to leader \p C.
void ackFrom(RaftCore &C, NodeId From, size_t MatchIndex) {
  Msg Ack;
  Ack.K = Msg::Kind::AppendReply;
  Ack.From = From;
  Ack.To = C.id();
  Ack.Term = C.term();
  Ack.Success = true;
  Ack.MatchIndex = MatchIndex;
  C.onMessage(Ack, /*Now=*/0);
}

/// Fires the leader's heartbeat timer (one suspicion round).
Effects beat(RaftCore &C) {
  return C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
}

} // namespace

TEST(SuspicionTest, MissedRoundsSuspectOnceAndAckRecovers) {
  CoreHarness H;
  H.Opts.EnableSuspicion = true;
  H.Opts.SuspicionSuspectScore = 3;
  H.Opts.SuspicionRecoverScore = 1;
  RaftCore C = H.make(1);
  electLeader(C);

  // Node 2 acks every round; node 3 goes dark. The suspect fires on the
  // third consecutive miss and exactly once (the score saturates).
  size_t SuspectEffects = 0;
  for (int Round = 0; Round != 5; ++Round) {
    ackFrom(C, 2, C.commitIndex());
    Effects Effs = beat(C);
    for (const Effect &E : Effs) {
      if (E.K == Effect::Kind::ReplicaSuspected) {
        ++SuspectEffects;
        EXPECT_EQ(E.Peer, 3u);
      }
      EXPECT_NE(E.K, Effect::Kind::ReplicaRecovered);
    }
    if (Round < 2)
      EXPECT_TRUE(C.suspected().empty()) << "round " << Round;
    else
      EXPECT_TRUE(C.suspected().contains(3)) << "round " << Round;
  }
  EXPECT_EQ(SuspectEffects, 1u);
  EXPECT_FALSE(C.suspected().contains(2));

  // One ack halves the saturated score (3 -> 1 <= RecoverScore): the
  // hysteresis band closes and the peer is publicly recovered.
  ackFrom(C, 2, C.commitIndex());
  ackFrom(C, 3, C.commitIndex());
  Effects Effs = beat(C);
  const Effect *Rec = find(Effs, Effect::Kind::ReplicaRecovered);
  ASSERT_NE(Rec, nullptr);
  EXPECT_EQ(Rec->Peer, 3u);
  EXPECT_TRUE(C.suspected().empty());
}

TEST(SuspicionTest, NakStillProvesLiveness) {
  CoreHarness H;
  H.Opts.EnableSuspicion = true;
  H.Opts.SuspicionSuspectScore = 2;
  RaftCore C = H.make(1);
  electLeader(C);

  // A consistency NAK is still an ack for liveness purposes: the
  // replica answered, it is merely behind.
  for (int Round = 0; Round != 4; ++Round) {
    ackFrom(C, 2, C.commitIndex());
    Msg Nak;
    Nak.K = Msg::Kind::AppendReply;
    Nak.From = 3;
    Nak.To = 1;
    Nak.Term = C.term();
    Nak.Success = false;
    Nak.MatchIndex = 0;
    C.onMessage(Nak, 0);
    beat(C);
  }
  EXPECT_TRUE(C.suspected().empty());
}

TEST(SuspicionTest, StateClearsOnLeadershipExit) {
  CoreHarness H;
  H.Opts.EnableSuspicion = true;
  H.Opts.SuspicionSuspectScore = 1;
  RaftCore C = H.make(1);
  electLeader(C);
  beat(C); // Nobody acked: both followers suspected immediately.
  EXPECT_EQ(C.suspected().size(), 2u);

  // A higher-term append deposes this leader; suspicion is
  // per-leadership soft state and must vanish with the role.
  Msg M;
  M.K = Msg::Kind::AppendEntries;
  M.From = 2;
  M.To = 1;
  M.Term = C.term() + 1;
  C.onMessage(M, 0);
  EXPECT_FALSE(C.isLeader());
  EXPECT_TRUE(C.suspected().empty());
}

TEST(SuspicionTest, DisabledByDefaultEmitsNothing) {
  CoreHarness H;
  RaftCore C = H.make(1);
  electLeader(C);
  for (int Round = 0; Round != 20; ++Round) {
    Effects Effs = beat(C);
    EXPECT_EQ(count(Effs, Effect::Kind::ReplicaSuspected), 0u);
  }
  EXPECT_TRUE(C.suspected().empty());
}

//===----------------------------------------------------------------------===//
// Snapshot catch-up (InstallSnapshot streaming)
//===----------------------------------------------------------------------===//

namespace {

/// Leader with \p Entries committed methods (plus its no-op barrier)
/// acked by node 2 only, so node 3 is far behind.
RaftCore makeLaggingLeader(const CoreHarness &H, size_t Entries) {
  RaftCore C = H.make(1);
  electLeader(C);
  for (size_t I = 0; I != Entries; ++I) {
    Effects Out;
    C.submit(/*Method=*/100 + I, /*ClientSeq=*/I + 1, Out);
  }
  ackFrom(C, 2, C.logSize());
  EXPECT_EQ(C.commitIndex(), C.logSize());
  return C;
}

/// First InstallSnapshot chunk addressed to \p To, or nullptr.
const Msg *findSnapshotChunk(const Effects &Effs, NodeId To) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::InstallSnapshot &&
        E.M.To == To)
      return &E.M;
  return nullptr;
}

/// First reply addressed to \p To, or nullptr.
const Msg *findSnapshotReply(const Effects &Effs, NodeId To) {
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send &&
        E.M.K == Msg::Kind::InstallSnapshotReply && E.M.To == To)
      return &E.M;
  return nullptr;
}

} // namespace

TEST(SnapshotTest, LaggingFollowerCatchesUpInChunks) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 16; // Force a multi-chunk transfer.
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  // CommitIndex (5) >= NextIndex[3] (1) + lag (2): the next replication
  // round opens a transfer instead of an incremental append.
  Effects LE = beat(L);
  ASSERT_TRUE(L.snapshotInFlightTo(3));
  size_t Chunks = 0;
  Msg FirstChunk;
  for (int Guard = 0; Guard != 100; ++Guard) {
    const Msg *C = findSnapshotChunk(LE, 3);
    if (!C)
      break;
    if (++Chunks == 1)
      FirstChunk = *C;
    Effects FE = F.onMessage(*C, 0);
    const Msg *R = findSnapshotReply(FE, 1);
    ASSERT_NE(R, nullptr);
    LE = L.onMessage(*R, 0);
  }
  EXPECT_GT(Chunks, 1u) << "chunking never engaged";
  EXPECT_FALSE(L.snapshotInFlightTo(3));

  // Strict recovered==idealized cross-check: the follower's log *is*
  // the leader's committed prefix, applied and committed.
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I)) << "index " << I;
  EXPECT_EQ(F.commitIndex(), L.commitIndex());
  EXPECT_EQ(F.snapshotsInstalled(), 1u);
  // The commit advance inside the harness already opened the transfer
  // and emitted (dropped) a chunk before the pump began, so sent may
  // exceed received — but the follower staged the payload exactly once.
  EXPECT_EQ(F.snapshotBytesReceived(),
            codec::encodeSnapshotPayload(L.log(), L.commitIndex()).size());
  EXPECT_GE(L.snapshotBytesSent(), F.snapshotBytesReceived());

  // Idempotent re-delivery of a stale chunk: the follower is already
  // covered, so it short-circuits to Done without reopening staging.
  Effects FE = F.onMessage(FirstChunk, 0);
  const Msg *R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Success);
  EXPECT_TRUE(R->Done);
  EXPECT_EQ(F.snapshotsInstalled(), 1u);
}

TEST(SnapshotTest, TransferResumesAfterDroppedAck) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 16;
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  Effects LE = beat(L);
  const Msg *C0 = findSnapshotChunk(LE, 3);
  ASSERT_NE(C0, nullptr);
  Msg Chunk0 = *C0;

  // Deliver chunk 0 but LOSE the follower's ack.
  F.onMessage(Chunk0, 0);

  // The next heartbeat re-sends the un-acked chunk verbatim; the
  // follower's offset check turns the duplicate into a resume hint.
  LE = beat(L);
  const Msg *Re = findSnapshotChunk(LE, 3);
  ASSERT_NE(Re, nullptr);
  EXPECT_EQ(Re->Offset, Chunk0.Offset);
  Effects FE = F.onMessage(*Re, 0);
  const Msg *Hint = findSnapshotReply(FE, 1);
  ASSERT_NE(Hint, nullptr);
  EXPECT_TRUE(Hint->Success);
  EXPECT_EQ(Hint->Offset, Chunk0.Chunk.size());

  // The leader fast-forwards to the hint and streams to completion.
  LE = L.onMessage(*Hint, 0);
  for (int Guard = 0; Guard != 100; ++Guard) {
    const Msg *C = findSnapshotChunk(LE, 3);
    if (!C)
      break;
    FE = F.onMessage(*C, 0);
    const Msg *R = findSnapshotReply(FE, 1);
    ASSERT_NE(R, nullptr);
    LE = L.onMessage(*R, 0);
  }
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I));
  // Every payload byte was staged exactly once despite the duplicate.
  EXPECT_EQ(F.snapshotBytesReceived(),
            codec::encodeSnapshotPayload(L.log(), L.commitIndex()).size());
}

TEST(SnapshotTest, CorruptPayloadIsRefusedAndTransferRestarts) {
  CoreHarness H;
  H.Opts.EnableSnapshotCatchup = true;
  H.Opts.SnapshotLagEntries = 2;
  H.Opts.SnapshotChunkBytes = 1 << 20; // Single-chunk transfer.
  RaftCore L = makeLaggingLeader(H, 4);
  RaftCore F = H.make(3);

  Effects LE = beat(L);
  const Msg *C0 = findSnapshotChunk(LE, 3);
  ASSERT_NE(C0, nullptr);
  ASSERT_TRUE(C0->Done);
  Msg Torn = *C0;
  Torn.Chunk.resize(Torn.Chunk.size() / 2); // Torn mid-payload...
  Torn.Done = true;                         // ...but claims completion.

  Effects FE = F.onMessage(Torn, 0);
  const Msg *R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_FALSE(R->Success);
  EXPECT_EQ(F.logSize(), 0u) << "a torn snapshot must install nothing";

  // The refusal aborts the transfer; since the peer is still lagging,
  // the fallback replication round immediately opens a FRESH transfer
  // from offset 0 (the stale staging identity is discarded), and the
  // retry converges.
  LE = L.onMessage(*R, 0);
  const Msg *Fresh = findSnapshotChunk(LE, 3);
  ASSERT_NE(Fresh, nullptr);
  EXPECT_EQ(Fresh->Offset, 0u);
  FE = F.onMessage(*Fresh, 0);
  R = findSnapshotReply(FE, 1);
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(R->Success);
  EXPECT_TRUE(R->Done);
  ASSERT_EQ(F.logSize(), L.commitIndex());
  for (size_t I = 1; I <= F.logSize(); ++I)
    EXPECT_EQ(F.entry(I), L.entry(I));
}

TEST(SnapshotTest, PayloadCodecRejectsTruncationAndGarbage) {
  CoreHarness H;
  RaftCore L = makeLaggingLeader(H, 3);
  std::string Payload = codec::encodeSnapshotPayload(L.log(), L.commitIndex());

  std::vector<LogEntry> Decoded;
  ASSERT_TRUE(codec::decodeSnapshotPayload(Payload, Decoded));
  ASSERT_EQ(Decoded.size(), L.commitIndex());
  for (size_t I = 0; I != Decoded.size(); ++I)
    EXPECT_EQ(Decoded[I], L.entry(I + 1));

  for (size_t Len = 0; Len != Payload.size(); ++Len)
    EXPECT_FALSE(
        codec::decodeSnapshotPayload(Payload.substr(0, Len), Decoded))
        << "prefix " << Len;
  EXPECT_FALSE(codec::decodeSnapshotPayload(Payload + "x", Decoded));
  std::string Huge = Payload;
  for (size_t I = 0; I != 8; ++I)
    Huge[I] = char(0xFF); // Absurd declared entry count.
  EXPECT_FALSE(codec::decodeSnapshotPayload(Huge, Decoded));
}

//===----------------------------------------------------------------------===//
// Replication hot path: MaxAppendBatch coalescing and the
// PipelineWindow in-flight window (defaults keep the legacy
// stop-and-wait schedule; these tests turn the knobs on)
//===----------------------------------------------------------------------===//

namespace {

/// Sends of AppendEntries addressed to \p To, in order.
std::vector<const Msg *> appendsTo(const Effects &Effs, NodeId To) {
  std::vector<const Msg *> Out;
  for (const Effect &E : Effs)
    if (E.K == Effect::Kind::Send && E.M.K == Msg::Kind::AppendEntries &&
        E.M.To == To)
      Out.push_back(&E.M);
  return Out;
}

/// A compact, order-preserving rendition of an effect stream, for
/// whole-schedule equality checks.
std::string describeEffects(const Effects &Effs) {
  std::string S;
  for (const Effect &E : Effs) {
    switch (E.K) {
    case Effect::Kind::Send:
      S += "send(k=" + std::to_string(int(E.M.K)) +
           ",to=" + std::to_string(E.M.To) +
           ",prev=" + std::to_string(E.M.PrevIndex) +
           ",n=" + std::to_string(E.M.Entries.size()) +
           ",commit=" + std::to_string(E.M.LeaderCommit) + ");";
      break;
    case Effect::Kind::SetTimer:
      S += "set(t=" + std::to_string(int(E.Timer)) + ");";
      break;
    case Effect::Kind::CancelTimer:
      S += "cancel(t=" + std::to_string(int(E.Timer)) + ");";
      break;
    case Effect::Kind::Apply:
      S += "apply(i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::CommitAdvanced:
      S += "commit(i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::Persist:
      S += "persist;";
      break;
    case Effect::Kind::LeaderElected:
      S += "led;";
      break;
    case Effect::Kind::ReplicaSuspected:
      S += "susp;";
      break;
    case Effect::Kind::ReplicaRecovered:
      S += "recov;";
      break;
    case Effect::Kind::ReadReady:
      S += "rdok(id=" + std::to_string(E.ReadId) +
           ",i=" + std::to_string(E.Index) + ");";
      break;
    case Effect::Kind::ReadFailed:
      S += "rdfail(id=" + std::to_string(E.ReadId) + ");";
      break;
    }
  }
  return S;
}

Msg appendAck(const RaftCore &L, NodeId From, size_t MatchIndex) {
  Msg M;
  M.K = Msg::Kind::AppendReply;
  M.From = From;
  M.To = L.id();
  M.Term = L.term();
  M.Success = true;
  M.MatchIndex = MatchIndex;
  return M;
}

Msg appendNack(const RaftCore &L, NodeId From, size_t MatchIndex) {
  Msg M = appendAck(L, From, MatchIndex);
  M.Success = false;
  return M;
}

} // namespace

TEST(PipelineTest, WindowStreamsFramesWithoutAcks) {
  // window=3, one entry per frame: submits stream three unacked frames
  // to each follower, then the window gates the fourth.
  CoreHarness H;
  H.Opts.PipelineWindow = 3;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  Effects Elect = electLeader(C);
  // The noop broadcast shipped frame 1 and opened the window.
  EXPECT_EQ(appendsTo(Elect, 2).size(), 1u);
  EXPECT_EQ(C.inFlightTo(2), 1u);

  Effects S1, S2, S3;
  ASSERT_TRUE(C.submit(10, 1, S1));
  ASSERT_TRUE(C.submit(11, 2, S2));
  ASSERT_TRUE(C.submit(12, 3, S3));
  // Submits 1 and 2 fill the remaining two window slots...
  ASSERT_EQ(appendsTo(S1, 2).size(), 1u);
  EXPECT_EQ(appendsTo(S1, 2)[0]->PrevIndex, 1u);
  ASSERT_EQ(appendsTo(S2, 2).size(), 1u);
  EXPECT_EQ(appendsTo(S2, 2)[0]->PrevIndex, 2u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
  // ...and the third finds the window full: nothing goes out.
  EXPECT_EQ(appendsTo(S3, 2).size(), 0u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
}

TEST(PipelineTest, AckFreesASlotAndStreamsOn) {
  CoreHarness H;
  H.Opts.PipelineWindow = 2;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp)); // Window now full (noop + this).
  ASSERT_TRUE(C.submit(11, 2, Tmp)); // Gated: log index 3 unsent.
  EXPECT_EQ(C.inFlightTo(2), 2u);

  // Acking the noop frees one slot; the pump ships index 3.
  Effects AckFx = C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  std::vector<const Msg *> Sent = appendsTo(AckFx, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->PrevIndex, 2u);
  ASSERT_EQ(Sent[0]->Entries.size(), 1u);
  EXPECT_EQ(C.inFlightTo(2), 2u); // One acked out, one new in.
}

TEST(PipelineTest, KeepAliveAckFreesNoSlot) {
  // The commit broadcast sends follower 2 an empty keep-alive; an entry
  // frame follows before it is answered. The keep-alive's ack must not
  // free the entry frame's slot: a falsely empty window would make the
  // leader answer that ack with a second, redundant keep-alive.
  CoreHarness H;
  H.Opts.PipelineWindow = 2;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Commit = C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  ASSERT_EQ(C.commitIndex(), 1u);
  std::vector<const Msg *> KeepAlive = appendsTo(Commit, 2);
  ASSERT_EQ(KeepAlive.size(), 1u);
  EXPECT_TRUE(KeepAlive[0]->Entries.empty());
  EXPECT_EQ(C.inFlightTo(2), 0u);

  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_EQ(appendsTo(Tmp, 2).size(), 1u);
  ASSERT_EQ(C.inFlightTo(2), 1u);

  Effects KeepAliveAck = C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  EXPECT_TRUE(appendsTo(KeepAliveAck, 2).empty());
  EXPECT_EQ(C.inFlightTo(2), 1u);
  C.onMessage(appendAck(C, 2, 2), /*Now=*/0);
  EXPECT_EQ(C.inFlightTo(2), 0u);
  EXPECT_EQ(C.commitIndex(), 2u);
}

TEST(PipelineTest, NackMidWindowRewindsAndRestreams) {
  // A consistency NAK while frames are still in flight must drop the
  // whole window and re-stream from the backed-up NextIndex — the
  // frames in flight carry PrevIndex anchors the follower will reject.
  CoreHarness H;
  H.Opts.PipelineWindow = 3;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_TRUE(C.submit(11, 2, Tmp));
  ASSERT_EQ(C.inFlightTo(2), 3u);

  // Follower 2 rejects (it has nothing): MatchIndex hint 0.
  Effects NackFx = C.onMessage(appendNack(C, 2, 0), /*Now=*/0);
  std::vector<const Msg *> Resent = appendsTo(NackFx, 2);
  // Rewound to index 1 and the window re-filled from there.
  ASSERT_EQ(Resent.size(), 3u);
  EXPECT_EQ(Resent[0]->PrevIndex, 0u);
  EXPECT_EQ(Resent[1]->PrevIndex, 1u);
  EXPECT_EQ(Resent[2]->PrevIndex, 2u);
  EXPECT_EQ(C.inFlightTo(2), 3u);
}

TEST(PipelineTest, WindowDrainsOnLeadershipLoss) {
  CoreHarness H;
  H.Opts.PipelineWindow = 4;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_GE(C.inFlightTo(2), 2u);

  // A higher term deposes the leader; all pipeline state must drop
  // with the role (stale windows on a future term would gate frames).
  Msg Probe;
  Probe.K = Msg::Kind::AppendEntries;
  Probe.From = 3;
  Probe.To = 1;
  Probe.Term = C.term() + 1;
  C.onMessage(Probe, /*Now=*/0);
  EXPECT_FALSE(C.isLeader());
  EXPECT_EQ(C.inFlightTo(2), 0u);
  EXPECT_EQ(C.inFlightTo(3), 0u);
  EXPECT_EQ(C.pendingBatch(), 0u);
}

TEST(PipelineTest, HeartbeatRewindsAndRetransmitsTheWindow) {
  // Frames lost in flight are recovered by the heartbeat round: it
  // rewinds every peer's cursor to the acked point and re-fills the
  // window — no separate retransmission timer exists.
  CoreHarness H;
  H.Opts.PipelineWindow = 2;
  H.Opts.MaxEntriesPerAppend = 1;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  EXPECT_EQ(C.inFlightTo(2), 2u); // Noop + submit, both unacked.

  Effects Beat =
      C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
  std::vector<const Msg *> Resent = appendsTo(Beat, 2);
  // Nothing was acked, so the same two frames go out again from 1.
  ASSERT_EQ(Resent.size(), 2u);
  EXPECT_EQ(Resent[0]->PrevIndex, 0u);
  EXPECT_EQ(Resent[1]->PrevIndex, 1u);
  EXPECT_EQ(C.inFlightTo(2), 2u);
}

TEST(PipelineTest, CaughtUpFollowerStillGetsKeepAlives) {
  // A follower with nothing to receive must still see periodic empty
  // appends (commit propagation and leadership proof) — the window
  // must not starve heartbeats.
  CoreHarness H;
  H.Opts.PipelineWindow = 4;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  C.onMessage(appendAck(C, 3, 1), /*Now=*/0);

  Effects Beat =
      C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
  std::vector<const Msg *> Sent = appendsTo(Beat, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->Entries.size(), 0u);
  EXPECT_EQ(Sent[0]->LeaderCommit, C.commitIndex());
}

TEST(BatchTest, SubmitsCoalesceIntoOneAppend) {
  // batch=3: two submits defer (local append + persist only); the
  // third flushes one AppendEntries per peer carrying all three.
  CoreHarness H;
  H.Opts.MaxAppendBatch = 3;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0); // Peer 2 caught up.

  Effects S1, S2, S3;
  ASSERT_TRUE(C.submit(10, 1, S1));
  ASSERT_TRUE(C.submit(11, 2, S2));
  EXPECT_EQ(appendsTo(S1, 2).size(), 0u);
  EXPECT_EQ(appendsTo(S2, 2).size(), 0u);
  EXPECT_EQ(count(S1, Effect::Kind::Persist), 1u); // Still durable.
  EXPECT_EQ(C.pendingBatch(), 2u);

  ASSERT_TRUE(C.submit(12, 3, S3));
  EXPECT_EQ(C.pendingBatch(), 0u);
  std::vector<const Msg *> Sent = appendsTo(S3, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->PrevIndex, 1u);
  EXPECT_EQ(Sent[0]->Entries.size(), 3u);
}

TEST(BatchTest, HeartbeatFlushesAPartialBatch) {
  // A partial batch must never wait forever: the next heartbeat round
  // broadcasts it, bounding the deferral by one heartbeat interval.
  CoreHarness H;
  H.Opts.MaxAppendBatch = 10;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0);

  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_TRUE(C.submit(11, 2, Tmp));
  EXPECT_EQ(C.pendingBatch(), 2u);

  Effects Beat =
      C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), /*Now=*/0);
  EXPECT_EQ(C.pendingBatch(), 0u);
  std::vector<const Msg *> Sent = appendsTo(Beat, 2);
  ASSERT_EQ(Sent.size(), 1u);
  EXPECT_EQ(Sent[0]->Entries.size(), 2u);
}

TEST(BatchTest, IdleFlushBroadcastsOnlyALeadersPendingBatch) {
  // flushAppendBatch is what a host calls when its inbox drains: a
  // leader with a partial batch emits exactly one AppendEntries per
  // peer carrying the whole batch; nothing else emits anything.
  CoreHarness H;
  H.Opts.MaxAppendBatch = 16;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0);
  C.onMessage(appendAck(C, 3, 1), /*Now=*/0);

  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  ASSERT_TRUE(C.submit(11, 2, Tmp));
  ASSERT_EQ(C.pendingBatch(), 2u);
  Effects Flush;
  C.flushAppendBatch(Flush);
  EXPECT_EQ(C.pendingBatch(), 0u);
  EXPECT_EQ(count(Flush, Effect::Kind::Send), 2u);
  for (NodeId Peer : {NodeId(2), NodeId(3)}) {
    std::vector<const Msg *> Sent = appendsTo(Flush, Peer);
    ASSERT_EQ(Sent.size(), 1u) << "peer " << Peer;
    EXPECT_EQ(Sent[0]->PrevIndex, 1u);
    EXPECT_EQ(Sent[0]->Entries.size(), 2u);
  }

  Effects Empty;
  C.flushAppendBatch(Empty); // Nothing pending any more.
  EXPECT_TRUE(Empty.empty());

  RaftCore F = H.make(2);
  F.start();
  Effects NotLeader;
  F.flushAppendBatch(NotLeader);
  EXPECT_TRUE(NotLeader.empty());

  ASSERT_TRUE(C.submit(12, 3, Tmp));
  ASSERT_EQ(C.pendingBatch(), 1u);
  C.crash();
  Effects Crashed;
  C.flushAppendBatch(Crashed);
  EXPECT_TRUE(Crashed.empty());
}

TEST(BatchTest, ReconfigFlushesAPendingBatch) {
  // Noop/reconfig appends go through appendOwn's immediate broadcast,
  // which must flush any deferred client entries ahead of itself.
  CoreHarness H;
  H.Opts.MaxAppendBatch = 10;
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  C.onMessage(appendAck(C, 2, 1), /*Now=*/0);

  Effects Tmp;
  ASSERT_TRUE(C.submit(10, 1, Tmp));
  EXPECT_EQ(C.pendingBatch(), 1u);
  Effects Rcf;
  ASSERT_TRUE(C.requestReconfig(Config(NodeSet{1, 2}), Rcf));
  EXPECT_EQ(C.pendingBatch(), 0u);
  std::vector<const Msg *> Sent = appendsTo(Rcf, 2);
  ASSERT_EQ(Sent.size(), 1u);
  // The deferred method entry and the reconfig ride one frame.
  ASSERT_EQ(Sent[0]->Entries.size(), 2u);
  EXPECT_EQ(Sent[0]->Entries[0].Kind, raft::EntryKind::Method);
  EXPECT_EQ(Sent[0]->Entries[1].Kind, raft::EntryKind::Reconfig);
}

TEST(PipelineTest, UnitWindowAndBatchReproduceLegacySchedule) {
  // The acceptance pin for every seed-stable harness: window=1/batch=1
  // must walk exactly the code paths the pre-pipelining core walked, so
  // a default-options core and an explicit 1/1 core produce identical
  // effect streams over a schedule that exercises election, submits,
  // acks, a nack, heartbeats, and commit advancement.
  CoreHarness HDefault, HUnit;
  HUnit.Opts.PipelineWindow = 1;
  HUnit.Opts.MaxAppendBatch = 1;
  RaftCore A = HDefault.make(1, /*Seed=*/42);
  RaftCore B = HUnit.make(1, /*Seed=*/42);

  auto Step = [](RaftCore &C, auto Fn) {
    Effects Out = Fn(C);
    return describeEffects(Out);
  };
  auto Same = [&](auto Fn) {
    EXPECT_EQ(Step(A, Fn), Step(B, Fn));
  };

  Same([](RaftCore &C) { return C.start(); });
  Same([](RaftCore &C) { return electLeader(C); });
  Same([](RaftCore &C) {
    Effects Out;
    C.submit(10, 1, Out);
    return Out;
  });
  Same([](RaftCore &C) { return C.onMessage(appendAck(C, 2, 2), 0); });
  Same([](RaftCore &C) { return C.onMessage(appendNack(C, 3, 0), 0); });
  Same([](RaftCore &C) {
    return C.onTimer(TimerId::Heartbeat, C.heartbeatGen(), 0);
  });
  Same([](RaftCore &C) { return C.onMessage(appendAck(C, 3, 2), 0); });
  Same([](RaftCore &C) {
    Effects Out;
    C.submit(11, 2, Out);
    return Out;
  });
  EXPECT_EQ(A.inFlightTo(2), 0u);
  EXPECT_EQ(B.inFlightTo(2), 0u);
  EXPECT_EQ(A.pendingBatch(), 0u);
}

//===----------------------------------------------------------------------===//
// Configuration cache: config() and configOfPrefix() must always agree
// with a full scan of the log, across every kind of log mutation.
//===----------------------------------------------------------------------===//

namespace {

::testing::AssertionResult configMatchesScan(const RaftCore &C,
                                             const Config &Initial) {
  Config Scanned = raft::configOfPrefix(C.log(), C.logSize(), Initial);
  if (C.config() != Scanned)
    return ::testing::AssertionFailure()
           << "config() " << C.config().str() << " but the log says "
           << Scanned.str();
  for (size_t K = 0; K <= C.logSize(); ++K) {
    Scanned = raft::configOfPrefix(C.log(), K, Initial);
    if (C.configOfPrefix(K) != Scanned)
      return ::testing::AssertionFailure()
             << "configOfPrefix(" << K << ") " << C.configOfPrefix(K).str()
             << " but the log says " << Scanned.str();
  }
  return ::testing::AssertionSuccess();
}

LogEntry methodEntry(Time Term, MethodId Method = 0) {
  LogEntry E;
  E.Term = Term;
  E.Method = Method;
  return E;
}

LogEntry reconfigEntry(Time Term, Config Conf) {
  LogEntry E;
  E.Term = Term;
  E.Kind = raft::EntryKind::Reconfig;
  E.Conf = std::move(Conf);
  return E;
}

Msg appendFrom(NodeId From, Time Term, size_t PrevIndex, Time PrevTerm,
               std::vector<LogEntry> Entries) {
  Msg App;
  App.K = Msg::Kind::AppendEntries;
  App.From = From;
  App.To = 2;
  App.Term = Term;
  App.PrevIndex = PrevIndex;
  App.PrevTerm = PrevTerm;
  App.Entries = std::move(Entries);
  return App;
}

/// Leader 1 with its no-op committed (acked by node 2), so R2/R3 hold.
RaftCore makeCommittedLeader(const CoreHarness &H) {
  RaftCore C = H.make(1);
  C.start();
  electLeader(C);
  ackFrom(C, 2, C.logSize());
  EXPECT_EQ(C.commitIndex(), C.logSize());
  return C;
}

} // namespace

TEST(ConfigCacheTest, OwnAppendsAndReconfigAppendKeepCacheExact) {
  for (size_t Batch : {size_t(1), size_t(4)}) {
    SCOPED_TRACE("MaxAppendBatch=" + std::to_string(Batch));
    CoreHarness H;
    H.Opts.MaxAppendBatch = Batch;
    RaftCore C = makeCommittedLeader(H);
    EXPECT_TRUE(configMatchesScan(C, H.Conf));

    Effects Out;
    ASSERT_TRUE(C.submit(7, 1, Out));
    EXPECT_TRUE(configMatchesScan(C, H.Conf));

    Config Shrunk(NodeSet{1, 2});
    ASSERT_TRUE(C.requestReconfig(Shrunk, Out));
    EXPECT_EQ(C.config(), Shrunk);
    EXPECT_EQ(C.configOfPrefix(C.logSize() - 1), H.Conf);
    EXPECT_TRUE(configMatchesScan(C, H.Conf));

    ASSERT_TRUE(C.submit(8, 2, Out)); // Methods inherit the new config.
    EXPECT_EQ(C.config(), Shrunk);
    EXPECT_TRUE(configMatchesScan(C, H.Conf));
  }
}

TEST(ConfigCacheTest, ConflictingAppendTruncatingAReconfigRevertsConfig) {
  CoreHarness H;
  RaftCore F = H.make(2);
  F.start();
  Config Grown(NodeSet{1, 2, 3, 4});
  Config Shrunk(NodeSet{1, 2});
  F.onMessage(appendFrom(1, 1, 0, 0,
                         {methodEntry(1), reconfigEntry(1, Grown),
                          methodEntry(1), reconfigEntry(1, Shrunk)}),
              0);
  ASSERT_EQ(F.logSize(), 4u);
  EXPECT_EQ(F.config(), Shrunk);
  EXPECT_TRUE(configMatchesScan(F, H.Conf));

  // Term 2 overwrites slot 4: the newest reconfig goes, Grown is back.
  F.onMessage(appendFrom(3, 2, 3, 1, {methodEntry(2, 9)}), 0);
  ASSERT_EQ(F.logSize(), 4u);
  EXPECT_EQ(F.config(), Grown);
  EXPECT_TRUE(configMatchesScan(F, H.Conf));

  // Term 3 overwrites slot 2: no reconfig survives, the initial config
  // is in force again.
  F.onMessage(appendFrom(1, 3, 1, 1, {methodEntry(3), methodEntry(3)}), 0);
  ASSERT_EQ(F.logSize(), 3u);
  EXPECT_EQ(F.config(), H.Conf);
  EXPECT_TRUE(configMatchesScan(F, H.Conf));
}

TEST(ConfigCacheTest, SnapshotInstallOverDivergentSuffixRevertsConfig) {
  CoreHarness H;
  RaftCore F = H.make(2);
  F.start();
  Config Grown(NodeSet{1, 2, 3, 4});
  F.onMessage(appendFrom(1, 1, 0, 0, {methodEntry(1), reconfigEntry(1, Grown)}),
              0);
  ASSERT_EQ(F.config(), Grown);

  // A term-2 leader's committed prefix diverges at slot 2 and carries
  // no reconfig.
  std::vector<LogEntry> SnapLog{methodEntry(1), methodEntry(2),
                                methodEntry(2, 5)};
  Msg Snap;
  Snap.K = Msg::Kind::InstallSnapshot;
  Snap.From = 3;
  Snap.To = 2;
  Snap.Term = 2;
  Snap.SnapIndex = SnapLog.size();
  Snap.SnapTerm = 2;
  Snap.Chunk = codec::encodeSnapshotPayload(SnapLog, SnapLog.size());
  Snap.Done = true;
  F.onMessage(Snap, 0);
  ASSERT_EQ(F.snapshotsInstalled(), 1u);
  ASSERT_EQ(F.log(), SnapLog);
  EXPECT_EQ(F.config(), H.Conf);
  EXPECT_TRUE(configMatchesScan(F, H.Conf));
}

TEST(ConfigCacheTest, InstallDurableStateRescansTheRecoveredLog) {
  CoreHarness H;
  RaftCore C = makeCommittedLeader(H);
  Config Shrunk(NodeSet{1, 2});
  Effects Out;
  ASSERT_TRUE(C.requestReconfig(Shrunk, Out));
  std::vector<LogEntry> Full = C.log();

  // The store lost the unsynced reconfig: recovery reverts the config.
  C.crash();
  std::vector<LogEntry> Lost(Full.begin(), Full.end() - 1);
  C.installDurableState(C.term(), C.votedFor(), Lost, C.commitIndex());
  EXPECT_EQ(C.config(), H.Conf);
  EXPECT_TRUE(configMatchesScan(C, H.Conf));

  // A store that kept it brings it back.
  C.installDurableState(C.term(), C.votedFor(), Full, C.commitIndex());
  EXPECT_EQ(C.config(), Shrunk);
  EXPECT_TRUE(configMatchesScan(C, H.Conf));
  C.restart();
  EXPECT_TRUE(configMatchesScan(C, H.Conf));
}
