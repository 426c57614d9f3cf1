//===- tests/HostTest.cpp - The shared effect interpreter ------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// host::Replica under a fake environment and NodeStores over MemVfs:
// the persist-before-act ordering and the restart cross-check, checked
// once for both runtime hosts.
//
//===----------------------------------------------------------------------===//

#include "host/Replica.h"
#include "store/Vfs.h"
#include "store/Wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace adore;

namespace {

/// What the environment and the disk saw, in order: "send" per message
/// handed to the network, "sync" per fsync.
struct Recording {
  std::vector<std::string> Events;
  std::deque<core::Msg> Net;
};

/// A fake environment: a settable clock, a FIFO network, and armed
/// timers the test fires by hand.
struct FakeEnv {
  Recording *Rec;
  uint64_t Now = 0;
  std::map<core::TimerId, uint64_t> Armed;

  uint64_t nowUs() const { return Now; }
  void send(core::Msg &&M) {
    Rec->Events.push_back("send");
    Rec->Net.push_back(std::move(M));
  }
  void armTimer(core::TimerId T, uint64_t Gen, uint64_t) { Armed[T] = Gen; }
  void cancelTimer(core::TimerId T) { Armed.erase(T); }
};

using Replica = host::Replica<FakeEnv>;

/// A Vfs decorator that records every sync into the shared recording.
class SyncRecorder final : public store::Vfs {
public:
  SyncRecorder(store::Vfs &Inner, Recording &Rec) : Inner(Inner), Rec(Rec) {}

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
    Rec.Events.push_back("sync");
    return Inner.sync(Path);
  }
  std::vector<std::string> list(const std::string &Prefix) override {
    return Inner.list(Prefix);
  }

private:
  store::Vfs &Inner;
  Recording &Rec;
};

std::unique_ptr<Replica> makeReplica(NodeId Id, const ReconfigScheme &Scheme,
                                     const Config &Conf, Recording &Rec,
                                     store::NodeStore &Store) {
  return std::make_unique<Replica>(Id, Scheme, Conf, core::CoreOptions(),
                                   100 + Id, FakeEnv{&Rec, 0, {}}, host::Hooks(),
                                   &Store);
}

} // namespace

TEST(HostReplicaTest, RestartReportsALogRecordCorruptedWhileCrashed) {
  std::unique_ptr<ReconfigScheme> Scheme =
      makeScheme(SchemeKind::RaftSingleNode);
  Recording Rec;
  store::MemVfs Disk(7);
  store::NodeStore Store(Disk, "n1");
  std::unique_ptr<Replica> R =
      makeReplica(1, *Scheme, Config(NodeSet{1}), Rec, Store);
  R->start();
  R->fire(core::TimerId::Election,
          R->env().Armed.at(core::TimerId::Election));
  ASSERT_TRUE(R->core().isLeader());
  for (uint64_t Seq = 1; Seq <= 5; ++Seq) {
    core::Effects Effs;
    ASSERT_TRUE(R->core().submit(/*Method=*/1, Seq, Effs));
    R->dispatch(std::move(Effs));
  }
  ASSERT_GE(R->core().commitIndex(), 5u);

  // Control: an untouched directory recovers exactly.
  R->crash();
  R->restart();
  EXPECT_TRUE(R->storeMismatches().empty());

  // Corrupt the last synced Append record while the replica is down.
  R->crash();
  std::string Path;
  uint64_t End = 0;
  for (const std::string &P : Disk.list("n1/")) {
    std::string Bytes;
    if (P.find("/wal-") == std::string::npos || !Disk.readFile(P, Bytes))
      continue;
    for (const store::WalRecord &W : store::scanSegment(Bytes).Records) {
      if (W.Type == store::RecordType::Append) {
        Path = P;
        End = W.EndOffset;
      }
    }
  }
  ASSERT_FALSE(Path.empty()) << "no Append record on disk";
  ASSERT_LE(End, Disk.fileSize(Path) - Disk.unsyncedBytes(Path))
      << "the corrupted record must be a synced one";
  ASSERT_TRUE(Disk.flipBit(Path, End - 1, 0));
  R->restart();

  ASSERT_FALSE(R->storeMismatches().empty());
  bool NamesLog = std::any_of(
      R->storeMismatches().begin(), R->storeMismatches().end(),
      [](const std::string &M) {
        return M.find("S1 store recovery: recovered log") == 0;
      });
  EXPECT_TRUE(NamesLog) << R->storeMismatches().front();
}

TEST(HostReplicaTest, NoSendOfAPersistingBatchPrecedesItsSync) {
  std::unique_ptr<ReconfigScheme> Scheme =
      makeScheme(SchemeKind::RaftSingleNode);
  Recording Rec;
  store::MemVfs Disk(9);
  SyncRecorder Recorder(Disk, Rec);
  Config Conf(NodeSet{1, 2, 3});
  std::vector<std::unique_ptr<store::NodeStore>> Stores;
  std::vector<std::unique_ptr<Replica>> Rs;
  for (NodeId Id = 1; Id <= 3; ++Id) {
    Stores.push_back(std::make_unique<store::NodeStore>(
        Recorder, "n" + std::to_string(Id)));
    Rs.push_back(makeReplica(Id, *Scheme, Conf, Rec, *Stores.back()));
  }

  // Every batch goes through here: a batch carrying Persist must show a
  // sync before its first send.
  size_t PersistBatches = 0, GatedSends = 0;
  auto Run = [&](Replica &R, core::Effects Effs) {
    bool Persists = core::persistFloor(Effs) != 0;
    size_t From = Rec.Events.size();
    R.dispatch(std::move(Effs));
    if (!Persists)
      return;
    ++PersistBatches;
    auto First = Rec.Events.begin() + From;
    auto Send = std::find(First, Rec.Events.end(), "send");
    auto Sync = std::find(First, Rec.Events.end(), "sync");
    EXPECT_NE(Sync, Rec.Events.end())
        << "S" << R.core().id() << ": a Persist-carrying batch never synced";
    if (Send == Rec.Events.end())
      return;
    ++GatedSends;
    EXPECT_LT(Sync - First, Send - First)
        << "S" << R.core().id() << ": a send escaped before the sync";
  };
  auto Deliver = [&] {
    while (!Rec.Net.empty()) {
      core::Msg M = std::move(Rec.Net.front());
      Rec.Net.pop_front();
      Replica &To = *Rs[M.To - 1];
      Run(To, To.core().onMessage(M, To.env().nowUs()));
    }
  };

  for (auto &R : Rs)
    Run(*R, R->core().start());
  Replica &Leader = *Rs[0];
  Run(Leader, Leader.core().onTimer(
                  core::TimerId::Election,
                  Leader.env().Armed.at(core::TimerId::Election), 0));
  Deliver();
  ASSERT_TRUE(Leader.core().isLeader());
  for (uint64_t Seq = 1; Seq <= 4; ++Seq) {
    core::Effects Effs;
    ASSERT_TRUE(Leader.core().submit(/*Method=*/1, Seq, Effs));
    Run(Leader, std::move(Effs));
    Deliver();
  }
  EXPECT_EQ(Leader.core().commitIndex(), Leader.core().logSize());
  for (auto &R : Rs)
    EXPECT_TRUE(R->storeMismatches().empty());
  // The check is not vacuous: votes, elections and appends all had to
  // gate their sends.
  EXPECT_GE(PersistBatches, 8u);
  EXPECT_GE(GatedSends, 5u);
}
