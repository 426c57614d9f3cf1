//===- perfbench/cpp/CoreReplay.cpp - Sans-I/O RaftCore replay ------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "CoreReplay.h"

#include "Trace.h"

#include "adore/Config.h"
#include "support/Rng.h"

#include <array>
#include <deque>
#include <memory>
#include <set>
#include <vector>

using namespace adore;
using namespace adore::perfbench;

namespace {

constexpr size_t NumReplicas = 3;

class Replay {
public:
  Replay(const ReplayMix &Mix, ReplayResult &R)
      : Mix(Mix), R(R), Scheme(makeScheme(SchemeKind::RaftSingleNode)) {
    NodeSet Members;
    for (size_t I = 1; I <= NumReplicas; ++I)
      Members.insert(static_cast<NodeId>(I));
    Rng SeedRng(Mix.Seed);
    for (size_t I = 1; I <= NumReplicas; ++I)
      Cores.emplace_back(static_cast<NodeId>(I), *Scheme, Config(Members),
                         Mix.Opts, SeedRng.next());
    Timers.resize(NumReplicas);
  }

  void run() {
    for (size_t I = 0; I != NumReplicas; ++I)
      dispatch(I, Cores[I].start());
    if (!awaitLeader()) {
      R.Error = "replay: no leader elected";
      return;
    }
    Counting = true;
    Rng Mixer(Mix.Seed ^ 0x5EED);
    bool AtFollower = false;
    for (size_t Op = 0; Op != Mix.Ops; ++Op) {
      advanceTo(Now + Mix.GapUs);
      size_t L = 0;
      if (!leader(L) && !awaitLeader()) {
        R.Error = "replay: leader lost";
        return;
      }
      leader(L);
      core::Effects Out;
      if (Mixer.nextBelow(1000) < Mix.ReadPermille) {
        size_t T = AtFollower ? (L + 1) % NumReplicas : L;
        AtFollower = !AtFollower;
        ++R.Reads;
        uint64_t Start = nowNs();
        Cores[T].readQuery(++LastReadId, Now, Out);
        R.ReadQueryNs.push_back(static_cast<double>(nowNs() - Start));
        dispatch(T, std::move(Out));
      } else {
        ++R.Writes;
        uint64_t Start = nowNs();
        Cores[L].submit(static_cast<MethodId>(Op % 97 + 1), Op + 1, Out);
        R.ClientRequestNs.push_back(static_cast<double>(nowNs() - Start));
        dispatch(L, std::move(Out));
      }
      drain();
    }
    R.WritesCommitted = Committed.size();
    R.Ok = true;
  }

private:
  struct Timer {
    bool Armed = false;
    uint64_t Gen = 0;
    uint64_t At = 0;
  };

  bool leader(size_t &Out) const {
    for (size_t I = 0; I != NumReplicas; ++I)
      if (Cores[I].isLeader()) {
        Out = I;
        return true;
      }
    return false;
  }

  bool awaitLeader() {
    size_t L = 0;
    for (int Step = 0; Step != 10000 && !leader(L); ++Step)
      advanceTo(Now + 1000);
    return leader(L);
  }

  void dispatch(size_t Node, core::Effects Effs) {
    if (Counting)
      R.Effects += Effs.size();
    for (core::Effect &E : Effs) {
      switch (E.K) {
      case core::Effect::Kind::Send:
        Net.push_back(std::move(E.M));
        break;
      case core::Effect::Kind::SetTimer: {
        Timer &T = Timers[Node][static_cast<size_t>(E.Timer)];
        T = Timer{true, E.TimerGen, Now + E.DelayUs};
        break;
      }
      case core::Effect::Kind::CancelTimer:
        Timers[Node][static_cast<size_t>(E.Timer)].Armed = false;
        break;
      case core::Effect::Kind::Apply:
        if (Counting && E.Entry.ClientSeq != 0)
          Committed.insert(E.Entry.ClientSeq);
        break;
      case core::Effect::Kind::ReadReady:
        R.ReadsServed += Counting;
        break;
      default:
        break;
      }
    }
  }

  /// Delivers queued messages (and whatever they trigger) until quiet.
  void drain() {
    while (!Net.empty()) {
      core::Msg M = std::move(Net.front());
      Net.pop_front();
      if (M.To < 1 || M.To > NumReplicas)
        continue;
      size_t Node = M.To - 1;
      uint64_t Start = nowNs();
      core::Effects Out = Cores[Node].onMessage(M, Now);
      double Ns = static_cast<double>(nowNs() - Start);
      if (Counting) {
        if (M.K == core::Msg::Kind::AppendEntries)
          R.AppendEntriesNs.push_back(Ns);
        else if (M.K == core::Msg::Kind::AppendReply)
          R.AppendReplyNs.push_back(Ns);
      }
      dispatch(Node, std::move(Out));
    }
  }

  /// Fires every timer due by \p Until in deadline order.
  void advanceTo(uint64_t Until) {
    for (;;) {
      size_t BestNode = 0, BestTimer = 0;
      uint64_t BestAt = Until + 1;
      for (size_t N = 0; N != NumReplicas; ++N)
        for (size_t T = 0; T != 2; ++T)
          if (Timers[N][T].Armed && Timers[N][T].At < BestAt) {
            BestAt = Timers[N][T].At;
            BestNode = N;
            BestTimer = T;
          }
      if (BestAt > Until)
        break;
      Timer &T = Timers[BestNode][BestTimer];
      T.Armed = false;
      Now = BestAt;
      dispatch(BestNode,
               Cores[BestNode].onTimer(static_cast<core::TimerId>(BestTimer),
                                       T.Gen, Now));
      drain();
    }
    Now = Until;
  }

  const ReplayMix &Mix;
  ReplayResult &R;
  std::unique_ptr<ReconfigScheme> Scheme;
  std::vector<core::RaftCore> Cores;
  std::vector<std::array<Timer, 2>> Timers;
  std::deque<core::Msg> Net;
  std::set<uint64_t> Committed;
  uint64_t Now = 1000000;
  uint64_t LastReadId = 0;
  bool Counting = false;
};

} // namespace

ReplayResult perfbench::replayCore(const ReplayMix &Mix) {
  ReplayResult R;
  Replay(Mix, R).run();
  return R;
}
