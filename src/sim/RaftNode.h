//===- sim/RaftNode.h - Simulator host for the Raft core ------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event-simulator host for core::RaftCore. Effects run
/// through the shared host::Replica interpreter; this file supplies the
/// simulator's environment: Send goes to the cluster's latency/loss
/// network callback, SetTimer schedules an EventQueue callback that
/// re-enters the core with the carried generation, and the protocol
/// clock is queue time plus this node's skew. Effects keep their
/// emission order, so chaos seeds yield byte-identical histories.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SIM_RAFTNODE_H
#define ADORE_SIM_RAFTNODE_H

#include "core/RaftCore.h"
#include "host/Replica.h"
#include "sim/EventQueue.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace sim {

/// A single simulated replica: host::Replica over the event queue.
class RaftNode {
public:
  /// \p Send transmits a message (the host applies latency/loss).
  /// \p Store, when non-null, makes persistence real (see
  /// host::Replica).
  RaftNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
           core::CoreOptions Opts, EventQueue &Queue, uint64_t Seed,
           std::function<void(core::Msg)> Send, host::Hooks Hooks,
           store::NodeStore *Store = nullptr)
      : Queue(&Queue), SendFn(std::move(Send)),
        R(Id, Scheme, std::move(InitialConf), std::move(Opts), Seed,
          Env{this}, std::move(Hooks), Store) {}

  RaftNode(const RaftNode &) = delete;
  RaftNode &operator=(const RaftNode &) = delete;

  /// Arms the first election timeout; call once at cluster start.
  void start() { R.start(); }

  /// Delivers a message to this node.
  void receive(const core::Msg &M) { R.receive(M); }

  /// Fail-stop: the node ignores messages and timers until restarted.
  void crash() { R.crash(); }

  /// Restart after a crash (store-backed: recover and cross-check).
  void restart() { R.restart(); }

  /// Recovery divergences so far (see host::Replica).
  const std::vector<std::string> &storeMismatches() const {
    return R.storeMismatches();
  }

  /// The hooks this node fires; callers may replace any of them.
  host::Hooks &hooks() { return R.hooks(); }

  //===--------------------------------------------------------------===//
  // Leader-side API (cluster/client facing)
  //===--------------------------------------------------------------===//

  /// Appends a client command; returns false if not leader. Replication
  /// starts immediately.
  bool submit(MethodId Method, uint64_t ClientSeq) {
    return R.run([&](core::RaftCore &C, core::Effects &Out) {
      return C.submit(Method, ClientSeq, Out);
    });
  }

  /// Appends a reconfiguration if the R1+/R2/R3 guards pass and this
  /// leader stays a member; returns false otherwise.
  bool requestReconfig(const Config &NewConf) {
    return R.run([&](core::RaftCore &C, core::Effects &Out) {
      return C.requestReconfig(NewConf, Out);
    });
  }

  /// Leadership transfer (Raft 3.10): tells \p Target — which must be a
  /// member and caught up — to elect immediately, and steps this leader
  /// out of the way. Returns false if not leader or the target lags.
  bool transferLeadership(NodeId Target) {
    return R.run([&](core::RaftCore &C, core::Effects &Out) {
      return C.transferLeadership(Target, Out);
    });
  }

  /// Starts a linearizable read (core::RaftCore::readQuery). The OnRead
  /// hook fires with the outcome — possibly synchronously, before this
  /// returns. Returns false if the core failed it synchronously.
  bool read(uint64_t ReadId) {
    return R.run([&](core::RaftCore &C, core::Effects &Out) {
      return C.readQuery(ReadId, R.env().nowUs(), Out);
    });
  }

  /// Skews this node's protocol clock: every NowUs the core observes
  /// (message receipt, timer firing, read submission) is offset by
  /// \p SkewUs from virtual time. Timers still *fire* on queue time —
  /// drift misleads lease/stickiness arithmetic, it does not reorder
  /// the event loop. The clock-drift nemesis drives this.
  void setClockSkew(int64_t SkewUs) { ClockSkewUs = SkewUs; }
  int64_t clockSkew() const { return ClockSkewUs; }

  //===--------------------------------------------------------------===//
  // Introspection (forwarded to the core)
  //===--------------------------------------------------------------===//

  NodeId id() const { return core().id(); }
  core::Role role() const { return core().role(); }
  bool isLeader() const { return core().isLeader(); }
  Time term() const { return core().term(); }
  size_t commitIndex() const { return core().commitIndex(); }
  size_t logSize() const { return core().logSize(); }
  const core::LogEntry &entry(size_t Index1) const {
    return core().entry(Index1);
  }
  /// The configuration currently in force (hot semantics).
  Config config() const { return core().config(); }
  /// The leader this node last heard from (its redirect hint).
  std::optional<NodeId> leaderHint() const { return core().leaderHint(); }
  /// True once the node has observed its own committed removal and
  /// gone passive.
  bool isPassive() const { return core().isPassive(); }
  /// True while crashed (ignores everything).
  bool isCrashed() const { return core().isCrashed(); }

  std::string describe() const { return core().describe(); }

  /// The hosted protocol core (read-only), for tests that inspect core
  /// state directly.
  const core::RaftCore &core() const { return R.core(); }

private:
  /// The simulator's environment for host::Replica.
  struct Env {
    RaftNode *Node;
    /// The node's (possibly skewed) protocol clock, clamped at zero.
    uint64_t nowUs() const {
      int64_t Now =
          static_cast<int64_t>(Node->Queue->now()) + Node->ClockSkewUs;
      return Now < 0 ? 0 : static_cast<uint64_t>(Now);
    }
    void send(core::Msg &&M) { Node->SendFn(std::move(M)); }
    void armTimer(core::TimerId T, uint64_t Gen, uint64_t DelayUs) {
      Node->Queue->scheduleAfter(DelayUs,
                                 [N = Node, T, Gen] { N->R.fire(T, Gen); });
    }
    /// Nothing to do: a stale firing is rejected by generation.
    void cancelTimer(core::TimerId) {}
  };

  EventQueue *Queue;
  std::function<void(core::Msg)> SendFn;
  int64_t ClockSkewUs = 0;
  host::Replica<Env> R;
};

} // namespace sim
} // namespace adore

#endif // ADORE_SIM_RAFTNODE_H
