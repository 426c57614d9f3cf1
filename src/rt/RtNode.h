//===- rt/RtNode.h - Real-time threaded host for the Raft core -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real-time host for core::RaftCore. Effects run through the
/// shared host::Replica interpreter; this file supplies the threads.
/// Exactly one thread at a time runs a node's core — its owner — so the
/// core needs no locks, but ownership passes to whichever thread brings
/// work. All input — wire frames, client commands, admin reconfigs,
/// crash/restart control — lands in a mutex-protected inbox that the
/// owner drains in arrival order; Send effects are serialized through
/// rt/Wire.h and posted to the transport.
///
/// An enqueue that finds the node started and unowned may claim it and
/// drain the inbox on the calling thread, running the step to
/// completion; one that finds it owned only appends (no wake-up), and
/// the owner re-checks the inbox under the same mutex before it
/// releases, so nothing is stranded. A thread may run a node inline
/// only if (a) the node has no store — a borrowed thread must never wait
/// on a WAL fsync — and (b) the input is a client call (submit, read,
/// reconfig, crash, restart) or a frame posted by a thread that is
/// itself running a replica inline. That keeps a transport's own
/// delivery thread (the TCP epoll loop) out, and keeps replicas on
/// their own workers once load has pushed work there. An inline owner
/// hands the rest of the inbox to the worker after MaxInlineDispatches
/// dispatches.
///
/// Each node keeps one worker thread for everything else: store-backed
/// nodes, frames from non-replica threads, handed-back work, and the
/// core's timers. SetTimer effects become steady_clock deadlines; a
/// release publishes the earliest one and wakes the worker only if it
/// moved before the deadline the worker is sleeping toward. Whenever an
/// owner finds the inbox empty it flushes a partial append batch
/// (core::RaftCore::flushAppendBatch), so a lone request never waits for
/// the batch to fill or for a heartbeat.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_RTNODE_H
#define ADORE_RT_RTNODE_H

#include "core/RaftCore.h"
#include "host/Replica.h"
#include "rt/Transport.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <optional>
#include <thread>

namespace adore {
namespace rt {

/// Host-side tuning, orthogonal to core::CoreOptions.
struct RtHostOptions {
  /// Max consecutive inbox items (frames / submits / reconfigs) drained
  /// and stepped through the core as ONE effect batch. A store-backed
  /// host fsyncs once per dispatched batch, so raising this makes one
  /// WAL sync cover a whole pipelined burst of appends (group commit).
  /// 1 = one-item-one-dispatch. Crash/restart items never coalesce;
  /// they are batch barriers.
  size_t MaxInboxBatch = 1;
};

/// Lock-free-readable snapshot of a node, refreshed by its owner after
/// every step.
struct RtNodeStatus {
  core::Role Role = core::Role::Follower;
  Time Term = 0;
  size_t CommitIndex = 0;
  size_t LogSize = 0;
  bool Crashed = false;
  bool Passive = false;
  /// The configuration the core currently runs under; advisory by the
  /// time anyone reads it, like every other field here.
  Config Conf;
};

/// One threaded replica.
class RtNode {
public:
  /// Dispatches an inline owner may run before it hands the rest of the
  /// inbox to the worker, so other traffic cannot capture a client's
  /// thread.
  static constexpr size_t MaxInlineDispatches = 64;

  /// \p Store, when non-null, makes persistence real (see
  /// host::Replica); store-backed nodes run only on their worker thread.
  ///
  /// Each hook runs on whichever thread is running the step that
  /// produced it — the node's worker, or a client or peer thread running
  /// the node inline — and must be thread-safe against every other
  /// node's steps. A hook may call into a node (an inline call there may
  /// run that node's steps, and so hooks, on this thread), but never
  /// while holding a lock that hooks take; audited holders:
  /// RtCluster::ObsMu, ShardedRtCluster::MapMu and the chaos drivers'
  /// HealMu are all released before any node call. A hook must never
  /// call start() or stop().
  RtNode(NodeId Id, const ReconfigScheme &Scheme, Config InitialConf,
         core::CoreOptions Opts, uint64_t Seed, Transport &Net,
         host::Hooks Hooks, store::NodeStore *Store = nullptr,
         RtHostOptions Host = {});
  ~RtNode();

  RtNode(const RtNode &) = delete;
  RtNode &operator=(const RtNode &) = delete;

  /// Spawns the worker thread and starts the core. Idempotent; safe to
  /// race with stop() (LifeMu serializes lifecycle transitions).
  void start() ADORE_EXCLUDES(LifeMu, Mu);

  /// Waits out any inline owner and joins the worker; once it returns
  /// no step (and so no hook) of this node runs until the next start().
  /// Idempotent.
  void stop() ADORE_EXCLUDES(LifeMu, Mu);

  NodeId id() const { return Id; }

  /// Enqueues a serialized frame from the transport (any thread).
  void enqueueFrame(std::string Frame) ADORE_EXCLUDES(Mu);

  /// Enqueues a client command (any thread). Acceptance is observable
  /// only through commitment — like a real network client's.
  void submit(MethodId Method, uint64_t ClientSeq) ADORE_EXCLUDES(Mu);

  /// Enqueues an admin membership-change request (any thread).
  void requestReconfig(Config NewConf) ADORE_EXCLUDES(Mu);

  /// Enqueues a linearizable read (any thread); the outcome arrives via
  /// host::Hooks::OnRead with the same host-chosen \p ReadId.
  void read(uint64_t ReadId) ADORE_EXCLUDES(Mu);

  /// State-level fail-stop / recovery (any thread).
  void crash() ADORE_EXCLUDES(Mu);
  void restart() ADORE_EXCLUDES(Mu);

  /// Point-in-time status snapshot (any thread).
  RtNodeStatus status() const;

  /// The status's role, or nullopt while crashed: what a leader lookup
  /// needs, without copying the configuration (any thread).
  std::optional<core::Role> liveRole() const;

  /// Count of bus frames that failed wire decoding (any thread).
  uint64_t malformedFrames() const;

  /// Store-backed mode: every restart whose recovered state diverged
  /// from the in-memory copy, or whose directory was unrecoverable, one
  /// line each (see host::Replica). Safe ONLY while the node is stopped.
  const std::vector<std::string> &storeMismatches() const {
    return R.storeMismatches();
  }

  /// Direct read access to the hosted core. Safe ONLY while the node is
  /// stopped (before start() or after stop()); used by end-of-run
  /// whole-cluster checks.
  const core::RaftCore &coreForInspection() const { return R.core(); }

private:
  struct Item {
    enum class Kind : uint8_t {
      Frame,
      Submit,
      Reconfig,
      Read,
      Crash,
      Restart
    };
    Kind K = Kind::Frame;
    std::string Frame;
    MethodId Method = 0;
    uint64_t ClientSeq = 0;
    uint64_t ReadId = 0;
    Config Conf;
  };

  using Clock = std::chrono::steady_clock;

  /// The worker thread: starts the core, then claims the node whenever
  /// it is unowned with queued work or a due deadline.
  void run() ADORE_EXCLUDES(Mu);
  /// Appends \p It; claims the node and drains it on this thread when
  /// \p MayRunInline and the node is started and unowned, else wakes
  /// the worker if nobody owns the node.
  void enqueue(Item It, bool MayRunInline) ADORE_EXCLUDES(Mu);
  /// A client call: inline-eligible unless the node is store-backed.
  void enqueueClient(Item It) ADORE_EXCLUDES(Mu);
  /// Runs the node as its owner until the inbox is empty (then idle-
  /// flushes, fires due timers and releases), the node stops, or — for
  /// an \p Inline owner — the dispatch bound hands the rest back.
  void drain(bool Inline) ADORE_EXCLUDES(Mu);
  /// True for items that may coalesce into one effect batch; false for
  /// crash/restart barriers.
  static bool isBatchable(const Item &It);
  /// Steps one batchable item through the core, appending its effects.
  void step(Item &It, core::Effects &Out);
  /// Runs one crash/restart barrier item.
  void processBarrier(Item &It);
  void fireDueTimers();
  /// Runs \p Effs through the replica, then publishes the status.
  void dispatch(core::Effects Effs);
  void publishStatus();

  /// One armed core timer mapped onto the steady clock. Owner only.
  struct Deadline {
    bool Armed = false;
    uint64_t Gen = 0;
    Clock::time_point At;
  };

  /// The real-time environment for host::Replica. Owner only.
  struct Env {
    RtNode *Node;
    /// Microseconds since the node was constructed.
    uint64_t nowUs() const;
    void send(core::Msg &&M);
    void armTimer(core::TimerId T, uint64_t Gen, uint64_t DelayUs);
    void cancelTimer(core::TimerId T) { Node->deadline(T).Armed = false; }
  };

  Deadline &deadline(core::TimerId T) {
    return T == core::TimerId::Election ? Election : Heartbeat;
  }
  /// The earliest armed deadline, if any. Owner only.
  std::optional<Clock::time_point> nextDeadline() const;

  NodeId Id;
  Transport *Net;
  RtHostOptions Host;
  Clock::time_point Epoch;
  host::Replica<Env> R; ///< Owner only once start()ed.

  Deadline Election;  ///< Owner only.
  Deadline Heartbeat; ///< Owner only.

  /// Serializes start()/stop() end to end: no step ever takes it, so
  /// stop() may wait for owners and join while holding it, and a
  /// start() racing a stop() can no longer observe (or clobber) a
  /// half-torn-down Worker. Ordered before Mu: lifecycle code acquires
  /// LifeMu first.
  mutable sync::Mutex LifeMu;
  mutable sync::Mutex Mu ADORE_ACQUIRED_AFTER(LifeMu);
  /// Wakes the worker, and stop() waiting for an inline owner.
  sync::CondVar Cv;
  std::deque<Item> Inbox ADORE_GUARDED_BY(Mu);
  bool Stopping ADORE_GUARDED_BY(Mu) = false;
  bool Started ADORE_GUARDED_BY(Mu) = false;
  /// Some thread is running the core; claimed and released under Mu,
  /// which orders every owner's accesses to the core after the last.
  bool Owned ADORE_GUARDED_BY(Mu) = false;
  /// The earliest timer deadline as of the last release.
  std::optional<Clock::time_point> Wake ADORE_GUARDED_BY(Mu);
  /// What the worker's current wait ends at (max = no deadline).
  Clock::time_point WorkerSleepsUntil ADORE_GUARDED_BY(Mu) =
      Clock::time_point::max();

  mutable sync::Mutex StatusMu;
  RtNodeStatus Cached ADORE_GUARDED_BY(StatusMu);

  std::atomic<uint64_t> Malformed{0};

  std::thread Worker ADORE_GUARDED_BY(LifeMu);
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_RTNODE_H
