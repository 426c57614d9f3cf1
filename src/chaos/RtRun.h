//===- chaos/RtRun.h - Chaos scenarios on the threaded runtime -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a chaos scenario against the rt runtime: the same protocol core
/// the simulator executes, but hosted on real threads, a wire-format
/// message bus, and the wall clock. The rt runtime's only fault
/// primitive is state-level crash/restart (there is no virtual network
/// to cut), so the network-flavored scenarios map onto crash schedules;
/// reconfig scenarios run real hot membership changes. Runs are NOT
/// deterministic — thread scheduling is genuine — which is exactly the
/// point: this is the harness the thread sanitizer watches in CI.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_RTRUN_H
#define ADORE_CHAOS_RTRUN_H

#include "chaos/ChaosRun.h"
#include "rt/RtCluster.h"

namespace adore {
namespace chaos {

/// Knobs for one rt-runtime chaos run.
struct RtRunOptions {
  SchemeKind Scheme = SchemeKind::RaftSingleNode;
  size_t Members = 3;
  /// Spare (initially passive) replicas per group: kill-forever heals
  /// onto them (and kills at most two per group, fewer if there are
  /// fewer spares), and pool migrations draw targets from them. A
  /// single group creates them only for kill-forever.
  size_t Spares = 2;
  /// Number of data consensus groups. 1 runs one plain rt::RtCluster;
  /// >1 (or Scenario::ShardReconfig) runs the sharded pool on one
  /// transport: a metadata group replicating the pool map plus Groups
  /// data groups, client ops routed per key. Every scenario script runs
  /// once per data group either way.
  size_t Groups = 1;
  /// Shards the keyspace is split into for sharded runs (jump hash).
  uint32_t Shards = 16;
  Scenario Kind = Scenario::Mixed;
  /// Client operations across the whole run (smaller than the sim
  /// sweep's: every op costs real milliseconds).
  size_t NumOps = 20;
  /// Per-operation client budget, wall-clock.
  uint64_t OpTimeoutMs = 3000;
  /// Budget for elections and reconfig commitment, wall-clock.
  uint64_t ConvergeTimeoutMs = 5000;
  /// Back every node with the WAL+snapshot store on a fault-injecting
  /// in-memory disk (forced on for Scenario::DiskFaults).
  bool DurableStore = false;
  /// Wire the nodes over the in-process bus (default) or real loopback
  /// TCP sockets. Bus runs are unchanged byte-for-byte by this knob;
  /// TCP runs add genuine kernel buffering, reconnects, and frame
  /// reassembly underneath the same protocol core.
  rt::TransportKind Transport = rt::TransportKind::Bus;
};

/// Runs one scenario on the threaded runtime. The result reuses the
/// ChaosRunResult shape; fields with no rt equivalent (network drop
/// counters, nemesis trace, linearization states) stay zero/empty, and
/// GroupStats stays empty for a single group. A pool run adds the
/// per-group final-agreement checks (metadata group included) and the
/// pool-map generation audit.
ChaosRunResult runRtScenario(const RtRunOptions &Opts, uint64_t Seed);

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_RTRUN_H
