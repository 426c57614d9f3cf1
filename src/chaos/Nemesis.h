//===- chaos/Nemesis.h - Seed-driven fault scheduler ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The nemesis: a deterministic, seed-driven scheduler that composes
/// fault actions against the executable cluster as events on the same
/// discrete-event queue the cluster runs on. Fault families:
///
///   - crash / restart (fail-stop, persistent log survives),
///   - symmetric partitions (universe split in two),
///   - directional link cuts (A->B dies, B->A flows),
///   - message duplication storms and latency-spike/reorder phases
///     (via the cluster's live LinkOptions),
///   - concurrent admin reconfigurations drawn from the scheme's own
///     candidateReconfigs enumeration.
///
/// Scenarios are either *randomized* — a policy picks the next action
/// from the enabled families under a fault budget (bounded concurrent
/// crashes/cuts, partitions auto-heal) — or *scripted* (deterministic
/// sequences reproducing specific reconfiguration hazards). Every run
/// ends with heal-everything at the horizon: partitions and cuts lifted,
/// crashed nodes restarted, link options restored, so the subsequent
/// quiescence window can check convergence and durability.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_NEMESIS_H
#define ADORE_CHAOS_NEMESIS_H

#include "sim/Cluster.h"
#include "support/Rng.h"

#include <string>
#include <vector>

namespace adore {
namespace chaos {

/// The fault composition a run exercises.
enum class Scenario : uint8_t {
  Mixed,       ///< Randomized policy over every fault family.
  Crashes,     ///< Crash/restart only.
  Partitions,  ///< Symmetric partitions only.
  Cuts,        ///< Directional link cuts only.
  NetChaos,    ///< Duplication storms + latency spikes/reordering.
  Reconfigs,   ///< Concurrent admin membership changes only.
  SplitBrain,  ///< Scripted: the leader is isolated by inbound cuts,
               ///< keeps sending heartbeats, heals late.
  CrashMidReconfig, ///< Scripted Fig. 4 hazard: membership change is
                    ///< requested, the leader crashes mid-change, a
                    ///< spare rejoins later.
  DiskFaults,  ///< Crash/restart + reconfigs against the durable store:
               ///< every crash powers the disk down (torn WAL tails,
               ///< garbage bytes) and every restart recovers from it.
  ShardReconfig, ///< Sharded pools only: migrate a group's replica set
                 ///< mid-traffic by committing a new pool map in the
                 ///< metadata group, then reconfiguring the group. In a
                 ///< single-group Nemesis this degrades to Reconfigs.
  KillForever, ///< Permanent random kills within the spare budget: the
               ///< victims never restart (not even at the horizon heal),
               ///< so only the self-healing pipeline — suspicion,
               ///< certified auto-reconfig, snapshot catch-up — can
               ///< bring the cluster back to full replication.
  ClockDrift,  ///< The read-path scenario: per-node clock skews wander
               ///< within NemesisOptions::MaxSkewUs (plus crash/restart
               ///< and reconfig churn), while the workload reads through
               ///< the ReadIndex/lease/follower tiers. Lease safety must
               ///< survive any skew the declared MaxDriftPpm envelope
               ///< admits; the horizon heal zeroes all skews.
};

const char *scenarioName(Scenario S);
std::vector<Scenario> allScenarios();

/// Nemesis knobs (virtual microseconds).
struct NemesisOptions {
  Scenario Kind = Scenario::Mixed;
  /// Active fault window, measured from start().
  sim::SimTime HorizonUs = 4000000;
  /// Mean gap between randomized actions.
  sim::SimTime MeanGapUs = 250000;
  /// Typical duration of an auto-healing fault (partition, cut, storm).
  sim::SimTime FaultDurationUs = 700000;
  /// Fault budget: concurrent crashed nodes / directional cuts.
  unsigned MaxCrashed = 1;
  unsigned MaxCuts = 2;
  /// KillForever budget: total permanent kills, normally the spare
  /// count (a kill beyond the spare budget is unhealable by design).
  unsigned MaxForeverKills = 2;
  /// ClockDrift: bound on the per-node skew installed by a drift move
  /// (drawn uniformly from [-MaxSkewUs, +MaxSkewUs]). Keep it small
  /// enough that effective-lease + 2*MaxSkewUs stays below the minimum
  /// election timeout, or the run *should* fail — pushing it beyond is
  /// how tests demonstrate the declared drift bound is load-bearing.
  sim::SimTime MaxSkewUs = 20000;
};

/// One entry of the nemesis action trace.
struct NemesisAction {
  sim::SimTime At = 0;
  std::string Desc;
};

/// Canonical rendering of an action trace ("<at> <desc>" per line),
/// byte-comparable across reruns.
std::string formatTrace(const std::vector<NemesisAction> &Trace);

/// The scheduler. Construct, then start(); all subsequent behaviour is
/// events on the cluster's queue, fully determined by (cluster, seed).
class Nemesis {
public:
  Nemesis(sim::Cluster &C, NemesisOptions Opts, uint64_t Seed);

  /// Schedules the first action and the heal-everything event at the
  /// horizon. Call once, after the cluster is started.
  void start();

  const std::vector<NemesisAction> &trace() const { return Trace; }
  /// Canonical rendering of the trace, byte-comparable across reruns.
  std::string traceString() const { return formatTrace(Trace); }

  /// True once the horizon heal ran: no fault outlives it.
  bool healedAll() const { return HealedAll; }

  size_t reconfigsRequested() const { return ReconfigsRequested; }
  size_t reconfigsCommitted() const { return ReconfigsCommitted; }

  /// Nodes permanently killed by Scenario::KillForever. Never restarted
  /// by the horizon heal; healing them is the healer's job, by
  /// reconfiguring them out.
  const NodeSet &killedForever() const { return KilledForever; }

private:
  void record(const std::string &Desc);
  void scheduleNextStep();
  void step();
  void healEverything();

  // Randomized fault moves; each returns false when not applicable in
  // the current cluster state (the policy then tries another family).
  bool moveCrash();
  bool moveRestart();
  bool movePartition();
  bool moveCut();
  bool moveNetStorm();
  bool moveReconfig();
  bool moveKillForever();
  bool moveClockDrift();

  void scriptSplitBrain();
  void scriptCrashMidReconfig();

  sim::Cluster *C;
  NemesisOptions Opts;
  Rng R;
  sim::SimTime StartAt = 0;
  sim::LinkOptions BaseLink;
  std::vector<NemesisAction> Trace;
  NodeSet Crashed;
  NodeSet KilledForever;
  /// Generation counters let auto-heal events detect that their fault
  /// was already lifted (and a new one possibly installed).
  uint64_t PartitionGen = 0;
  uint64_t StormGen = 0;
  bool StormActive = false;
  bool HealedAll = false;
  size_t ReconfigsRequested = 0;
  size_t ReconfigsCommitted = 0;
};

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_NEMESIS_H
