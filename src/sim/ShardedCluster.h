//===- sim/ShardedCluster.h - N consensus groups, one timeline -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simulated sharded pool: one metadata consensus group (group 0)
/// whose replicated state machine is the pool map, plus N independent
/// data groups, all interleaved on a single discrete-event queue so a
/// whole multi-group deployment stays deterministic in one seed.
///
/// The map lifecycle mirrors the single-object reconfiguration story at
/// pool scale: a map change is *proposed* as an ordinary command to the
/// metadata group, becomes *committed* when that group applies it (the
/// committed ledger of group 0 is the authoritative map history), and
/// then *propagates* — each data group's server-side view catches up
/// after a broadcast latency, and clients catch up lazily via
/// WrongGroup NACKs. Between commit and propagation the system is
/// intentionally inconsistent; the generation arithmetic (strict
/// monotonicity everywhere, checked post-run) is what keeps that window
/// safe.
///
/// Node ids are group-disjoint (group g owns ids g*1000+1 ...), so any
/// node id names its group, and store-backed groups land in disjoint
/// per-group WAL/snapshot directories.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SIM_SHARDEDCLUSTER_H
#define ADORE_SIM_SHARDEDCLUSTER_H

#include "shard/MapLedger.h"
#include "shard/PoolMap.h"
#include "shard/ShardedKvClient.h"
#include "sim/Cluster.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace sim {

/// Sharded-pool knobs. Group-level options (network, timers, durable
/// store) apply uniformly to the metadata group and every data group.
struct ShardedClusterOptions {
  ClusterOptions Group;
  /// Number of data groups (the metadata group is extra).
  uint32_t Groups = 2;
  uint32_t NumShards = 16;
  /// Initial members / spare nodes per data group.
  uint32_t Members = 3;
  uint32_t Spares = 2;
  /// Metadata group size (no spares; migrations never touch group 0).
  uint32_t MetaMembers = 3;
  /// Commit-to-server-view propagation delay of a new pool map.
  SimTime MapBroadcastLatencyUs = 2000;
  /// Client map-fetch round trip.
  SimTime MapFetchLatencyUs = 1000;
};

/// The pool: meta group + data groups sharing one virtual timeline.
class ShardedCluster {
public:
  ShardedCluster(const ReconfigScheme &Scheme, ShardedClusterOptions Opts,
                 uint64_t Seed);

  EventQueue &queue() { return Queue; }
  const ReconfigScheme &scheme() const { return *Scheme; }
  const ShardedClusterOptions &options() const { return Opts; }

  uint32_t dataGroups() const { return Opts.Groups; }
  Cluster &meta() { return group(shard::MetaGroupId); }
  Cluster &group(shard::GroupId G);
  const Cluster &group(shard::GroupId G) const;

  /// Arms every group's election timers.
  void start();

  /// Runs until every group (meta included) has a leader, or \p MaxWaitUs
  /// virtual time passes; true iff all groups lead.
  bool runUntilAllLeaders(SimTime MaxWaitUs);

  //===--------------------------------------------------------------===//
  // Pool map
  //===--------------------------------------------------------------===//

  /// The latest map committed by the metadata group.
  const shard::PoolMap &committedMap() const { return Ledger.committed(); }

  /// Proposes \p NewMap as a command to the metadata group. \p Done fires
  /// with true iff the proposal committed *and* was installed (its
  /// generation was exactly committed+1 at apply time — a concurrent
  /// competing proposal loses and gets false).
  void proposeMap(shard::PoolMap NewMap, std::function<void(bool)> Done,
                  SimTime MaxTriesUs = 10000000);

  /// Server-side admission check a data group runs on every routed
  /// request: NACK with the group's current generation when the request
  /// was stamped with an older map, or when the group's own view says it
  /// does not own the shard.
  std::optional<shard::WrongGroupNack>
  ingressCheck(shard::GroupId G, uint32_t Shard, uint64_t ClientGen) const;

  /// Client map refetch: delivers the committed map after the fetch
  /// latency (the metadata group's leader answering a linearizable read).
  void fetchMap(std::function<void(const shard::PoolMap &)> Done);

  //===--------------------------------------------------------------===//
  // Inspection
  //===--------------------------------------------------------------===//

  /// Server-view audit: every view install must be non-decreasing.
  /// (Committed installs are strictly newer by the ledger's CAS.) Empty
  /// means the invariant held.
  const std::vector<std::string> &mapViolations() const {
    return MapViolationsVec;
  }

  /// Number of installed (effective) map changes past the initial map.
  uint64_t mapChangesCommitted() const { return Ledger.changes(); }

  /// A seed forked from this pool's master stream for client-side
  /// randomness (retry jitter), independent of the group streams.
  uint64_t clientSeed() const { return ClientSeed; }

private:
  void broadcast(const shard::PoolMap &M);

  const ReconfigScheme *Scheme;
  ShardedClusterOptions Opts;
  /// The shared timeline; declared before the groups, which hold a
  /// pointer into it (destruction runs bottom-up).
  EventQueue Queue;
  /// Indexed by GroupId; slot 0 is the metadata group.
  std::vector<std::unique_ptr<Cluster>> GroupClusters;

  shard::MapLedger Ledger;
  /// Per-group server-side map view, indexed by GroupId.
  std::vector<shard::PoolMap> ServerView;
  uint64_t ClientSeed = 1;
  std::vector<std::string> MapViolationsVec;
};

} // namespace sim
} // namespace adore

#endif // ADORE_SIM_SHARDEDCLUSTER_H
