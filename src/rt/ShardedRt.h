//===- rt/ShardedRt.h - Multi-group pool on the rt runtime ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded multi-group pool: a metadata RtCluster (group 0)
/// replicating the pool map, plus N data RtClusters, all multiplexed
/// over one wire Bus. Groups stay apart on the shared bus purely by
/// disjoint endpoint ids (shard::groupIdBase), the same scheme the
/// simulator's ShardedCluster uses on its shared event queue — so a
/// frame's destination id is its group tag and no frame format changes.
///
/// The pool map is the meta group's state machine, a shard::MapLedger
/// behind a mutex: proposeMap() registers the map under a ticket
/// MethodId and submits the ticket through the meta log; the first apply
/// of the ticket anywhere decides it, installing the map iff its
/// generation is exactly committed+1 (CAS — concurrent proposals lose
/// and report failure). Servers check ingress against the committed map
/// and NACK stale-routed requests with the current generation, which is
/// what drives the routing client's refetch loop.
///
/// Store-backed mode gives every group its own disk namespace: group G
/// persists under "gG/n<id>" (and each internally-created MemVfs is
/// per-group anyway), so no two groups ever share a WAL or snapshot
/// directory.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RT_SHARDEDRT_H
#define ADORE_RT_SHARDEDRT_H

#include "rt/RtCluster.h"
#include "shard/MapLedger.h"
#include "shard/ShardedKvClient.h"

#include <memory>
#include <optional>
#include <vector>

namespace adore {
namespace rt {

/// Knobs for a threaded sharded pool.
struct ShardedRtOptions {
  /// Template applied to every group (scheme, core timeouts, durable
  /// store, transport kind). NumNodes/NumSpares/IdBase/SharedNet/
  /// StoreDirPrefix/OnApplyExtra are overwritten per group; Seed seeds
  /// the pool-wide master stream.
  RtClusterOptions Group;
  /// Data consensus groups (the metadata group is extra).
  size_t Groups = 2;
  /// Shards the keyspace splits into (jump hash).
  uint32_t NumShards = 16;
  /// Initial members per data group.
  size_t Members = 3;
  /// Spare (initially passive) replicas per data group — migration
  /// targets.
  size_t Spares = 2;
  /// Metadata group size.
  size_t MetaMembers = 3;
};

/// Owns the shared bus, the meta and data clusters, and the committed
/// pool map. Thread-safe where noted; lifecycle from one thread.
class ShardedRtCluster {
public:
  explicit ShardedRtCluster(ShardedRtOptions Opts);
  ~ShardedRtCluster();

  ShardedRtCluster(const ShardedRtCluster &) = delete;
  ShardedRtCluster &operator=(const ShardedRtCluster &) = delete;

  void start();
  void stop();

  size_t dataGroups() const { return GroupClusters.size() - 1; }
  const ShardedRtOptions &options() const { return Opts; }

  /// Group 0 is the metadata group; 1..dataGroups() are data groups.
  RtCluster &group(shard::GroupId G) { return *GroupClusters[G]; }
  RtCluster &meta() { return *GroupClusters[shard::MetaGroupId]; }

  /// Blocks until every group (meta included) has a leader, or the
  /// budget runs out; returns whether all converged.
  bool waitForAllLeaders(uint64_t TimeoutMs);

  /// Snapshot of the committed pool map (any thread).
  shard::PoolMap committedMap() const ADORE_EXCLUDES(MapMu);

  /// Proposes \p NewMap through the meta group's log and waits for its
  /// ticket to be decided. Returns true iff the map was installed (its
  /// generation was exactly committed+1 when the ticket applied).
  bool proposeMap(const shard::PoolMap &NewMap, uint64_t TimeoutMs)
      ADORE_EXCLUDES(MapMu);

  /// Server-side routing validation against the committed map: NACK
  /// with the current generation iff the shard is not owned by \p G
  /// under the current map or the client's stamp is behind it.
  std::optional<shard::WrongGroupNack>
  ingressCheck(shard::GroupId G, uint32_t Shard, uint64_t ClientGen) const
      ADORE_EXCLUDES(MapMu);

  /// Committed map changes beyond the initial map (any thread).
  uint64_t mapChangesCommitted() const ADORE_EXCLUDES(MapMu);

private:
  ShardedRtOptions Opts;
  /// Declared before the clusters: every node posts to it until stop().
  /// Kind chosen by Opts.Group.Transport (bus or loopback TCP).
  std::unique_ptr<Transport> Net;
  /// Slot 0 = metadata group.
  std::vector<std::unique_ptr<RtCluster>> GroupClusters;

  mutable sync::Mutex MapMu;
  mutable sync::CondVar MapCv;
  shard::MapLedger Ledger ADORE_GUARDED_BY(MapMu);
};

} // namespace rt
} // namespace adore

#endif // ADORE_RT_SHARDEDRT_H
