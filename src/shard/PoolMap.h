//===- shard/PoolMap.h - Replicated pool map value type -------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pool map: the single piece of cluster-wide metadata that tells
/// every client and server how the keyspace is laid out. It carries a
/// monotonically increasing generation, the node roster, the shard →
/// group assignment, and each group's current replica set. The map is
/// not configuration gossip — it is the replicated state machine of a
/// dedicated metadata consensus group (group 0), so every map change
/// rides the same certified reconfiguration machinery as any other
/// committed entry, and "which map is current" has a linearizable
/// answer.
///
/// Stale routing is detected by generation: a request stamped with an
/// older generation than the serving group's view earns a
/// WrongGroup{CurrentGen} NACK (see ShardedKvClient.h), prompting the
/// client to refetch and retry. Generations therefore must be strictly
/// monotone at every observer — an invariant the chaos harness checks
/// after every sharded run.
///
/// This header is pure value code: codec via core/Codec.h, no I/O, no
/// host types. The layering linter keeps it that way.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SHARD_POOLMAP_H
#define ADORE_SHARD_POOLMAP_H

#include "shard/Placement.h"
#include "support/NodeSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace adore {
namespace shard {

/// The pool map value. Plain data with value semantics; compared and
/// serialized field-by-field.
struct PoolMap {
  /// Strictly increasing with every committed map change. Generation 0
  /// is reserved for "no map"; the first real map is generation 1.
  uint64_t Generation = 0;

  /// Number of shards the keyspace is split into. Fixed for the
  /// lifetime of a pool in this PR (shard-count changes are the
  /// follow-on rebalance item); keys are placed with
  /// shardForKey(key, NumShards).
  uint32_t NumShards = 0;

  /// Shard -> owning group. Size NumShards. Groups are 1-based here:
  /// group 0 is the metadata group and never owns user shards.
  std::vector<GroupId> ShardToGroup;

  /// Group -> current replica set, indexed by GroupId. Index 0 is the
  /// metadata group itself. A group's replica set changes when a
  /// migration moves it onto new nodes; the change is only real once
  /// the map carrying it commits in group 0.
  std::vector<NodeSet> GroupReplicas;

  /// Every node known to the pool (members and spares of all groups).
  NodeSet Roster;

  /// Number of data groups (excludes the metadata group).
  uint32_t dataGroups() const {
    return GroupReplicas.empty()
               ? 0
               : static_cast<uint32_t>(GroupReplicas.size()) - 1;
  }

  /// Owning group of \p Shard, or InvalidGroupId if out of range.
  GroupId groupForShard(uint32_t Shard) const {
    return Shard < ShardToGroup.size() ? ShardToGroup[Shard] : InvalidGroupId;
  }

  /// Owning group of \p Key: placement then lookup.
  GroupId groupForKey(uint64_t Key) const {
    if (NumShards == 0)
      return InvalidGroupId;
    return groupForShard(shardForKey(Key, NumShards));
  }

  /// Structural sanity: nonzero generation and shards, every shard maps
  /// to an existing non-meta group, every replica set nonempty and
  /// within the roster.
  bool valid() const;

  bool operator==(const PoolMap &RHS) const {
    return Generation == RHS.Generation && NumShards == RHS.NumShards &&
           ShardToGroup == RHS.ShardToGroup &&
           GroupReplicas == RHS.GroupReplicas && Roster == RHS.Roster;
  }
  bool operator!=(const PoolMap &RHS) const { return !(*this == RHS); }

  /// Human-readable one-per-line rendering for traces and debugging.
  std::string str() const;
};

/// Builds the initial (generation 1) map for a uniform pool: \p Groups
/// data groups of \p MembersPerGroup nodes each plus a metadata group,
/// node ids assigned contiguously per group from disjoint id bases, and
/// \p NumShards shards dealt round-robin onto the data groups. Spares
/// (\p SparesPerGroup extra roster nodes per group) join the roster but
/// no replica set.
PoolMap makeUniformPoolMap(uint32_t Groups, uint32_t NumShards,
                           uint32_t MembersPerGroup, uint32_t SparesPerGroup,
                           uint32_t MetaMembers);

/// Node ids of group \p G live in [groupIdBase(G)+1, ...]: disjoint
/// per-group ranges so a node id alone identifies its group. Group 0
/// (metadata) is based at 0, so its ids are the familiar 1..N.
inline NodeId groupIdBase(GroupId G) { return static_cast<NodeId>(G) * 1000; }

/// The group whose id range holds \p Id (the inverse of groupIdBase for
/// ids groupIdBase(G)+1 .. groupIdBase(G)+999).
inline GroupId groupOfNode(NodeId Id) { return static_cast<GroupId>(Id / 1000); }

/// Binary codec (core/Codec.h framing). encodePoolMap appends to \p Out;
/// decodePoolMap consumes the whole buffer and returns false on any
/// bounds violation, trailing bytes, or structurally invalid map.
void encodePoolMap(std::string &Out, const PoolMap &M);
bool decodePoolMap(const std::string &Bytes, PoolMap &M);

} // namespace shard
} // namespace adore

#endif // ADORE_SHARD_POOLMAP_H
