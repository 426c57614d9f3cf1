//===- shard/MapLedger.h - The pool map's generation-CAS ledger -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metadata group's state machine, apart from any host. A map change
/// is proposed under a ticket, a MethodId the host submits through the
/// metadata group's log. The first apply of a meta index decides the
/// ticket found there: the proposed map installs iff it is valid and its
/// generation is exactly committed+1. A concurrent proposal for the same
/// generation commits in the log too, but as a no-op whose verdict is
/// false. That compare-and-set is what keeps committed generations
/// strictly monotone, so `generation == 1 + changes()` holds by
/// construction and is what the chaos drivers audit at the end of a run.
///
/// Both sim::ShardedCluster and rt::ShardedRtCluster wrap one ledger.
/// The sim host adds delayed server views and fetch latency; the rt host
/// adds a mutex, a condition-variable wait for the verdict, and an early
/// reject of proposals that are already stale.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_SHARD_MAPLEDGER_H
#define ADORE_SHARD_MAPLEDGER_H

#include "core/RaftCore.h"
#include "shard/PoolMap.h"

#include <map>
#include <optional>

namespace adore {
namespace shard {

class MapLedger {
public:
  explicit MapLedger(PoolMap Initial) : Committed(std::move(Initial)) {}

  /// The latest installed map.
  const PoolMap &committed() const { return Committed; }

  /// Installed changes past the initial map.
  uint64_t changes() const { return Changes; }

  /// Records \p M and returns the ticket to submit through the meta log.
  MethodId propose(PoolMap M) {
    MethodId Ticket = NextTicket++;
    Proposals.emplace(Ticket, std::move(M));
    return Ticket;
  }

  /// Feeds one meta-group apply (any replica, any order of replicas).
  /// Only the first apply of each index counts, since every replica
  /// applies the same ledger in index order, and only a pending ticket
  /// is decided. Returns true iff this apply installed a map.
  bool apply(size_t Index, const core::LogEntry &E) {
    if (E.Kind != raft::EntryKind::Method || E.Method == 0 ||
        Index <= IndexSeen)
      return false;
    IndexSeen = Index;
    auto It = Proposals.find(E.Method);
    if (It == Proposals.end())
      return false; // Not a pending ticket (e.g. a term-start noop).
    bool Install = It->second.valid() &&
                   It->second.Generation == Committed.Generation + 1;
    if (Install) {
      Committed = std::move(It->second);
      ++Changes;
    }
    Decided[E.Method] = Install;
    Proposals.erase(It);
    return Install;
  }

  /// The decided verdict of \p Ticket, or nullopt while undecided.
  std::optional<bool> verdict(MethodId Ticket) const {
    auto It = Decided.find(Ticket);
    return It == Decided.end() ? std::nullopt : std::optional(It->second);
  }

private:
  PoolMap Committed;
  /// Pending tickets; a ticket leaves when its first apply decides it,
  /// so a re-committed ticket cannot overturn its verdict.
  std::map<MethodId, PoolMap> Proposals;
  std::map<MethodId, bool> Decided;
  MethodId NextTicket = 1;
  size_t IndexSeen = 0;
  uint64_t Changes = 0;
};

} // namespace shard
} // namespace adore

#endif // ADORE_SHARD_MAPLEDGER_H
