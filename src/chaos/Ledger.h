//===- chaos/Ledger.h - Committed ledger and per-group checks -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The group-level checks shared by the single-group and sharded sim
/// chaos runs. The committed-ledger invariant: the first application of
/// index I anywhere in a consensus group defines the ledger entry for I,
/// and every later application of I (other replicas, or the same
/// replica re-applying after a restart) must match it exactly.
/// Divergence here is a consensus-safety bug. Sharded runs keep one
/// ledger per group — ledgers are a per-log notion and shards never
/// share a log. On top of it, the self-healing "full strength" probe and
/// the end-of-run walk over one group; a sharded run tags each group's
/// violations with "group G: ", a single-group run passes no tag.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_LEDGER_H
#define ADORE_CHAOS_LEDGER_H

#include "kv/KvStore.h"
#include "sim/Cluster.h"

#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace chaos {

/// First-apply-wins committed ledger of one consensus group.
struct CommittedLedger {
  std::vector<core::LogEntry> Entries;
  std::optional<std::string> Violation;

  void observe(NodeId Node, size_t Index, const core::LogEntry &E) {
    if (Violation)
      return;
    if (Index == Entries.size() + 1) {
      Entries.push_back(E);
      return;
    }
    if (Index > Entries.size() + 1) {
      Violation = "apply gap: S" + std::to_string(Node) + " applied index " +
                  std::to_string(Index) + " with ledger at " +
                  std::to_string(Entries.size());
      return;
    }
    const core::LogEntry &Seen = Entries[Index - 1];
    if (Seen.Term != E.Term || Seen.Kind != E.Kind ||
        Seen.Method != E.Method || Seen.Conf != E.Conf ||
        Seen.ClientSeq != E.ClientSeq)
      Violation = "committed-ledger divergence at index " +
                  std::to_string(Index) + ": S" + std::to_string(Node) +
                  " applied a different entry than first committed";
  }
};

/// Full strength for the self-healing check: the leader's configuration
/// has at least \p Target members and every one of them is alive with
/// the leader's whole commit prefix in its log.
inline bool fullyReplicated(const sim::Cluster &C,
                            const ReconfigScheme &Scheme, NodeId Leader,
                            size_t Target) {
  NodeSet Members = Scheme.mbrs(C.node(Leader).config());
  if (Members.size() < Target)
    return false;
  size_t Commit = C.node(Leader).commitIndex();
  for (NodeId M : Members) {
    const sim::RaftNode &Node = C.node(M);
    if (Node.isCrashed() || Node.logSize() < Commit)
      return false;
  }
  return true;
}

/// Appends to \p Out, each prefixed by \p Tag, every end-of-run
/// violation of one group. \p Kv is the group's KV store (the metadata
/// group has none); \p KilledForever are its permanently killed nodes.
inline void checkGroupAtEnd(const sim::Cluster &C,
                            const ReconfigScheme &Scheme,
                            const CommittedLedger &Ledger,
                            const kv::ReplicatedKvStore *Kv,
                            const NodeSet &KilledForever,
                            const std::string &Tag,
                            std::vector<std::string> &Out) {
  // Store-backed recovery cross-checks: every restart's recovered
  // term/vote/log must equal the idealized in-memory copy (only deferred
  // commit records may be lost), and no directory may be unrecoverable.
  for (const std::string &V : C.storeViolations())
    Out.push_back(Tag + "durable store: " + V);
  if (Ledger.Violation)
    Out.push_back(Tag + *Ledger.Violation);
  if (std::optional<std::string> V = C.checkLeaderUniqueness())
    Out.push_back(Tag + "election safety: " + *V);
  if (std::optional<std::string> V = C.checkCommittedAgreement())
    Out.push_back(Tag + "committed agreement: " + *V);

  // Durability + convergence: after heal and quiescence, some node leads
  // and every member of its configuration holds the full committed
  // prefix (nothing committed was lost to any crash/restart/reconfig)
  // with identical KV state. Self-healing must have ejected every
  // permanently killed node by then.
  std::optional<NodeId> FinalLeader = C.leader();
  if (!FinalLeader) {
    Out.push_back(Tag + "no leader after heal + quiescence:\n" + C.dump());
    return;
  }
  std::optional<NodeId> First;
  for (NodeId M : Scheme.mbrs(C.node(*FinalLeader).config())) {
    const sim::RaftNode &Node = C.node(M);
    if (KilledForever.contains(M))
      Out.push_back(Tag + "self-healing: permanently killed S" +
                    std::to_string(M) +
                    " is still a member of the final configuration");
    if (Node.isCrashed()) {
      Out.push_back(Tag + "S" + std::to_string(M) +
                    " still crashed after heal");
      continue;
    }
    if (Node.commitIndex() < Ledger.Entries.size()) {
      Out.push_back(Tag + "durability: S" + std::to_string(M) +
                    " commit index " + std::to_string(Node.commitIndex()) +
                    " < committed ledger " +
                    std::to_string(Ledger.Entries.size()));
      continue;
    }
    if (!Kv)
      continue;
    if (!First)
      First = M;
    else if (!(Kv->replica(M) == Kv->replica(*First)))
      Out.push_back(Tag + "convergence: KV state of S" + std::to_string(M) +
                    " differs from S" + std::to_string(*First));
  }
}

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_LEDGER_H
