//===- chaos/Ledger.h - First-apply-wins committed ledger -----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The committed-ledger invariant, shared by the single-group and
/// sharded chaos runs: the first application of index I anywhere in a
/// consensus group defines the ledger entry for I, and every later
/// application of I (other replicas, or the same replica re-applying
/// after a restart) must match it exactly. Divergence here is a
/// consensus-safety bug. Sharded runs keep one ledger per group —
/// ledgers are a per-log notion and shards never share a log.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_CHAOS_LEDGER_H
#define ADORE_CHAOS_LEDGER_H

#include "sim/RaftNode.h"

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

} // namespace chaos
} // namespace adore

#endif // ADORE_CHAOS_LEDGER_H
