//===- host/Replica.cpp - The one effect interpreter for the Raft core ------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "host/Replica.h"

using namespace adore;

void host::recoverFromStore(core::RaftCore &Core, store::NodeStore &Store,
                            bool CheckAgainstCore,
                            std::vector<std::string> &Mismatches) {
  auto Mismatch = [&](const std::string &What) {
    Mismatches.push_back("S" + std::to_string(Core.id()) +
                         " store recovery: " + What);
  };

  store::RecoveredState RS = Store.open();
  if (RS.Error) {
    // Unrecoverable directory. Leave the in-memory state in place (so
    // the run can proceed) but report it: under the supported fault
    // model this must never happen.
    Mismatch(*RS.Error);
    return;
  }

  if (CheckAgainstCore) {
    if (RS.Term != Core.term())
      Mismatch("recovered term " + std::to_string(RS.Term) +
               " != in-memory " + std::to_string(Core.term()));
    if (RS.Vote != Core.votedFor())
      Mismatch("recovered vote differs from in-memory vote");
    if (RS.Log != Core.log())
      Mismatch("recovered log (" + std::to_string(RS.Log.size()) +
               " entries) differs from in-memory log (" +
               std::to_string(Core.log().size()) + " entries)");
    if (RS.CommitIndex > Core.commitIndex())
      Mismatch("recovered commit index " + std::to_string(RS.CommitIndex) +
               " ahead of in-memory " + std::to_string(Core.commitIndex()));
  }

  Core.installDurableState(RS.Term, RS.Vote, std::move(RS.Log),
                           RS.CommitIndex);
}
