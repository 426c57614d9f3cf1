//===- raft/Message.h - Network messages ----------------------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four message types of the network-based Raft specification
/// (Fig. 13): election requests/acknowledgements and commit
/// requests/acknowledgements. Following the paper's simplified protocol,
/// requests carry the sender's full log (a candidate ships its log for
/// the up-to-date check; a leader ships its log for wholesale adoption).
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_RAFT_MESSAGE_H
#define ADORE_RAFT_MESSAGE_H

#include "adore/Config.h"
#include "support/Ids.h"

#include <cassert>
#include <string>
#include <vector>

namespace adore {
namespace raft {

/// What a log slot holds.
enum class EntryKind : uint8_t {
  Method,   ///< An application command.
  Reconfig, ///< A configuration change (takes effect on log entry).
};

//===----------------------------------------------------------------------===//
// Shared log helpers
//===----------------------------------------------------------------------===//
//
// Both protocol implementations — the spec-level raft::RaftSystem and the
// executable core::RaftCore — need the same three log judgments: the
// voting up-to-date comparison, the last log term, and the configuration
// in force after a prefix. They are defined once here as templates over
// the entry type; each entry type provides an ADL-visible entryTerm()
// accessor (the spec entry names its term T, the executable one Term).

/// Raft's voting comparison (§5.4.1) on (last term, length) summaries:
/// true iff a log ending in \p LastTermA with \p LenA entries is at least
/// as up-to-date as one ending in \p LastTermB with \p LenB entries.
/// Exact ties — including two empty logs — compare as up-to-date, so a
/// replica may vote for a candidate whose log equals its own.
inline bool logAtLeastAsUpToDate(Time LastTermA, size_t LenA,
                                 Time LastTermB, size_t LenB) {
  if (LastTermA != LastTermB)
    return LastTermA > LastTermB;
  return LenA >= LenB;
}

/// Term of the last entry of \p Log; 0 for the empty log.
template <typename EntryT>
Time lastLogTerm(const std::vector<EntryT> &Log) {
  return Log.empty() ? 0 : entryTerm(Log.back());
}

/// Full-log form of the up-to-date comparison: true iff \p A is at least
/// as up-to-date as \p B.
template <typename EntryA, typename EntryB>
bool logUpToDate(const std::vector<EntryA> &A, const std::vector<EntryB> &B) {
  return logAtLeastAsUpToDate(lastLogTerm(A), A.size(), lastLogTerm(B),
                              B.size());
}

/// The 1-based index of the newest Reconfig entry among the first \p Len
/// entries of \p Log; 0 if there is none.
template <typename EntryT>
size_t lastReconfigIndex(const std::vector<EntryT> &Log, size_t Len) {
  assert(Len <= Log.size() && "prefix out of range");
  for (size_t I = Len; I > 0; --I)
    if (Log[I - 1].Kind == EntryKind::Reconfig)
      return I;
  return 0;
}

/// The configuration in force after the first \p Len entries of \p Log
/// under hot semantics (a Reconfig entry acts upon insertion): the newest
/// Reconfig entry in the prefix wins, \p Initial if there is none.
template <typename EntryT>
Config configOfPrefix(const std::vector<EntryT> &Log, size_t Len,
                      const Config &Initial) {
  size_t I = lastReconfigIndex(Log, Len);
  return I == 0 ? Initial : Log[I - 1].Conf;
}

/// One slot of a replica's log.
struct Entry {
  EntryKind Kind = EntryKind::Method;
  /// The term under which the entry was created.
  Time T = 0;
  /// The application command (Method entries).
  MethodId Method = 0;
  /// The configuration in effect *after* this entry: a Reconfig entry's
  /// new configuration, or the inherited one for Method entries.
  Config Conf;

  bool operator==(const Entry &RHS) const {
    return Kind == RHS.Kind && T == RHS.T && Method == RHS.Method &&
           Conf == RHS.Conf;
  }
};

/// ADL hook for the shared log helpers above.
inline Time entryTerm(const Entry &E) { return E.T; }

/// Message discriminator.
enum class MsgKind : uint8_t {
  ElectReq,  ///< Candidate -> replica: vote request (carries the log).
  ElectAck,  ///< Replica -> candidate: vote granted.
  CommitReq, ///< Leader -> replica: replicate my log (AppendEntries).
  CommitAck, ///< Replica -> leader: log of length Len accepted.
};

const char *msgKindName(MsgKind Kind);

/// A network message. Value-semantic; the network holds them in a sent
/// multiset from which the scheduler picks deliveries in any order.
struct Msg {
  MsgKind Kind = MsgKind::ElectReq;
  NodeId From = InvalidNodeId;
  NodeId To = InvalidNodeId;
  /// The round's timestamp (term).
  Time T = 0;
  /// CommitAck: accepted log length. CommitReq: sender's commit index.
  size_t Len = 0;
  /// ElectReq/CommitReq: the sender's full log.
  std::vector<Entry> Log;

  std::string str() const;
};

} // namespace raft
} // namespace adore

#endif // ADORE_RAFT_MESSAGE_H
