//===- store/NodeStore.h - Per-replica durable store ----------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One replica's durable persistence: a rotating CRC-framed WAL plus
/// snapshot checkpoints under a per-node directory of a Vfs, and a
/// recovery path that rebuilds the durable fields of a core::RaftCore
/// from snapshot + replay, truncating (never loading) corrupt tails.
///
/// The write path is diff-based and group-committed: persistFrom()
/// compares the core's term/vote/log against an in-memory mirror of
/// what the WAL already holds and appends only the difference (a
/// Truncate for a conflict-suffix drop, Appends for new slots, a
/// TermVote when either changed); records land in the file immediately
/// but are not durable until sync(), which issues ONE fsync for the
/// whole batch — including any Commit records that rode along — and is
/// where segment rotation and snapshot compaction happen.
///
/// Hosts call persistFrom(core, first changed slot)+sync() before acting on any effect of a
/// batch that carries a Persist effect (persist-before-act), call
/// noteCommit() on CommitAdvanced (deferred: rides the next sync), and
/// on restart call open() and install the RecoveredState into the core.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_STORE_NODESTORE_H
#define ADORE_STORE_NODESTORE_H

#include "core/RaftCore.h"
#include "store/Vfs.h"
#include "store/Wal.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace adore {
namespace store {

/// Compaction thresholds (bytes of WAL, checked at sync boundaries).
struct StoreOptions {
  /// Rotate to a fresh segment once the current one exceeds this.
  uint64_t SegmentBytes = 16 * 1024;
  /// Snapshot + delete old segments once this much WAL has accumulated
  /// since the last snapshot.
  uint64_t SnapshotEveryBytes = 64 * 1024;
};

/// What open() recovered from disk.
struct RecoveredState {
  Time Term = 0;
  std::optional<NodeId> Vote;
  std::vector<core::LogEntry> Log;
  size_t CommitIndex = 0;
  bool FromSnapshot = false;
  /// A torn/corrupt WAL tail (or corrupt snapshot) was detected and cut
  /// off. The surviving prefix is still valid state.
  bool TailCorruptionDetected = false;
  uint64_t TruncatedBytes = 0;
  size_t RecordsReplayed = 0;
  size_t SegmentsScanned = 0;
  /// Set when the directory is unrecoverable (e.g. every snapshot is
  /// corrupt and the WAL prefix it covered is already compacted away).
  /// The store refuses to guess: no state is loaded.
  std::optional<std::string> Error;
};

/// Lifetime counters, aggregatable across nodes and runs.
struct StoreStats {
  uint64_t Syncs = 0;
  uint64_t RecordsWritten = 0;
  uint64_t BytesWritten = 0;
  /// Largest number of records made durable by a single fsync
  /// (group-commit batch size high-water mark).
  uint64_t MaxBatchRecords = 0;
  uint64_t Snapshots = 0;
  uint64_t SegmentsCreated = 0;
  uint64_t SegmentsDeleted = 0;
  uint64_t Recoveries = 0;
  uint64_t TornTailsDetected = 0;
  uint64_t TruncatedBytes = 0;
  uint64_t RecoveryUsTotal = 0;
  uint64_t RecoveryUsMax = 0;

  void accumulate(const StoreStats &O);
};

/// One replica's durable store rooted at \p Dir within \p V. Not
/// internally synchronized: each node owns its store and drives it from
/// one thread at a time (the Vfs underneath is the shared, locked
/// layer).
class NodeStore {
public:
  NodeStore(Vfs &V, std::string Dir, StoreOptions Opts = StoreOptions());

  /// Scans the directory and rebuilds durable state: newest valid
  /// snapshot, then WAL replay in segment order, stopping at — and
  /// physically truncating — the first corrupt byte. Leaves the store
  /// positioned to append. Call once at start and again after crash().
  RecoveredState open();

  /// Diffs the core's durable fields against the WAL mirror and appends
  /// the delta (unsynced). \p FirstChanged is the lowest log slot the
  /// core changed since the store last persisted it — the minimum Index
  /// over the Persist effects of the batch — so only the suffix from
  /// there is compared: O(changed suffix), not O(log). Returns false on
  /// I/O error.
  bool persistFrom(const core::RaftCore &Core, size_t FirstChanged);

  /// Full-diff reference form of persistFrom for arbitrary states: the
  /// whole log is compared with the mirror (tests).
  bool persistState(Time Term, std::optional<NodeId> Vote,
                    const std::vector<core::LogEntry> &Log);

  /// Records a commit-index advance (unsynced; rides the next sync()).
  void noteCommit(size_t Index);

  /// Group commit: one fsync covering every record appended since the
  /// last barrier, then rotation/snapshot housekeeping.
  bool sync();

  /// Simulated power loss: fires the crash hook (MemVfs::crashDir) and
  /// closes the store; the next open() recovers from what survived.
  void crash();

  /// Hook run by crash(); cluster harnesses point it at the fault
  /// injector so the store stays ignorant of the Vfs's concrete type.
  void setCrashHook(std::function<void()> Hook) { CrashHook = std::move(Hook); }

  const StoreStats &stats() const { return Stats; }
  const std::string &dir() const { return Dir; }
  bool isOpen() const { return Open; }
  /// Current WAL segment sequence number (tests).
  uint64_t segmentSeq() const { return CurSeq; }

private:
  std::string segPath(uint64_t Seq) const;
  std::string snapPath(uint64_t Seq) const;
  bool appendRecord(const std::string &Payload);
  /// The diff both persist forms share; slots below \p From (1-based)
  /// are taken to equal the mirror's.
  bool persistSuffix(Time Term, std::optional<NodeId> Vote,
                     const std::vector<core::LogEntry> &Log, size_t From);
  bool createSegment(uint64_t Seq);
  bool takeSnapshot();
  bool rotateSegment();

  Vfs &V;
  std::string Dir;
  StoreOptions Opts;
  std::function<void()> CrashHook;

  bool Open = false;
  uint64_t CurSeq = 0;
  /// Records appended since the last sync barrier (group-commit size).
  uint64_t UnsyncedRecords = 0;
  /// WAL bytes laid down since the last snapshot (compaction trigger).
  uint64_t WalBytesSinceSnapshot = 0;

  // Mirror of what the WAL+snapshot durably encode, for diffing.
  Time MirrorTerm = 0;
  std::optional<NodeId> MirrorVote;
  std::vector<core::LogEntry> MirrorLog;
  size_t MirrorCommit = 0;

  StoreStats Stats;
};

} // namespace store
} // namespace adore

#endif // ADORE_STORE_NODESTORE_H
