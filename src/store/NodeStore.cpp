//===- store/NodeStore.cpp - Per-replica durable store ----------------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "store/NodeStore.h"

#include <algorithm>
#include <chrono>

using namespace adore;
using namespace adore::store;

void StoreStats::accumulate(const StoreStats &O) {
  Syncs += O.Syncs;
  RecordsWritten += O.RecordsWritten;
  BytesWritten += O.BytesWritten;
  MaxBatchRecords = std::max(MaxBatchRecords, O.MaxBatchRecords);
  Snapshots += O.Snapshots;
  SegmentsCreated += O.SegmentsCreated;
  SegmentsDeleted += O.SegmentsDeleted;
  Recoveries += O.Recoveries;
  TornTailsDetected += O.TornTailsDetected;
  TruncatedBytes += O.TruncatedBytes;
  RecoveryUsTotal += O.RecoveryUsTotal;
  RecoveryUsMax = std::max(RecoveryUsMax, O.RecoveryUsMax);
}

NodeStore::NodeStore(Vfs &V, std::string Dir, StoreOptions Opts)
    : V(V), Dir(std::move(Dir)), Opts(Opts) {}

std::string NodeStore::segPath(uint64_t Seq) const {
  return Dir + "/" + segmentName(Seq);
}

std::string NodeStore::snapPath(uint64_t Seq) const {
  return Dir + "/" + snapshotName(Seq);
}

//===----------------------------------------------------------------------===//
// Recovery
//===----------------------------------------------------------------------===//

RecoveredState NodeStore::open() {
  auto T0 = std::chrono::steady_clock::now();
  RecoveredState RS;

  // Inventory the directory. Names are zero-padded so the sorted list()
  // order is numeric order; anything unparsable (stray tmp files) is
  // ignored.
  std::vector<std::pair<uint64_t, std::string>> Snaps, Segs;
  for (const std::string &P : V.list(Dir + "/snap-")) {
    uint64_t Seq;
    if (parseTrailingSeq(P, Seq))
      Snaps.emplace_back(Seq, P);
  }
  for (const std::string &P : V.list(Dir + "/wal-")) {
    uint64_t Seq;
    if (parseTrailingSeq(P, Seq))
      Segs.emplace_back(Seq, P);
  }

  // Pick the newest decodable snapshot as the baseline. Falling back to
  // an older snapshot is only sound if the WAL records it was missing
  // still exist — i.e. the segment the snapshot points at survives. If
  // compaction already deleted them, loading the older snapshot would
  // silently resurrect stale state, so the store refuses instead.
  uint64_t StartSeq = 1;
  std::vector<std::string> CorruptSnaps;
  bool HaveBase = false;
  for (auto It = Snaps.rbegin(); It != Snaps.rend(); ++It) {
    std::string Bytes;
    uint64_t Term = 0, Commit = 0;
    std::optional<NodeId> Vote;
    std::vector<core::LogEntry> Log;
    if (!V.readFile(It->second, Bytes) ||
        !decodeSnapshot(Bytes, Term, Vote, Commit, Log)) {
      CorruptSnaps.push_back(It->second);
      RS.TailCorruptionDetected = true;
      continue;
    }
    auto FirstGE = std::find_if(Segs.begin(), Segs.end(), [&](const auto &S) {
      return S.first >= It->first;
    });
    if (FirstGE != Segs.end() && FirstGE->first > It->first) {
      RS.Error = "snapshot " + It->second +
                 " decodes but its WAL segment is missing (compacted gap); "
                 "refusing to load stale state";
      return RS;
    }
    RS.Term = Term;
    RS.Vote = Vote;
    RS.Log = std::move(Log);
    RS.CommitIndex = Commit;
    RS.FromSnapshot = true;
    StartSeq = It->first;
    HaveBase = true;
    break;
  }
  if (!HaveBase && !CorruptSnaps.empty()) {
    // Every snapshot is corrupt. Full replay from segment 1 is the only
    // safe fallback, and only if that prefix still exists.
    if (Segs.empty() || Segs.front().first != 1) {
      RS.Error = "all snapshots corrupt and the WAL prefix they covered "
                 "is compacted away; refusing to load corrupt state";
      return RS;
    }
  }

  // Replay segments StartSeq, StartSeq+1, ... in order. The scan stops
  // at the first invalid byte; the corrupt tail is physically truncated
  // and any later segments (now unreachable history) are deleted.
  uint64_t Expected = StartSeq;
  bool Stopped = false;
  uint64_t LastSeen = 0;
  for (const auto &[Seq, Path] : Segs) {
    if (Seq < StartSeq)
      continue; // Covered by the snapshot; compaction will remove it.
    if (Stopped || Seq != Expected) {
      // A gap (or an earlier stop) means this segment's records no
      // longer connect to the recovered prefix. Drop it.
      RS.TailCorruptionDetected = true;
      Stats.TruncatedBytes += V.fileSize(Path);
      RS.TruncatedBytes += V.fileSize(Path);
      V.removeFile(Path);
      Stats.SegmentsDeleted++;
      continue;
    }
    ++RS.SegmentsScanned;
    std::string Bytes;
    V.readFile(Path, Bytes);
    SegmentScan Scan = scanSegment(Bytes);
    if (!Scan.HeaderOk || Scan.Seq != Seq) {
      // The header itself is gone; nothing in this file is loadable.
      RS.TailCorruptionDetected = true;
      Stats.TornTailsDetected++;
      Stats.TruncatedBytes += Bytes.size();
      RS.TruncatedBytes += Bytes.size();
      V.removeFile(Path);
      Stats.SegmentsDeleted++;
      Stopped = true;
      continue;
    }
    uint64_t ValidEnd = SegmentHeaderBytes;
    bool SemanticStop = false;
    for (const WalRecord &R : Scan.Records) {
      switch (R.Type) {
      case RecordType::TermVote:
        RS.Term = R.Term;
        RS.Vote = R.Vote;
        break;
      case RecordType::Append:
        // Slots are contiguous and 1-based; a gap means the record
        // stream itself is damaged, not just torn.
        if (R.Index != RS.Log.size() + 1)
          SemanticStop = true;
        else
          RS.Log.push_back(R.Entry);
        break;
      case RecordType::Truncate:
        if (R.NewLen > RS.Log.size())
          SemanticStop = true;
        else
          RS.Log.resize(R.NewLen);
        break;
      case RecordType::Commit:
        // Advisory floor; clamped against the final log below.
        RS.CommitIndex = std::max<size_t>(RS.CommitIndex, R.Index);
        break;
      }
      if (SemanticStop)
        break;
      ValidEnd = R.EndOffset;
      ++RS.RecordsReplayed;
    }
    if (Scan.CorruptTail || SemanticStop) {
      uint64_t End = SemanticStop ? ValidEnd : Scan.ValidBytes;
      RS.TailCorruptionDetected = true;
      Stats.TornTailsDetected++;
      Stats.TruncatedBytes += Bytes.size() - End;
      RS.TruncatedBytes += Bytes.size() - End;
      V.truncate(Path, End);
      V.sync(Path);
      Stopped = true;
      LastSeen = Seq;
      ++Expected;
      continue;
    }
    LastSeen = Seq;
    ++Expected;
  }

  RS.CommitIndex = std::min(RS.CommitIndex, RS.Log.size());

  // Position the write path. If the directory had no segment for the
  // current sequence (fresh store, or a crash landed between snapshot
  // rename and segment creation), lay one down now.
  CurSeq = LastSeen != 0 ? LastSeen : StartSeq;
  if (!V.exists(segPath(CurSeq))) {
    if (!createSegment(CurSeq)) {
      RS.Error = "cannot create WAL segment in " + Dir;
      return RS;
    }
  }

  // Recovery succeeded: corrupt snapshots are dead weight now.
  for (const std::string &P : CorruptSnaps)
    V.removeFile(P);

  MirrorTerm = RS.Term;
  MirrorVote = RS.Vote;
  MirrorLog = RS.Log;
  MirrorCommit = RS.CommitIndex;
  UnsyncedRecords = 0;
  WalBytesSinceSnapshot = 0;
  Open = true;

  auto T1 = std::chrono::steady_clock::now();
  uint64_t Us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0).count());
  Stats.Recoveries++;
  Stats.RecoveryUsTotal += Us;
  Stats.RecoveryUsMax = std::max(Stats.RecoveryUsMax, Us);
  return RS;
}

//===----------------------------------------------------------------------===//
// Write path
//===----------------------------------------------------------------------===//

bool NodeStore::appendRecord(const std::string &Payload) {
  std::string Framed;
  frameRecord(Framed, Payload);
  if (!V.append(segPath(CurSeq), Framed))
    return false;
  ++UnsyncedRecords;
  ++Stats.RecordsWritten;
  Stats.BytesWritten += Framed.size();
  WalBytesSinceSnapshot += Framed.size();
  return true;
}

bool NodeStore::persistFrom(const core::RaftCore &Core, size_t FirstChanged) {
  return persistSuffix(Core.term(), Core.votedFor(), Core.log(), FirstChanged);
}

bool NodeStore::persistState(Time Term, std::optional<NodeId> Vote,
                             const std::vector<core::LogEntry> &Log) {
  return persistSuffix(Term, Vote, Log, /*From=*/1);
}

bool NodeStore::persistSuffix(Time Term, std::optional<NodeId> Vote,
                              const std::vector<core::LogEntry> &Log,
                              size_t From) {
  assert(Open && "persist on a closed store");
  assert(From >= 1 && "log slots are 1-based");
  bool Ok = true;

  // Longest common log prefix against the mirror, searched from the
  // first slot the caller says may differ.
  size_t Limit = std::min(MirrorLog.size(), Log.size());
  size_t Common = std::min(From - 1, Limit);
  while (Common < Limit && MirrorLog[Common] == Log[Common])
    ++Common;

  if (MirrorLog.size() > Common) {
    Ok = appendRecord(payloadTruncate(Common)) && Ok;
    MirrorLog.resize(Common);
  }
  for (size_t I = Common; I < Log.size(); ++I) {
    Ok = appendRecord(payloadAppend(I + 1, Log[I])) && Ok;
    MirrorLog.push_back(Log[I]);
  }
  if (Term != MirrorTerm || Vote != MirrorVote) {
    Ok = appendRecord(payloadTermVote(Term, Vote)) && Ok;
    MirrorTerm = Term;
    MirrorVote = Vote;
  }
  return Ok;
}

void NodeStore::noteCommit(size_t Index) {
  assert(Open && "noteCommit on a closed store");
  if (Index <= MirrorCommit)
    return;
  MirrorCommit = Index;
  appendRecord(payloadCommit(Index));
}

bool NodeStore::sync() {
  assert(Open && "sync on a closed store");
  if (UnsyncedRecords == 0)
    return true;
  if (!V.sync(segPath(CurSeq)))
    return false;
  Stats.Syncs++;
  Stats.MaxBatchRecords = std::max(Stats.MaxBatchRecords, UnsyncedRecords);
  UnsyncedRecords = 0;

  // Housekeeping happens only at sync boundaries, so a rotation or
  // snapshot never splits an un-fsynced batch across files.
  if (WalBytesSinceSnapshot >= Opts.SnapshotEveryBytes)
    return takeSnapshot();
  if (V.fileSize(segPath(CurSeq)) >= Opts.SegmentBytes)
    return rotateSegment();
  return true;
}

bool NodeStore::createSegment(uint64_t Seq) {
  std::string Path = segPath(Seq);
  if (!V.append(Path, segmentHeader(Seq)) || !V.sync(Path))
    return false;
  Stats.SegmentsCreated++;
  return true;
}

bool NodeStore::rotateSegment() {
  uint64_t Next = CurSeq + 1;
  if (!createSegment(Next))
    return false;
  CurSeq = Next;
  return true;
}

bool NodeStore::takeSnapshot() {
  // Checkpoint the mirror (everything below is already fsynced — this
  // runs right after the sync barrier), install it atomically via
  // tmp-write + rename, start a fresh segment at the same sequence
  // number, then drop the history both now cover. Order matters: the
  // snapshot must be durable under its final name before any segment it
  // replaces is deleted.
  uint64_t Next = CurSeq + 1;
  std::string Tmp = Dir + "/snap.tmp";
  V.removeFile(Tmp);
  std::string Bytes =
      encodeSnapshot(MirrorTerm, MirrorVote, MirrorCommit, MirrorLog);
  if (!V.append(Tmp, Bytes) || !V.sync(Tmp) ||
      !V.renameFile(Tmp, snapPath(Next)))
    return false;
  Stats.Snapshots++;
  if (!createSegment(Next))
    return false;
  uint64_t Prev = CurSeq;
  CurSeq = Next;
  WalBytesSinceSnapshot = 0;
  for (uint64_t Seq = Prev;; --Seq) {
    bool Removed = false;
    if (V.exists(segPath(Seq))) {
      V.removeFile(segPath(Seq));
      Stats.SegmentsDeleted++;
      Removed = true;
    }
    if (V.exists(snapPath(Seq))) {
      V.removeFile(snapPath(Seq));
      Removed = true;
    }
    if (!Removed || Seq == 1)
      break;
  }
  return true;
}

void NodeStore::crash() {
  if (CrashHook)
    CrashHook();
  Open = false;
  UnsyncedRecords = 0;
  MirrorLog.clear();
  MirrorTerm = 0;
  MirrorVote.reset();
  MirrorCommit = 0;
}
