//===- perfbench/cpp/OpenLoop.h - Paced load arithmetic ---------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-loop client's bookkeeping. Pacer fixes when each write is
/// due (start + I / rate, computed from the index so rounding never
/// accumulates); latency is measured from that due time, so a stall that
/// delays later posts is charged to them too, and the generator's own
/// lateness is reported separately. CompletionTracker hangs off the
/// cluster's apply tap and keeps the first commit observation of each
/// paced write.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_OPENLOOP_H
#define ADORE_PERFBENCH_OPENLOOP_H

#include "core/RaftCore.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

namespace adore {
namespace perfbench {

/// Due times of a fixed-rate schedule, in nanoseconds.
class Pacer {
public:
  Pacer(uint64_t StartNs, uint64_t OpsPerSec)
      : StartNs(StartNs), OpsPerSec(OpsPerSec) {}

  uint64_t dueNs(uint64_t I) const {
    return StartNs + I / OpsPerSec * 1000000000ULL +
           I % OpsPerSec * 1000000000ULL / OpsPerSec;
  }

  /// Number of ops due strictly before \p EndNs.
  uint64_t opsBefore(uint64_t EndNs) const {
    if (EndNs <= StartNs)
      return 0;
    uint64_t Span = EndNs - StartNs;
    // Op I is due before End iff I * 1e9 / rate < Span, i.e.
    // I < ceil(Span * rate / 1e9).
    uint64_t Whole = Span / 1000000000ULL * OpsPerSec;
    uint64_t Rem = Span % 1000000000ULL * OpsPerSec;
    return Whole + (Rem + 999999999ULL) / 1000000000ULL;
  }

  /// How late an action at \p NowNs is for an op due at \p DueNs.
  static uint64_t lateNs(uint64_t DueNs, uint64_t NowNs) {
    return NowNs > DueNs ? NowNs - DueNs : 0;
  }

private:
  uint64_t StartNs;
  uint64_t OpsPerSec;
};

/// First-commit observation of paced writes, keyed by ClientSeq =
/// SeqBase + op index. Safe to call from every node's worker thread.
class CompletionTracker {
public:
  /// Far above RtCluster::submitAndWait's own sequence allocator, which
  /// counts up from 1, so the two never collide.
  static constexpr uint64_t SeqBase = uint64_t(1) << 40;

  explicit CompletionTracker(size_t Capacity)
      : Capacity(Capacity), CommitNs(new std::atomic<uint64_t>[Capacity]) {
    for (size_t I = 0; I != Capacity; ++I)
      CommitNs[I].store(0, std::memory_order_relaxed);
  }

  size_t capacity() const { return Capacity; }

  /// The apply tap. \p NowNs is the observation time.
  void onApply(const core::LogEntry &E, uint64_t NowNs) {
    if (E.Kind != raft::EntryKind::Method || E.ClientSeq < SeqBase ||
        E.ClientSeq - SeqBase >= Capacity)
      return;
    uint64_t Zero = 0;
    if (!CommitNs[E.ClientSeq - SeqBase].compare_exchange_strong(Zero,
                                                                 NowNs))
      return;
    if (E.Term > WatchTerm.load()) {
      uint64_t NoHit = 0;
      WatchHitNs.compare_exchange_strong(NoHit, NowNs);
    }
  }

  /// Commit observation time of op \p I, or 0 if not (yet) committed.
  uint64_t commitNs(size_t I) const {
    return I < Capacity ? CommitNs[I].load() : 0;
  }

  /// Arms the unavailability probe: the next first commit of a write
  /// appended in a term above \p T (i.e. by a later leader) is recorded.
  void watchTermAbove(Time T) {
    WatchHitNs.store(0);
    WatchTerm.store(T);
  }
  uint64_t watchHitNs() const { return WatchHitNs.load(); }

private:
  const size_t Capacity;
  std::unique_ptr<std::atomic<uint64_t>[]> CommitNs;
  std::atomic<uint64_t> WatchTerm{std::numeric_limits<uint64_t>::max()};
  std::atomic<uint64_t> WatchHitNs{0};
};

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_OPENLOOP_H
