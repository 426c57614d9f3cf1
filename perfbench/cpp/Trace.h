//===- perfbench/cpp/Trace.h - In-memory spans and sample helpers -*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's outside-in tracing record: one Span per call into a
/// layer's public function (a transport post, a frame delivery, a Vfs
/// append or sync, a client submit), timed on the steady clock and kept
/// in a bounded in-memory buffer that is written out once, after the
/// run. Spans of one write share its ClientSeq as the request id
/// wherever the payload carries it (AppendEntries entries, client
/// submits); a delivery span names the post span that caused it.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_TRACE_H
#define ADORE_PERFBENCH_TRACE_H

#include "support/Stats.h"
#include "support/Sync.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace adore {
namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Raw samples of one quantity; kept whole so runs can be merged.
using Samples = std::vector<double>;

/// Nearest-rank percentile of \p S (as SampleStats computes it), or 0
/// when it holds no samples.
inline double pct(const Samples &S, double P) {
  if (S.empty())
    return 0;
  SampleStats St;
  for (double X : S)
    St.add(X);
  return St.percentile(P);
}

/// Median of \p V (mean of the middle two for an even count); 0 if
/// empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// One call into a layer. Id 0 means "no span" (e.g. no parent).
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0;
  const char *Layer = "";
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint64_t ReqId = 0;
};

/// Thread-safe bounded span buffer. Spans past the capacity are counted
/// but not kept, so a long traced run cannot grow without bound.
class SpanLog {
public:
  explicit SpanLog(size_t Capacity = 200000) : Capacity(Capacity) {
    Spans.reserve(Capacity);
  }

  /// Allocates a span id without recording (for parent links taken
  /// before the span ends).
  uint64_t newId() {
    sync::MutexLock Lock(Mu);
    return ++LastId;
  }

  void add(Span S) {
    sync::MutexLock Lock(Mu);
    if (S.Id == 0)
      S.Id = ++LastId;
    if (Spans.size() < Capacity)
      Spans.push_back(S);
    else
      ++Dropped;
  }

  size_t size() const {
    sync::MutexLock Lock(Mu);
    return Spans.size();
  }

  /// Writes one JSON object per line. Returns false on I/O error.
  bool writeJsonl(const std::string &Path) const {
    sync::MutexLock Lock(Mu);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"id\":%llu,\"parent\":%llu,\"layer\":\"%s\","
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"req\":%llu}\n",
                   (unsigned long long)S.Id, (unsigned long long)S.Parent,
                   S.Layer, S.Name, (unsigned long long)S.StartNs,
                   (unsigned long long)S.EndNs, (unsigned long long)S.ReqId);
    if (Dropped)
      std::fprintf(F, "{\"dropped_spans\":%llu}\n",
                   (unsigned long long)Dropped);
    return std::fclose(F) == 0;
  }

private:
  const size_t Capacity;
  mutable sync::Mutex Mu;
  std::vector<Span> Spans ADORE_GUARDED_BY(Mu);
  uint64_t LastId ADORE_GUARDED_BY(Mu) = 0;
  uint64_t Dropped ADORE_GUARDED_BY(Mu) = 0;
};

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_TRACE_H
