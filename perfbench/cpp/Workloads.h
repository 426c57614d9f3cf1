//===- perfbench/cpp/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (see perfbench/README.md for why each exists):
///
///   writes-tcp    3 replicas, loopback TCP, WAL+snapshot store on real
///                 files; one open-loop writer at a fixed rate.
///   reads-bus     3 replicas, in-process bus, follower-lease read tier;
///                 two closed-loop clients, 90% reads / 10% writes.
///   failover-bus  3 replicas, bus, power-loss store; paced writes while
///                 a fault thread removes/re-adds a follower and crashes
///                 and restarts the leader.
///
/// A plain run measures the end-to-end metrics with no decorator in
/// place. A traced run measures the same workload twice with the same
/// seed, plain and then with every decorator attached, and reports the
/// per-layer metrics plus the tracing overhead between the two.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_WORKLOADS_H
#define ADORE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace adore {
namespace perfbench {

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  /// Sample count behind a percentile or median; empty when the value
  /// is not a sample statistic.
  std::string Basis;
};

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Scratch directory for store files and the span dump; must exist.
  std::string WorkDir;
};

struct RunReport {
  /// Failed correctness gates; any entry fails the run.
  std::vector<std::string> GateFailures;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Metrics every workload reports (BENCHMARK.json's end_to_end).
  std::vector<Metric> EndToEnd;
  /// Further end-to-end figures, printed but not part of the result line
  /// (too noisy to gate on, 0 by design, or on one workload only).
  std::vector<Metric> Reported;
  /// Traced runs only (BENCHMARK.json's per_layer).
  std::vector<Metric> PerLayer;
  /// Where the traced run's spans were written (empty if none).
  std::string SpanFile;
};

const std::vector<std::string> &workloadNames();

RunReport runBenchmark(const RunArgs &Args);

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_WORKLOADS_H
