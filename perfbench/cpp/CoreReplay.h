//===- perfbench/cpp/CoreReplay.h - Sans-I/O RaftCore replay ----*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays a workload's op mix through three core::RaftCore values with
/// no host at all: sends go into one FIFO and are delivered at once,
/// timers fire on a virtual clock that advances by the workload's gap
/// between ops. Each call into the core (submit, step on a message,
/// readQuery) is timed, so the numbers are the protocol core's own cost
/// with no threads, queues, sockets or disks around it.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_COREREPLAY_H
#define ADORE_PERFBENCH_COREREPLAY_H

#include "core/RaftCore.h"
#include "Trace.h"

#include <string>

namespace adore {
namespace perfbench {

struct ReplayMix {
  size_t Ops = 20000;
  /// Share of ops, out of 1000, that are linearizable reads; reads
  /// alternate between the leader and a follower.
  unsigned ReadPermille = 0;
  /// Virtual time between consecutive ops.
  uint64_t GapUs = 5000;
  uint64_t Seed = 1;
  core::CoreOptions Opts;
};

struct ReplayResult {
  bool Ok = false;
  std::string Error;
  Samples ClientRequestNs;
  Samples AppendEntriesNs;
  Samples AppendReplyNs;
  Samples ReadQueryNs;
  uint64_t Writes = 0;
  uint64_t WritesCommitted = 0;
  uint64_t Reads = 0;
  uint64_t ReadsServed = 0;
  /// Effects emitted by all three cores while the ops ran.
  uint64_t Effects = 0;
};

ReplayResult replayCore(const ReplayMix &Mix);

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_COREREPLAY_H
