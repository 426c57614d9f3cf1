//===- perfbench/cpp/TracingVfs.cpp - store::Vfs decorator ----------------===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TracingVfs.h"

using namespace adore;
using namespace adore::perfbench;

bool TracingVfs::append(const std::string &Path, const std::string &Bytes) {
  uint64_t Start = nowNs();
  bool Ok = Inner.append(Path, Bytes);
  uint64_t End = nowNs();
  {
    sync::MutexLock Lock(Mu);
    ++Appends;
    AppendedBytes += Bytes.size();
    AppendUs.push_back(static_cast<double>(End - Start) / 1000.0);
  }
  if (Spans)
    Spans->add(Span{0, 0, "store", "append", Start, End, 0});
  return Ok;
}

bool TracingVfs::sync(const std::string &Path) {
  uint64_t Start = nowNs();
  bool Ok = Inner.sync(Path);
  uint64_t End = nowNs();
  {
    sync::MutexLock Lock(Mu);
    ++Syncs;
    SyncUs.push_back(static_cast<double>(End - Start) / 1000.0);
  }
  if (Spans)
    Spans->add(Span{0, 0, "store", "sync", Start, End, 0});
  return Ok;
}

void TracingVfs::reset() {
  sync::MutexLock Lock(Mu);
  Appends = AppendedBytes = Syncs = 0;
  AppendUs.clear();
  SyncUs.clear();
}

uint64_t TracingVfs::appends() const {
  sync::MutexLock Lock(Mu);
  return Appends;
}

uint64_t TracingVfs::appendedBytes() const {
  sync::MutexLock Lock(Mu);
  return AppendedBytes;
}

uint64_t TracingVfs::syncs() const {
  sync::MutexLock Lock(Mu);
  return Syncs;
}

Samples TracingVfs::appendUs() const {
  sync::MutexLock Lock(Mu);
  return AppendUs;
}

Samples TracingVfs::syncUs() const {
  sync::MutexLock Lock(Mu);
  return SyncUs;
}
