//===- perfbench/cpp/TracingVfs.h - store::Vfs decorator --------*- C++ -*-===//
//
// Part of the Adore reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A store::Vfs decorator that times the two calls on a write's path,
/// append() and sync(), and counts their bytes and calls. Every call is
/// forwarded unchanged to the wrapped backend, so the files on disk are
/// byte-for-byte what the undecorated backend would write.
///
//===----------------------------------------------------------------------===//

#ifndef ADORE_PERFBENCH_TRACINGVFS_H
#define ADORE_PERFBENCH_TRACINGVFS_H

#include "Trace.h"

#include "store/Vfs.h"

namespace adore {
namespace perfbench {

class TracingVfs final : public store::Vfs {
public:
  /// \p Spans may be null. \p Inner must outlive this decorator.
  TracingVfs(store::Vfs &Inner, SpanLog *Spans) : Inner(Inner), Spans(Spans) {}

  bool append(const std::string &Path, const std::string &Bytes) override;
  bool sync(const std::string &Path) override;

  bool readFile(const std::string &Path, std::string &Out) override {
    return Inner.readFile(Path, Out);
  }
  bool truncate(const std::string &Path, uint64_t Size) override {
    return Inner.truncate(Path, Size);
  }
  bool renameFile(const std::string &From, const std::string &To) override {
    return Inner.renameFile(From, To);
  }
  bool removeFile(const std::string &Path) override {
    return Inner.removeFile(Path);
  }
  bool exists(const std::string &Path) override { return Inner.exists(Path); }
  uint64_t fileSize(const std::string &Path) override {
    return Inner.fileSize(Path);
  }
  std::vector<std::string> list(const std::string &Prefix) override {
    return Inner.list(Prefix);
  }

  /// Restarts every counter and sample (the measured window begins).
  void reset();

  uint64_t appends() const;
  uint64_t appendedBytes() const;
  uint64_t syncs() const;
  Samples appendUs() const;
  Samples syncUs() const;

private:
  store::Vfs &Inner;
  SpanLog *Spans;

  mutable sync::Mutex Mu;
  uint64_t Appends ADORE_GUARDED_BY(Mu) = 0;
  uint64_t AppendedBytes ADORE_GUARDED_BY(Mu) = 0;
  uint64_t Syncs ADORE_GUARDED_BY(Mu) = 0;
  Samples AppendUs ADORE_GUARDED_BY(Mu);
  Samples SyncUs ADORE_GUARDED_BY(Mu);
};

} // namespace perfbench
} // namespace adore

#endif // ADORE_PERFBENCH_TRACINGVFS_H
