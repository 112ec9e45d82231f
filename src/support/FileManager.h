//===--- FileManager.h - Virtual & on-disk file access ---------*- C++ -*-===//
//
// The bottom layer of the paper's Fig. 1. Supports an in-memory virtual file
// system (used heavily by tests and by #include resolution) and fallback to
// the real file system.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SUPPORT_FILEMANAGER_H
#define MCC_SUPPORT_FILEMANAGER_H

#include "support/MemoryBuffer.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcc {

/// Owns the contents of every file the compiler reads. Files registered via
/// addVirtualFile shadow the real file system, which makes hermetic tests and
/// the #include machinery trivial to exercise.
class FileManager {
public:
  /// With \p DiskFallback false the manager serves only its virtual files:
  /// the compile service lexes each job through such a manager, so a job
  /// can read no file but its own source.
  explicit FileManager(bool DiskFallback = true) : DiskFallback(DiskFallback) {}
  FileManager(const FileManager &) = delete;
  FileManager &operator=(const FileManager &) = delete;

  /// Registers (or replaces) an in-memory file. Re-registering a path with
  /// *identical* contents is a no-op that keeps the existing buffer — so
  /// repeated compiles of the same source reuse one MemoryBuffer (and one
  /// SourceManager FileID) instead of growing per request. When the
  /// contents differ, the old buffer is retired, not destroyed: a
  /// SourceManager (or a cached token stream) may still point into it.
  void addVirtualFile(std::string Path, std::string_view Contents);

  /// Returns the buffer for \p Path, reading from the virtual FS first and
  /// (with DiskFallback) the real FS second. Returns nullptr if the file
  /// does not exist. The FileManager retains ownership; buffers live as
  /// long as the manager.
  const MemoryBuffer *getBuffer(const std::string &Path);

  [[nodiscard]] bool exists(const std::string &Path) const;

  [[nodiscard]] std::size_t getNumVirtualFiles() const {
    return VirtualFiles.size();
  }

  /// Buffers replaced by addVirtualFile but kept alive for old references
  /// (bounded by the number of *distinct* contents ever registered).
  [[nodiscard]] std::size_t getNumRetiredBuffers() const {
    return RetiredBuffers.size();
  }

private:
  bool DiskFallback;
  std::map<std::string, std::unique_ptr<MemoryBuffer>> VirtualFiles;
  std::map<std::string, std::unique_ptr<MemoryBuffer>> DiskCache;
  std::vector<std::unique_ptr<MemoryBuffer>> RetiredBuffers;
};

} // namespace mcc

#endif // MCC_SUPPORT_FILEMANAGER_H
