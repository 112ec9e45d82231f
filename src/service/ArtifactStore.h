//===--- ArtifactStore.h - On-disk content-addressed artifacts -*- C++ -*-===//
//
// Persistence layer under the CompileService's L3 cache: finished compile
// outcomes (verdict + rendered diagnostics + printed IR), keyed by the
// same content hash as the in-memory L3 level, stored as one file per key
// in a store directory that any number of daemons may share.
//
// Guarantees, in order of importance:
//
//  * Never a wrong artifact. The L3 key is a 64-bit FNV-1a hash — strong
//    enough for cache addressing, far too weak to trust a payload that
//    fails its own checks. Every file carries a versioned header with the
//    key, the payload lengths and a payload hash; any mismatch (magic,
//    version, key, length, hash, or a short read) degrades to a cache
//    miss, the file is unlinked, and `BadArtifacts` is counted. A
//    corrupted store can only make the daemon slower, not incorrect.
//
//  * Atomic publication. Artifacts are serialized to a temp file in the
//    same directory and rename(2)d into place, so readers (including
//    other daemons pointed at the same root) observe either the whole
//    artifact or none of it — never a torn write.
//
//  * Bounded size. The store keeps an in-memory LRU index (keys, sizes,
//    recency) and sweeps least-recently-used files whenever the byte
//    budget is exceeded. The index order is flushed to `index.v1` on
//    shutdown so LRU recency survives restarts; on startup the directory
//    scan is the ground truth (crash-safe) and the index file only
//    refines ordering.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SERVICE_ARTIFACTSTORE_H
#define MCC_SERVICE_ARTIFACTSTORE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace mcc::svc {

/// The serialized L3 outcome: everything a daemon needs to answer a
/// compile request without redoing the pipeline. Deliberately *not* the
/// live in-memory artifact — ir::Module and bytecode hold raw pointers
/// into arena memory; what persists is the outcome contract (verdict,
/// diagnostics byte-for-byte, printed IR). Execution requests need a live
/// module and therefore recompile (see CompileService "stub promotion").
struct DiskArtifact {
  bool Failed = false;
  std::string DiagText; ///< rendered diagnostics, byte-identical to live
  std::string IRText;   ///< ir::printModule output; empty when Failed
};

/// The store's counters, one atomic per DISK_STAT row of ServiceStats.def.
struct DiskStoreStats {
#define DISK_STAT(Group, Name, Field) std::atomic<std::uint64_t> Field{0};
#include "service/ServiceStats.def"
};

struct DiskStoreSnapshot {
#define DISK_STAT(Group, Name, Field) std::uint64_t Field = 0;
#include "service/ServiceStats.def"
};

struct ArtifactStoreOptions {
  std::string Root;                       ///< store directory (created)
  std::size_t BudgetBytes = 1ull << 30;   ///< LRU sweep threshold
};

class ArtifactStore {
public:
  /// On-disk format version; bumping it orphans (and eventually sweeps)
  /// every artifact written by older builds.
  static constexpr std::uint32_t FormatVersion = 1;

  explicit ArtifactStore(ArtifactStoreOptions Opts);
  ~ArtifactStore(); ///< flushes the index
  ArtifactStore(const ArtifactStore &) = delete;
  ArtifactStore &operator=(const ArtifactStore &) = delete;

  /// Returns the artifact stored under \p Key, or nullopt on miss or on
  /// any integrity failure (which also unlinks the offending file).
  std::optional<DiskArtifact> load(std::uint64_t Key);

  /// Publishes \p A under \p Key (write temp + rename). A key already
  /// present is not rewritten (content addressing: same key, same bytes).
  /// Returns false on I/O failure (counted, never fatal: the store is an
  /// accelerator, not a dependency).
  bool store(std::uint64_t Key, const DiskArtifact &A);

  /// True if the index currently knows \p Key (no file I/O).
  bool contains(std::uint64_t Key);

  /// Writes the LRU index to `<root>/index.v1` so recency ordering
  /// survives a restart. Called by the destructor and by daemon shutdown.
  void flushIndex();

  [[nodiscard]] DiskStoreSnapshot statsSnapshot() const;
  [[nodiscard]] const std::string &root() const { return Opts.Root; }

  /// Path of the object file for \p Key (tests corrupt/truncate it).
  [[nodiscard]] std::string objectPath(std::uint64_t Key) const;

private:
  void rebuildIndexLocked();
  void touchLocked(std::uint64_t Key);
  void dropLocked(std::uint64_t Key);
  void sweepOverBudgetLocked(std::uint64_t JustInserted);

  ArtifactStoreOptions Opts;
  DiskStoreStats Stats;

  struct IndexEntry {
    std::uint64_t FileBytes = 0;
    std::list<std::uint64_t>::iterator LRUPos;
  };
  std::mutex M;
  std::unordered_map<std::uint64_t, IndexEntry> Index;
  std::list<std::uint64_t> LRU; ///< front = most recent
  std::uint64_t IndexedBytes = 0;
  std::uint64_t TmpCounter = 0;
};

} // namespace mcc::svc

#endif // MCC_SERVICE_ARTIFACTSTORE_H
