//===--- ArtifactStore.cpp - On-disk content-addressed artifacts ----------===//
//
// File format (all integers little-endian, fixed width):
//
//   offset  size  field
//        0     4  magic "MCA\x01"
//        4     4  FormatVersion
//        8     8  L3 key (must equal the file's index key)
//       16     1  Failed flag
//       17     3  zero padding
//       20     4  DiagText length
//       24     4  IRText length
//       28     8  FNV-1a over (key || failed || DiagText || IRText)
//       36     -  DiagText bytes, then IRText bytes
//
// The trailing payload-hash check is what turns every corruption mode —
// flipped bits, truncation, a partially overwritten file from a dying
// writer that bypassed the rename protocol — into a verified miss.
//
//===----------------------------------------------------------------------===//
#include "service/ArtifactStore.h"

#include "support/ContentHash.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

namespace fs = std::filesystem;

namespace mcc::svc {

namespace {

constexpr char Magic[4] = {'M', 'C', 'A', '\x01'};
constexpr std::size_t HeaderBytes = 36;

void putU32(std::string &Out, std::uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (I * 8)) & 0xff));
}

void putU64(std::string &Out, std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (I * 8)) & 0xff));
}

std::uint32_t getU32(const char *P) {
  std::uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<std::uint32_t>(static_cast<unsigned char>(P[I])) << (I * 8);
  return V;
}

std::uint64_t getU64(const char *P) {
  std::uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<std::uint64_t>(static_cast<unsigned char>(P[I])) << (I * 8);
  return V;
}

/// The integrity hash covers the key and flag as well as the payloads, so
/// a header spliced onto the wrong payload (or vice versa) cannot verify.
std::uint64_t payloadHash(std::uint64_t Key, bool Failed,
                          const std::string &Diag, const std::string &IR) {
  std::uint64_t H = hashCombine(FNVOffsetBasis, Key);
  H = hashCombine(H, Failed ? 1 : 0);
  H = hashBytes(Diag, H);
  H = hashBytes(IR, H);
  return H;
}

std::string keyFileName(std::uint64_t Key) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx.art",
                static_cast<unsigned long long>(Key));
  return Buf;
}

/// Parses "<16 hex digits>.art"; returns false for foreign files.
bool parseKeyFileName(const std::string &Name, std::uint64_t &Key) {
  if (Name.size() != 20 || Name.compare(16, 4, ".art") != 0)
    return false;
  Key = 0;
  for (int I = 0; I < 16; ++I) {
    char C = Name[I];
    std::uint64_t D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    Key = (Key << 4) | D;
  }
  return true;
}

} // namespace

ArtifactStore::ArtifactStore(ArtifactStoreOptions O) : Opts(std::move(O)) {
  std::error_code EC;
  fs::create_directories(fs::path(Opts.Root) / "objects", EC);
  std::lock_guard<std::mutex> Lock(M);
  rebuildIndexLocked();
  // A restart with a smaller budget (or a store grown by sibling daemons)
  // must converge immediately, not only on the next store().
  sweepOverBudgetLocked(/*JustInserted=*/0);
  Stats.Bytes.store(IndexedBytes, std::memory_order_relaxed);
}

ArtifactStore::~ArtifactStore() { flushIndex(); }

std::string ArtifactStore::objectPath(std::uint64_t Key) const {
  return (fs::path(Opts.Root) / "objects" / keyFileName(Key)).string();
}

//===----------------------------------------------------------------------===//
// Index
//===----------------------------------------------------------------------===//

void ArtifactStore::rebuildIndexLocked() {
  // Ground truth: the directory scan. A crash between publication and
  // index flush must not orphan artifacts, and externally deleted files
  // must not be believed in.
  struct Scanned {
    std::uint64_t Key;
    std::uint64_t Bytes;
    fs::file_time_type MTime;
  };
  std::vector<Scanned> Files;
  std::error_code EC;
  for (const auto &Entry :
       fs::directory_iterator(fs::path(Opts.Root) / "objects", EC)) {
    std::uint64_t Key;
    if (!Entry.is_regular_file(EC) ||
        !parseKeyFileName(Entry.path().filename().string(), Key))
      continue;
    Files.push_back({Key, Entry.file_size(EC), Entry.last_write_time(EC)});
  }
  // Oldest first so the LRU list ends up most-recent-at-front.
  std::sort(Files.begin(), Files.end(),
            [](const Scanned &A, const Scanned &B) { return A.MTime < B.MTime; });

  Index.clear();
  LRU.clear();
  IndexedBytes = 0;
  for (const Scanned &F : Files) {
    LRU.push_front(F.Key);
    Index[F.Key] = {F.Bytes, LRU.begin()};
    IndexedBytes += F.Bytes;
  }

  // The flushed index refines recency: replay its order (written most-
  // recent-first) over the scanned set; keys it does not mention keep
  // their mtime-derived position.
  std::ifstream In(fs::path(Opts.Root) / "index.v1");
  std::string Line;
  if (In && std::getline(In, Line) && Line == "mcc-artifact-index v1") {
    std::vector<std::uint64_t> Order;
    while (std::getline(In, Line)) {
      std::uint64_t Key = std::strtoull(Line.c_str(), nullptr, 16);
      if (Index.count(Key))
        Order.push_back(Key);
    }
    // Re-splice in reverse so the first-listed key ends up frontmost.
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      auto &E = Index[*It];
      LRU.splice(LRU.begin(), LRU, E.LRUPos);
      E.LRUPos = LRU.begin();
    }
  }

  Stats.Entries.store(Index.size(), std::memory_order_relaxed);
  Stats.Bytes.store(IndexedBytes, std::memory_order_relaxed);
}

void ArtifactStore::flushIndex() {
  std::lock_guard<std::mutex> Lock(M);
  std::error_code EC;
  fs::path Tmp = fs::path(Opts.Root) / "index.v1.tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return;
    Out << "mcc-artifact-index v1\n";
    char Buf[24];
    for (std::uint64_t Key : LRU) { // most recent first
      std::snprintf(Buf, sizeof(Buf), "%016llx\n",
                    static_cast<unsigned long long>(Key));
      Out << Buf;
    }
  }
  fs::rename(Tmp, fs::path(Opts.Root) / "index.v1", EC);
}

void ArtifactStore::touchLocked(std::uint64_t Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return;
  LRU.splice(LRU.begin(), LRU, It->second.LRUPos);
  It->second.LRUPos = LRU.begin();
  // Refresh the file's mtime so a crash (no index flush) still rebuilds a
  // usable recency order from the directory scan.
  std::error_code EC;
  fs::last_write_time(objectPath(Key), fs::file_time_type::clock::now(), EC);
}

void ArtifactStore::dropLocked(std::uint64_t Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return;
  IndexedBytes -= It->second.FileBytes;
  LRU.erase(It->second.LRUPos);
  Index.erase(It);
  Stats.Entries.fetch_sub(1, std::memory_order_relaxed);
  Stats.Bytes.store(IndexedBytes, std::memory_order_relaxed);
}

void ArtifactStore::sweepOverBudgetLocked(std::uint64_t JustInserted) {
  std::error_code EC;
  while (IndexedBytes > Opts.BudgetBytes && !LRU.empty()) {
    std::uint64_t Victim = LRU.back();
    // Like the in-memory levels: an artifact larger than the whole budget
    // still survives its own insertion (it reaches its requesters, then
    // becomes the next sweep's first victim).
    if (Victim == JustInserted)
      break;
    fs::remove(objectPath(Victim), EC);
    dropLocked(Victim);
    Stats.Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Load / store
//===----------------------------------------------------------------------===//

std::optional<DiskArtifact> ArtifactStore::load(std::uint64_t Key) {
  std::unique_lock<std::mutex> Lock(M);
  const std::string Path = objectPath(Key);

  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In) {
    // Another daemon may have swept a file our index still lists.
    dropLocked(Key);
    Stats.Misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  // One sized read; an istreambuf_iterator loop costs a virtual call per
  // byte, which dominates warm-from-disk restart on large IR payloads.
  const auto End = In.tellg();
  std::string Bytes;
  if (End > 0) {
    Bytes.resize(static_cast<std::size_t>(End));
    In.seekg(0);
    if (!In.read(Bytes.data(), End))
      Bytes.clear();
  }
  In.close();

  auto Reject = [&]() -> std::optional<DiskArtifact> {
    Stats.BadArtifacts.fetch_add(1, std::memory_order_relaxed);
    Stats.Misses.fetch_add(1, std::memory_order_relaxed);
    std::error_code EC;
    fs::remove(Path, EC);
    dropLocked(Key);
    return std::nullopt;
  };

  if (Bytes.size() < HeaderBytes ||
      std::memcmp(Bytes.data(), Magic, sizeof(Magic)) != 0)
    return Reject();
  const char *P = Bytes.data();
  if (getU32(P + 4) != FormatVersion || getU64(P + 8) != Key)
    return Reject();
  DiskArtifact A;
  A.Failed = P[16] != 0;
  const std::uint32_t DiagLen = getU32(P + 20);
  const std::uint32_t IRLen = getU32(P + 24);
  const std::uint64_t StoredHash = getU64(P + 28);
  // Exact-length check: a truncated *or* padded file is corrupt.
  if (Bytes.size() != HeaderBytes + static_cast<std::size_t>(DiagLen) + IRLen)
    return Reject();
  A.DiagText.assign(P + HeaderBytes, DiagLen);
  A.IRText.assign(P + HeaderBytes + DiagLen, IRLen);
  if (payloadHash(Key, A.Failed, A.DiagText, A.IRText) != StoredHash)
    return Reject();

  if (!Index.count(Key)) {
    // Published by a sibling daemon after our last scan: adopt it.
    LRU.push_front(Key);
    Index[Key] = {Bytes.size(), LRU.begin()};
    IndexedBytes += Bytes.size();
    Stats.Entries.fetch_add(1, std::memory_order_relaxed);
    Stats.Bytes.store(IndexedBytes, std::memory_order_relaxed);
  }
  touchLocked(Key);
  Stats.Hits.fetch_add(1, std::memory_order_relaxed);
  return A;
}

bool ArtifactStore::store(std::uint64_t Key, const DiskArtifact &A) {
  // Serialize outside the lock; only publication mutates shared state.
  std::string Bytes;
  Bytes.reserve(HeaderBytes + A.DiagText.size() + A.IRText.size());
  Bytes.append(Magic, sizeof(Magic));
  putU32(Bytes, FormatVersion);
  putU64(Bytes, Key);
  Bytes.push_back(A.Failed ? '\x01' : '\x00');
  Bytes.append(3, '\x00');
  putU32(Bytes, static_cast<std::uint32_t>(A.DiagText.size()));
  putU32(Bytes, static_cast<std::uint32_t>(A.IRText.size()));
  putU64(Bytes, payloadHash(Key, A.Failed, A.DiagText, A.IRText));
  Bytes += A.DiagText;
  Bytes += A.IRText;

  std::unique_lock<std::mutex> Lock(M);
  if (Index.count(Key))
    return true; // content-addressed: same key, same bytes — nothing to do

  char TmpName[64];
  std::snprintf(TmpName, sizeof(TmpName), ".tmp.%016llx.%llu",
                static_cast<unsigned long long>(Key),
                static_cast<unsigned long long>(++TmpCounter));
  fs::path Tmp = fs::path(Opts.Root) / "objects" / TmpName;
  fs::path Final = objectPath(Key);
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out || !Out.write(Bytes.data(),
                           static_cast<std::streamsize>(Bytes.size()))) {
      Stats.StoreFailures.fetch_add(1, std::memory_order_relaxed);
      std::error_code EC;
      fs::remove(Tmp, EC);
      return false;
    }
  }
  std::error_code EC;
  fs::rename(Tmp, Final, EC); // atomic publication
  if (EC) {
    Stats.StoreFailures.fetch_add(1, std::memory_order_relaxed);
    fs::remove(Tmp, EC);
    return false;
  }

  LRU.push_front(Key);
  Index[Key] = {Bytes.size(), LRU.begin()};
  IndexedBytes += Bytes.size();
  Stats.Stores.fetch_add(1, std::memory_order_relaxed);
  Stats.Entries.fetch_add(1, std::memory_order_relaxed);
  sweepOverBudgetLocked(Key);
  Stats.Bytes.store(IndexedBytes, std::memory_order_relaxed);
  return true;
}

bool ArtifactStore::contains(std::uint64_t Key) {
  std::lock_guard<std::mutex> Lock(M);
  return Index.count(Key) != 0;
}

DiskStoreSnapshot ArtifactStore::statsSnapshot() const {
  DiskStoreSnapshot S;
#define DISK_STAT(Group, Name, Field)                                          \
  S.Field = Stats.Field.load(std::memory_order_relaxed);
#include "service/ServiceStats.def"
  return S;
}

} // namespace mcc::svc
