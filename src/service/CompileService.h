//===--- CompileService.h - Concurrent content-addressed compiles -*- C++ -*-===//
//
// An in-process compile server over the whole pipeline of the paper's
// Fig. 1. Many clients submit (source, options) jobs concurrently; the
// service answers through a content-addressed three-level cache that
// mirrors the pipeline's layering:
//
//   L1  (source bytes, preprocessor options)   -> token stream
//   L2  (L1 key, language/OpenMP options)      -> AST + Sema artifacts
//   L3  (L2 key, codegen mode + mid-end knobs) -> finished ir::Module
//
// Each level's producer runs one of the pipeline stages CompilerInstance
// runs (lexMainFile, parseTokenStream, emitModule in
// driver/CompilerInstance.h); the producers add only the cache work: keys,
// byte estimates, rendered diagnostics, the bytecode translation and the
// disk store.
//
// Keys are pure content hashes: the *path* a buffer is registered under
// never participates, so the same source text submitted under different
// file names shares one L1 chain. Hashing happens *before* lexing — any
// byte difference (even whitespace) is a different program as far as the
// cache is concerned; token-level canonicalization would break the
// replay guarantee that a cached stream is bit-for-bit what the lexer
// produced. `LangOptions::OpenMPDefaultNumThreads` is deliberately in NO
// key: it is consumed by the runtime at execution time and never appears
// in IR, so thread-count sweeps over one program all hit L3.
//
// Each level is an LRU cache with a byte budget and per-key
// single-flight: the first requester of a missing key becomes its
// producer while concurrent requesters for the same key block on the
// producer's slot instead of compiling redundantly (counted as
// `waits` in the statistics). Compile *failures* are artifacts too —
// deterministic inputs fail deterministically, so error results are
// cached like successes.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SERVICE_COMPILESERVICE_H
#define MCC_SERVICE_COMPILESERVICE_H

#include "driver/CompilerInstance.h"
#include "interp/Interpreter.h"
#include "service/ArtifactStore.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mcc::svc {

//===----------------------------------------------------------------------===//
// Cached artifacts
//===----------------------------------------------------------------------===//

/// L1: a fully preprocessed token stream, together with everything the
/// tokens point into. Token text is a string_view into MemoryBuffers owned
/// by the FileManager (source files) and into strings owned by the
/// Preprocessor (macro-expansion spellings), and token locations resolve
/// through the SourceManager — so the artifact owns all four, plus the
/// diagnostics of the production run.
struct TokenStreamArtifact {
  FileManager FM{/*DiskFallback=*/false}; ///< holds the job's source only
  SourceManager SM;
  StoringDiagnosticConsumer DiagStore;
  DiagnosticsEngine Diags{&DiagStore};
  std::unique_ptr<Preprocessor> PP;
  std::vector<Token> Tokens;

  bool Failed = false;     ///< lexing/preprocessing reported an error
  std::string DiagText;    ///< rendered diagnostics of the production run
  std::size_t Bytes = 0;   ///< retained-size estimate for the LRU budget

  [[nodiscard]] bool ok() const { return !Failed; }
};

/// L2: the built AST. Nodes live in the artifact's ASTContext arena; the
/// token artifact is retained because identifier spellings (string_views)
/// and source locations still point into its buffers. Sema itself is
/// dropped after parsing — the AST is immutable from here on.
struct ASTArtifact {
  std::shared_ptr<const TokenStreamArtifact> Tokens;
  ASTContext Ctx;
  TranslationUnitDecl *TU = nullptr;

  bool Failed = false;
  std::string DiagText; ///< L1 diagnostics + parse/sema/analysis diagnostics
  std::size_t Bytes = 0;

  [[nodiscard]] bool ok() const { return !Failed; }
};

/// L3: the finished IR module (post-CodeGen, post-mid-end when enabled).
/// Execution engines take `const ir::Module &`, so one cached module can
/// back any number of concurrent executions.
struct ModuleArtifact {
  std::shared_ptr<const ASTArtifact> AST;
  std::unique_ptr<ir::Module> Mod;
  midend::PipelineStats MidendStats;
  /// Bytecode translation of Mod, compiled once at production time so
  /// every Execute against this artifact — and every ExecutionEngine a
  /// client builds from module() — skips re-translation. Null when the
  /// compile failed. Engine-independent (global addresses stay
  /// relocations), hence shareable across engines and threads.
  std::shared_ptr<const interp::bc::BytecodeModule> Bytecode;

  /// Loaded from the on-disk ArtifactStore: the recorded outcome only
  /// (verdict + diagnostics + printed IR in IRText); Mod/Bytecode are
  /// null and module() must not be called. An Execute request against a
  /// disk-loaded artifact triggers a real compile that replaces this
  /// entry ("stub promotion", see CompileService::compile).
  bool DiskLoaded = false;
  std::string IRText; ///< printed IR for disk artifacts; empty otherwise

  bool Failed = false;
  std::string DiagText;
  std::size_t Bytes = 0;

  [[nodiscard]] bool ok() const { return !Failed; }
  [[nodiscard]] bool hasLiveModule() const { return Mod != nullptr; }
  [[nodiscard]] const ir::Module &module() const { return *Mod; }
  /// Printed IR regardless of provenance (live module or disk record).
  [[nodiscard]] std::string irText() const;
};

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

/// L1 key: source bytes + everything that changes the token stream
/// (OpenMP pragma recognition, -D defines) or the severity of production
/// diagnostics (-w, -Werror). The registration path is deliberately
/// excluded. A job's lex stage reads no file but its own source, so the
/// include search path and the contents of other files cannot change the
/// stream and are excluded too.
std::uint64_t tokenStreamKey(std::string_view Source,
                             const CompilerOptions &Options);

/// L2 key: L1 key + options consumed by Parser/Sema/analyses (lowering
/// mode, heuristic unroll factor, verifier, --analyze and its pass list).
/// Includes OpenMPEnableIRBuilder because Sema builds different trees per
/// mode (shadow-AST helpers vs OMPCanonicalLoop).
std::uint64_t astKey(std::uint64_t L1Key, const CompilerOptions &Options);

/// L3 key: L2 key + codegen/mid-end knobs (verifier, -O1 pipeline and its
/// unroll strategy/factors).
std::uint64_t moduleKey(std::uint64_t L2Key, const CompilerOptions &Options);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

struct CacheLevelStats {
  std::atomic<std::uint64_t> Hits{0};
  std::atomic<std::uint64_t> Misses{0};
  /// Requests that found their key mid-production and blocked on the
  /// producer instead of compiling redundantly (single-flight dedup).
  std::atomic<std::uint64_t> InFlightWaits{0};
  std::atomic<std::uint64_t> Evictions{0};
  std::atomic<std::uint64_t> Entries{0};
  std::atomic<std::uint64_t> Bytes{0};
};

struct CacheLevelSnapshot {
  std::uint64_t Hits = 0, Misses = 0, InFlightWaits = 0, Evictions = 0,
                Entries = 0, Bytes = 0;
};

struct ServiceStatsSnapshot {
  std::uint64_t Requests = 0;
  std::uint64_t Executions = 0;
  CacheLevelSnapshot L1, L2, L3;
  /// On-disk store counters; meaningful only when DiskEnabled.
  bool DiskEnabled = false;
  DiskStoreSnapshot Disk;
};

//===----------------------------------------------------------------------===//
// Single-flight LRU cache
//===----------------------------------------------------------------------===//

/// One level of the compilation cache: key -> shared artifact, LRU
/// eviction against a byte budget, and per-key single-flight production.
/// The cache mutex is never held while a producer runs, so a producer may
/// safely consult the next cache level down.
template <typename ArtifactT> class ArtifactCache {
public:
  ArtifactCache(std::size_t BudgetBytes, CacheLevelStats &Stats)
      : Budget(BudgetBytes), Stats(Stats) {}

  /// Returns the artifact for \p Key, producing it via \p Produce on a
  /// miss. Concurrent calls with the same key block until the first
  /// caller publishes (\p WasHit is true for them: they were served a
  /// cached result they did not build). \p Produce runs without the
  /// cache lock.
  std::shared_ptr<ArtifactT>
  getOrProduce(std::uint64_t Key, bool &WasHit,
               const std::function<std::shared_ptr<ArtifactT>()> &Produce) {
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      auto It = Slots.find(Key);
      if (It == Slots.end())
        break;
      std::shared_ptr<Slot> S = It->second;
      if (!S->Building) {
        LRU.splice(LRU.begin(), LRU, S->LRUPos);
        Stats.Hits.fetch_add(1, std::memory_order_relaxed);
        WasHit = true;
        return S->Artifact;
      }
      Stats.InFlightWaits.fetch_add(1, std::memory_order_relaxed);
      S->Ready.wait(Lock, [&] { return !S->Building; });
      if (S->Artifact) {
        WasHit = true;
        return S->Artifact;
      }
      // The producer died without publishing (exception); its slot was
      // removed. Loop and race to become the new producer.
    }

    auto S = std::make_shared<Slot>();
    Slots.emplace(Key, S);
    Stats.Misses.fetch_add(1, std::memory_order_relaxed);
    WasHit = false;
    Lock.unlock();

    std::shared_ptr<ArtifactT> Art;
    try {
      Art = Produce();
    } catch (...) {
      Lock.lock();
      Slots.erase(Key);
      S->Building = false;
      S->Ready.notify_all();
      throw;
    }

    Lock.lock();
    S->Artifact = Art;
    S->Building = false;
    S->LRUPos = LRU.insert(LRU.begin(), Key);
    BytesCached += Art->Bytes;
    Stats.Entries.fetch_add(1, std::memory_order_relaxed);
    evictOverBudgetLocked(Key);
    Stats.Bytes.store(BytesCached, std::memory_order_relaxed);
    S->Ready.notify_all();
    return Art;
  }

private:
public:
  /// Replaces the artifact published under \p Key (or inserts it if the
  /// key was evicted meanwhile). Used by stub promotion: an Execute
  /// request that found a disk-loaded outcome recompiles for real and
  /// upgrades the cached entry so later requests get the live module. A
  /// key still mid-production is left alone (the producer will publish).
  void update(std::uint64_t Key, std::shared_ptr<ArtifactT> Art) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Slots.find(Key);
    if (It != Slots.end()) {
      if (It->second->Building)
        return;
      BytesCached -= It->second->Artifact->Bytes;
      It->second->Artifact = Art;
      BytesCached += Art->Bytes;
      LRU.splice(LRU.begin(), LRU, It->second->LRUPos);
    } else {
      auto S = std::make_shared<Slot>();
      S->Artifact = Art;
      S->Building = false;
      S->LRUPos = LRU.insert(LRU.begin(), Key);
      Slots.emplace(Key, S);
      BytesCached += Art->Bytes;
      Stats.Entries.fetch_add(1, std::memory_order_relaxed);
    }
    evictOverBudgetLocked(Key);
    Stats.Bytes.store(BytesCached, std::memory_order_relaxed);
  }

private:
  struct Slot {
    std::shared_ptr<ArtifactT> Artifact; ///< null while building
    bool Building = true;
    std::condition_variable Ready;
    typename std::list<std::uint64_t>::iterator LRUPos;
  };

  /// Evicts least-recently-used entries until the level fits its budget.
  /// The entry being published is never evicted by its own insertion, so
  /// an oversized artifact still reaches its (single) requester group.
  void evictOverBudgetLocked(std::uint64_t JustInserted) {
    while (BytesCached > Budget && !LRU.empty()) {
      std::uint64_t Victim = LRU.back();
      if (Victim == JustInserted)
        break;
      auto It = Slots.find(Victim);
      BytesCached -= It->second->Artifact->Bytes;
      LRU.pop_back();
      Slots.erase(It);
      Stats.Evictions.fetch_add(1, std::memory_order_relaxed);
      Stats.Entries.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::mutex M;
  // Slot pointers are shared so waiters survive eviction/rehash; the map
  // only tracks membership.
  std::unordered_map<std::uint64_t, std::shared_ptr<Slot>> Slots;
  std::list<std::uint64_t> LRU; ///< front = most recent
  std::size_t BytesCached = 0;
  std::size_t Budget;
  CacheLevelStats &Stats;
};

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

struct ServiceOptions {
  /// Worker threads serving enqueue()d jobs. compile() is additionally
  /// callable directly from any client thread.
  unsigned NumWorkers = 4;
  /// Total cache budget, split across the levels (L1 25%, L2 35%,
  /// L3 40% — ASTs and modules are the expensive artifacts to rebuild).
  std::size_t CacheBudgetBytes = 256u << 20;
  /// Root directory of the on-disk artifact store; empty disables
  /// persistence. The store is consulted on L3 miss and published on L3
  /// fill, so warm state survives restarts and is shareable between
  /// daemons pointed at the same directory.
  std::string DiskStorePath;
  /// Byte budget for the disk store's LRU sweep.
  std::size_t DiskBudgetBytes = 1ull << 30;
};

/// One compile (and optionally execute) request.
struct CompileJob {
  /// Registration path for the in-memory source. Cosmetic: appears in
  /// rendered diagnostics but never in cache keys.
  std::string Path = "input.c";
  std::string Source;
  CompilerOptions Options;
  /// Run main() after compiling (through the IR interpreter, on the
  /// shared OpenMP runtime).
  bool Execute = false;
};

/// Which cache levels served this request. Bits cascade: a hit at level N
/// implies the levels below were not even consulted, so they are reported
/// as hits too ("the request was served at or above this level").
struct CacheTrace {
  bool L1Hit = false;
  bool L2Hit = false;
  bool L3Hit = false;
  /// Served from the on-disk store (L3 missed in memory; nothing below
  /// was consulted). Mutually exclusive with L3Hit.
  bool DiskHit = false;
};

struct CompileResult {
  bool Succeeded = false;
  std::string Diagnostics; ///< rendered; empty on a clean compile
  /// The cached module chain (success or failure artifact). Holding this
  /// keeps the module alive across eviction.
  std::shared_ptr<const ModuleArtifact> Module;
  bool Executed = false;
  std::int64_t ExitValue = 0; ///< main()'s return value when Executed
  CacheTrace Trace;
};

class CompileService {
public:
  explicit CompileService(ServiceOptions Opts = {});
  ~CompileService();
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Compiles (and executes, if requested) synchronously through the
  /// cache. Safe to call from any number of threads concurrently.
  CompileResult compile(const CompileJob &Job);

  /// Queues the job for the worker pool.
  std::future<CompileResult> enqueue(CompileJob Job);

  /// Queues the job and invokes \p Done with the result on the worker
  /// thread that served it (the daemon's completion path: no future to
  /// park a thread on). If the pool is already stopping, the job runs —
  /// and Done fires — inline on the caller's thread.
  void enqueueAsync(CompileJob Job, std::function<void(CompileResult)> Done);

  /// Drains the queue, joins the workers, flushes the disk store index,
  /// and quiesces the shared OpenMP runtime's hot team. Idempotent; also
  /// run by the destructor.
  void shutdown();

  [[nodiscard]] ServiceStatsSnapshot statsSnapshot() const;
  /// Human-readable counter dump (the `minicc-serve --service-stats`
  /// payload), styled after OpenMPRuntime::renderStats(). Byte-stable
  /// when no disk store is configured; with one, a `disk:` line is
  /// appended.
  [[nodiscard]] std::string renderStats() const;
  /// Machine-readable JSON snapshot (`--service-stats=json`, the daemon
  /// `stats` verb) for scraping.
  [[nodiscard]] std::string renderStatsJSON() const;

  /// The on-disk artifact store, or null when persistence is disabled.
  [[nodiscard]] ArtifactStore *diskStore() { return Disk.get(); }

  [[nodiscard]] const ServiceOptions &getOptions() const { return Opts; }

private:
  std::shared_ptr<TokenStreamArtifact> produceTokens(const CompileJob &Job);
  std::shared_ptr<ASTArtifact>
  produceAST(std::shared_ptr<const TokenStreamArtifact> Toks,
             const CompilerOptions &Options);
  std::shared_ptr<ModuleArtifact>
  produceModule(std::shared_ptr<const ASTArtifact> AST,
                const CompilerOptions &Options);
  /// Produces the full L2+L3 chain for \p Job (publishing to the disk
  /// store on success) — the body of the L3 producer and of stub
  /// promotion.
  std::shared_ptr<ModuleArtifact> produceModuleChain(const CompileJob &Job,
                                                     std::uint64_t K1,
                                                     std::uint64_t K2,
                                                     CacheTrace &Trace);
  void workerLoop();

  ServiceOptions Opts;
  std::unique_ptr<ArtifactStore> Disk; ///< null when persistence disabled

  CacheLevelStats L1Stats, L2Stats, L3Stats;
  ArtifactCache<TokenStreamArtifact> L1Cache;
  ArtifactCache<ASTArtifact> L2Cache;
  ArtifactCache<ModuleArtifact> L3Cache;

  std::atomic<std::uint64_t> Requests{0};
  std::atomic<std::uint64_t> Executions{0};

  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::packaged_task<CompileResult()>> Queue;
  std::vector<std::thread> Workers;
  bool Stopping = false; ///< guarded by QueueMutex
};

} // namespace mcc::svc

#endif // MCC_SERVICE_COMPILESERVICE_H
