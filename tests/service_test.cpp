//===--- service_test.cpp - Compile service cache semantics ----------------===//
//
// Covers the content-addressed cache's key derivation (what shares, what
// diverges, at which level), single-flight deduplication under heavy
// concurrency, LRU eviction against a byte budget, failure caching, and
// execution through cached modules. The concurrency tests run reduced
// widths under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//
#include "service/CompileService.h"
#include "service/ArtifactStore.h"
#include "service/JobSpec.h"

#include "runtime/KMPRuntime.h"

#include "gtest/gtest.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

using namespace mcc;
using namespace mcc::svc;

#if defined(__SANITIZE_THREAD__)
#define MCC_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MCC_UNDER_TSAN 1
#endif
#endif

namespace {

const char *const SumProgram = "int main(void) {\n"
                               "  int sum = 0;\n"
                               "  for (int i = 0; i < 50; i = i + 1)\n"
                               "    sum += i;\n"
                               "  return sum;\n"
                               "}\n";

/// A shared scalar written in a parallel loop, so the race linter warns.
/// a[] stays zero, so no iteration takes the write: -run stays free of a
/// real race (which ThreadSanitizer would report) and returns 0.
const char *const RacyProgram = "int a[64];\n"
                                "int main(void) {\n"
                                "  int s = 0;\n"
                                "  #pragma omp parallel for\n"
                                "  for (int i = 0; i < 64; i = i + 1)\n"
                                "    if (a[i] != 0)\n"
                                "      s = s + a[i];\n"
                                "  return s;\n"
                                "}\n";

CompileJob makeJob(std::string Source, std::string Path = "input.c") {
  CompileJob Job;
  Job.Path = std::move(Path);
  Job.Source = std::move(Source);
  return Job;
}

unsigned stressWidth() {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
#ifdef MCC_UNDER_TSAN
  return std::min(2 * HW, 8u); // TSan serializes; keep the fan-in bounded
#else
  return 2 * HW;
#endif
}

} // namespace

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(ServiceKeys, PathNeverParticipates) {
  CompilerOptions Options;
  EXPECT_EQ(tokenStreamKey(SumProgram, Options),
            tokenStreamKey(SumProgram, Options));
  // tokenStreamKey has no path parameter at all — content addressing is
  // structural. This test documents that fact at the API level.
}

TEST(ServiceKeys, HashingIsPreLex) {
  // The key is derived from raw source bytes *before* lexing, so even a
  // semantically invisible whitespace change is a different L1 key. This
  // is deliberate: token-level canonicalization would break the
  // guarantee that a cached stream replays bit-for-bit what the lexer
  // produced for those exact bytes (and would put a full lex on the hot
  // lookup path, defeating the cache).
  CompilerOptions Options;
  std::string Spaced(SumProgram);
  Spaced.insert(Spaced.find("int sum"), " ");
  EXPECT_NE(tokenStreamKey(SumProgram, Options),
            tokenStreamKey(Spaced, Options));
}

TEST(ServiceKeys, LevelKnobsLandInTheirLevel) {
  CompilerOptions Base;
  const std::uint64_t L1 = tokenStreamKey(SumProgram, Base);
  const std::uint64_t L2 = astKey(L1, Base);

  // Runtime-only: thread width is in NO key.
  CompilerOptions Threads = Base;
  Threads.LangOpts.OpenMPDefaultNumThreads = 17;
  EXPECT_EQ(tokenStreamKey(SumProgram, Threads), L1);
  EXPECT_EQ(astKey(L1, Threads), L2);
  EXPECT_EQ(moduleKey(L2, Threads), moduleKey(L2, Base));

  // Sema-level: lowering mode changes the tree Sema builds.
  CompilerOptions IRB = Base;
  IRB.LangOpts.OpenMPEnableIRBuilder = true;
  EXPECT_EQ(tokenStreamKey(SumProgram, IRB), L1);
  EXPECT_NE(astKey(L1, IRB), L2);

  // Mid-end-level: unroll knobs only reshape the L3 module.
  CompilerOptions Unroll = Base;
  Unroll.UnrollOpts.HeuristicFactor = 8;
  EXPECT_EQ(astKey(L1, Unroll), L2);
  EXPECT_NE(moduleKey(L2, Unroll), moduleKey(L2, Base));

  // Lexer-level: -D changes the token stream.
  CompilerOptions Defined = Base;
  Defined.Defines.emplace_back("N", "50");
  EXPECT_NE(tokenStreamKey(SumProgram, Defined), L1);

  // Analysis-level: the --analyze=<list> passes run on the AST.
  CompilerOptions Deps = Base;
  Deps.AnalyzePasses = {"deps"};
  EXPECT_EQ(tokenStreamKey(SumProgram, Deps), L1);
  EXPECT_NE(astKey(L1, Deps), L2);

  // A job reads no file but its own source: the include path is in no key.
  CompilerOptions Included = Base;
  Included.IncludeDirs = {"/usr/include"};
  EXPECT_EQ(tokenStreamKey(SumProgram, Included), L1);
}

//===----------------------------------------------------------------------===//
// Cache behaviour through the service
//===----------------------------------------------------------------------===//

TEST(ServiceCache, IdenticalSourceDifferentPathHitsL1) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileResult A = Service.compile(makeJob(SumProgram, "alpha.c"));
  ASSERT_TRUE(A.Succeeded) << A.Diagnostics;
  EXPECT_FALSE(A.Trace.L1Hit);

  // Same bytes, different registration path: served entirely from cache.
  CompileResult B = Service.compile(makeJob(SumProgram, "beta.c"));
  ASSERT_TRUE(B.Succeeded) << B.Diagnostics;
  EXPECT_TRUE(B.Trace.L1Hit);
  EXPECT_TRUE(B.Trace.L2Hit);
  EXPECT_TRUE(B.Trace.L3Hit);
  EXPECT_EQ(A.Module.get(), B.Module.get());

  // Different path AND a Sema-level knob change: the chain diverges at
  // L2, which forces an actual L1 *lookup* — it must hit despite the
  // path difference (the stats see the hit; a path-keyed cache would
  // miss here).
  CompileJob C = makeJob(SumProgram, "gamma.c");
  C.Options.LangOpts.HeuristicUnrollFactor = 4;
  CompileResult R = Service.compile(C);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.L1Hit);
  EXPECT_FALSE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);
  EXPECT_EQ(Service.statsSnapshot().L1.Hits, 1u);
  EXPECT_EQ(Service.statsSnapshot().L1.Misses, 1u);
}

TEST(ServiceCache, WhitespaceChangeMissesL1) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);

  std::string Spaced(SumProgram);
  Spaced.insert(Spaced.find("int sum"), "  ");
  CompileResult R = Service.compile(makeJob(Spaced));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_FALSE(R.Trace.L1Hit);
  EXPECT_FALSE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);
  EXPECT_EQ(Service.statsSnapshot().L1.Misses, 2u);
  EXPECT_EQ(Service.statsSnapshot().L1.Hits, 0u);
}

TEST(ServiceCache, UnrollFactorOnlyChangeHitsL2MissesL3) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileJob A = makeJob(SumProgram);
  A.Options.RunMidend = true;
  A.Options.UnrollOpts.HeuristicFactor = 2;
  ASSERT_TRUE(Service.compile(A).Succeeded);

  CompileJob B = A;
  B.Options.UnrollOpts.HeuristicFactor = 8;
  CompileResult R = Service.compile(B);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.L1Hit);
  EXPECT_TRUE(R.Trace.L2Hit);
  EXPECT_FALSE(R.Trace.L3Hit);

  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_EQ(S.L2.Hits, 1u);    // shared AST
  EXPECT_EQ(S.L2.Misses, 1u);  // built once
  EXPECT_EQ(S.L3.Misses, 2u);  // one module per factor
  EXPECT_EQ(S.L1.Misses, 1u);  // tokens produced once, never re-consulted
  EXPECT_EQ(S.L1.Hits, 0u);
}

TEST(ServiceCache, FailuresAreCachedToo) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  const char *Broken = "int main(void) { return x; }\n";
  CompileResult A = Service.compile(makeJob(Broken));
  EXPECT_FALSE(A.Succeeded);
  EXPECT_FALSE(A.Diagnostics.empty());

  CompileResult B = Service.compile(makeJob(Broken));
  EXPECT_FALSE(B.Succeeded);
  EXPECT_TRUE(B.Trace.L3Hit); // the failure artifact was served from cache
  EXPECT_EQ(A.Diagnostics, B.Diagnostics);
}

TEST(ServiceCache, AnalyzePassListIsPartOfTheASTKey) {
  // Under -Werror the race linter fails the racy program while the
  // dependence report only adds remarks: the two jobs share their tokens
  // but must not share an AST artifact.
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  CompileJob Deps = makeJob(RacyProgram);
  Deps.Options.WarningsAsErrors = true;
  Deps.Options.AnalyzePasses = {"deps"};
  CompileResult A = Service.compile(Deps);
  EXPECT_TRUE(A.Succeeded) << A.Diagnostics;

  CompileJob Race = Deps;
  Race.Options.AnalyzePasses = {"openmp-race-linter"};
  CompileResult B = Service.compile(Race);
  EXPECT_FALSE(B.Succeeded);
  EXPECT_NE(B.Diagnostics.find("data race"), std::string::npos)
      << B.Diagnostics;
  EXPECT_TRUE(B.Trace.L1Hit);
  EXPECT_FALSE(B.Trace.L2Hit);
}

TEST(ServiceCache, JobsReadNoFileButTheirOwnSource) {
  const std::string Dir = ::testing::TempDir();
  const std::string Name = "mcc_service_include_probe.h";
  std::ofstream(Dir + Name) << "int leaked_probe_bytes = 7;\n";
  ASSERT_TRUE(std::filesystem::exists(Dir + Name));

  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);
  // By absolute path, and by name through an include directory.
  const std::string Main = "int main(void) { return 0; }\n";
  CompileJob Absolute = makeJob("#include \"" + Dir + Name + "\"\n" + Main);
  CompileJob Searched = makeJob("#include \"" + Name + "\"\n" + Main);
  Searched.Options.IncludeDirs = {Dir};
  for (const CompileJob &Job : {Absolute, Searched}) {
    CompileResult R = Service.compile(Job);
    EXPECT_FALSE(R.Succeeded);
    EXPECT_NE(R.Diagnostics.find("file not found"), std::string::npos)
        << R.Diagnostics;
    EXPECT_EQ(R.Diagnostics.find("leaked_probe_bytes"), std::string::npos)
        << R.Diagnostics;
  }
  std::filesystem::remove(Dir + Name);
}

TEST(ServiceCache, LRUEvictionRespectsByteBudget) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.CacheBudgetBytes = 96u << 10; // small enough that ~30 programs churn
  CompileService Service(SO);

  for (int K = 0; K < 30; ++K) {
    std::string Source = "int main(void) { return " + std::to_string(K) +
                         "; }\n";
    ASSERT_TRUE(Service.compile(makeJob(Source)).Succeeded);
  }
  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_GT(S.L1.Evictions + S.L2.Evictions + S.L3.Evictions, 0u);
  EXPECT_LE(S.L1.Bytes, SO.CacheBudgetBytes / 4);

  // An evicted program recompiles from scratch, correctly.
  CompileResult R = Service.compile(makeJob("int main(void) { return 0; }\n"));
  EXPECT_TRUE(R.Succeeded) << R.Diagnostics;
}

//===----------------------------------------------------------------------===//
// Concurrency
//===----------------------------------------------------------------------===//

TEST(ServiceConcurrency, SingleFlightDedupUnderConcurrentIdenticalRequests) {
  ServiceOptions SO;
  SO.NumWorkers = 2;
  CompileService Service(SO);

  const unsigned N = stressWidth();
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<CompileResult> Results(N);
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      Results[I] = Service.compile(makeJob(SumProgram));
    });
  while (Ready.load() != N)
    std::this_thread::yield();
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();

  const ModuleArtifact *Mod = Results[0].Module.get();
  for (const CompileResult &R : Results) {
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    EXPECT_EQ(R.Module.get(), Mod); // everyone got the one shared artifact
  }

  // Single-flight: each level compiled exactly once; the other N-1
  // requests either blocked on the in-flight producer (waits) or arrived
  // after publication (hits). Nothing compiled redundantly.
  ServiceStatsSnapshot S = Service.statsSnapshot();
  EXPECT_EQ(S.L3.Misses, 1u);
  EXPECT_EQ(S.L3.Hits + S.L3.InFlightWaits, N - 1);
  EXPECT_EQ(S.L2.Misses, 1u);
  EXPECT_EQ(S.L1.Misses, 1u);
  EXPECT_EQ(S.Requests, N);
}

TEST(ServiceConcurrency, WorkerPoolServesQueuedJobs) {
  ServiceOptions SO;
  SO.NumWorkers = 4;
  CompileService Service(SO);

  const unsigned N = 24;
  std::vector<std::future<CompileResult>> Futures;
  Futures.reserve(N);
  for (unsigned I = 0; I < N; ++I) {
    // Half the jobs share one program, half are unique: exercises hits,
    // misses and in-flight waits on the pool simultaneously.
    std::string Source =
        I % 2 ? SumProgram
              : "int main(void) { return " + std::to_string(I) + "; }\n";
    CompileJob Job = makeJob(std::move(Source));
    Job.Execute = true;
    Futures.push_back(Service.enqueue(std::move(Job)));
  }
  for (unsigned I = 0; I < N; ++I) {
    CompileResult R = Futures[I].get();
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    ASSERT_TRUE(R.Executed);
    EXPECT_EQ(R.ExitValue, I % 2 ? 1225 : static_cast<std::int64_t>(I));
  }
  EXPECT_EQ(Service.statsSnapshot().Executions, N);
}

TEST(ServiceConcurrency, ThreadWidthSweepSharesOneModule) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);

  const char *Parallel = "int a[64];\n"
                         "int main(void) {\n"
                         "  #pragma omp parallel for\n"
                         "  for (int i = 0; i < 64; i = i + 1)\n"
                         "    a[i] = 3 * i;\n"
                         "  int sum = 0;\n"
                         "  for (int i = 0; i < 64; i = i + 1)\n"
                         "    sum += a[i];\n"
                         "  return sum;\n"
                         "}\n";
  std::int64_t Expected = 3 * (64 * 63 / 2);
  const ModuleArtifact *Shared = nullptr;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    CompileJob Job = makeJob(Parallel);
    Job.Execute = true;
    Job.Options.LangOpts.OpenMPDefaultNumThreads = Threads;
    CompileResult R = Service.compile(Job);
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
    EXPECT_EQ(R.ExitValue, Expected) << "threads=" << Threads;
    if (!Shared)
      Shared = R.Module.get();
    else {
      // Thread width is in no cache key: one module serves the sweep.
      EXPECT_TRUE(R.Trace.L3Hit);
      EXPECT_EQ(R.Module.get(), Shared);
    }
  }
  EXPECT_EQ(Service.statsSnapshot().L3.Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Parity with the single-shot pipeline
//===----------------------------------------------------------------------===//

TEST(ServiceParity, CachedModuleMatchesCompilerInstance) {
  for (bool IRBuilder : {false, true}) {
    CompilerOptions Options;
    Options.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
    Options.RunMidend = true;

    CompilerInstance CI(Options);
    ASSERT_TRUE(CI.compileSource(SumProgram)) << CI.renderDiagnostics();

    ServiceOptions SO;
    SO.NumWorkers = 1;
    CompileService Service(SO);
    CompileJob Job = makeJob(SumProgram);
    Job.Options = Options;
    CompileResult R = Service.compile(Job);
    ASSERT_TRUE(R.Succeeded) << R.Diagnostics;

    // Same options, same source: the cached module prints identically to
    // the module the one-shot pipeline produces.
    EXPECT_EQ(ir::printModule(R.Module->module()), CI.getIRText());
  }
}

//===----------------------------------------------------------------------===//
// On-disk artifact store
//===----------------------------------------------------------------------===//

namespace {

/// Fresh store root per test, removed afterwards.
class DiskStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = ::testing::TempDir() + "mcc_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Root);
  }
  void TearDown() override { std::filesystem::remove_all(Root); }
  std::string Root;
};

} // namespace

TEST_F(DiskStoreTest, RoundTripPreservesEveryByte) {
  DiskArtifact In;
  In.Failed = false;
  In.DiagText = "warning: something\nnote: here\n";
  In.IRText = "func @main() {\n  ret 0\n}\n";
  {
    ArtifactStore Store({Root, 1u << 20});
    ASSERT_TRUE(Store.store(0xDEADBEEFull, In));
    EXPECT_TRUE(Store.contains(0xDEADBEEFull));
    std::optional<DiskArtifact> Out = Store.load(0xDEADBEEFull);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Failed, In.Failed);
    EXPECT_EQ(Out->DiagText, In.DiagText);
    EXPECT_EQ(Out->IRText, In.IRText);
  }
  // A second store process (fresh index) finds the artifact again.
  ArtifactStore Store2({Root, 1u << 20});
  std::optional<DiskArtifact> Out = Store2.load(0xDEADBEEFull);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(Out->IRText, In.IRText);
  EXPECT_EQ(Store2.statsSnapshot().Hits, 1u);
}

TEST_F(DiskStoreTest, CorruptedPayloadIsAVerifiedMiss) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.DiagText = "diagnostics";
  In.IRText = std::string(256, 'x');
  ASSERT_TRUE(Store.store(7, In));

  // Flip one payload byte behind the store's back. FNV-1a is only 64 bits
  // — the header hash must catch this and degrade to a miss, never hand
  // back a wrong artifact.
  std::string Path = Store.objectPath(7);
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.is_open());
    F.seekp(-10, std::ios::end);
    F.put('y');
  }
  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(7).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
  // The offending file was unlinked: the next load is a plain miss.
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(Fresh.load(7).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
}

TEST_F(DiskStoreTest, TruncatedArtifactIsAVerifiedMiss) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.IRText = std::string(512, 'z');
  ASSERT_TRUE(Store.store(9, In));
  std::string Path = Store.objectPath(9);
  std::filesystem::resize_file(Path, std::filesystem::file_size(Path) / 2);

  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(9).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST_F(DiskStoreTest, WrongKeyFileIsRejected) {
  ArtifactStore Store({Root, 1u << 20});
  DiskArtifact In;
  In.IRText = "ir";
  ASSERT_TRUE(Store.store(11, In));
  // A file renamed to another key's slot must not satisfy that key.
  std::filesystem::rename(Store.objectPath(11), Store.objectPath(12));
  ArtifactStore Fresh({Root, 1u << 20});
  EXPECT_FALSE(Fresh.load(12).has_value());
  EXPECT_EQ(Fresh.statsSnapshot().BadArtifacts, 1u);
}

TEST_F(DiskStoreTest, BudgetDrivenLRUSweep) {
  ArtifactStore Store({Root, 4096});
  DiskArtifact Big;
  Big.IRText = std::string(1024, 'm');
  for (std::uint64_t K = 1; K <= 16; ++K)
    ASSERT_TRUE(Store.store(K, Big));

  DiskStoreSnapshot S = Store.statsSnapshot();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Bytes, 4096u);
  // Newest entries survive; the oldest were swept.
  EXPECT_TRUE(Store.contains(16));
  EXPECT_FALSE(Store.contains(1));
  EXPECT_FALSE(std::filesystem::exists(Store.objectPath(1)));
}

TEST_F(DiskStoreTest, IndexFlushPreservesRecencyAcrossRestart) {
  DiskArtifact A;
  A.IRText = std::string(1024, 'r');
  {
    ArtifactStore Store({Root, 1u << 20});
    for (std::uint64_t K = 1; K <= 4; ++K)
      ASSERT_TRUE(Store.store(K, A));
    // Touch key 1 so it becomes most-recent despite being stored first.
    ASSERT_TRUE(Store.load(1).has_value());
    Store.flushIndex();
  }
  // Restart with a budget that only fits two entries: the sweep must
  // honour the flushed recency order (1 was touched; 2 is the LRU tail).
  ArtifactStore Store({Root, 2 * (1024 + 128)});
  EXPECT_TRUE(Store.contains(1));
  EXPECT_FALSE(Store.contains(2));
}

TEST_F(DiskStoreTest, ServiceWarmFromDiskAfterRestart) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;

  CompileResult Cold;
  {
    CompileService Service(SO);
    Cold = Service.compile(makeJob(SumProgram));
    ASSERT_TRUE(Cold.Succeeded) << Cold.Diagnostics;
    EXPECT_FALSE(Cold.Trace.DiskHit);
    Service.shutdown(); // flushes the index
  }

  // A new service on the same root answers from disk: no parse, no sema,
  // no lowering — and the outcome contract is byte-identical.
  CompileService Warm(SO);
  CompileResult R = Warm.compile(makeJob(SumProgram));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_TRUE(R.Trace.DiskHit);
  EXPECT_FALSE(R.Trace.L1Hit); // nothing below L3 was consulted
  EXPECT_EQ(R.Diagnostics, Cold.Diagnostics);
  ASSERT_TRUE(R.Module != nullptr);
  EXPECT_FALSE(R.Module->hasLiveModule()); // a disk stub, not a live module
  EXPECT_EQ(R.Module->irText(), ir::printModule(Cold.Module->module()));
  EXPECT_EQ(Warm.statsSnapshot().Disk.Hits, 1u);
}

TEST_F(DiskStoreTest, FailureVerdictsPersistByteForByte) {
  const char *Broken = "int main(void) { return undeclared; }\n";
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;

  std::string ColdDiag;
  {
    CompileService Service(SO);
    CompileResult A = Service.compile(makeJob(Broken));
    EXPECT_FALSE(A.Succeeded);
    ColdDiag = A.Diagnostics;
    Service.shutdown();
  }
  CompileService Warm(SO);
  CompileResult B = Warm.compile(makeJob(Broken));
  EXPECT_FALSE(B.Succeeded);
  EXPECT_TRUE(B.Trace.DiskHit);
  EXPECT_EQ(B.Diagnostics, ColdDiag);
}

TEST_F(DiskStoreTest, ExecuteJobsPromoteDiskStubsToLiveModules) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;
  {
    CompileService Service(SO);
    ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);
    Service.shutdown();
  }

  CompileService Warm(SO);
  // Populate L3 with the disk stub first.
  CompileResult Stub = Warm.compile(makeJob(SumProgram));
  EXPECT_TRUE(Stub.Trace.DiskHit);

  // An execute request cannot run a stub: it must rebuild a live module
  // (promoting the cache slot) and still produce the right answer.
  CompileJob Run = makeJob(SumProgram);
  Run.Execute = true;
  CompileResult R = Warm.compile(Run);
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  ASSERT_TRUE(R.Executed);
  EXPECT_EQ(R.ExitValue, 1225);
  ASSERT_TRUE(R.Module != nullptr);
  EXPECT_TRUE(R.Module->hasLiveModule());

  // The promotion is sticky: the next execute request hits the live
  // module in L3 without recompiling.
  CompileResult Again = Warm.compile(Run);
  ASSERT_TRUE(Again.Succeeded);
  EXPECT_TRUE(Again.Trace.L3Hit);
  EXPECT_EQ(Again.Module.get(), R.Module.get());
}

TEST_F(DiskStoreTest, CorruptedStoreOnlySlowsTheServiceDown) {
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;
  {
    CompileService Service(SO);
    ASSERT_TRUE(Service.compile(makeJob(SumProgram)).Succeeded);
    Service.shutdown();
  }
  // Corrupt every object in the store.
  for (const auto &E :
       std::filesystem::directory_iterator(Root + "/objects")) {
    std::fstream F(E.path(), std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-1, std::ios::end);
    F.put('!');
  }
  CompileService Warm(SO);
  CompileResult R = Warm.compile(makeJob(SumProgram));
  ASSERT_TRUE(R.Succeeded) << R.Diagnostics;
  EXPECT_FALSE(R.Trace.DiskHit); // verified miss, recompiled from source
  EXPECT_GE(Warm.statsSnapshot().Disk.BadArtifacts, 1u);
}

TEST_F(DiskStoreTest, EditingAnIncludedFileCannotStaleAVerdict) {
  // The L1 key hashes only the job's own source. That is sound because a
  // job reads no other file: the verdict served from disk after the
  // "header" changes is the verdict a fresh compile gives now.
  const std::string Header = Root + "-probe.h";
  const std::string Source =
      "#include \"" + Header + "\"\nint main(void) { return helper(); }\n";
  std::ofstream(Header) << "int helper(void) { return 1; }\n";
  ServiceOptions SO;
  SO.NumWorkers = 1;
  SO.DiskStorePath = Root;
  {
    CompileService Service(SO);
    CompileResult Cold = Service.compile(makeJob(Source));
    EXPECT_FALSE(Cold.Succeeded);
    Service.shutdown();
  }
  std::ofstream(Header) << "this is not C\n";

  CompileService Warm(SO);
  CompileResult R = Warm.compile(makeJob(Source));
  EXPECT_TRUE(R.Trace.DiskHit);
  ServiceOptions NoDisk;
  NoDisk.NumWorkers = 1;
  CompileService Fresh(NoDisk);
  CompileResult Now = Fresh.compile(makeJob(Source));
  EXPECT_EQ(R.Succeeded, Now.Succeeded);
  EXPECT_EQ(R.Diagnostics, Now.Diagnostics);
  std::filesystem::remove(Header);
}

//===----------------------------------------------------------------------===//
// Job-spec grammar (shared by job files and the wire protocol)
//===----------------------------------------------------------------------===//

TEST(JobSpec, FlagWordsRoundTripThroughRender) {
  CompileJob Job;
  std::string Error;
  for (const char *W :
       {"-O1", "-run", "-w", "-Werror", "-fopenmp-enable-irbuilder",
        "-num-threads=7", "-unroll-factor=4", "-exec-engine=bytecode",
        "-DN=32", "--analyze=deps"})
    ASSERT_TRUE(parseJobFlagWord(W, Job, Error)) << W << ": " << Error;

  // render -> parse -> render must be a fixed point.
  std::string Flags = renderJobFlags(Job);
  CompileJob Re;
  for (const std::string &W : splitJobWords(Flags))
    ASSERT_TRUE(parseJobFlagWord(W, Re, Error)) << W << ": " << Error;
  EXPECT_EQ(renderJobFlags(Re), Flags);
  EXPECT_EQ(Re.Execute, Job.Execute);
  EXPECT_EQ(Re.Options.RunMidend, Job.Options.RunMidend);
  EXPECT_EQ(Re.Options.UnrollOpts.HeuristicFactor,
            Job.Options.UnrollOpts.HeuristicFactor);
  EXPECT_EQ(Re.Options.LangOpts.OpenMPDefaultNumThreads,
            Job.Options.LangOpts.OpenMPDefaultNumThreads);
  EXPECT_EQ(Re.Options.Defines, Job.Options.Defines);
  EXPECT_EQ(Re.Options.AnalyzePasses, Job.Options.AnalyzePasses);

  // "--x" and "-x" are one word.
  CompileJob Other;
  for (const std::string &W : splitJobWords(Flags)) {
    std::string Spelling = W.starts_with("--") ? W.substr(1) : "-" + W;
    ASSERT_TRUE(parseJobFlagWord(Spelling, Other, Error))
        << Spelling << ": " << Error;
  }
  EXPECT_EQ(renderJobFlags(Other), Flags);
}

TEST(JobSpec, UnknownFlagsAndBadLinesAreRejected) {
  CompileJob Job;
  std::string Error;
  EXPECT_FALSE(parseJobFlagWord("-frobnicate", Job, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseJobFlagWord("-exec-engine=quantum", Job, Error));

  // Numbers are whole decimals in range: -num-threads= from 1 to INT_MAX
  // (a team of 0 would divide by zero at run time), -unroll-factor= within
  // unsigned. Empty lists, signs, junk and overflow are errors, and a
  // rejected word leaves the job untouched.
  for (const char *W :
       {"-num-threads=0", "-num-threads=abc", "-num-threads=",
        "-num-threads=-1", "-num-threads=+2", "-num-threads=2x",
        "-num-threads=2147483648", "--num-threads=0", "-num-threads",
        "-unroll-factor=", "-unroll-factor=-1", "-unroll-factor=0x4",
        "-unroll-factor=4294967296", "-unroll-factor=4294967297",
        "--analyze=", "-analyze=,"})
    EXPECT_FALSE(parseJobFlagWord(W, Job, Error)) << W;
  EXPECT_EQ(Job.Options.LangOpts.OpenMPDefaultNumThreads,
            CompilerOptions().LangOpts.OpenMPDefaultNumThreads);
  EXPECT_EQ(Job.Options.UnrollOpts.HeuristicFactor,
            CompilerOptions().UnrollOpts.HeuristicFactor);
  EXPECT_TRUE(Job.Options.AnalyzePasses.empty());
  for (const char *W : {"-num-threads=1", "--num-threads=2147483647",
                        "-unroll-factor=0", "-unroll-factor=4294967295"})
    EXPECT_TRUE(parseJobFlagWord(W, Job, Error)) << W << ": " << Error;

  std::string File;
  Error.clear();
  EXPECT_FALSE(parseJobSpecLine("# just a comment", Job, File, Error));
  EXPECT_TRUE(Error.empty()); // comments are skipped, not errors
  EXPECT_FALSE(parseJobSpecLine("a.c b.c", Job, File, Error));
  EXPECT_FALSE(Error.empty()); // two file operands
  Error.clear();
  EXPECT_TRUE(parseJobSpecLine("-O1 -run prog.c", Job, File, Error)) << Error;
  EXPECT_EQ(File, "prog.c");
  EXPECT_TRUE(Job.Execute);
  EXPECT_TRUE(Job.Options.RunMidend);
}

namespace {

/// Inputs of the parity table: every verdict the pipeline can reach.
const char *const ParityInputs[] = {
    // A clean transformed program (-DN changes its result).
    "#ifndef N\n"
    "#define N 16\n"
    "#endif\n"
    "int a[64];\n"
    "int main(void) {\n"
    "  #pragma omp parallel for\n"
    "  #pragma omp tile sizes(4)\n"
    "  for (int i = 0; i < N; i = i + 1)\n"
    "    a[i] = 2 * i;\n"
    "  int s = 0;\n"
    "  #pragma omp unroll partial(2)\n"
    "  for (int i = 0; i < N; i = i + 1)\n"
    "    s += a[i];\n"
    "  return s;\n"
    "}\n",
    RacyProgram,
    // A preprocessor warning: silent under -w, an error under -Werror.
    "#define K 2\n"
    "#define K 3\n"
    "int main(void) { return K; }\n",
    // A lexing error followed by a parse error (the missing ';').
    "int main(void) {\n"
    "  int x = 1 @ 2;\n"
    "  return x\n"
    "}\n",
    // A legality refusal: reversing a loop-carried flow dependence.
    "int a[64];\n"
    "int main(void) {\n"
    "  a[0] = 1;\n"
    "  #pragma omp reverse\n"
    "  for (int i = 1; i < 64; i += 1)\n"
    "    a[i] = a[i - 1] + 1;\n"
    "  return a[63];\n"
    "}\n",
};

/// Rows of the parity table: every word of the flag grammar, in both
/// spellings and in the combinations that change a verdict.
const char *const ParityFlagLines[] = {
    "",
    "-fopenmp",
    "-fno-openmp",
    "-fopenmp-enable-irbuilder",
    "-O1",
    "-run",
    "--analyze",
    "-analyze=openmp-race-linter",
    "--analyze=canonical-loop-conformance,deps",
    "--analyze=no-such-pass",
    "-w",
    "-Werror",
    "-w --Werror",
    "-Werror --analyze",
    "-DN=8 -run",
    "-O1 -unroll-factor=8 -run",
    "-run -num-threads=3",
    "-run --exec-engine=walker",
    "-run -exec-engine=bytecode",
    "-run --exec-engine=native",
    "--run --exec-engine=tiered -fopenmp-enable-irbuilder -O1",
};

} // namespace

TEST(ServiceParity, DiagnosticsMatchCompilerInstance) {
  // One service for the whole table, so every row after the first is
  // served through caches that earlier rows filled: a cached artifact
  // must answer exactly as a fresh CompilerInstance does.
  ServiceOptions SO;
  SO.NumWorkers = 1;
  CompileService Service(SO);
  for (const char *Line : ParityFlagLines) {
    for (std::size_t K = 0; K < std::size(ParityInputs); ++K) {
      SCOPED_TRACE(std::string("flags '") + Line + "', input " +
                   std::to_string(K));
      CompileJob Job = makeJob(ParityInputs[K]);
      std::string Error;
      for (const std::string &W : splitJobWords(Line))
        ASSERT_TRUE(parseJobFlagWord(W, Job, Error)) << Error;

      CompilerInstance CI(Job.Options);
      const bool DirectOK = CI.compileSource(Job.Source);
      std::int64_t DirectExit = 0;
      if (DirectOK && Job.Execute) {
        rt::OpenMPRuntime::get().setDefaultNumThreads(
            Job.Options.LangOpts.OpenMPDefaultNumThreads);
        interp::ExecutionEngine EE(*CI.getIRModule(), Job.Options.ExecEngine);
        DirectExit = EE.runFunction("main", {}).I;
      }

      CompileResult R = Service.compile(Job);
      EXPECT_EQ(R.Succeeded, DirectOK);
      EXPECT_EQ(R.Diagnostics, CI.renderDiagnostics());
      EXPECT_EQ(R.Executed, DirectOK && Job.Execute);
      if (R.Executed) {
        EXPECT_EQ(R.ExitValue, DirectExit);
      }
    }
  }
}
