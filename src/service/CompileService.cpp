//===--- CompileService.cpp - Concurrent content-addressed compiles --------===//
//
// Producer implementations for the three cache levels, the request path
// that chains them (each level's producer consults the level below, so a
// warm request touches exactly one cache), and the worker pool.
//
//===----------------------------------------------------------------------===//
#include "service/CompileService.h"

#include "runtime/KMPRuntime.h"
#include "support/ContentHash.h"

#include <algorithm>

namespace mcc::svc {

//===----------------------------------------------------------------------===//
// Cache keys
//===----------------------------------------------------------------------===//

namespace {

std::uint64_t hashBool(std::uint64_t H, bool B) {
  return hashCombine(H, B ? 1 : 0);
}

} // namespace

std::uint64_t tokenStreamKey(std::string_view Source,
                             const CompilerOptions &Options) {
  std::uint64_t H = hashBytes(Source);
  H = hashCombine(H, 0x4c31); // level salt
  H = hashBool(H, Options.LangOpts.OpenMP);
  H = hashBool(H, Options.SuppressWarnings);
  H = hashBool(H, Options.WarningsAsErrors);
  H = hashCombine(H, Options.Defines.size());
  for (const auto &[Name, Value] : Options.Defines) {
    H = hashBytes(Name, H);
    H = hashBytes(Value, hashCombine(H, '='));
  }
  // NOT hashed: the registration path (content addressing),
  // OpenMPDefaultNumThreads (runtime-only; see header) and IncludeDirs (a
  // job's FileManager holds nothing to find in them).
  return H;
}

std::uint64_t astKey(std::uint64_t L1Key, const CompilerOptions &Options) {
  std::uint64_t H = hashCombine(L1Key, 0x4c32);
  // Sema builds different trees per lowering mode: shadow-AST helper
  // expressions vs OMPCanonicalLoop wrappers.
  H = hashBool(H, Options.LangOpts.OpenMPEnableIRBuilder);
  H = hashCombine(H, Options.LangOpts.HeuristicUnrollFactor);
  H = hashBool(H, Options.RunASTVerifier);
  H = hashBool(H, Options.RunAnalyzers);
  H = hashCombine(H, Options.AnalyzePasses.size());
  for (const std::string &Pass : Options.AnalyzePasses)
    H = hashBytes(Pass, hashCombine(H, Pass.size()));
  return H;
}

std::uint64_t moduleKey(std::uint64_t L2Key, const CompilerOptions &Options) {
  std::uint64_t H = hashCombine(L2Key, 0x4c33);
  H = hashBool(H, Options.RunVerifier);
  H = hashBool(H, Options.RunMidend);
  H = hashCombine(H, static_cast<std::uint64_t>(Options.UnrollOpts.Strat));
  H = hashCombine(H, Options.UnrollOpts.HeuristicFactor);
  H = hashCombine(H, Options.UnrollOpts.HeuristicSizeLimit);
  H = hashCombine(H, Options.UnrollOpts.FullUnrollMax);
  return H;
}

//===----------------------------------------------------------------------===//
// Producers
//===----------------------------------------------------------------------===//

namespace {

/// Rough retained size of an IR module for the LRU byte budget.
std::size_t estimateModuleBytes(const ir::Module &M) {
  std::size_t Bytes = 1024;
  for (const auto &F : M.functions()) {
    Bytes += 256;
    for (const auto &B : F->blocks())
      Bytes += 64 + B->instructions().size() * 96;
  }
  for (const auto &G : M.globals())
    Bytes += 128 + G->getSizeInBytes();
  return Bytes;
}

} // namespace

std::string ModuleArtifact::irText() const {
  if (DiskLoaded)
    return IRText;
  return Mod ? ir::printModule(*Mod) : std::string();
}

std::shared_ptr<TokenStreamArtifact>
CompileService::produceTokens(const CompileJob &Job) {
  auto A = std::make_shared<TokenStreamArtifact>();
  A->Diags.setSuppressAllWarnings(Job.Options.SuppressWarnings);
  A->Diags.setWarningsAsErrors(Job.Options.WarningsAsErrors);
  A->FM.addVirtualFile(Job.Path, Job.Source);
  A->PP = std::make_unique<Preprocessor>(A->FM, A->SM, A->Diags);
  A->Failed = !lexMainFile(*A->PP, Job.Options, Job.Path, A->Tokens);
  A->DiagText = A->DiagStore.render(A->SM);
  A->Bytes = sizeof(TokenStreamArtifact) + Job.Source.size() +
             A->Tokens.capacity() * sizeof(Token) + 4096;
  return A;
}

std::shared_ptr<ASTArtifact>
CompileService::produceAST(std::shared_ptr<const TokenStreamArtifact> Toks,
                           const CompilerOptions &Options) {
  auto A = std::make_shared<ASTArtifact>();
  A->Tokens = Toks;
  if (Toks->Failed) {
    A->Failed = true;
    A->DiagText = Toks->DiagText;
    A->Bytes = sizeof(ASTArtifact) + 256;
    return A;
  }

  // Diagnostics are per-request state and belong to this production run.
  StoringDiagnosticConsumer Store;
  DiagnosticsEngine Diags(&Store);
  Diags.setSuppressAllWarnings(Options.SuppressWarnings);
  Diags.setWarningsAsErrors(Options.WarningsAsErrors);
  // The artifact's SourceManager is shared between concurrent replays; the
  // replaying Preprocessor wants a mutable reference but never mutates it
  // (all includes were folded into the recorded stream).
  auto &SM = const_cast<SourceManager &>(Toks->SM);
  {
    Sema Actions(A->Ctx, Diags, Options.LangOpts);
    A->Failed = !parseTokenStream(Toks->Tokens, SM, Actions, Options, A->TU);
  }
  A->DiagText = Toks->DiagText + Store.render(Toks->SM);
  A->Bytes =
      sizeof(ASTArtifact) + A->Ctx.getTotalAllocatedBytes() + 4096;
  return A;
}

std::shared_ptr<ModuleArtifact>
CompileService::produceModule(std::shared_ptr<const ASTArtifact> AST,
                              const CompilerOptions &Options) {
  auto A = std::make_shared<ModuleArtifact>();
  A->AST = AST;
  if (AST->Failed) {
    A->Failed = true;
    A->DiagText = AST->DiagText;
    A->Bytes = sizeof(ModuleArtifact) + 256;
    return A;
  }

  // The request's options: every LangOption CodeGen reads is part of the
  // L2 key, so the cached module is still a pure function of the L2
  // artifact plus the L3 knobs.
  StoringDiagnosticConsumer Store;
  DiagnosticsEngine Diags(&Store);
  A->Mod = std::make_unique<ir::Module>("main");
  A->Failed = !emitModule(AST->Ctx, AST->TU, Options, Diags, *A->Mod,
                          A->MidendStats);
  A->DiagText = AST->DiagText + Store.render(AST->Tokens->SM);
  A->Bytes = sizeof(ModuleArtifact) + estimateModuleBytes(*A->Mod);
  if (!A->Failed) {
    // Translate to bytecode while we are already the single-flight
    // producer: every execution (and every engine built from this
    // artifact) shares the one translation. Engine choice is not part of
    // the L3 key precisely because the translation is engine-independent.
    A->Bytecode = interp::bc::compileToBytecode(*A->Mod);
    A->Bytes += A->Bytecode->byteSize();
  }
  return A;
}

//===----------------------------------------------------------------------===//
// Request path
//===----------------------------------------------------------------------===//

std::shared_ptr<ModuleArtifact>
CompileService::produceModuleChain(const CompileJob &Job, std::uint64_t K1,
                                   std::uint64_t K2, CacheTrace &Trace) {
  std::shared_ptr<const ASTArtifact> AST =
      L2Cache.getOrProduce(K2, Trace.L2Hit, [&] {
        std::shared_ptr<const TokenStreamArtifact> Toks = L1Cache.getOrProduce(
            K1, Trace.L1Hit, [&] { return produceTokens(Job); });
        return produceAST(std::move(Toks), Job.Options);
      });
  return produceModule(std::move(AST), Job.Options);
}

CompileResult CompileService::compile(const CompileJob &Job) {
  Requests.fetch_add(1, std::memory_order_relaxed);
  CompileResult Res;

  const std::uint64_t K1 = tokenStreamKey(Job.Source, Job.Options);
  const std::uint64_t K2 = astKey(K1, Job.Options);
  const std::uint64_t K3 = moduleKey(K2, Job.Options);

  // Lazy chain: each level's producer consults the level below, so a hit
  // at level N leaves the levels below untouched (their stats do not
  // move). A thread never holds a cache lock while producing, so the
  // nesting cannot deadlock (the consultation order is strictly
  // L3 -> disk -> L2 -> L1).
  std::shared_ptr<const ModuleArtifact> Mod = L3Cache.getOrProduce(
      K3, Res.Trace.L3Hit, [&]() -> std::shared_ptr<ModuleArtifact> {
        // The disk store sits directly under the in-memory L3: a disk
        // hit skips the whole pipeline. Execute requests need a live
        // ir::Module, which the disk record cannot provide, so they go
        // straight to a real compile (store() below dedupes the publish).
        if (Disk && !Job.Execute) {
          if (std::optional<DiskArtifact> DA = Disk->load(K3)) {
            Res.Trace.DiskHit = true;
            auto A = std::make_shared<ModuleArtifact>();
            A->DiskLoaded = true;
            A->Failed = DA->Failed;
            A->DiagText = std::move(DA->DiagText);
            A->IRText = std::move(DA->IRText);
            A->Bytes = sizeof(ModuleArtifact) + A->DiagText.size() +
                       A->IRText.size();
            return A;
          }
        }
        std::shared_ptr<ModuleArtifact> A =
            produceModuleChain(Job, K1, K2, Res.Trace);
        if (Disk) {
          DiskArtifact DA;
          DA.Failed = A->Failed;
          DA.DiagText = A->DiagText;
          if (!A->Failed)
            DA.IRText = ir::printModule(*A->Mod);
          Disk->store(K3, DA);
        }
        return A;
      });

  // Stub promotion: an Execute request that found a disk-loaded outcome
  // in L3 must recompile (no live module to run). The real artifact then
  // replaces the stub so every later request — execute or not — gets the
  // live module. Concurrent promoters may compile redundantly; update()
  // keeps the race benign and the window closes after one promotion.
  if (Job.Execute && Mod && Mod->DiskLoaded) {
    std::shared_ptr<ModuleArtifact> Real =
        produceModuleChain(Job, K1, K2, Res.Trace);
    L3Cache.update(K3, Real);
    Mod = std::move(Real);
  }

  // Cascade the trace: a hit at level N means the request was served at
  // or above every lower level too.
  if (Res.Trace.L3Hit)
    Res.Trace.L2Hit = true;
  if (Res.Trace.L2Hit)
    Res.Trace.L1Hit = true;

  Res.Module = Mod;
  Res.Succeeded = Mod && Mod->ok();
  Res.Diagnostics = Mod ? Mod->DiagText : "compile service internal error\n";

  if (Res.Succeeded && Job.Execute) {
    const ir::Function *Main = Mod->module().getFunction("main");
    if (!Main || Main->isDeclaration()) {
      Res.Succeeded = false;
      Res.Diagnostics += "error: no main() to execute\n";
      return Res;
    }
    // The only option outside every cache key: thread width is applied to
    // the shared runtime at execution time, never baked into the module.
    rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();
    RT.setDefaultNumThreads(Job.Options.LangOpts.OpenMPDefaultNumThreads);
    interp::ExecutionEngine EE(Mod->module(), Job.Options.ExecEngine,
                               Mod->Bytecode);
    Res.ExitValue = EE.runFunction("main", {}).I;
    Res.Executed = true;
    Executions.fetch_add(1, std::memory_order_relaxed);
  }
  return Res;
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

CompileService::CompileService(ServiceOptions O)
    : Opts(O),
      L1Cache(Opts.CacheBudgetBytes / 4, L1Stats),
      L2Cache(Opts.CacheBudgetBytes * 35 / 100, L2Stats),
      L3Cache(Opts.CacheBudgetBytes * 40 / 100, L3Stats) {
  if (!Opts.DiskStorePath.empty()) {
    ArtifactStoreOptions AO;
    AO.Root = Opts.DiskStorePath;
    AO.BudgetBytes = Opts.DiskBudgetBytes;
    Disk = std::make_unique<ArtifactStore>(std::move(AO));
  }
  unsigned N = std::max(1u, Opts.NumWorkers);
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService() { shutdown(); }

void CompileService::workerLoop() {
  for (;;) {
    std::packaged_task<CompileResult()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping, and the queue has drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

std::future<CompileResult> CompileService::enqueue(CompileJob Job) {
  std::packaged_task<CompileResult()> Task(
      [this, J = std::move(Job)] { return compile(J); });
  std::future<CompileResult> F = Task.get_future();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping) {
      // The pool is gone; serve the caller inline rather than returning a
      // future that would never become ready.
      Task();
      return F;
    }
    Queue.push_back(std::move(Task));
  }
  QueueCV.notify_one();
  return F;
}

void CompileService::enqueueAsync(CompileJob Job,
                                  std::function<void(CompileResult)> Done) {
  std::packaged_task<CompileResult()> Task(
      [this, J = std::move(Job), D = std::move(Done)] {
        CompileResult R = compile(J);
        if (D)
          D(R);
        return R;
      });
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping) {
      Task(); // pool gone: serve (and notify) inline
      return;
    }
    Queue.push_back(std::move(Task));
  }
  QueueCV.notify_one();
}

void CompileService::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping && Workers.empty())
      return;
    Stopping = true;
  }
  QueueCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
  // Persist the disk store's recency ordering now that no producer can
  // publish anymore.
  if (Disk)
    Disk->flushIndex();
  // Quiesce the shared OpenMP runtime: joins the hot-team worker pool so
  // a service shutdown leaves no background threads (the pool respawns
  // lazily if the process forks again).
  rt::OpenMPRuntime::get().shutdown();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

namespace {

CacheLevelSnapshot snapshot(const CacheLevelStats &Live) {
  CacheLevelSnapshot S;
#define CACHE_STAT(Name, Field)                                                \
  S.Field = Live.Field.load(std::memory_order_relaxed);
#include "service/ServiceStats.def"
  return S;
}

void addLevel(stats::Component &C, const char *Group,
              const CacheLevelSnapshot &S) {
#define CACHE_STAT(Name, Field) C.add(Group, #Name, S.Field);
#include "service/ServiceStats.def"
}

} // namespace

ServiceStatsSnapshot CompileService::statsSnapshot() const {
  ServiceStatsSnapshot S;
#define SERVICE_STAT(Group, Name, Field)                                       \
  S.Field = Field.load(std::memory_order_relaxed);
#include "service/ServiceStats.def"
  S.Workers = std::max(1u, Opts.NumWorkers);
  S.L1 = snapshot(L1Stats);
  S.L2 = snapshot(L2Stats);
  S.L3 = snapshot(L3Stats);
  if (Disk)
    S.Disk = Disk->statsSnapshot();
  return S;
}

stats::Component statsComponent(const ServiceStatsSnapshot &S) {
  stats::Component C{"service", {}};
#define SERVICE_STAT(Group, Name, Field) C.add(#Group, #Name, S.Field);
#include "service/ServiceStats.def"
  C.add("jobs", "workers", S.Workers);
  addLevel(C, "l1_tokens", S.L1);
  addLevel(C, "l2_ast", S.L2);
  addLevel(C, "l3_module", S.L3);
  if (S.Disk) {
#define DISK_STAT(Group, Name, Field) C.add(#Group, #Name, S.Disk->Field);
#include "service/ServiceStats.def"
  }
  return C;
}

} // namespace mcc::svc
