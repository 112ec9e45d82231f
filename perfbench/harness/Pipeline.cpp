#include "Pipeline.h"

#include "analysis/Analysis.h"
#include "midend/LoopUnroll.h"

#include <cassert>
#include <exception>

namespace perfbench {

using namespace mcc;

std::uint64_t countInstructions(const ir::Module &M) {
  std::uint64_t N = 0;
  for (const auto &F : M.functions())
    for (const auto &B : F->blocks())
      N += B->instructions().size();
  return N;
}

bool isLegalityRefusal(const std::string &Diagnostics) {
  return Diagnostics.find("is refused") != std::string::npos ||
         Diagnostics.find("cannot prove") != std::string::npos;
}

const char *loweringName(const CompilerOptions &Opts) {
  return Opts.LangOpts.OpenMPEnableIRBuilder ? "irbuilder" : "legacy";
}

TracedCompile::TracedCompile(CompilerOptions O, Trace *T, std::uint32_t JobId,
                             int Parent)
    : Opts(std::move(O)), T(T), JobId(JobId), Parent(Parent),
      Diags(&DiagStore) {
  Diags.setSuppressAllWarnings(Opts.SuppressWarnings);
  Diags.setWarningsAsErrors(Opts.WarningsAsErrors);
}

TracedCompile::~TracedCompile() = default;

bool TracedCompile::compile(std::string_view Source) {
  // --analyze=<list> selects passes by name; the benchmark's jobs use the
  // bare --analyze set only, which is what the compile service honours.
  assert(Opts.AnalyzePasses.empty());
  return parseToAST(Source) && emitIR();
}

bool TracedCompile::parseToAST(std::string_view Source) {
  {
    ScopedSpan S(T, JobId, "lex", Parent);
    FM.addVirtualFile("input.c", Source);
    LexPP = std::make_unique<Preprocessor>(FM, SM, Diags);
    LexPP->setOpenMPEnabled(Opts.LangOpts.OpenMP);
    for (const auto &[Name, Value] : Opts.Defines)
      LexPP->defineCommandLineMacro(Name, Value);
    for (const std::string &Dir : Opts.IncludeDirs)
      LexPP->addIncludeDir(Dir);
    if (!LexPP->enterMainFile("input.c")) {
      Diags.report(SourceLocation(), diag::err_pp_file_not_found) << "input.c";
      return false;
    }
    Token Tok;
    do {
      LexPP->lex(Tok);
      Tokens.push_back(Tok);
    } while (!Tok.is(tok::eof));
  }
  Counters.Tokens = Tokens.size();

  {
    ScopedSpan S(T, JobId, std::string("parse_sema.") + loweringName(Opts),
                 Parent);
    ReplayPP = std::make_unique<Preprocessor>(ReplayFM, SM, Diags);
    ReplayPP->setOpenMPEnabled(Opts.LangOpts.OpenMP);
    ReplayPP->enterTokenStream(std::span<const Token>(Tokens));
    Actions = std::make_unique<Sema>(Ctx, Diags, Opts.LangOpts);
    Parser P(*ReplayPP, *Actions);
    TU = P.parseTranslationUnit();
  }
  Counters.ASTNodes = Ctx.getNumNodes();
  Counters.ASTBytes = Ctx.getTotalAllocatedBytes();
  if (!TU || Diags.hasErrorOccurred())
    return false;

  auto RunPass = [&](const char *Name,
                     std::unique_ptr<analysis::ASTAnalysis> Pass) {
    ScopedSpan S(T, JobId, Name, Parent);
    analysis::AnalysisManager AM(Ctx, Diags);
    AM.addPass(std::move(Pass));
    AM.run(TU);
  };
  // registerDefaultAnalyses' order, one manager per pass.
  if (Opts.RunASTVerifier)
    RunPass("analysis.verifier", analysis::createPostTransformVerifier());
  if (Opts.RunAnalyzers) {
    RunPass("analysis.race_linter", analysis::createOpenMPRaceLinter());
    RunPass("analysis.conformance",
            analysis::createCanonicalLoopConformanceCheck());
  }
  return !Diags.hasErrorOccurred();
}

bool TracedCompile::verify(const char *What) {
  if (!Opts.RunVerifier)
    return true;
  ScopedSpan S(T, JobId, "ir.verify", Parent);
  std::string Err = ir::verifyModule(*Mod);
  if (Err.empty())
    return true;
  Diags.report(SourceLocation(), diag::err_codegen_unsupported)
      << (std::string(What) + Err);
  return false;
}

bool TracedCompile::emitIR() {
  {
    ScopedSpan S(T, JobId, std::string("codegen.") + loweringName(Opts),
                 Parent);
    Mod = std::make_unique<ir::Module>("main");
    CodeGenModule CGM(Ctx, Opts.LangOpts, *Mod);
    CGM.emitTranslationUnit(TU);
  }
  Counters.IRInstsCodegen = countInstructions(*Mod);
  Counters.IRInstsFinal = Counters.IRInstsCodegen;
  if (!verify("invalid IR produced:\n"))
    return false;
  if (!Opts.RunMidend)
    return true;

  // midend::runDefaultPipeline, pass by pass.
  midend::PipelineStats &PS = Counters.Midend;
  {
    ScopedSpan S(T, JobId, "midend.unroll", Parent);
    PS.Unroll = midend::runLoopUnroll(*Mod, Opts.UnrollOpts);
  }
  {
    ScopedSpan S(T, JobId, "midend.simplifycfg", Parent);
    PS.BlocksSimplified = midend::runSimplifyCFG(*Mod);
  }
  {
    ScopedSpan S(T, JobId, "midend.store_forward", Parent);
    PS.LoadsForwarded = midend::runStoreForward(*Mod);
  }
  {
    ScopedSpan S(T, JobId, "midend.scalar_promote", Parent);
    PS.ScalarsPromoted = midend::runScalarPromote(*Mod);
  }
  {
    ScopedSpan S(T, JobId, "midend.dce", Parent);
    PS.InstructionsDCEd = midend::runDCE(*Mod);
  }
  Counters.IRInstsFinal = countInstructions(*Mod);
  return verify("mid-end produced invalid IR:\n");
}

std::string TracedCompile::renderDiagnostics() const {
  std::string Out;
  TextDiagnosticPrinter Printer(Out, &SM);
  for (const Diagnostic &D : DiagStore.getDiagnostics())
    Printer.handleDiagnostic(D);
  return Out;
}

namespace {

rt::OpenMPRuntime::StatsSnapshot
delta(const rt::OpenMPRuntime::StatsSnapshot &A,
      const rt::OpenMPRuntime::StatsSnapshot &B) {
  rt::OpenMPRuntime::StatsSnapshot D{};
  D.NumForkJoins = B.NumForkJoins - A.NumForkJoins;
  D.NumHotTeamForks = B.NumHotTeamForks - A.NumHotTeamForks;
  D.NumTransientForks = B.NumTransientForks - A.NumTransientForks;
  D.NumTeamReuses = B.NumTeamReuses - A.NumTeamReuses;
  D.NumPoolThreadsSpawned = B.NumPoolThreadsSpawned - A.NumPoolThreadsSpawned;
  D.NumTransientThreadsSpawned =
      B.NumTransientThreadsSpawned - A.NumTransientThreadsSpawned;
  D.NumChunksStatic = B.NumChunksStatic - A.NumChunksStatic;
  D.NumChunksStaticChunked =
      B.NumChunksStaticChunked - A.NumChunksStaticChunked;
  D.NumChunksDynamic = B.NumChunksDynamic - A.NumChunksDynamic;
  D.NumChunksGuided = B.NumChunksGuided - A.NumChunksGuided;
  D.BarrierSpinWakes = B.BarrierSpinWakes - A.BarrierSpinWakes;
  D.BarrierSleepWakes = B.BarrierSleepWakes - A.BarrierSleepWakes;
  D.WorkerSpinWakes = B.WorkerSpinWakes - A.WorkerSpinWakes;
  D.WorkerSleepWakes = B.WorkerSleepWakes - A.WorkerSleepWakes;
  return D;
}

} // namespace

ExecOutcome execute(const ir::Module &M, interp::ExecEngineKind Engine,
                    unsigned Threads, Trace *T, std::uint32_t JobId,
                    int Parent) {
  ExecOutcome O;
  rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();
  RT.setDefaultNumThreads(static_cast<int>(Threads));
  const rt::OpenMPRuntime::StatsSnapshot Before = RT.statsSnapshot();
  try {
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<interp::ExecutionEngine> EE;
    {
      ScopedSpan S(T, JobId, "interp.translate", Parent);
      EE = std::make_unique<interp::ExecutionEngine>(M, Engine);
    }
    Clock::time_point T1 = Clock::now();
    {
      ScopedSpan S(T, JobId,
                   std::string("exec.") + interp::execEngineKindName(Engine),
                   Parent);
      O.Value = EE->runFunction("main", {}).I;
    }
    Clock::time_point T2 = Clock::now();
    O.TranslateSeconds = secondsBetween(T0, T1);
    O.RunSeconds = secondsBetween(T1, T2);
    O.Stats = EE->statsSnapshot();
    O.Ok = true;
  } catch (const std::exception &E) {
    O.Error = E.what();
  }
  O.Runtime = delta(Before, RT.statsSnapshot());
  return O;
}

} // namespace perfbench
