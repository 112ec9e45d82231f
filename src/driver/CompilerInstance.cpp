#include "driver/CompilerInstance.h"

#include "analysis/Analysis.h"

namespace mcc {

bool lexMainFile(Preprocessor &PP, const CompilerOptions &Options,
                 const std::string &MainFile, std::vector<Token> &Tokens) {
  DiagnosticsEngine &Diags = PP.getDiagnostics();
  PP.setOpenMPEnabled(Options.LangOpts.OpenMP);
  for (const auto &[Name, Value] : Options.Defines)
    PP.defineCommandLineMacro(Name, Value);
  for (const std::string &Dir : Options.IncludeDirs)
    PP.addIncludeDir(Dir);
  if (!PP.enterMainFile(MainFile)) {
    Diags.report(SourceLocation(), diag::err_pp_file_not_found) << MainFile;
    return false;
  }
  Token Tok;
  do {
    PP.lex(Tok);
    Tokens.push_back(Tok);
  } while (!Tok.is(tok::eof));
  return !Diags.hasErrorOccurred();
}

bool parseTokenStream(std::span<const Token> Tokens, SourceManager &SM,
                      Sema &Actions, const CompilerOptions &Options,
                      TranslationUnitDecl *&TU) {
  DiagnosticsEngine &Diags = Actions.getDiagnostics();
  // A replaying preprocessor never lexes, so it never opens a file: the
  // FileManager is a placeholder and SM is only read to render locations.
  FileManager NoFiles(/*DiskFallback=*/false);
  Preprocessor Replay(NoFiles, SM, Diags);
  Replay.setOpenMPEnabled(Options.LangOpts.OpenMP);
  Replay.enterTokenStream(Tokens);
  Parser P(Replay, Actions);
  TU = P.parseTranslationUnit();
  if (!TU || Diags.hasErrorOccurred())
    return false;

  analysis::AnalysisManager AM(Actions.getASTContext(), Diags);
  if (Options.AnalyzePasses.empty()) {
    analysis::registerDefaultAnalyses(AM, Options.RunAnalyzers,
                                      Options.RunASTVerifier);
  } else if (std::string Unknown = analysis::registerAnalysesByName(
                 AM, Options.AnalyzePasses, Options.RunASTVerifier);
             !Unknown.empty()) {
    Diags.report(SourceLocation(), diag::err_drv_unknown_analysis_pass)
        << Unknown << analysis::getKnownAnalysisPassNames();
    return false;
  }
  AM.run(TU);
  return !Diags.hasErrorOccurred();
}

bool emitModule(const ASTContext &Ctx, TranslationUnitDecl *TU,
                const CompilerOptions &Options, DiagnosticsEngine &Diags,
                ir::Module &M, midend::PipelineStats &Stats) {
  auto Verify = [&](const char *What) {
    std::string Err = Options.RunVerifier ? ir::verifyModule(M) : "";
    if (!Err.empty())
      Diags.report(SourceLocation(), diag::err_codegen_unsupported)
          << (What + Err);
    return Err.empty();
  };
  CodeGenModule CGM(Ctx, Options.LangOpts, M);
  CGM.emitTranslationUnit(TU);
  if (!Verify("invalid IR produced:\n"))
    return false;
  if (!Options.RunMidend)
    return true;
  Stats = midend::runDefaultPipeline(M, Options.UnrollOpts);
  return Verify("mid-end produced invalid IR:\n");
}

CompilerInstance::CompilerInstance(CompilerOptions Opts)
    : Options(std::move(Opts)), Diags(&DiagStore) {
  Diags.setSuppressAllWarnings(Options.SuppressWarnings);
  Diags.setWarningsAsErrors(Options.WarningsAsErrors);
}

CompilerInstance::~CompilerInstance() = default;

void CompilerInstance::addVirtualFile(const std::string &Path,
                                      std::string_view Contents) {
  FM.addVirtualFile(Path, Contents);
}

bool CompilerInstance::parseToAST(const std::string &MainFile) {
  // Per-run state reset: a CompilerInstance may be driven more than once
  // (tests). Diagnostics and their counters belong to the *run*, not the
  // instance — without this, a second compile would inherit the first
  // run's error count and refuse to proceed.
  DiagStore.clear();
  Diags.reset();
  TU = nullptr;
  PP = std::make_unique<Preprocessor>(FM, SM, Diags);
  std::vector<Token> Tokens;
  if (!lexMainFile(*PP, Options, MainFile, Tokens))
    return false;
  Actions = std::make_unique<Sema>(Ctx, Diags, Options.LangOpts);
  return parseTokenStream(Tokens, SM, *Actions, Options, TU);
}

bool CompilerInstance::emitIR() {
  assert(TU && "parseToAST must succeed first");
  IRModule = std::make_unique<ir::Module>("main");
  return emitModule(Ctx, TU, Options, Diags, *IRModule, MidendStats);
}

bool CompilerInstance::compileSource(std::string_view Source) {
  addVirtualFile("input.c", Source);
  return parseToAST("input.c") && emitIR();
}

std::string CompilerInstance::renderDiagnostics() const {
  return DiagStore.render(SM);
}

} // namespace mcc
