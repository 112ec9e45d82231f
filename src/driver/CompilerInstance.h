//===--- CompilerInstance.h - Whole-pipeline orchestration ------*- C++ -*-===//
//
// Owns every layer of the paper's Fig. 1 and drives source -> tokens ->
// AST -> IR (-> mid-end) through the three stage functions below. The
// library entry point used by the minicc driver, the examples, the tests
// and the benchmarks.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_DRIVER_COMPILERINSTANCE_H
#define MCC_DRIVER_COMPILERINSTANCE_H

#include "ast/ASTDumper.h"
#include "codegen/CodeGenModule.h"
#include "interp/Interpreter.h"
#include "lex/Preprocessor.h"
#include "midend/Passes.h"
#include "parse/Parser.h"
#include "sema/Sema.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mcc {

struct CompilerOptions {
  LangOptions LangOpts;
  bool RunVerifier = true;    // IR verifier after CodeGen / mid-end
  bool RunASTVerifier = true; // post-transform shadow-AST verifier
  bool RunAnalyzers = false;  // --analyze: race linter + loop conformance
  /// --analyze=<comma-list>: run exactly these AST analyses (registered in
  /// the canonical pipeline order regardless of the order given). Empty =
  /// the default set selected by RunAnalyzers. An unknown name is a driver
  /// error (err_drv_unknown_analysis_pass).
  std::vector<std::string> AnalyzePasses;
  bool SuppressWarnings = false; // -w
  bool WarningsAsErrors = false; // -Werror
  bool RunMidend = false; // -O1: midend::runDefaultPipeline
  midend::LoopUnrollOptions UnrollOpts;
  std::vector<std::pair<std::string, std::string>> Defines; // -DNAME=VAL
  std::vector<std::string> IncludeDirs;
  /// Which execution backend -run / Execute jobs use. Default defers to
  /// the MCC_EXEC_ENGINE environment variable (bytecode when unset); only
  /// executing consumers link mcc_interp, the enum itself is header-only.
  interp::ExecEngineKind ExecEngine = interp::ExecEngineKind::Default;
};

//===----------------------------------------------------------------------===//
// The pipeline's three stages. CompilerInstance runs them back to back; the
// compile service (src/service) runs each one on a cache miss of the level
// that stores its output. Each reports into the DiagnosticsEngine it is
// given and returns false once an error has been reported there.
//===----------------------------------------------------------------------===//

/// Stage 1, lex: preprocesses \p MainFile, resolved through \p PP's
/// FileManager, into the whole token stream (eof last). \p PP must be
/// fresh; it owns the text of macro-expanded tokens, so it must outlive
/// \p Tokens.
bool lexMainFile(Preprocessor &PP, const CompilerOptions &Options,
                 const std::string &MainFile, std::vector<Token> &Tokens);

/// Stage 2, parse: builds the AST by replaying \p Tokens through the
/// Parser into \p Actions, then runs the analyses \p Options selects
/// (--analyze=<list> by name, else the default set). \p TU is set even
/// when the parse reported errors.
bool parseTokenStream(std::span<const Token> Tokens, SourceManager &SM,
                      Sema &Actions, const CompilerOptions &Options,
                      TranslationUnitDecl *&TU);

/// Stage 3, emit: CodeGen of \p TU into \p M, the IR verifier, and under
/// -O1 the mid-end and the verifier again.
bool emitModule(const ASTContext &Ctx, TranslationUnitDecl *TU,
                const CompilerOptions &Options, DiagnosticsEngine &Diags,
                ir::Module &M, midend::PipelineStats &Stats);

class CompilerInstance {
public:
  explicit CompilerInstance(CompilerOptions Options = {});
  ~CompilerInstance();

  /// Registers an in-memory file (tests, examples).
  void addVirtualFile(const std::string &Path, std::string_view Contents);

  /// Front-end only: stages 1 and 2, source -> AST. Lexing the whole file
  /// comes first, so no parse starts after a lexing error. Returns false on
  /// any error.
  bool parseToAST(const std::string &MainFile);

  /// Stage 3, AST -> IR (and the mid-end pipeline when enabled).
  /// parseToAST must have succeeded. Returns false if the verifier rejects
  /// the module.
  bool emitIR();

  /// Convenience: full pipeline over in-memory source.
  bool compileSource(std::string_view Source);

  // --- Results ---
  [[nodiscard]] TranslationUnitDecl *getTranslationUnit() { return TU; }
  [[nodiscard]] ir::Module *getIRModule() { return IRModule.get(); }
  [[nodiscard]] ASTContext &getASTContext() { return Ctx; }
  [[nodiscard]] Sema &getSema() { return *Actions; }
  [[nodiscard]] DiagnosticsEngine &getDiagnostics() { return Diags; }
  [[nodiscard]] const StoringDiagnosticConsumer &getDiagStore() const {
    return DiagStore;
  }
  [[nodiscard]] SourceManager &getSourceManager() { return SM; }

  /// Rendered diagnostics (file:line:col: severity: message + caret).
  [[nodiscard]] std::string renderDiagnostics() const;

  [[nodiscard]] std::string getIRText() const {
    return IRModule ? ir::printModule(*IRModule) : std::string();
  }

  [[nodiscard]] const midend::PipelineStats &getMidendStats() const {
    return MidendStats;
  }

  [[nodiscard]] const CompilerOptions &getOptions() const { return Options; }

private:
  CompilerOptions Options;
  FileManager FM;
  SourceManager SM;
  StoringDiagnosticConsumer DiagStore;
  DiagnosticsEngine Diags;
  ASTContext Ctx;
  std::unique_ptr<Preprocessor> PP;
  std::unique_ptr<Sema> Actions;
  TranslationUnitDecl *TU = nullptr;
  std::unique_ptr<ir::Module> IRModule;
  midend::PipelineStats MidendStats;
};

} // namespace mcc

#endif // MCC_DRIVER_COMPILERINSTANCE_H
