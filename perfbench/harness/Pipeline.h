//===--- Pipeline.h - The product's pipeline, one layer at a time -*- C++ -*-===//
//
// TracedCompile drives the same public functions CompilerInstance calls,
// in the same order, with a span around each call into a layer:
//
//   lex                   Preprocessor over the main file, to a token vector
//   parse_sema.<lowering> Parser + Sema replaying the tokens
//                         (Preprocessor::enterTokenStream, as the compile
//                         service does)
//   analysis.<pass>       each AST analysis through its own AnalysisManager
//   codegen.<lowering>    CodeGenModule::emitTranslationUnit
//   ir.verify             ir::verifyModule (after CodeGen and after -O1)
//   midend.<pass>         each pass of midend::runDefaultPipeline, in order
//
// and execute() is step 5: ExecutionEngine construction (interp.translate)
// then runFunction("main") (exec.<engine>). The benchmark checks that the
// traced pipeline prints -O1 IR byte-identical to CompilerInstance's.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Metrics.h"

#include "driver/CompilerInstance.h"
#include "runtime/KMPRuntime.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Number of IR instructions in \p M.
std::uint64_t countInstructions(const mcc::ir::Module &M);

/// True when \p Diagnostics report a refusal by the dependence legality
/// oracle (the DifferentialRunner's test).
bool isLegalityRefusal(const std::string &Diagnostics);

/// "legacy" or "irbuilder".
const char *loweringName(const mcc::CompilerOptions &Opts);

/// Counters read at the layer boundaries of one traced compile.
struct CompileCounters {
  std::uint64_t Tokens = 0;
  std::uint64_t ASTNodes = 0;
  std::uint64_t ASTBytes = 0;
  std::uint64_t IRInstsCodegen = 0; ///< after CodeGen
  std::uint64_t IRInstsFinal = 0;   ///< after the mid-end (or CodeGen)
  mcc::midend::PipelineStats Midend;
};

class TracedCompile {
public:
  /// Spans go to \p T (null: untraced) under job \p JobId and parent span
  /// \p Parent.
  TracedCompile(mcc::CompilerOptions Opts, Trace *T, std::uint32_t JobId,
                int Parent);
  ~TracedCompile();
  TracedCompile(const TracedCompile &) = delete;
  TracedCompile &operator=(const TracedCompile &) = delete;

  /// Source -> verified (and, with -O1, optimized) module. False on any
  /// error, exactly when CompilerInstance::compileSource is.
  bool compile(std::string_view Source);

  [[nodiscard]] mcc::ir::Module *module() { return Mod.get(); }
  [[nodiscard]] std::string renderDiagnostics() const;
  [[nodiscard]] const CompileCounters &counters() const { return Counters; }

private:
  bool parseToAST(std::string_view Source);
  bool emitIR();
  bool verify(const char *What);

  mcc::CompilerOptions Opts;
  Trace *T;
  std::uint32_t JobId;
  int Parent;

  mcc::FileManager FM;
  mcc::FileManager ReplayFM; ///< never consulted: replay does not lex
  mcc::SourceManager SM;
  mcc::StoringDiagnosticConsumer DiagStore;
  mcc::DiagnosticsEngine Diags;
  mcc::ASTContext Ctx;
  std::unique_ptr<mcc::Preprocessor> LexPP;
  std::unique_ptr<mcc::Preprocessor> ReplayPP;
  std::unique_ptr<mcc::Sema> Actions;
  std::vector<mcc::Token> Tokens;
  mcc::TranslationUnitDecl *TU = nullptr;
  std::unique_ptr<mcc::ir::Module> Mod;
  CompileCounters Counters;
};

/// What one execution of main() did.
struct ExecOutcome {
  bool Ok = false;
  std::int64_t Value = 0;
  std::string Error;         ///< exception text when !Ok
  double TranslateSeconds = 0; ///< ExecutionEngine construction
  double RunSeconds = 0;       ///< runFunction("main")
  mcc::interp::ExecStats Stats;
  mcc::rt::OpenMPRuntime::StatsSnapshot Runtime{}; ///< counter deltas
};

/// Builds an ExecutionEngine for \p M and runs main() with \p Threads as
/// the OpenMP default, as `minicc -run` does. Spans (interp.translate,
/// exec.<engine>) go to \p T when it is non-null.
ExecOutcome execute(const mcc::ir::Module &M,
                    mcc::interp::ExecEngineKind Engine, unsigned Threads,
                    Trace *T = nullptr, std::uint32_t JobId = 0,
                    int Parent = -1);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
