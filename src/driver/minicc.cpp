//===--- minicc.cpp - Command-line compiler driver --------------------------===//
//
// A clang-flavored driver for the MiniC + OpenMP front-end:
//
//   minicc [options] file.c
//
// Every compile flag (-O1, -run, --analyze, -DNAME, -num-threads=N, ...)
// is a word of the job grammar in service/JobSpec.h, parsed by the same
// svc::parseJobFlagWord that reads minicc-serve job lines and daemon
// submits. This file parses only the driver's own words: what to print
// (-ast-dump[-shadow], -emit-ir, --stats[=json]), where to stop
// (-syntax-only), the include path (-I <dir>, which only minicc honours:
// service jobs read no file but their own source) and -h.
//
//===----------------------------------------------------------------------===//
#include "driver/CompilerInstance.h"
#include "interp/Interpreter.h"
#include "runtime/KMPRuntime.h"
#include "service/JobSpec.h"
#include "support/Stats.h"

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

using namespace mcc;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: minicc [options] file.c\n"
      "driver flags (a leading '--' is the same as '-'):\n"
      "  -ast-dump                   print the AST\n"
      "  -ast-dump-shadow            print the AST incl. shadow subtrees\n"
      "  -emit-ir                    print generated IR\n"
      "  -syntax-only                stop after Sema\n"
      "  -I <dir>                    include search directory\n"
      "  --stats[=json]              print mid-end counters (and after -run\n"
      "                              engine and runtime ones) to stderr\n"
      "%s",
      svc::jobFlagHelp().c_str());
}

} // namespace

int main(int argc, char **argv) {
  svc::CompileJob Job;
  bool ASTDump = false, ASTDumpShadow = false, EmitIR = false,
       SyntaxOnly = false;
  std::optional<stats::Format> Stats;
  std::string InputFile;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string_view W = Arg;
    if (W.starts_with("--"))
      W.remove_prefix(1);
    if (W == "-ast-dump")
      ASTDump = true;
    else if (W == "-ast-dump-shadow")
      ASTDump = ASTDumpShadow = true;
    else if (W == "-emit-ir")
      EmitIR = true;
    else if (W == "-syntax-only")
      SyntaxOnly = true;
    else if (W == "-stats")
      Stats = stats::Format::Text;
    else if (W == "-stats=json")
      Stats = stats::Format::JSON;
    else if (W == "-I" && I + 1 < argc)
      Job.Options.IncludeDirs.emplace_back(argv[++I]);
    else if (W == "-h" || W == "-help") {
      printUsage();
      return 0;
    } else if (W.starts_with("-")) {
      std::string Error;
      if (!svc::parseJobFlagWord(Arg, Job, Error)) {
        std::fprintf(stderr, "minicc: %s\n", Error.c_str());
        return 1;
      }
    } else {
      InputFile = Arg;
    }
  }
  const CompilerOptions &Options = Job.Options;

  if (std::string EnvErr = interp::environmentError(); !EnvErr.empty()) {
    std::fprintf(stderr, "minicc: %s\n", EnvErr.c_str());
    return 1;
  }
  if (InputFile.empty()) {
    std::fprintf(stderr, "minicc: error: no input files\n");
    printUsage();
    return 1;
  }

  CompilerInstance CI(Options);
  bool FrontendOK = CI.parseToAST(InputFile);
  std::string DiagText = CI.renderDiagnostics();
  if (!DiagText.empty())
    std::fputs(DiagText.c_str(), stderr);
  if (!FrontendOK)
    return 1;

  if (ASTDump) {
    std::string Out = dumpToString(CI.getTranslationUnit(), ASTDumpShadow);
    std::fputs(Out.c_str(), stdout);
  }
  if (SyntaxOnly) {
    if (Stats) // nothing ran that counts; JSON readers still get an object
      std::fputs(stats::render({}, *Stats).c_str(), stderr);
    return 0;
  }

  if (!CI.emitIR()) {
    std::fputs(CI.renderDiagnostics().c_str(), stderr);
    return 1;
  }

  if (EmitIR)
    std::fputs(CI.getIRText().c_str(), stdout);

  std::vector<stats::Component> Components{
      midend::statsComponent(CI.getMidendStats())};
  if (Job.Execute) {
    rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();
    RT.setDefaultNumThreads(Options.LangOpts.OpenMPDefaultNumThreads);
    interp::ExecutionEngine EE(*CI.getIRModule(), Options.ExecEngine);
    const ir::Function *Main = CI.getIRModule()->getFunction("main");
    if (!Main || Main->isDeclaration()) {
      std::fprintf(stderr, "minicc: error: no main() to run\n");
      return 1;
    }
    try {
      interp::RTValue Result = EE.runFunction(Main, {});
      if (!Main->getReturnType()->isVoid())
        std::printf("main returned %lld\n",
                    static_cast<long long>(Result.I));
    } catch (const std::exception &Ex) {
      std::fprintf(stderr, "minicc: runtime error: %s\n", Ex.what());
      return 1;
    }
    Components.push_back(interp::statsComponent(EE.statsSnapshot()));
    Components.push_back(rt::statsComponent(RT.statsSnapshot()));
    // Park nothing across exit: join the hot-team pool so process
    // teardown (and TSan) never races worker shutdown.
    RT.shutdown();
  }
  if (Stats)
    std::fputs(stats::render(Components, *Stats).c_str(), stderr);
  return 0;
}
