//===--- minicc.cpp - Command-line compiler driver --------------------------===//
//
// A clang-flavored driver for the MiniC + OpenMP front-end:
//
//   minicc [options] file.c
//     -fopenmp / -fno-openmp       enable/disable OpenMP pragma handling
//     -fopenmp-enable-irbuilder    use the OMPCanonicalLoop/OpenMPIRBuilder
//                                  pipeline (paper Section 3)
//     -ast-dump                    print the AST (clang style)
//     -ast-dump-shadow             ... including shadow AST subtrees
//     -emit-ir                     print the generated IR
//     -O1                          run the mid-end (LoopUnroll, SimplifyCFG,
//                                  StoreForward, ScalarPromote, DCE)
//                                  before printing/running
//     -run [args...]               interpret main() and print its result
//     -syntax-only                 stop after semantic analysis
//     --analyze                    run the AST static analyses (OpenMP race
//                                  linter, canonical-loop conformance)
//     --analyze=<pass,...>         run exactly the named analyses
//                                  (openmp-race-linter,
//                                  canonical-loop-conformance, deps)
//     -w                           suppress all warnings
//     -Werror                      treat warnings as errors
//     -DNAME[=VALUE]               predefine a macro
//     -I <dir>                     add an include search directory
//     -num-threads N               default OpenMP thread count
//     --rt-stats                   print OpenMP runtime counters after -run
//     --exec-engine=walker|bytecode|native|tiered
//                                  execution backend for -run (default:
//                                  bytecode, or MCC_EXEC_ENGINE)
//     --exec-stats                 print execution engine counters after -run
//
//===----------------------------------------------------------------------===//
#include "driver/CompilerInstance.h"
#include "interp/Interpreter.h"
#include "runtime/KMPRuntime.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mcc;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: minicc [options] file.c\n"
      "  -fopenmp | -fno-openmp      OpenMP pragma handling (default on)\n"
      "  -fopenmp-enable-irbuilder   OMPCanonicalLoop/OpenMPIRBuilder "
      "pipeline\n"
      "  -ast-dump                   print the AST\n"
      "  -ast-dump-shadow            print the AST incl. shadow subtrees\n"
      "  -emit-ir                    print generated IR\n"
      "  -O1                         run the mid-end pipeline\n"
      "  -run                        interpret main()\n"
      "  -syntax-only                stop after Sema\n"
      "  --analyze                   run AST static analyses (race linter,\n"
      "                              canonical-loop conformance)\n"
      "  --analyze=<pass,...>        run exactly these analyses; names:\n"
      "                              openmp-race-linter,\n"
      "                              canonical-loop-conformance, deps\n"
      "  -w                          suppress all warnings\n"
      "  -Werror                     treat warnings as errors\n"
      "  -DNAME[=VALUE]              define macro\n"
      "  -I <dir>                    include search directory\n"
      "  -num-threads N              default OpenMP thread count\n"
      "  --rt-stats                  print OpenMP runtime counters (forks,\n"
      "                              team reuses, chunks, barrier wakes)\n"
      "                              to stderr after -run\n"
      "  --exec-engine=<e>           execution backend for -run: walker |\n"
      "                              bytecode | native | tiered (default:\n"
      "                              bytecode, or the MCC_EXEC_ENGINE\n"
      "                              environment variable)\n"
      "  --exec-stats                print execution engine counters\n"
      "                              (translation, dispatch mode,\n"
      "                              instructions, superinstruction hits)\n"
      "                              to stderr after -run\n"
      "  --exec-stats=json           same counters as one JSON object\n");
}

} // namespace

int main(int argc, char **argv) {
  CompilerOptions Options;
  bool ASTDump = false, ASTDumpShadow = false, EmitIR = false, Run = false,
       SyntaxOnly = false, RTStats = false, ExecStats = false,
       ExecStatsJSON = false;
  std::string InputFile;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "-fopenmp")
      Options.LangOpts.OpenMP = true;
    else if (Arg == "-fno-openmp")
      Options.LangOpts.OpenMP = false;
    else if (Arg == "-fopenmp-enable-irbuilder")
      Options.LangOpts.OpenMPEnableIRBuilder = true;
    else if (Arg == "-ast-dump")
      ASTDump = true;
    else if (Arg == "-ast-dump-shadow")
      ASTDump = ASTDumpShadow = true;
    else if (Arg == "-emit-ir")
      EmitIR = true;
    else if (Arg == "-O1")
      Options.RunMidend = true;
    else if (Arg == "-run")
      Run = true;
    else if (Arg == "-syntax-only")
      SyntaxOnly = true;
    else if (Arg == "--analyze" || Arg == "-analyze")
      Options.RunAnalyzers = true;
    else if (Arg.rfind("--analyze=", 0) == 0 ||
             Arg.rfind("-analyze=", 0) == 0) {
      std::string List = Arg.substr(Arg.find('=') + 1);
      std::size_t Pos = 0;
      while (Pos <= List.size()) {
        std::size_t Comma = List.find(',', Pos);
        std::string Name = List.substr(
            Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
        if (!Name.empty())
          Options.AnalyzePasses.push_back(Name);
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
      if (Options.AnalyzePasses.empty()) {
        std::fprintf(stderr,
                     "minicc: --analyze= requires at least one pass name\n");
        return 1;
      }
    }
    else if (Arg == "--rt-stats" || Arg == "-rt-stats")
      RTStats = true;
    else if (Arg == "--exec-stats" || Arg == "-exec-stats")
      ExecStats = true;
    else if (Arg == "--exec-stats=json" || Arg == "-exec-stats=json")
      ExecStats = ExecStatsJSON = true;
    else if (Arg.rfind("--exec-engine=", 0) == 0 ||
             Arg.rfind("-exec-engine=", 0) == 0) {
      std::string Name = Arg.substr(Arg.find('=') + 1);
      if (!interp::parseExecEngineKind(Name, Options.ExecEngine)) {
        std::fprintf(stderr,
                     "minicc: invalid --exec-engine '%s' (expected "
                     "'walker', 'bytecode', 'native', or 'tiered')\n",
                     Name.c_str());
        return 1;
      }
    }
    else if (Arg == "-w")
      Options.SuppressWarnings = true;
    else if (Arg == "-Werror")
      Options.WarningsAsErrors = true;
    else if (Arg == "-num-threads" && I + 1 < argc)
      Options.LangOpts.OpenMPDefaultNumThreads =
          static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg.rfind("-D", 0) == 0) {
      std::string Def = Arg.substr(2);
      auto Eq = Def.find('=');
      if (Eq == std::string::npos)
        Options.Defines.emplace_back(Def, "1");
      else
        Options.Defines.emplace_back(Def.substr(0, Eq), Def.substr(Eq + 1));
    } else if (Arg == "-I" && I + 1 < argc)
      Options.IncludeDirs.emplace_back(argv[++I]);
    else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "minicc: unknown argument: '%s'\n", Arg.c_str());
      return 1;
    } else {
      InputFile = Arg;
    }
  }

  if (InputFile.empty()) {
    std::fprintf(stderr, "minicc: error: no input files\n");
    printUsage();
    return 1;
  }

  // A typo'd MCC_EXEC_ENGINE must fail as loudly as a typo'd
  // --exec-engine= flag, not silently run the default engine.
  if (std::string EnvErr = interp::execEngineEnvError(); !EnvErr.empty()) {
    std::fprintf(stderr, "minicc: %s\n", EnvErr.c_str());
    return 1;
  }
  // Same loudness for the native-tier knobs (thresholds, forced-fallback
  // op): the engine keeps its defaults on garbage, the driver refuses it.
  if (std::string EnvErr = interp::jitEnvError(); !EnvErr.empty()) {
    std::fprintf(stderr, "minicc: %s\n", EnvErr.c_str());
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
  if (SyntaxOnly)
    return 0;

  if (!CI.emitIR()) {
    std::fputs(CI.renderDiagnostics().c_str(), stderr);
    return 1;
  }

  if (EmitIR)
    std::fputs(CI.getIRText().c_str(), stdout);

  if (Run) {
    rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();
    RT.setDefaultNumThreads(Options.LangOpts.OpenMPDefaultNumThreads);
    if (RTStats)
      RT.resetStats();
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
    if (RTStats)
      std::fputs(RT.renderStats().c_str(), stderr);
    if (ExecStats)
      std::fputs(ExecStatsJSON ? EE.renderExecStatsJSON().c_str()
                               : EE.renderExecStats().c_str(),
                 stderr);
    // Park nothing across exit: join the hot-team pool so process
    // teardown (and TSan) never races worker shutdown.
    RT.shutdown();
  }
  return 0;
}
