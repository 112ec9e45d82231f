//===--- JobSpec.cpp - Textual compile-job specification -------------------===//
#include "service/JobSpec.h"

#include "analysis/Analysis.h"
#include "support/StrictParse.h"

#include <algorithm>
#include <climits>
#include <sstream>

namespace mcc::svc {

std::vector<std::string> splitJobWords(const std::string &Line) {
  std::istringstream In(Line);
  std::vector<std::string> Words;
  for (std::string W; In >> W;)
    Words.push_back(std::move(W));
  return Words;
}

std::string jobFlagHelp() {
  const CompilerOptions Defaults;
  return "compile flags (a leading '--' is the same as '-'):\n"
         "  -fopenmp | -fno-openmp      OpenMP pragma handling (default on)\n"
         "  -fopenmp-enable-irbuilder   OMPCanonicalLoop/OpenMPIRBuilder "
         "pipeline\n"
         "  -O1                         run the mid-end pipeline\n"
         "  -run                        execute main() after compiling\n"
         "  --analyze                   run AST static analyses (race linter,\n"
         "                              canonical-loop conformance)\n"
         "  --analyze=<pass,...>        run exactly these analyses; names:\n"
         "                              " +
         analysis::getKnownAnalysisPassNames() +
         "\n"
         "  -w                          suppress all warnings\n"
         "  -Werror                     treat warnings as errors\n"
         "  -DNAME[=VALUE]              define macro\n"
         "  -num-threads=N              default OpenMP thread count for -run,\n"
         "                              1 to 2147483647 (default " +
         std::to_string(Defaults.LangOpts.OpenMPDefaultNumThreads) +
         ")\n"
         "  -unroll-factor=N            -O1 heuristic unroll factor, 0 "
         "disables\n"
         "                              (default " +
         std::to_string(Defaults.UnrollOpts.HeuristicFactor) +
         ")\n"
         "  --exec-engine=<e>           execution backend for -run: walker |\n"
         "                              bytecode | native | tiered (default:\n"
         "                              bytecode, or the MCC_EXEC_ENGINE\n"
         "                              environment variable)\n";
}

bool parseJobFlagWord(const std::string &Word, CompileJob &Job,
                      std::string &Error) {
  std::string_view W = Word;
  if (W.starts_with("--"))
    W.remove_prefix(1);
  std::string_view V; // the value after a prefix word's '='
  auto HasPrefix = [&](std::string_view Prefix) {
    if (!W.starts_with(Prefix))
      return false;
    V = W.substr(Prefix.size());
    return true;
  };
  auto Invalid = [&](const char *Flag, const char *Expected) {
    Error = std::string("invalid ") + Flag + " (expected " + Expected +
            "): " + Word;
    return false;
  };

  CompilerOptions &O = Job.Options;
  std::uint64_t N = 0;
  if (W == "-fopenmp")
    O.LangOpts.OpenMP = true;
  else if (W == "-fno-openmp")
    O.LangOpts.OpenMP = false;
  else if (W == "-fopenmp-enable-irbuilder")
    O.LangOpts.OpenMPEnableIRBuilder = true;
  else if (W == "-O1")
    O.RunMidend = true;
  else if (W == "-run")
    Job.Execute = true;
  else if (W == "-analyze")
    O.RunAnalyzers = true;
  else if (HasPrefix("-analyze=")) {
    const std::size_t Before = O.AnalyzePasses.size();
    while (!V.empty()) {
      std::size_t Comma = std::min(V.find(','), V.size());
      if (Comma != 0)
        O.AnalyzePasses.emplace_back(V.substr(0, Comma));
      V.remove_prefix(std::min(Comma + 1, V.size()));
    }
    if (O.AnalyzePasses.size() == Before)
      return Invalid("--analyze=", "at least one pass name");
  } else if (W == "-w")
    O.SuppressWarnings = true;
  else if (W == "-Werror")
    O.WarningsAsErrors = true;
  else if (HasPrefix("-num-threads=")) {
    // The runtime counts threads in an int; a team of 0 divides by zero.
    if (!parseDecimal(V, INT_MAX, N) || N == 0)
      return Invalid("-num-threads=", "a whole number from 1 to 2147483647");
    O.LangOpts.OpenMPDefaultNumThreads = static_cast<unsigned>(N);
  } else if (HasPrefix("-unroll-factor=")) {
    if (!parseDecimal(V, UINT_MAX, N))
      return Invalid("-unroll-factor=", "a whole number from 0 to 4294967295");
    O.UnrollOpts.HeuristicFactor = static_cast<unsigned>(N);
  } else if (HasPrefix("-exec-engine=")) {
    if (!interp::parseExecEngineKind(V, O.ExecEngine))
      return Invalid("--exec-engine=",
                     "'walker', 'bytecode', 'native', or 'tiered'");
  } else if (HasPrefix("-D") && !V.empty()) {
    std::size_t Eq = V.find('=');
    if (Eq == std::string_view::npos)
      O.Defines.emplace_back(V, "1");
    else
      O.Defines.emplace_back(V.substr(0, Eq), V.substr(Eq + 1));
  } else {
    Error = "unknown argument: '" + Word + "'";
    return false;
  }
  return true;
}

std::string renderJobFlags(const CompileJob &Job) {
  const CompileJob Defaults;
  std::string Out;
  auto Word = [&Out](const std::string &W) {
    if (!Out.empty())
      Out += ' ';
    Out += W;
  };
  if (!Job.Options.LangOpts.OpenMP)
    Word("-fno-openmp");
  if (Job.Options.LangOpts.OpenMPEnableIRBuilder)
    Word("-fopenmp-enable-irbuilder");
  if (Job.Options.RunMidend)
    Word("-O1");
  if (Job.Execute)
    Word("-run");
  if (Job.Options.RunAnalyzers)
    Word("--analyze");
  if (!Job.Options.AnalyzePasses.empty()) {
    std::string List;
    for (const std::string &P : Job.Options.AnalyzePasses) {
      if (!List.empty())
        List += ',';
      List += P;
    }
    Word("--analyze=" + List);
  }
  if (Job.Options.SuppressWarnings)
    Word("-w");
  if (Job.Options.WarningsAsErrors)
    Word("-Werror");
  if (Job.Options.LangOpts.OpenMPDefaultNumThreads !=
      Defaults.Options.LangOpts.OpenMPDefaultNumThreads)
    Word("-num-threads=" +
         std::to_string(Job.Options.LangOpts.OpenMPDefaultNumThreads));
  if (Job.Options.UnrollOpts.HeuristicFactor !=
      Defaults.Options.UnrollOpts.HeuristicFactor)
    Word("-unroll-factor=" +
         std::to_string(Job.Options.UnrollOpts.HeuristicFactor));
  if (Job.Options.ExecEngine != Defaults.Options.ExecEngine)
    Word(std::string("-exec-engine=") +
         interp::execEngineKindName(Job.Options.ExecEngine));
  for (const auto &[Name, Value] : Job.Options.Defines)
    Word(Value == "1" ? "-D" + Name : "-D" + Name + "=" + Value);
  return Out;
}

bool parseJobSpecLine(const std::string &Line, CompileJob &Job,
                      std::string &File, std::string &Error) {
  Error.clear();
  std::vector<std::string> Words = splitJobWords(Line);
  if (Words.empty() || Words.front()[0] == '#')
    return false;

  File.clear();
  for (const std::string &W : Words) {
    if (!W.empty() && W[0] == '-') {
      if (!parseJobFlagWord(W, Job, Error))
        return false;
    } else if (File.empty())
      File = W;
    else {
      Error = "more than one file on a job line: " + W;
      return false;
    }
  }
  if (File.empty()) {
    Error = "job line has no file";
    return false;
  }
  return true;
}

} // namespace mcc::svc
