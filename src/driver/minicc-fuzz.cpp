//===--- minicc-fuzz.cpp - Differential loop-nest fuzzing driver -----------===//
//
// Generates seeded random loop-nest programs and cross-checks every
// execution path of the compiler against a host-evaluated reference
// checksum (see src/fuzz/Fuzz.h). Exits non-zero on the first mismatch,
// printing the reproducing seed and — with --shrink — a minimized
// failing program.
//
//   minicc-fuzz [options]
//     --seed=N          first seed (default 2021)
//     --count=N         number of programs (default 200)
//     --gen=M           program modes: all | fuse | distribute
//                       (fuse/distribute restrict generation to the
//                       sibling-fusion / loop-distribution cases)
//     --shrink          minimize a failing program before reporting
//     --no-thread-sweep run parallel programs at the default width only
//     --no-factor-sweep skip tile-size/unroll-factor variants
//     --service         compile through the CompileService cache
//     --exec-engine=E   walker | bytecode | native | tiered | both
//                       (both = the full four-engine matrix; default both)
//     --dump-source     print each program before running it
//     --quiet           no progress output
//
//===----------------------------------------------------------------------===//
#include "fuzz/Fuzz.h"
#include "runtime/KMPRuntime.h"
#include "support/StrictParse.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace mcc;

namespace {

void printUsage() {
  std::fprintf(stderr,
               "usage: minicc-fuzz [options]\n"
               "  --seed=N           first seed (default 2021)\n"
               "  --count=N          number of programs (default 200)\n"
               "  --gen=M            program modes: all | fuse | "
               "distribute\n"
               "  --shrink           minimize the failing program\n"
               "  --no-thread-sweep  default thread width only\n"
               "  --no-factor-sweep  skip tile/unroll factor variants\n"
               "  --service          compile through the CompileService "
               "cache\n"
               "  --exec-engine=E    execution engines to sweep: walker |\n"
               "                     bytecode | native | tiered | both\n"
               "                     (both = all four; default both)\n"
               "  --dump-source      print each generated program\n"
               "  --quiet            no progress output\n");
}

} // namespace

int main(int argc, char **argv) {
  std::uint64_t Seed = 2021, Count = 200;
  bool Shrink = false, DumpSource = false, Quiet = false;
  fuzz::GenMode Mode = fuzz::GenMode::All;
  fuzz::DifferentialOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    if (parseNumericFlag(Arg, "--seed=", 0, UINT64_MAX, Seed, Error) ||
        parseNumericFlag(Arg, "--count=", 0, UINT64_MAX, Count, Error)) {
      if (!Error.empty()) {
        std::fprintf(stderr, "minicc-fuzz: %s\n", Error.c_str());
        return 1;
      }
    } else if (Arg.rfind("--gen=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--gen="));
      if (Name == "all")
        Mode = fuzz::GenMode::All;
      else if (Name == "fuse")
        Mode = fuzz::GenMode::Fuse;
      else if (Name == "distribute")
        Mode = fuzz::GenMode::Distribute;
      else {
        std::fprintf(stderr,
                     "minicc-fuzz: invalid --gen '%s' (expected 'all', "
                     "'fuse' or 'distribute')\n",
                     Name.c_str());
        return 1;
      }
    } else if (Arg == "--shrink")
      Shrink = true;
    else if (Arg == "--no-thread-sweep")
      Opts.SweepThreads = false;
    else if (Arg == "--no-factor-sweep")
      Opts.SweepFactors = false;
    else if (Arg == "--service")
      Opts.UseService = true;
    else if (Arg.rfind("--exec-engine=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--exec-engine="));
      interp::ExecEngineKind Kind;
      if (Name == "both")
        Opts.Engines = {interp::ExecEngineKind::Walker,
                        interp::ExecEngineKind::Bytecode,
                        interp::ExecEngineKind::Native,
                        interp::ExecEngineKind::Tiered};
      else if (interp::parseExecEngineKind(Name, Kind))
        Opts.Engines = {Kind};
      else {
        std::fprintf(stderr,
                     "minicc-fuzz: invalid --exec-engine '%s' (expected "
                     "'walker', 'bytecode', 'native', 'tiered' or "
                     "'both')\n",
                     Name.c_str());
        return 1;
      }
    }
    else if (Arg == "--dump-source")
      DumpSource = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "minicc-fuzz: unknown argument: '%s'\n",
                   Arg.c_str());
      printUsage();
      return 1;
    }
  }

  if (std::string EnvErr = interp::environmentError(); !EnvErr.empty()) {
    std::fprintf(stderr, "minicc-fuzz: %s\n", EnvErr.c_str());
    return 1;
  }

  fuzz::DifferentialRunner Runner(Opts);
  std::uint64_t TotalRuns = 0, TotalRejections = 0;
  std::uint64_t FuseRejections = 0, DistributeRejections = 0;
  for (std::uint64_t K = 0; K < Count; ++K) {
    fuzz::ProgramSpec Spec = fuzz::generateProgram(Seed + K, Mode);
    if (DumpSource)
      std::printf("// %s\n%s\n", Spec.describe().c_str(),
                  Spec.render().c_str());
    fuzz::ProgramResult Result = Runner.runWithVariants(Spec);
    TotalRuns += Result.RunsExecuted;
    TotalRejections += Result.ConservativeRejections;
    if (Spec.Pragmas.Fuse)
      FuseRejections += Result.ConservativeRejections;
    else if (Spec.Pragmas.DistributeLoop)
      DistributeRejections += Result.ConservativeRejections;
    if (!Result.ok()) {
      std::fputs(fuzz::DifferentialRunner::report(Result).c_str(), stderr);
      if (Shrink) {
        fuzz::ProgramSpec Min = Runner.shrink(Result.Spec);
        fuzz::ProgramResult MinResult = Runner.run(Min);
        if (!MinResult.ok()) {
          std::fputs("=== minimized reproducer ===\n", stderr);
          std::fputs(fuzz::DifferentialRunner::report(MinResult).c_str(),
                     stderr);
        }
      }
      rt::OpenMPRuntime::get().shutdown();
      return 1;
    }
    if (!Quiet && (K + 1) % 25 == 0)
      std::fprintf(stderr, "minicc-fuzz: %llu/%llu programs ok (%llu runs)\n",
                   static_cast<unsigned long long>(K + 1),
                   static_cast<unsigned long long>(Count),
                   static_cast<unsigned long long>(TotalRuns));
  }
  if (!Quiet)
    std::fprintf(stderr,
                 "minicc-fuzz: %llu programs x backend matrix = %llu runs, "
                 "0 mismatches, %llu conservative transform rejections "
                 "(%llu fuse, %llu distribute_loop, %llu reverse/"
                 "interchange; every rejection re-verified untransformed) "
                 "(seeds %llu..%llu)\n",
                 static_cast<unsigned long long>(Count),
                 static_cast<unsigned long long>(TotalRuns),
                 static_cast<unsigned long long>(TotalRejections),
                 static_cast<unsigned long long>(FuseRejections),
                 static_cast<unsigned long long>(DistributeRejections),
                 static_cast<unsigned long long>(
                     TotalRejections - FuseRejections -
                     DistributeRejections),
                 static_cast<unsigned long long>(Seed),
                 static_cast<unsigned long long>(Seed + Count - 1));
  rt::OpenMPRuntime::get().shutdown();
  return 0;
}
