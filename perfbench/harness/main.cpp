//===--- main.cpp - perfbench: one workload, one result line ---------------===//
//
//   perfbench --workload <compile_fuzz|run_kernels|daemon_mix> --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--source-id ID]
//
// Prints a stamp line (source id, build type, sanitizer, nproc, seed, job
// count) and then, as the last line of standard output, the JSON result:
// {"correct", "attempted", "failed", "metrics"}. End-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.
//
//===----------------------------------------------------------------------===//
#include "Metrics.h"
#include "Workloads.h"

#include "support/JSONWriter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

bool optimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <compile_fuzz|run_kernels|"
               "daemon_mix> --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--source-id ID]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  std::string SourceId = "unknown";
  int Traced = -1;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    std::string V = argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0;
    } else if (A == "--trace")
      Traced = V == "1" ? 1 : V == "0" ? 0 : -1;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--source-id")
      SourceId = V;
    else
      return usage(("unknown option " + A).c_str());
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    return usage("unknown or missing --workload");
  if (!HaveSeed || !HaveSeconds || Traced < 0)
    return usage("--seed, --seconds and --trace 0|1 are required");
  O.Traced = Traced == 1;
  O.NProc = std::max(1u, std::thread::hardware_concurrency());

  const std::string Sanitizer = PERFBENCH_SANITIZE;
  const bool Trustworthy = optimizedBuild() && Sanitizer.empty();
  if (!Trustworthy)
    std::fprintf(stderr,
                 "perfbench: ************************************************\n"
                 "perfbench: WARNING: %s build (sanitizer: %s). Timings from\n"
                 "perfbench: this build do not describe the product.\n"
                 "perfbench: ************************************************\n",
                 optimizedBuild() ? "optimized" : "UNOPTIMIZED",
                 Sanitizer.empty() ? "none" : Sanitizer.c_str());

  RunInfo Info;
  Result R = runWorkload(O, Info);

  std::string Stamp;
  mcc::json::Writer W(Stamp);
  W.beginObject();
  W.field("stamp", "perfbench");
  W.field("workload", O.Workload);
  W.field("seed", static_cast<std::uint64_t>(O.Seed));
  W.key("seconds");
  W.rawValue(formatNumber(O.Seconds));
  W.field("trace", O.Traced);
  W.field("jobs", Info.Jobs);
  W.field("source", SourceId);
  W.field("build_type", PERFBENCH_BUILD_TYPE);
  W.field("sanitizer", Sanitizer.empty() ? "none" : Sanitizer);
  W.field("optimized", optimizedBuild());
  W.field("trustworthy", Trustworthy);
  W.field("nproc", static_cast<std::uint64_t>(O.NProc));
  char Digest[32];
  std::snprintf(Digest, sizeof(Digest), "%016llx",
                static_cast<unsigned long long>(Info.StreamDigest));
  W.field("stream_digest", Digest);
  W.endObject();
  std::printf("%s\n%s\n", Stamp.c_str(), R.toJSON().c_str());
  std::fflush(stdout);
  return 0;
}
