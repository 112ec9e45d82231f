//===--- Workloads.h - compile_fuzz, run_kernels, daemon_mix ----*- C++ -*-===//
//
// Each workload is a closed loop over a seeded job stream (Jobs.h) driven
// through the product's public entry points:
//
//   compile_fuzz  CompilerInstance, one thread, fuzz programs and
//                 composed TUs at -O1 under both lowerings, compile only
//   run_kernels   CompilerInstance + ExecutionEngine + runFunction("main"),
//                 one thread, kernels sized so execution dominates
//   daemon_mix    net::Server over a CompileService with an on-disk store,
//                 one net::Client connection keeping a fixed window of
//                 jobs in flight, Zipf popularity over a program pool
//
// Untraced runs report the end-to-end metrics; traced runs (a separate
// invocation) report the per-layer metrics. Results are checked outside
// the timed regions and every mismatch is printed with its seed.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Metrics.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;  ///< length of the timed region
  bool Traced = false;
  unsigned NProc = 1;
  /// Scratch directory for the daemon's store and socket; relative to the
  /// working directory.
  std::string WorkDir = ".bench_build/run";
};

/// What a run did besides its metrics (for the result stamp).
struct RunInfo {
  std::uint64_t Jobs = 0;       ///< jobs in the timed region
  std::uint64_t StreamDigest = 0; ///< hash of the generated job stream
};

const std::vector<std::string> &workloadNames();

/// Runs one workload. Human-readable reports (mismatches, per-kernel
/// rows, tail attribution) go to stderr.
Result runWorkload(const RunOptions &O, RunInfo &Info);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
