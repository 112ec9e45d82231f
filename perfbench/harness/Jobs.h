//===--- Jobs.h - Seeded job streams for the three workloads ----*- C++ -*-===//
//
// Everything the program under test receives is made here, from the
// benchmark seed alone: MiniC sources and the job-flag words of the
// product's own job grammar (service/JobSpec.h). Each job also carries
// its independent reference value — the fuzz generator's host-evaluated
// oracle, or a host-side C++ mirror of a kernel — which never passes
// through the compiler under test.
//
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_JOBS_H
#define PERFBENCH_JOBS_H

#include "fuzz/Fuzz.h"
#include "service/CompileService.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: the benchmark's only source of randomness.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return N ? next() % N : 0; }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double P) { return uniform() < P; }

private:
  std::uint64_t State;
};

enum class KernelKind {
  Plain,
  Unroll8,
  Tile16,
  ArraySweep,
  CallHeavy,
  RegPressure,
  ParReduce,
  ParWorkshare,
};

struct KernelSpec {
  KernelKind Kind = KernelKind::Plain;
  long N = 0;             ///< iterations (rounds x width for ParWorkshare)
  unsigned Threads = 1;   ///< num_threads clause (parallel kinds)
  std::string Schedule;   ///< schedule clause (parallel kinds)
};

/// One compile (and, for run jobs, execute) request.
struct Job {
  std::string Source;
  /// Job-flag words in the product's grammar, e.g.
  /// "-O1 -fopenmp-enable-irbuilder --analyze".
  std::string Flags;
  /// Host reference of main()'s return value (see expected()).
  std::int64_t Expected = 0;
  /// Kernel jobs: the kernel whose host mirror gives the reference. It is
  /// evaluated on demand, outside timed regions, because large kernels
  /// take as long on the host as on the product's engines.
  std::optional<KernelSpec> Kernel;
  /// For programs with a dependence-gated transform: the same program
  /// without it. A refusal by the legality oracle is correct when this
  /// form compiles and matches Expected.
  std::string FallbackSource;
  /// Fuzz seed (minicc-fuzz --seed=N --count=1 reproduces the program);
  /// the first part's seed for a composed TU; 0 for kernels.
  std::uint64_t ProgramSeed = 0;
  unsigned Parts = 1; ///< > 1: a multi-function TU composed of this many programs
  std::string Tag;    ///< kernel name or one-line program summary
  /// Engine that executes the job: the -run engine of run jobs, the
  /// verification engine of compile-only jobs.
  mcc::interp::ExecEngineKind Engine = mcc::interp::ExecEngineKind::Bytecode;
  unsigned Threads = 1; ///< OpenMP default thread count when executed

  [[nodiscard]] std::int64_t expected() const;
  [[nodiscard]] bool irBuilder() const;
  /// The request as the service sees it (flags parsed by the product's
  /// job grammar). Aborts on a flag the grammar rejects: the benchmark
  /// only generates valid flags.
  [[nodiscard]] mcc::svc::CompileJob toCompileJob() const;
};

/// Stable byte serialization of a job stream (determinism tests, and the
/// stream digest printed in the result stamp).
std::string serializeJobs(const std::vector<Job> &Jobs);

//===--- compile_fuzz ------------------------------------------------------===//

/// One program slot in ComposedStride is a multi-function TU of
/// ComposedParts programs without `unroll full`, taken in order from fuzz
/// seed ComposedFirstSeed upward. The TUs are the same for every seed:
/// they are most of the jobs above the 99th percentile, so seeded TUs
/// would make job_ms_p99 a property of the seed rather than of the
/// compiler.
inline constexpr std::size_t ComposedStride = 50;
inline constexpr std::size_t ComposedParts = 24;
inline constexpr std::uint64_t ComposedFirstSeed = 10000;

/// The traffic mix. No measured traffic from users of this compiler
/// exists, so every value below is a placeholder chosen for what it makes
/// the benchmark cover, not derived from data:
///  - IRBuilderShare (run_kernels, daemon_mix): the two lowerings are what
///    the paper compares, so neither is favoured. compile_fuzz compiles
///    every program under both.
///  - AnalyzeShare: --analyze adds the race linter and the conformance
///    checker to the verifier that always runs; a quarter of the jobs keeps
///    them measured without letting them set the totals.
///  - TieredShare: both execution engines run equally often.
///  - O1Share (daemon_mix): -O0 and -O1 jobs of one program share the L1
///    and L2 cache entries but not L3, so both kinds of key occur.
///  - RunShare, of the pool's small programs (daemon_mix): -run jobs take
///    the service's execute path, which bypasses the disk store, but
///    execution is run_kernels' subject, so they stay a minority.
///  - MaxDaemonThreads (daemon_mix -run jobs): the programs are small.
///  - ZipfExponent (daemon_mix): request popularity at caches is usually
///    modelled as Zipf-like; web proxy traces measured exponents of 0.64
///    to 0.83 (Breslau et al., "Web Caching and Zipf-like Distributions",
///    INFOCOM 1999). 1 is the textbook value, not a measurement of
///    compile traffic.
inline constexpr double IRBuilderShare = 0.5;
inline constexpr double AnalyzeShare = 0.25;
inline constexpr double TieredShare = 0.5;
inline constexpr double O1Share = 0.5;
inline constexpr double RunShare = 0.2;
inline constexpr unsigned MaxDaemonThreads = 2;
inline constexpr double ZipfExponent = 1.0;

/// Programs with `unroll full` (the stacked-unroll tail: 20 ms to 1.5 s
/// per compile under the irbuilder lowering) enter the stream only
/// through a fixed panel: the first PanelSize such GenMode::All programs
/// from fuzz seed PanelFirstSeed upward, one every PanelStride program
/// slots. Drawing them per seed instead would make a run's total compile
/// time hinge on which few of them it drew.
inline constexpr std::uint64_t PanelFirstSeed = 100;
inline constexpr std::size_t PanelSize = 16;
inline constexpr std::size_t PanelStride = 24;
const std::vector<std::uint64_t> &fullUnrollPanel();

/// \p NumPrograms program slots, each emitted twice in a row (legacy,
/// then irbuilder lowering), all at -O1: seeded GenMode::All programs
/// without `unroll full`, composed TUs of such programs, and the
/// full-unroll panel.
std::vector<Job> makeCompileFuzzStream(std::uint64_t Seed,
                                       std::size_t NumPrograms);

/// Renames main/sum/a of each rendered part to f<k>/sum_<k>/a_<k> and
/// appends a main() that folds the parts' results.
std::string composeTU(const std::vector<std::string> &PartSources);
/// The fold composeTU's main() computes, over the parts' values.
std::int64_t foldParts(const std::vector<std::int64_t> &PartValues);

//===--- run_kernels -------------------------------------------------------===//

const char *kernelName(KernelKind K);
std::string renderKernel(const KernelSpec &K);
/// Host-side C++ mirror of the kernel's main().
std::int64_t kernelReference(const KernelSpec &K);

/// Team size of the parallel kernels. A larger team on a small shared host
/// measures the scheduler: a team as large as nproc waits at every barrier
/// for whichever core the host has lent elsewhere.
inline constexpr unsigned MaxKernelThreads = 2;

/// \p NumJobs kernel jobs; parallel kinds use
/// num_threads = min(MaxKernelThreads, \p NProc).
std::vector<Job> makeKernelStream(std::uint64_t Seed, std::size_t NumJobs,
                                  unsigned NProc);

//===--- daemon_mix --------------------------------------------------------===//

/// One program of the daemon's popularity pool.
struct PoolProgram {
  std::string Source;
  std::string FallbackSource;
  std::int64_t Expected = 0;
  std::uint64_t Seed = 0;
  bool Small = false; ///< few enough iterations to be a -run job
};

/// The first \p Size GenMode::All programs from fuzz seed
/// DaemonPoolFirstSeed upward, without `unroll full` (compile_fuzz
/// measures those). Dependence-gated transforms stay in, so the pool holds
/// programs the legality oracle refuses. The pool and its popularity
/// order are the same for every seed: which few programs are hot decides
/// most of the daemon's miss cost, so a seeded pool would make the
/// numbers a property of the seed. The seed draws the request sequence
/// and every job's options.
inline constexpr std::uint64_t DaemonPoolFirstSeed = 2021;
std::vector<PoolProgram> makeDaemonPool(std::size_t Size);

/// One daemon request: a pool program plus independently drawn options.
struct DaemonJob {
  std::uint32_t Program = 0;
  bool IRBuilder = false;
  bool O1 = false;
  bool Analyze = false;
  bool Run = false;
  bool Tiered = false; ///< -exec-engine=tiered (run jobs only)
  unsigned Threads = 1;

  /// The options that decide the verdict and the exit value (not the
  /// engine or the thread count, which must not change either).
  [[nodiscard]] std::uint32_t verdictKey() const;
  [[nodiscard]] std::string flags() const;
};

/// Infinite seeded stream of daemon jobs with Zipf(ZipfExponent)
/// popularity over the pool (pool index = popularity rank).
class DaemonStream {
public:
  DaemonStream(std::uint64_t Seed, const std::vector<PoolProgram> &Pool);
  DaemonJob next();

private:
  Rng R;
  const std::vector<PoolProgram> &Pool;
  std::vector<double> CDF; ///< cumulative popularity by rank
};

} // namespace perfbench

#endif // PERFBENCH_JOBS_H
