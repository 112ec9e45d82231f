#include "Workloads.h"

#include "Jobs.h"
#include "Pipeline.h"

#include "net/Client.h"
#include "net/Server.h"
#include "support/ContentHash.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>
#include <unordered_map>

namespace perfbench {

using namespace mcc;
using interp::ExecEngineKind;

namespace {

//===--- Sizes -------------------------------------------------------------===//

/// Set-ups per untraced run; setup_s is their median.
constexpr int SetupReps = 3;
/// Length of the slices of a timed region (see sliceMedians()). A slice
/// holds hundreds of jobs, and compile_fuzz's stacked-unroll panel fills
/// well under half of a run's slices.
constexpr double SliceSeconds = 1.0;
/// compile_fuzz: programs in the stream (two jobs each, one per lowering),
/// more than one run compiles, so a run never returns to the panel at the
/// stream's start.
constexpr std::size_t FuzzPrograms = 8000;
/// Jobs at the start of a stream whose -O1 IR makes code_size_insts: a
/// fixed set per seed that a run compiles anyway, large enough that the
/// sum moves little between seeds.
constexpr std::size_t CodeSizeJobs = 4000;
/// run_kernels: jobs in the stream.
constexpr std::size_t KernelJobs = 3000;
/// daemon_mix: the popularity pool and the untimed warm-up prefix. 96
/// programs compiled under the drawn options exceed DaemonCacheBytes.
constexpr std::size_t DaemonPoolSize = 96;
constexpr std::size_t DaemonWarmupJobs = 2000;
/// In-memory cache budget of the daemon, below the pool's working set so
/// that LRU eviction and disk hits occur.
constexpr std::size_t DaemonCacheBytes = 16u << 20;
/// Executions per check or reference run (see executeRepeated).
constexpr int ExecRepeats = 3;
/// Mismatch lines printed per run (all are counted).
constexpr unsigned MaxReportedFailures = 20;

//===--- Checking ----------------------------------------------------------===//

class Checker {
public:
  Checker(const RunOptions &O) : O(O) {}

  void pass(std::uint64_t Jobs = 1) { Attempted += Jobs; }

  void fail(std::uint64_t ProgramSeed, const std::string &What,
            const std::string &Why, std::uint64_t Jobs = 1) {
    Attempted += Jobs;
    Failed += Jobs;
    if (++Reported > MaxReportedFailures)
      return;
    std::fprintf(stderr,
                 "perfbench: MISMATCH workload=%s seed=%llu program-seed=%llu "
                 "(%s): %s\n",
                 O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                 static_cast<unsigned long long>(ProgramSeed), What.c_str(),
                 Why.c_str());
  }

  /// A failed self-check of the benchmark (trace drift, coverage): the
  /// run's result is not trustworthy.
  void broken(const std::string &Why) {
    Correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED workload=%s seed=%llu: %s\n",
                 O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
                 Why.c_str());
  }

  void finish(Result &R) const {
    R.Attempted = std::max<std::uint64_t>(Attempted, 1);
    R.Failed = Failed;
    R.Correct = Correct && Failed == 0 && Attempted > 0;
  }

private:
  const RunOptions &O;
  std::uint64_t Attempted = 0, Failed = 0;
  unsigned Reported = 0;
  bool Correct = true;
};

std::string firstLine(const std::string &S) {
  return S.substr(0, S.find('\n'));
}

int slicesOf(double Seconds) {
  return std::max(1, static_cast<int>(Seconds / SliceSeconds));
}

void reportSlices(const SliceMedians &S) {
  std::fprintf(stderr, "perfbench: jobs/s per %.0f s slice:", SliceSeconds);
  for (double Rate : S.Rates)
    std::fprintf(stderr, " %.0f", Rate);
  std::fprintf(stderr, "\n");
}

/// Compiles \p Source as \p Opts with a fresh CompilerInstance.
std::unique_ptr<CompilerInstance> compileWith(const CompilerOptions &Opts,
                                              const std::string &Source,
                                              bool &Ok) {
  auto CI = std::make_unique<CompilerInstance>(Opts);
  Ok = CI->compileSource(Source);
  return CI;
}

/// Checks a refusal: the program's untransformed form must compile and
/// reproduce the reference. Returns "" when correct.
std::string checkRefusal(const Job &J, const CompilerOptions &Opts,
                         const std::string &Diags) {
  if (J.FallbackSource.empty() || !isLegalityRefusal(Diags))
    return "compile failed: " + firstLine(Diags);
  bool Ok = false;
  auto CI = compileWith(Opts, J.FallbackSource, Ok);
  if (!Ok)
    return "refused, and the untransformed program failed: " +
           firstLine(CI->renderDiagnostics());
  ExecOutcome E = execute(*CI->getIRModule(), J.Engine, J.Threads);
  if (!E.Ok)
    return "refused, and the untransformed program trapped: " + E.Error;
  if (E.Value != J.expected())
    return "refused, and the untransformed program returned " +
           std::to_string(E.Value) + ", expected " +
           std::to_string(J.expected());
  return {};
}

/// Runs main() of \p M ExecRepeats times (a fresh engine each time, one
/// OpenMP thread) and returns the run with the median runFunction time.
/// Checks and reference runs are not part of any timed job; a single run
/// of a microsecond-scale program, or one that wakes a team, would mostly
/// time caches and wake-ups. Results do not depend on the team size.
/// Differing results across the runs are reported as a trap.
ExecOutcome executeRepeated(const ir::Module &M, const Job &J) {
  std::vector<ExecOutcome> Runs;
  for (int I = 0; I < ExecRepeats; ++I) {
    Runs.push_back(execute(M, J.Engine, 1));
    if (!Runs.back().Ok)
      return Runs.back();
    if (Runs.back().Value != Runs.front().Value) {
      Runs.back().Ok = false;
      Runs.back().Error = "nondeterministic result";
      return Runs.back();
    }
  }
  std::sort(Runs.begin(), Runs.end(),
            [](const ExecOutcome &A, const ExecOutcome &B) {
              return A.RunSeconds < B.RunSeconds;
            });
  return Runs[Runs.size() / 2];
}

std::string checkValue(const Job &J, const ExecOutcome &E) {
  if (!E.Ok)
    return "execution trapped: " + E.Error;
  if (E.Value != J.expected())
    return "returned " + std::to_string(E.Value) + ", expected " +
           std::to_string(J.expected());
  return {};
}

std::string jobWhat(const Job &J) {
  return J.Flags + " | " + J.Tag;
}

//===--- Per-layer statistics ----------------------------------------------===//

constexpr const char *Lowerings[] = {"legacy", "irbuilder"};

/// Per-layer accumulators of a traced run. Times come from the spans;
/// counters from CompileCounters, ExecStats and runtime deltas.
struct LayerStats {
  Trace T;
  /// Root span of each traced job and that job's lowering (0 legacy, 1
  /// irbuilder).
  std::vector<std::pair<int, int>> JobRoots;

  std::uint64_t Compiles[2] = {0, 0};
  std::uint64_t Tokens = 0;
  std::uint64_t ASTNodes[2] = {0, 0}, ASTBytes[2] = {0, 0};
  std::uint64_t CodegenJobs = 0, CodegenInsts = 0;
  std::uint64_t O1Jobs = 0, IRIn = 0, IROut = 0;
  std::uint64_t LoopsUnrolled = 0, ScalarsPromoted = 0, LoadsForwarded = 0,
                InstsRemoved = 0;

  std::uint64_t Execs = 0, TieredExecs = 0;
  std::uint64_t BytecodeBytes = 0, InstsExecuted = 0, SuperinstHits = 0;
  std::uint64_t JITCompiled = 0, JITCodeBytes = 0, JITFallbacks = 0,
                JITOSR = 0, JITSpills = 0;
  std::uint64_t ForkJoins = 0, TransientForks = 0, PoolThreads = 0;
  std::uint64_t BarrierSpin = 0, BarrierSleep = 0, WorkerSpin = 0,
                WorkerSleep = 0;

  double UntracedSeconds = 0, TracedSeconds = 0;

  void addCompile(const CompilerOptions &Opts, const CompileCounters &C,
                  bool ReachedCodegen) {
    const int L = Opts.LangOpts.OpenMPEnableIRBuilder ? 1 : 0;
    ++Compiles[L];
    Tokens += C.Tokens;
    ASTNodes[L] += C.ASTNodes;
    ASTBytes[L] += C.ASTBytes;
    if (!ReachedCodegen)
      return;
    ++CodegenJobs;
    CodegenInsts += C.IRInstsCodegen;
    if (Opts.RunMidend) {
      ++O1Jobs;
      IRIn += C.IRInstsCodegen;
      IROut += C.IRInstsFinal;
      LoopsUnrolled += C.Midend.Unroll.LoopsUnrolled;
      ScalarsPromoted += C.Midend.ScalarsPromoted;
      LoadsForwarded += C.Midend.LoadsForwarded;
      InstsRemoved += C.Midend.InstructionsDCEd;
    }
  }

  void addExec(const ExecOutcome &E, ExecEngineKind Engine) {
    if (!E.Ok)
      return;
    ++Execs;
    BytecodeBytes += E.Stats.BytecodeBytes;
    InstsExecuted += E.Stats.InstructionsExecuted;
    SuperinstHits += E.Stats.SuperinstHits;
    if (Engine == ExecEngineKind::Tiered) {
      ++TieredExecs;
      JITCompiled += E.Stats.JITFunctionsCompiled;
      JITCodeBytes += E.Stats.JITCodeBytes;
      JITFallbacks += E.Stats.JITFallbacks;
      JITOSR += E.Stats.JITOSRPromotions;
      JITSpills += E.Stats.JITSpills;
    }
    ForkJoins += E.Runtime.NumForkJoins;
    TransientForks += E.Runtime.NumTransientForks;
    PoolThreads += E.Runtime.NumPoolThreadsSpawned;
    BarrierSpin += E.Runtime.BarrierSpinWakes;
    BarrierSleep += E.Runtime.BarrierSleepWakes;
    WorkerSpin += E.Runtime.WorkerSpinWakes;
    WorkerSleep += E.Runtime.WorkerSleepWakes;
  }

  /// Sum of layer self times over the traced jobs' root spans, as a
  /// share of their wall time.
  [[nodiscard]] double coverage() const {
    std::vector<double> Self = T.selfTimes();
    double Wall = 0, Layers = 0;
    for (const auto &[Root, L] : JobRoots) {
      const Span &S = T.spans()[static_cast<std::size_t>(Root)];
      Wall += S.End - S.Start;
      Layers += S.End - S.Start - Self[static_cast<std::size_t>(Root)];
    }
    return Wall > 0 ? Layers / Wall : 1.0;
  }

  void emit(Result &R) const;
  void printTail() const;
};

double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

void LayerStats::emit(Result &R) const {
  // Mean self time per job that ran the layer.
  const std::map<std::string, Trace::LayerTotal> ByName = T.selfTimeByName();
  auto SelfMs = [&](const std::string &Span) {
    auto It = ByName.find(Span);
    if (It == ByName.end() || It->second.Jobs == 0)
      return 0.0;
    return It->second.Self * 1000.0 / static_cast<double>(It->second.Jobs);
  };
  const double AllCompiles = static_cast<double>(Compiles[0] + Compiles[1]);

  R.add("lex.self_ms", SelfMs("lex"), "ms");
  R.add("lex.tokens", ratio(static_cast<double>(Tokens), AllCompiles),
        "count/job");
  for (int L = 0; L < 2; ++L)
    R.add(std::string("parse_sema.self_ms.") + Lowerings[L],
          SelfMs(std::string("parse_sema.") + Lowerings[L]), "ms");
  for (int L = 0; L < 2; ++L)
    R.add(std::string("parse_sema.ast_nodes.") + Lowerings[L],
          ratio(static_cast<double>(ASTNodes[L]),
                static_cast<double>(Compiles[L])),
          "count/job");
  for (int L = 0; L < 2; ++L)
    R.add(std::string("parse_sema.ast_bytes.") + Lowerings[L],
          ratio(static_cast<double>(ASTBytes[L]),
                static_cast<double>(Compiles[L])),
          "bytes/job");
  for (const char *P : {"verifier", "race_linter", "conformance"})
    R.add(std::string("analysis.") + P + ".self_ms",
          SelfMs(std::string("analysis.") + P), "ms");
  for (int L = 0; L < 2; ++L)
    R.add(std::string("codegen.self_ms.") + Lowerings[L],
          SelfMs(std::string("codegen.") + Lowerings[L]), "ms");
  R.add("codegen.ir_insts",
        ratio(static_cast<double>(CodegenInsts),
              static_cast<double>(CodegenJobs)),
        "count/job");
  R.add("ir.verify_ms", SelfMs("ir.verify"), "ms");
  for (const char *P :
       {"unroll", "simplifycfg", "store_forward", "scalar_promote", "dce"})
    R.add(std::string("midend.") + P + ".self_ms",
          SelfMs(std::string("midend.") + P), "ms");
  const double O1 = static_cast<double>(O1Jobs);
  R.add("midend.loops_unrolled", ratio(static_cast<double>(LoopsUnrolled), O1),
        "count/job");
  R.add("midend.scalars_promoted",
        ratio(static_cast<double>(ScalarsPromoted), O1), "count/job");
  R.add("midend.loads_forwarded",
        ratio(static_cast<double>(LoadsForwarded), O1), "count/job");
  R.add("midend.insts_removed", ratio(static_cast<double>(InstsRemoved), O1),
        "count/job");
  R.add("midend.ir_growth",
        ratio(static_cast<double>(IROut), static_cast<double>(IRIn)), "ratio");

  const double Ex = static_cast<double>(Execs);
  const double Tiered = static_cast<double>(TieredExecs);
  R.add("interp.translate_ms", SelfMs("interp.translate"), "ms");
  R.add("interp.bytecode_bytes", ratio(static_cast<double>(BytecodeBytes), Ex),
        "bytes/job");
  R.add("interp.insts_executed", ratio(static_cast<double>(InstsExecuted), Ex),
        "count/job");
  R.add("interp.superinst_hit_ratio",
        ratio(static_cast<double>(SuperinstHits),
              static_cast<double>(InstsExecuted)),
        "ratio");
  R.add("jit.functions_compiled", ratio(static_cast<double>(JITCompiled), Tiered),
        "count/job");
  R.add("jit.code_bytes", ratio(static_cast<double>(JITCodeBytes), Tiered),
        "bytes/job");
  R.add("jit.fallback_ratio",
        ratio(static_cast<double>(JITFallbacks),
              static_cast<double>(JITCompiled + JITFallbacks)),
        "ratio");
  R.add("jit.osr_promotions", ratio(static_cast<double>(JITOSR), Tiered),
        "count/job");
  R.add("jit.spills", ratio(static_cast<double>(JITSpills), Tiered),
        "count/job");
  R.add("exec.self_ms.bytecode", SelfMs("exec.bytecode"), "ms");
  R.add("exec.self_ms.tiered", SelfMs("exec.tiered"), "ms");

  R.add("runtime.fork_joins", ratio(static_cast<double>(ForkJoins), Ex),
        "count/job");
  R.add("runtime.transient_forks",
        ratio(static_cast<double>(TransientForks), Ex), "count/job");
  R.add("runtime.barrier_sleep_ratio",
        ratio(static_cast<double>(BarrierSleep),
              static_cast<double>(BarrierSpin + BarrierSleep)),
        "ratio");
  R.add("runtime.worker_sleep_ratio",
        ratio(static_cast<double>(WorkerSleep),
              static_cast<double>(WorkerSpin + WorkerSleep)),
        "ratio");
  R.add("runtime.pool_threads_spawned", static_cast<double>(PoolThreads),
        "count");
}

void LayerStats::printTail() const {
  // The slowest 1 % of traced jobs, attributed to layers by lowering.
  if (JobRoots.empty())
    return;
  std::vector<double> Self = T.selfTimes();
  std::vector<std::pair<double, std::size_t>> Walls;
  for (std::size_t I = 0; I < JobRoots.size(); ++I) {
    const Span &S = T.spans()[static_cast<std::size_t>(JobRoots[I].first)];
    Walls.push_back({S.End - S.Start, I});
  }
  std::sort(Walls.rbegin(), Walls.rend());
  const std::size_t TailN = std::max<std::size_t>(1, Walls.size() / 100);
  std::set<std::uint32_t> TailJobs;
  std::map<std::uint32_t, int> JobLowering;
  double TailWall[2] = {0, 0};
  std::uint64_t TailCount[2] = {0, 0};
  for (std::size_t K = 0; K < TailN; ++K) {
    const auto &[Root, L] = JobRoots[Walls[K].second];
    const std::uint32_t Job = T.spans()[static_cast<std::size_t>(Root)].Job;
    TailJobs.insert(Job);
    JobLowering[Job] = L;
    TailWall[L] += Walls[K].first;
    ++TailCount[L];
  }
  std::map<std::string, double> ByLayer[2];
  for (std::size_t I = 0; I < T.spans().size(); ++I) {
    const Span &S = T.spans()[I];
    if (S.Parent < 0 || !TailJobs.count(S.Job))
      continue;
    std::string Name = S.Name;
    for (const char *L : Lowerings) // fold the lowering suffix
      if (Name.size() > std::strlen(L) + 1 &&
          Name.compare(Name.size() - std::strlen(L), std::string::npos, L) == 0)
        Name.resize(Name.size() - std::strlen(L) - 1);
    ByLayer[JobLowering[S.Job]][Name] += Self[I];
  }
  std::fprintf(stderr,
               "perfbench: tail attribution (slowest %zu of %zu traced jobs), "
               "mean self ms per job:\n",
               TailN, Walls.size());
  for (int L = 0; L < 2; ++L) {
    if (!TailCount[L])
      continue;
    const double N = static_cast<double>(TailCount[L]);
    std::fprintf(stderr, "  %-9s jobs=%llu wall=%.3f ms:", Lowerings[L],
                 static_cast<unsigned long long>(TailCount[L]),
                 TailWall[L] * 1000 / N);
    std::vector<std::pair<double, std::string>> Rows;
    for (const auto &[Name, Sec] : ByLayer[L])
      Rows.push_back({Sec, Name});
    std::sort(Rows.rbegin(), Rows.rend());
    for (const auto &[Sec, Name] : Rows)
      std::fprintf(stderr, " %s=%.3f", Name.c_str(), Sec * 1000 / N);
    std::fprintf(stderr, "\n");
  }
}

/// Appends the daemon-only per-layer metrics (zero on workloads that
/// bypass the service).
struct ServiceLayer {
  double HitRatio[4] = {0, 0, 0, 0}; ///< l1, l2, l3, disk
  double EvictionsPerJob = 0;
  double CompileShare = 0, QueueShare = 0;

  void emit(Result &R) const {
    const char *Levels[] = {"l1", "l2", "l3", "disk"};
    for (int I = 0; I < 4; ++I)
      R.add(std::string("service.") + Levels[I] + "_hit_ratio", HitRatio[I],
            "ratio");
    R.add("service.evictions", EvictionsPerJob, "count/job");
    R.add("service.compile_share", CompileShare, "ratio");
    R.add("net.queue_share", QueueShare, "ratio");
  }
};

void emitTraceMetrics(Result &R, const LayerStats &L, const ServiceLayer &S,
                      Checker &C) {
  L.emit(R);
  S.emit(R);
  const double Coverage = L.coverage();
  R.add("trace.overhead_ratio", ratio(L.TracedSeconds, L.UntracedSeconds),
        "ratio");
  R.add("trace.coverage_ratio", Coverage, "ratio");
  if (Coverage < 0.95)
    C.broken("layer self times cover " + std::to_string(Coverage * 100) +
             " % of traced job wall time (< 95 %)");
  L.printTail();
}

//===--- Traced jobs (compile_fuzz, run_kernels, daemon references) --------===//

/// Marks the span job ids of verification executions.
constexpr std::uint32_t VerifyJobBit = 1u << 31;

struct TracedOutcome {
  bool Compiled = false;
  bool Executed = false;
  std::int64_t Value = 0;
  std::string Diagnostics;
};

/// Runs \p J untraced through CompilerInstance (+ ExecutionEngine for run
/// jobs), then traced through TracedCompile (+ execute), and checks that
/// both print the same IR and compute the same value. Compile-only jobs
/// are executed afterwards when \p VerifyByExecution. Returns the traced
/// verdict and value; the caller checks them against the reference.
TracedOutcome traceJob(const Job &J, std::uint32_t JobId, bool Run,
                       bool VerifyByExecution, LayerStats &L, Checker &C) {
  const CompilerOptions Opts = J.toCompileJob().Options;
  TracedOutcome Out;

  // Untraced: the product's own orchestration.
  Clock::time_point U0 = Clock::now();
  auto CI = std::make_unique<CompilerInstance>(Opts);
  const bool UOk = CI->compileSource(J.Source);
  ExecOutcome UE;
  if (UOk && Run)
    UE = execute(*CI->getIRModule(), J.Engine, J.Threads);
  L.UntracedSeconds += secondsBetween(U0, Clock::now());

  // Traced: the same calls, one layer at a time.
  const int Lowering = Opts.LangOpts.OpenMPEnableIRBuilder ? 1 : 0;
  Clock::time_point T0 = Clock::now();
  const int Root = L.T.begin(JobId, "job", -1);
  auto TC = std::make_unique<TracedCompile>(Opts, &L.T, JobId, Root);
  Out.Compiled = TC->compile(J.Source);
  ExecOutcome TE;
  if (Out.Compiled && Run)
    TE = execute(*TC->module(), J.Engine, J.Threads, &L.T, JobId, Root);
  L.T.end(Root);
  L.TracedSeconds += secondsBetween(T0, Clock::now());
  L.JobRoots.push_back({Root, Lowering});
  L.addCompile(Opts, TC->counters(), TC->module() != nullptr);
  if (Run)
    L.addExec(TE, J.Engine);

  if (UOk != Out.Compiled)
    C.broken("traced and untraced verdicts differ for program seed " +
             std::to_string(J.ProgramSeed));
  else if (UOk && CI->getIRText() != ir::printModule(*TC->module()))
    C.broken("traced pipeline IR differs from CompilerInstance IR for "
             "program seed " +
             std::to_string(J.ProgramSeed) + " (" + J.Flags + ")");
  if (Run && UOk && Out.Compiled && UE.Ok && TE.Ok && UE.Value != TE.Value)
    C.broken("traced and untraced executions differ for program seed " +
             std::to_string(J.ProgramSeed));

  if (!Out.Compiled) {
    Out.Diagnostics = TC->renderDiagnostics();
    return Out;
  }
  if (!Run && VerifyByExecution) {
    // Verification execution, traced under its own root and job id so it
    // is billed neither to the compile job's wall time nor to its tail
    // attribution.
    const std::uint32_t VerifyId = JobId | VerifyJobBit;
    const int VRoot = L.T.begin(VerifyId, "verify", -1);
    TE = execute(*TC->module(), J.Engine, J.Threads, &L.T, VerifyId, VRoot);
    L.T.end(VRoot);
    L.addExec(TE, J.Engine);
  }
  Out.Executed = TE.Ok;
  Out.Value = TE.Value;
  return Out;
}

/// Traces the jobs of \p Jobs in order until O.Seconds of traced plus
/// untraced work, checking each against its reference.
void traceJobStream(const RunOptions &O, const std::vector<Job> &Jobs,
                    bool Run, LayerStats &L, Checker &C, RunInfo &Info) {
  std::uint32_t I = 0;
  while (L.UntracedSeconds + L.TracedSeconds < O.Seconds) {
    const Job &J = Jobs[I % Jobs.size()];
    TracedOutcome T = traceJob(J, I, Run, /*VerifyByExecution=*/true, L, C);
    std::string Why;
    if (!T.Compiled)
      Why = checkRefusal(J, J.toCompileJob().Options, T.Diagnostics);
    else if (!T.Executed)
      Why = "execution trapped";
    else if (T.Value != J.expected())
      Why = "returned " + std::to_string(T.Value) + ", expected " +
            std::to_string(J.expected());
    if (Why.empty())
      C.pass();
    else
      C.fail(J.ProgramSeed, jobWhat(J), Why);
    ++I;
  }
  Info.Jobs = I;
}

/// code_size_insts: -O1 IR instructions summed over the first
/// Known.size() jobs of the stream, a fixed set per seed however many jobs
/// a run gets through. \p Known holds the counts the timed loop saw (-1:
/// not reached).
std::int64_t codeSize(const std::vector<Job> &Jobs,
                      const std::vector<std::int64_t> &Known) {
  std::int64_t Sum = 0;
  for (std::size_t K = 0; K < Known.size(); ++K) {
    std::int64_t N = Known[K];
    if (N < 0) {
      bool Ok = false;
      auto CI = compileWith(Jobs[K].toCompileJob().Options, Jobs[K].Source, Ok);
      N = Ok ? static_cast<std::int64_t>(countInstructions(*CI->getIRModule()))
             : 0;
    }
    Sum += N;
  }
  return Sum;
}

//===--- compile_fuzz ------------------------------------------------------===//

Result runCompileFuzz(const RunOptions &O, RunInfo &Info) {
  Result R;
  Checker C(O);
  // The stream is the benchmark's input and is made before set-up is
  // timed. Set-up is the product's: the process's first compiles, of the
  // stream's first composed TU under both lowerings (the same TU for
  // every seed), so lazy initialization is not billed to the first jobs.
  const std::vector<Job> Jobs = makeCompileFuzzStream(O.Seed, FuzzPrograms);
  Info.StreamDigest = hashBytes(serializeJobs(Jobs));
  const std::size_t FirstTU = static_cast<std::size_t>(
      std::find_if(Jobs.begin(), Jobs.end(),
                   [](const Job &J) { return J.Parts > 1; }) -
      Jobs.begin());
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < (O.Traced ? 1 : SetupReps); ++Rep) {
    Clock::time_point S0 = Clock::now();
    for (std::size_t K = FirstTU; K < std::min(FirstTU + 2, Jobs.size()); ++K) {
      bool Ok = false;
      (void)compileWith(Jobs[K].toCompileJob().Options, Jobs[K].Source, Ok);
    }
    SetupSeconds.push_back(secondsBetween(S0, Clock::now()));
  }

  if (O.Traced) {
    LayerStats L;
    traceJobStream(O, Jobs, /*Run=*/false, L, C, Info);
    emitTraceMetrics(R, L, ServiceLayer(), C);
    C.finish(R);
    return R;
  }

  std::vector<double> JobMs, JobEnds, ExecMs;
  std::vector<double> ByLowering[2];
  resetPeakRSS();
  // See codeSize().
  std::vector<std::int64_t> CodeSize(std::min(Jobs.size(), CodeSizeJobs), -1);
  double Busy = 0;
  std::size_t I = 0;
  while (Busy < O.Seconds) {
    const Job &J = Jobs[I % Jobs.size()];
    const CompilerOptions Opts = J.toCompileJob().Options;

    Clock::time_point T0 = Clock::now();
    auto CI = std::make_unique<CompilerInstance>(Opts);
    const bool Ok = CI->compileSource(J.Source);
    const double Sec = secondsBetween(T0, Clock::now());
    Busy += Sec;
    JobMs.push_back(Sec * 1000);
    JobEnds.push_back(Busy);
    ByLowering[J.irBuilder() ? 1 : 0].push_back(Sec * 1000);

    // Untimed from here: code size and the check against the reference.
    if (I < CodeSize.size())
      CodeSize[I] = Ok ? static_cast<std::int64_t>(
                             countInstructions(*CI->getIRModule()))
                       : 0;
    std::string Why;
    if (!Ok) {
      Why = checkRefusal(J, Opts, CI->renderDiagnostics());
    } else {
      ExecOutcome E = executeRepeated(*CI->getIRModule(), J);
      // exec_ms_p50 here covers the composed TUs, which are the same for
      // every seed and each run 24 programs: single fuzz programs run for
      // 1 to 60 us, and the median of such a wide spread moved 16 %
      // between seeds.
      if (E.Ok && J.Parts > 1)
        ExecMs.push_back(E.RunSeconds * 1000);
      Why = checkValue(J, E);
    }
    if (Why.empty())
      C.pass();
    else
      C.fail(J.ProgramSeed, jobWhat(J), Why);
    ++I;
  }
  Info.Jobs = I;
  const double PeakRSS = peakRSSMiB();

  const std::int64_t CodeSizeSum = codeSize(Jobs, CodeSize);

  for (int L = 0; L < 2; ++L)
    std::fprintf(stderr, "perfbench: %-9s jobs=%zu job_ms p50=%.3f p90=%.3f "
                 "p99=%.3f max=%.3f\n",
                 Lowerings[L], ByLowering[L].size(),
                 percentile(ByLowering[L], 50), percentile(ByLowering[L], 90),
                 percentile(ByLowering[L], 99), percentile(ByLowering[L], 100));
  // The median and the throughput are medians over slices of the busy
  // time; p99 is over the whole run, as a slice holds too few jobs for it.
  const SliceMedians S = sliceMedians(JobEnds, JobMs, Busy, slicesOf(Busy));
  reportSlices(S);

  R.add("setup_s", median(SetupSeconds), "s");
  R.add("job_ms_p50", S.P50Ms, "ms");
  R.add("job_ms_p99", percentile(JobMs, 99), "ms");
  R.add("jobs_per_s", S.JobsPerS, "1/s");
  R.add("peak_rss_mb", PeakRSS, "MiB");
  R.add("code_size_insts", static_cast<double>(CodeSizeSum), "count");
  R.add("exec_ms_p50", percentile(ExecMs, 50), "ms");
  C.finish(R);
  return R;
}

//===--- run_kernels -------------------------------------------------------===//

Result runKernels(const RunOptions &O, RunInfo &Info) {
  Result R;
  Checker C(O);
  // The stream is the benchmark's input, made before set-up is timed.
  const std::vector<Job> Jobs = makeKernelStream(O.Seed, KernelJobs, O.NProc);
  Info.StreamDigest = hashBytes(serializeJobs(Jobs));
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < (O.Traced ? 1 : SetupReps); ++Rep) {
    Clock::time_point S0 = Clock::now();
    // One untimed job per (kernel, engine) seen first in the stream: the
    // runtime's worker pool and the JIT's code pages come up here.
    std::set<std::string> Warmed;
    for (const Job &J : Jobs) {
      if (!Warmed.insert(J.Tag + interp::execEngineKindName(J.Engine)).second)
        continue;
      bool Ok = false;
      auto CI = compileWith(J.toCompileJob().Options, J.Source, Ok);
      if (Ok)
        (void)execute(*CI->getIRModule(), J.Engine, J.Threads);
    }
    SetupSeconds.push_back(secondsBetween(S0, Clock::now()));
  }

  if (O.Traced) {
    LayerStats L;
    traceJobStream(O, Jobs, /*Run=*/true, L, C, Info);
    emitTraceMetrics(R, L, ServiceLayer(), C);
    C.finish(R);
    return R;
  }

  struct KernelRow {
    std::vector<double> JobMs, ExecMs;
  };
  std::map<std::string, KernelRow> Rows;
  std::vector<double> JobMs, JobEnds, ExecMs, ExecEnds;
  resetPeakRSS();
  // See codeSize().
  std::vector<std::int64_t> CodeSize(std::min(Jobs.size(), CodeSizeJobs), -1);
  double Busy = 0;
  std::size_t I = 0;
  while (Busy < O.Seconds) {
    const Job &J = Jobs[I % Jobs.size()];
    const CompilerOptions Opts = J.toCompileJob().Options;

    Clock::time_point T0 = Clock::now();
    auto CI = std::make_unique<CompilerInstance>(Opts);
    const bool Ok = CI->compileSource(J.Source);
    ExecOutcome E;
    if (Ok)
      E = execute(*CI->getIRModule(), J.Engine, J.Threads);
    const double Sec = secondsBetween(T0, Clock::now());
    Busy += Sec;
    JobMs.push_back(Sec * 1000);
    JobEnds.push_back(Busy);
    if (E.Ok) {
      ExecMs.push_back(E.RunSeconds * 1000);
      ExecEnds.push_back(Busy);
    }
    KernelRow &Row =
        Rows[J.Tag + "/" + interp::execEngineKindName(J.Engine)];
    Row.JobMs.push_back(Sec * 1000);
    Row.ExecMs.push_back(E.RunSeconds * 1000);

    if (I < CodeSize.size())
      CodeSize[I] = Ok ? static_cast<std::int64_t>(
                             countInstructions(*CI->getIRModule()))
                       : 0;
    std::string Why = Ok ? checkValue(J, E)
                         : "compile failed: " +
                               firstLine(CI->renderDiagnostics());
    if (Why.empty())
      C.pass();
    else
      C.fail(J.ProgramSeed, jobWhat(J), Why);
    ++I;
  }
  Info.Jobs = I;
  const double PeakRSS = peakRSSMiB();

  const std::int64_t CodeSizeSum = codeSize(Jobs, CodeSize);

  std::fprintf(stderr, "perfbench: per kernel (kernel/engine: jobs, job_ms "
                       "p50, exec_ms p50, exec share of job time):\n");
  for (const auto &[Name, Row] : Rows) {
    double JobSum = 0, ExecSum = 0;
    for (double V : Row.JobMs)
      JobSum += V;
    for (double V : Row.ExecMs)
      ExecSum += V;
    std::fprintf(stderr, "  %-24s %5zu %9.3f %9.3f %6.1f %%\n", Name.c_str(),
                 Row.JobMs.size(), percentile(Row.JobMs, 50),
                 percentile(Row.ExecMs, 50), 100 * ratio(ExecSum, JobSum));
  }
  // As in compile_fuzz: medians over slices of the busy time, p99 over
  // the whole run.
  const SliceMedians S = sliceMedians(JobEnds, JobMs, Busy, slicesOf(Busy));
  reportSlices(S);

  R.add("setup_s", median(SetupSeconds), "s");
  R.add("job_ms_p50", S.P50Ms, "ms");
  R.add("job_ms_p99", percentile(JobMs, 99), "ms");
  R.add("jobs_per_s", S.JobsPerS, "1/s");
  R.add("peak_rss_mb", PeakRSS, "MiB");
  R.add("code_size_insts", static_cast<double>(CodeSizeSum), "count");
  R.add("exec_ms_p50",
        sliceMedians(ExecEnds, ExecMs, Busy, slicesOf(Busy)).P50Ms, "ms");
  C.finish(R);
  return R;
}

//===--- daemon_mix --------------------------------------------------------===//

/// A compile daemon with a fresh on-disk store, and one client connected
/// to it over a Unix socket.
class Daemon {
public:
  Daemon(const std::string &Dir, unsigned Workers)
      : Dir(Dir), Service(serviceOptions(Dir, Workers)),
        Server(Service, serverOptions(Dir)) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool start(std::string &Error) {
    return Server.start(Error) && Client.connect(Dir + "/d.sock", Error);
  }

  /// Closes the connection, drains and stops the daemon, and deletes its
  /// store. Idempotent.
  void stop() {
    if (Stopped)
      return;
    Stopped = true;
    Client.close();
    Server.shutdown();
    Service.shutdown();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  net::Client &client() { return Client; }

private:
  static svc::ServiceOptions serviceOptions(const std::string &Dir,
                                            unsigned Workers) {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(Dir, EC);
    svc::ServiceOptions SO;
    SO.NumWorkers = Workers;
    SO.CacheBudgetBytes = DaemonCacheBytes;
    SO.DiskStorePath = Dir + "/store";
    return SO;
  }
  static net::ServerOptions serverOptions(const std::string &Dir) {
    net::ServerOptions SO;
    SO.SocketPath = Dir + "/d.sock";
    return SO;
  }

  std::string Dir;
  svc::CompileService Service;
  net::Server Server;
  net::Client Client;
  bool Stopped = false;
};

/// What the daemon answered for one verdict key (all jobs with that key
/// must agree).
struct Observed {
  net::ResultStatus Status = net::ResultStatus::Ok;
  bool Executed = false;
  std::int64_t ExitValue = 0;
  std::uint64_t Jobs = 0;
  bool Inconsistent = false;
  DaemonJob Example;
};

struct DaemonDrive {
  std::vector<double> LatencyMs;
  std::vector<double> EndSeconds; ///< when each reply arrived, since the start
  std::vector<DaemonJob> Sequence; ///< jobs in submission order
  std::uint64_t Completed = 0;
  std::uint64_t Rejects = 0, Errors = 0;
  double WallSeconds = 0;
};

/// Keeps \p Window jobs of \p Stream in flight on \p Cl until \p MaxJobs
/// have been submitted or \p Seconds have passed, then drains. Records
/// every verdict into \p Seen.
bool driveDaemon(net::Client &Cl, DaemonStream &Stream,
                 const std::vector<PoolProgram> &Pool, unsigned Window,
                 std::size_t MaxJobs, double Seconds,
                 std::unordered_map<std::uint32_t, Observed> &Seen,
                 DaemonDrive &D, std::string &Error) {
  struct InFlight {
    DaemonJob J;
    Clock::time_point Sent;
  };
  std::unordered_map<std::uint64_t, InFlight> Pending;
  // Reserved up front: untouched capacity is not resident, and growing by
  // doubling would put copy spikes into peak_rss_mb.
  const std::size_t Expect = std::min<std::size_t>(MaxJobs, 1u << 21);
  D.LatencyMs.reserve(Expect);
  D.EndSeconds.reserve(Expect);
  D.Sequence.reserve(Expect);
  std::uint64_t NextId = 1;
  std::size_t Submitted = 0;
  const Clock::time_point Start = Clock::now();
  auto Submit = [&](std::uint64_t Id, const DaemonJob &J) {
    Pending[Id] = {J, Clock::now()};
    return Cl.submit(Id, "input.c", J.flags(), Pool[J.Program].Source);
  };
  for (;;) {
    const bool Open = Submitted < MaxJobs &&
                      secondsBetween(Start, Clock::now()) < Seconds;
    while (Open && Pending.size() < Window) {
      DaemonJob J = Stream.next();
      D.Sequence.push_back(J);
      ++Submitted;
      if (!Submit(NextId++, J)) {
        Error = "submit failed";
        return false;
      }
    }
    if (Pending.empty())
      break;
    net::ClientEvent Ev;
    if (!Cl.next(Ev, Error)) {
      if (Error.empty())
        Error = "daemon closed the connection";
      return false;
    }
    auto It = Pending.find(Ev.JobId);
    if (It == Pending.end())
      continue;
    if (Ev.Type == net::MsgType::Reject) {
      // Admission refused: counted as a failed attempt, then retried
      // after the hint, as a build tool would.
      ++D.Rejects;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Ev.Reject.RetryAfterMs));
      DaemonJob J = It->second.J;
      if (!Submit(Ev.JobId, J)) {
        Error = "resubmit failed";
        return false;
      }
      continue;
    }
    if (Ev.Type != net::MsgType::Result)
      continue;
    const DaemonJob J = It->second.J;
    const Clock::time_point Now = Clock::now();
    D.LatencyMs.push_back(secondsBetween(It->second.Sent, Now) * 1000);
    D.EndSeconds.push_back(secondsBetween(Start, Now));

    Pending.erase(It);
    ++D.Completed;

    const net::ResultMsg &M = Ev.Result;
    if (M.Status != net::ResultStatus::Ok &&
        M.Status != net::ResultStatus::CompileFail)
      ++D.Errors;
    Observed &Ob = Seen[J.verdictKey()];
    if (Ob.Jobs++ == 0) {
      Ob.Status = M.Status;
      Ob.Executed = M.Executed;
      Ob.ExitValue = M.ExitValue;
      Ob.Example = J;
    } else if (Ob.Status != M.Status || Ob.Executed != M.Executed ||
               (M.Executed && Ob.ExitValue != M.ExitValue)) {
      Ob.Inconsistent = true;
    }
  }
  D.WallSeconds = secondsBetween(Start, Clock::now());
  return true;
}

Job daemonJobAsJob(const DaemonJob &DJ, const PoolProgram &P) {
  Job J;
  J.Source = P.Source;
  J.FallbackSource = P.FallbackSource;
  J.Expected = P.Expected;
  J.ProgramSeed = P.Seed;
  J.Flags = DJ.flags();
  J.Tag = "pool program " + std::to_string(DJ.Program);
  J.Engine = DJ.Tiered ? ExecEngineKind::Tiered : ExecEngineKind::Bytecode;
  J.Threads = DJ.Threads;
  return J;
}

/// Compares each distinct verdict key the daemon answered with a direct
/// CompilerInstance run of the same job (traced when \p L is given).
/// Returns the runFunction times of the untraced -run references.
std::vector<double>
checkDaemonVerdicts(const std::vector<PoolProgram> &Pool,
                    const std::unordered_map<std::uint32_t, Observed> &Seen,
                    Checker &C, LayerStats *L) {
  std::vector<double> ExecMs;
  std::vector<std::uint32_t> Keys;
  for (const auto &[K, Ob] : Seen)
    Keys.push_back(K);
  std::sort(Keys.begin(), Keys.end());
  std::uint32_t JobId = 0;
  for (std::uint32_t K : Keys) {
    const Observed &Ob = Seen.at(K);
    const Job J = daemonJobAsJob(Ob.Example, Pool[Ob.Example.Program]);
    const CompilerOptions Opts = J.toCompileJob().Options;
    const bool Run = Ob.Example.Run;

    bool Ok = false;
    bool Executed = false;
    std::int64_t Value = 0;
    std::string Diags;
    if (L) {
      TracedOutcome T = traceJob(J, JobId++, Run, /*VerifyByExecution=*/false,
                                 *L, C);
      Ok = T.Compiled;
      Executed = T.Executed;
      Value = T.Value;
      Diags = T.Diagnostics;
    } else {
      auto CI = compileWith(Opts, J.Source, Ok);
      if (Ok && Run) {
        ExecOutcome E = executeRepeated(*CI->getIRModule(), J);
        Executed = E.Ok;
        Value = E.Value;
        if (E.Ok)
          ExecMs.push_back(E.RunSeconds * 1000);
      }
      if (!Ok)
        Diags = CI->renderDiagnostics();
    }

    std::string Why;
    const bool DaemonOk = Ob.Status == net::ResultStatus::Ok;
    if (Ob.Inconsistent)
      Why = "daemon answered the same job differently";
    else if (Ob.Status != net::ResultStatus::Ok &&
             Ob.Status != net::ResultStatus::CompileFail)
      Why = std::string("daemon status ") + net::resultStatusName(Ob.Status);
    else if (DaemonOk != Ok)
      Why = std::string("daemon verdict ") +
            net::resultStatusName(Ob.Status) + ", direct compile " +
            (Ok ? "succeeded" : "failed: " + firstLine(Diags));
    else if (!Ok)
      Why = checkRefusal(J, Opts, Diags);
    else if (Run && (!Executed || !Ob.Executed))
      Why = "run job was not executed";
    else if (Run && Ob.ExitValue != Value)
      Why = "daemon exit value " + std::to_string(Ob.ExitValue) +
            ", direct run " + std::to_string(Value);
    else if (Run && Value != J.expected())
      Why = "exit value " + std::to_string(Value) + ", expected " +
            std::to_string(J.expected());
    if (Why.empty())
      C.pass(Ob.Jobs);
    else
      C.fail(J.ProgramSeed, jobWhat(J), Why, Ob.Jobs);
  }
  return ExecMs;
}

/// Parses "<Object>":{ ... "<Field>":<number> out of a stats reply.
double statsField(const std::string &JSON, const std::string &Object,
                  const std::string &Field) {
  std::size_t P = JSON.find("\"" + Object + "\":{");
  if (P == std::string::npos)
    return 0;
  P = JSON.find("\"" + Field + "\":", P);
  if (P == std::string::npos)
    return 0;
  return std::strtod(JSON.c_str() + P + Field.size() + 3, nullptr);
}

bool requestStats(net::Client &Cl, std::string &Text, std::string &Error) {
  if (!Cl.requestStats(/*JSON=*/true))
    return false;
  net::ClientEvent Ev;
  while (Cl.next(Ev, Error))
    if (Ev.Type == net::MsgType::StatsReply) {
      Text = Ev.Text;
      return true;
    }
  return false;
}

Result runDaemonMix(const RunOptions &O, RunInfo &Info) {
  Result R;
  Checker C(O);
  // One worker and one job in flight: the client, the connection's reader
  // and the worker take turns, so the daemon needs one core at a time.
  // With two workers and a window of two it kept every core of a 4-core
  // shared host busy, and its timings followed the host's load from run
  // to run. Single-flight waits need two jobs on one key in flight, so
  // they are not exercised. (One worker with a window of two made
  // jobs_per_s bimodal across seeds: one job waits in the queue or not.)
  const unsigned Workers = 1;
  const unsigned Window = 1;
  const std::string Dir = O.WorkDir + "/daemon-" + std::to_string(::getpid());

  // The pool is the benchmark's input, made before set-up is timed;
  // set-up is the daemon's start and its warm-up prefix.
  const std::vector<PoolProgram> Pool = makeDaemonPool(DaemonPoolSize);
  std::vector<double> SetupSeconds;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<DaemonStream> Stream;
  std::unordered_map<std::uint32_t, Observed> Seen;
  DaemonDrive Warm;
  std::string Error;
  for (int Rep = 0; Rep < (O.Traced ? 1 : SetupReps); ++Rep) {
    if (D)
      D->stop();
    D.reset();
    Seen.clear();
    Warm = DaemonDrive();
    Clock::time_point S0 = Clock::now();
    Stream =std::make_unique<DaemonStream>(O.Seed, Pool);
    D = std::make_unique<Daemon>(Dir, Workers);
    if (!D->start(Error) ||
        !driveDaemon(D->client(), *Stream, Pool, Window, DaemonWarmupJobs,
                     1e9, Seen, Warm, Error)) {
      std::fprintf(stderr, "perfbench: daemon set-up failed: %s\n",
                   Error.c_str());
      C.broken("daemon set-up failed");
      C.finish(R);
      return R;
    }
    SetupSeconds.push_back(secondsBetween(S0, Clock::now()));
  }
  {
    std::string Digest;
    for (const PoolProgram &P : Pool)
      Digest += P.Source;
    for (const DaemonJob &J : Warm.Sequence)
      Digest += J.flags() + std::to_string(J.Program);
    Info.StreamDigest = hashBytes(Digest);
  }

  DaemonDrive Timed;
  const double Seconds = O.Traced ? O.Seconds / 2 : O.Seconds;
  resetPeakRSS();
  if (!driveDaemon(D->client(), *Stream, Pool, Window, SIZE_MAX, Seconds,
                   Seen, Timed, Error)) {
    std::fprintf(stderr, "perfbench: daemon run failed: %s\n", Error.c_str());
    C.broken("daemon run failed");
  }
  Info.Jobs = Timed.Completed;
  const double PeakRSS = peakRSSMiB();
  std::string Stats;
  if (O.Traced && !requestStats(D->client(), Stats, Error))
    C.broken("daemon stats verb failed: " + Error);
  D->stop();
  if (Timed.Rejects + Timed.Errors + Warm.Rejects + Warm.Errors > 0)
    C.fail(0, "daemon", "rejected or errored jobs",
           Timed.Rejects + Timed.Errors + Warm.Rejects + Warm.Errors);

  if (O.Traced) {
    LayerStats L;
    (void)checkDaemonVerdicts(Pool, Seen, C, &L);

    // Replay the same stream through an in-process service (same options,
    // fresh store) to split the round trip into service compile time and
    // the rest (framing, socket, admission, queueing).
    std::vector<double> ServiceMs;
    {
      const std::string ReplayDir = Dir + "-replay";
      std::error_code EC;
      std::filesystem::remove_all(ReplayDir, EC);
      svc::ServiceOptions SO;
      SO.NumWorkers = 1;
      SO.CacheBudgetBytes = DaemonCacheBytes;
      SO.DiskStorePath = ReplayDir + "/store";
      svc::CompileService Replay(SO);
      std::vector<const DaemonJob *> All;
      for (const DaemonJob &J : Warm.Sequence)
        All.push_back(&J);
      for (const DaemonJob &J : Timed.Sequence)
        All.push_back(&J);
      for (std::size_t K = 0; K < All.size(); ++K) {
        svc::CompileJob CJ =
            daemonJobAsJob(*All[K], Pool[All[K]->Program]).toCompileJob();
        Clock::time_point T0 = Clock::now();
        (void)Replay.compile(CJ);
        if (K >= Warm.Sequence.size())
          ServiceMs.push_back(secondsBetween(T0, Clock::now()) * 1000);
      }
      Replay.shutdown();
      std::filesystem::remove_all(ReplayDir, EC);
    }

    ServiceLayer S;
    const char *Levels[] = {"l1_tokens", "l2_ast", "l3_module", "disk"};
    double Evictions = 0;
    for (int K = 0; K < 4; ++K) {
      double Hits = statsField(Stats, Levels[K], "hits");
      double Misses = statsField(Stats, Levels[K], "misses");
      S.HitRatio[K] = ratio(Hits, Hits + Misses);
      Evictions += statsField(Stats, Levels[K], "evictions");
    }
    const double AllJobs =
        static_cast<double>(Warm.Completed + Timed.Completed);
    S.EvictionsPerJob = ratio(Evictions, AllJobs);
    const double RoundTrip = percentile(Timed.LatencyMs, 50);
    const double Compile = percentile(ServiceMs, 50);
    S.CompileShare = std::min(1.0, ratio(Compile, RoundTrip));
    S.QueueShare = 1.0 - S.CompileShare;
    std::fprintf(stderr,
                 "perfbench: daemon round trip p50=%.4f ms, service compile "
                 "p50=%.4f ms, net+queue p50=%.4f ms\n",
                 RoundTrip, Compile, RoundTrip - Compile);
    emitTraceMetrics(R, L, S, C);
    C.finish(R);
    return R;
  }

  const std::vector<double> ExecMs = checkDaemonVerdicts(Pool, Seen, C, nullptr);

  // Code size: every pool program at -O1 under both lowerings.
  std::uint64_t CodeSize = 0;
  for (const PoolProgram &P : Pool)
    for (const char *Flags : {"-O1", "-O1 -fopenmp-enable-irbuilder"}) {
      Job J;
      J.Source = P.Source;
      J.Flags = Flags;
      bool Ok = false;
      auto CI = compileWith(J.toCompileJob().Options, J.Source, Ok);
      if (Ok)
        CodeSize += countInstructions(*CI->getIRModule());
    }

  std::fprintf(stderr,
               "perfbench: daemon workers=%u window=%u pool=%zu distinct "
               "jobs=%zu warm-up=%llu timed=%llu\n",
               Workers, Window, Pool.size(), Seen.size(),
               static_cast<unsigned long long>(Warm.Completed),
               static_cast<unsigned long long>(Timed.Completed));

  // Slices of the wall time hold thousands of jobs each, so p99 is a
  // median over slices too.
  const SliceMedians S =
      sliceMedians(Timed.EndSeconds, Timed.LatencyMs, Timed.WallSeconds,
                   slicesOf(Timed.WallSeconds));
  reportSlices(S);

  R.add("setup_s", median(SetupSeconds), "s");
  R.add("job_ms_p50", S.P50Ms, "ms");
  R.add("job_ms_p99", S.P99Ms, "ms");
  R.add("jobs_per_s", S.JobsPerS, "1/s");
  R.add("peak_rss_mb", PeakRSS, "MiB");
  R.add("code_size_insts", static_cast<double>(CodeSize), "count");
  R.add("exec_ms_p50", percentile(ExecMs, 50), "ms");
  C.finish(R);
  return R;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"compile_fuzz", "run_kernels",
                                                 "daemon_mix"};
  return Names;
}

Result runWorkload(const RunOptions &O, RunInfo &Info) {
  if (O.Workload == "compile_fuzz")
    return runCompileFuzz(O, Info);
  if (O.Workload == "run_kernels")
    return runKernels(O, Info);
  return runDaemonMix(O, Info);
}

} // namespace perfbench
