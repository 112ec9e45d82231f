#include "Jobs.h"

#include "service/JobSpec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using mcc::interp::ExecEngineKind;

std::uint64_t Rng::next() {
  std::uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::int64_t Job::expected() const {
  return Kernel ? kernelReference(*Kernel) : Expected;
}

bool Job::irBuilder() const {
  return Flags.find("-fopenmp-enable-irbuilder") != std::string::npos;
}

mcc::svc::CompileJob Job::toCompileJob() const {
  mcc::svc::CompileJob CJ;
  CJ.Source = Source;
  for (const std::string &W : mcc::svc::splitJobWords(Flags)) {
    std::string Error;
    if (!mcc::svc::parseJobFlagWord(W, CJ, Error)) {
      std::fprintf(stderr, "perfbench: invalid generated job flag: %s\n",
                   Error.c_str());
      std::abort();
    }
  }
  return CJ;
}

std::string serializeJobs(const std::vector<Job> &Jobs) {
  std::string Out;
  for (const Job &J : Jobs) {
    Out += J.Flags;
    Out += '\0';
    Out += std::to_string(J.Kernel ? 0 : J.Expected) + ' ' +
           std::to_string(J.ProgramSeed) +
           ' ' + std::to_string(J.Parts) + ' ' +
           mcc::interp::execEngineKindName(J.Engine) + ' ' +
           std::to_string(J.Threads) + ' ' + J.Tag;
    Out += '\0';
    Out += J.Source;
    Out += '\0';
    Out += J.FallbackSource;
    Out += '\n';
  }
  return Out;
}

//===--- compile_fuzz ------------------------------------------------------===//

namespace {

/// Renames whole identifiers of a rendered fuzz program: main -> f<k>,
/// sum -> sum_<k>, a -> a_<k>. Generated programs use no other globals.
std::string renamePart(const std::string &Src, std::size_t K) {
  const std::string Suffix = std::to_string(K);
  std::string Out;
  Out.reserve(Src.size() + 64);
  std::size_t I = 0;
  while (I < Src.size()) {
    unsigned char C = static_cast<unsigned char>(Src[I]);
    if (std::isalpha(C) || C == '_') {
      std::size_t J = I;
      while (J < Src.size() &&
             (std::isalnum(static_cast<unsigned char>(Src[J])) || Src[J] == '_'))
        ++J;
      std::string Ident = Src.substr(I, J - I);
      if (Ident == "main")
        Out += "f" + Suffix;
      else if (Ident == "sum" || Ident == "a")
        Out += Ident + "_" + Suffix;
      else
        Out += Ident;
      I = J;
    } else if (std::isdigit(C)) {
      // Numbers never contain identifiers; copy the whole literal.
      std::size_t J = I;
      while (J < Src.size() &&
             std::isalnum(static_cast<unsigned char>(Src[J])))
        ++J;
      Out.append(Src, I, J - I);
      I = J;
    } else {
      Out.push_back(Src[I]);
      ++I;
    }
  }
  return Out;
}

/// One GenMode::All program; programs with a dependence-gated transform
/// also carry their untransformed form.
Job makeProgramJob(std::uint64_t ProgramSeed) {
  mcc::fuzz::ProgramSpec Spec = mcc::fuzz::generateProgram(ProgramSeed);
  Job J;
  J.ProgramSeed = ProgramSeed;
  J.Source = Spec.render();
  J.Expected = Spec.reference();
  if (Spec.Pragmas.hasLoopTransform())
    J.FallbackSource = Spec.withoutLoopTransforms().render();
  J.Tag = Spec.describe();
  return J;
}

/// A TU of the programs with \p PartSeeds. Parts drop dependence-gated
/// transforms so that no part can make the legality oracle refuse the
/// whole TU.
Job makeComposedJob(const std::vector<std::uint64_t> &PartSeeds) {
  std::vector<std::string> Sources;
  std::vector<std::int64_t> Values;
  for (std::uint64_t Seed : PartSeeds) {
    mcc::fuzz::ProgramSpec Part =
        mcc::fuzz::generateProgram(Seed).withoutLoopTransforms();
    Sources.push_back(Part.render());
    Values.push_back(Part.reference());
  }
  const unsigned Parts = static_cast<unsigned>(PartSeeds.size());
  Job J;
  J.ProgramSeed = PartSeeds.front();
  J.Parts = Parts;
  J.Source = composeTU(Sources);
  J.Expected = foldParts(Values);
  J.Tag = "composed " + std::to_string(Parts) + " programs";
  return J;
}

} // namespace

std::string composeTU(const std::vector<std::string> &PartSources) {
  std::string Out;
  for (std::size_t K = 0; K < PartSources.size(); ++K)
    Out += renamePart(PartSources[K], K);
  Out += "int main() {\n  long t = 0;\n";
  for (std::size_t K = 0; K < PartSources.size(); ++K)
    Out += "  t = (t * 31 + f" + std::to_string(K) + "()) % 1000000007;\n";
  Out += "  int out = t;\n  return out;\n}\n";
  return Out;
}

std::int64_t foldParts(const std::vector<std::int64_t> &PartValues) {
  std::int64_t T = 0;
  for (std::int64_t V : PartValues)
    T = (T * 31 + V) % 1000000007;
  return T;
}

const std::vector<std::uint64_t> &fullUnrollPanel() {
  static const std::vector<std::uint64_t> Seeds = [] {
    std::vector<std::uint64_t> Out;
    for (std::uint64_t Seed = PanelFirstSeed; Out.size() < PanelSize; ++Seed)
      if (mcc::fuzz::generateProgram(Seed).Pragmas.UnrollFull)
        Out.push_back(Seed);
    return Out;
  }();
  return Seeds;
}

std::vector<Job> makeCompileFuzzStream(std::uint64_t Seed,
                                       std::size_t NumPrograms) {
  Rng R(Seed ^ 0x636f6d70696c65ull);
  std::vector<Job> Jobs;
  Jobs.reserve(2 * NumPrograms);
  auto LightSeeds = [](std::uint64_t &Next, std::size_t N) {
    std::vector<std::uint64_t> Seeds;
    for (; Seeds.size() < N; ++Next)
      if (!mcc::fuzz::generateProgram(Next).Pragmas.UnrollFull)
        Seeds.push_back(Next);
    return Seeds;
  };
  // Seeded programs take fuzz seeds from Seed*10^6 upward, so a mismatch
  // report's seed replays with minicc-fuzz --seed=N --count=1.
  std::uint64_t NextSeed = Seed * 1000000;
  std::uint64_t NextPartSeed = ComposedFirstSeed;
  const std::vector<std::uint64_t> &Panel = fullUnrollPanel();
  std::size_t NextPanel = 0;
  for (std::size_t P = 0; P < NumPrograms; ++P) {
    Job J;
    if (P % PanelStride == PanelStride - 1 && NextPanel < Panel.size())
      J = makeProgramJob(Panel[NextPanel++]);
    else if (P % ComposedStride == ComposedStride / 2)
      J = makeComposedJob(LightSeeds(NextPartSeed, ComposedParts));
    else
      J = makeProgramJob(LightSeeds(NextSeed, 1).front());
    J.Engine = R.chance(TieredShare) ? ExecEngineKind::Tiered
                                     : ExecEngineKind::Bytecode;
    J.Flags = "-O1";
    if (R.chance(AnalyzeShare))
      J.Flags += " --analyze";
    Job IRB = J;
    IRB.Flags += " -fopenmp-enable-irbuilder";
    Jobs.push_back(std::move(J));
    Jobs.push_back(std::move(IRB));
  }
  return Jobs;
}

//===--- run_kernels -------------------------------------------------------===//

const char *kernelName(KernelKind K) {
  switch (K) {
  case KernelKind::Plain:
    return "plain";
  case KernelKind::Unroll8:
    return "unroll8";
  case KernelKind::Tile16:
    return "tile16";
  case KernelKind::ArraySweep:
    return "array_sweep";
  case KernelKind::CallHeavy:
    return "call_heavy";
  case KernelKind::RegPressure:
    return "reg_pressure";
  case KernelKind::ParReduce:
    return "par_reduce";
  case KernelKind::ParWorkshare:
    return "par_workshare";
  }
  return "?";
}

namespace {

/// Width of one ParWorkshare round (the global array's length).
constexpr long WorkshareWidth = 4096;

std::string tail() { return "  int out = acc % 1000000;\n  return out;\n}\n"; }

} // namespace

std::string renderKernel(const KernelSpec &K) {
  const std::string N = std::to_string(K.N);
  switch (K.Kind) {
  case KernelKind::Plain:
    return "long acc = 0;\nint main() {\n  acc = 0;\n"
           "  for (int i = 0; i < " + N + "; i += 1)\n"
           "    acc += i * 3 + 1;\n" + tail();
  case KernelKind::Unroll8:
    return "long acc = 0;\nint main() {\n  acc = 0;\n"
           "  #pragma omp unroll partial(8)\n"
           "  for (int i = 0; i < " + N + "; i += 1)\n"
           "    acc += i * 3 + 1;\n" + tail();
  case KernelKind::Tile16:
    return "long acc = 0;\nint main() {\n  acc = 0;\n"
           "  #pragma omp tile sizes(16, 16)\n"
           "  for (int i = 0; i < " + std::to_string(K.N / 64) + "; i += 1)\n"
           "    for (int j = 0; j < 64; j += 1)\n"
           "      acc += i * 3 + j;\n" + tail();
  case KernelKind::ArraySweep:
    return "long a[1024];\nint main() {\n"
           "  for (int k = 0; k < 1024; k += 1)\n    a[k] = k;\n"
           "  for (int r = 0; r < " + std::to_string(K.N / 1024) + "; r += 1)\n"
           "    for (int i = 0; i < 1024; i += 1)\n"
           "      a[i] += i * 2 + 1;\n"
           "  long acc = 0;\n"
           "  for (int k = 0; k < 1024; k += 1)\n    acc += a[k];\n" + tail();
  case KernelKind::CallHeavy:
    return "int add3(int a, int b, int c) { return a + b + c; }\n"
           "int mix(int a, int b) { return add3(a, b, a - b); }\n"
           "long acc = 0;\nint main() {\n  acc = 0;\n"
           "  for (int i = 0; i < " + N + "; i += 1)\n"
           "    acc += mix(i, i + 1);\n" + tail();
  case KernelKind::RegPressure:
    return "long a0 = 0; long a1 = 0; long a2 = 0;\n"
           "long a3 = 0; long a4 = 0; long a5 = 0;\n"
           "int main() {\n"
           "  a0 = 0; a1 = 1; a2 = 2; a3 = 3; a4 = 4; a5 = 5;\n"
           "  for (int i = 0; i < " + N + "; i += 1) {\n"
           "    a0 += i; a1 += i * 2; a2 += i * 3;\n"
           "    a3 += a0; a4 += a1; a5 += a2;\n"
           "  }\n"
           "  long acc = a0 + a1 + a2 + a3 + a4 + a5;\n" + tail();
  case KernelKind::ParReduce:
    return "long acc = 0;\nint main() {\n  acc = 0;\n"
           "  #pragma omp parallel for reduction(+: acc) schedule(" +
           K.Schedule + ") num_threads(" + std::to_string(K.Threads) + ")\n"
           "  for (int i = 0; i < " + N + "; i += 1)\n"
           "    acc += i % 7 * 3 + i / 5;\n" + tail();
  case KernelKind::ParWorkshare:
    return "long a[" + std::to_string(WorkshareWidth) + "];\nint main() {\n"
           "  for (int r = 0; r < " + std::to_string(K.N / WorkshareWidth) +
           "; r += 1) {\n"
           "    #pragma omp parallel for schedule(" + K.Schedule +
           ") num_threads(" + std::to_string(K.Threads) + ")\n"
           "    for (int i = 0; i < " + std::to_string(WorkshareWidth) +
           "; i += 1)\n"
           "      a[i] += i % 13 + r;\n"
           "  }\n"
           "  long acc = 0;\n"
           "  for (int k = 0; k < " + std::to_string(WorkshareWidth) +
           "; k += 1)\n    acc += a[k];\n" + tail();
  }
  return {};
}

std::int64_t kernelReference(const KernelSpec &K) {
  std::int64_t Acc = 0;
  switch (K.Kind) {
  case KernelKind::Plain:
  case KernelKind::Unroll8:
    for (std::int64_t I = 0; I < K.N; ++I)
      Acc += I * 3 + 1;
    break;
  case KernelKind::Tile16:
    for (std::int64_t I = 0; I < K.N / 64; ++I)
      for (std::int64_t J = 0; J < 64; ++J)
        Acc += I * 3 + J;
    break;
  case KernelKind::ArraySweep: {
    const std::int64_t Rounds = K.N / 1024;
    for (std::int64_t I = 0; I < 1024; ++I)
      Acc += I + Rounds * (I * 2 + 1);
    break;
  }
  case KernelKind::CallHeavy:
    // mix(i, i+1) = add3(i, i+1, -1) = 2i.
    for (std::int64_t I = 0; I < K.N; ++I)
      Acc += 2 * I;
    break;
  case KernelKind::RegPressure: {
    std::int64_t A[6] = {0, 1, 2, 3, 4, 5};
    for (std::int64_t I = 0; I < K.N; ++I) {
      A[0] += I;
      A[1] += I * 2;
      A[2] += I * 3;
      A[3] += A[0];
      A[4] += A[1];
      A[5] += A[2];
    }
    for (std::int64_t V : A)
      Acc += V;
    break;
  }
  case KernelKind::ParReduce:
    for (std::int64_t I = 0; I < K.N; ++I)
      Acc += I % 7 * 3 + I / 5;
    break;
  case KernelKind::ParWorkshare: {
    const std::int64_t Rounds = K.N / WorkshareWidth;
    for (std::int64_t I = 0; I < WorkshareWidth; ++I)
      Acc += Rounds * (I % 13) + Rounds * (Rounds - 1) / 2;
    break;
  }
  }
  return static_cast<std::int32_t>(Acc % 1000000);
}

namespace {

/// Iterations that take roughly 5 ms on the bytecode engine of a current
/// x86-64 core, and the factor by which the tiered engine's jobs grow so
/// that they take about as long: execution stays >= 90 % of every job.
struct KernelSize {
  long BytecodeIterations;
  double TieredScale;
};

KernelSize kernelSize(KernelKind K) {
  switch (K) {
  case KernelKind::Plain:
    return {300000, 14};
  case KernelKind::Unroll8:
    return {150000, 8};
  case KernelKind::Tile16:
    return {150000, 8};
  case KernelKind::ArraySweep:
    return {250000, 10};
  case KernelKind::CallHeavy:
    return {50000, 2.5};
  case KernelKind::RegPressure:
    return {200000, 8};
  case KernelKind::ParReduce:
    return {200000, 3};
  case KernelKind::ParWorkshare:
    return {170000, 2.5};
  }
  return {100000, 1};
}

} // namespace

std::vector<Job> makeKernelStream(std::uint64_t Seed, std::size_t NumJobs,
                                  unsigned NProc) {
  Rng R(Seed ^ 0x6b65726e656c73ull);
  static const char *Schedules[] = {"static", "dynamic, 256", "guided"};
  const unsigned MaxThreads = std::max(1u, NProc);
  std::vector<Job> Jobs;
  Jobs.reserve(NumJobs);
  for (std::size_t I = 0; I < NumJobs; ++I) {
    KernelSpec K;
    K.Kind = static_cast<KernelKind>(R.below(8));
    Job J;
    J.Engine = R.chance(TieredShare) ? ExecEngineKind::Tiered
                                     : ExecEngineKind::Bytecode;
    const bool Parallel =
        K.Kind == KernelKind::ParReduce || K.Kind == KernelKind::ParWorkshare;
    // Size in [1, 1.5) x the base, so job lengths vary within a kind.
    const KernelSize Base = kernelSize(K.Kind);
    double Size = static_cast<double>(Base.BytecodeIterations) *
                  (1.0 + 0.5 * R.uniform());
    if (J.Engine == ExecEngineKind::Tiered)
      Size *= Base.TieredScale;
    if (Parallel) {
      K.Threads = std::min(MaxThreads, MaxKernelThreads);
      K.Schedule = Schedules[R.below(3)];
      Size *= K.Threads; // constant work per thread
    }
    K.N = static_cast<long>(Size);
    if (K.Kind == KernelKind::RegPressure)
      K.N = std::min(K.N, 2000000L); // keeps a5 ~ N^3/2 below 2^63
    J.Source = renderKernel(K);
    J.Kernel = K;
    J.Threads = Parallel ? K.Threads : 1;
    J.Tag = kernelName(K.Kind);
    J.Flags = "-O1 -run";
    if (R.chance(IRBuilderShare))
      J.Flags += " -fopenmp-enable-irbuilder";
    if (R.chance(AnalyzeShare))
      J.Flags += " --analyze";
    J.Flags += " -num-threads=" + std::to_string(J.Threads);
    if (J.Engine == ExecEngineKind::Tiered)
      J.Flags += " -exec-engine=tiered";
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

//===--- daemon_mix --------------------------------------------------------===//

std::vector<PoolProgram> makeDaemonPool(std::size_t Size) {
  std::vector<PoolProgram> Pool;
  Pool.reserve(Size);
  for (std::uint64_t S = DaemonPoolFirstSeed; Pool.size() < Size; ++S) {
    mcc::fuzz::ProgramSpec Spec = mcc::fuzz::generateProgram(S);
    if (Spec.Pragmas.UnrollFull)
      continue; // the stacked-unroll tail is compile_fuzz's panel
    PoolProgram P;
    P.Seed = S;
    P.Source = Spec.render();
    P.Expected = Spec.reference();
    if (Spec.Pragmas.hasLoopTransform())
      P.FallbackSource = Spec.withoutLoopTransforms().render();
    P.Small = Spec.totalIterations() <= 2000;
    Pool.push_back(std::move(P));
  }
  return Pool;
}

std::uint32_t DaemonJob::verdictKey() const {
  return Program * 16 + (IRBuilder ? 8 : 0) + (O1 ? 4 : 0) + (Analyze ? 2 : 0) +
         (Run ? 1 : 0);
}

std::string DaemonJob::flags() const {
  std::string F;
  auto Word = [&F](const std::string &W) {
    if (!F.empty())
      F += ' ';
    F += W;
  };
  if (IRBuilder)
    Word("-fopenmp-enable-irbuilder");
  if (O1)
    Word("-O1");
  if (Analyze)
    Word("--analyze");
  if (Run) {
    Word("-run");
    Word("-num-threads=" + std::to_string(Threads));
    if (Tiered)
      Word("-exec-engine=tiered");
  }
  return F;
}

DaemonStream::DaemonStream(std::uint64_t Seed,
                           const std::vector<PoolProgram> &Pool)
    : R(Seed ^ 0x6461656d6f6eull), Pool(Pool) {
  double Total = 0;
  for (std::size_t Rank = 0; Rank < Pool.size(); ++Rank) {
    Total += std::pow(static_cast<double>(Rank + 1), -ZipfExponent);
    CDF.push_back(Total);
  }
  for (double &C : CDF)
    C /= Total;
}

DaemonJob DaemonStream::next() {
  DaemonJob J;
  double U = R.uniform();
  std::size_t Rank = static_cast<std::size_t>(
      std::lower_bound(CDF.begin(), CDF.end(), U) - CDF.begin());
  J.Program = static_cast<std::uint32_t>(std::min(Rank, Pool.size() - 1));
  J.IRBuilder = R.chance(IRBuilderShare);
  J.O1 = R.chance(O1Share);
  J.Analyze = R.chance(AnalyzeShare);
  J.Run = Pool[J.Program].Small && R.chance(RunShare);
  J.Tiered = R.chance(TieredShare);
  J.Threads = 1 + static_cast<unsigned>(R.below(MaxDaemonThreads));
  return J;
}

} // namespace perfbench
