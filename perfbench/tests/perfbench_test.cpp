//===--- perfbench_test.cpp - Tests of the benchmark itself ----------------===//
//
// The job streams are a pure function of the seed; the references the
// benchmark checks against are right; and the arithmetic behind the
// reported percentiles and per-layer self times is right on hand-made
// inputs.
//
//===----------------------------------------------------------------------===//
#include "Jobs.h"
#include "Metrics.h"
#include "Pipeline.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

std::string daemonStreamBytes(std::uint64_t Seed) {
  std::vector<PoolProgram> Pool = makeDaemonPool(32);
  DaemonStream S(Seed, Pool);
  std::string Out;
  for (const PoolProgram &P : Pool)
    Out += P.Source + '\0' + std::to_string(P.Expected) + '\0';
  for (int I = 0; I < 500; ++I) {
    DaemonJob J = S.next();
    Out += std::to_string(J.Program) + ' ' + J.flags() + '\n';
  }
  return Out;
}

std::int64_t compileAndRun(const std::string &Source, const char *Flags) {
  Job J;
  J.Source = Source;
  J.Flags = Flags;
  mcc::CompilerInstance CI(J.toCompileJob().Options);
  EXPECT_TRUE(CI.compileSource(Source)) << CI.renderDiagnostics();
  if (!CI.getIRModule())
    return -1;
  ExecOutcome E = execute(*CI.getIRModule(),
                          mcc::interp::ExecEngineKind::Bytecode, 2);
  EXPECT_TRUE(E.Ok) << E.Error;
  return E.Value;
}

} // namespace

TEST(JobStream, SameSeedGivesByteIdenticalStreams) {
  EXPECT_EQ(serializeJobs(makeCompileFuzzStream(7, 120)),
            serializeJobs(makeCompileFuzzStream(7, 120)));
  EXPECT_EQ(serializeJobs(makeKernelStream(7, 200, 4)),
            serializeJobs(makeKernelStream(7, 200, 4)));
  EXPECT_EQ(daemonStreamBytes(7), daemonStreamBytes(7));
}

TEST(JobStream, DifferentSeedsGiveDifferentStreams) {
  EXPECT_NE(serializeJobs(makeCompileFuzzStream(7, 50)),
            serializeJobs(makeCompileFuzzStream(8, 50)));
  EXPECT_NE(serializeJobs(makeKernelStream(7, 50, 4)),
            serializeJobs(makeKernelStream(8, 50, 4)));
  EXPECT_NE(daemonStreamBytes(7), daemonStreamBytes(8));
}

TEST(JobStream, CompileFuzzPairsLoweringsAndComposesSomeTUs) {
  std::vector<Job> Jobs = makeCompileFuzzStream(3, 400);
  ASSERT_EQ(Jobs.size(), 800u);
  unsigned Composed = 0;
  for (std::size_t I = 0; I < Jobs.size(); I += 2) {
    EXPECT_FALSE(Jobs[I].irBuilder());
    EXPECT_TRUE(Jobs[I + 1].irBuilder());
    EXPECT_EQ(Jobs[I].Source, Jobs[I + 1].Source);
    Composed += Jobs[I].Parts > 1;
  }
  EXPECT_GT(Composed, 0u);
  EXPECT_LT(Composed, 40u);
}

TEST(ComposedTU, ReferenceEqualsFoldOfParts) {
  std::vector<std::string> Sources;
  std::vector<std::int64_t> References, Executed;
  for (std::uint64_t Seed = 2021; Seed < 2021 + 12; ++Seed) {
    mcc::fuzz::ProgramSpec P =
        mcc::fuzz::generateProgram(Seed).withoutLoopTransforms();
    Sources.push_back(P.render());
    References.push_back(P.reference());
    Executed.push_back(compileAndRun(Sources.back(), "-O1"));
  }
  EXPECT_EQ(Executed, References);
  const std::int64_t Fold = foldParts(References);
  const std::string TU = composeTU(Sources);
  EXPECT_EQ(compileAndRun(TU, "-O1"), Fold);
  EXPECT_EQ(compileAndRun(TU, "-O1 -fopenmp-enable-irbuilder"), Fold);
}

TEST(Kernels, HostMirrorsMatchExecution) {
  for (int K = 0; K <= static_cast<int>(KernelKind::ParWorkshare); ++K) {
    KernelSpec Spec;
    Spec.Kind = static_cast<KernelKind>(K);
    Spec.N = Spec.Kind == KernelKind::ParWorkshare ? 4096 * 3 : 5000;
    Spec.Threads = 2;
    Spec.Schedule = "dynamic, 256";
    EXPECT_EQ(compileAndRun(renderKernel(Spec), "-O1"), kernelReference(Spec))
        << kernelName(Spec.Kind);
  }
}

TEST(Metrics, PercentileInterpolatesBetweenRanks) {
  std::vector<double> V;
  for (int I = 100; I >= 1; --I)
    V.push_back(I);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 50.5);
  EXPECT_DOUBLE_EQ(percentile(V, 99), 99.01);
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
}

TEST(Metrics, SelfTimeSubtractsDirectChildren) {
  Trace T;
  int Root = T.add({1, "job", -1, 0, 10});
  T.add({1, "lex", Root, 1, 4});
  int Parse = T.add({1, "parse_sema.legacy", Root, 5, 9});
  T.add({1, "analysis.verifier", Parse, 6, 7});
  T.add({2, "lex", -1, 20, 22});
  std::vector<double> Self = T.selfTimes();
  ASSERT_EQ(Self.size(), 5u);
  EXPECT_DOUBLE_EQ(Self[0], 3);
  EXPECT_DOUBLE_EQ(Self[1], 3);
  EXPECT_DOUBLE_EQ(Self[2], 3);
  EXPECT_DOUBLE_EQ(Self[3], 1);
  EXPECT_DOUBLE_EQ(Self[4], 2);
  std::map<std::string, Trace::LayerTotal> ByName = T.selfTimeByName();
  EXPECT_DOUBLE_EQ(ByName["lex"].Self, 5);
  EXPECT_EQ(ByName["lex"].Jobs, 2u);
  EXPECT_DOUBLE_EQ(ByName["job"].Self, 3);
  EXPECT_EQ(ByName["job"].Jobs, 1u);
  // Self times of a job's spans sum to its root's wall time.
  EXPECT_DOUBLE_EQ(Self[0] + Self[1] + Self[2] + Self[3], 10);
}

TEST(Metrics, SliceMediansIgnoreOneSlowSlice) {
  // Ten 1 s slices of ten 1 ms jobs each, except slice 3: two 50 ms jobs.
  std::vector<double> End, Ms;
  for (int K = 0; K < 10; ++K) {
    const int N = K == 3 ? 2 : 10;
    for (int I = 0; I < N; ++I) {
      End.push_back(K + (I + 0.5) / N);
      Ms.push_back(K == 3 ? 50 : 1);
    }
  }
  End.push_back(10.2); // ends after the region: counts in the last slice
  Ms.push_back(1);
  SliceMedians S = sliceMedians(End, Ms, 10, 10);
  ASSERT_EQ(S.Rates.size(), 10u);
  EXPECT_DOUBLE_EQ(S.Rates[3], 2);
  EXPECT_DOUBLE_EQ(S.Rates[9], 11);
  EXPECT_DOUBLE_EQ(S.JobsPerS, 10);
  EXPECT_DOUBLE_EQ(S.P50Ms, 1);
  EXPECT_DOUBLE_EQ(S.P99Ms, 1);
  // A job longer than a slice leaves the slices it spans out.
  S = sliceMedians({0.5, 3.5, 3.9}, {1, 3000, 2}, 4, 4);
  EXPECT_EQ(S.Rates.size(), 2u);
  EXPECT_DOUBLE_EQ(S.JobsPerS, 1.5);
  EXPECT_DOUBLE_EQ(sliceMedians({}, {}, 10, 10).JobsPerS, 0);
}

TEST(Metrics, ResultLineHasExactlyTheContractKeys) {
  Result R;
  R.Attempted = 3;
  R.add("job_ms_p50", 1.25, "ms");
  R.add("setup_s", 0.1, "s");
  EXPECT_EQ(R.toJSON(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"job_ms_p50\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}}}");
}
