//===--- driver_test.cpp - CompilerInstance & minicc driver behavior ------===//
#include "ExecutionTestHelper.h"

#include <gtest/gtest.h>

using namespace mcc;
using namespace mcc::test;

namespace {

TEST(DriverTest, CompileSourceFullPipeline) {
  CompilerInstance CI;
  EXPECT_TRUE(CI.compileSource("int main() { return 7; }"));
  EXPECT_NE(CI.getIRModule(), nullptr);
  EXPECT_NE(CI.getIRText().find("define i32 @main"), std::string::npos);
}

TEST(DriverTest, ParseErrorsReported) {
  CompilerInstance CI;
  EXPECT_FALSE(CI.compileSource("int main() { return ; }"));
  std::string Diags = CI.renderDiagnostics();
  EXPECT_NE(Diags.find("error:"), std::string::npos);
  EXPECT_NE(Diags.find("input.c:"), std::string::npos);
}

TEST(DriverTest, DiagnosticsCarryCaretLines) {
  CompilerInstance CI;
  CI.addVirtualFile("main.c", "int main() { return x; }\n");
  EXPECT_FALSE(CI.parseToAST("main.c"));
  std::string Diags = CI.renderDiagnostics();
  EXPECT_NE(Diags.find("use of undeclared identifier 'x'"),
            std::string::npos);
  EXPECT_NE(Diags.find("^"), std::string::npos);
}

TEST(DriverTest, MissingMainFile) {
  CompilerInstance CI;
  EXPECT_FALSE(CI.parseToAST("nope.c"));
}

TEST(DriverTest, DefinesReachThePreprocessor) {
  CompilerOptions Options;
  Options.Defines.emplace_back("LIMIT", "21");
  CompilerInstance CI(Options);
  EXPECT_TRUE(CI.compileSource("int main() { return LIMIT * 2; }"));
  interp::ExecutionEngine EE(*CI.getIRModule());
  EXPECT_EQ(EE.runFunction("main", {}).I, 42);
}

TEST(DriverTest, IncludeDirsSearched) {
  CompilerOptions Options;
  Options.IncludeDirs.push_back("inc");
  CompilerInstance CI(Options);
  CI.addVirtualFile("inc/defs.h", "#define BASE 40\n");
  CI.addVirtualFile("main.c",
                    "#include <defs.h>\nint main() { return BASE + 2; }\n");
  ASSERT_TRUE(CI.parseToAST("main.c"));
  ASSERT_TRUE(CI.emitIR());
  interp::ExecutionEngine EE(*CI.getIRModule());
  EXPECT_EQ(EE.runFunction("main", {}).I, 42);
}

TEST(DriverTest, OpenMPCanBeDisabled) {
  CompilerOptions Options;
  Options.LangOpts.OpenMP = false;
  CompilerInstance CI(Options);
  // Pragma is discarded: the loop runs serially, no runtime calls appear.
  EXPECT_TRUE(CI.compileSource(R"(
    int main() {
      int s = 0;
      #pragma omp parallel for
      for (int i = 0; i < 10; ++i) s += i;
      return s;
    }
  )"));
  EXPECT_EQ(CI.getIRText().find("__kmpc_fork_call"), std::string::npos);
  interp::ExecutionEngine EE(*CI.getIRModule());
  EXPECT_EQ(EE.runFunction("main", {}).I, 45);
}

TEST(DriverTest, InvalidIRWouldBeRejected) {
  // The verifier gate: all pipelines must produce verifiable IR for a
  // directive-heavy program.
  for (bool IRB : {false, true}) {
    CompilerOptions Options;
    Options.LangOpts.OpenMPEnableIRBuilder = IRB;
    Options.RunMidend = true;
    CompilerInstance CI(Options);
    EXPECT_TRUE(CI.compileSource(R"(
      int out = 0;
      int main() {
        #pragma omp parallel for schedule(dynamic, 3) reduction(+: out)
        #pragma omp tile sizes(4)
        #pragma omp unroll partial(2)
        for (int i = 0; i < 50; ++i)
          out += i;
        return out;
      }
    )")) << "irbuilder=" << IRB << "\n"
         << CI.renderDiagnostics();
  }
}

TEST(DriverTest, CollapseOverSingleLoopUnrollDiagnosed) {
  // collapse(2) cannot find a second loop inside the unroll-generated one.
  CompilerInstance CI;
  EXPECT_FALSE(CI.compileSource(R"(
    int main() {
      int s = 0;
      #pragma omp parallel for collapse(2)
      #pragma omp unroll partial(2)
      for (int i = 0; i < 10; ++i)
        s += i;
      return s;
    }
  )"));
  std::string Diags = CI.renderDiagnostics();
  EXPECT_NE(Diags.find("canonical loops"), std::string::npos);
}

TEST(DriverTest, MidendStatsExposed) {
  CompilerOptions Options;
  Options.RunMidend = true;
  CompilerInstance CI(Options);
  EXPECT_TRUE(CI.compileSource(R"(
    int acc = 0;
    int main() {
      #pragma omp unroll partial(4)
      for (int i = 0; i < 16; ++i) acc += i;
      return acc;
    }
  )"));
  EXPECT_GE(CI.getMidendStats().Unroll.LoopsUnrolled, 1u);
}

TEST(DriverTest, HeuristicUnrollFactorOption) {
  // LangOptions::HeuristicUnrollFactor drives the consumed-heuristic case.
  CompilerOptions Options;
  Options.LangOpts.HeuristicUnrollFactor = 3;
  CompilerInstance CI(Options);
  EXPECT_TRUE(CI.compileSource(R"(
    int s = 0;
    int main() {
      #pragma omp parallel for
      #pragma omp unroll
      for (int i = 0; i < 9; ++i) s += 1;
      return s;
    }
  )"));
  // The warning names the forced factor.
  bool Found = false;
  for (const Diagnostic &D : CI.getDiagStore().getDiagnostics())
    if (D.ID == diag::warn_omp_unroll_factor_forced &&
        D.Message.find("3") != std::string::npos)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(DriverTest, RuntimeStatsObservableAfterRun) {
  // The runtime half of `minicc --stats`: reset the runtime (the interp
  // hook deterministic tests share), execute an OpenMP program, and check
  // the counters describe exactly what ran.
  interp::ExecutionEngine::resetOpenMPRuntime();
  CompilerOptions Options;
  Options.LangOpts.OpenMPDefaultNumThreads = 4;
  Execution E(R"(
    int main() {
      int sum = 0;
      for (int rep = 0; rep < 3; ++rep) {
        #pragma omp parallel for reduction(+:sum) schedule(dynamic, 5)
        for (int i = 0; i < 40; ++i) sum += 1;
      }
      return sum;
    }
  )",
              Options);
  EXPECT_EQ(E.runMain(), 120);

  rt::OpenMPRuntime::StatsSnapshot S =
      rt::OpenMPRuntime::get().statsSnapshot();
  EXPECT_EQ(S.NumForkJoins, 3u);
  EXPECT_EQ(S.NumHotTeamForks, 3u);
  EXPECT_EQ(S.NumTeamReuses, 2u);
  EXPECT_EQ(S.NumPoolThreadsSpawned, 3u);
  // 3 regions x ceil(40/5) chunks.
  EXPECT_EQ(S.NumChunksDynamic, 24u);

  std::string Text =
      stats::render({rt::statsComponent(S)}, stats::Format::Text);
  EXPECT_NE(Text.find("total=3"), std::string::npos) << Text;
  EXPECT_NE(Text.find("dynamic=24"), std::string::npos) << Text;
}

} // namespace
