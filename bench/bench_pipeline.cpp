//===--- bench_pipeline.cpp - E1: per-layer front-end cost (Fig. 1) ---------===//
//
// The paper's Fig. 1 shows the component layers a translation unit flows
// through. This harness times each stage separately on synthesized
// translation units with K OpenMP-annotated loops:
//
//   Lex+PP      FileManager/SourceManager/Lexer/Preprocessor (token pull)
//   Parse+Sema  Parser pushing to Sema (AST construction incl. shadow AST)
//   CodeGen     AST -> IR
//   Midend      runDefaultPipeline: LoopUnroll, SimplifyCFG, StoreForward,
//               ScalarPromote, DCE
//
//===----------------------------------------------------------------------===//
#include "BenchUtils.h"

#include "lex/Preprocessor.h"

using namespace mcc;

namespace {

std::string makeTU(unsigned NumLoops) {
  std::string S = "void body(int x);\n";
  for (unsigned K = 0; K < NumLoops; ++K) {
    S += "void f" + std::to_string(K) + "(int n) {\n";
    S += "  int acc = 0;\n";
    S += "  #pragma omp parallel for reduction(+: acc)\n";
    S += "  #pragma omp unroll partial(4)\n";
    S += "  for (int i = 0; i < n; i += 1)\n";
    S += "    acc += i * " + std::to_string(K + 1) + ";\n";
    S += "  body(acc);\n}\n";
  }
  return S;
}

void BM_LexAndPreprocess(benchmark::State &State) {
  std::string Source = makeTU(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    FileManager FM;
    SourceManager SM;
    StoringDiagnosticConsumer Consumer;
    DiagnosticsEngine Diags(&Consumer);
    FM.addVirtualFile("x.c", Source);
    Preprocessor PP(FM, SM, Diags);
    PP.enterMainFile("x.c");
    Token Tok;
    unsigned N = 0;
    do {
      PP.lex(Tok);
      ++N;
    } while (!Tok.is(tok::eof));
    benchmark::DoNotOptimize(N);
  }
  State.counters["loops"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_LexAndPreprocess)->Arg(10)->Arg(100)->Arg(500);

void BM_ParseAndSema(benchmark::State &State) {
  std::string Source = makeTU(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    CompilerInstance CI;
    CI.addVirtualFile("x.c", Source);
    bool OK = CI.parseToAST("x.c");
    benchmark::DoNotOptimize(OK);
  }
  State.counters["loops"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_ParseAndSema)->Arg(10)->Arg(100)->Arg(500);

void BM_CodeGen(benchmark::State &State) {
  std::string Source = makeTU(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    State.PauseTiming();
    CompilerInstance CI;
    CI.addVirtualFile("x.c", Source);
    CI.parseToAST("x.c");
    State.ResumeTiming();
    bool OK = CI.emitIR();
    benchmark::DoNotOptimize(OK);
  }
  State.counters["loops"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_CodeGen)->Arg(10)->Arg(100);

void BM_Midend(benchmark::State &State) {
  std::string Source = makeTU(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    State.PauseTiming();
    CompilerInstance CI;
    CI.addVirtualFile("x.c", Source);
    CI.parseToAST("x.c");
    CI.emitIR();
    State.ResumeTiming();
    midend::PipelineStats Stats =
        midend::runDefaultPipeline(*CI.getIRModule());
    benchmark::DoNotOptimize(Stats.Unroll.LoopsUnrolled);
  }
  State.counters["loops"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_Midend)->Arg(10)->Arg(100);

void BM_WholePipeline(benchmark::State &State) {
  std::string Source = makeTU(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    CompilerOptions Options;
    Options.RunMidend = true;
    CompilerInstance CI(Options);
    bool OK = CI.compileSource(Source);
    benchmark::DoNotOptimize(OK);
  }
  State.counters["loops"] = static_cast<double>(State.range(0));
}
BENCHMARK(BM_WholePipeline)->Arg(10)->Arg(100);

} // namespace

MCC_BENCHMARK_MAIN()
