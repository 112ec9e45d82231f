//===--- codegen_test.cpp - Serial AST->IR->execution tests ---------------===//
#include "ExecutionTestHelper.h"
#include "interp/Bytecode.h"

#include <gtest/gtest.h>

using namespace mcc;
using namespace mcc::test;

namespace {

std::int64_t run(const std::string &Source) {
  Execution E(Source);
  return E.runMain();
}

TEST(CodeGenTest, ReturnConstant) {
  EXPECT_EQ(run("int main() { return 42; }"), 42);
}

TEST(CodeGenTest, Arithmetic) {
  EXPECT_EQ(run("int main() { return (2 + 3) * 4 - 6 / 2; }"), 17);
  EXPECT_EQ(run("int main() { return 17 % 5; }"), 2);
  EXPECT_EQ(run("int main() { return 1 << 6; }"), 64);
  EXPECT_EQ(run("int main() { return -64 >> 3; }"), -8);
  EXPECT_EQ(run("int main() { return (12 & 10) | (1 ^ 3); }"), 10);
}

TEST(CodeGenTest, UnsignedSemantics) {
  EXPECT_EQ(run("int main() { unsigned int x = 0u - 1u; "
                "return x / 1000000000u; }"),
            4);
  EXPECT_EQ(run("int main() { unsigned int x = 0u - 6u; "
                "return x >> 29; }"),
            7);
}

TEST(CodeGenTest, LocalsAndAssignment) {
  EXPECT_EQ(run("int main() { int a = 1; int b; b = a + 2; a += b; "
                "a *= 2; a -= 1; a /= 3; return a; }"),
            2); // a=1,b=3,a=4,a=8,a=7,a=2
}

TEST(CodeGenTest, IfElse) {
  EXPECT_EQ(run("int main() { int x = 5; if (x > 3) return 1; else "
                "return 2; }"),
            1);
  EXPECT_EQ(run("int main() { int x = 2; if (x > 3) return 1; return 2; }"),
            2);
}

TEST(CodeGenTest, Loops) {
  EXPECT_EQ(run("int main() { int s = 0; for (int i = 0; i < 10; ++i) "
                "s += i; return s; }"),
            45);
  EXPECT_EQ(run("int main() { int s = 0; int i = 0; while (i < 5) { s += "
                "i; ++i; } return s; }"),
            10);
  EXPECT_EQ(run("int main() { int s = 0; int i = 0; do { s += i; ++i; } "
                "while (i < 5); return s; }"),
            10);
}

TEST(CodeGenTest, NestedLoops) {
  EXPECT_EQ(run("int main() { int s = 0; for (int i = 0; i < 4; ++i) "
                "for (int j = 0; j < 4; ++j) s += i * j; return s; }"),
            36);
}

TEST(CodeGenTest, BreakAndContinue) {
  EXPECT_EQ(run("int main() { int s = 0; for (int i = 0; i < 100; ++i) { "
                "if (i == 5) break; s += i; } return s; }"),
            10);
  EXPECT_EQ(run("int main() { int s = 0; for (int i = 0; i < 10; ++i) { "
                "if (i % 2 == 0) continue; s += i; } return s; }"),
            25);
}

TEST(CodeGenTest, FunctionsAndRecursion) {
  EXPECT_EQ(run("int fact(int n) { if (n < 2) return 1; return n * "
                "fact(n - 1); } int main() { return fact(6); }"),
            720);
}

TEST(CodeGenTest, GlobalVariables) {
  EXPECT_EQ(run("int g = 10;\nvoid bump() { g += 5; }\n"
                "int main() { bump(); bump(); return g; }"),
            20);
}

TEST(CodeGenTest, GlobalArrays) {
  EXPECT_EQ(run("int arr[8];\nint main() { for (int i = 0; i < 8; ++i) "
                "arr[i] = i * i; return arr[5] + arr[7]; }"),
            74);
}

TEST(CodeGenTest, LocalArrays) {
  EXPECT_EQ(run("int main() { int a[4][4]; for (int i = 0; i < 4; ++i) "
                "for (int j = 0; j < 4; ++j) a[i][j] = i + j; "
                "return a[3][2]; }"),
            5);
}

TEST(CodeGenTest, Pointers) {
  EXPECT_EQ(run("int main() { int x = 3; int *p = &x; *p = 7; "
                "return x; }"),
            7);
  EXPECT_EQ(run("void set(int *p, int v) { *p = v; }\n"
                "int main() { int x = 0; set(&x, 9); return x; }"),
            9);
}

TEST(CodeGenTest, PointerArithmetic) {
  EXPECT_EQ(run("int main() { int a[5]; for (int i = 0; i < 5; ++i) "
                "a[i] = i * 10; int *p = a; p += 2; int *q = a + 4; "
                "return *p + *q + (q - p); }"),
            62);
}

TEST(CodeGenTest, PointerLoop) {
  EXPECT_EQ(run("int main() { int a[6]; int *end = a + 6; int k = 1; "
                "for (int *p = a; p != end; ++p) { *p = k; k = k * 2; } "
                "return a[5]; }"),
            32);
}

TEST(CodeGenTest, Doubles) {
  EXPECT_EQ(run("int main() { double d = 2.5; d = d * 4.0; int r = d; "
                "return r; }"),
            10);
  EXPECT_EQ(run("double half(double x) { return x / 2.0; }\n"
                "int main() { double r = half(9.0); int i = r; "
                "return i; }"),
            4);
}

TEST(CodeGenTest, MixedArithmeticConversions) {
  EXPECT_EQ(run("int main() { int i = 7; double d = 0.5; double r = i * "
                "d; int out = r * 2.0; return out; }"),
            7);
}

TEST(CodeGenTest, Booleans) {
  EXPECT_EQ(run("int main() { bool t = true; bool f = false; "
                "return (t && !f) ? 5 : 6; }"),
            5);
}

TEST(CodeGenTest, ShortCircuitEvaluation) {
  // The right operand must not run when the left decides.
  EXPECT_EQ(run("int calls = 0;\nbool touch() { calls += 1; return true; }\n"
                "int main() { bool a = false && touch(); "
                "bool b = true || touch(); if (a || !b) return 100; "
                "return calls; }"),
            0);
}

TEST(CodeGenTest, ConditionalOperator) {
  EXPECT_EQ(run("int main() { int x = 3; return x > 2 ? x * 10 : -1; }"),
            30);
}

TEST(CodeGenTest, IncrementSemantics) {
  EXPECT_EQ(run("int main() { int i = 5; int a = i++; int b = ++i; "
                "return a * 100 + b * 10 + i; }"),
            577); // a=5, b=7, i=7
}

TEST(CodeGenTest, CharType) {
  EXPECT_EQ(run("int main() { char c = 200; return c < 0 ? 1 : 0; }"),
            1); // char is signed; 200 wraps negative
}

TEST(CodeGenTest, RecordChannel) {
  Execution E("void record(long v);\nint main() { for (int i = 0; i < 4; "
              "++i) record(i * 2); return 0; }");
  E.runMain();
  EXPECT_EQ(E.Recorded, (std::vector<std::int64_t>{0, 2, 4, 6}));
}

TEST(CodeGenTest, PreprocessorIntegration) {
  EXPECT_EQ(run("#define N 12\n#define DOUBLE(x) ((x) * 2)\n"
                "int main() { return DOUBLE(N) + 1; }"),
            25);
}

TEST(CodeGenTest, VerifierAcceptsAllGeneratedIR) {
  // A kitchen-sink program; the CompilerInstance runs the verifier.
  Execution E(R"(
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    double avg(double a, double b) { return (a + b) / 2.0; }
    int data[16];
    int main() {
      for (int i = 0; i < 16; ++i) data[i] = fib(i % 8);
      double m = avg(data[3], data[4]);
      int mi = m;
      int s = 0;
      for (int *p = data; p < data + 16; ++p) s += *p;
      return s + mi;
    }
  )");
  ASSERT_TRUE(E.CompiledOK) << E.diagnostics();
  E.runMain();
}

TEST(CodeGenTest, LoopConditionBranchesOnTheCompare) {
  // `i < n` converts a compare to bool; the loop branches on the compare
  // itself, not on `icmp ne` of its `zext i1 to i8`.
  Execution E("int main() { int s = 0; int n = 10; "
              "for (int i = 0; i < n; i += 1) s += i; "
              "int b; if ((b = s < 100)) s += b; return s; }");
  ASSERT_TRUE(E.CompiledOK) << E.diagnostics();
  EXPECT_EQ(E.runMain(), 46);
  const ir::Function *Main = E.CI->getIRModule()->getFunction("main");
  ASSERT_NE(Main, nullptr);
  bool SawLoopCond = false, SawStoredBool = false;
  for (const auto &BB : Main->blocks()) {
    const ir::Instruction *T = BB->getTerminator();
    if (BB->getName() == "for.cond") {
      SawLoopCond = true;
      ASSERT_TRUE(T && T->isConditionalBr());
      const auto *Cmp = ir::ir_dyn_cast<ir::Instruction>(T->getOperand(0));
      ASSERT_NE(Cmp, nullptr);
      EXPECT_EQ(Cmp->getOpcode(), ir::Opcode::ICmp);
      EXPECT_EQ(Cmp->Pred, ir::CmpPred::SLT);
    }
    // `b = s < 100` stores the widened bool, so its zext stays.
    for (const auto &I : BB->instructions())
      if (I->getOpcode() == ir::Opcode::ZExt &&
          I->getOperand(0)->getType() == ir::IRType::getI1())
        SawStoredBool = true;
  }
  EXPECT_TRUE(SawLoopCond);
  EXPECT_TRUE(SawStoredBool);
}

// --- What a loop costs on the bytecode engine ---

/// The run_kernels plain kernel over \p N iterations.
std::string plainKernel(int N) {
  return "long acc = 0;\nint main() {\n  acc = 0;\n"
         "  for (int i = 0; i < " + std::to_string(N) + "; i += 1)\n"
         "    acc += i * 3 + 1;\n"
         "  int out = acc % 1000000;\n  return out;\n}\n";
}

/// Compiles \p Source at -O1 and runs main() once on the bytecode engine.
interp::ExecStats runO1OnBytecode(const std::string &Source,
                                  bool IRBuilder = false) {
  Execution E(Source, midendOpts(IRBuilder));
  EXPECT_TRUE(E.CompiledOK) << E.diagnostics();
  if (!E.CompiledOK)
    return {};
  interp::ExecutionEngine EE(*E.CI->getIRModule(),
                             interp::ExecEngineKind::Bytecode);
  EE.runFunction("main", {});
  return EE.statsSnapshot();
}

TEST(LoopCostTest, PlainLoopRetiresNineBytecodeInstructionsPerIteration) {
  // Per iteration: CmpBr on the loop compare, mul, add, sext and add of
  // the body, the increment, two phi copies and the back-edge jump. The
  // body falls through into the increment block.
  const interp::ExecStats Short = runO1OnBytecode(plainKernel(1000));
  const interp::ExecStats Long = runO1OnBytecode(plainKernel(2000));
  EXPECT_EQ(Long.InstructionsExecuted - Short.InstructionsExecuted,
            9u * 1000u);
  // The loop test is one fused compare-and-branch per trip.
  EXPECT_EQ(Long.SuperinstHits - Short.SuperinstHits, 1000u);
}

TEST(LoopCostTest, CmpBrFusesTheLoopCompare) {
  Execution E(plainKernel(100), midendOpts());
  ASSERT_TRUE(E.CompiledOK) << E.diagnostics();
  auto BC = interp::bc::compileToBytecode(*E.CI->getIRModule());
  unsigned LoopCompares = 0;
  for (const auto &F : BC->Functions)
    for (const interp::bc::Inst &In : F.Code)
      if (In.Code == interp::bc::Op::CmpBr &&
          In.Sub == static_cast<std::uint8_t>(ir::CmpPred::SLT))
        ++LoopCompares;
  EXPECT_EQ(LoopCompares, 1u);
}

TEST(LoopCostTest, LegacyTile16NestInstructionCountIsPinned) {
  // The run_kernels tile16 kernel at 64 x 64 elements, shadow-AST
  // lowering: four tile loops around the point loops.
  const std::string Source =
      "long acc = 0;\nint main() {\n  acc = 0;\n"
      "  #pragma omp tile sizes(16, 16)\n"
      "  for (int i = 0; i < 64; i += 1)\n"
      "    for (int j = 0; j < 64; j += 1)\n"
      "      acc += i * 3 + j;\n"
      "  int out = acc % 1000000;\n  return out;\n}\n";
  // 16.6 instructions per element.
  const interp::ExecStats S = runO1OnBytecode(Source);
  EXPECT_EQ(S.InstructionsExecuted, 68053u);
}

// --- The mid-end on serial code ---

TEST(MidendIntegrationTest, O1PreservesSemantics) {
  const char *Source = "int main() { int s = 0; for (int i = 0; i < 37; "
                       "++i) s += i * i; return s; }";
  Execution Plain(Source);
  Execution O1(Source, midendOpts());
  EXPECT_EQ(Plain.runMain(), O1.runMain());
}

TEST(MidendIntegrationTest, DCERemovesDeadValues) {
  // Hand-built IR with a dead pure chain (stores keep values alive in
  // front-end output, so this is tested at the IR level).
  ir::Module M;
  ir::Function *F = M.createFunction("f", ir::IRType::getI32(),
                                     {ir::IRType::getI32()});
  ir::IRBuilder B(M, /*FoldConstants=*/false);
  B.setInsertPoint(F->createBlock("entry"));
  ir::Value *Dead1 = B.createAdd(F->getArg(0), M.getI32(1), "dead1");
  B.createMul(Dead1, M.getI32(2), "dead2");
  B.createRet(F->getArg(0));
  EXPECT_EQ(mcc::midend::runDCE(M), 2u);
  // The trapping division must survive even when unused.
  ir::Function *G = M.createFunction("g", ir::IRType::getI32(),
                                     {ir::IRType::getI32()});
  B.setInsertPoint(G->createBlock("entry"));
  B.createBinOp(ir::Opcode::SDiv, M.getI32(1), G->getArg(0), "maytrap");
  B.createRet(G->getArg(0));
  EXPECT_EQ(mcc::midend::runDCE(M), 0u);
}

} // namespace
