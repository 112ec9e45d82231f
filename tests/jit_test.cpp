//===--- jit_test.cpp - Native execution tier unit tests ------------------===//
//
// Covers the template JIT's engine-facing contract: code-page lifecycle
// (compile, run, reset, re-run in one process — W^X clean under ASan),
// on-stack replacement of a hot bytecode frame, the forced-fallback
// knob, and the engine-name diagnostics for both the flag and the
// environment spelling.
//
//===----------------------------------------------------------------------===//
#include "interp/Interpreter.h"
#include "irbuilder/IRBuilder.h"
#include "jit/JIT.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace mcc::ir;
using namespace mcc::interp;

namespace {

/// Scoped setenv: restores the previous value (or unsets) on destruction
/// so env-sensitive tests cannot leak state into each other.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name)) {
      HadOld = true;
      OldValue = Old;
    }
    ::setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (HadOld)
      ::setenv(Name.c_str(), OldValue.c_str(), 1);
    else
      ::unsetenv(Name.c_str());
  }

private:
  std::string Name, OldValue;
  bool HadOld = false;
};

/// for (i = 0; i < n; ++i) sum += i * 3 + (sum >> 5); return sum.
/// Long enough to cross any OSR threshold, pure int math so the JIT
/// supports every op.
void buildHotLoop(Module &M) {
  Function *F = M.createFunction("hot", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *IPhi = B.createPhi(IRType::getI64(), "i");
  Instruction *SumPhi = B.createPhi(IRType::getI64(), "sum");
  Value *Shift = B.createBinOp(Opcode::AShr, SumPhi, M.getI64(5), "sh");
  Value *Term = B.createAdd(B.createMul(IPhi, M.getI64(3)), Shift);
  Value *Sum = B.createAdd(SumPhi, Term);
  Value *Next = B.createAdd(IPhi, M.getI64(1));
  Value *More = B.createICmp(CmpPred::SLT, Next, F->getArg(0));
  IPhi->addIncoming(M.getI64(0), Entry);
  IPhi->addIncoming(Next, Loop);
  SumPhi->addIncoming(M.getI64(0), Entry);
  SumPhi->addIncoming(Sum, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  B.createRet(Sum);
  ASSERT_EQ(verifyModule(M), "");
}

std::int64_t runHot(ExecEngineKind Kind, std::int64_t N,
                    ExecStats *StatsOut = nullptr) {
  Module M;
  buildHotLoop(M);
  ExecutionEngine EE(M, Kind);
  RTValue R = EE.runFunction("hot", {RTValue::ofInt(N)});
  if (StatsOut)
    *StatsOut = EE.statsSnapshot();
  return R.I;
}

TEST(JITTest, NativeMatchesBytecodeOnHotLoop) {
  ExecStats Native;
  std::int64_t Ref = runHot(ExecEngineKind::Bytecode, 10000);
  EXPECT_EQ(runHot(ExecEngineKind::Native, 10000, &Native), Ref);
  if (mcc::interp::jit::isSupported()) {
    EXPECT_GE(Native.JITFunctionsCompiled, 1u);
    EXPECT_GT(Native.JITCodeBytes, 0u);
    EXPECT_GE(Native.JITNativeFrames, 1u);
  } else {
    // Unsupported hosts publish fallback units and stay on bytecode.
    EXPECT_EQ(Native.JITFunctionsCompiled, 0u);
    EXPECT_GE(Native.JITFallbacks, 1u);
  }
}

// The W^X lifecycle: map RW, patch, flip to RX, execute, unmap — twice in
// one process, so a leaked or double-freed code page trips ASan and a
// stale mapping trips the second run.
TEST(JITTest, CodePagesSurviveEngineResetAndRerun) {
  std::int64_t First = runHot(ExecEngineKind::Native, 4096);
  std::int64_t Second = runHot(ExecEngineKind::Native, 4096);
  EXPECT_EQ(First, Second);
  EXPECT_EQ(First, runHot(ExecEngineKind::Bytecode, 4096));
}

TEST(JITTest, CompiledUnitIsExecutableAndPatched) {
  if (!mcc::interp::jit::isSupported())
    GTEST_SKIP() << "no JIT on this host";
  Module M;
  buildHotLoop(M);
  auto BCMod = mcc::interp::bc::compileToBytecode(M);
  auto CF = mcc::interp::jit::compileFunction(BCMod->Functions[0]);
  ASSERT_TRUE(CF->Supported);
  EXPECT_TRUE(CF->Code.executable());
  EXPECT_GT(CF->Code.size(), 0u);
  // One resume point per bytecode instruction: OSR can land anywhere.
  EXPECT_GE(CF->InstOffsets.size(), BCMod->Functions[0].Code.size());
}

TEST(JITTest, OSRPromotesRunningLoopWithIdenticalResult) {
  if (!mcc::interp::jit::isSupported())
    GTEST_SKIP() << "no JIT on this host";
  // A call threshold far above 1 forces the *running* frame to get hot:
  // the only way to native is promotion on the loop back-edge.
  ScopedEnv CallT("MCC_JIT_CALL_THRESHOLD", "1000000");
  ScopedEnv OSRT("MCC_JIT_OSR_THRESHOLD", "100");
  ExecStats Bytecode, Tiered;
  std::int64_t Ref = runHot(ExecEngineKind::Bytecode, 20000, &Bytecode);
  EXPECT_EQ(runHot(ExecEngineKind::Tiered, 20000, &Tiered), Ref);
  EXPECT_GE(Tiered.JITOSRPromotions, 1u);
  EXPECT_GE(Tiered.JITFunctionsCompiled, 1u);
  // The promoted frame finished natively: the bytecode tier retired only
  // the pre-promotion prefix, a small fraction of the full loop.
  EXPECT_LT(Tiered.InstructionsExecuted, Bytecode.InstructionsExecuted / 2);
}

TEST(JITTest, ForcedFallbackKeepsFunctionOnBytecode) {
  if (!mcc::interp::jit::isSupported())
    GTEST_SKIP() << "no JIT on this host";
  ScopedEnv Force("MCC_JIT_FORCE_FALLBACK_OP", "Add");
  ExecStats Native;
  std::int64_t Ref = runHot(ExecEngineKind::Bytecode, 1000);
  EXPECT_EQ(runHot(ExecEngineKind::Native, 1000, &Native), Ref);
  EXPECT_GE(Native.JITFallbacks, 1u);
  EXPECT_EQ(Native.JITNativeFrames, 0u);
}

TEST(JITTest, TrapInNativeFrameUnwindsCleanly) {
  Module M;
  Function *F = M.createFunction("div", IRType::getI64(),
                                 {IRType::getI64(), IRType::getI64()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(B.createSDiv(F->getArg(0), F->getArg(1)));
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine EE(M, ExecEngineKind::Native);
  try {
    EE.runFunction("div", {RTValue::ofInt(1), RTValue::ofInt(0)});
    FAIL() << "expected a division trap";
  } catch (const std::runtime_error &Ex) {
    EXPECT_STREQ(Ex.what(), "integer division by zero");
  }
  // The engine (and its frame stack) stays usable after the unwind.
  EXPECT_EQ(EE.runFunction("div", {RTValue::ofInt(6), RTValue::ofInt(2)}).I,
            3);
}

// --- Engine-name diagnostics: flag and environment spellings ---

TEST(JITTest, FlagSpellingRejectsUnknownEngineNames) {
  ExecEngineKind K;
  EXPECT_TRUE(parseExecEngineKind("walker", K));
  EXPECT_TRUE(parseExecEngineKind("bytecode", K));
  EXPECT_TRUE(parseExecEngineKind("native", K));
  EXPECT_EQ(K, ExecEngineKind::Native);
  EXPECT_TRUE(parseExecEngineKind("tiered", K));
  EXPECT_EQ(K, ExecEngineKind::Tiered);
  EXPECT_FALSE(parseExecEngineKind("turbo", K));
  EXPECT_FALSE(parseExecEngineKind("", K));
}

TEST(JITTest, EnvSpellingDiagnosesUnknownEngineNames) {
  {
    ScopedEnv Env("MCC_EXEC_ENGINE", "turbo");
    std::string Err = environmentError();
    EXPECT_NE(Err.find("turbo"), std::string::npos) << Err;
    EXPECT_NE(Err.find("MCC_EXEC_ENGINE"), std::string::npos) << Err;
    // The library itself stays permissive (drivers enforce).
    EXPECT_EQ(resolveExecEngineKind(ExecEngineKind::Default),
              ExecEngineKind::Bytecode);
  }
  for (const char *Good : {"walker", "bytecode", "native", "tiered"}) {
    ScopedEnv Env("MCC_EXEC_ENGINE", Good);
    EXPECT_EQ(environmentError(), "") << Good;
  }
}

// --- Register allocation, template fusion, direct native→native calls ---

/// Loop with more live loop-carried values than the allocator has
/// registers: six int accumulators against a three-GPR pool, plus two FP
/// accumulators. The overflow slots must stay coherent in frame memory
/// while the allocated ones live in registers.
void buildPressureLoop(Module &M) {
  Function *F =
      M.createFunction("press", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *IPhi = B.createPhi(IRType::getI64(), "i");
  Instruction *Acc[6];
  for (int K = 0; K < 6; ++K)
    Acc[K] = B.createPhi(IRType::getI64(), "a");
  Instruction *D0 = B.createPhi(IRType::getDouble(), "d0");
  Instruction *D1 = B.createPhi(IRType::getDouble(), "d1");
  Value *Upd[6];
  for (int K = 0; K < 6; ++K)
    Upd[K] = B.createAdd(Acc[K], B.createMul(IPhi, M.getI64(K + 1)));
  Value *D0n = B.createBinOp(Opcode::FAdd, D0, M.getDouble(0.5), "d0n");
  Value *D1n = B.createBinOp(Opcode::FAdd, D1, D0, "d1n");
  Value *Next = B.createAdd(IPhi, M.getI64(1));
  Value *More = B.createICmp(CmpPred::SLT, Next, F->getArg(0));
  IPhi->addIncoming(M.getI64(0), Entry);
  IPhi->addIncoming(Next, Loop);
  for (int K = 0; K < 6; ++K) {
    Acc[K]->addIncoming(M.getI64(K), Entry);
    Acc[K]->addIncoming(Upd[K], Loop);
  }
  D0->addIncoming(M.getDouble(0.0), Entry);
  D0->addIncoming(D0n, Loop);
  D1->addIncoming(M.getDouble(1.0), Entry);
  D1->addIncoming(D1n, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  Value *S = Upd[0];
  for (int K = 1; K < 6; ++K)
    S = B.createAdd(S, Upd[K]);
  Value *DS = B.createCast(Opcode::FPToSI,
                           B.createBinOp(Opcode::FAdd, D0n, D1n, "ds"),
                           IRType::getI64());
  B.createRet(B.createAdd(S, DS));
  ASSERT_EQ(verifyModule(M), "");
}

std::int64_t runPressure(ExecEngineKind Kind, std::int64_t N,
                         ExecStats *StatsOut = nullptr) {
  Module M;
  buildPressureLoop(M);
  ExecutionEngine EE(M, Kind);
  RTValue R = EE.runFunction("press", {RTValue::ofInt(N)});
  if (StatsOut)
    *StatsOut = EE.statsSnapshot();
  return R.I;
}

TEST(JITTest, RegisterPressureSpillParity) {
  ExecStats Native;
  std::int64_t Ref = runPressure(ExecEngineKind::Walker, 5000);
  EXPECT_EQ(runPressure(ExecEngineKind::Bytecode, 5000), Ref);
  EXPECT_EQ(runPressure(ExecEngineKind::Native, 5000, &Native), Ref);
  EXPECT_EQ(runPressure(ExecEngineKind::Tiered, 5000), Ref);
  if (mcc::interp::jit::isSupported()) {
    // Demand exceeds the GPR pool: the allocator filled every register
    // and the remaining accumulators ran from frame memory.
    EXPECT_GE(Native.JITRegAllocSlots, 3u);
    // The loop's icmp+br back edge compiles to a fused CmpBr template.
    EXPECT_GE(Native.JITFusedTemplates, 1u);
  }
}

TEST(JITTest, HelperCallClobberPreservesAllocatedRegisters) {
  // Int and FP accumulators stay live across an SDiv helper call every
  // iteration: caller-saved xmm allocations must spill/reload around the
  // call, and the helper's frame writes must flow back into registers.
  Module M;
  Function *F =
      M.createFunction("clob", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *IPhi = B.createPhi(IRType::getI64(), "i");
  Instruction *SPhi = B.createPhi(IRType::getI64(), "s");
  Instruction *FPhi = B.createPhi(IRType::getDouble(), "f");
  Value *Num = B.createAdd(B.createMul(IPhi, M.getI64(7)), M.getI64(3));
  Value *Den =
      B.createAdd(B.createBinOp(Opcode::And, IPhi, M.getI64(1), "par"),
                  M.getI64(1));
  Value *Q = B.createSDiv(Num, Den);
  Value *S2 = B.createAdd(SPhi, Q);
  Value *F2 = B.createBinOp(Opcode::FAdd, FPhi, M.getDouble(1.25), "f2");
  Value *Next = B.createAdd(IPhi, M.getI64(1));
  Value *More = B.createICmp(CmpPred::SLT, Next, F->getArg(0));
  IPhi->addIncoming(M.getI64(0), Entry);
  IPhi->addIncoming(Next, Loop);
  SPhi->addIncoming(M.getI64(0), Entry);
  SPhi->addIncoming(S2, Loop);
  FPhi->addIncoming(M.getDouble(0.0), Entry);
  FPhi->addIncoming(F2, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  Value *FI = B.createCast(Opcode::FPToSI, F2, IRType::getI64());
  B.createRet(B.createAdd(S2, FI));
  ASSERT_EQ(verifyModule(M), "");

  auto Run = [&](ExecEngineKind Kind, ExecStats *StatsOut = nullptr) {
    ExecutionEngine EE(M, Kind);
    RTValue R = EE.runFunction("clob", {RTValue::ofInt(3000)});
    if (StatsOut)
      *StatsOut = EE.statsSnapshot();
    return R.I;
  };
  ExecStats Native;
  std::int64_t Ref = Run(ExecEngineKind::Walker);
  EXPECT_EQ(Run(ExecEngineKind::Bytecode), Ref);
  EXPECT_EQ(Run(ExecEngineKind::Native, &Native), Ref);
  EXPECT_EQ(Run(ExecEngineKind::Tiered), Ref);
  if (mcc::interp::jit::isSupported()) {
    EXPECT_GE(Native.JITRegAllocSlots, 1u);
    EXPECT_GE(Native.JITSpills, 1u); // the div forced spill/reload traffic
  }
}

TEST(JITTest, FusedFCmpBranchParity) {
  // while (d < limit) { d += 0.25; ++n; } — an FCmp whose only consumer
  // is the loop branch, the exact shape the flags→jcc peephole fuses.
  Module M;
  Function *F =
      M.createFunction("fsum", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  Value *Limit =
      B.createCast(Opcode::SIToFP, F->getArg(0), IRType::getDouble());
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *NPhi = B.createPhi(IRType::getI64(), "n");
  Instruction *DPhi = B.createPhi(IRType::getDouble(), "d");
  Value *D2 = B.createBinOp(Opcode::FAdd, DPhi, M.getDouble(0.25), "d2");
  Value *N2 = B.createAdd(NPhi, M.getI64(1));
  Value *More = B.createFCmp(CmpPred::OLT, D2, Limit);
  NPhi->addIncoming(M.getI64(0), Entry);
  NPhi->addIncoming(N2, Loop);
  DPhi->addIncoming(M.getDouble(0.0), Entry);
  DPhi->addIncoming(D2, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  B.createRet(N2);
  ASSERT_EQ(verifyModule(M), "");

  auto Run = [&](ExecEngineKind Kind, ExecStats *StatsOut = nullptr) {
    ExecutionEngine EE(M, Kind);
    RTValue R = EE.runFunction("fsum", {RTValue::ofInt(500)});
    if (StatsOut)
      *StatsOut = EE.statsSnapshot();
    return R.I;
  };
  ExecStats Native;
  std::int64_t Ref = Run(ExecEngineKind::Walker);
  EXPECT_EQ(Run(ExecEngineKind::Bytecode), Ref);
  EXPECT_EQ(Run(ExecEngineKind::Native, &Native), Ref);
  EXPECT_EQ(Run(ExecEngineKind::Tiered), Ref);
  if (mcc::interp::jit::isSupported())
    EXPECT_GE(Native.JITFusedTemplates, 1u);
}

/// deep(n, d): n <= 0 ? 100 / d : deep(n - 1, d) + 1 — every frame of
/// the recursion is a direct native→native call once compiled.
void buildDeepRecursion(Module &M) {
  Function *F = M.createFunction("deep", IRType::getI64(),
                                 {IRType::getI64(), IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  B.setInsertPoint(Entry);
  B.createCondBr(
      B.createICmp(CmpPred::SLE, F->getArg(0), M.getI64(0)), Base, Rec);
  B.setInsertPoint(Base);
  B.createRet(B.createSDiv(M.getI64(100), F->getArg(1)));
  B.setInsertPoint(Rec);
  Value *R = B.createCall(
      F, {B.createSub(F->getArg(0), M.getI64(1)), F->getArg(1)});
  B.createRet(B.createAdd(R, M.getI64(1)));
  ASSERT_EQ(verifyModule(M), "");
}

TEST(JITTest, DirectCallRecursionMatchesAcrossEngines) {
  Module M;
  buildDeepRecursion(M);
  ExecStats Native;
  for (ExecEngineKind Kind :
       {ExecEngineKind::Walker, ExecEngineKind::Bytecode,
        ExecEngineKind::Native, ExecEngineKind::Tiered}) {
    ExecutionEngine EE(M, Kind);
    EXPECT_EQ(
        EE.runFunction("deep", {RTValue::ofInt(200), RTValue::ofInt(2)}).I,
        250);
    if (Kind == ExecEngineKind::Native)
      Native = EE.statsSnapshot();
  }
  if (mcc::interp::jit::isSupported())
    EXPECT_GE(Native.JITDirectCallSites, 1u);
}

TEST(JITTest, DirectCallsDisabledFallsBackToHelperWithSameResult) {
  // MCC_JIT_DIRECT_CALLS=0 withholds the module call context: every
  // CallBC routes through the host helper, sites report zero, and the
  // result is unchanged — the measurement baseline for the direct-call
  // speedup and a bisection knob for call-related miscompiles.
  ScopedEnv Off("MCC_JIT_DIRECT_CALLS", "0");
  Module M;
  buildDeepRecursion(M);
  ExecutionEngine EE(M, ExecEngineKind::Native);
  EXPECT_EQ(
      EE.runFunction("deep", {RTValue::ofInt(200), RTValue::ofInt(2)}).I,
      250);
  EXPECT_EQ(EE.statsSnapshot().JITDirectCallSites, 0u);
}

TEST(JITTest, DeepNativeRecursionTrapUnwindsDirectCallChain) {
  // Division by zero 200 direct-call frames down: the trap must hand the
  // parked exception up every inline frame, reach the host wrapper, and
  // surface the same message every engine produces — with the engine
  // still usable afterwards.
  Module M;
  buildDeepRecursion(M);
  for (ExecEngineKind Kind :
       {ExecEngineKind::Walker, ExecEngineKind::Bytecode,
        ExecEngineKind::Native, ExecEngineKind::Tiered}) {
    ExecutionEngine EE(M, Kind);
    try {
      EE.runFunction("deep", {RTValue::ofInt(200), RTValue::ofInt(0)});
      FAIL() << "expected a division trap ("
             << execEngineKindName(Kind) << ")";
    } catch (const std::runtime_error &Ex) {
      EXPECT_STREQ(Ex.what(), "integer division by zero");
    }
    EXPECT_EQ(
        EE.runFunction("deep", {RTValue::ofInt(10), RTValue::ofInt(4)}).I,
        35);
  }
}

TEST(JITTest, OSRPromotionWithValuesLiveInRegisters) {
  if (!mcc::interp::jit::isSupported())
    GTEST_SKIP() << "no JIT on this host";
  // Promotion happens mid-loop with accumulators live in allocated
  // registers on the bytecode side; the prologue must re-establish the
  // full register state from the (authoritative) frame at the resume
  // boundary.
  ScopedEnv CallT("MCC_JIT_CALL_THRESHOLD", "1000000");
  ScopedEnv OSRT("MCC_JIT_OSR_THRESHOLD", "100");
  ExecStats Tiered;
  std::int64_t Ref = runPressure(ExecEngineKind::Bytecode, 20000);
  EXPECT_EQ(runPressure(ExecEngineKind::Tiered, 20000, &Tiered), Ref);
  EXPECT_GE(Tiered.JITOSRPromotions, 1u);
  EXPECT_GE(Tiered.JITRegAllocSlots, 3u);
}

TEST(JITTest, JITEnvKnobDiagnostics) {
  {
    ScopedEnv Env("MCC_JIT_CALL_THRESHOLD", "banana");
    std::string Err = environmentError();
    EXPECT_NE(Err.find("MCC_JIT_CALL_THRESHOLD"), std::string::npos) << Err;
    EXPECT_NE(Err.find("banana"), std::string::npos) << Err;
  }
  {
    ScopedEnv Env("MCC_JIT_OSR_THRESHOLD", "0");
    EXPECT_NE(environmentError(), ""); // zero would divide the tier by zero
  }
  {
    ScopedEnv Env("MCC_JIT_FORCE_FALLBACK_OP", "NotAnOp");
    std::string Err = environmentError();
    EXPECT_NE(Err.find("MCC_JIT_FORCE_FALLBACK_OP"), std::string::npos)
        << Err;
  }
  {
    ScopedEnv Env("MCC_JIT_DIRECT_CALLS", "maybe");
    std::string Err = environmentError();
    EXPECT_NE(Err.find("MCC_JIT_DIRECT_CALLS"), std::string::npos) << Err;
  }
  {
    ScopedEnv CallT("MCC_JIT_CALL_THRESHOLD", "16");
    ScopedEnv OSRT("MCC_JIT_OSR_THRESHOLD", "1024");
    ScopedEnv Force("MCC_JIT_FORCE_FALLBACK_OP", "CmpBr");
    ScopedEnv Direct("MCC_JIT_DIRECT_CALLS", "0");
    EXPECT_EQ(environmentError(), "");
  }
}

TEST(JITTest, OpNameRoundTrip) {
  using mcc::interp::bc::Op;
  Op O = Op::NumOps;
  ASSERT_TRUE(mcc::interp::jit::parseOpName("CmpBr", O));
  EXPECT_EQ(O, Op::CmpBr);
  EXPECT_STREQ(mcc::interp::jit::opName(Op::CmpBr), "CmpBr");
  EXPECT_FALSE(mcc::interp::jit::parseOpName("NotAnOp", O));
}

} // namespace
