//===--- interp_test.cpp - Execution engine unit tests --------------------===//
#include "interp/Bytecode.h"
#include "interp/Interpreter.h"
#include "irbuilder/OpenMPIRBuilder.h"
#include "runtime/KMPRuntime.h"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>

using namespace mcc::ir;
using namespace mcc::interp;

namespace {

TEST(InterpTest, ReturnsConstant) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(M.getI32(42));

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("f", {}).I, 42);
}

TEST(InterpTest, Arithmetic) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI64(),
                                 {IRType::getI64(), IRType::getI64()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Sum = B.createAdd(F->getArg(0), F->getArg(1));
  Value *Prod = B.createMul(Sum, M.getI64(3));
  B.createRet(Prod);

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("f", {RTValue::ofInt(4), RTValue::ofInt(6)}).I,
            30);
}

TEST(InterpTest, SignedVsUnsignedDivision) {
  Module M;
  IRBuilder B(M);
  Function *S = M.createFunction("s", IRType::getI32(),
                                 {IRType::getI32(), IRType::getI32()});
  B.setInsertPoint(S->createBlock("entry"));
  B.createRet(B.createBinOp(Opcode::SDiv, S->getArg(0), S->getArg(1), "d"));
  Function *U = M.createFunction("u", IRType::getI32(),
                                 {IRType::getI32(), IRType::getI32()});
  B.setInsertPoint(U->createBlock("entry"));
  B.createRet(B.createBinOp(Opcode::UDiv, U->getArg(0), U->getArg(1), "d"));

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("s", {RTValue::ofInt(-6), RTValue::ofInt(2)}).I,
            -3);
  // -6 as u32 is 0xFFFFFFFA; udiv by 2 = 0x7FFFFFFD.
  EXPECT_EQ(EE.runFunction("u", {RTValue::ofInt(-6), RTValue::ofInt(2)}).I,
            0x7FFFFFFD);
}

TEST(InterpTest, MemoryOperations) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Instruction *Slot = B.createAlloca(IRType::getI32());
  B.createStore(M.getI32(7), Slot);
  Value *L = B.createLoad(IRType::getI32(), Slot);
  Value *Doubled = B.createAdd(L, L);
  B.createStore(Doubled, Slot);
  B.createRet(B.createLoad(IRType::getI32(), Slot));

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("f", {}).I, 14);
}

TEST(InterpTest, GEPIndexing) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI64(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Instruction *Arr = B.createAlloca(IRType::getI64(), M.getI64(4));
  for (int I = 0; I < 4; ++I) {
    Value *P = B.createGEP(IRType::getI64(), Arr, M.getI64(I));
    B.createStore(M.getI64(10 * I), P);
  }
  Value *P2 = B.createGEP(IRType::getI64(), Arr, M.getI64(2));
  B.createRet(B.createLoad(IRType::getI64(), P2));

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("f", {}).I, 20);
}

TEST(InterpTest, GlobalVariables) {
  Module M;
  GlobalVariable *G = M.createGlobal("counter", IRType::getI64(), 1);
  G->IntInit = {100};
  Function *F = M.createFunction("bump", IRType::getI64(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *V = B.createLoad(IRType::getI64(), G);
  Value *Inc = B.createAdd(V, M.getI64(1));
  B.createStore(Inc, G);
  B.createRet(Inc);

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("bump", {}).I, 101);
  EXPECT_EQ(EE.runFunction("bump", {}).I, 102);
  auto *Raw = static_cast<std::int64_t *>(EE.getGlobalAddress("counter"));
  EXPECT_EQ(*Raw, 102);
}

TEST(InterpTest, ControlFlowAndPhi) {
  // abs(x) via phi join.
  Module M;
  Function *F = M.createFunction("abs", IRType::getI64(),
                                 {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Neg = F->createBlock("neg");
  BasicBlock *Join = F->createBlock("join");
  B.setInsertPoint(Entry);
  Value *IsNeg = B.createICmp(CmpPred::SLT, F->getArg(0), M.getI64(0));
  B.createCondBr(IsNeg, Neg, Join);
  B.setInsertPoint(Neg);
  Value *Negated = B.createSub(M.getI64(0), F->getArg(0));
  B.createBr(Join);
  B.setInsertPoint(Join);
  Instruction *Phi = B.createPhi(IRType::getI64(), "res");
  Phi->addIncoming(F->getArg(0), Entry);
  Phi->addIncoming(Negated, Neg);
  B.createRet(Phi);

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("abs", {RTValue::ofInt(-9)}).I, 9);
  EXPECT_EQ(EE.runFunction("abs", {RTValue::ofInt(9)}).I, 9);
}

TEST(InterpTest, RecursiveCalls) {
  // fib(n)
  Module M;
  Function *F = M.createFunction("fib", IRType::getI64(),
                                 {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Base = F->createBlock("base");
  BasicBlock *Rec = F->createBlock("rec");
  B.setInsertPoint(Entry);
  Value *IsBase = B.createICmp(CmpPred::SLT, F->getArg(0), M.getI64(2));
  B.createCondBr(IsBase, Base, Rec);
  B.setInsertPoint(Base);
  B.createRet(F->getArg(0));
  B.setInsertPoint(Rec);
  Value *A = B.createCall(F, {B.createSub(F->getArg(0), M.getI64(1))});
  Value *C = B.createCall(F, {B.createSub(F->getArg(0), M.getI64(2))});
  B.createRet(B.createAdd(A, C));

  ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("fib", {RTValue::ofInt(10)}).I, 55);
}

TEST(InterpTest, DoubleArithmetic) {
  Module M;
  Function *F = M.createFunction("f", IRType::getDouble(),
                                 {IRType::getDouble()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *Sq = B.createBinOp(Opcode::FMul, F->getArg(0), F->getArg(0), "sq");
  B.createRet(B.createBinOp(Opcode::FAdd, Sq, M.getDouble(0.5), "r"));

  ExecutionEngine EE(M);
  EXPECT_DOUBLE_EQ(EE.runFunction("f", {RTValue::ofDouble(3.0)}).D, 9.5);
}

TEST(InterpTest, ExternalBinding) {
  Module M;
  Function *Ext = M.createFunction("magic", IRType::getI64(),
                                   {IRType::getI64()});
  Function *F = M.createFunction("f", IRType::getI64(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(B.createCall(Ext, {M.getI64(5)}));

  ExecutionEngine EE(M);
  EE.bindExternal("magic", [](std::span<const RTValue> Args) {
    return RTValue::ofInt(Args[0].I * 100);
  });
  EXPECT_EQ(EE.runFunction("f", {}).I, 500);
}

TEST(InterpTest, UnboundExternalThrows) {
  Module M;
  Function *Ext = M.createFunction("missing", IRType::getVoid(), {});
  Function *F = M.createFunction("f", IRType::getVoid(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createCall(Ext, {});
  B.createRetVoid();

  ExecutionEngine EE(M);
  EXPECT_THROW(EE.runFunction("f", {}), std::runtime_error);
}

TEST(InterpTest, DivisionByZeroThrows) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(),
                                 {IRType::getI32()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(B.createSDiv(M.getI32(1), F->getArg(0)));
  ExecutionEngine EE(M);
  EXPECT_THROW(EE.runFunction("f", {RTValue::ofInt(0)}), std::runtime_error);
}

TEST(InterpTest, CountsInstructions) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  IRBuilder B(M, /*FoldConstants=*/false);
  B.setInsertPoint(F->createBlock("entry"));
  Value *V = B.createAdd(M.getI32(1), M.getI32(2));
  B.createRet(V);
  ExecutionEngine EE(M);
  EE.runFunction("f", {});
  EXPECT_EQ(EE.getInstructionsExecuted(), 2u);
}

// --- Runtime integration: real threads through the interpreter ---

TEST(RuntimeInterpTest, ForkCallRunsAllThreads) {
  // Outlined function: context[0] is a pointer to an i64 array indexed by
  // thread id; each thread writes its id + 1.
  Module M;
  Function *Outlined = M.createFunction(
      "outlined", IRType::getVoid(),
      {IRType::getPtr(), IRType::getPtr(), IRType::getPtr()},
      {".global_tid.", ".bound_tid.", "__context"});
  Function *GetTid =
      M.getOrInsertFunction("omp_get_thread_num", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(Outlined->createBlock("entry"));
  // arr = *(ptr*)context
  Value *ArrPtr = B.createLoad(IRType::getPtr(), Outlined->getArg(2));
  Value *Tid = B.createCall(GetTid, {}, "tid");
  Value *Tid64 = B.createCast(Opcode::SExt, Tid, IRType::getI64(), "tid64");
  Value *Slot = B.createGEP(IRType::getI64(), ArrPtr, Tid64);
  B.createStore(B.createAdd(Tid64, B.getI64(1)), Slot);
  B.createRetVoid();

  // Driver: allocate the array, build the context, fork.
  Function *ForkFn = M.getOrInsertFunction(
      "__kmpc_fork_call", IRType::getVoid(),
      {IRType::getPtr(), IRType::getI32(), IRType::getPtr(),
       IRType::getI32()});
  Function *Main = M.createFunction("main", IRType::getI64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  Instruction *Arr = B.createAlloca(IRType::getI64(), M.getI64(8), "arr");
  Instruction *Ctx = B.createAlloca(IRType::getPtr(), M.getI64(1), "ctx");
  B.createStore(Arr, Ctx);
  B.createCall(ForkFn, {Outlined, B.getI32(1), Ctx, B.getI32(4)});
  // Sum the array.
  Value *Sum = M.getI64(0);
  for (int I = 0; I < 4; ++I) {
    Value *P = B.createGEP(IRType::getI64(), Arr, M.getI64(I));
    Sum = B.createAdd(Sum, B.createLoad(IRType::getI64(), P));
  }
  B.createRet(Sum);

  ASSERT_EQ(verifyModule(M), "");
  ExecutionEngine EE(M);
  // Threads 0..3 wrote 1..4 -> sum 10.
  EXPECT_EQ(EE.runFunction("main", {}).I, 10);
}

TEST(RuntimeTest, StaticInitPartitionsDisjointlyAndCompletely) {
  using namespace mcc::rt;
  // Property sweep over (tripcount, nthreads): the static schedule must
  // partition [0, trip) disjointly and completely.
  for (std::int64_t Trip : {0, 1, 5, 16, 17, 100, 101}) {
    for (int Threads : {1, 2, 3, 4, 8}) {
      std::vector<char> Covered(static_cast<std::size_t>(Trip), 0);
      OpenMPRuntime &RT = OpenMPRuntime::get();
      std::mutex Mx;
      bool Overlap = false;
      RT.forkCall(
          [&](int) {
            std::int32_t Last = 0;
            std::int64_t Lb = 0, Ub = Trip - 1, Stride = 1;
            RT.forStaticInit(SchedStatic, &Last, &Lb, &Ub, &Stride, 1, 0);
            std::lock_guard<std::mutex> Lock(Mx);
            for (std::int64_t I = Lb; I <= Ub; ++I) {
              if (I < 0 || I >= Trip || Covered[static_cast<std::size_t>(I)])
                Overlap = true;
              else
                Covered[static_cast<std::size_t>(I)] = 1;
            }
          },
          Threads);
      EXPECT_FALSE(Overlap) << "trip=" << Trip << " threads=" << Threads;
      EXPECT_EQ(std::count(Covered.begin(), Covered.end(), 1),
                static_cast<std::ptrdiff_t>(Trip))
          << "trip=" << Trip << " threads=" << Threads;
    }
  }
}

TEST(RuntimeTest, DynamicDispatchCoversRange) {
  using namespace mcc::rt;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  for (std::int32_t Sched :
       {SchedDynamic, SchedGuided, SchedStaticChunked}) {
    constexpr std::int64_t Trip = 1000;
    std::vector<std::atomic<int>> Hits(Trip);
    RT.forkCall(
        [&](int) {
          RT.dispatchInit(Sched, 0, Trip - 1, 7);
          std::int32_t Last;
          std::int64_t Lb, Ub;
          while (RT.dispatchNext(&Last, &Lb, &Ub))
            for (std::int64_t I = Lb; I <= Ub; ++I)
              Hits[static_cast<std::size_t>(I)]++;
        },
        4);
    for (std::int64_t I = 0; I < Trip; ++I)
      ASSERT_EQ(Hits[static_cast<std::size_t>(I)].load(), 1)
          << "sched=" << Sched << " i=" << I;
  }
}

TEST(RuntimeTest, BarrierSynchronizes) {
  using namespace mcc::rt;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  std::atomic<int> Before{0};
  std::atomic<bool> Violation{false};
  RT.forkCall(
      [&](int) {
        Before.fetch_add(1);
        RT.barrier();
        // After the barrier every thread must observe all arrivals.
        if (Before.load() != 8)
          Violation = true;
      },
      8);
  EXPECT_FALSE(Violation.load());
}

TEST(RuntimeTest, CriticalSectionIsExclusive) {
  using namespace mcc::rt;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  long long Counter = 0; // unguarded except by the critical section
  RT.forkCall(
      [&](int) {
        for (int I = 0; I < 10000; ++I) {
          RT.critical();
          ++Counter;
          RT.endCritical();
        }
      },
      4);
  EXPECT_EQ(Counter, 40000);
}

TEST(RuntimeTest, NestedForkJoin) {
  using namespace mcc::rt;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  std::atomic<int> Count{0};
  RT.forkCall(
      [&](int) {
        RT.forkCall([&](int) { Count.fetch_add(1); }, 2);
      },
      2);
  EXPECT_EQ(Count.load(), 4);
}

// --- Engine parity: the same module under all four backends ---
// (Native and tiered degrade to bytecode per function on hosts without
// JIT support, so the sweep is portable.)

class EngineParityTest : public ::testing::TestWithParam<ExecEngineKind> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineParityTest,
    ::testing::Values(ExecEngineKind::Walker, ExecEngineKind::Bytecode,
                      ExecEngineKind::Native, ExecEngineKind::Tiered),
    [](const ::testing::TestParamInfo<ExecEngineKind> &Info) {
      return std::string(execEngineKindName(Info.param));
    });

TEST_P(EngineParityTest, PhiParallelCopySwapOnBackEdge) {
  // (a, b) <- (b, a) every iteration: a phi cycle on the back edge that
  // the bytecode translator must break with the scratch register. After
  // an odd trip count the values are swapped.
  Module M;
  Function *F = M.createFunction(
      "swapper", IRType::getI64(), {IRType::getI64(), IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *A = B.createPhi(IRType::getI64(), "a");
  Instruction *Bv = B.createPhi(IRType::getI64(), "b");
  Instruction *I = B.createPhi(IRType::getI64(), "i");
  Value *Next = B.createAdd(I, M.getI64(1));
  Value *Done = B.createICmp(CmpPred::SGE, Next, M.getI64(5));
  A->addIncoming(F->getArg(0), Entry);
  Bv->addIncoming(F->getArg(1), Entry);
  I->addIncoming(M.getI64(0), Entry);
  A->addIncoming(Bv, Loop); // the swap: a <- b, b <- a, in parallel
  Bv->addIncoming(A, Loop);
  I->addIncoming(Next, Loop);
  B.createCondBr(Done, Exit, Loop);
  B.setInsertPoint(Exit);
  // a * 1000 + b distinguishes swapped from unswapped.
  B.createRet(B.createAdd(B.createMul(A, M.getI64(1000)), Bv));
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine EE(M, GetParam());
  // 5 iterations entered, 4 back-edge swaps -> (a, b) unchanged at exit
  // observed *inside* iteration 5, which saw 4 swaps: even -> original.
  EXPECT_EQ(EE.runFunction("swapper", {RTValue::ofInt(7), RTValue::ofInt(9)})
                .I,
            7009);
}

TEST_P(EngineParityTest, NegativeStepLoop) {
  // for (i = 10; i > 0; i -= 3) sum += i  ->  10 + 7 + 4 + 1 = 22.
  Module M;
  Function *F = M.createFunction("down", IRType::getI64(), {});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *IPhi = B.createPhi(IRType::getI64(), "i");
  Instruction *SumPhi = B.createPhi(IRType::getI64(), "sum");
  Value *Sum = B.createAdd(SumPhi, IPhi);
  Value *Next = B.createSub(IPhi, M.getI64(3));
  Value *More = B.createICmp(CmpPred::SGT, Next, M.getI64(0));
  IPhi->addIncoming(M.getI64(10), Entry);
  IPhi->addIncoming(Next, Loop);
  SumPhi->addIncoming(M.getI64(0), Entry);
  SumPhi->addIncoming(Sum, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  B.createRet(Sum);
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine EE(M, GetParam());
  EXPECT_EQ(EE.runFunction("down", {}).I, 22);
}

TEST_P(EngineParityTest, FusedCanonicalLoopCFG) {
  // The guarded multi-body CFG fuseLoops produces (one shared skeleton,
  // member bodies of unequal trip counts each behind its own guard) must
  // agree across every execution tier. The accumulator recurrence is
  // order-sensitive, so any interleaving or guard divergence changes the
  // result.
  Module M;
  IRBuilder B(M);
  OpenMPIRBuilder OMPB(M);
  Function *F = M.createFunction("fused", IRType::getI64(), {});
  B.setInsertPoint(F->createBlock("entry"));
  Instruction *Acc = B.createAlloca(IRType::getI64());
  B.createStore(M.getI64(0), Acc);
  std::vector<CanonicalLoopInfo *> Sibs(2);
  Sibs[0] = OMPB.createCanonicalLoop(
      B, M.getI64(6),
      [&](IRBuilder &Bld, Value *IV) {
        Value *Old = Bld.createLoad(IRType::getI64(), Acc);
        Value *New = Bld.createAdd(Bld.createMul(Old, M.getI64(3)),
                                   Bld.createAdd(IV, M.getI64(1)));
        Bld.createStore(New, Acc);
      },
      "first");
  Sibs[1] = OMPB.createCanonicalLoop(
      B, M.getI64(4),
      [&](IRBuilder &Bld, Value *IV) {
        Value *Old = Bld.createLoad(IRType::getI64(), Acc);
        Value *New = Bld.createAdd(Bld.createMul(Old, M.getI64(2)),
                                   Bld.createMul(IV, M.getI64(7)));
        Bld.createStore(New, Acc);
      },
      "second");
  OMPB.fuseLoops(Sibs);
  B.createRet(B.createLoad(IRType::getI64(), Acc));
  ASSERT_EQ(verifyModule(M), "");

  std::int64_t Expected = 0;
  for (std::int64_t I = 0; I < 6; ++I) {
    Expected = Expected * 3 + (I + 1);
    if (I < 4)
      Expected = Expected * 2 + I * 7;
  }

  ExecutionEngine EE(M, GetParam());
  EXPECT_EQ(EE.runFunction("fused", {}).I, Expected);
}

TEST_P(EngineParityTest, ForkThroughFunctionPointerConstant) {
  // __kmpc_fork_call's first operand is a Function* constant — the
  // bytecode translator bakes it into the constant pool as a host
  // pointer and the runtime trampoline casts it back.
  Module M;
  Function *Outlined = M.createFunction(
      "outlined", IRType::getVoid(),
      {IRType::getPtr(), IRType::getPtr(), IRType::getPtr()},
      {".global_tid.", ".bound_tid.", "__context"});
  Function *GetTid =
      M.getOrInsertFunction("omp_get_thread_num", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(Outlined->createBlock("entry"));
  Value *ArrPtr = B.createLoad(IRType::getPtr(), Outlined->getArg(2));
  Value *Tid = B.createCall(GetTid, {}, "tid");
  Value *Tid64 = B.createCast(Opcode::SExt, Tid, IRType::getI64(), "tid64");
  Value *Slot = B.createGEP(IRType::getI64(), ArrPtr, Tid64);
  B.createStore(B.createAdd(Tid64, B.getI64(1)), Slot);
  B.createRetVoid();

  Function *ForkFn = M.getOrInsertFunction(
      "__kmpc_fork_call", IRType::getVoid(),
      {IRType::getPtr(), IRType::getI32(), IRType::getPtr(),
       IRType::getI32()});
  Function *Main = M.createFunction("main", IRType::getI64(), {});
  B.setInsertPoint(Main->createBlock("entry"));
  Instruction *Arr = B.createAlloca(IRType::getI64(), M.getI64(4), "arr");
  Instruction *Ctx = B.createAlloca(IRType::getPtr(), M.getI64(1), "ctx");
  B.createStore(Arr, Ctx);
  B.createCall(ForkFn, {Outlined, B.getI32(1), Ctx, B.getI32(4)});
  Value *Sum = M.getI64(0);
  for (int K = 0; K < 4; ++K) {
    Value *P = B.createGEP(IRType::getI64(), Arr, M.getI64(K));
    Sum = B.createAdd(Sum, B.createLoad(IRType::getI64(), P));
  }
  B.createRet(Sum);
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine EE(M, GetParam());
  EXPECT_EQ(EE.runFunction("main", {}).I, 10);
}

TEST_P(EngineParityTest, ExternalBindingReceivesArgs) {
  Module M;
  Function *Ext = M.getOrInsertFunction(
      "host_mul", IRType::getI64(), {IRType::getI64(), IRType::getI64()});
  Function *F = M.createFunction("f", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(B.createCall(Ext, {F->getArg(0), M.getI64(3)}));

  ExecutionEngine EE(M, GetParam());
  EE.bindExternal("host_mul", [](std::span<const RTValue> Args) {
    return RTValue::ofInt(Args[0].I * Args[1].I);
  });
  EXPECT_EQ(EE.runFunction("f", {RTValue::ofInt(14)}).I, 42);
}

TEST_P(EngineParityTest, DivisionByZeroThrowsSameMessage) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {IRType::getI32()});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(B.createSDiv(M.getI32(1), F->getArg(0)));

  ExecutionEngine EE(M, GetParam());
  try {
    EE.runFunction("f", {RTValue::ofInt(0)});
    FAIL() << "expected a division trap";
  } catch (const std::runtime_error &Ex) {
    EXPECT_STREQ(Ex.what(), "integer division by zero");
  }
  // The engine stays usable after unwinding (frame stack released).
  EXPECT_EQ(EE.runFunction("f", {RTValue::ofInt(1)}).I, 1);
}

TEST_P(EngineParityTest, LoadOpStoreAliasedOperand) {
  // *p = *p + *p: the fused LoadOpStore's rhs register IS the load's
  // destination register — the handler must write the load before
  // reading the rhs for the doubling to come out right.
  Module M;
  GlobalVariable *G = M.createGlobal("g", IRType::getI64(), 1);
  G->IntInit = {21};
  Function *F = M.createFunction("f", IRType::getI64(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  Value *L = B.createLoad(IRType::getI64(), G, "v");
  B.createStore(B.createAdd(L, L), G);
  B.createRet(B.createLoad(IRType::getI64(), G, "out"));
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine EE(M, GetParam());
  EXPECT_EQ(EE.runFunction("f", {}).I, 42);
}

TEST_P(EngineParityTest, RegisterPressureManyLiveAccumulators) {
  // Five loop-carried int accumulators plus one double — more than the
  // native tier's GPR pool, so some run from registers and some from
  // frame memory. The expected value is computed independently below;
  // every engine must hit it exactly.
  Module M;
  Function *F =
      M.createFunction("acc", IRType::getI64(), {IRType::getI64()});
  IRBuilder B(M);
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *I = B.createPhi(IRType::getI64(), "i");
  Instruction *A[5];
  for (int K = 0; K < 5; ++K)
    A[K] = B.createPhi(IRType::getI64(), "a");
  Instruction *D = B.createPhi(IRType::getDouble(), "d");
  Value *U[5];
  for (int K = 0; K < 5; ++K)
    U[K] = B.createAdd(A[K], B.createMul(I, M.getI64(K + 2)));
  Value *D2 = B.createBinOp(Opcode::FAdd, D, M.getDouble(0.5), "d2");
  Value *Next = B.createAdd(I, M.getI64(1));
  Value *More = B.createICmp(CmpPred::SLT, Next, F->getArg(0));
  I->addIncoming(M.getI64(0), Entry);
  I->addIncoming(Next, Loop);
  for (int K = 0; K < 5; ++K) {
    A[K]->addIncoming(M.getI64(K), Entry);
    A[K]->addIncoming(U[K], Loop);
  }
  D->addIncoming(M.getDouble(0.0), Entry);
  D->addIncoming(D2, Loop);
  B.createCondBr(More, Loop, Exit);
  B.setInsertPoint(Exit);
  Value *S = U[0];
  for (int K = 1; K < 5; ++K)
    S = B.createAdd(S, U[K]);
  B.createRet(
      B.createAdd(S, B.createCast(Opcode::FPToSI, D2, IRType::getI64())));
  ASSERT_EQ(verifyModule(M), "");

  const std::int64_t N = 1000;
  std::int64_t Acc[5] = {0, 1, 2, 3, 4};
  double Dv = 0.0;
  for (std::int64_t It = 0; It < N; ++It) {
    for (int K = 0; K < 5; ++K)
      Acc[K] += It * (K + 2);
    Dv += 0.5;
  }
  std::int64_t Want = static_cast<std::int64_t>(Dv);
  for (int K = 0; K < 5; ++K)
    Want += Acc[K];

  ExecutionEngine EE(M, GetParam());
  EXPECT_EQ(EE.runFunction("acc", {RTValue::ofInt(N)}).I, Want);
}

TEST(InterpTest, BytecodeFusesSuperinstructions) {
  // A loop whose body is a[i] += expr and whose latch is cmp+condbr:
  // the bytecode engine must retire fewer instructions than the walker
  // and record superinstruction hits; checksums must still agree.
  Module M;
  IRBuilder B(M);
  Function *F = M.createFunction("f", IRType::getI64(), {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Loop = F->createBlock("loop");
  BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  Instruction *Arr = B.createAlloca(IRType::getI64(), M.getI64(64), "arr");
  B.createBr(Loop);
  B.setInsertPoint(Loop);
  Instruction *I = B.createPhi(IRType::getI64(), "i");
  Value *Slot = B.createGEP(IRType::getI64(), Arr, I);
  Value *Old = B.createLoad(IRType::getI64(), Slot, "old");
  B.createStore(B.createAdd(Old, I), Slot);
  Value *Next = B.createAdd(I, M.getI64(1));
  Value *Done = B.createICmp(CmpPred::SGE, Next, M.getI64(64));
  I->addIncoming(M.getI64(0), Entry);
  I->addIncoming(Next, Loop);
  B.createCondBr(Done, Exit, Loop);
  B.setInsertPoint(Exit);
  Value *P = B.createGEP(IRType::getI64(), Arr, M.getI64(63));
  B.createRet(B.createLoad(IRType::getI64(), P));
  ASSERT_EQ(verifyModule(M), "");

  ExecutionEngine Walker(M, ExecEngineKind::Walker);
  ExecutionEngine Bytecode(M, ExecEngineKind::Bytecode);
  EXPECT_EQ(Walker.runFunction("f", {}).I, 63);
  EXPECT_EQ(Bytecode.runFunction("f", {}).I, 63);

  ExecStats WS = Walker.statsSnapshot();
  ExecStats BS = Bytecode.statsSnapshot();
  EXPECT_EQ(WS.SuperinstHits, 0u);
  EXPECT_GT(BS.SuperinstHits, 0u);
  EXPECT_GT(BS.SuperinstsEmitted, 0u);
  EXPECT_GT(BS.BytecodeBytes, 0u);
  // Fused instructions count once, so the bytecode engine retires
  // strictly fewer instructions for the same work.
  EXPECT_LT(BS.InstructionsExecuted, WS.InstructionsExecuted);
}

TEST(InterpTest, ExecStatsRender) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(M.getI32(0));

  ExecutionEngine EE(M, ExecEngineKind::Bytecode);
  EE.runFunction("f", {});
  std::string S = mcc::stats::render({statsComponent(EE.statsSnapshot())},
                                     mcc::stats::Format::Text);
  EXPECT_NE(S.find("== exec =="), std::string::npos) << S;
  EXPECT_NE(S.find("engine: kind=bytecode"), std::string::npos) << S;
  EXPECT_NE(S.find("frames=1"), std::string::npos) << S;

  ExecutionEngine WE(M, ExecEngineKind::Walker);
  std::string W = mcc::stats::render({statsComponent(WE.statsSnapshot())},
                                     mcc::stats::Format::Text);
  EXPECT_NE(W.find("engine: kind=walker dispatch=tree-walk"),
            std::string::npos)
      << W;
}

TEST(InterpTest, PrecompiledBytecodeIsReused) {
  Module M;
  Function *F = M.createFunction("f", IRType::getI32(), {});
  IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(M.getI32(7));

  auto BC = mcc::interp::bc::compileToBytecode(M);
  ExecutionEngine EE(M, ExecEngineKind::Bytecode, BC);
  EXPECT_EQ(EE.runFunction("f", {}).I, 7);
  // The engine adopted the shared translation instead of re-translating.
  EXPECT_FALSE(EE.statsSnapshot().TranslatedHere);
  ExecutionEngine Fresh(M, ExecEngineKind::Bytecode);
  EXPECT_TRUE(Fresh.statsSnapshot().TranslatedHere);
}

TEST(RuntimeTest, ThreadNumbersAreDense) {
  using namespace mcc::rt;
  OpenMPRuntime &RT = OpenMPRuntime::get();
  std::set<int> Seen;
  std::mutex Mx;
  RT.forkCall(
      [&](int Tid) {
        std::lock_guard<std::mutex> Lock(Mx);
        EXPECT_EQ(RT.getThreadNum(), Tid);
        EXPECT_EQ(RT.getNumThreads(), 5);
        Seen.insert(Tid);
      },
      5);
  EXPECT_EQ(Seen.size(), 5u);
}

/// computeSlotMeta as first written, for the ops makeRandomCode emits:
/// every backward-branch range is tried against every interval until no
/// interval grows.
std::vector<bc::SlotMeta> slotMetaByFixpoint(const bc::BCFunction &F) {
  const auto N = static_cast<std::uint32_t>(F.Code.size());
  std::vector<bc::SlotMeta> Slots(F.NumFrame);
  std::vector<bool> Touched(F.NumFrame, false);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> BackRanges;
  std::vector<int> Depth(N + 1, 0);
  for (std::uint32_t I = 0; I < N; ++I) {
    const bc::Inst &In = F.Code[I];
    std::vector<std::uint32_t> Targets;
    if (In.Code == bc::Op::Jmp)
      Targets = {In.A};
    else if (In.Code == bc::Op::CondBr)
      Targets = {In.B, In.C};
    else if (In.Code == bc::Op::CmpBr)
      Targets = {static_cast<std::uint32_t>(In.Imm & 0xffffffff),
                 static_cast<std::uint32_t>(
                     static_cast<std::uint64_t>(In.Imm) >> 32)};
    for (std::uint32_t T : Targets)
      if (T <= I) {
        BackRanges.emplace_back(T, I);
        for (std::uint32_t K = T; K <= I; ++K)
          ++Depth[K];
      }
  }
  for (std::uint32_t I = 0; I < N; ++I) {
    const bc::Inst &In = F.Code[I];
    auto Use = [&](std::uint32_t S, bool IsRead) {
      bc::SlotMeta &M = Slots[S];
      if (!Touched[S]) {
        Touched[S] = true;
        M.LiveBegin = M.LiveEnd = I;
      }
      M.Reads += IsRead;
      M.LiveEnd = std::max(M.LiveEnd, I);
      M.Weight += Depth[I] > 0 ? 16 : 1;
    };
    switch (In.Code) {
    case bc::Op::Mov:
      Use(In.A, false);
      Use(In.B, true);
      break;
    case bc::Op::Add:
    case bc::Op::CmpBr:
      Use(In.A, false);
      Use(In.B, true);
      Use(In.C, true);
      break;
    case bc::Op::Store8:
      Use(In.A, true);
      Use(In.B, true);
      break;
    case bc::Op::CondBr:
    case bc::Op::Ret:
      Use(In.A, true);
      break;
    default:
      break;
    }
  }
  for (std::uint32_t S = 0; S < F.NumConsts + F.NumArgs; ++S)
    if (Touched[S])
      Slots[S].LiveBegin = 0;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const auto &[T, B] : BackRanges)
      for (std::uint32_t S = 0; S < F.NumFrame; ++S) {
        bc::SlotMeta &M = Slots[S];
        if (Touched[S] && M.LiveBegin <= B && M.LiveEnd >= T &&
            (M.LiveBegin > T || M.LiveEnd < B)) {
          M.LiveBegin = std::min(M.LiveBegin, T);
          M.LiveEnd = std::max(M.LiveEnd, B);
          Changed = true;
        }
      }
  }
  return Slots;
}

/// A random instruction array over a 24-slot frame: moves, adds, stores,
/// returns and branches to any instruction.
bc::BCFunction makeRandomCode(std::mt19937_64 &Rng) {
  bc::BCFunction F;
  F.NumConsts = 3;
  F.NumArgs = 2;
  F.NumFrame = 24;
  const auto N = static_cast<std::uint32_t>(1 + Rng() % 120);
  auto Slot = [&] { return static_cast<std::uint32_t>(Rng() % F.NumFrame); };
  auto Target = [&] { return static_cast<std::uint32_t>(Rng() % N); };
  const bc::Op Ops[] = {bc::Op::Mov,    bc::Op::Add,   bc::Op::Store8,
                        bc::Op::Ret,    bc::Op::Jmp,   bc::Op::CondBr,
                        bc::Op::CmpBr};
  for (std::uint32_t I = 0; I < N; ++I) {
    bc::Inst In;
    In.Code = Ops[Rng() % std::size(Ops)];
    In.Sub = 1;
    In.A = Slot();
    In.B = Slot();
    In.C = Slot();
    if (In.Code == bc::Op::Jmp)
      In.A = Target();
    if (In.Code == bc::Op::CondBr) {
      In.B = Target();
      In.C = Target();
    }
    if (In.Code == bc::Op::CmpBr)
      In.Imm = static_cast<std::int64_t>(
          Target() | static_cast<std::uint64_t>(Target()) << 32);
    F.Code.push_back(In);
  }
  return F;
}

TEST(BytecodeSlotMetaTest, SweepMatchesFixpointOnRandomCode) {
  std::mt19937_64 Rng(2021);
  for (int Round = 0; Round < 2000; ++Round) {
    bc::BCFunction F = makeRandomCode(Rng);
    const std::vector<bc::SlotMeta> Want = slotMetaByFixpoint(F);
    bc::computeSlotMeta(F);
    ASSERT_EQ(F.Slots.size(), Want.size());
    for (std::uint32_t S = 0; S < F.NumFrame; ++S) {
      SCOPED_TRACE("round " + std::to_string(Round) + ", slot " +
                   std::to_string(S));
      EXPECT_EQ(F.Slots[S].LiveBegin, Want[S].LiveBegin);
      EXPECT_EQ(F.Slots[S].LiveEnd, Want[S].LiveEnd);
      EXPECT_EQ(F.Slots[S].Reads, Want[S].Reads);
      EXPECT_EQ(F.Slots[S].Weight, Want[S].Weight);
    }
    if (HasFailure())
      return;
  }
}

} // namespace
