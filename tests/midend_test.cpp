//===--- midend_test.cpp - Mid-end pass and CFG snapshot unit tests -------===//
#include "ExecutionTestHelper.h"
#include "fuzz/Fuzz.h"
#include "midend/CFGSnapshot.h"
#include "midend/Passes.h"
#include "support/ContentHash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

using namespace mcc;
using namespace mcc::test;

namespace {

/// Compiles, optionally unrolls with explicit options, executes, and also
/// returns structural facts for assertions.
struct UnrollHarness {
  std::unique_ptr<CompilerInstance> CI;
  midend::LoopUnrollStats Stats;

  UnrollHarness(const std::string &Source,
                midend::LoopUnrollOptions Opts,
                bool IRBuilderMode = false) {
    CompilerOptions O;
    O.LangOpts.OpenMPEnableIRBuilder = IRBuilderMode;
    CI = std::make_unique<CompilerInstance>(O);
    EXPECT_TRUE(CI->compileSource(Source)) << CI->renderDiagnostics();
    Stats = midend::runLoopUnroll(*CI->getIRModule(), Opts);
    midend::runSimplifyCFG(*CI->getIRModule());
    midend::runDCE(*CI->getIRModule());
    EXPECT_EQ(ir::verifyModule(*CI->getIRModule()), "")
        << ir::printModule(*CI->getIRModule());
  }

  std::int64_t runMain() {
    interp::ExecutionEngine EE(*CI->getIRModule());
    return EE.runFunction("main", {}).I;
  }

  /// Occurrences of a substring in the IR text (e.g. body markers).
  unsigned countInIR(const std::string &Needle) {
    std::string Text = CI->getIRText();
    unsigned N = 0;
    std::size_t Pos = 0;
    while ((Pos = Text.find(Needle, Pos)) != std::string::npos) {
      ++N;
      Pos += Needle.size();
    }
    return N;
  }
};

const char *UnrollPartial4 = R"(
  int acc = 0;
  int main() {
    #pragma omp unroll partial(4)
    for (int i = 0; i < 10; ++i)
      acc += i * 3;
    return acc;
  }
)";

TEST(LoopUnrollTest, ConditionalExitStrategyCorrect) {
  midend::LoopUnrollOptions Opts;
  Opts.Strat = midend::LoopUnrollOptions::Strategy::ConditionalExit;
  UnrollHarness H(UnrollPartial4, Opts);
  EXPECT_EQ(H.runMain(), 135); // 3 * 45
  EXPECT_GE(H.Stats.LoopsUnrolled, 1u);
  // The multiplication by 3 appears once per replicated body copy.
  EXPECT_GE(H.countInIR("mul i32"), 4u);
}

TEST(LoopUnrollTest, RemainderStrategyCorrect) {
  midend::LoopUnrollOptions Opts;
  Opts.Strat = midend::LoopUnrollOptions::Strategy::Remainder;
  // The remainder strategy needs the canonical skeleton: IRBuilder mode.
  UnrollHarness H(UnrollPartial4, Opts, /*IRBuilderMode=*/true);
  EXPECT_EQ(H.runMain(), 135);
  EXPECT_GE(H.Stats.LoopsWithRemainder, 1u);
  // The paper's Listing 2 structure: a separate remainder loop exists.
  EXPECT_GE(H.countInIR(".remainder"), 1u);
}

struct UnrollCase {
  int Trip;
  int Factor;
};

class UnrollSweep
    : public ::testing::TestWithParam<std::tuple<UnrollCase, int, int>> {};

TEST_P(UnrollSweep, SemanticsPreservedForAllFactorsAndTrips) {
  auto [C, StratIdx, Mode] = GetParam();
  std::string Source = "int acc = 0;\nint main() {\n#pragma omp unroll "
                       "partial(" +
                       std::to_string(C.Factor) +
                       ")\nfor (int i = 0; i < " + std::to_string(C.Trip) +
                       "; ++i)\n  acc += i + 1;\nreturn acc;\n}\n";
  midend::LoopUnrollOptions Opts;
  Opts.Strat = StratIdx == 0
                   ? midend::LoopUnrollOptions::Strategy::ConditionalExit
                   : midend::LoopUnrollOptions::Strategy::Remainder;
  UnrollHarness H(Source, Opts, /*IRBuilderMode=*/Mode == 1);
  std::int64_t Expected = static_cast<std::int64_t>(C.Trip) * (C.Trip + 1) / 2;
  EXPECT_EQ(H.runMain(), Expected)
      << "trip=" << C.Trip << " factor=" << C.Factor
      << " strat=" << StratIdx << " irbuilder=" << Mode;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UnrollSweep,
    ::testing::Combine(
        ::testing::Values(UnrollCase{0, 2}, UnrollCase{1, 4},
                          UnrollCase{7, 2}, UnrollCase{8, 2},
                          UnrollCase{9, 2}, UnrollCase{100, 8},
                          UnrollCase{13, 5}, UnrollCase{64, 16}),
        ::testing::Values(0, 1),   // strategy
        ::testing::Values(0, 1))); // pipeline mode

TEST(LoopUnrollTest, FullUnrollEliminatesBackEdgeTraffic) {
  const char *Source = R"(
    int acc = 0;
    int main() {
      #pragma omp unroll full
      for (int i = 0; i < 6; ++i)
        acc += i * i;
      return acc;
    }
  )";
  midend::LoopUnrollOptions Opts;
  UnrollHarness H(Source, Opts, /*IRBuilderMode=*/true);
  EXPECT_EQ(H.runMain(), 55);
  EXPECT_EQ(H.Stats.LoopsFullyUnrolled, 1u);
}

TEST(LoopUnrollTest, FullUnrollOverLimitFallsBack) {
  const char *Source = R"(
    int acc = 0;
    int main() {
      #pragma omp unroll full
      for (int i = 0; i < 100; ++i)
        acc += 1;
      return acc;
    }
  )";
  midend::LoopUnrollOptions Opts;
  Opts.FullUnrollMax = 16; // force the fallback path
  UnrollHarness H(Source, Opts, /*IRBuilderMode=*/true);
  EXPECT_EQ(H.runMain(), 100);
  EXPECT_EQ(H.Stats.LoopsFullyUnrolled, 0u);
  EXPECT_GE(H.Stats.LoopsUnrolled, 1u);
}

TEST(LoopUnrollTest, HeuristicRespectsSizeLimit) {
  const char *Source = R"(
    int acc = 0;
    int main() {
      #pragma omp unroll
      for (int i = 0; i < 10; ++i)
        acc += i;
      return acc;
    }
  )";
  {
    midend::LoopUnrollOptions Opts;
    Opts.HeuristicSizeLimit = 1; // too small: skip
    UnrollHarness H(Source, Opts);
    EXPECT_EQ(H.Stats.LoopsSkipped, 1u);
    EXPECT_EQ(H.runMain(), 45);
  }
  {
    midend::LoopUnrollOptions Opts; // default: unroll
    UnrollHarness H(Source, Opts);
    EXPECT_GE(H.Stats.LoopsUnrolled, 1u);
    EXPECT_EQ(H.runMain(), 45);
  }
}

TEST(LoopUnrollTest, MetadataClearedAfterProcessing) {
  midend::LoopUnrollOptions Opts;
  UnrollHarness H(UnrollPartial4, Opts);
  // Re-running the pass must be a no-op.
  midend::LoopUnrollStats Again =
      midend::runLoopUnroll(*H.CI->getIRModule(), Opts);
  EXPECT_EQ(Again.LoopsUnrolled, 0u);
}

TEST(LoopUnrollTest, VectorizeOnlyMetadataIgnored) {
  const char *Source = R"(
    int acc = 0;
    int main() {
      #pragma omp simd
      for (int i = 0; i < 10; ++i)
        acc += i;
      return acc;
    }
  )";
  midend::LoopUnrollOptions Opts;
  UnrollHarness H(Source, Opts);
  EXPECT_EQ(H.Stats.LoopsUnrolled, 0u);
  EXPECT_EQ(H.runMain(), 45);
}

TEST(SimplifyCFGTest, RemovesUnreachableBlocks) {
  ir::Module M;
  ir::Function *F = M.createFunction("f", ir::IRType::getI32(), {});
  ir::IRBuilder B(M);
  B.setInsertPoint(F->createBlock("entry"));
  B.createRet(M.getI32(1));
  ir::BasicBlock *Dead = F->createBlock("dead");
  B.setInsertPoint(Dead);
  B.createRet(M.getI32(2));
  EXPECT_EQ(F->blocks().size(), 2u);
  EXPECT_EQ(midend::runSimplifyCFG(M), 1u);
  EXPECT_EQ(F->blocks().size(), 1u);
  EXPECT_EQ(ir::verifyModule(M), "");
}

TEST(SimplifyCFGTest, PrunesPhisOfRemovedPredecessors) {
  ir::Module M;
  ir::Function *F = M.createFunction("f", ir::IRType::getI32(), {});
  ir::IRBuilder B(M);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Dead = F->createBlock("dead");
  ir::BasicBlock *Join = F->createBlock("join");
  B.setInsertPoint(Entry);
  B.createBr(Join);
  B.setInsertPoint(Dead);
  B.createBr(Join);
  B.setInsertPoint(Join);
  ir::Instruction *Phi = B.createPhi(ir::IRType::getI32(), "p");
  Phi->addIncoming(M.getI32(1), Entry);
  Phi->addIncoming(M.getI32(2), Dead);
  B.createRet(Phi);

  EXPECT_EQ(midend::runSimplifyCFG(M), 1u);
  EXPECT_EQ(Phi->getNumIncoming(), 1u);
  EXPECT_EQ(ir::verifyModule(M), "");

  interp::ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("f", {}).I, 1);
}

TEST(PipelineTest, FullPipelineOnParallelTiledUnrolledLoop) {
  // The whole stack at once, checked for semantics.
  const char *Source = R"(
    int sum = 0;
    int main() {
      #pragma omp parallel for reduction(+: sum)
      #pragma omp tile sizes(8)
      #pragma omp unroll partial(2)
      for (int i = 0; i < 100; ++i)
        sum += i;
      return sum;
    }
  )";
  expectAllPipelinesReturn(Source, 4950);
}

//===----------------------------------------------------------------------===//
// Store-to-load forwarding and loop scalar promotion
//===----------------------------------------------------------------------===//

/// Compiles without the default pipeline so individual passes can be
/// applied and inspected.
struct PassHarness {
  std::unique_ptr<CompilerInstance> CI;

  explicit PassHarness(const std::string &Source) {
    CI = std::make_unique<CompilerInstance>(CompilerOptions{});
    EXPECT_TRUE(CI->compileSource(Source)) << CI->renderDiagnostics();
    midend::runSimplifyCFG(*CI->getIRModule());
  }

  std::int64_t runMain() {
    interp::ExecutionEngine EE(*CI->getIRModule());
    return EE.runFunction("main", {}).I;
  }

  unsigned countInIR(const std::string &Needle) {
    std::string Text = ir::printModule(*CI->getIRModule());
    unsigned N = 0;
    std::size_t Pos = 0;
    while ((Pos = Text.find(Needle, Pos)) != std::string::npos) {
      ++N;
      Pos += Needle.size();
    }
    return N;
  }
};

TEST(StoreForwardTest, ForwardsBlockLocalStoreToLoad) {
  PassHarness H(R"(
    int main() {
      int x = 0;
      x = 5;
      int y = x + 2;
      return y;
    }
  )");
  EXPECT_GE(midend::runStoreForward(*H.CI->getIRModule()), 1u);
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 7);
}

TEST(StoreForwardTest, CallsInvalidateKnownValues) {
  // f() rewrites the global between the store and the load: the load
  // must not be forwarded across the call.
  PassHarness H(R"(
    int g = 1;
    int f() { g = 2; return 0; }
    int main() {
      g = 5;
      int ignored = f();
      return g;
    }
  )");
  midend::runStoreForward(*H.CI->getIRModule());
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 2);
}

TEST(ScalarPromoteTest, PromotesAccumulatorAndIVOutOfLoop) {
  PassHarness H(R"(
    long acc = 0;
    int main() {
      for (int i = 0; i < 100; ++i)
        acc = acc + i;
      int out = acc % 1000;
      return out;
    }
  )");
  // Both the global accumulator and the alloca-resident induction
  // variable leave the loop.
  EXPECT_GE(midend::runScalarPromote(*H.CI->getIRModule()), 2u);
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  // Only the preheader load and the post-loop read remain; the loop
  // body itself carries the value in SSA.
  EXPECT_EQ(H.countInIR("load i64, ptr @acc"), 2u);
  EXPECT_EQ(H.runMain(), 950);
}

TEST(ScalarPromoteTest, CallInLoopBlocksPromotion) {
  PassHarness H(R"(
    int g = 0;
    int bump() { g = g + 1; return 0; }
    int main() {
      for (int i = 0; i < 5; ++i) {
        int ignored = bump();
      }
      return g;
    }
  )");
  midend::runScalarPromote(*H.CI->getIRModule());
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 5);
}

TEST(ScalarPromoteTest, ZeroTripLoopKeepsInitialValue) {
  PassHarness H(R"(
    long acc = 7;
    int main() {
      for (int i = 0; i < 0; ++i)
        acc = acc + 1;
      return acc;
    }
  )");
  midend::runScalarPromote(*H.CI->getIRModule());
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 7);
}

TEST(ScalarPromoteTest, ArrayTrafficDoesNotBlockDistinctScalar) {
  // GEP accesses into @a provably stay inside @a, so the scalar @s is
  // still promotable alongside them.
  PassHarness H(R"(
    long a[4];
    long s = 0;
    int main() {
      for (int i = 0; i < 4; ++i) {
        a[i] = i;
        s = s + a[i];
      }
      return s;
    }
  )");
  EXPECT_GE(midend::runScalarPromote(*H.CI->getIRModule()), 1u);
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 6);
}

TEST(ScalarPromoteTest, UnrollRemainderExitPromotes) {
  // The main unrolled loop exits into the remainder loop's header: the
  // writeback needs a split exit edge, and the accumulator must be
  // promoted out of both loops.
  PassHarness H(R"(
    long acc = 0;
    int main() {
      #pragma omp unroll partial(4)
      for (int i = 0; i < 10; ++i)
        acc = acc + i;
      return acc;
    }
  )");
  midend::runLoopUnroll(*H.CI->getIRModule(), {});
  midend::runSimplifyCFG(*H.CI->getIRModule());
  midend::runStoreForward(*H.CI->getIRModule());
  EXPECT_GE(midend::runScalarPromote(*H.CI->getIRModule()), 1u);
  midend::runDCE(*H.CI->getIRModule());
  EXPECT_EQ(ir::verifyModule(*H.CI->getIRModule()), "");
  EXPECT_EQ(H.runMain(), 45);
}

TEST(ScalarPromoteTest, UnreachablePredecessorLeavesLoopAlone) {
  // entry -> header -> join -> latch -> header, header -> exit, and an
  // unreachable dead -> join. The loop body must not take in `dead`, and
  // the loop is left alone: a phi at `join` would need a value for the
  // edge from `dead`, where none is defined.
  ir::Module M;
  const ir::IRType *I64 = ir::IRType::getI64();
  ir::GlobalVariable *G = M.createGlobal("g", I64, 1);
  ir::Function *F = M.createFunction("main", I64, {});
  ir::IRBuilder B(M);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Header = F->createBlock("header");
  ir::BasicBlock *Dead = F->createBlock("dead");
  ir::BasicBlock *Join = F->createBlock("join");
  ir::BasicBlock *Latch = F->createBlock("latch");
  ir::BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Header);
  B.setInsertPoint(Header);
  ir::Value *V = B.createLoad(I64, G, "v");
  B.createCondBr(B.createICmp(ir::CmpPred::SLT, V, B.getI64(10)), Join, Exit);
  B.setInsertPoint(Dead);
  B.createBr(Join);
  B.setInsertPoint(Join);
  ir::Value *W = B.createLoad(I64, G, "w");
  B.createStore(B.createAdd(W, B.getI64(1)), G);
  B.createBr(Latch);
  B.setInsertPoint(Latch);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet(B.createLoad(I64, G, "r"));
  ASSERT_EQ(ir::verifyModule(M), "");

  EXPECT_EQ(midend::runScalarPromote(M), 0u);
  EXPECT_EQ(ir::verifyModule(M), "");
  interp::ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("main", {}).I, 10);
}

TEST(ScalarPromoteTest, PromotionRequeuesLoopHoldingItsPreheader) {
  // A small loop with no memory traffic exits straight into the header of
  // a larger loop that counts @g up to 100:
  //   entry -> small <-> small.latch, small -> header
  //   header -> body -> latch -> header, header -> exit
  // The small loop sorts first and is rejected. Promoting @g out of the
  // larger loop puts its initial load into `small`, the larger loop's
  // preheader, so the small loop must be tried again and hoist that load
  // into `entry`.
  ir::Module M;
  const ir::IRType *I64 = ir::IRType::getI64();
  ir::GlobalVariable *G = M.createGlobal("g", I64, 1);
  ir::Function *F = M.createFunction("main", I64, {});
  ir::IRBuilder B(M);
  ir::BasicBlock *Entry = F->createBlock("entry");
  ir::BasicBlock *Small = F->createBlock("small");
  ir::BasicBlock *SmallLatch = F->createBlock("small.latch");
  ir::BasicBlock *Header = F->createBlock("header");
  ir::BasicBlock *Body = F->createBlock("body");
  ir::BasicBlock *Latch = F->createBlock("latch");
  ir::BasicBlock *Exit = F->createBlock("exit");
  B.setInsertPoint(Entry);
  B.createBr(Small);
  B.setInsertPoint(Small);
  ir::Instruction *I = B.createPhi(I64, "i");
  B.createCondBr(B.createICmp(ir::CmpPred::SLT, I, B.getI64(10)), SmallLatch,
                 Header);
  B.setInsertPoint(SmallLatch);
  ir::Value *Next = B.createAdd(I, B.getI64(1));
  B.createBr(Small);
  I->addIncoming(B.getI64(0), Entry);
  I->addIncoming(Next, SmallLatch);
  B.setInsertPoint(Header);
  ir::Value *V = B.createLoad(I64, G, "v");
  B.createCondBr(B.createICmp(ir::CmpPred::SLT, V, B.getI64(100)), Body, Exit);
  B.setInsertPoint(Body);
  ir::Value *W = B.createLoad(I64, G, "w");
  B.createStore(B.createAdd(W, B.getI64(1)), G);
  B.createBr(Latch);
  B.setInsertPoint(Latch);
  B.createBr(Header);
  B.setInsertPoint(Exit);
  B.createRet(B.createLoad(I64, G, "r"));
  ASSERT_EQ(ir::verifyModule(M), "");

  EXPECT_EQ(midend::runScalarPromote(M), 2u);
  EXPECT_EQ(ir::verifyModule(M), "");
  auto loadsOfG = [&](const ir::BasicBlock *BB) {
    return std::count_if(BB->instructions().begin(),
                         BB->instructions().end(), [&](const auto &IP) {
                           return IP->getOpcode() == ir::Opcode::Load &&
                                  IP->getOperand(0) == G;
                         });
  };
  EXPECT_EQ(loadsOfG(Entry), 1);
  EXPECT_EQ(loadsOfG(Small), 0);
  EXPECT_EQ(loadsOfG(Header), 0);
  EXPECT_EQ(loadsOfG(Body), 0);
  interp::ExecutionEngine EE(M);
  EXPECT_EQ(EE.runFunction("main", {}).I, 100);
}

//===----------------------------------------------------------------------===//
// CFG snapshot against brute-force references
//===----------------------------------------------------------------------===//

/// A seeded random CFG of 1-64 blocks. Block 0 is the entry; each block
/// returns or branches (conditionally or not) to any block, itself
/// included, and a conditional branch may name one block twice. Random
/// targets make irreducible cycles and unreachable blocks common.
struct RandomCFG {
  ir::Module M;
  ir::Function *F = nullptr;
  std::vector<std::vector<unsigned>> Succs; // terminator operand order

  explicit RandomCFG(std::uint64_t Seed) : State(Seed) {
    F = M.createFunction("f", ir::IRType::getVoid(), {});
    const unsigned N = 1 + draw(64);
    std::vector<ir::BasicBlock *> Blocks;
    for (unsigned B = 0; B < N; ++B)
      Blocks.push_back(F->createBlock("b" + std::to_string(B)));
    Succs.resize(N);
    for (unsigned B = 0; B < N; ++B) {
      ir::Opcode Op = ir::Opcode::Br;
      switch (draw(8)) {
      case 0:
        Op = ir::Opcode::Ret;
        break;
      case 1:
      case 2:
      case 3:
        Succs[B] = {draw(N)};
        break;
      case 4: {
        unsigned T = draw(N);
        Succs[B] = {T, T};
        break;
      }
      default:
        Succs[B] = {draw(N), draw(N)};
      }
      std::vector<ir::Value *> Ops;
      if (Succs[B].size() == 2)
        Ops.push_back(M.getI1(true));
      for (unsigned S : Succs[B])
        Ops.push_back(Blocks[S]);
      Blocks[B]->append(std::make_unique<ir::Instruction>(
          Op, ir::IRType::getVoid(), std::move(Ops)));
    }
  }

  /// The seed's stream continues after construction (splitmix64).
  unsigned draw(unsigned Bound) {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<unsigned>((Z ^ (Z >> 31)) % Bound);
  }

private:
  std::uint64_t State;
};

/// Blocks reachable from the entry without passing through \p Removed.
std::set<unsigned> reachableWithout(const RandomCFG &G, unsigned Removed) {
  std::set<unsigned> Seen;
  std::vector<unsigned> Work;
  if (Removed != 0)
    Work.push_back(0);
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    if (!Seen.insert(B).second)
      continue;
    for (unsigned S : G.Succs[B])
      if (S != Removed)
        Work.push_back(S);
  }
  return Seen;
}

void postOrder(const RandomCFG &G, unsigned B, std::set<unsigned> &Seen,
               std::vector<unsigned> &Out) {
  Seen.insert(B);
  for (unsigned S : G.Succs[B])
    if (!Seen.count(S))
      postOrder(G, S, Seen, Out);
  Out.push_back(B);
}

TEST(CFGSnapshotTest, MatchesBruteForceOnRandomCFGs) {
  bool SawIrreducible = false, SawSelfLoop = false, SawSameTwice = false,
       SawUnreachable = false;
  for (std::uint64_t Seed = 1; Seed <= 400; ++Seed) {
    RandomCFG G(Seed);
    midend::CFGSnapshot CFG(*G.F);
    const unsigned N = static_cast<unsigned>(G.Succs.size());
    ASSERT_EQ(CFG.size(), N);
    SCOPED_TRACE("seed " + std::to_string(Seed));

    // Edges: successors once each in terminator order; predecessors as
    // BasicBlock::predecessors() lists them.
    std::vector<std::vector<unsigned>> Preds(N);
    for (unsigned B = 0; B < N; ++B) {
      ASSERT_EQ(CFG.index(CFG.block(B)), B);
      std::vector<unsigned> Distinct;
      for (unsigned S : G.Succs[B])
        if (std::find(Distinct.begin(), Distinct.end(), S) == Distinct.end())
          Distinct.push_back(S);
      EXPECT_EQ(std::vector<unsigned>(CFG.succs(B).begin(),
                                      CFG.succs(B).end()),
                Distinct);
      std::vector<unsigned> FromIR;
      for (ir::BasicBlock *P : CFG.block(B)->predecessors())
        FromIR.push_back(CFG.index(P));
      EXPECT_EQ(std::vector<unsigned>(CFG.preds(B).begin(),
                                      CFG.preds(B).end()),
                FromIR);
      for (unsigned S : Distinct)
        Preds[S].push_back(B);
      SawSelfLoop |= std::count(Distinct.begin(), Distinct.end(), B) != 0;
      SawSameTwice |= G.Succs[B].size() == 2 && Distinct.size() == 1;
    }

    // Reverse post-order of a recursive depth-first walk.
    std::set<unsigned> Seen;
    std::vector<unsigned> RPO;
    postOrder(G, 0, Seen, RPO);
    std::reverse(RPO.begin(), RPO.end());
    EXPECT_EQ(CFG.rpo(), RPO);
    std::vector<unsigned> RPONum(N, N);
    for (unsigned K = 0; K < RPO.size(); ++K)
      RPONum[RPO[K]] = K;
    SawUnreachable |= RPO.size() < N;

    // A dominates B iff B is unreachable once A is removed.
    std::set<unsigned> Reach = reachableWithout(G, N);
    std::vector<std::set<unsigned>> Dom(N); // Dom[B]: dominators of B
    for (unsigned A = 0; A < N; ++A) {
      std::set<unsigned> Without = reachableWithout(G, A);
      for (unsigned B = 0; B < N; ++B) {
        bool Expected = Reach.count(A) && Reach.count(B) &&
                        (A == B || !Without.count(B));
        EXPECT_EQ(CFG.dominates(A, B), Expected) << A << " dom " << B;
        if (Expected)
          Dom[B].insert(A);
      }
    }
    for (unsigned B = 0; B < N; ++B) {
      if (B == 0 || !Reach.count(B)) {
        EXPECT_EQ(CFG.idom(B), midend::CFGSnapshot::None);
        continue;
      }
      // The immediate dominator is the strict dominator every other
      // strict dominator dominates.
      unsigned ID = CFG.idom(B);
      ASSERT_TRUE(ID != B && Dom[B].count(ID)) << B;
      for (unsigned A : Dom[B])
        EXPECT_TRUE(A == B || Dom[ID].count(A))
            << A << " above idom of " << B;
    }

    // Natural loops: back edges B->H with H dominating B; bodies by a
    // backward walk over reachable predecessors, stopping at H.
    std::map<unsigned, std::set<unsigned>> Body;
    std::map<unsigned, std::vector<unsigned>> BackSources;
    for (unsigned B : RPO)
      for (unsigned H : CFG.succs(B)) {
        if (RPONum[H] <= RPONum[B] && !Dom[B].count(H))
          SawIrreducible = true; // a retreating edge that is no back edge
        if (!Dom[B].count(H))
          continue;
        BackSources[H].push_back(B);
        std::set<unsigned> &Blocks = Body[H];
        Blocks.insert(H);
        std::vector<unsigned> Work = {B};
        while (!Work.empty()) {
          unsigned Cur = Work.back();
          Work.pop_back();
          if (!Blocks.insert(Cur).second)
            continue;
          for (unsigned P : Preds[Cur])
            if (Reach.count(P))
              Work.push_back(P);
        }
      }
    const std::vector<midend::CFGSnapshot::Loop> Loops = CFG.naturalLoops();
    ASSERT_EQ(Loops.size(), Body.size());
    for (const midend::CFGSnapshot::Loop &L : Loops) {
      ASSERT_TRUE(Body.count(L.Header)) << "header " << L.Header;
      std::vector<unsigned> Expected(Body[L.Header].begin(),
                                     Body[L.Header].end());
      std::sort(Expected.begin(), Expected.end(),
                [&](unsigned X, unsigned Y) { return RPONum[X] < RPONum[Y]; });
      EXPECT_EQ(L.Body, Expected) << "header " << L.Header;
      EXPECT_EQ(L.BackSources, BackSources[L.Header]);
      for (unsigned B = 0; B < N; ++B)
        EXPECT_EQ(CFG.inLoop(L, B), Body[L.Header].count(B) != 0);
    }
  }
  EXPECT_TRUE(SawIrreducible);
  EXPECT_TRUE(SawSelfLoop);
  EXPECT_TRUE(SawSameTwice);
  EXPECT_TRUE(SawUnreachable);
}

/// The indices of \p Fresh's blocks \p Xs in \p CFG (None stays None).
std::vector<unsigned> inSnapshot(const midend::CFGSnapshot &CFG,
                                 const midend::CFGSnapshot &Fresh,
                                 std::span<const unsigned> Xs) {
  std::vector<unsigned> Out;
  for (unsigned X : Xs)
    Out.push_back(X == midend::CFGSnapshot::None
                      ? X
                      : CFG.index(Fresh.block(X)));
  return Out;
}

TEST(CFGSnapshotTest, SplitEdgeMatchesFreshSnapshot) {
  constexpr unsigned None = midend::CFGSnapshot::None;
  bool SawBackEdge = false, SawNewIdom = false, SawUnreachable = false,
       SawEntry = false;
  for (std::uint64_t Seed = 1; Seed <= 400; ++Seed) {
    RandomCFG G(Seed);
    midend::CFGSnapshot CFG(*G.F);
    std::vector<midend::CFGSnapshot::Loop> Loops = CFG.naturalLoops();
    for (unsigned Round = 0; Round < 4; ++Round) {
      std::vector<std::pair<unsigned, unsigned>> Edges;
      for (unsigned B = 0; B < CFG.size(); ++B)
        for (unsigned S : CFG.succs(B))
          Edges.push_back({B, S});
      if (Edges.empty())
        break;
      const auto [C, E] = Edges[G.draw(static_cast<unsigned>(Edges.size()))];
      SCOPED_TRACE("seed " + std::to_string(Seed) + " split " +
                   std::to_string(C) + "->" + std::to_string(E));
      SawBackEdge |= CFG.dominates(E, C);
      SawUnreachable |= !CFG.isReachable(C);
      SawEntry |= E == 0;

      // The edit scalar promotion makes: a block right after C that
      // branches to E, with C's terminator retargeted.
      ir::BasicBlock *From = CFG.block(C), *To = CFG.block(E);
      ir::BasicBlock *W = G.F->createBlockAfter(From, "w");
      ir::Instruction *T = From->getTerminator();
      for (unsigned K = 0; K < T->getNumOperands(); ++K)
        if (T->getOperand(K) == To)
          T->setOperand(K, W);
      W->append(std::make_unique<ir::Instruction>(
          ir::Opcode::Br, ir::IRType::getVoid(), std::vector<ir::Value *>{To}));
      const unsigned Wi = CFG.splitEdge(C, E, W, Loops);
      ASSERT_EQ(Wi, CFG.size() - 1);
      ASSERT_EQ(CFG.index(W), Wi);

      // Everything must be what a fresh snapshot computes, up to W's
      // index: positions after C moved up by one in the fresh one.
      midend::CFGSnapshot Fresh(*G.F);
      ASSERT_EQ(Fresh.size(), CFG.size());
      auto Map = [&](std::span<const unsigned> Xs) {
        return inSnapshot(CFG, Fresh, Xs);
      };
      auto Got = [](std::span<const unsigned> Xs) {
        return std::vector<unsigned>(Xs.begin(), Xs.end());
      };
      for (unsigned F = 0; F < Fresh.size(); ++F) {
        const unsigned B = CFG.index(Fresh.block(F));
        ASSERT_NE(B, None);
        EXPECT_EQ(Got(CFG.succs(B)), Map(Fresh.succs(F))) << "succs " << B;
        EXPECT_EQ(Got(CFG.preds(B)), Map(Fresh.preds(F))) << "preds " << B;
        EXPECT_EQ(CFG.isReachable(B), Fresh.isReachable(F)) << B;
        const unsigned FreshIDom = Fresh.idom(F);
        EXPECT_EQ(CFG.idom(B), Map({&FreshIDom, 1}).front()) << "idom " << B;
        for (unsigned F2 = 0; F2 < Fresh.size(); ++F2)
          EXPECT_EQ(CFG.dominates(B, CFG.index(Fresh.block(F2))),
                    Fresh.dominates(F, F2))
              << B << " dom " << F2;
      }
      EXPECT_EQ(CFG.rpo(), Map(Fresh.rpo()));
      SawNewIdom |= CFG.idom(E) == Wi;

      const std::vector<midend::CFGSnapshot::Loop> FreshLoops =
          Fresh.naturalLoops();
      ASSERT_EQ(Loops.size(), FreshLoops.size());
      for (const midend::CFGSnapshot::Loop &FL : FreshLoops) {
        const unsigned H = CFG.index(Fresh.block(FL.Header));
        auto It = std::find_if(Loops.begin(), Loops.end(),
                               [&](const auto &L) { return L.Header == H; });
        ASSERT_NE(It, Loops.end()) << "header " << H;
        EXPECT_EQ(It->Body, Map(FL.Body)) << "header " << H;
        EXPECT_EQ(It->BackSources, Map(FL.BackSources)) << "header " << H;
        for (unsigned F = 0; F < Fresh.size(); ++F)
          EXPECT_EQ(CFG.inLoop(*It, CFG.index(Fresh.block(F))),
                    Fresh.inLoop(FL, F));
      }
    }
  }
  EXPECT_TRUE(SawBackEdge);
  EXPECT_TRUE(SawNewIdom);
  EXPECT_TRUE(SawUnreachable);
  EXPECT_TRUE(SawEntry);
}

//===----------------------------------------------------------------------===//
// -O1 IR byte-identity
//===----------------------------------------------------------------------===//

/// Functions with several loop nests each, which the fuzz corpus (one
/// nest per function, siblings only under `fuse` and `distribute_loop`)
/// rarely produces: scalar promotion meets sibling loops, promotions
/// that feed an enclosing loop, split exit edges that lead into another
/// loop, and stores that do not run on every iteration.
const char *const MultiNestPrograms[] = {
    // Two sibling accumulating nests.
    R"(
      long sa = 0;
      long sb = 0;
      long f(int n) {
        for (int i = 0; i < n; i += 1)
          for (int j = 0; j < 4; j += 1)
            sa = sa + i * j;
        for (int i = 0; i < n; i += 1)
          for (int j = 0; j < 3; j += 1)
            sb = sb + i + j;
        return sa + sb;
      }
      int main() { return f(5); }
    )",
    // A 3-deep nest that accumulates at every level.
    R"(
      long l0 = 0;
      long l1 = 0;
      long l2 = 0;
      long f(int n) {
        for (int i = 0; i < n; i += 1) {
          l0 = l0 + i;
          for (int j = 0; j < 3; j += 1) {
            l1 = l1 + j;
            for (int k = 0; k < 2; k += 1)
              l2 = l2 + i * j + k;
          }
        }
        return l0 + l1 + l2;
      }
      int main() { return f(4); }
    )",
    // An `unroll partial` loop whose remainder exit runs straight into
    // the next nest.
    R"(
      long rem = 0;
      long nxt = 0;
      long f(int n) {
        #pragma omp unroll partial(4)
        for (int i = 0; i < n; i += 1)
          rem = rem + i;
        for (int i = 0; i < n; i += 1)
          for (int j = 0; j < 2; j += 1)
            nxt = nxt + rem + j;
        return rem + nxt;
      }
      int main() { return f(10); }
    )",
    // An inner loop with a conditional store.
    R"(
      long a[16];
      long pos = 0;
      long f(int n) {
        for (int i = 0; i < n; i += 1) {
          a[i % 16] = i;
          for (int j = 0; j < 5; j += 1)
            if (a[j] > 2)
              pos = pos + j;
        }
        return pos;
      }
      int main() { return f(8); }
    )",
};

/// The differential corpus (fuzz seeds 2021..2220), the first four
/// `unroll full` programs from fuzz seed 100 upward and the multi-nest
/// programs above.
std::vector<std::string> digestCorpus() {
  std::vector<std::string> Sources;
  for (std::uint64_t Seed = 2021; Seed < 2221; ++Seed)
    Sources.push_back(fuzz::generateProgram(Seed).render());
  for (std::uint64_t Seed = 100, Full = 0; Full < 4; ++Seed)
    if (fuzz::generateProgram(Seed).Pragmas.UnrollFull) {
      Sources.push_back(fuzz::generateProgram(Seed).render());
      ++Full;
    }
  Sources.insert(Sources.end(), std::begin(MultiNestPrograms),
                 std::end(MultiNestPrograms));
  return Sources;
}

/// One FNV-1a digest over the printed -O1 IR of the digest corpus, each
/// program compiled under both lowerings. A mid-end change that only
/// makes the passes faster must leave every byte, and so this constant,
/// as it is. A change that means to alter the IR records the new constant
/// and says why.
TEST(MidendDigestTest, O1IRIsByteIdenticalOnFuzzCorpus) {
  std::uint64_t Digest = FNVOffsetBasis;
  for (const std::string &Source : digestCorpus()) {
    for (bool IRBuilder : {false, true}) {
      CompilerOptions O;
      O.RunMidend = true;
      O.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
      CompilerInstance CI(O);
      // A legality refusal stays a refusal; it enters the digest too.
      Digest = hashBytes(CI.compileSource(Source)
                             ? ir::printModule(*CI.getIRModule())
                             : "refused\n",
                         Digest);
    }
  }
  EXPECT_EQ(Digest, 0xb87fb32086ceb1afULL);
}

/// The first instruction of \p F that breaks one of the -O1 output's
/// invariants, described, or "" if there is none:
///   - no trivial phi (every incoming value other than the phi itself is
///     the same value);
///   - no `icmp ne (zext i1 X), 0`, a condition that round-trips a
///     compare through a bool;
///   - no instruction that no side-effecting instruction (store, call,
///     branch, return, unreachable, trapping division) depends on.
std::string firstO1Violation(const ir::Function &F) {
  auto where = [&](const ir::Instruction &I, const char *What) {
    return F.getName() + "/" + I.getParent()->getName() + ": " + What;
  };
  std::set<const ir::Instruction *> Live;
  std::vector<const ir::Instruction *> Work;
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions()) {
      switch (I->getOpcode()) {
      case ir::Opcode::Store:
      case ir::Opcode::Call:
      case ir::Opcode::Br:
      case ir::Opcode::Ret:
      case ir::Opcode::Unreachable:
      case ir::Opcode::SDiv:
      case ir::Opcode::UDiv:
      case ir::Opcode::SRem:
      case ir::Opcode::URem:
        Live.insert(I.get());
        Work.push_back(I.get());
        break;
      default:
        break;
      }
      if (I->getOpcode() == ir::Opcode::Phi) {
        const ir::Value *Same = nullptr;
        bool Trivial = true;
        for (unsigned P = 0; P < I->getNumIncoming(); ++P) {
          const ir::Value *V = I->getIncomingValue(P);
          if (V == I.get())
            continue;
          Trivial &= !Same || Same == V;
          Same = V;
        }
        if (Trivial)
          return where(*I, "trivial phi");
      }
      if (I->getOpcode() == ir::Opcode::ICmp &&
          I->Pred == ir::CmpPred::NE) {
        const auto *Z = ir::ir_dyn_cast<ir::Instruction>(I->getOperand(0));
        const auto *Zero = ir::ir_dyn_cast<ir::ConstantInt>(I->getOperand(1));
        if (Z && Z->getOpcode() == ir::Opcode::ZExt &&
            Z->getOperand(0)->getType() == ir::IRType::getI1() && Zero &&
            Zero->getValue() == 0)
          return where(*I, "icmp ne of a widened i1");
      }
    }
  while (!Work.empty()) {
    const ir::Instruction *I = Work.back();
    Work.pop_back();
    for (const ir::Value *Op : I->operands())
      if (const auto *OpI = ir::ir_dyn_cast<ir::Instruction>(Op);
          OpI && Live.insert(OpI).second)
        Work.push_back(OpI);
  }
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      if (!Live.count(I.get()))
        return where(*I, "dead instruction");
  return "";
}

/// The mid-end leaves only the work a loop needs: checked on every
/// function of the digest corpus under both lowerings.
TEST(MidendInvariantTest, O1OutputHasNoTrivialPhiBoolRoundTripOrDeadCode) {
  for (const std::string &Source : digestCorpus())
    for (bool IRBuilder : {false, true}) {
      CompilerOptions O;
      O.RunMidend = true;
      O.LangOpts.OpenMPEnableIRBuilder = IRBuilder;
      CompilerInstance CI(O);
      if (!CI.compileSource(Source))
        continue;
      for (const auto &F : CI.getIRModule()->functions()) {
        const std::string V = firstO1Violation(*F);
        ASSERT_EQ(V, "") << (IRBuilder ? "irbuilder" : "legacy") << "\n"
                         << ir::printModule(*CI.getIRModule());
      }
    }
}

} // namespace
