#include "midend/Passes.h"

#include "midend/CFGSnapshot.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace mcc::midend {

using namespace ir;

namespace {

/// Removes phi-incoming entries whose block is unreachable (or not in
/// the function at all).
void prunePhis(BasicBlock *BB, const CFGSnapshot &CFG) {
  for (const auto &I : BB->instructions()) {
    if (I->getOpcode() != Opcode::Phi)
      break;
    // Rebuild the operand list without dead incoming blocks.
    std::vector<Value *> Kept;
    for (unsigned P = 0; P < I->getNumIncoming(); ++P) {
      unsigned In = CFG.index(I->getIncomingBlock(P));
      if (In != CFGSnapshot::None && CFG.isReachable(In)) {
        Kept.push_back(I->getIncomingValue(P));
        Kept.push_back(I->getIncomingBlock(P));
      }
    }
    if (Kept.size() != I->getNumOperands())
      I->setOperands(std::move(Kept));
  }
}

unsigned removeUnreachable(Function &F) {
  if (F.isDeclaration())
    return 0;
  CFGSnapshot CFG(F);
  std::vector<BasicBlock *> Dead;
  for (unsigned B = 0; B < CFG.size(); ++B)
    if (CFG.isReachable(B))
      prunePhis(CFG.block(B), CFG);
    else
      Dead.push_back(CFG.block(B));
  for (BasicBlock *BB : Dead)
    F.eraseBlock(BB);
  return static_cast<unsigned>(Dead.size());
}

bool hasSideEffects(const Instruction &I) {
  switch (I.getOpcode()) {
  case Opcode::Store:
  case Opcode::Call:
  case Opcode::Br:
  case Opcode::Ret:
  case Opcode::Unreachable:
    return true;
  case Opcode::SDiv:
  case Opcode::UDiv:
  case Opcode::SRem:
  case Opcode::URem:
    return true; // may trap
  default:
    return false;
  }
}

/// A pointer SSA value whose object identity is known exactly: two
/// distinct such values never alias (distinct allocas are distinct
/// storage, allocas are not globals, and distinct globals are distinct).
/// GEP results and loaded pointers stay "unknown" and are handled
/// conservatively.
bool isDistinctObject(const Value *V) {
  if (ir_dyn_cast<GlobalVariable>(V))
    return true;
  const auto *I = ir_dyn_cast<Instruction>(V);
  return I && I->getOpcode() == Opcode::Alloca;
}

unsigned forwardLoadsInFunction(Function &F) {
  // Loads proven redundant, mapped to the value they must yield. Uses
  // are rewritten function-wide at the end; chains (a forwarded load
  // feeding another forwarded load's key) are chased through Resolve.
  std::map<Value *, Value *> Replace;
  auto Resolve = [&Replace](Value *V) {
    for (auto It = Replace.find(V); It != Replace.end();
         It = Replace.find(V))
      V = It->second;
    return V;
  };

  unsigned Forwarded = 0;
  for (const auto &BB : F.blocks()) {
    // What each pointer currently holds, valid within this block only.
    std::map<Value *, Value *> Known;
    for (const auto &IP : BB->instructions()) {
      Instruction *I = IP.get();
      switch (I->getOpcode()) {
      case Opcode::Load: {
        Value *P = Resolve(I->getOperand(0));
        auto It = Known.find(P);
        if (It != Known.end() &&
            It->second->getType() == I->getType()) {
          Replace[I] = It->second;
          ++Forwarded;
        } else {
          // Remember the loaded value so a repeated load forwards too.
          Known[P] = I;
        }
        break;
      }
      case Opcode::Store: {
        Value *P = Resolve(I->getOperand(1));
        if (isDistinctObject(P)) {
          // The store touches exactly P: entries for other distinct
          // objects survive, unknown-pointer entries may alias P.
          for (auto It = Known.begin(); It != Known.end();)
            if (It->first != P && !isDistinctObject(It->first))
              It = Known.erase(It);
            else
              ++It;
        } else {
          // A store through a GEP or loaded pointer may hit anything.
          Known.clear();
        }
        Known[P] = Resolve(I->getOperand(0));
        break;
      }
      case Opcode::Call:
        // The callee may write any escaped or global storage.
        Known.clear();
        break;
      default:
        break;
      }
    }
  }

  if (Forwarded == 0)
    return 0;
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions())
      for (unsigned K = 0; K < IP->getNumOperands(); ++K)
        IP->setOperand(K, Resolve(IP->getOperand(K)));
  return Forwarded;
}

// ===--------------- Scalar promotion over natural loops ---------------=== //

/// Chases GEPs to the pointer they index into. Indexing stays within the
/// underlying object, so a GEP access aliases only its base object.
Value *baseObject(Value *V) {
  while (auto *I = ir_dyn_cast<Instruction>(V)) {
    if (I->getOpcode() != Opcode::GEP)
      break;
    V = I->getOperand(0);
  }
  return V;
}

/// An alloca is promotable storage only if its address never escapes:
/// every use in the function is as a load's pointer or a store's
/// destination (being a store's *value* operand publishes the address).
std::unordered_set<const Value *> nonEscapingAllocas(Function &F) {
  std::unordered_set<const Value *> Allocas, Escaped;
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions()) {
      if (IP->getOpcode() == Opcode::Alloca)
        Allocas.insert(IP.get());
      for (unsigned K = 0; K < IP->getNumOperands(); ++K) {
        Value *Op = IP->getOperand(K);
        const auto *OpI = ir_dyn_cast<Instruction>(Op);
        if (!OpI || OpI->getOpcode() != Opcode::Alloca)
          continue;
        bool Safe = (IP->getOpcode() == Opcode::Load && K == 0) ||
                    (IP->getOpcode() == Opcode::Store && K == 1);
        if (!Safe)
          Escaped.insert(Op);
      }
    }
  for (const Value *A : Escaped)
    Allocas.erase(A);
  return Allocas;
}

using Loop = CFGSnapshot::Loop;

/// Promotes scalars that live in memory (globals and non-escaping
/// allocas) into SSA registers across one natural loop: initial load in
/// the preheader, phis at the header and interior joins, writeback at
/// the single exit. This is what breaks the per-iteration
/// load/add/store round-trip on accumulator globals that store-to-load
/// forwarding (block-local) cannot touch.
unsigned promoteInLoop(Function &F, const CFGSnapshot &CFG, const Loop &L,
                       const std::unordered_set<const Value *> &SafeAllocas) {
  // An unreachable predecessor has no value to carry into a phi.
  for (unsigned B : L.Body)
    for (unsigned P : CFG.preds(B))
      if (!CFG.isReachable(P))
        return 0;

  // Structural gates: unique preheader, a single exit edge whose target
  // is reached only from the loop, and no calls (a callee may touch any
  // global or escaped storage).
  BasicBlock *Preheader = nullptr;
  for (unsigned P : CFG.preds(L.Header)) {
    if (CFG.inLoop(L, P))
      continue;
    if (Preheader && Preheader != CFG.block(P))
      return 0;
    Preheader = CFG.block(P);
  }
  if (!Preheader)
    return 0;

  unsigned CondIdx = CFGSnapshot::None;
  BasicBlock *Exit = nullptr;
  for (unsigned B : L.Body)
    for (unsigned S : CFG.succs(B)) {
      if (CFG.inLoop(L, S))
        continue;
      if (CondIdx != CFGSnapshot::None &&
          (CondIdx != B || Exit != CFG.block(S)))
        return 0; // multiple exit edges
      CondIdx = B;
      Exit = CFG.block(S);
    }
  if (CondIdx == CFGSnapshot::None)
    return 0; // no exit: nothing observable to write back
  BasicBlock *CondBlock = CFG.block(CondIdx);

  for (unsigned B : L.Body)
    for (const auto &IP : CFG.block(B)->instructions())
      if (IP->getOpcode() == Opcode::Call)
        return 0;

  auto dominatesAllBackSources = [&](unsigned B) {
    return std::all_of(L.BackSources.begin(), L.BackSources.end(),
                       [&](unsigned BS) { return CFG.dominates(B, BS); });
  };

  // Candidate discovery: pointers accessed directly (no GEP) inside the
  // loop whose object identity is exact.
  struct Candidate {
    const IRType *Ty = nullptr;
    bool HasStore = false;
    bool Bad = false;
  };
  std::map<Value *, Candidate> Cands;
  std::vector<Value *> CandOrder; // deterministic discovery order
  auto candFor = [&](Value *P) -> Candidate & {
    auto [It, New] = Cands.try_emplace(P);
    if (New)
      CandOrder.push_back(P);
    return It->second;
  };
  auto isPromotableObject = [&](Value *V) {
    if (ir_dyn_cast<GlobalVariable>(V))
      return true;
    return SafeAllocas.count(V) != 0;
  };
  for (unsigned B : L.Body)
    for (const auto &IP : CFG.block(B)->instructions()) {
      if (IP->getOpcode() == Opcode::Load) {
        Value *P = IP->getOperand(0);
        if (!isPromotableObject(P))
          continue;
        Candidate &C = candFor(P);
        if (C.Ty && C.Ty != IP->getType())
          C.Bad = true;
        C.Ty = IP->getType();
      } else if (IP->getOpcode() == Opcode::Store) {
        Value *P = IP->getOperand(1);
        if (!isPromotableObject(P))
          continue;
        Candidate &C = candFor(P);
        const IRType *VTy = IP->getOperand(0)->getType();
        if (C.Ty && C.Ty != VTy)
          C.Bad = true;
        C.Ty = VTy;
        C.HasStore = true;
        // An introduced exit writeback is only legal when the loop
        // already stores on every iteration.
        if (!dominatesAllBackSources(B))
          C.Bad = true;
      }
    }
  // Aliasing: every other memory access in the loop must provably touch
  // a different object.
  for (unsigned B : L.Body)
    for (const auto &IP : CFG.block(B)->instructions()) {
      Value *P = nullptr;
      if (IP->getOpcode() == Opcode::Load)
        P = IP->getOperand(0);
      else if (IP->getOpcode() == Opcode::Store)
        P = IP->getOperand(1);
      else
        continue;
      Value *Base = baseObject(P);
      bool Distinct = isDistinctObject(Base);
      for (auto &[G, C] : Cands)
        if (P != G && (!Distinct || Base == G))
          C.Bad = true;
    }

  unsigned Promoted = 0;
  std::unordered_map<Value *, Value *> Replace;
  auto Resolve = [&Replace](Value *V) {
    for (auto It = Replace.find(V); It != Replace.end();
         It = Replace.find(V))
      V = It->second;
    return V;
  };
  std::unordered_set<const Instruction *> Erase;

  // Writebacks land in a dedicated block on the exit edge, so they run
  // exactly once per loop execution even when the exit target has other
  // predecessors (e.g. an unroll-remainder loop header). The split is
  // the only CFG edit; nothing below reads the snapshot's successors.
  BasicBlock *WBBlock = nullptr;
  auto writebackBlock = [&]() {
    if (WBBlock)
      return WBBlock;
    WBBlock = F.createBlockAfter(CondBlock, CondBlock->getName() +
                                                ".promote.exit");
    Instruction *T = CondBlock->getTerminator();
    for (unsigned S = 0; S < T->getNumOperands(); ++S)
      if (T->getOperand(S) == Exit)
        T->setOperand(S, WBBlock);
    for (const auto &IP : Exit->instructions()) {
      if (IP->getOpcode() != Opcode::Phi)
        break;
      for (unsigned P = 0; P < IP->getNumIncoming(); ++P)
        if (IP->getIncomingBlock(P) == CondBlock)
          IP->setOperand(2 * P + 1, WBBlock);
    }
    WBBlock->append(std::make_unique<Instruction>(
        Opcode::Br, IRType::getVoid(), std::vector<Value *>{Exit}));
    return WBBlock;
  };

  // Per-block state of the SSA construction below, indexed by block.
  std::vector<std::vector<unsigned>> InPreds(CFG.size());
  for (unsigned B : L.Body)
    for (unsigned P : CFG.preds(B))
      if (CFG.inLoop(L, P))
        InPreds[B].push_back(P);
  std::vector<Instruction *> PhiAt(CFG.size());
  std::vector<Value *> EndVal(CFG.size());

  for (Value *G : CandOrder) {
    const Candidate &C = Cands[G];
    if (C.Bad || !C.Ty)
      continue;
    std::string Tag = G->getName().empty() ? "promo" : G->getName();
    auto PreLoad = std::make_unique<Instruction>(
        Opcode::Load, C.Ty, std::vector<Value *>{G}, Tag + ".promoted");
    PreLoad->ElemTy = C.Ty;
    Instruction *Pre =
        Preheader->insertAt(Preheader->size() - 1, std::move(PreLoad));

    if (!C.HasStore) {
      // Loop-invariant: every load is the preheader load.
      for (unsigned B : L.Body)
        for (const auto &IP : CFG.block(B)->instructions())
          if (IP->getOpcode() == Opcode::Load && IP.get() != Pre &&
              IP->getOperand(0) == G) {
            Replace[IP.get()] = Pre;
            Erase.insert(IP.get());
          }
      ++Promoted;
      continue;
    }

    // Single-variable SSA construction over the loop region with phis
    // at the header and every interior join. RPO visits a block with one
    // in-loop predecessor after that predecessor.
    for (unsigned B : L.Body) {
      PhiAt[B] = nullptr;
      EndVal[B] = nullptr;
      if (B == L.Header || InPreds[B].size() >= 2) {
        auto Phi = std::make_unique<Instruction>(
            Opcode::Phi, C.Ty, std::vector<Value *>{}, Tag + ".promoted");
        PhiAt[B] = CFG.block(B)->insertAt(0, std::move(Phi));
      }
    }
    for (unsigned B : L.Body) {
      Value *Cur = PhiAt[B] ? static_cast<Value *>(PhiAt[B])
                            : EndVal[InPreds[B].front()];
      for (const auto &IP : CFG.block(B)->instructions()) {
        if (IP->getOpcode() == Opcode::Load && IP->getOperand(0) == G) {
          Replace[IP.get()] = Cur;
          Erase.insert(IP.get());
        } else if (IP->getOpcode() == Opcode::Store &&
                   IP->getOperand(1) == G) {
          Cur = IP->getOperand(0);
          Erase.insert(IP.get());
        }
      }
      EndVal[B] = Cur;
    }
    for (unsigned B : L.Body) {
      if (!PhiAt[B])
        continue;
      std::vector<Value *> Ops;
      if (B == L.Header) {
        Ops.push_back(Pre);
        Ops.push_back(Preheader);
        for (unsigned BS : L.BackSources) {
          Ops.push_back(EndVal[BS]);
          Ops.push_back(CFG.block(BS));
        }
      } else {
        for (unsigned P : InPreds[B]) {
          Ops.push_back(EndVal[P]);
          Ops.push_back(CFG.block(P));
        }
      }
      PhiAt[B]->setOperands(std::move(Ops));
    }
    auto WB = std::make_unique<Instruction>(
        Opcode::Store, IRType::getVoid(),
        std::vector<Value *>{EndVal[CondIdx], G});
    BasicBlock *WBB = writebackBlock();
    WBB->insertAt(WBB->size() - 1, std::move(WB));
    ++Promoted;
  }

  if (Promoted == 0)
    return 0;
  // Point every use of a replaced load at its replacement, then compact
  // each block once. Only loads are replaced and only loads and stores
  // erased, so other values skip the table lookups.
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions())
      for (unsigned K = 0; K < IP->getNumOperands(); ++K) {
        const auto *Op = ir_dyn_cast<Instruction>(IP->getOperand(K));
        if (Op && Op->getOpcode() == Opcode::Load)
          IP->setOperand(K, Resolve(IP->getOperand(K)));
      }
  for (const auto &BB : F.blocks())
    BB->eraseIf([&Erase](const Instruction *I) {
      return (I->getOpcode() == Opcode::Load ||
              I->getOpcode() == Opcode::Store) &&
             Erase.count(I);
    });
  return Promoted;
}

unsigned promoteScalarsInFunction(Function &F) {
  if (F.isDeclaration())
    return 0;
  unsigned Promoted = 0;
  bool Changed = true;
  // A promotion may split an exit edge, so the CFG snapshot is rebuilt
  // after every transformed loop. Innermost loops go first: an
  // accumulator promoted out of an inner loop reappears (as the
  // inserted preheader load / writeback store) inside the enclosing
  // loop and is hoisted again on the next sweep. Accesses only ever
  // move outward through the nest, so this terminates.
  while (Changed) {
    Changed = false;
    CFGSnapshot CFG(F);
    std::vector<Loop> Loops = CFG.naturalLoops();
    std::sort(Loops.begin(), Loops.end(),
              [&CFG](const Loop &A, const Loop &B) {
                if (A.Body.size() != B.Body.size())
                  return A.Body.size() < B.Body.size();
                return CFG.block(A.Header)->getName() <
                       CFG.block(B.Header)->getName();
              });

    std::unordered_set<const Value *> SafeAllocas = nonEscapingAllocas(F);
    for (const Loop &L : Loops)
      if (unsigned N = promoteInLoop(F, CFG, L, SafeAllocas)) {
        Promoted += N;
        Changed = true;
        break; // CFG may have changed: re-analyze
      }
  }
  return Promoted;
}

} // namespace

unsigned runSimplifyCFG(Module &M) {
  unsigned Removed = 0;
  for (const auto &F : M.functions())
    Removed += removeUnreachable(*F);
  return Removed;
}

unsigned runDCE(Module &M) {
  unsigned Removed = 0;
  auto isRemovable = [](const Instruction &I) {
    return !hasSideEffects(I) && !I.getType()->isVoid();
  };
  constexpr unsigned Dead = ~0u;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    // Every instruction with its use count, sorted by address and counted
    // once. A phi's use of itself counts, so a phi that only feeds itself
    // stays.
    std::vector<std::pair<const Instruction *, unsigned>> Uses;
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        Uses.push_back({I.get(), 0});
    auto ByAddress = [](const auto &E, const Instruction *I) {
      return std::less<>()(E.first, I);
    };
    std::sort(Uses.begin(), Uses.end(), [&](const auto &A, const auto &B) {
      return ByAddress(A, B.first);
    });
    auto usesOf = [&](const Value *V) -> unsigned * {
      const auto *I = ir_dyn_cast<Instruction>(V);
      if (!I)
        return nullptr;
      auto It = std::lower_bound(Uses.begin(), Uses.end(), I, ByAddress);
      return It != Uses.end() && It->first == I ? &It->second : nullptr;
    };
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        for (const Value *Op : I->operands())
          if (unsigned *N = usesOf(Op))
            ++*N;

    // Removing an instruction releases its operands; each reaches zero
    // uses at most once, so each is queued at most once.
    std::vector<const Instruction *> Work;
    for (auto &[I, N] : Uses)
      if (N == 0 && isRemovable(*I))
        Work.push_back(I);
    unsigned Erased = 0;
    while (!Work.empty()) {
      const Instruction *I = Work.back();
      Work.pop_back();
      *usesOf(I) = Dead;
      ++Erased;
      for (const Value *Op : I->operands()) {
        unsigned *N = usesOf(Op);
        if (N && --*N == 0 && isRemovable(*ir_cast<Instruction>(Op)))
          Work.push_back(ir_cast<Instruction>(Op));
      }
    }
    if (Erased == 0)
      continue;
    for (const auto &BB : F->blocks())
      BB->eraseIf([&](const Instruction *I) { return *usesOf(I) == Dead; });
    Removed += Erased;
  }
  return Removed;
}

unsigned runStoreForward(Module &M) {
  unsigned Forwarded = 0;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Forwarded += forwardLoadsInFunction(*F);
  return Forwarded;
}

unsigned runScalarPromote(Module &M) {
  unsigned Promoted = 0;
  for (const auto &F : M.functions())
    Promoted += promoteScalarsInFunction(*F);
  return Promoted;
}

PipelineStats runDefaultPipeline(Module &M,
                                 const LoopUnrollOptions &UnrollOpts) {
  PipelineStats Stats;
  Stats.Unroll = runLoopUnroll(M, UnrollOpts);
  Stats.BlocksSimplified = runSimplifyCFG(M);
  Stats.LoadsForwarded = runStoreForward(M);
  Stats.ScalarsPromoted = runScalarPromote(M);
  Stats.InstructionsDCEd = runDCE(M);
  return Stats;
}

} // namespace mcc::midend
