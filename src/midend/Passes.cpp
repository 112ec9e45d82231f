#include "midend/Passes.h"

#include "midend/CFGSnapshot.h"
#include "support/PtrIndex.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>

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

/// A load or store that a promotion made redundant stays in its block as
/// a tombstone until the function's last promotion, so uses are rewritten
/// and blocks compacted once per function: a promoted load points at
/// itself and carries the value that replaces it as a second operand, a
/// promoted store stores into itself. Verified IR has neither shape.
bool isPromotedLoad(const Value *V) {
  const auto *I = ir_dyn_cast<Instruction>(V);
  return I && I->getOpcode() == Opcode::Load && I->getOperand(0) == I;
}

bool isPromotedAway(const Instruction &I) {
  return isPromotedLoad(&I) ||
         (I.getOpcode() == Opcode::Store && I.getOperand(1) == &I);
}

/// The value \p V stands for once the tombstones are gone.
Value *live(Value *V) {
  while (isPromotedLoad(V))
    V = ir_cast<Instruction>(V)->getOperand(1);
  return V;
}

/// The pointer a load or store that is not a tombstone accesses; null
/// for any other instruction.
Value *accessedPointer(const Instruction &I) {
  if (isPromotedAway(I))
    return nullptr;
  if (I.getOpcode() == Opcode::Load)
    return live(I.getOperand(0));
  if (I.getOpcode() == Opcode::Store)
    return live(I.getOperand(1));
  return nullptr;
}

/// Chases GEPs to the pointer they index into. Indexing stays within the
/// underlying object, so a GEP access aliases only its base object.
Value *baseObject(Value *V) {
  V = live(V);
  while (auto *I = ir_dyn_cast<Instruction>(V)) {
    if (I->getOpcode() != Opcode::GEP)
      break;
    V = live(I->getOperand(0));
  }
  return V;
}

/// The allocas whose address never escapes, sorted by address: every use
/// in the function is as a load's pointer or a store's destination (being
/// a store's *value* operand publishes the address). Promotion only adds
/// loads and stores through the promoted object itself, so the set holds
/// for the whole pass.
std::vector<const Value *> nonEscapingAllocas(const Function &F) {
  std::vector<const Value *> Allocas, Escaped;
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions()) {
      if (IP->getOpcode() == Opcode::Alloca)
        Allocas.push_back(IP.get());
      for (unsigned K = 0; K < IP->getNumOperands(); ++K) {
        const auto *OpI = ir_dyn_cast<Instruction>(IP->getOperand(K));
        if (!OpI || OpI->getOpcode() != Opcode::Alloca)
          continue;
        bool Safe = (IP->getOpcode() == Opcode::Load && K == 0) ||
                    (IP->getOpcode() == Opcode::Store && K == 1);
        if (!Safe)
          Escaped.push_back(OpI);
      }
    }
  std::sort(Allocas.begin(), Allocas.end(), std::less<>());
  std::sort(Escaped.begin(), Escaped.end(), std::less<>());
  std::erase_if(Allocas, [&](const Value *A) {
    return std::binary_search(Escaped.begin(), Escaped.end(), A,
                              std::less<>());
  });
  return Allocas;
}

using Loop = CFGSnapshot::Loop;

/// What promoting one loop changed, for the caller's snapshot and queue.
struct LoopPromotion {
  unsigned Scalars = 0;
  /// The block that received the initial loads.
  unsigned Preheader = CFGSnapshot::None;
  /// The block that received the writebacks, if any promoted scalar is
  /// stored in the loop, and the exit edge it was split into.
  BasicBlock *Writeback = nullptr;
  unsigned ExitFrom = CFGSnapshot::None, ExitTo = CFGSnapshot::None;
};

/// Promotes scalars that live in memory (globals and non-escaping
/// allocas) into SSA registers across one natural loop: initial load in
/// the preheader, phis at the header and at the iterated dominance
/// frontier of the stores inside the loop, writeback at the single exit. This is what breaks the per-iteration
/// load/add/store round-trip on accumulator globals that store-to-load
/// forwarding (block-local) cannot touch.
LoopPromotion promoteInLoop(Function &F, const CFGSnapshot &CFG,
                            const Loop &L,
                            const std::vector<const Value *> &SafeAllocas) {
  constexpr unsigned None = CFGSnapshot::None;
  LoopPromotion Out;
  // An unreachable predecessor has no value to carry into a phi.
  for (unsigned B : L.Body)
    for (unsigned P : CFG.preds(B))
      if (!CFG.isReachable(P))
        return Out;

  // Structural gates: unique preheader, a single exit edge whose target
  // is reached only from the loop, and no calls (a callee may touch any
  // global or escaped storage; checked by the walk below).
  unsigned PreIdx = None;
  for (unsigned P : CFG.preds(L.Header)) {
    if (CFG.inLoop(L, P))
      continue;
    if (PreIdx != None)
      return Out;
    PreIdx = P;
  }
  if (PreIdx == None)
    return Out;

  unsigned CondIdx = None, ExitIdx = None;
  for (unsigned B : L.Body)
    for (unsigned S : CFG.succs(B)) {
      if (CFG.inLoop(L, S))
        continue;
      if (CondIdx != None && (CondIdx != B || ExitIdx != S))
        return Out; // multiple exit edges
      CondIdx = B;
      ExitIdx = S;
    }
  if (CondIdx == None)
    return Out; // no exit: nothing observable to write back

  // One walk over the loop collects its memory accesses with their
  // pointers, in RPO and block order. The list serves every candidate:
  // promotion turns only the promoted candidate's own accesses into
  // tombstones, and a pointer it could change, a loaded one, makes every
  // candidate bad below.
  struct Access {
    Instruction *I;
    Value *Ptr;
    unsigned Pos; ///< of I's block in L.Body
  };
  std::vector<Access> Accesses;
  for (unsigned K = 0; K < L.Body.size(); ++K)
    for (const auto &IP : CFG.block(L.Body[K])->instructions()) {
      if (IP->getOpcode() == Opcode::Call)
        return Out;
      if (Value *P = accessedPointer(*IP))
        Accesses.push_back({IP.get(), P, K});
    }

  auto dominatesAllBackSources = [&](unsigned B) {
    return std::all_of(L.BackSources.begin(), L.BackSources.end(),
                       [&](unsigned BS) { return CFG.dominates(B, BS); });
  };

  // Candidate discovery: pointers accessed directly (no GEP) inside the
  // loop whose object identity is exact, in discovery order.
  struct Candidate {
    Value *Ptr = nullptr;
    const IRType *Ty = nullptr;
    bool HasStore = false;
    bool Bad = false;
  };
  std::vector<Candidate> Cands;
  auto candFor = [&](Value *P) -> Candidate & {
    for (Candidate &C : Cands)
      if (C.Ptr == P)
        return C;
    return Cands.emplace_back(Candidate{P});
  };
  auto isPromotableObject = [&](const Value *V) {
    if (ir_dyn_cast<GlobalVariable>(V))
      return true;
    const auto *I = ir_dyn_cast<Instruction>(V);
    return I && I->getOpcode() == Opcode::Alloca &&
           std::binary_search(SafeAllocas.begin(), SafeAllocas.end(), V,
                              std::less<>());
  };
  for (const Access &A : Accesses) {
    if (!isPromotableObject(A.Ptr))
      continue;
    Candidate &C = candFor(A.Ptr);
    const bool IsStore = A.I->getOpcode() == Opcode::Store;
    const IRType *Ty = IsStore ? A.I->getOperand(0)->getType() : A.I->getType();
    if (C.Ty && C.Ty != Ty)
      C.Bad = true;
    C.Ty = Ty;
    // An introduced exit writeback is only legal when the loop
    // already stores on every iteration.
    if (IsStore) {
      C.HasStore = true;
      C.Bad |= !dominatesAllBackSources(L.Body[A.Pos]);
    }
  }
  // Aliasing: every other memory access in the loop must provably touch
  // a different object.
  for (const Access &A : Accesses) {
    Value *Base = baseObject(A.Ptr);
    bool Distinct = isDistinctObject(Base);
    for (Candidate &C : Cands)
      if (A.Ptr != C.Ptr && (!Distinct || Base == C.Ptr))
        C.Bad = true;
  }
  if (std::all_of(Cands.begin(), Cands.end(),
                  [](const Candidate &C) { return C.Bad; }))
    return Out;

  BasicBlock *Preheader = CFG.block(PreIdx);
  BasicBlock *CondBlock = CFG.block(CondIdx);
  BasicBlock *Exit = CFG.block(ExitIdx);
  // Writebacks land in a dedicated block on the exit edge, so they run
  // exactly once per loop execution even when the exit target has other
  // predecessors (e.g. an unroll-remainder loop header). The split is
  // the only CFG edit; the caller records it in the snapshot.
  auto writebackBlock = [&]() {
    if (Out.Writeback)
      return Out.Writeback;
    BasicBlock *WB = F.createBlockAfter(CondBlock, CondBlock->getName() +
                                                       ".promote.exit");
    Instruction *T = CondBlock->getTerminator();
    for (unsigned S = 0; S < T->getNumOperands(); ++S)
      if (T->getOperand(S) == Exit)
        T->setOperand(S, WB);
    for (const auto &IP : Exit->instructions()) {
      if (IP->getOpcode() != Opcode::Phi)
        break;
      for (unsigned P = 0; P < IP->getNumIncoming(); ++P)
        if (IP->getIncomingBlock(P) == CondBlock)
          IP->setOperand(2 * P + 1, WB);
    }
    WB->append(std::make_unique<Instruction>(
        Opcode::Br, IRType::getVoid(), std::vector<Value *>{Exit}));
    Out.Writeback = WB;
    Out.ExitFrom = CondIdx;
    Out.ExitTo = ExitIdx;
    return WB;
  };

  // The loop's dominance frontier, as (block, join) pairs sorted by
  // block: each join's in-loop predecessors walk up the idom tree to the
  // join's idom (Cooper, Harvey and Kennedy). The header is left out, as
  // every stored candidate gets a phi there.
  std::vector<std::pair<unsigned, unsigned>> Frontier;
  for (unsigned J : L.Body) {
    if (J == L.Header || CFG.preds(J).size() < 2)
      continue;
    for (unsigned P : CFG.preds(J))
      for (unsigned R = P; R != CFG.idom(J); R = CFG.idom(R))
        Frontier.emplace_back(R, J);
  }
  std::sort(Frontier.begin(), Frontier.end());

  // Per-block state of the SSA construction below, indexed by block.
  std::vector<Instruction *> PhiAt(CFG.size());
  std::vector<Value *> EndVal(CFG.size());
  std::vector<char> Queued(CFG.size());
  std::vector<unsigned> Work;

  for (const Candidate &C : Cands) {
    if (C.Bad)
      continue;
    Value *G = C.Ptr;
    std::string Tag = G->getName().empty() ? "promo" : G->getName();
    auto PreLoad = std::make_unique<Instruction>(
        Opcode::Load, C.Ty, std::vector<Value *>{G}, Tag + ".promoted");
    PreLoad->ElemTy = C.Ty;
    Instruction *Pre =
        Preheader->insertAt(Preheader->size() - 1, std::move(PreLoad));

    if (!C.HasStore) {
      // Loop-invariant: every load is the preheader load.
      for (const Access &A : Accesses)
        if (A.Ptr == G)
          A.I->setOperands({A.I, Pre});
      ++Out.Scalars;
      continue;
    }

    // Single-variable SSA construction over the loop region (Cytron et
    // al.): phis at the header and at the iterated frontier of the
    // blocks that store the candidate, the only places two different
    // values can meet.
    for (unsigned B : L.Body) {
      PhiAt[B] = nullptr;
      EndVal[B] = nullptr;
      Queued[B] = 0;
    }
    auto placePhi = [&](unsigned B) {
      PhiAt[B] = CFG.block(B)->insertAt(
          0, std::make_unique<Instruction>(Opcode::Phi, C.Ty,
                                           std::vector<Value *>{},
                                           Tag + ".promoted"));
    };
    auto queue = [&](unsigned B) {
      if (!Queued[B]) {
        Queued[B] = 1;
        Work.push_back(B);
      }
    };
    placePhi(L.Header);
    for (const Access &A : Accesses)
      if (A.Ptr == G && A.I->getOpcode() == Opcode::Store)
        queue(L.Body[A.Pos]);
    while (!Work.empty()) {
      const unsigned X = Work.back();
      Work.pop_back();
      for (auto It = std::lower_bound(Frontier.begin(), Frontier.end(),
                                      std::pair{X, 0u});
           It != Frontier.end() && It->first == X; ++It)
        if (!PhiAt[It->second]) {
          placePhi(It->second);
          queue(It->second);
        }
    }
    // A block without a phi starts from the value at the end of its
    // idom, which RPO visits first; its first predecessor may be an inner
    // back-edge source that RPO has not reached yet.
    auto A = Accesses.begin();
    for (unsigned K = 0; K < L.Body.size(); ++K) {
      const unsigned B = L.Body[K];
      Value *Cur = PhiAt[B] ? static_cast<Value *>(PhiAt[B])
                            : EndVal[CFG.idom(B)];
      for (; A != Accesses.end() && A->Pos == K; ++A) {
        if (A->Ptr != G)
          continue;
        if (A->I->getOpcode() == Opcode::Load) {
          A->I->setOperands({A->I, Cur});
        } else {
          Cur = A->I->getOperand(0);
          A->I->setOperand(1, A->I);
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
        for (unsigned P : CFG.preds(B)) {
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
    ++Out.Scalars;
  }
  Out.Preheader = PreIdx;
  return Out;
}

unsigned promoteScalarsInFunction(Function &F) {
  if (F.isDeclaration())
    return 0;
  // One snapshot, one set of loops and one escape set for the whole
  // function: the only CFG edit, the writeback block on an exit edge, is
  // applied to the snapshot and the loops in place.
  CFGSnapshot CFG(F);
  std::vector<Loop> Loops = CFG.naturalLoops();
  if (Loops.empty())
    return 0;
  const std::vector<const Value *> SafeAllocas = nonEscapingAllocas(F);

  // Innermost loops go first: an accumulator promoted out of an inner
  // loop reappears (as the inserted preheader load / writeback store)
  // inside the enclosing loop and is hoisted when that loop's turn comes.
  // Each loop is tried once, in order of body size then header name. A
  // promotion adds memory accesses only to the preheader and the
  // writeback block, so it re-queues just the loops holding either; any
  // other loop that was rejected stays rejected. Accesses only ever move
  // outward through the nest, so this terminates.
  std::vector<unsigned> Order(Loops.size());
  std::iota(Order.begin(), Order.end(), 0u);
  auto sortOrder = [&] {
    std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
      if (Loops[A].Body.size() != Loops[B].Body.size())
        return Loops[A].Body.size() < Loops[B].Body.size();
      return CFG.block(Loops[A].Header)->getName() <
             CFG.block(Loops[B].Header)->getName();
    });
  };
  sortOrder();
  std::vector<char> Queued(Loops.size(), 1);
  auto nextQueued = [&] {
    return std::find_if(Order.begin(), Order.end(),
                        [&](unsigned L) { return Queued[L]; });
  };
  unsigned Promoted = 0;
  for (auto It = nextQueued(); It != Order.end(); It = nextQueued()) {
    Queued[*It] = 0;
    LoopPromotion P = promoteInLoop(F, CFG, Loops[*It], SafeAllocas);
    if (P.Scalars == 0)
      continue;
    Promoted += P.Scalars;
    unsigned W = CFGSnapshot::None;
    if (P.Writeback) {
      W = CFG.splitEdge(P.ExitFrom, P.ExitTo, P.Writeback, Loops);
      sortOrder(); // the loops W joined grew
    }
    for (unsigned M = 0; M < Loops.size(); ++M)
      if (CFG.inLoop(Loops[M], P.Preheader) ||
          (W != CFGSnapshot::None && CFG.inLoop(Loops[M], W)))
        Queued[M] = 1;
  }
  if (Promoted == 0)
    return 0;

  // Point every use of a promoted load at what it stands for, then drop
  // the tombstones.
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->instructions())
      if (!isPromotedAway(*IP))
        for (unsigned K = 0; K < IP->getNumOperands(); ++K)
          if (isPromotedLoad(IP->getOperand(K)))
            IP->setOperand(K, live(IP->getOperand(K)));
  for (const auto &BB : F.blocks())
    BB->eraseIf([](const Instruction *I) { return isPromotedAway(*I); });
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
  constexpr unsigned None = PtrIndex<const Instruction>::None;
  constexpr unsigned Dead = ~0u;
  for (const auto &F : M.functions()) {
    if (F->isDeclaration())
      continue;
    // Every instruction by position, with its use count. A phi's use of
    // itself counts, so a phi that only feeds itself stays.
    PtrIndex<const Instruction> Insts;
    std::size_t N = 0;
    for (const auto &BB : F->blocks())
      N += BB->size();
    Insts.reserve(N);
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        Insts.push_back(I.get());
    auto posOf = [&](const Value *V) {
      const auto *I = ir_dyn_cast<Instruction>(V);
      return I ? Insts.find(I) : None;
    };
    std::vector<unsigned> Uses(N, 0);
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        for (const Value *Op : I->operands())
          if (unsigned P = posOf(Op); P != None)
            ++Uses[P];

    // Removing an instruction releases its operands; each reaches zero
    // uses at most once, so each is queued at most once.
    std::vector<unsigned> Work;
    for (unsigned K = 0; K < N; ++K)
      if (Uses[K] == 0 && isRemovable(*Insts[K]))
        Work.push_back(K);
    unsigned Erased = 0;
    while (!Work.empty()) {
      const unsigned K = Work.back();
      Work.pop_back();
      Uses[K] = Dead;
      ++Erased;
      for (const Value *Op : Insts[K]->operands())
        if (unsigned P = posOf(Op);
            P != None && --Uses[P] == 0 && isRemovable(*Insts[P]))
          Work.push_back(P);
    }
    if (Erased == 0)
      continue;
    for (const auto &BB : F->blocks())
      BB->eraseIf(
          [&](const Instruction *I) { return Uses[Insts.find(I)] == Dead; });
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

stats::Component statsComponent(const PipelineStats &S) {
  stats::Component C{"midend", {}};
#define UNROLL_STAT(Group, Name, Field) C.add(#Group, #Name, S.Unroll.Field);
#define MIDEND_STAT(Group, Name, Field) C.add(#Group, #Name, S.Field);
#include "midend/PipelineStats.def"
  return C;
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
