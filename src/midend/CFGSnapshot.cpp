//===--- CFGSnapshot.cpp - One function's CFG, indexed by block -----------===//
#include "midend/CFGSnapshot.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace mcc::midend {

using namespace ir;

CFGSnapshot::CFGSnapshot(const Function &F) {
  const unsigned N = static_cast<unsigned>(F.blocks().size());
  if (N == 0)
    return;
  Blocks.reserve(N);
  for (const auto &BB : F.blocks())
    Blocks.push_back(BB.get());
  Slots.assign(std::bit_ceil(2 * N), None);
  for (unsigned B = 0; B < N; ++B) {
    std::size_t S = slotOf(Blocks[B]);
    while (Slots[S] != None)
      S = (S + 1) & (Slots.size() - 1);
    Slots[S] = B;
  }

  // Successors in compressed rows; PredBegin counts each row's
  // predecessors on the way.
  SuccBegin.reserve(N + 1);
  SuccBegin.push_back(0);
  SuccList.reserve(2 * N);
  PredBegin.assign(N + 1, 0);
  for (unsigned B = 0; B < N; ++B) {
    const Instruction *T = Blocks[B]->getTerminator();
    const unsigned First = static_cast<unsigned>(SuccList.size());
    for (unsigned S = 0, E = T ? T->getNumSuccessors() : 0; S < E; ++S) {
      unsigned Succ = index(T->getSuccessor(S));
      if (Succ == None || std::find(SuccList.begin() + First, SuccList.end(),
                                    Succ) != SuccList.end())
        continue;
      SuccList.push_back(Succ);
      ++PredBegin[Succ];
    }
    SuccBegin.push_back(static_cast<unsigned>(SuccList.size()));
  }
  // Predecessors by counting sort: running sums mark each row's end, and
  // filling backwards from the last block leaves them at each row's start
  // with the row in function order.
  for (unsigned B = 1; B <= N; ++B)
    PredBegin[B] += PredBegin[B - 1];
  PredList.resize(SuccList.size());
  for (unsigned B = N; B-- > 0;)
    for (unsigned S : succs(B))
      PredList[--PredBegin[S]] = B;

  // Reverse post-order of an iterative depth-first walk from the entry;
  // RPONumber marks visited blocks until the walk is done.
  RPONumber.assign(N, None);
  RPO.reserve(N);
  {
    std::vector<std::pair<unsigned, unsigned>> Stack = {{0, 0}};
    RPONumber[0] = 0;
    while (!Stack.empty()) {
      auto &[B, Next] = Stack.back();
      std::span<const unsigned> Succs = succs(B);
      if (Next < Succs.size()) {
        unsigned S = Succs[Next++];
        if (RPONumber[S] == None) {
          RPONumber[S] = 0;
          Stack.push_back({S, 0});
        }
      } else {
        RPO.push_back(B);
        Stack.pop_back();
      }
    }
    std::reverse(RPO.begin(), RPO.end());
    for (unsigned K = 0; K < RPO.size(); ++K)
      RPONumber[RPO[K]] = K;
  }

  // Immediate dominators, iterated to a fixpoint over RPO. Unreachable
  // predecessors never get an IDom and are skipped.
  IDom.assign(N, None);
  IDom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RPONumber[A] > RPONumber[B])
        A = IDom[A];
      while (RPONumber[B] > RPONumber[A])
        B = IDom[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned K = 1; K < RPO.size(); ++K) {
      unsigned B = RPO[K], New = None;
      for (unsigned P : preds(B))
        if (IDom[P] != None)
          New = New == None ? P : Intersect(P, New);
      if (IDom[B] != New) {
        IDom[B] = New;
        Changed = true;
      }
    }
  }
}

std::vector<CFGSnapshot::Loop> CFGSnapshot::naturalLoops() const {
  // An edge B->H is a back edge when H dominates B.
  const unsigned N = size();
  std::vector<Loop> Loops;
  std::vector<unsigned> LoopOf(N, None);
  for (unsigned B : RPO)
    for (unsigned H : succs(B)) {
      if (!dominates(H, B))
        continue;
      if (LoopOf[H] == None) {
        LoopOf[H] = static_cast<unsigned>(Loops.size());
        Loops.push_back({H, {}, {}});
      }
      Loops[LoopOf[H]].BackSources.push_back(B);
    }
  // Bodies: walk reachable predecessors back from the sources, stopping
  // at the header. Each walk finishes before the next starts, so one mark
  // array serves every loop.
  std::vector<unsigned> Mark(N, None);
  std::vector<unsigned> Work;
  for (unsigned L = 0; L < Loops.size(); ++L) {
    Loop &Lp = Loops[L];
    Mark[Lp.Header] = L;
    Lp.Body.push_back(Lp.Header);
    Work.assign(Lp.BackSources.begin(), Lp.BackSources.end());
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      if (Mark[B] == L)
        continue;
      Mark[B] = L;
      Lp.Body.push_back(B);
      for (unsigned P : preds(B))
        if (isReachable(P) && Mark[P] != L)
          Work.push_back(P);
    }
    std::sort(Lp.Body.begin(), Lp.Body.end(), [&](unsigned X, unsigned Y) {
      return RPONumber[X] < RPONumber[Y];
    });
  }
  return Loops;
}

std::size_t CFGSnapshot::slotOf(const BasicBlock *BB) const {
  // Fibonacci hashing of the address; the low bits are alignment.
  auto Key = reinterpret_cast<std::uintptr_t>(BB) >> 4;
  return static_cast<std::size_t>(Key * 0x9e3779b97f4a7c15ULL >> 32) &
         (Slots.size() - 1);
}

unsigned CFGSnapshot::index(const BasicBlock *BB) const {
  if (Slots.empty())
    return None;
  for (std::size_t S = slotOf(BB);; S = (S + 1) & (Slots.size() - 1))
    if (Slots[S] == None || Blocks[Slots[S]] == BB)
      return Slots[S];
}

bool CFGSnapshot::dominates(unsigned A, unsigned B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  // An idom is earlier in RPO than the block it dominates.
  while (RPONumber[B] > RPONumber[A])
    B = IDom[B];
  return A == B;
}

bool CFGSnapshot::inLoop(const Loop &L, unsigned B) const {
  return isReachable(B) &&
         std::binary_search(L.Body.begin(), L.Body.end(), B,
                            [&](unsigned X, unsigned Y) {
                              return RPONumber[X] < RPONumber[Y];
                            });
}

} // namespace mcc::midend
