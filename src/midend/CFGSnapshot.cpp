//===--- CFGSnapshot.cpp - One function's CFG, indexed by block -----------===//
#include "midend/CFGSnapshot.h"

#include <algorithm>

namespace mcc::midend {

using namespace ir;

CFGSnapshot::CFGSnapshot(const Function &F) {
  const unsigned N = static_cast<unsigned>(F.blocks().size());
  if (N == 0)
    return;
  Blocks.reserve(N);
  for (const auto &BB : F.blocks())
    Blocks.push_back(BB.get());

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

  computeRPO();

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

void CFGSnapshot::computeRPO() {
  // Reverse post-order of an iterative depth-first walk from the entry;
  // RPONumber marks visited blocks until the walk is done.
  RPONumber.assign(size(), None);
  RPO.clear();
  RPO.reserve(size());
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

unsigned CFGSnapshot::splitEdge(unsigned C, unsigned E, BasicBlock *W,
                                std::vector<Loop> &Loops) {
  // Edges: C's successor E and E's predecessor C become W in place. W
  // sits right after C in the function, so E's predecessors stay in
  // function order. W's own rows go at the end of the lists.
  const unsigned Wi = Blocks.push_back(W);
  *std::find(SuccList.begin() + SuccBegin[C],
             SuccList.begin() + SuccBegin[C + 1], E) = Wi;
  *std::find(PredList.begin() + PredBegin[E],
             PredList.begin() + PredBegin[E + 1], C) = Wi;
  SuccList.push_back(E);
  SuccBegin.push_back(static_cast<unsigned>(SuccList.size()));
  PredList.push_back(C);
  PredBegin.push_back(static_cast<unsigned>(PredList.size()));
  IDom.push_back(None);
  RPONumber.push_back(None);
  if (!isReachable(C))
    return Wi;

  // The walk takes the same path with W between C and E, so the old
  // blocks keep their relative order and each loop body stays sorted.
  computeRPO();
  // Paths through the old blocks are the old paths, so only E's idom can
  // change: to W, once every other way into E comes from inside E's
  // dominance region.
  IDom[Wi] = C;
  if (E != RPO.front() && std::ranges::all_of(preds(E), [&](unsigned P) {
        return P == Wi || !isReachable(P) || dominates(E, P);
      }))
    IDom[E] = Wi;

  auto insertSorted = [&](std::vector<unsigned> &V) {
    V.insert(std::upper_bound(V.begin(), V.end(), Wi, byRPO()), Wi);
  };
  for (Loop &L : Loops) {
    if (L.Header == E) {
      auto It = std::find(L.BackSources.begin(), L.BackSources.end(), C);
      if (It == L.BackSources.end())
        continue;
      L.BackSources.erase(It);
      insertSorted(L.BackSources);
    } else if (!inLoop(L, E)) {
      continue;
    }
    insertSorted(L.Body);
  }
  return Wi;
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
    std::sort(Lp.Body.begin(), Lp.Body.end(), byRPO());
  }
  return Loops;
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
         std::binary_search(L.Body.begin(), L.Body.end(), B, byRPO());
}

} // namespace mcc::midend
