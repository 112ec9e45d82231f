//===--- CFGSnapshot.h - One function's CFG, indexed by block ---*- C++ -*-===//
//
// The control-flow facts the mid-end's loop passes share, computed once per
// function in O(blocks + edges) and indexed by a block's position in
// Function::blocks(): successors, predecessors, the reverse post-order of
// the reachable blocks, and the immediate-dominator tree (Cooper, Harvey
// and Kennedy, "A Simple, Fast Dominance Algorithm"). The natural loops
// are derived from these on request.
//
// It is a snapshot: a CFG edit (a new block, a retargeted branch, an
// erased block) leaves it stale. The one edit scalar promotion makes, a
// new block on an edge, is applied in place by splitEdge(); after any
// other edit the pass that made it builds a new snapshot.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_MIDEND_CFGSNAPSHOT_H
#define MCC_MIDEND_CFGSNAPSHOT_H

#include "ir/IR.h"
#include "support/PtrIndex.h"

#include <span>
#include <vector>

namespace mcc::midend {

class CFGSnapshot {
public:
  /// The index of no block: the idom of the entry, the RPO number of an
  /// unreachable block, the index of a block from elsewhere.
  static constexpr unsigned None = ~0u;

  /// A natural loop: the blocks that reach one of the header's back-edge
  /// sources without passing through the header. All back edges into one
  /// header form one loop.
  struct Loop {
    unsigned Header = None;
    /// Reachable blocks only, header included, in RPO.
    std::vector<unsigned> Body;
    /// Blocks with an edge to the header that it dominates, each once,
    /// in RPO.
    std::vector<unsigned> BackSources;
  };

  explicit CFGSnapshot(const ir::Function &F);

  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(Blocks.size());
  }
  [[nodiscard]] ir::BasicBlock *block(unsigned B) const { return Blocks[B]; }
  /// Index of \p BB, or None if it is not one of the function's blocks.
  /// Indices are the blocks' positions in the function when the snapshot
  /// was built; a block splitEdge() records takes the next free index.
  [[nodiscard]] unsigned index(const ir::BasicBlock *BB) const {
    return Blocks.find(BB);
  }

  /// Distinct successors, in terminator operand order.
  [[nodiscard]] std::span<const unsigned> succs(unsigned B) const {
    return {SuccList.data() + SuccBegin[B], SuccList.data() + SuccBegin[B + 1]};
  }
  /// Distinct predecessors, reachable or not, in function order: what
  /// BasicBlock::predecessors() returns.
  [[nodiscard]] std::span<const unsigned> preds(unsigned B) const {
    return {PredList.data() + PredBegin[B], PredList.data() + PredBegin[B + 1]};
  }

  /// The reachable blocks in reverse post-order of a depth-first walk
  /// that takes successors in terminator order.
  [[nodiscard]] const std::vector<unsigned> &rpo() const { return RPO; }
  [[nodiscard]] bool isReachable(unsigned B) const {
    return RPONumber[B] != None;
  }

  /// Immediate dominator; None for the entry and unreachable blocks.
  [[nodiscard]] unsigned idom(unsigned B) const {
    return isReachable(B) && B != RPO.front() ? IDom[B] : None;
  }
  /// Whether every path from the entry to \p B passes through \p A (a
  /// block dominates itself). False if either block is unreachable.
  [[nodiscard]] bool dominates(unsigned A, unsigned B) const;

  /// The natural loops, one per header, in RPO of the first back-edge
  /// source found. Computed on each call: SimplifyCFG needs only
  /// reachability and should not pay for loop bodies.
  [[nodiscard]] std::vector<Loop> naturalLoops() const;
  [[nodiscard]] bool inLoop(const Loop &L, unsigned B) const;

  /// Records that the edge \p C -> \p E was split by \p W: a new block
  /// right after C in the function that only branches to E, with C's
  /// terminator retargeted from E to W. \p Loops, as naturalLoops()
  /// returned them, is updated to match: W joins every loop that holds E
  /// other than as its header, and replaces C as a back-edge source of
  /// the loop headed by E. Returns W's index.
  unsigned splitEdge(unsigned C, unsigned E, ir::BasicBlock *W,
                     std::vector<Loop> &Loops);

private:
  PtrIndex<ir::BasicBlock> Blocks;
  std::vector<unsigned> SuccBegin, SuccList, PredBegin, PredList;
  std::vector<unsigned> RPO, RPONumber, IDom;

  /// Fills RPO and RPONumber from the successor lists.
  void computeRPO();
  /// Orders reachable blocks by their RPO number.
  [[nodiscard]] auto byRPO() const {
    return [this](unsigned X, unsigned Y) {
      return RPONumber[X] < RPONumber[Y];
    };
  }
};

} // namespace mcc::midend

#endif // MCC_MIDEND_CFGSNAPSHOT_H
