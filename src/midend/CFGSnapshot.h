//===--- CFGSnapshot.h - One function's CFG, indexed by block ---*- C++ -*-===//
//
// The control-flow facts the mid-end's loop passes share, computed once per
// function in O(blocks + edges) and indexed by a block's position in
// Function::blocks(): successors, predecessors, the reverse post-order of
// the reachable blocks, and the immediate-dominator tree (Cooper, Harvey
// and Kennedy, "A Simple, Fast Dominance Algorithm"). The natural loops
// are derived from these on request.
//
// It is a snapshot: any CFG edit (a new block, a retargeted branch, an
// erased block) leaves it stale, and the pass that made the edit builds a
// new one. There is no incremental update, because a rebuild costs less
// than the per-block BasicBlock::predecessors() scans it replaces.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_MIDEND_CFGSNAPSHOT_H
#define MCC_MIDEND_CFGSNAPSHOT_H

#include "ir/IR.h"

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
  /// Position of \p BB in the function, or None if it is not one of its
  /// blocks.
  [[nodiscard]] unsigned index(const ir::BasicBlock *BB) const;

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

private:
  std::vector<ir::BasicBlock *> Blocks;
  /// Open-addressing table from block address to position: a power of
  /// two at least twice the block count, linear probing, None = empty.
  std::vector<unsigned> Slots;
  [[nodiscard]] std::size_t slotOf(const ir::BasicBlock *BB) const;
  std::vector<unsigned> SuccBegin, SuccList, PredBegin, PredList;
  std::vector<unsigned> RPO, RPONumber, IDom;
};

} // namespace mcc::midend

#endif // MCC_MIDEND_CFGSNAPSHOT_H
