//===--- LoopUnroll.h - Metadata-driven mid-end loop unrolling --*- C++ -*-===//
//
// The LoopUnroll pass of the paper's Section 2.2: consumes the
// llvm.loop.unroll.* metadata that CodeGen attaches for LoopHintAttr (and
// that OpenMPIRBuilder attaches for unrollLoop*), and performs the actual
// body duplication in the mid-end — "No duplication takes place until that
// point."
//
// Two strategies, corresponding to the two implementations the paper's
// Listing 2 discussion contrasts:
//
//   * ConditionalExit — each replicated body copy keeps its own exit
//     check ("the conditional within the loop"); correct for every loop
//     shape this compiler emits.
//   * Remainder — the main loop runs floor(trip/factor) rounds of
//     factor checks-free bodies, followed by a remainder loop (the
//     paper's Listing 2); applicable to canonical loop skeletons
//     (phi IV, unit step, ult bound).
//
//===----------------------------------------------------------------------===//
#ifndef MCC_MIDEND_LOOPUNROLL_H
#define MCC_MIDEND_LOOPUNROLL_H

#include "ir/IR.h"

namespace mcc::midend {

struct LoopUnrollOptions {
  enum class Strategy { Auto, ConditionalExit, Remainder };
  Strategy Strat = Strategy::Auto;
  /// Factor used for llvm.loop.unroll.enable (heuristic) when the body is
  /// small enough; 0 disables heuristic unrolling.
  unsigned HeuristicFactor = 4;
  /// Bodies larger than this (instructions) are not heuristically
  /// unrolled.
  unsigned HeuristicSizeLimit = 64;
  /// Full unrolling is only performed up to this constant trip count;
  /// larger loops fall back to partial unrolling by HeuristicFactor.
  unsigned FullUnrollMax = 128;
};

/// Fields are the UNROLL_STAT rows of PipelineStats.def.
struct LoopUnrollStats {
#define UNROLL_STAT(Group, Name, Field) unsigned Field = 0;
#include "midend/PipelineStats.def"
};

/// Runs the unroller over every function of \p M. Returns statistics.
LoopUnrollStats runLoopUnroll(ir::Module &M, const LoopUnrollOptions &Opts = {});

} // namespace mcc::midend

#endif // MCC_MIDEND_LOOPUNROLL_H
