//===--- Passes.h - Mid-end cleanup passes and pipeline ---------*- C++ -*-===//
#ifndef MCC_MIDEND_PASSES_H
#define MCC_MIDEND_PASSES_H

#include "midend/LoopUnroll.h"

namespace mcc::midend {

/// Removes blocks unreachable from the entry and merges trivial
/// single-predecessor chains. Returns the number of blocks removed/merged.
unsigned runSimplifyCFG(ir::Module &M);

/// Removes side-effect-free instructions without uses. Returns the number
/// of instructions removed.
unsigned runDCE(ir::Module &M);

/// Block-local store-to-load forwarding: replaces a load with the value
/// most recently stored (or loaded) through the same pointer SSA value in
/// the same block. Distinct allocas and globals are known not to alias;
/// calls and stores through unknown pointers invalidate conservatively.
/// Returns the number of loads forwarded (the loads themselves become
/// dead and are swept by the following DCE run).
unsigned runStoreForward(ir::Module &M);

/// Promotes memory-resident scalars (globals and non-escaping allocas)
/// into SSA registers across natural loops: load in the preheader, phis
/// at the header and at the iterated dominance frontier of the loop's
/// stores, writeback at the single exit.
/// Restricted to call-free single-exit loops whose other memory traffic
/// provably touches different objects; a loop that stores the scalar
/// must do so on every iteration. Returns the number of (loop, scalar)
/// promotions performed.
unsigned runScalarPromote(ir::Module &M);

struct PipelineStats {
  LoopUnrollStats Unroll;
  unsigned BlocksSimplified = 0;
  unsigned LoadsForwarded = 0;
  unsigned ScalarsPromoted = 0;
  unsigned InstructionsDCEd = 0;
};

/// The default -O1 pipeline: LoopUnroll, then CFG simplification,
/// store-to-load forwarding, loop scalar promotion, and DCE.
PipelineStats runDefaultPipeline(ir::Module &M,
                                 const LoopUnrollOptions &UnrollOpts = {});

} // namespace mcc::midend

#endif // MCC_MIDEND_PASSES_H
