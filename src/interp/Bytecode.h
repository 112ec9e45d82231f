//===--- Bytecode.h - Register-allocated bytecode format --------*- C++ -*-===//
//
// The flat execution format the BytecodeCompiler lowers each ir::Function
// into, once, at engine construction: every operand is a dense frame index
// resolved at translation time (no per-step map lookups), phi nodes are
// pre-resolved into per-CFG-edge parallel-copy move sequences, branch
// targets are instruction offsets, and fixed-size allocas are coalesced
// into one per-frame arena layout.
//
// Frame layout (16-byte RTValue slots):
//
//   [0, NumConsts)             constant pool, memcpy'd in at frame entry
//                              (globals patched per engine, see GlobalRelocs)
//   [NumConsts, +NumArgs)      incoming arguments
//   [.., NumFrame-1)           SSA registers (ir::numberFunctionValues order)
//   [NumFrame-1]               scratch: phi-cycle breaking, void call results
//
// Constants living in the frame is what makes operand addressing uniform:
// an instruction's A/B/C/D fields index one array regardless of whether
// the ir operand was a constant, argument or instruction.
//
// The module produced by compileToBytecode is immutable and position
// independent (global addresses are pool *relocations*, not baked
// pointers), so one translation is shared by every ExecutionEngine and
// read concurrently by hot-team threads with no locking.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_INTERP_BYTECODE_H
#define MCC_INTERP_BYTECODE_H

#include "ir/IR.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mcc::interp {
struct RTValue;
}

namespace mcc::interp::bc {

enum class Op : std::uint8_t {
  Mov, // A = dst, B = src
  // Integer binops: A = dst, B = lhs, C = rhs, W = result bits. Same
  // order as ir::Opcode's integer block (FusedOp below relies on it).
  Add,
  Sub,
  Mul,
  SDiv,
  UDiv,
  SRem,
  URem,
  And,
  Or,
  Xor,
  Shl,
  AShr,
  LShr,
  // Floating point: A = dst, B = lhs, C = rhs (FNeg: B only).
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  // Comparisons: A = dst, B = lhs, C = rhs; Sub = CmpPred; ICmp W =
  // operand bits.
  ICmp,
  FCmp,
  // Casts: A = dst, B = src; W = source bits (extensions, *IToFP) or
  // destination bits (Trunc, FPToSI). FPExt lowers to Mov.
  SExt,
  ZExt,
  Trunc,
  SIToFP,
  UIToFP,
  FPToSI,
  FPToUI,
  // Memory: A = dst/value, B = pointer.
  Load1,
  Load4,
  Load8,
  LoadF64,
  Store1,
  Store4,
  Store8,
  StoreF64,
  Gep,         // A = dst, B = base, C = index, Imm = element size
  AllocaFixed, // A = dst, Imm = arena offset, B = bytes to zero
  AllocaDyn,   // A = dst, B = count reg, Imm = element size
  Select,      // A = dst, B = cond, C = true value, D = false value
  // Control flow: targets are instruction offsets.
  Jmp,    // A = target
  CondBr, // A = cond, B = true target, C = false target
  Ret,    // Sub = 1 -> A = value
  Unreachable,
  // Calls: arguments are ArgPool[C .. C+D), each an operand frame index.
  CallBC, // A = dst, B = callee index in BytecodeModule::Functions
  CallRT, // A = dst, Sub = RTCallee, B = ExternalNames index
  // Superinstructions (the hot loop-body patterns).
  CmpBr,        // icmp + cond-br: A = dst, B/C = operands, Sub = pred,
                // W = operand bits, Imm = true-target | false-target << 32
  LoadOpStore4, // load p; r = load OP rhs; store r, p (32-bit element):
  LoadOpStore8, // A = pointer, B = rhs, C = load dst, D = op dst,
                // Sub = FusedOp
  NumOps,
};

/// The int-binop subset eligible for load-op-store fusion (no traps).
enum class FusedOp : std::uint8_t { Add, Sub, Mul, And, Or, Xor };

/// Pre-resolved runtime callees: the walker's per-call string comparison
/// chain, done once at translation time.
enum class RTCallee : std::uint8_t {
  ForkCall,
  GlobalThreadNum,
  NumThreads,
  ForStaticInit,
  ForStaticFini,
  DispatchInit,
  DispatchNext,
  DispatchFini,
  Barrier,
  Critical,
  EndCritical,
  External, ///< dispatched through ExecutionEngine::Externals by name
};

/// Maps a declared callee name to its pre-resolved runtime entry.
RTCallee resolveRuntimeCallee(std::string_view Name);

/// One fixed-width (32-byte) instruction. Operand fields are frame
/// indices unless the opcode comment above says otherwise.
struct Inst {
  Op Code = Op::Unreachable;
  std::uint8_t Sub = 0;
  std::uint16_t W = 0;
  std::uint32_t A = 0;
  std::uint32_t B = 0;
  std::uint32_t C = 0;
  std::uint32_t D = 0;
  std::int64_t Imm = 0;
};

/// Per-frame-slot facts computed once at translation time, consumed by
/// the native tier's register allocator (JITCompiler). The interval is
/// conservative: it starts at 0 when the slot is live-in (constants,
/// arguments, any read-before-write) and is widened to enclose every
/// backward-branch range it intersects, so "live at instruction I" is a
/// sound spill filter at any helper-call site or OSR entry boundary.
struct SlotMeta {
  std::uint32_t LiveBegin = 0; ///< first instruction index live (0 = live-in)
  std::uint32_t LiveEnd = 0;   ///< last instruction index touching the slot
  std::uint32_t Reads = 0;     ///< static count of read accesses
  std::uint64_t Weight = 0;    ///< use count, x16 inside back-edge ranges
};

struct BCFunction {
  const ir::Function *IRFn = nullptr;
  std::vector<Inst> Code;
  /// Frame prefix template. Slots named in GlobalRelocs hold a
  /// placeholder; the engine patches a private copy with its global
  /// addresses (see ExecutionEngine's patched pools).
  std::vector<std::int64_t> ConstPoolInts;
  std::vector<double> ConstPoolFPs; ///< parallel to ConstPoolInts
  std::vector<std::pair<std::uint32_t, const ir::GlobalVariable *>>
      GlobalRelocs;
  std::vector<std::uint32_t> ArgPool; ///< call argument index runs
  std::uint32_t NumConsts = 0;
  std::uint32_t NumArgs = 0;
  std::uint32_t NumFrame = 0; ///< total slots incl. trailing scratch
  std::uint32_t ArenaBytes = 0;
  std::uint32_t NumSuperinsts = 0; ///< fused instructions emitted
  /// One entry per frame slot (size NumFrame); see SlotMeta.
  std::vector<SlotMeta> Slots;

  [[nodiscard]] std::size_t byteSize() const {
    return Code.size() * sizeof(Inst) +
           ConstPoolInts.size() * (sizeof(std::int64_t) + sizeof(double)) +
           ArgPool.size() * sizeof(std::uint32_t);
  }
};

struct BytecodeModule {
  const ir::Module *Source = nullptr;
  std::vector<BCFunction> Functions; ///< defined functions only
  std::map<const ir::Function *, std::uint32_t> Index;
  std::vector<std::string> ExternalNames;

  [[nodiscard]] std::size_t byteSize() const {
    std::size_t N = 0;
    for (const BCFunction &F : Functions)
      N += F.byteSize();
    return N;
  }
  [[nodiscard]] std::uint32_t superinstsEmitted() const {
    std::uint32_t N = 0;
    for (const BCFunction &F : Functions)
      N += F.NumSuperinsts;
    return N;
  }
};

/// Fills \p F's Slots from its Code, ArgPool and frame layout: the live
/// intervals, read counts and back-edge-weighted use counts described at
/// SlotMeta. compileToBytecode runs it on every function it translates.
void computeSlotMeta(BCFunction &F);

/// Translates every defined function of \p M. The result is immutable,
/// engine-independent and safe to share across engines and threads (L3
/// compile-service artifacts cache it alongside the module).
std::shared_ptr<const BytecodeModule> compileToBytecode(const ir::Module &M);

/// "threaded" when compiled with computed-goto dispatch
/// (MCC_THREADED_DISPATCH), "switch" for the portable fallback.
const char *dispatchModeName();

} // namespace mcc::interp::bc

#endif // MCC_INTERP_BYTECODE_H
