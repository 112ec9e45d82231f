//===--- BytecodeInterpreter.cpp - Threaded bytecode dispatch loop ---------===//
//
// The execution half of the bytecode backend: a direct-threaded dispatch
// loop over the flat instruction array BytecodeCompiler produced. With
// MCC_THREADED_DISPATCH (and a compiler providing computed goto) every
// handler jumps straight to the next handler through a label table —
// there is no central loop, so the branch predictor sees one indirect
// jump per *handler* rather than one shared, unpredictable jump. The
// portable fallback is a switch in a loop, bit-for-bit identical in
// behaviour.
//
// Frames live on the calling thread's FrameStack: one bump allocation
// covers the register file and the coalesced alloca arena, the constant
// pool is memcpy'd into the frame prefix, and everything is released by
// mark on exit (exception-safe via the guard). Nothing here takes a lock:
// the bytecode table is immutable after engine construction, so hot-team
// threads execute outlined regions concurrently with zero re-translation.
//
//===----------------------------------------------------------------------===//
#include "interp/Bytecode.h"
#include "interp/FrameStack.h"
#include "interp/InterpOps.h"
#include "interp/Interpreter.h"

#include <cstring>
#include <stdexcept>

#ifndef MCC_THREADED_DISPATCH
#define MCC_THREADED_DISPATCH 1
#endif

#if MCC_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define MCC_BC_THREADED 1
#else
#define MCC_BC_THREADED 0
#endif

namespace mcc::interp {

namespace bc {
const char *dispatchModeName() {
  return MCC_BC_THREADED ? "threaded" : "switch";
}
} // namespace bc

namespace {

inline std::int64_t applyFused(bc::FusedOp O, std::int64_t A,
                               std::int64_t B) {
  switch (O) {
  case bc::FusedOp::Add:
    return ops::wrapAdd(A, B);
  case bc::FusedOp::Sub:
    return ops::wrapSub(A, B);
  case bc::FusedOp::Mul:
    return ops::wrapMul(A, B);
  case bc::FusedOp::And:
    return A & B;
  case bc::FusedOp::Or:
    return A | B;
  case bc::FusedOp::Xor:
    return A ^ B;
  }
  return 0;
}

} // namespace

RTValue ExecutionEngine::executeBytecode(std::uint32_t FnIdx,
                                         std::span<const RTValue> Args) {
  const bc::BCFunction &BF = BCMod->Functions[FnIdx];
  const RTValue *Pool = PatchedPools.data() + PoolOffsets[FnIdx];

  FrameStack &FS = threadFrameStack();
  std::uint64_t Insts = 0, Super = 0;
  std::vector<void *> DynAllocas;

  // Releases the frame, frees dynamic allocas and flushes the local
  // counters — on return and on unwinding (division traps, unreachable).
  struct Cleanup {
    ExecutionEngine &EE;
    FrameStack &FS;
    FrameStack::Mark M;
    std::vector<void *> &Dyn;
    std::uint64_t &Insts, &Super;
    ~Cleanup() {
      for (void *P : Dyn)
        ::operator delete(P);
      FS.release(M);
      EE.InstructionsExecuted.fetch_add(Insts, std::memory_order_relaxed);
      EE.SuperinstHits.fetch_add(Super, std::memory_order_relaxed);
      EE.FramesExecuted.fetch_add(1, std::memory_order_relaxed);
    }
  } Guard{*this, FS, FS.mark(), DynAllocas, Insts, Super};

  // One allocation: [registers][alloca arena]. RTValue slots are 16 bytes,
  // so the arena tail stays 16-aligned.
  char *Mem = static_cast<char *>(
      FS.allocate(BF.NumFrame * sizeof(RTValue) + BF.ArenaBytes));
  auto *Frame = reinterpret_cast<RTValue *>(Mem);
  char *Arena = Mem + BF.NumFrame * sizeof(RTValue);
  if (BF.NumConsts) // a function without constants may have no pool
    std::memcpy(Frame, Pool, BF.NumConsts * sizeof(RTValue));
  std::memset(static_cast<void *>(Frame + BF.NumConsts), 0,
              (BF.NumFrame - BF.NumConsts) * sizeof(RTValue));
  for (std::uint32_t K = 0; K < BF.NumArgs; ++K)
    Frame[BF.NumConsts + K] = Args[K];

  const bc::Inst *Code = BF.Code.data();
  const bc::Inst *IP = Code;

  // OSR probe state, armed only in tiered mode: every taken backward
  // branch bumps the counter, and crossing the threshold promotes this
  // *running* frame to native code (the frame layout is shared, so the
  // handoff is just "resume natively at the branch target"). A fallback
  // verdict disarms the probe — this frame stays on bytecode for good.
  bool OSRCheck = OSRActive;
  std::uint64_t BackEdges = 0;
#define MCC_BC_BACKEDGE(OldIP)                                              \
  do {                                                                      \
    if (OSRCheck && IP <= (OldIP) && ++BackEdges >= OSRThreshold) {         \
      RTValue OSRRet;                                                       \
      if (tryOSR(FnIdx, Frame, Arena,                                       \
                 static_cast<std::uint32_t>(IP - Code), DynAllocas,         \
                 OSRRet))                                                   \
        return OSRRet;                                                      \
      OSRCheck = false;                                                     \
    }                                                                       \
  } while (0)

#if MCC_BC_THREADED
#define VMCASE(name) Lbl_##name
#define VMNEXT()                                                            \
  do {                                                                      \
    ++Insts;                                                                \
    goto *JumpTable[static_cast<std::uint8_t>(IP->Code)];                   \
  } while (0)
  // Must mirror bc::Op declaration order exactly.
  static const void *const JumpTable[] = {
      &&Lbl_Mov,    &&Lbl_Add,     &&Lbl_Sub,        &&Lbl_Mul,
      &&Lbl_SDiv,   &&Lbl_UDiv,    &&Lbl_SRem,       &&Lbl_URem,
      &&Lbl_And,    &&Lbl_Or,      &&Lbl_Xor,        &&Lbl_Shl,
      &&Lbl_AShr,   &&Lbl_LShr,    &&Lbl_FAdd,       &&Lbl_FSub,
      &&Lbl_FMul,   &&Lbl_FDiv,    &&Lbl_FNeg,       &&Lbl_ICmp,
      &&Lbl_FCmp,   &&Lbl_SExt,    &&Lbl_ZExt,       &&Lbl_Trunc,
      &&Lbl_SIToFP, &&Lbl_UIToFP,  &&Lbl_FPToSI,     &&Lbl_FPToUI,
      &&Lbl_Load1,  &&Lbl_Load4,   &&Lbl_Load8,      &&Lbl_LoadF64,
      &&Lbl_Store1, &&Lbl_Store4,  &&Lbl_Store8,     &&Lbl_StoreF64,
      &&Lbl_Gep,    &&Lbl_AllocaFixed, &&Lbl_AllocaDyn, &&Lbl_Select,
      &&Lbl_Jmp,    &&Lbl_CondBr,  &&Lbl_Ret,        &&Lbl_Unreachable,
      &&Lbl_CallBC, &&Lbl_CallRT,  &&Lbl_CmpBr,      &&Lbl_LoadOpStore4,
      &&Lbl_LoadOpStore8,
  };
  static_assert(sizeof(JumpTable) / sizeof(JumpTable[0]) ==
                static_cast<std::size_t>(bc::Op::NumOps));
  VMNEXT();
#else
#define VMCASE(name) case bc::Op::name
#define VMNEXT() break
  for (;;) {
    ++Insts;
    switch (IP->Code) {
#endif

  VMCASE(Mov) : {
    const bc::Inst &In = *IP;
    Frame[In.A] = Frame[In.B];
    ++IP;
    VMNEXT();
  }
  VMCASE(Add) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::signExtend(ops::wrapAdd(Frame[In.B].I, Frame[In.C].I), In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(Sub) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::signExtend(ops::wrapSub(Frame[In.B].I, Frame[In.C].I), In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(Mul) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::signExtend(ops::wrapMul(Frame[In.B].I, Frame[In.C].I), In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(SDiv) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::evalIntBinop(ir::Opcode::SDiv, Frame[In.B].I, Frame[In.C].I,
                          In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(UDiv) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::evalIntBinop(ir::Opcode::UDiv, Frame[In.B].I, Frame[In.C].I,
                          In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(SRem) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::evalIntBinop(ir::Opcode::SRem, Frame[In.B].I, Frame[In.C].I,
                          In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(URem) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        ops::evalIntBinop(ir::Opcode::URem, Frame[In.B].I, Frame[In.C].I,
                          In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(And) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = Frame[In.B].I & Frame[In.C].I;
    ++IP;
    VMNEXT();
  }
  VMCASE(Or) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = Frame[In.B].I | Frame[In.C].I;
    ++IP;
    VMNEXT();
  }
  VMCASE(Xor) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = Frame[In.B].I ^ Frame[In.C].I;
    ++IP;
    VMNEXT();
  }
  VMCASE(Shl) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(
        Frame[In.B].I << (Frame[In.C].I & (In.W - 1)), In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(AShr) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(
        ops::signExtend(Frame[In.B].I, In.W) >> (Frame[In.C].I & (In.W - 1)),
        In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(LShr) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(
        static_cast<std::int64_t>(ops::zeroExtend(Frame[In.B].I, In.W) >>
                                  (Frame[In.C].I & (In.W - 1))),
        In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(FAdd) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D = Frame[In.B].D + Frame[In.C].D;
    ++IP;
    VMNEXT();
  }
  VMCASE(FSub) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D = Frame[In.B].D - Frame[In.C].D;
    ++IP;
    VMNEXT();
  }
  VMCASE(FMul) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D = Frame[In.B].D * Frame[In.C].D;
    ++IP;
    VMNEXT();
  }
  VMCASE(FDiv) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D = Frame[In.B].D / Frame[In.C].D;
    ++IP;
    VMNEXT();
  }
  VMCASE(FNeg) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D = -Frame[In.B].D;
    ++IP;
    VMNEXT();
  }
  VMCASE(ICmp) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::evalICmp(static_cast<ir::CmpPred>(In.Sub),
                                  Frame[In.B].I, Frame[In.C].I, In.W)
                        ? 1
                        : 0;
    ++IP;
    VMNEXT();
  }
  VMCASE(FCmp) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::evalFCmp(static_cast<ir::CmpPred>(In.Sub),
                                  Frame[In.B].D, Frame[In.C].D)
                        ? 1
                        : 0;
    ++IP;
    VMNEXT();
  }
  VMCASE(SExt) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(Frame[In.B].I, In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(ZExt) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I =
        static_cast<std::int64_t>(ops::zeroExtend(Frame[In.B].I, In.W));
    ++IP;
    VMNEXT();
  }
  VMCASE(Trunc) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(Frame[In.B].I, In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(SIToFP) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D =
        static_cast<double>(ops::signExtend(Frame[In.B].I, In.W));
    ++IP;
    VMNEXT();
  }
  VMCASE(UIToFP) : {
    const bc::Inst &In = *IP;
    Frame[In.A].D =
        static_cast<double>(ops::zeroExtend(Frame[In.B].I, In.W));
    ++IP;
    VMNEXT();
  }
  VMCASE(FPToSI) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = ops::signExtend(
        static_cast<std::int64_t>(Frame[In.B].D), In.W);
    ++IP;
    VMNEXT();
  }
  VMCASE(FPToUI) : {
    const bc::Inst &In = *IP;
    Frame[In.A].I = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(Frame[In.B].D));
    ++IP;
    VMNEXT();
  }
  VMCASE(Load1) : {
    const bc::Inst &In = *IP;
    std::int8_t V;
    std::memcpy(&V, Frame[In.B].asPtr(), 1);
    Frame[In.A].I = V;
    ++IP;
    VMNEXT();
  }
  VMCASE(Load4) : {
    const bc::Inst &In = *IP;
    std::int32_t V;
    std::memcpy(&V, Frame[In.B].asPtr(), 4);
    Frame[In.A].I = V;
    ++IP;
    VMNEXT();
  }
  VMCASE(Load8) : {
    const bc::Inst &In = *IP;
    std::int64_t V;
    std::memcpy(&V, Frame[In.B].asPtr(), 8);
    Frame[In.A].I = V;
    ++IP;
    VMNEXT();
  }
  VMCASE(LoadF64) : {
    const bc::Inst &In = *IP;
    std::memcpy(&Frame[In.A].D, Frame[In.B].asPtr(), 8);
    ++IP;
    VMNEXT();
  }
  VMCASE(Store1) : {
    const bc::Inst &In = *IP;
    auto V = static_cast<std::int8_t>(Frame[In.A].I);
    std::memcpy(Frame[In.B].asPtr(), &V, 1);
    ++IP;
    VMNEXT();
  }
  VMCASE(Store4) : {
    const bc::Inst &In = *IP;
    auto V = static_cast<std::int32_t>(Frame[In.A].I);
    std::memcpy(Frame[In.B].asPtr(), &V, 4);
    ++IP;
    VMNEXT();
  }
  VMCASE(Store8) : {
    const bc::Inst &In = *IP;
    std::memcpy(Frame[In.B].asPtr(), &Frame[In.A].I, 8);
    ++IP;
    VMNEXT();
  }
  VMCASE(StoreF64) : {
    const bc::Inst &In = *IP;
    std::memcpy(Frame[In.B].asPtr(), &Frame[In.A].D, 8);
    ++IP;
    VMNEXT();
  }
  VMCASE(Gep) : {
    const bc::Inst &In = *IP;
    Frame[In.A] = RTValue::ofPtr(static_cast<char *>(Frame[In.B].asPtr()) +
                                 Frame[In.C].I * In.Imm);
    ++IP;
    VMNEXT();
  }
  VMCASE(AllocaFixed) : {
    const bc::Inst &In = *IP;
    char *P = Arena + In.Imm;
    std::memset(P, 0, In.B);
    Frame[In.A] = RTValue::ofPtr(P);
    ++IP;
    VMNEXT();
  }
  VMCASE(AllocaDyn) : {
    const bc::Inst &In = *IP;
    auto Size = static_cast<std::size_t>(Frame[In.B].I) *
                static_cast<std::size_t>(In.Imm);
    if (Size < 1)
      Size = 1;
    void *P = ::operator new(Size);
    std::memset(P, 0, Size);
    DynAllocas.push_back(P);
    Frame[In.A] = RTValue::ofPtr(P);
    ++IP;
    VMNEXT();
  }
  VMCASE(Select) : {
    const bc::Inst &In = *IP;
    Frame[In.A] = Frame[In.B].I ? Frame[In.C] : Frame[In.D];
    ++IP;
    VMNEXT();
  }
  VMCASE(Jmp) : {
    const bc::Inst *Old = IP;
    IP = Code + IP->A;
    MCC_BC_BACKEDGE(Old);
    VMNEXT();
  }
  VMCASE(CondBr) : {
    const bc::Inst &In = *IP;
    const bc::Inst *Old = IP;
    IP = Code + (Frame[In.A].I ? In.B : In.C);
    MCC_BC_BACKEDGE(Old);
    VMNEXT();
  }
  VMCASE(Ret) : {
    const bc::Inst &In = *IP;
    return In.Sub ? Frame[In.A] : RTValue{};
  }
  VMCASE(Unreachable) : {
    throw std::runtime_error("executed 'unreachable'");
  }
  VMCASE(CallBC) : {
    const bc::Inst &In = *IP;
    const std::uint32_t *AP = BF.ArgPool.data() + In.C;
    RTValue ArgBuf[12];
    RTValue R;
    if (In.D <= 12) {
      for (std::uint32_t K = 0; K < In.D; ++K)
        ArgBuf[K] = Frame[AP[K]];
      std::span<const RTValue> CallArgs(ArgBuf, In.D);
      R = JIT ? executeTiered(In.B, CallArgs)
              : executeBytecode(In.B, CallArgs);
    } else {
      std::vector<RTValue> Big(In.D);
      for (std::uint32_t K = 0; K < In.D; ++K)
        Big[K] = Frame[AP[K]];
      R = JIT ? executeTiered(In.B, Big) : executeBytecode(In.B, Big);
    }
    Frame[In.A] = R;
    ++IP;
    VMNEXT();
  }
  VMCASE(CallRT) : {
    const bc::Inst &In = *IP;
    const std::uint32_t *AP = BF.ArgPool.data() + In.C;
    RTValue ArgBuf[12];
    RTValue R;
    if (In.D <= 12) {
      for (std::uint32_t K = 0; K < In.D; ++K)
        ArgBuf[K] = Frame[AP[K]];
      R = callRuntimeResolved(static_cast<bc::RTCallee>(In.Sub),
                              BCMod->ExternalNames[In.B],
                              std::span<const RTValue>(ArgBuf, In.D));
    } else {
      std::vector<RTValue> Big(In.D);
      for (std::uint32_t K = 0; K < In.D; ++K)
        Big[K] = Frame[AP[K]];
      R = callRuntimeResolved(static_cast<bc::RTCallee>(In.Sub),
                              BCMod->ExternalNames[In.B], Big);
    }
    Frame[In.A] = R;
    ++IP;
    VMNEXT();
  }
  VMCASE(CmpBr) : {
    const bc::Inst &In = *IP;
    bool R = ops::evalICmp(static_cast<ir::CmpPred>(In.Sub), Frame[In.B].I,
                           Frame[In.C].I, In.W);
    Frame[In.A].I = R ? 1 : 0;
    const bc::Inst *Old = IP;
    IP = Code + (R ? static_cast<std::uint32_t>(In.Imm)
                   : static_cast<std::uint32_t>(In.Imm >> 32));
    ++Super;
    MCC_BC_BACKEDGE(Old);
    VMNEXT();
  }
  VMCASE(LoadOpStore4) : {
    const bc::Inst &In = *IP;
    char *P = static_cast<char *>(Frame[In.A].asPtr());
    std::int32_t L;
    std::memcpy(&L, P, 4);
    Frame[In.C].I = L;
    // Read the rhs only now: it may be the load's own register (x op x).
    std::int64_t R = ops::signExtend(
        applyFused(static_cast<bc::FusedOp>(In.Sub), Frame[In.C].I,
                   Frame[In.B].I),
        32);
    Frame[In.D].I = R;
    auto S = static_cast<std::int32_t>(R);
    std::memcpy(P, &S, 4);
    ++Super;
    ++IP;
    VMNEXT();
  }
  VMCASE(LoadOpStore8) : {
    const bc::Inst &In = *IP;
    char *P = static_cast<char *>(Frame[In.A].asPtr());
    std::int64_t L;
    std::memcpy(&L, P, 8);
    Frame[In.C].I = L;
    std::int64_t R = applyFused(static_cast<bc::FusedOp>(In.Sub),
                                Frame[In.C].I, Frame[In.B].I);
    Frame[In.D].I = R;
    std::memcpy(P, &R, 8);
    ++Super;
    ++IP;
    VMNEXT();
  }

#if !MCC_BC_THREADED
    default:
      throw std::runtime_error("bytecode: corrupt opcode");
    }
  }
#endif
#undef VMCASE
#undef VMNEXT
#undef MCC_BC_BACKEDGE
}

} // namespace mcc::interp
