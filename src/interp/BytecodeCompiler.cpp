//===--- BytecodeCompiler.cpp - ir::Function -> flat bytecode --------------===//
//
// One-time translation pass (per module) behind the bytecode backend.
// Pipeline, per function:
//
//   1. constant collection   every constant operand gets a pool slot
//                            (globals become relocations)
//   2. register allocation   ir::numberFunctionValues -> dense frame
//                            indices; fixed-size allocas laid out in a
//                            per-frame arena
//   3. linear emission       blocks in order, branch targets as fixups;
//                            `cmp + cond-br` and `load + int-op + store`
//                            windows fuse into superinstructions; an
//                            unconditional branch emits its edge's phi
//                            parallel copy (sequentialized moves, cycles
//                            broken through the scratch register) at the
//                            end of its own block, and no jump at all when
//                            its target is the block laid out next
//   4. phi pre-resolution    each conditional-branch edge into a phi-
//                            bearing block gets an out-of-line trampoline:
//                            the edge's parallel copy and a jump
//   5. fixup patching        edges resolve to trampolines where they
//                            exist, block starts otherwise
//   6. slot metadata         computeSlotMeta over the final code
//
//===----------------------------------------------------------------------===//
#include "interp/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace mcc::interp::bc {

using namespace ir;

RTCallee resolveRuntimeCallee(std::string_view Name) {
  if (Name == "__kmpc_fork_call")
    return RTCallee::ForkCall;
  if (Name == "__kmpc_global_thread_num" || Name == "omp_get_thread_num")
    return RTCallee::GlobalThreadNum;
  if (Name == "omp_get_num_threads")
    return RTCallee::NumThreads;
  if (Name == "__kmpc_for_static_init")
    return RTCallee::ForStaticInit;
  if (Name == "__kmpc_for_static_fini")
    return RTCallee::ForStaticFini;
  if (Name == "__kmpc_dispatch_init")
    return RTCallee::DispatchInit;
  if (Name == "__kmpc_dispatch_next")
    return RTCallee::DispatchNext;
  if (Name == "__kmpc_dispatch_fini")
    return RTCallee::DispatchFini;
  if (Name == "__kmpc_barrier")
    return RTCallee::Barrier;
  if (Name == "__kmpc_critical")
    return RTCallee::Critical;
  if (Name == "__kmpc_end_critical")
    return RTCallee::EndCritical;
  return RTCallee::External;
}

namespace {

bool isConstantOperand(const Value *V) {
  switch (V->getValueKind()) {
  case Value::ValueKind::ConstantInt:
  case Value::ValueKind::ConstantFP:
  case Value::ValueKind::ConstantNull:
  case Value::ValueKind::Global:
  case Value::ValueKind::Function:
    return true;
  default:
    return false;
  }
}

Op intBinopOp(Opcode O) {
  switch (O) {
  case Opcode::Add:
    return Op::Add;
  case Opcode::Sub:
    return Op::Sub;
  case Opcode::Mul:
    return Op::Mul;
  case Opcode::SDiv:
    return Op::SDiv;
  case Opcode::UDiv:
    return Op::UDiv;
  case Opcode::SRem:
    return Op::SRem;
  case Opcode::URem:
    return Op::URem;
  case Opcode::And:
    return Op::And;
  case Opcode::Or:
    return Op::Or;
  case Opcode::Xor:
    return Op::Xor;
  case Opcode::Shl:
    return Op::Shl;
  case Opcode::AShr:
    return Op::AShr;
  case Opcode::LShr:
    return Op::LShr;
  default:
    throw std::runtime_error("not an integer binop");
  }
}

/// Trap-free binops eligible for load-op-store fusion.
bool fusableIntOp(Opcode O, FusedOp &Out) {
  switch (O) {
  case Opcode::Add:
    Out = FusedOp::Add;
    return true;
  case Opcode::Sub:
    Out = FusedOp::Sub;
    return true;
  case Opcode::Mul:
    Out = FusedOp::Mul;
    return true;
  case Opcode::And:
    Out = FusedOp::And;
    return true;
  case Opcode::Or:
    Out = FusedOp::Or;
    return true;
  case Opcode::Xor:
    Out = FusedOp::Xor;
    return true;
  default:
    return false;
  }
}

class FunctionCompiler {
public:
  FunctionCompiler(const Function &F, BytecodeModule &Mod,
                   std::unordered_map<std::string, std::uint32_t> &ExtIndex)
      : F(F), Mod(Mod), ExtIndex(ExtIndex), VN(numberFunctionValues(F)) {}

  BCFunction compile() {
    Out.IRFn = &F;
    collectConstants();
    layoutAllocas();
    Out.NumConsts = static_cast<std::uint32_t>(Out.ConstPoolInts.size());
    Out.NumArgs = VN.NumArgs;
    Scratch = Out.NumConsts + VN.NumValues;
    Out.NumFrame = Scratch + 1;

    const auto &Blocks = F.blocks();
    for (std::size_t K = 0; K < Blocks.size(); ++K) {
      NextBlock = K + 1 < Blocks.size() ? Blocks[K + 1].get() : nullptr;
      emitBlock(*Blocks[K]);
    }
    emitPhiTrampolines();
    patchFixups();
    computeSlotMeta(Out);
    return std::move(Out);
  }

private:
  enum Field { FieldA, FieldB, FieldC, FieldImmLo, FieldImmHi };
  struct Fixup {
    std::size_t Idx;
    Field Where;
    /// Null for a jump whose edge copies already ran in its own block.
    const BasicBlock *From;
    const BasicBlock *To;
  };

  const Function &F;
  BytecodeModule &Mod;
  std::unordered_map<std::string, std::uint32_t> &ExtIndex;
  ValueNumbering VN;
  BCFunction Out;
  std::uint32_t Scratch = 0;
  /// The block emitted after the current one, if any.
  const BasicBlock *NextBlock = nullptr;
  std::unordered_map<const Value *, std::uint32_t> ConstSlot;
  std::unordered_map<const BasicBlock *, std::uint32_t> BlockStart;
  std::map<std::pair<const BasicBlock *, const BasicBlock *>, std::uint32_t>
      EdgeTramp;
  std::vector<Fixup> Fixups;

  // --- Phase 1: constants ------------------------------------------------

  void addConstant(const Value *V) {
    if (ConstSlot.count(V))
      return;
    auto Slot = static_cast<std::uint32_t>(Out.ConstPoolInts.size());
    std::int64_t I = 0;
    double D = 0.0;
    switch (V->getValueKind()) {
    case Value::ValueKind::ConstantInt:
      I = ir_cast<ConstantInt>(V)->getValue();
      break;
    case Value::ValueKind::ConstantFP:
      D = ir_cast<ConstantFP>(V)->getValue();
      break;
    case Value::ValueKind::ConstantNull:
      break;
    case Value::ValueKind::Global:
      // Address is engine state, not translation state: record a
      // relocation and let each engine patch its private pool copy.
      Out.GlobalRelocs.emplace_back(Slot, ir_cast<GlobalVariable>(V));
      break;
    case Value::ValueKind::Function:
      // Function "addresses" are the ir nodes themselves (the runtime's
      // fork trampoline casts them back), identical for every engine.
      I = static_cast<std::int64_t>(
          reinterpret_cast<std::intptr_t>(ir_cast<Function>(V)));
      break;
    default:
      return;
    }
    ConstSlot[V] = Slot;
    Out.ConstPoolInts.push_back(I);
    Out.ConstPoolFPs.push_back(D);
  }

  void collectConstants() {
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        switch (I->getOpcode()) {
        case Opcode::Call:
          for (unsigned K = 1; K < I->getNumOperands(); ++K)
            if (isConstantOperand(I->getOperand(K)))
              addConstant(I->getOperand(K));
          break;
        case Opcode::Phi:
          for (unsigned K = 0; K < I->getNumIncoming(); ++K)
            if (isConstantOperand(I->getIncomingValue(K)))
              addConstant(I->getIncomingValue(K));
          break;
        case Opcode::Br:
          if (I->isConditionalBr() && isConstantOperand(I->getOperand(0)))
            addConstant(I->getOperand(0));
          break;
        default:
          for (const Value *V : I->operands())
            if (isConstantOperand(V))
              addConstant(V);
          break;
        }
      }
  }

  // --- Phase 2: frame layout ---------------------------------------------

  std::map<const Instruction *, std::uint32_t> AllocaOffset;
  std::map<const Instruction *, std::uint32_t> AllocaSize;

  void layoutAllocas() {
    std::size_t Offset = 0;
    for (const auto &BB : F.blocks())
      for (const auto &I : BB->instructions()) {
        if (I->getOpcode() != Opcode::Alloca)
          continue;
        const auto *N = ir_dyn_cast<ConstantInt>(I->getOperand(0));
        if (!N)
          continue; // variable count: stays a heap allocation
        std::size_t Size = static_cast<std::size_t>(N->getValue()) *
                           I->ElemTy->getSizeInBytes();
        if (Size < 1)
          Size = 1;
        if (Size > UINT32_MAX / 2)
          continue;
        AllocaOffset[I.get()] = static_cast<std::uint32_t>(Offset);
        AllocaSize[I.get()] = static_cast<std::uint32_t>(Size);
        Offset = (Offset + Size + 15) & ~std::size_t(15);
      }
    Out.ArenaBytes = static_cast<std::uint32_t>(Offset);
  }

  std::uint32_t operandIndex(const Value *V) {
    if (isConstantOperand(V))
      return ConstSlot.at(V);
    auto It = VN.Index.find(V);
    if (It == VN.Index.end())
      throw std::runtime_error("bytecode: operand without a register: " +
                               V->getName());
    return Out.NumConsts + It->second;
  }

  /// Result register; void-producing calls write the scratch slot so the
  /// dispatch loop needs no has-result branch.
  std::uint32_t destIndex(const Instruction &I) {
    if (I.getType()->isVoid())
      return Scratch;
    return Out.NumConsts + VN.Index.at(&I);
  }

  // --- Phase 3: emission -------------------------------------------------

  Inst &emit(Op Code) {
    Inst In;
    In.Code = Code;
    Out.Code.push_back(In);
    return Out.Code.back();
  }

  void branchFixup(Field Where, const BasicBlock *From,
                   const BasicBlock *To) {
    Fixups.push_back({Out.Code.size() - 1, Where, From, To});
  }

  std::uint32_t externalNameIndex(const std::string &Name) {
    auto It = ExtIndex.find(Name);
    if (It != ExtIndex.end())
      return It->second;
    auto Idx = static_cast<std::uint32_t>(Mod.ExternalNames.size());
    Mod.ExternalNames.push_back(Name);
    ExtIndex.emplace(Name, Idx);
    return Idx;
  }

  static bool loadWidthForFusion(const Instruction &Load, Op &Fused) {
    if (!Load.ElemTy)
      return false;
    switch (Load.ElemTy->getKind()) {
    case TypeKind::I32:
      Fused = Op::LoadOpStore4;
      return true;
    case TypeKind::I64:
      Fused = Op::LoadOpStore8;
      return true;
    default:
      return false;
    }
  }

  /// Peeks at Insts[Idx..Idx+2] for `x = load p; y = x op rhs; store y, p`.
  bool tryFuseLoadOpStore(const BasicBlock &BB, std::size_t Idx) {
    const auto &Insts = BB.instructions();
    if (Idx + 2 >= Insts.size())
      return false;
    const Instruction &Load = *Insts[Idx];
    const Instruction &Math = *Insts[Idx + 1];
    const Instruction &Stor = *Insts[Idx + 2];
    Op Fused;
    FusedOp FO;
    if (Load.getOpcode() != Opcode::Load || !loadWidthForFusion(Load, Fused))
      return false;
    if (!fusableIntOp(Math.getOpcode(), FO) ||
        Math.getOperand(0) != &Load ||
        Math.getType() != Load.ElemTy)
      return false;
    if (Stor.getOpcode() != Opcode::Store || Stor.getOperand(0) != &Math ||
        Stor.getOperand(1) != Load.getOperand(0))
      return false;
    Inst &In = emit(Fused);
    In.Sub = static_cast<std::uint8_t>(FO);
    In.A = operandIndex(Load.getOperand(0));
    In.B = operandIndex(Math.getOperand(1));
    In.C = destIndex(Load);
    In.D = destIndex(Math);
    ++Out.NumSuperinsts;
    return true;
  }

  /// Peeks for `c = icmp ...; br c, t, f` ending the block.
  bool tryFuseCmpBr(const BasicBlock &BB, std::size_t Idx) {
    const auto &Insts = BB.instructions();
    if (Idx + 1 >= Insts.size())
      return false;
    const Instruction &Cmp = *Insts[Idx];
    const Instruction &Br = *Insts[Idx + 1];
    if (Cmp.getOpcode() != Opcode::ICmp || !Br.isConditionalBr() ||
        Br.getOperand(0) != &Cmp)
      return false;
    Inst &In = emit(Op::CmpBr);
    In.Sub = static_cast<std::uint8_t>(Cmp.Pred);
    In.W = static_cast<std::uint16_t>(
        Cmp.getOperand(0)->getType()->getBitWidth());
    In.A = destIndex(Cmp);
    In.B = operandIndex(Cmp.getOperand(0));
    In.C = operandIndex(Cmp.getOperand(1));
    branchFixup(FieldImmLo, &BB, Br.getSuccessor(0));
    branchFixup(FieldImmHi, &BB, Br.getSuccessor(1));
    ++Out.NumSuperinsts;
    return true;
  }

  void emitBlock(const BasicBlock &BB) {
    BlockStart[&BB] = static_cast<std::uint32_t>(Out.Code.size());
    const auto &Insts = BB.instructions();
    std::size_t Idx = 0;
    while (Idx < Insts.size() && Insts[Idx]->getOpcode() == Opcode::Phi)
      ++Idx; // phis become edge copies, not in-block code
    for (; Idx < Insts.size(); ++Idx) {
      const Instruction &I = *Insts[Idx];
      if (tryFuseLoadOpStore(BB, Idx)) {
        Idx += 2;
        continue;
      }
      if (tryFuseCmpBr(BB, Idx)) {
        ++Idx;
        continue;
      }
      emitOne(BB, I);
    }
    if (!BB.getTerminator())
      throw std::runtime_error("bytecode: block without terminator");
  }

  void emitOne(const BasicBlock &BB, const Instruction &I) {
    unsigned Bits = I.getType()->getBitWidth();
    switch (I.getOpcode()) {
    case Opcode::Alloca: {
      auto It = AllocaOffset.find(&I);
      if (It != AllocaOffset.end()) {
        Inst &In = emit(Op::AllocaFixed);
        In.A = destIndex(I);
        In.B = AllocaSize.at(&I);
        In.Imm = It->second;
      } else {
        Inst &In = emit(Op::AllocaDyn);
        In.A = destIndex(I);
        In.B = operandIndex(I.getOperand(0));
        In.Imm = I.ElemTy->getSizeInBytes();
      }
      break;
    }
    case Opcode::Load: {
      Op Code;
      switch (I.ElemTy->getKind()) {
      case TypeKind::I1:
      case TypeKind::I8:
        Code = Op::Load1;
        break;
      case TypeKind::I32:
        Code = Op::Load4;
        break;
      case TypeKind::Double:
        Code = Op::LoadF64;
        break;
      default:
        Code = Op::Load8;
        break;
      }
      Inst &In = emit(Code);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      break;
    }
    case Opcode::Store: {
      Op Code;
      switch (I.getOperand(0)->getType()->getKind()) {
      case TypeKind::I1:
      case TypeKind::I8:
        Code = Op::Store1;
        break;
      case TypeKind::I32:
        Code = Op::Store4;
        break;
      case TypeKind::Double:
        Code = Op::StoreF64;
        break;
      default:
        Code = Op::Store8;
        break;
      }
      Inst &In = emit(Code);
      In.A = operandIndex(I.getOperand(0));
      In.B = operandIndex(I.getOperand(1));
      break;
    }
    case Opcode::GEP: {
      Inst &In = emit(Op::Gep);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      In.Imm = I.ElemTy->getSizeInBytes();
      break;
    }
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::URem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::AShr:
    case Opcode::LShr: {
      Inst &In = emit(intBinopOp(I.getOpcode()));
      In.W = static_cast<std::uint16_t>(Bits);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      break;
    }
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      Op Code = I.getOpcode() == Opcode::FAdd   ? Op::FAdd
                : I.getOpcode() == Opcode::FSub ? Op::FSub
                : I.getOpcode() == Opcode::FMul ? Op::FMul
                                                : Op::FDiv;
      Inst &In = emit(Code);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      break;
    }
    case Opcode::FNeg: {
      Inst &In = emit(Op::FNeg);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      break;
    }
    case Opcode::ICmp: {
      Inst &In = emit(Op::ICmp);
      In.Sub = static_cast<std::uint8_t>(I.Pred);
      In.W = static_cast<std::uint16_t>(
          I.getOperand(0)->getType()->getBitWidth());
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      break;
    }
    case Opcode::FCmp: {
      Inst &In = emit(Op::FCmp);
      In.Sub = static_cast<std::uint8_t>(I.Pred);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      break;
    }
    case Opcode::SExt:
    case Opcode::ZExt:
    case Opcode::SIToFP:
    case Opcode::UIToFP: {
      Op Code = I.getOpcode() == Opcode::SExt   ? Op::SExt
                : I.getOpcode() == Opcode::ZExt ? Op::ZExt
                : I.getOpcode() == Opcode::SIToFP ? Op::SIToFP
                                                  : Op::UIToFP;
      Inst &In = emit(Code);
      In.W = static_cast<std::uint16_t>(
          I.getOperand(0)->getType()->getBitWidth());
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      break;
    }
    case Opcode::Trunc:
    case Opcode::FPToSI:
    case Opcode::FPToUI: {
      Op Code = I.getOpcode() == Opcode::Trunc   ? Op::Trunc
                : I.getOpcode() == Opcode::FPToSI ? Op::FPToSI
                                                  : Op::FPToUI;
      Inst &In = emit(Code);
      In.W = static_cast<std::uint16_t>(Bits);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      break;
    }
    case Opcode::FPExt: {
      Inst &In = emit(Op::Mov);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      break;
    }
    case Opcode::Select: {
      Inst &In = emit(Op::Select);
      In.A = destIndex(I);
      In.B = operandIndex(I.getOperand(0));
      In.C = operandIndex(I.getOperand(1));
      In.D = operandIndex(I.getOperand(2));
      break;
    }
    case Opcode::Call: {
      const auto *Callee = ir_cast<Function>(I.getOperand(0));
      auto Start = static_cast<std::uint32_t>(Out.ArgPool.size());
      for (unsigned K = 1; K < I.getNumOperands(); ++K)
        Out.ArgPool.push_back(operandIndex(I.getOperand(K)));
      if (Callee->isDeclaration()) {
        Inst &In = emit(Op::CallRT);
        In.Sub =
            static_cast<std::uint8_t>(resolveRuntimeCallee(Callee->getName()));
        In.A = destIndex(I);
        In.B = externalNameIndex(Callee->getName());
        In.C = Start;
        In.D = I.getNumOperands() - 1;
      } else {
        Inst &In = emit(Op::CallBC);
        In.A = destIndex(I);
        In.B = Mod.Index.at(Callee);
        In.C = Start;
        In.D = I.getNumOperands() - 1;
      }
      break;
    }
    case Opcode::Br: {
      if (I.isConditionalBr()) {
        Inst &In = emit(Op::CondBr);
        In.A = operandIndex(I.getOperand(0));
        branchFixup(FieldB, &BB, I.getSuccessor(0));
        branchFixup(FieldC, &BB, I.getSuccessor(1));
      } else {
        // The edge's phi copies run here, at the end of the branching
        // block, and fall through when the target is laid out next.
        const BasicBlock *To = I.getSuccessor(0);
        emitParallelCopy(edgeMoves(BB, *To));
        if (To != NextBlock) {
          emit(Op::Jmp);
          branchFixup(FieldA, nullptr, To);
        }
      }
      break;
    }
    case Opcode::Ret: {
      Inst &In = emit(Op::Ret);
      if (I.getNumOperands() > 0) {
        In.Sub = 1;
        In.A = operandIndex(I.getOperand(0));
      }
      break;
    }
    case Opcode::Unreachable:
      emit(Op::Unreachable);
      break;
    case Opcode::Phi:
      throw std::runtime_error("bytecode: phi after non-phi instruction");
    }
  }

  // --- Phase 4: phi edge copies and trampolines --------------------------

  /// The (dst, src) moves of the phis of \p To on the edge from \p From.
  std::vector<std::pair<std::uint32_t, std::uint32_t>>
  edgeMoves(const BasicBlock &From, const BasicBlock &To) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> Moves;
    for (const auto &I : To.instructions()) {
      if (I->getOpcode() != Opcode::Phi)
        break;
      const Value *In = nullptr;
      for (unsigned P = 0; P < I->getNumIncoming(); ++P)
        if (I->getIncomingBlock(P) == &From) {
          In = I->getIncomingValue(P);
          break;
        }
      if (!In)
        throw std::runtime_error("phi has no incoming for predecessor");
      std::uint32_t Dst = destIndex(*I);
      std::uint32_t Src = operandIndex(In);
      if (Dst != Src)
        Moves.emplace_back(Dst, Src);
    }
    return Moves;
  }

  /// Emits the parallel copy for one CFG edge as a sequential Mov run:
  /// ready moves (dst not read by any pending move) first; when only
  /// cycles remain, the first pending destination is parked in the
  /// scratch register and its readers retargeted.
  void emitParallelCopy(std::vector<std::pair<std::uint32_t, std::uint32_t>>
                            Moves /* (dst, src) */) {
    while (!Moves.empty()) {
      bool Progress = false;
      for (std::size_t K = 0; K < Moves.size(); ++K) {
        bool Read = false;
        for (const auto &Other : Moves)
          if (Other.second == Moves[K].first) {
            Read = true;
            break;
          }
        if (Read)
          continue;
        Inst &In = emit(Op::Mov);
        In.A = Moves[K].first;
        In.B = Moves[K].second;
        Moves.erase(Moves.begin() + static_cast<std::ptrdiff_t>(K));
        Progress = true;
        break;
      }
      if (Progress)
        continue;
      // Pure cycle(s): spill the first destination, retarget its readers.
      std::uint32_t Parked = Moves.front().first;
      Inst &In = emit(Op::Mov);
      In.A = Scratch;
      In.B = Parked;
      for (auto &Mv : Moves)
        if (Mv.second == Parked)
          Mv.second = Scratch;
    }
  }

  /// Gives each conditional-branch edge into a phi block its copies out
  /// of line, as the branch cannot run them for one target only.
  void emitPhiTrampolines() {
    for (const Fixup &Fx : Fixups) {
      if (!Fx.From)
        continue;
      auto Key = std::make_pair(Fx.From, Fx.To);
      if (EdgeTramp.count(Key))
        continue;
      auto Moves = edgeMoves(*Fx.From, *Fx.To);
      if (Moves.empty())
        continue; // edge falls through to the block start directly
      EdgeTramp[Key] = static_cast<std::uint32_t>(Out.Code.size());
      emitParallelCopy(std::move(Moves));
      Inst &In = emit(Op::Jmp);
      In.A = BlockStart.at(Fx.To);
    }
  }

  // --- Phase 5: fixups ---------------------------------------------------

  void patchFixups() {
    for (const Fixup &Fx : Fixups) {
      auto It = EdgeTramp.find({Fx.From, Fx.To});
      std::uint32_t Target =
          It != EdgeTramp.end() ? It->second : BlockStart.at(Fx.To);
      Inst &In = Out.Code[Fx.Idx];
      switch (Fx.Where) {
      case FieldA:
        In.A = Target;
        break;
      case FieldB:
        In.B = Target;
        break;
      case FieldC:
        In.C = Target;
        break;
      case FieldImmLo:
        In.Imm = (In.Imm & ~std::int64_t(0xFFFFFFFF)) | Target;
        break;
      case FieldImmHi:
        In.Imm = (In.Imm & 0xFFFFFFFF) |
                 (static_cast<std::int64_t>(Target) << 32);
        break;
      }
    }
  }
};

/// Invokes Fn(Slot, IsRead) for every frame-slot operand of In. Branch
/// targets and immediates are not slots; call arguments come from the
/// ArgPool run the instruction names.
template <typename FnT>
void forEachSlotUse(const Inst &In, const std::vector<std::uint32_t> &ArgPool,
                    FnT Fn) {
  switch (In.Code) {
  case Op::Mov:
    Fn(In.A, false);
    Fn(In.B, true);
    break;
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::SDiv:
  case Op::UDiv:
  case Op::SRem:
  case Op::URem:
  case Op::And:
  case Op::Or:
  case Op::Xor:
  case Op::Shl:
  case Op::AShr:
  case Op::LShr:
  case Op::FAdd:
  case Op::FSub:
  case Op::FMul:
  case Op::FDiv:
  case Op::ICmp:
  case Op::FCmp:
  case Op::Gep:
    Fn(In.A, false);
    Fn(In.B, true);
    Fn(In.C, true);
    break;
  case Op::FNeg:
  case Op::SExt:
  case Op::ZExt:
  case Op::Trunc:
  case Op::SIToFP:
  case Op::UIToFP:
  case Op::FPToSI:
  case Op::FPToUI:
  case Op::Load1:
  case Op::Load4:
  case Op::Load8:
  case Op::LoadF64:
  case Op::AllocaDyn:
    Fn(In.A, false);
    Fn(In.B, true);
    break;
  case Op::Store1:
  case Op::Store4:
  case Op::Store8:
  case Op::StoreF64:
    Fn(In.A, true); // value
    Fn(In.B, true); // pointer
    break;
  case Op::AllocaFixed:
    Fn(In.A, false);
    break;
  case Op::Select:
    Fn(In.A, false);
    Fn(In.B, true);
    Fn(In.C, true);
    Fn(In.D, true);
    break;
  case Op::Jmp:
  case Op::Unreachable:
  case Op::NumOps:
    break;
  case Op::CondBr:
    Fn(In.A, true);
    break;
  case Op::Ret:
    if (In.Sub)
      Fn(In.A, true);
    break;
  case Op::CallBC:
  case Op::CallRT:
    Fn(In.A, false);
    for (std::uint32_t K = 0; K < In.D; ++K)
      Fn(ArgPool[In.C + K], true);
    break;
  case Op::CmpBr:
    Fn(In.A, false);
    Fn(In.B, true);
    Fn(In.C, true);
    break;
  case Op::LoadOpStore4:
  case Op::LoadOpStore8:
    Fn(In.A, true);  // pointer
    Fn(In.B, true);  // rhs
    Fn(In.C, false); // load dst
    Fn(In.D, false); // op dst
    break;
  }
}

} // namespace

void computeSlotMeta(BCFunction &Out) {
  const auto N = static_cast<std::uint32_t>(Out.Code.size());
  Out.Slots.assign(Out.NumFrame, SlotMeta{});
  std::vector<bool> Touched(Out.NumFrame, false);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> BackRanges;
  std::vector<std::int32_t> DepthDelta(N + 1, 0);
  for (std::uint32_t I = 0; I < N; ++I) {
    const Inst &In = Out.Code[I];
    auto Range = [&](std::uint32_t T) {
      if (T <= I) {
        BackRanges.emplace_back(T, I);
        ++DepthDelta[T];
        --DepthDelta[I + 1];
      }
    };
    if (In.Code == Op::Jmp)
      Range(In.A);
    else if (In.Code == Op::CondBr) {
      Range(In.B);
      Range(In.C);
    } else if (In.Code == Op::CmpBr) {
      Range(static_cast<std::uint32_t>(In.Imm & 0xffffffff));
      Range(static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(In.Imm) >> 32));
    }
  }

  std::int64_t Depth = 0;
  for (std::uint32_t I = 0; I < N; ++I) {
    Depth += DepthDelta[I];
    const std::uint64_t W = Depth > 0 ? 16 : 1;
    forEachSlotUse(Out.Code[I], Out.ArgPool,
                   [&](std::uint32_t S, bool IsRead) {
                     if (S >= Out.NumFrame)
                       return;
                     SlotMeta &M = Out.Slots[S];
                     if (!Touched[S]) {
                       Touched[S] = true;
                       M.LiveBegin = I;
                       M.LiveEnd = I;
                     }
                     if (IsRead)
                       ++M.Reads;
                     if (I > M.LiveEnd)
                       M.LiveEnd = I;
                     M.Weight += W;
                   });
  }
  // Constants and arguments are initialized by frame setup: live-in.
  for (std::uint32_t S = 0; S < Out.NumConsts + Out.NumArgs; ++S)
    if (Touched[S])
      Out.Slots[S].LiveBegin = 0;

  // Widen every interval over the backward ranges it intersects
  // (loop-carried values are live across their whole loop). Overlapping
  // ranges merge into disjoint clusters in address order. An interval
  // absorbs the run of clusters it overlaps, and the widened interval
  // meets no further cluster, so one lookup per slot reaches the fixpoint
  // of widening range by range.
  std::sort(BackRanges.begin(), BackRanges.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> Clusters;
  for (const auto &[T, B] : BackRanges)
    if (!Clusters.empty() && T <= Clusters.back().second)
      Clusters.back().second = std::max(Clusters.back().second, B);
    else
      Clusters.emplace_back(T, B);
  for (std::uint32_t S = 0; S < Out.NumFrame; ++S) {
    if (!Touched[S])
      continue;
    SlotMeta &M = Out.Slots[S];
    auto First = std::partition_point(
        Clusters.begin(), Clusters.end(),
        [&](const auto &C) { return C.second < M.LiveBegin; });
    auto Last = std::partition_point(
        First, Clusters.end(),
        [&](const auto &C) { return C.first <= M.LiveEnd; });
    if (First == Last)
      continue;
    M.LiveBegin = std::min(M.LiveBegin, First->first);
    M.LiveEnd = std::max(M.LiveEnd, std::prev(Last)->second);
  }
}

std::shared_ptr<const BytecodeModule> compileToBytecode(const ir::Module &M) {
  auto Mod = std::make_shared<BytecodeModule>();
  Mod->Source = &M;
  std::uint32_t NextIdx = 0;
  for (const auto &F : M.functions())
    if (!F->isDeclaration())
      Mod->Index[F.get()] = NextIdx++;
  Mod->Functions.resize(NextIdx);
  std::unordered_map<std::string, std::uint32_t> ExtIndex;
  for (const auto &[F, Idx] : Mod->Index)
    Mod->Functions[Idx] = FunctionCompiler(*F, *Mod, ExtIndex).compile();
  return Mod;
}

} // namespace mcc::interp::bc
