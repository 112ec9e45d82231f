//===--- IR.h - Miniature LLVM-like intermediate representation -*- C++ -*-===//
//
// The IR that CodeGen lowers the AST into (Fig. 1: "source.ll"). Modeled on
// LLVM: a Module of Functions of BasicBlocks of Instructions in SSA form
// (front-end generated code uses allocas rather than phis, like Clang;
// the OpenMPIRBuilder's canonical loop skeleton uses a phi induction
// variable, like LLVM's). Types are opaque-pointer style: there is a single
// 'ptr' type; loads, stores, allocas and GEPs carry their element type.
//
// Loop metadata ("llvm.loop.unroll.*") attaches to latch branch
// instructions and is consumed by the mid-end LoopUnroll pass — the
// deferral mechanism of the paper's Section 2.2.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_IR_IR_H
#define MCC_IR_IR_H

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mcc::ir {

class BasicBlock;
class Function;
class Module;

// ===--------------------------- Types --------------------------------=== //

enum class TypeKind { Void, I1, I8, I32, I64, Double, Ptr };

class IRType {
public:
  [[nodiscard]] TypeKind getKind() const { return K; }
  [[nodiscard]] bool isVoid() const { return K == TypeKind::Void; }
  [[nodiscard]] bool isInteger() const {
    return K == TypeKind::I1 || K == TypeKind::I8 || K == TypeKind::I32 ||
           K == TypeKind::I64;
  }
  [[nodiscard]] bool isDouble() const { return K == TypeKind::Double; }
  [[nodiscard]] bool isPointer() const { return K == TypeKind::Ptr; }

  [[nodiscard]] unsigned getBitWidth() const {
    switch (K) {
    case TypeKind::I1:
      return 1;
    case TypeKind::I8:
      return 8;
    case TypeKind::I32:
      return 32;
    case TypeKind::I64:
    case TypeKind::Ptr:
      return 64;
    case TypeKind::Double:
      return 64;
    case TypeKind::Void:
      return 0;
    }
    return 0;
  }
  [[nodiscard]] unsigned getSizeInBytes() const {
    return K == TypeKind::I1 ? 1 : getBitWidth() / 8;
  }

  [[nodiscard]] const char *getName() const {
    switch (K) {
    case TypeKind::Void:
      return "void";
    case TypeKind::I1:
      return "i1";
    case TypeKind::I8:
      return "i8";
    case TypeKind::I32:
      return "i32";
    case TypeKind::I64:
      return "i64";
    case TypeKind::Double:
      return "double";
    case TypeKind::Ptr:
      return "ptr";
    }
    return "?";
  }

  static const IRType *getVoid();
  static const IRType *getI1();
  static const IRType *getI8();
  static const IRType *getI32();
  static const IRType *getI64();
  static const IRType *getDouble();
  static const IRType *getPtr();

private:
  explicit constexpr IRType(TypeKind K) : K(K) {}
  TypeKind K;
};

// ===--------------------------- Values -------------------------------=== //

class Value {
public:
  enum class ValueKind {
    ConstantInt,
    ConstantFP,
    ConstantNull,
    Argument,
    Global,
    Instruction,
    BasicBlock,
    Function,
  };

  virtual ~Value() = default;

  [[nodiscard]] ValueKind getValueKind() const { return VK; }
  [[nodiscard]] const IRType *getType() const { return Ty; }
  [[nodiscard]] const std::string &getName() const { return Name; }
  void setName(std::string N) { Name = std::move(N); }

protected:
  Value(ValueKind VK, const IRType *Ty, std::string Name = "")
      : VK(VK), Ty(Ty), Name(std::move(Name)) {}

private:
  ValueKind VK;
  const IRType *Ty;
  std::string Name;
};

template <typename To> To *ir_dyn_cast(Value *V) {
  return (V && To::classof(V)) ? static_cast<To *>(V) : nullptr;
}
template <typename To> const To *ir_dyn_cast(const Value *V) {
  return (V && To::classof(V)) ? static_cast<const To *>(V) : nullptr;
}
template <typename To> To *ir_cast(Value *V) {
  assert(V && To::classof(V) && "bad ir_cast");
  return static_cast<To *>(V);
}
template <typename To> const To *ir_cast(const Value *V) {
  assert(V && To::classof(V) && "bad ir_cast");
  return static_cast<const To *>(V);
}

class ConstantInt final : public Value {
public:
  ConstantInt(const IRType *Ty, std::int64_t V)
      : Value(ValueKind::ConstantInt, Ty), V(V) {
    assert(Ty->isInteger());
  }
  [[nodiscard]] std::int64_t getValue() const { return V; }
  [[nodiscard]] std::uint64_t getZExtValue() const {
    unsigned Bits = getType()->getBitWidth();
    if (Bits >= 64)
      return static_cast<std::uint64_t>(V);
    return static_cast<std::uint64_t>(V) & ((1ULL << Bits) - 1);
  }
  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantInt;
  }

private:
  std::int64_t V;
};

class ConstantFP final : public Value {
public:
  explicit ConstantFP(double V)
      : Value(ValueKind::ConstantFP, IRType::getDouble()), V(V) {}
  [[nodiscard]] double getValue() const { return V; }
  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantFP;
  }

private:
  double V;
};

class ConstantNull final : public Value {
public:
  ConstantNull() : Value(ValueKind::ConstantNull, IRType::getPtr()) {}
  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::ConstantNull;
  }
};

class Argument final : public Value {
public:
  Argument(const IRType *Ty, std::string Name, unsigned Index)
      : Value(ValueKind::Argument, Ty, std::move(Name)), Index(Index) {}
  [[nodiscard]] unsigned getIndex() const { return Index; }
  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Argument;
  }

private:
  unsigned Index;
};

/// A module-level variable; its Value is the address (type ptr).
class GlobalVariable final : public Value {
public:
  GlobalVariable(std::string Name, const IRType *ElemTy,
                 std::uint64_t NumElements)
      : Value(ValueKind::Global, IRType::getPtr(), std::move(Name)),
        ElemTy(ElemTy), NumElements(NumElements) {}

  [[nodiscard]] const IRType *getElementType() const { return ElemTy; }
  [[nodiscard]] std::uint64_t getNumElements() const { return NumElements; }
  [[nodiscard]] std::uint64_t getSizeInBytes() const {
    return NumElements * ElemTy->getSizeInBytes();
  }

  /// Optional scalar initializer (integers stored sign-extended).
  std::vector<std::int64_t> IntInit;
  std::vector<double> FPInit;

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Global;
  }

private:
  const IRType *ElemTy;
  std::uint64_t NumElements;
};

// ===------------------------ Instructions ----------------------------=== //

enum class Opcode {
  // Memory
  Alloca, // [numElements : i64]           (ElemTy = allocated type)
  Load,   // [ptr]                         (result type = loaded type)
  Store,  // [value, ptr]
  GEP,    // [ptr, index : int]            (ElemTy = element type; scaled)
  // Integer arithmetic
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
  // Floating point
  FAdd,
  FSub,
  FMul,
  FDiv,
  FNeg,
  // Comparisons (predicate in CmpPred)
  ICmp,
  FCmp,
  // Casts
  ZExt,
  SExt,
  Trunc,
  SIToFP,
  UIToFP,
  FPToSI,
  FPToUI,
  FPExt, // modeled as identity (single double type)
  // Control flow
  Br,     // [target] or [cond, trueBB, falseBB]
  Ret,    // [] or [value]
  Call,   // [callee, args...]
  Select, // [cond, trueV, falseV]
  Phi,    // [v0, bb0, v1, bb1, ...]
  Unreachable,
};

const char *getOpcodeName(Opcode Op);

enum class CmpPred {
  EQ,
  NE,
  SLT,
  SLE,
  SGT,
  SGE,
  ULT,
  ULE,
  UGT,
  UGE,
  // FCmp uses the ordered subset
  OEQ,
  ONE,
  OLT,
  OLE,
  OGT,
  OGE,
};

const char *getPredName(CmpPred P);

/// Loop metadata attached to a loop's latch branch, mirroring the
/// llvm.loop.unroll.* metadata Clang emits for LoopHintAttr (paper
/// Section 2.2). Consumed (and cleared) by the mid-end LoopUnroll pass.
struct LoopMetadata {
  bool UnrollEnable = false; // llvm.loop.unroll.enable
  bool UnrollFull = false;   // llvm.loop.unroll.full
  unsigned UnrollCount = 0;  // llvm.loop.unroll.count(N)
  bool Vectorize = false;    // llvm.loop.vectorize.enable
  bool UnrollDisable = false; // set after processing to prevent re-unrolling

  [[nodiscard]] bool any() const {
    return UnrollEnable || UnrollFull || UnrollCount > 0 || Vectorize ||
           UnrollDisable;
  }
};

class Instruction final : public Value {
public:
  Instruction(Opcode Op, const IRType *Ty, std::vector<Value *> Operands,
              std::string Name = "")
      : Value(ValueKind::Instruction, Ty, std::move(Name)), Op(Op),
        Operands(std::move(Operands)) {}

  [[nodiscard]] Opcode getOpcode() const { return Op; }
  [[nodiscard]] const std::vector<Value *> &operands() const {
    return Operands;
  }
  [[nodiscard]] Value *getOperand(unsigned I) const { return Operands[I]; }
  void setOperand(unsigned I, Value *V) { Operands[I] = V; }
  /// Replaces the whole operand list (used by phi pruning).
  void setOperands(std::vector<Value *> NewOps) {
    Operands = std::move(NewOps);
  }
  [[nodiscard]] unsigned getNumOperands() const {
    return static_cast<unsigned>(Operands.size());
  }

  [[nodiscard]] BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  // Cmp predicate (ICmp/FCmp only).
  CmpPred Pred = CmpPred::EQ;
  // Element type for Alloca / Load / GEP; meaningless otherwise.
  const IRType *ElemTy = nullptr;
  // Loop metadata (Br only).
  LoopMetadata LoopMD;

  [[nodiscard]] bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::Ret ||
           Op == Opcode::Unreachable;
  }
  [[nodiscard]] bool isConditionalBr() const {
    return Op == Opcode::Br && Operands.size() == 3;
  }

  /// For Br: the successor blocks.
  [[nodiscard]] BasicBlock *getSuccessor(unsigned I) const;
  [[nodiscard]] unsigned getNumSuccessors() const {
    if (Op != Opcode::Br)
      return 0;
    return isConditionalBr() ? 2 : 1;
  }
  void setSuccessor(unsigned I, BasicBlock *BB);

  /// For Phi: adds an incoming (value, block) pair.
  void addIncoming(Value *V, BasicBlock *BB);
  [[nodiscard]] unsigned getNumIncoming() const {
    return getNumOperands() / 2;
  }
  [[nodiscard]] Value *getIncomingValue(unsigned I) const {
    return Operands[2 * I];
  }
  [[nodiscard]] BasicBlock *getIncomingBlock(unsigned I) const;
  /// Replaces the incoming block \p Old with \p New (value unchanged).
  void replaceIncomingBlock(BasicBlock *Old, BasicBlock *New);

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Instruction;
  }

private:
  Opcode Op;
  std::vector<Value *> Operands;
  BasicBlock *Parent = nullptr;
};

// ===----------------------- BasicBlock / Function --------------------=== //

class BasicBlock final : public Value {
public:
  explicit BasicBlock(std::string Name)
      : Value(ValueKind::BasicBlock, IRType::getPtr(), std::move(Name)) {}

  [[nodiscard]] Function *getParent() const { return Parent; }
  void setParent(Function *F) { Parent = F; }

  [[nodiscard]] const std::vector<std::unique_ptr<Instruction>> &
  instructions() const {
    return Insts;
  }
  [[nodiscard]] bool empty() const { return Insts.empty(); }
  [[nodiscard]] std::size_t size() const { return Insts.size(); }
  [[nodiscard]] Instruction *front() const { return Insts.front().get(); }
  [[nodiscard]] Instruction *getTerminator() const {
    if (Insts.empty() || !Insts.back()->isTerminator())
      return nullptr;
    return Insts.back().get();
  }

  Instruction *append(std::unique_ptr<Instruction> I) {
    I->setParent(this);
    Insts.push_back(std::move(I));
    return Insts.back().get();
  }
  Instruction *insertAt(std::size_t Index, std::unique_ptr<Instruction> I) {
    I->setParent(this);
    auto It = Insts.begin() + static_cast<std::ptrdiff_t>(Index);
    return Insts.insert(It, std::move(I))->get();
  }
  /// Removes and destroys the instruction at \p Index.
  void erase(std::size_t Index) {
    Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(Index));
  }
  /// Removes and destroys every instruction \p Pred holds for, keeping
  /// the others in order, in one pass. Returns how many were removed.
  template <typename PredT> std::size_t eraseIf(PredT Pred) {
    return std::erase_if(Insts,
                         [&Pred](const std::unique_ptr<Instruction> &I) {
                           return Pred(I.get());
                         });
  }
  /// Removes the instruction, transferring ownership.
  std::unique_ptr<Instruction> take(std::size_t Index) {
    auto I = std::move(Insts[Index]);
    Insts.erase(Insts.begin() + static_cast<std::ptrdiff_t>(Index));
    return I;
  }

  /// The blocks branching to this one (computed by scanning the parent).
  [[nodiscard]] std::vector<BasicBlock *> predecessors() const;

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::BasicBlock;
  }

private:
  Function *Parent = nullptr;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

class Function final : public Value {
public:
  Function(std::string Name, const IRType *RetTy,
           std::vector<const IRType *> ParamTys,
           std::vector<std::string> ParamNames = {})
      : Value(ValueKind::Function, IRType::getPtr(), std::move(Name)),
        RetTy(RetTy) {
    for (unsigned I = 0; I < ParamTys.size(); ++I) {
      std::string PName =
          I < ParamNames.size() ? ParamNames[I] : "arg" + std::to_string(I);
      Args.push_back(
          std::make_unique<Argument>(ParamTys[I], std::move(PName), I));
    }
  }

  [[nodiscard]] const IRType *getReturnType() const { return RetTy; }
  [[nodiscard]] unsigned getNumArgs() const {
    return static_cast<unsigned>(Args.size());
  }
  [[nodiscard]] Argument *getArg(unsigned I) const { return Args[I].get(); }

  [[nodiscard]] bool isDeclaration() const { return Blocks.empty(); }

  [[nodiscard]] const std::vector<std::unique_ptr<BasicBlock>> &
  blocks() const {
    return Blocks;
  }
  [[nodiscard]] BasicBlock *getEntryBlock() const {
    return Blocks.empty() ? nullptr : Blocks.front().get();
  }

  BasicBlock *createBlock(std::string BlockName) {
    Blocks.push_back(std::make_unique<BasicBlock>(uniquify(BlockName)));
    Blocks.back()->setParent(this);
    return Blocks.back().get();
  }

  /// Inserts \p BB after \p After (or at the end when null).
  BasicBlock *createBlockAfter(BasicBlock *After, std::string BlockName);

  /// Removes the block (must have no predecessors except itself).
  void eraseBlock(BasicBlock *BB);

  /// Makes a value name unique within this function.
  std::string uniquify(const std::string &Base) {
    unsigned &N = NameCounters[Base];
    if (N++ == 0)
      return Base;
    return Base + "." + std::to_string(N - 1);
  }

  static bool classof(const Value *V) {
    return V->getValueKind() == ValueKind::Function;
  }

private:
  const IRType *RetTy;
  std::vector<std::unique_ptr<Argument>> Args;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::map<std::string, unsigned> NameCounters;
};

class Module {
public:
  explicit Module(std::string Name = "module") : Name(std::move(Name)) {}
  Module(const Module &) = delete;
  Module &operator=(const Module &) = delete;

  [[nodiscard]] const std::string &getName() const { return Name; }

  Function *createFunction(std::string FnName, const IRType *RetTy,
                           std::vector<const IRType *> ParamTys,
                           std::vector<std::string> ParamNames = {}) {
    Functions.push_back(std::make_unique<Function>(
        std::move(FnName), RetTy, std::move(ParamTys),
        std::move(ParamNames)));
    return Functions.back().get();
  }

  [[nodiscard]] Function *getFunction(const std::string &FnName) const {
    for (const auto &F : Functions)
      if (F->getName() == FnName)
        return F.get();
    return nullptr;
  }

  Function *getOrInsertFunction(const std::string &FnName,
                                const IRType *RetTy,
                                std::vector<const IRType *> ParamTys) {
    if (Function *F = getFunction(FnName))
      return F;
    return createFunction(FnName, RetTy, std::move(ParamTys));
  }

  GlobalVariable *createGlobal(std::string GName, const IRType *ElemTy,
                               std::uint64_t NumElements) {
    Globals.push_back(std::make_unique<GlobalVariable>(std::move(GName),
                                                       ElemTy, NumElements));
    return Globals.back().get();
  }
  [[nodiscard]] GlobalVariable *getGlobal(const std::string &GName) const {
    for (const auto &G : Globals)
      if (G->getName() == GName)
        return G.get();
    return nullptr;
  }

  [[nodiscard]] const std::vector<std::unique_ptr<Function>> &
  functions() const {
    return Functions;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<GlobalVariable>> &
  globals() const {
    return Globals;
  }

  // --- Uniqued constants (owned by the module) ---
  ConstantInt *getInt(const IRType *Ty, std::int64_t V);
  ConstantInt *getI1(bool V) { return getInt(IRType::getI1(), V); }
  ConstantInt *getI32(std::int32_t V) { return getInt(IRType::getI32(), V); }
  ConstantInt *getI64(std::int64_t V) { return getInt(IRType::getI64(), V); }
  ConstantFP *getDouble(double V);
  ConstantNull *getNullPtr();

private:
  std::string Name;
  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<std::unique_ptr<GlobalVariable>> Globals;
  std::map<std::pair<const IRType *, std::int64_t>,
           std::unique_ptr<ConstantInt>>
      IntConstants;
  std::map<double, std::unique_ptr<ConstantFP>> FPConstants;
  std::unique_ptr<ConstantNull> NullPtr;
};

// ===--------------------------- Utilities ----------------------------=== //

/// Dense value numbering for one function: arguments first, then every
/// value-producing (non-void) instruction in block order. This is the one
/// layout both execution engines agree on — the tree-walker's slot map and
/// the bytecode compiler's virtual-register file are built from it, so a
/// value's number is stable across backends.
struct ValueNumbering {
  std::map<const Value *, unsigned> Index;
  unsigned NumArgs = 0;
  unsigned NumValues = 0; ///< NumArgs + value-producing instructions
};

ValueNumbering numberFunctionValues(const Function &F);

/// Renders the module as LLVM-flavored text.
std::string printModule(const Module &M);
std::string printFunction(const Function &F);

/// Structural validation: every block terminated, operands defined,
/// phis consistent with predecessors, calls arity-correct, ... Returns an
/// empty string when valid; otherwise a description of the first problems.
std::string verifyModule(const Module &M);
std::string verifyFunction(const Function &F);

} // namespace mcc::ir

#endif // MCC_IR_IR_H
