//===--- Interpreter.cpp - IR execution engine ------------------------------===//
//
// Engine-independent machinery (globals, externals, runtime dispatch,
// statistics) plus the tree-walking reference backend. The bytecode
// backend's translation lives in BytecodeCompiler.cpp and its dispatch
// loop in BytecodeInterpreter.cpp; both backends share the scalar
// semantics in InterpOps.h and the per-thread FrameStack.
//
//===----------------------------------------------------------------------===//
#include "interp/Interpreter.h"

#include "interp/FrameStack.h"
#include "interp/InterpOps.h"
#include "interp/JITTier.h" // complete JITState for the engine destructor
#include "runtime/KMPRuntime.h"
#include "support/StrictParse.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace mcc::interp {

using namespace ir;
using ops::signExtend;
using ops::zeroExtend;

bool parseExecEngineKind(std::string_view Name, ExecEngineKind &Out) {
  if (Name == "walker") {
    Out = ExecEngineKind::Walker;
    return true;
  }
  if (Name == "bytecode") {
    Out = ExecEngineKind::Bytecode;
    return true;
  }
  if (Name == "native") {
    Out = ExecEngineKind::Native;
    return true;
  }
  if (Name == "tiered") {
    Out = ExecEngineKind::Tiered;
    return true;
  }
  Out = ExecEngineKind::Default;
  return false;
}

const char *execEngineKindName(ExecEngineKind K) {
  switch (K) {
  case ExecEngineKind::Walker:
    return "walker";
  case ExecEngineKind::Bytecode:
    return "bytecode";
  case ExecEngineKind::Native:
    return "native";
  case ExecEngineKind::Tiered:
    return "tiered";
  case ExecEngineKind::Default:
    return "default";
  }
  return "?";
}

namespace {

std::optional<ExecEngineKind> execEngineFromEnv(std::string *Error) {
  return readEnv<ExecEngineKind>("MCC_EXEC_ENGINE", parseExecEngineKind,
                                 "walker, bytecode, native, or tiered",
                                 Error);
}

} // namespace

ExecEngineKind resolveExecEngineKind(ExecEngineKind K) {
  if (K != ExecEngineKind::Default)
    return K;
  return execEngineFromEnv(nullptr).value_or(ExecEngineKind::Bytecode);
}

std::string environmentError() {
  std::string Error;
  (void)execEngineFromEnv(&Error);
  (void)readJITKnobs(&Error);
  (void)rt::OpenMPRuntime::readEnvKnobs(&Error);
  return Error;
}

ExecutionEngine::ExecutionEngine(
    const ir::Module &M, ExecEngineKind RequestedKind,
    std::shared_ptr<const bc::BytecodeModule> Precompiled)
    : M(M), Kind(resolveExecEngineKind(RequestedKind)) {
  // Allocate and initialize global storage.
  for (const auto &G : M.globals()) {
    std::size_t Size = static_cast<std::size_t>(G->getSizeInBytes());
    void *Mem = ::operator new(Size < 1 ? 1 : Size);
    std::memset(Mem, 0, Size);
    if (!G->IntInit.empty() || !G->FPInit.empty()) {
      unsigned ElemSize = G->getElementType()->getSizeInBytes();
      char *P = static_cast<char *>(Mem);
      if (G->getElementType()->isDouble()) {
        for (std::size_t I = 0; I < G->FPInit.size(); ++I)
          std::memcpy(P + I * ElemSize, &G->FPInit[I], sizeof(double));
      } else {
        for (std::size_t I = 0; I < G->IntInit.size(); ++I) {
          std::int64_t V = G->IntInit[I];
          std::memcpy(P + I * ElemSize, &V, ElemSize);
        }
      }
    }
    GlobalStorage[G.get()] = Mem;
  }

  if (Kind != ExecEngineKind::Walker) {
    // Bytecode, native and tiered all start from the bytecode translation
    // (the native tier compiles machine code *from* it and falls back to
    // it per function).
    // Take the shared translation when it matches this module (an L3
    // compile-service artifact); translate once otherwise. Afterwards the
    // table is immutable: team threads read it without synchronization.
    if (Precompiled && Precompiled->Source == &M)
      BCMod = std::move(Precompiled);
    else {
      BCMod = bc::compileToBytecode(M);
      TranslatedHere = true;
    }
    // Engine-private frame prefix templates: the shared constant pools
    // with this engine's global addresses patched in.
    PoolOffsets.reserve(BCMod->Functions.size());
    for (const bc::BCFunction &F : BCMod->Functions) {
      std::size_t Off = PatchedPools.size();
      PoolOffsets.push_back(Off);
      for (std::uint32_t K = 0; K < F.NumConsts; ++K) {
        RTValue V;
        V.I = F.ConstPoolInts[K];
        V.D = F.ConstPoolFPs[K];
        PatchedPools.push_back(V);
      }
      for (const auto &[Slot, G] : F.GlobalRelocs)
        PatchedPools[Off + Slot] = RTValue::ofPtr(GlobalStorage.at(G));
    }
    if (Kind == ExecEngineKind::Native || Kind == ExecEngineKind::Tiered)
      initJITTier();
  } else {
    // Walker backend: precompute slot numbering and the per-frame alloca
    // arena layout for every defined function (the module is immutable
    // afterwards, so these maps can be read concurrently).
    for (const auto &F : M.functions()) {
      if (F->isDeclaration())
        continue;
      FunctionInfo Info;
      ValueNumbering VN = numberFunctionValues(*F);
      Info.NumSlots = VN.NumValues;
      for (const auto &[V, Idx] : VN.Index)
        Info.Slots[V] = Idx;
      std::size_t Offset = 0;
      for (const auto &BB : F->blocks())
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
          Info.FixedAllocas[I.get()] = {Offset, Size};
          Offset = (Offset + Size + 15) & ~std::size_t(15);
        }
      Info.ArenaBytes = Offset;
      Infos[F.get()] = std::move(Info);
    }
  }

  // Default externals: debugging prints.
  Externals["print_i64"] = [](std::span<const RTValue> Args) {
    std::printf("%lld\n", static_cast<long long>(Args[0].I));
    return RTValue{};
  };
  Externals["print_f64"] = [](std::span<const RTValue> Args) {
    std::printf("%g\n", Args[0].D);
    return RTValue{};
  };
}

ExecutionEngine::~ExecutionEngine() {
  for (auto &[G, Mem] : GlobalStorage)
    ::operator delete(Mem);
}

void ExecutionEngine::bindExternal(const std::string &Name, ExternalFn Fn) {
  Externals[Name] = std::move(Fn);
}

void *ExecutionEngine::getGlobalAddress(const std::string &Name) const {
  const GlobalVariable *G = M.getGlobal(Name);
  if (!G)
    return nullptr;
  auto It = GlobalStorage.find(G);
  return It == GlobalStorage.end() ? nullptr : It->second;
}

const ExecutionEngine::FunctionInfo &
ExecutionEngine::getInfo(const ir::Function *F) {
  auto It = Infos.find(F);
  assert(It != Infos.end() && "function not prepared");
  return It->second;
}

RTValue ExecutionEngine::runFunction(const std::string &Name,
                                     std::vector<RTValue> Args) {
  const Function *F = M.getFunction(Name);
  if (!F)
    throw std::runtime_error("no such function: " + Name);
  return runFunction(F, std::move(Args));
}

RTValue ExecutionEngine::runFunction(const ir::Function *F,
                                     std::vector<RTValue> Args) {
  return invokeDefined(F, Args);
}

RTValue ExecutionEngine::invokeDefined(const ir::Function *F,
                                       std::span<const RTValue> Args) {
  assert(!F->isDeclaration() && "cannot execute a declaration");
  if (Kind != ExecEngineKind::Walker) {
    auto It = BCMod->Index.find(F);
    if (It == BCMod->Index.end())
      throw std::runtime_error("bytecode: unknown function: " +
                               F->getName());
    return executeTiered(It->second, Args);
  }
  return interpret(F, Args);
}

void ExecutionEngine::resetOpenMPRuntime() {
  rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();
  RT.shutdown();
  RT.resetStats();
}

ExecStats ExecutionEngine::statsSnapshot() const {
  ExecStats S;
  S.Engine = Kind;
  S.TranslatedHere = TranslatedHere;
  if (Kind != ExecEngineKind::Walker) {
    S.Dispatch = (Kind == ExecEngineKind::Native ||
                  Kind == ExecEngineKind::Tiered)
                     ? "template-jit"
                     : bc::dispatchModeName();
    S.FunctionsPrepared = BCMod->Functions.size();
    S.BytecodeBytes = BCMod->byteSize();
    S.SuperinstsEmitted = BCMod->superinstsEmitted();
  } else {
    S.Dispatch = "tree-walk";
    S.FunctionsPrepared = Infos.size();
  }
#define EXEC_COUNTER(Group, Name, Field)                                       \
  S.Field = Field.load(std::memory_order_relaxed);
#include "interp/ExecStats.def"
  return S;
}

stats::Component statsComponent(const ExecStats &S) {
  stats::Component C{"exec", {}};
  C.addLabel("engine", "kind", execEngineKindName(S.Engine));
  C.addLabel("engine", "dispatch", S.Dispatch);
  C.addLabel("engine", "source",
             S.Engine == ExecEngineKind::Walker ? "n/a"
             : S.TranslatedHere                 ? "translated"
                                                : "precompiled");
#define EXEC_GAUGE(Group, Name, Field) C.add(#Group, #Name, S.Field);
#define EXEC_COUNTER(Group, Name, Field) C.add(#Group, #Name, S.Field);
#include "interp/ExecStats.def"
  return C;
}

RTValue ExecutionEngine::callRuntime(const std::string &Name,
                                     std::span<const RTValue> Args) {
  return callRuntimeResolved(bc::resolveRuntimeCallee(Name), Name, Args);
}

RTValue ExecutionEngine::callRuntimeResolved(bc::RTCallee Callee,
                                             const std::string &Name,
                                             std::span<const RTValue> Args) {
  RuntimeCalls.fetch_add(1, std::memory_order_relaxed);
  rt::OpenMPRuntime &RT = rt::OpenMPRuntime::get();

  switch (Callee) {
  case bc::RTCallee::ForkCall: {
    const auto *Outlined = static_cast<const Function *>(Args[0].asPtr());
    // Args[1] = number of captured pointers (context layout), Args[2] =
    // context (array of capture addresses), Args[3] = requested threads.
    void *Context = Args[2].asPtr();
    int NumThreads = static_cast<int>(Args[3].I);
    RT.forkCall(
        [this, Outlined, Context](int Tid) {
          std::int32_t TidLocal = Tid;
          RTValue OutlinedArgs[3] = {RTValue::ofPtr(&TidLocal),
                                     RTValue::ofPtr(&TidLocal),
                                     RTValue::ofPtr(Context)};
          invokeDefined(Outlined, OutlinedArgs);
        },
        NumThreads);
    return RTValue{};
  }
  case bc::RTCallee::GlobalThreadNum:
    return RTValue::ofInt(RT.getThreadNum());
  case bc::RTCallee::NumThreads:
    return RTValue::ofInt(RT.getNumThreads());
  case bc::RTCallee::ForStaticInit:
    RT.forStaticInit(static_cast<std::int32_t>(Args[1].I),
                     static_cast<std::int32_t *>(Args[2].asPtr()),
                     static_cast<std::int64_t *>(Args[3].asPtr()),
                     static_cast<std::int64_t *>(Args[4].asPtr()),
                     static_cast<std::int64_t *>(Args[5].asPtr()), Args[6].I,
                     Args[7].I);
    return RTValue{};
  case bc::RTCallee::ForStaticFini:
    RT.forStaticFini();
    return RTValue{};
  case bc::RTCallee::DispatchInit:
    RT.dispatchInit(static_cast<std::int32_t>(Args[1].I), Args[2].I,
                    Args[3].I, Args[4].I);
    return RTValue{};
  case bc::RTCallee::DispatchNext: {
    bool More =
        RT.dispatchNext(static_cast<std::int32_t *>(Args[1].asPtr()),
                        static_cast<std::int64_t *>(Args[2].asPtr()),
                        static_cast<std::int64_t *>(Args[3].asPtr()));
    return RTValue::ofInt(More ? 1 : 0);
  }
  case bc::RTCallee::DispatchFini:
    RT.dispatchFini();
    return RTValue{};
  case bc::RTCallee::Barrier:
    RT.barrier();
    return RTValue{};
  case bc::RTCallee::Critical:
    RT.critical();
    return RTValue{};
  case bc::RTCallee::EndCritical:
    RT.endCritical();
    return RTValue{};
  case bc::RTCallee::External:
    break;
  }

  auto It = Externals.find(Name);
  if (It == Externals.end())
    throw std::runtime_error("call to unbound external function: " + Name);
  return It->second(Args);
}

RTValue ExecutionEngine::interpret(const ir::Function *F,
                                   std::span<const RTValue> Args) {
  assert(!F->isDeclaration() && "cannot interpret a declaration");
  const FunctionInfo &Info = getInfo(F);

  FrameStack &FS = threadFrameStack();
  std::uint64_t LocalCount = 0;
  std::vector<void *> HeapAllocas;

  // Releases the frame and flushes counters on return *and* on unwinding
  // (division traps must not leak the frame mark).
  struct Cleanup {
    ExecutionEngine &EE;
    FrameStack &FS;
    FrameStack::Mark M;
    std::vector<void *> &Heap;
    std::uint64_t &Count;
    ~Cleanup() {
      for (void *P : Heap)
        ::operator delete(P);
      FS.release(M);
      EE.InstructionsExecuted.fetch_add(Count, std::memory_order_relaxed);
      EE.FramesExecuted.fetch_add(1, std::memory_order_relaxed);
    }
  } Guard{*this, FS, FS.mark(), HeapAllocas, LocalCount};

  // One frame allocation: [value slots][coalesced alloca arena].
  char *Mem = static_cast<char *>(
      FS.allocate(Info.NumSlots * sizeof(RTValue) + Info.ArenaBytes));
  auto *Frame = reinterpret_cast<RTValue *>(Mem);
  char *Arena = Mem + Info.NumSlots * sizeof(RTValue);
  std::memset(static_cast<void *>(Frame), 0,
              Info.NumSlots * sizeof(RTValue));

  for (unsigned I = 0; I < F->getNumArgs(); ++I)
    Frame[Info.Slots.at(F->getArg(I))] = Args[I];

  auto Eval = [&](const Value *V) -> RTValue {
    switch (V->getValueKind()) {
    case Value::ValueKind::ConstantInt:
      return RTValue::ofInt(ir_cast<ConstantInt>(V)->getValue());
    case Value::ValueKind::ConstantFP:
      return RTValue::ofDouble(ir_cast<ConstantFP>(V)->getValue());
    case Value::ValueKind::ConstantNull:
      return RTValue::ofInt(0);
    case Value::ValueKind::Global:
      return RTValue::ofPtr(
          GlobalStorage.at(ir_cast<GlobalVariable>(V)));
    case Value::ValueKind::Function:
      return RTValue::ofPtr(
          const_cast<Function *>(ir_cast<Function>(V)));
    default:
      return Frame[Info.Slots.at(V)];
    }
  };

  const BasicBlock *Block = F->getEntryBlock();
  const BasicBlock *PrevBlock = nullptr;
  RTValue ReturnValue{};

  while (true) {
    // Phis first: evaluate them all against the *old* frame before
    // writing, to honor parallel-copy semantics.
    std::size_t InstIdx = 0;
    {
      std::vector<std::pair<unsigned, RTValue>> PhiWrites;
      while (InstIdx < Block->size() &&
             Block->instructions()[InstIdx]->getOpcode() == Opcode::Phi) {
        const Instruction &Phi = *Block->instructions()[InstIdx];
        bool Found = false;
        for (unsigned P = 0; P < Phi.getNumIncoming(); ++P)
          if (Phi.getIncomingBlock(P) == PrevBlock) {
            PhiWrites.emplace_back(Info.Slots.at(&Phi),
                                   Eval(Phi.getIncomingValue(P)));
            Found = true;
            break;
          }
        if (!Found)
          throw std::runtime_error("phi has no incoming for predecessor");
        ++InstIdx;
        ++LocalCount;
      }
      for (auto &[Slot, V] : PhiWrites)
        Frame[Slot] = V;
    }

    for (; InstIdx < Block->size(); ++InstIdx) {
      const Instruction &I = *Block->instructions()[InstIdx];
      ++LocalCount;
      unsigned Bits = I.getType()->getBitWidth();

      switch (I.getOpcode()) {
      case Opcode::Alloca: {
        auto FA = Info.FixedAllocas.find(&I);
        if (FA != Info.FixedAllocas.end()) {
          // Coalesced into the frame arena; zeroed per execution, like
          // the fresh heap block it replaces.
          char *P = Arena + FA->second.first;
          std::memset(P, 0, FA->second.second);
          Frame[Info.Slots.at(&I)] = RTValue::ofPtr(P);
          break;
        }
        std::int64_t N = Eval(I.getOperand(0)).I;
        std::size_t Size = static_cast<std::size_t>(N) *
                           I.ElemTy->getSizeInBytes();
        void *Mem2 = ::operator new(Size < 1 ? 1 : Size);
        std::memset(Mem2, 0, Size < 1 ? 1 : Size);
        HeapAllocas.push_back(Mem2);
        Frame[Info.Slots.at(&I)] = RTValue::ofPtr(Mem2);
        break;
      }
      case Opcode::Load: {
        void *P = Eval(I.getOperand(0)).asPtr();
        RTValue R{};
        switch (I.ElemTy->getKind()) {
        case TypeKind::I1:
        case TypeKind::I8: {
          std::int8_t V;
          std::memcpy(&V, P, 1);
          R.I = V;
          break;
        }
        case TypeKind::I32: {
          std::int32_t V;
          std::memcpy(&V, P, 4);
          R.I = V;
          break;
        }
        case TypeKind::I64:
        case TypeKind::Ptr: {
          std::int64_t V;
          std::memcpy(&V, P, 8);
          R.I = V;
          break;
        }
        case TypeKind::Double: {
          std::memcpy(&R.D, P, 8);
          break;
        }
        case TypeKind::Void:
          break;
        }
        Frame[Info.Slots.at(&I)] = R;
        break;
      }
      case Opcode::Store: {
        RTValue V = Eval(I.getOperand(0));
        void *P = Eval(I.getOperand(1)).asPtr();
        const IRType *Ty = I.getOperand(0)->getType();
        switch (Ty->getKind()) {
        case TypeKind::I1:
        case TypeKind::I8: {
          std::int8_t B = static_cast<std::int8_t>(V.I);
          std::memcpy(P, &B, 1);
          break;
        }
        case TypeKind::I32: {
          std::int32_t W = static_cast<std::int32_t>(V.I);
          std::memcpy(P, &W, 4);
          break;
        }
        case TypeKind::I64:
        case TypeKind::Ptr:
          std::memcpy(P, &V.I, 8);
          break;
        case TypeKind::Double:
          std::memcpy(P, &V.D, 8);
          break;
        case TypeKind::Void:
          break;
        }
        break;
      }
      case Opcode::GEP: {
        char *Base = static_cast<char *>(Eval(I.getOperand(0)).asPtr());
        std::int64_t Index = Eval(I.getOperand(1)).I;
        Frame[Info.Slots.at(&I)] =
            RTValue::ofPtr(Base + Index * I.ElemTy->getSizeInBytes());
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
        std::int64_t A = Eval(I.getOperand(0)).I;
        std::int64_t B = Eval(I.getOperand(1)).I;
        Frame[Info.Slots.at(&I)] =
            RTValue::ofInt(ops::evalIntBinop(I.getOpcode(), A, B, Bits));
        break;
      }

      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv: {
        double A = Eval(I.getOperand(0)).D;
        double B = Eval(I.getOperand(1)).D;
        double R = 0;
        switch (I.getOpcode()) {
        case Opcode::FAdd:
          R = A + B;
          break;
        case Opcode::FSub:
          R = A - B;
          break;
        case Opcode::FMul:
          R = A * B;
          break;
        case Opcode::FDiv:
          R = A / B;
          break;
        default:
          break;
        }
        Frame[Info.Slots.at(&I)] = RTValue::ofDouble(R);
        break;
      }
      case Opcode::FNeg:
        Frame[Info.Slots.at(&I)] =
            RTValue::ofDouble(-Eval(I.getOperand(0)).D);
        break;

      case Opcode::ICmp: {
        unsigned OpBits = I.getOperand(0)->getType()->getBitWidth();
        std::int64_t A = Eval(I.getOperand(0)).I;
        std::int64_t B = Eval(I.getOperand(1)).I;
        Frame[Info.Slots.at(&I)] =
            RTValue::ofInt(ops::evalICmp(I.Pred, A, B, OpBits) ? 1 : 0);
        break;
      }
      case Opcode::FCmp: {
        double A = Eval(I.getOperand(0)).D;
        double B = Eval(I.getOperand(1)).D;
        Frame[Info.Slots.at(&I)] =
            RTValue::ofInt(ops::evalFCmp(I.Pred, A, B) ? 1 : 0);
        break;
      }

      case Opcode::ZExt:
        Frame[Info.Slots.at(&I)] = RTValue::ofInt(static_cast<std::int64_t>(
            zeroExtend(Eval(I.getOperand(0)).I,
                       I.getOperand(0)->getType()->getBitWidth())));
        break;
      case Opcode::SExt:
        Frame[Info.Slots.at(&I)] = RTValue::ofInt(
            signExtend(Eval(I.getOperand(0)).I,
                       I.getOperand(0)->getType()->getBitWidth()));
        break;
      case Opcode::Trunc:
        Frame[Info.Slots.at(&I)] =
            RTValue::ofInt(signExtend(Eval(I.getOperand(0)).I, Bits));
        break;
      case Opcode::SIToFP:
        Frame[Info.Slots.at(&I)] = RTValue::ofDouble(
            static_cast<double>(signExtend(Eval(I.getOperand(0)).I,
                                           I.getOperand(0)->getType()
                                               ->getBitWidth())));
        break;
      case Opcode::UIToFP:
        Frame[Info.Slots.at(&I)] = RTValue::ofDouble(
            static_cast<double>(zeroExtend(Eval(I.getOperand(0)).I,
                                           I.getOperand(0)->getType()
                                               ->getBitWidth())));
        break;
      case Opcode::FPToSI:
        Frame[Info.Slots.at(&I)] = RTValue::ofInt(
            signExtend(static_cast<std::int64_t>(Eval(I.getOperand(0)).D),
                       Bits));
        break;
      case Opcode::FPToUI:
        Frame[Info.Slots.at(&I)] = RTValue::ofInt(static_cast<std::int64_t>(
            static_cast<std::uint64_t>(Eval(I.getOperand(0)).D)));
        break;
      case Opcode::FPExt:
        Frame[Info.Slots.at(&I)] = Eval(I.getOperand(0));
        break;

      case Opcode::Select: {
        RTValue C = Eval(I.getOperand(0));
        Frame[Info.Slots.at(&I)] =
            C.I ? Eval(I.getOperand(1)) : Eval(I.getOperand(2));
        break;
      }

      case Opcode::Call: {
        const auto *Callee = ir_cast<Function>(I.getOperand(0));
        std::vector<RTValue> CallArgs;
        CallArgs.reserve(I.getNumOperands() - 1);
        for (unsigned A = 1; A < I.getNumOperands(); ++A)
          CallArgs.push_back(Eval(I.getOperand(A)));
        RTValue R;
        if (Callee->isDeclaration())
          R = callRuntime(Callee->getName(), CallArgs);
        else
          R = interpret(Callee, CallArgs);
        if (!I.getType()->isVoid())
          Frame[Info.Slots.at(&I)] = R;
        break;
      }

      case Opcode::Br: {
        if (I.isConditionalBr()) {
          RTValue C = Eval(I.getOperand(0));
          PrevBlock = Block;
          Block = I.getSuccessor(C.I ? 0 : 1);
        } else {
          PrevBlock = Block;
          Block = I.getSuccessor(0);
        }
        goto NextBlock;
      }
      case Opcode::Ret:
        if (I.getNumOperands() > 0)
          ReturnValue = Eval(I.getOperand(0));
        return ReturnValue;
      case Opcode::Unreachable:
        throw std::runtime_error("executed 'unreachable'");
      case Opcode::Phi:
        throw std::runtime_error("phi after non-phi instruction");
      }
    }
    // Falling off a block without a terminator is a verifier error.
    throw std::runtime_error("block without terminator executed");

  NextBlock:;
  }
}

} // namespace mcc::interp
