//===--- JITTier.cpp - Native execution tier and OSR glue ------------------===//
//
// Everything that connects the template JIT (src/jit) to the execution
// engine: the host helpers generated code calls through the indirection
// table, lazy compile-and-publish, whole-frame native execution, and
// on-stack replacement of hot bytecode frames.
//
// Exception protocol: C++ unwinding cannot cross the frameless generated
// code, so every helper is a catch-all that parks the exception in the
// invocation context and raises the trap flag; generated code checks the
// flag after each helper call and returns with a nonzero status, and
// enterNative() rethrows on the host side. Division traps therefore
// surface with byte-identical what() strings across all engines.
//
//===----------------------------------------------------------------------===//
#include "interp/JITTier.h"

#include "interp/FrameStack.h"
#include "interp/InterpOps.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace mcc::interp {

namespace {

std::uint32_t envU32(const char *Name, std::uint32_t Def) {
  if (const char *V = std::getenv(Name)) {
    char *End = nullptr;
    unsigned long N = std::strtoul(V, &End, 10);
    if (End && *End == '\0' && N > 0 && N <= 0xffffffffUL)
      return static_cast<std::uint32_t>(N);
  }
  return Def;
}

/// True when \p V is a complete positive decimal that fits u32 — exactly
/// the inputs envU32 accepts. Anything else is a typo worth diagnosing.
bool validEnvU32(const char *V) {
  char *End = nullptr;
  unsigned long N = std::strtoul(V, &End, 10);
  return End && End != V && *End == '\0' && N > 0 && N <= 0xffffffffUL;
}

} // namespace

std::string jitEnvError() {
  for (const char *Name : {"MCC_JIT_CALL_THRESHOLD", "MCC_JIT_OSR_THRESHOLD"})
    if (const char *V = std::getenv(Name))
      if (!validEnvU32(V))
        return std::string(Name) + "='" + V +
               "' is not a positive 32-bit integer";
  if (const char *V = std::getenv("MCC_JIT_FORCE_FALLBACK_OP")) {
    bc::Op O;
    if (!jit::parseOpName(V, O))
      return std::string("MCC_JIT_FORCE_FALLBACK_OP='") + V +
             "' names no bytecode op (see opName in jit/JIT.h)";
  }
  if (const char *V = std::getenv("MCC_JIT_DIRECT_CALLS"))
    if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
      return std::string("MCC_JIT_DIRECT_CALLS='") + V +
             "' (expected 0 or 1)";
  return {};
}

//===----------------------------------------------------------------------===//
// Host helpers (called from generated code via JITHostOps)
//===----------------------------------------------------------------------===//

struct JITHelpers {
  static ExecutionEngine &engine(jit::JITInvocation *Inv) {
    return *static_cast<ExecutionEngine *>(Inv->Host);
  }
  static void park(jit::JITInvocation *Inv) {
    Inv->Pending = std::current_exception();
    Inv->Trap = 1;
  }

  static void callBC(jit::JITInvocation *Inv, const bc::Inst *In) noexcept {
    try {
      const std::uint32_t *AP = Inv->BF->ArgPool.data() + In->C;
      RTValue *Frame = Inv->Frame;
      RTValue R;
      if (In->D <= 12) {
        RTValue Buf[12];
        for (std::uint32_t K = 0; K < In->D; ++K)
          Buf[K] = Frame[AP[K]];
        R = engine(Inv).executeTiered(
            In->B, std::span<const RTValue>(Buf, In->D));
      } else {
        std::vector<RTValue> Big(In->D);
        for (std::uint32_t K = 0; K < In->D; ++K)
          Big[K] = Frame[AP[K]];
        R = engine(Inv).executeTiered(In->B, Big);
      }
      Frame[In->A] = R;
    } catch (...) {
      park(Inv);
    }
  }

  static void callRT(jit::JITInvocation *Inv, const bc::Inst *In) noexcept {
    try {
      const std::uint32_t *AP = Inv->BF->ArgPool.data() + In->C;
      RTValue *Frame = Inv->Frame;
      const std::string &Name = Inv->Mod->ExternalNames[In->B];
      auto Callee = static_cast<bc::RTCallee>(In->Sub);
      RTValue R;
      if (In->D <= 12) {
        RTValue Buf[12];
        for (std::uint32_t K = 0; K < In->D; ++K)
          Buf[K] = Frame[AP[K]];
        R = engine(Inv).callRuntimeResolved(
            Callee, Name, std::span<const RTValue>(Buf, In->D));
      } else {
        std::vector<RTValue> Big(In->D);
        for (std::uint32_t K = 0; K < In->D; ++K)
          Big[K] = Frame[AP[K]];
        R = engine(Inv).callRuntimeResolved(Callee, Name, Big);
      }
      Frame[In->A] = R;
    } catch (...) {
      park(Inv);
    }
  }

  static void allocaDyn(jit::JITInvocation *Inv,
                        const bc::Inst *In) noexcept {
    try {
      auto Size = static_cast<std::size_t>(Inv->Frame[In->B].I) *
                  static_cast<std::size_t>(In->Imm);
      if (Size < 1)
        Size = 1;
      void *P = ::operator new(Size);
      std::memset(P, 0, Size);
      Inv->DynAllocas->push_back(P);
      Inv->Frame[In->A] = RTValue::ofPtr(P);
    } catch (...) {
      park(Inv);
    }
  }

  static void intDiv(jit::JITInvocation *Inv, const bc::Inst *In) noexcept {
    try {
      ir::Opcode Op = ir::Opcode::SDiv;
      switch (In->Code) {
      case bc::Op::SDiv:
        Op = ir::Opcode::SDiv;
        break;
      case bc::Op::UDiv:
        Op = ir::Opcode::UDiv;
        break;
      case bc::Op::SRem:
        Op = ir::Opcode::SRem;
        break;
      default:
        Op = ir::Opcode::URem;
        break;
      }
      Inv->Frame[In->A].I = ops::evalIntBinop(
          Op, Inv->Frame[In->B].I, Inv->Frame[In->C].I, In->W);
    } catch (...) {
      park(Inv);
    }
  }

  static void uiToFP(jit::JITInvocation *Inv, const bc::Inst *In) noexcept {
    Inv->Frame[In->A].D =
        static_cast<double>(ops::zeroExtend(Inv->Frame[In->B].I, In->W));
  }

  static void fpToUI(jit::JITInvocation *Inv, const bc::Inst *In) noexcept {
    Inv->Frame[In->A].I = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(Inv->Frame[In->B].D));
  }

  static void unreachable(jit::JITInvocation *Inv,
                          const bc::Inst *) noexcept {
    try {
      throw std::runtime_error("executed 'unreachable'");
    } catch (...) {
      park(Inv);
    }
  }
};

//===----------------------------------------------------------------------===//
// Engine-side tier machinery
//===----------------------------------------------------------------------===//

void ExecutionEngine::initJITTier() {
  JIT = std::make_unique<JITState>(BCMod->Functions.size());
  JIT->CallThreshold = envU32("MCC_JIT_CALL_THRESHOLD", 16);
  OSRThreshold = envU32("MCC_JIT_OSR_THRESHOLD", 1024);
  if (const char *V = std::getenv("MCC_JIT_FORCE_FALLBACK_OP")) {
    bc::Op O;
    if (jit::parseOpName(V, O))
      JIT->Opts.ForceUnsupported = O;
  }
  jit::JITHostOps &Ops = JIT->HostOps;
  Ops.Fns[jit::HelperCallBC] = &JITHelpers::callBC;
  Ops.Fns[jit::HelperCallRT] = &JITHelpers::callRT;
  Ops.Fns[jit::HelperAllocaDyn] = &JITHelpers::allocaDyn;
  Ops.Fns[jit::HelperIntDiv] = &JITHelpers::intDiv;
  Ops.Fns[jit::HelperUIToFP] = &JITHelpers::uiToFP;
  Ops.Fns[jit::HelperFPToUI] = &JITHelpers::fpToUI;
  Ops.Fns[jit::HelperUnreachable] = &JITHelpers::unreachable;
  // Module context for direct native→native calls. PatchedPools is fully
  // built before initJITTier() runs (engine ctor ordering), so the pool
  // base pointers baked into direct-call sites are stable.
  // MCC_JIT_DIRECT_CALLS=0 withholds the context, so every CallBC goes
  // through the host helper — the baseline the direct-call speedup is
  // measured against, and a useful bisection point when a call-related
  // miscompile is suspected.
  const char *DC = std::getenv("MCC_JIT_DIRECT_CALLS");
  if (!DC || std::strcmp(DC, "0") != 0) {
    JIT->Pools.resize(BCMod->Functions.size());
    for (std::size_t I = 0; I < BCMod->Functions.size(); ++I)
      JIT->Pools[I] = PatchedPools.data() + PoolOffsets[I];
    JIT->Opts.Mod = BCMod.get();
    JIT->Opts.EntryCells = JIT->EntryCells.data();
    JIT->Opts.Pools = JIT->Pools.data();
  }
  OSRActive = Kind == ExecEngineKind::Tiered && jit::isSupported();
  if (Kind == ExecEngineKind::Native)
    for (std::uint32_t I = 0; I < BCMod->Functions.size(); ++I)
      jitUnitFor(I); // eager: native mode compiles everything up front
}

const jit::CompiledFunction *
ExecutionEngine::jitUnitFor(std::uint32_t FnIdx) {
  const jit::CompiledFunction *P =
      JIT->Table[FnIdx].load(std::memory_order_acquire);
  if (P)
    return P;
  std::lock_guard<std::mutex> Lock(JIT->CompileMutex);
  P = JIT->Table[FnIdx].load(std::memory_order_relaxed);
  if (P)
    return P;
  auto CF = jit::compileFunction(BCMod->Functions[FnIdx], JIT->Opts);
  if (CF->Supported) {
    JITCompiled.fetch_add(1, std::memory_order_relaxed);
    JITCodeBytes.fetch_add(CF->Code.size(), std::memory_order_relaxed);
    JITRegAllocSlots.fetch_add(CF->Regs.size(), std::memory_order_relaxed);
    JITSpillSites.fetch_add(CF->SpillSites, std::memory_order_relaxed);
    JITFusedTemplates.fetch_add(CF->FusedTemplates,
                                std::memory_order_relaxed);
    JITDirectCallSites.fetch_add(CF->DirectCallSites,
                                 std::memory_order_relaxed);
  } else {
    JITFallbackFns.fetch_add(1, std::memory_order_relaxed);
  }
  P = CF.get();
  JIT->Owned.push_back(std::move(CF));
  JIT->Table[FnIdx].store(P, std::memory_order_release);
  // Publish the direct-call entry: this release store retro-patches every
  // caller whose CallBC fast path polls this cell (the store is the last
  // step, after the unit itself is reachable through Table).
  if (P->Supported && jit::isDirectCallable(BCMod->Functions[FnIdx]))
    JIT->EntryCells[FnIdx].store(
        reinterpret_cast<const void *>(P->entry()),
        std::memory_order_release);
  return P;
}

RTValue ExecutionEngine::executeTiered(std::uint32_t FnIdx,
                                       std::span<const RTValue> Args) {
  if (!JIT)
    return executeBytecode(FnIdx, Args);
  const jit::CompiledFunction *CF =
      JIT->Table[FnIdx].load(std::memory_order_acquire);
  if (!CF && Kind == ExecEngineKind::Tiered &&
      JIT->CallCounts[FnIdx].fetch_add(1, std::memory_order_relaxed) + 1 >=
          JIT->CallThreshold)
    CF = jitUnitFor(FnIdx);
  if (CF && CF->Supported)
    return runNative(FnIdx, *CF, Args);
  return executeBytecode(FnIdx, Args);
}

RTValue ExecutionEngine::runNative(std::uint32_t FnIdx,
                                   const jit::CompiledFunction &CF,
                                   std::span<const RTValue> Args) {
  const bc::BCFunction &BF = BCMod->Functions[FnIdx];
  const RTValue *Pool = PatchedPools.data() + PoolOffsets[FnIdx];

  FrameStack &FS = threadFrameStack();
  std::vector<void *> DynAllocas;
  struct Cleanup {
    ExecutionEngine &EE;
    FrameStack &FS;
    FrameStack::Mark M;
    std::vector<void *> &Dyn;
    ~Cleanup() {
      for (void *P : Dyn)
        ::operator delete(P);
      FS.release(M);
      EE.FramesExecuted.fetch_add(1, std::memory_order_relaxed);
      EE.JITNativeFrames.fetch_add(1, std::memory_order_relaxed);
    }
  } Guard{*this, FS, FS.mark(), DynAllocas};

  // Byte-for-byte the bytecode engine's frame setup — the shared layout
  // is the OSR contract.
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

  return enterNative(CF, BF, Frame, Arena, &DynAllocas, 0);
}

RTValue ExecutionEngine::enterNative(const jit::CompiledFunction &CF,
                                     const bc::BCFunction &BF,
                                     RTValue *Frame, char *Arena,
                                     std::vector<void *> *Dyn,
                                     std::uint32_t ResumeIdx) {
  jit::JITInvocation Inv;
  Inv.Ops = &JIT->HostOps;
  Inv.Host = this;
  Inv.BF = &BF;
  Inv.Mod = BCMod.get();
  Inv.Frame = Frame;
  Inv.DynAllocas = Dyn;
  int Status = CF.entry()(&Inv, Frame, Arena, CF.resumeAt(ResumeIdx));
  if (Status) {
    if (Inv.Pending)
      std::rethrow_exception(Inv.Pending);
    throw std::runtime_error("jit: trap without pending exception");
  }
  return Inv.Ret;
}

bool ExecutionEngine::tryOSR(std::uint32_t FnIdx, RTValue *Frame,
                             char *Arena, std::uint32_t TargetIdx,
                             std::vector<void *> &Dyn, RTValue &Out) {
  const jit::CompiledFunction *CF = jitUnitFor(FnIdx);
  if (!CF->Supported)
    return false;
  JITOSRPromotions.fetch_add(1, std::memory_order_relaxed);
  // The running frame (and its arena and dynamic-alloca ledger) carries
  // over untouched; native code resumes at the branch-target boundary.
  Out = enterNative(*CF, BCMod->Functions[FnIdx], Frame, Arena, &Dyn,
                    TargetIdx);
  return true;
}

} // namespace mcc::interp
