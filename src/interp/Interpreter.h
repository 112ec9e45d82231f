//===--- Interpreter.h - IR execution engine --------------------*- C++ -*-===//
//
// Executes the mini-IR directly, so that generated code — including the
// outlined parallel regions calling into the OpenMP runtime — actually
// runs, on real threads. This is the testbed substitute that lets every
// transformation be validated end-to-end (DESIGN.md substitution #4).
//
// Two backends share this interface (DESIGN.md "Bytecode execution
// engine"): the tree-walking reference interpreter, and a register-
// allocated bytecode engine that translates each function once into a
// flat instruction array executed by a direct-threaded dispatch loop.
// Both produce bit-identical results; the differential corpus pins that.
//
// Memory model: allocas and globals live in host memory; IR 'ptr' values
// are host addresses. Runtime entry points (__kmpc_*) are bound natively to
// the mini-kmp runtime; additional externals (e.g. a test's "body"
// recorder) can be registered per engine.
//
// Thread safety: after construction the engine is immutable except for
// statistics; runFunction may be called concurrently from team threads.
// In particular the bytecode table (translated eagerly in the
// constructor) is published read-only — hot-team threads invoke outlined
// regions with zero re-translation and zero locking.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_INTERP_INTERPRETER_H
#define MCC_INTERP_INTERPRETER_H

#include "interp/Bytecode.h"
#include "ir/IR.h"
#include "support/Stats.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace mcc::interp {

namespace jit {
struct CompiledFunction; // see jit/JIT.h — the native execution tier
}

/// A runtime value: integers & pointers in I (pointers as host addresses),
/// doubles in D. The static IR type decides which field is meaningful.
struct RTValue {
  std::int64_t I = 0;
  double D = 0.0;

  static RTValue ofInt(std::int64_t V) {
    RTValue R;
    R.I = V;
    return R;
  }
  static RTValue ofDouble(double V) {
    RTValue R;
    R.D = V;
    return R;
  }
  static RTValue ofPtr(void *P) {
    return ofInt(static_cast<std::int64_t>(reinterpret_cast<std::intptr_t>(P)));
  }
  [[nodiscard]] void *asPtr() const {
    return reinterpret_cast<void *>(static_cast<std::intptr_t>(I));
  }
};

using ExternalFn = std::function<RTValue(std::span<const RTValue>)>;

/// Which execution backend an engine uses. Default defers the choice to
/// the MCC_EXEC_ENGINE environment variable (bytecode when unset), so the
/// knob stays a plain enum in CompilerOptions without dragging a link
/// dependency into every driver consumer. Native compiles every function
/// to machine code up front (unsupported ones fall back to bytecode);
/// Tiered starts on bytecode and promotes hot functions — mid-loop, via
/// on-stack replacement — to native.
enum class ExecEngineKind : std::uint8_t {
  Walker,
  Bytecode,
  Native,
  Tiered,
  Default,
};

/// Parses "walker" / "bytecode" / "native" / "tiered" (anything else:
/// Default with false return).
bool parseExecEngineKind(std::string_view Name, ExecEngineKind &Out);
const char *execEngineKindName(ExecEngineKind K);
/// Resolves Default against MCC_EXEC_ENGINE; identity otherwise.
ExecEngineKind resolveExecEngineKind(ExecEngineKind K);
/// Reads every MCC_* variable (MCC_EXEC_ENGINE, MCC_JIT_*, MCC_RT_*)
/// through its component's reader: empty, or a message naming the first
/// bad one. Drivers refuse to start on it; the components keep defaults.
std::string environmentError();

/// Point-in-time execution statistics; the numeric fields are the rows of
/// ExecStats.def.
struct ExecStats {
  ExecEngineKind Engine = ExecEngineKind::Walker;
  const char *Dispatch = "tree-walk";
  bool TranslatedHere = false; ///< false: bytecode came precompiled (L3 hit)
#define EXEC_GAUGE(Group, Name, Field) std::uint64_t Field = 0;
#define EXEC_COUNTER(Group, Name, Field) std::uint64_t Field = 0;
#include "interp/ExecStats.def"
};

/// The engine's rows for the stats writer (support/Stats.h).
stats::Component statsComponent(const ExecStats &S);

class ExecutionEngine {
public:
  /// Translation (for the bytecode backend) happens here, eagerly, so the
  /// engine is immutable — and therefore lock-free — afterwards. Passing
  /// \p Precompiled (e.g. from an L3 compile-service artifact) skips
  /// translation entirely; it must have been compiled from \p M.
  explicit ExecutionEngine(
      const ir::Module &M, ExecEngineKind Kind = ExecEngineKind::Default,
      std::shared_ptr<const bc::BytecodeModule> Precompiled = nullptr);
  ~ExecutionEngine();
  ExecutionEngine(const ExecutionEngine &) = delete;
  ExecutionEngine &operator=(const ExecutionEngine &) = delete;

  /// Binds a declared (body-less) function to a host implementation.
  /// Must be called before any runFunction.
  void bindExternal(const std::string &Name, ExternalFn Fn);

  RTValue runFunction(const ir::Function *F, std::vector<RTValue> Args);
  RTValue runFunction(const std::string &Name, std::vector<RTValue> Args);

  /// Host address of a global variable's storage.
  [[nodiscard]] void *getGlobalAddress(const std::string &Name) const;

  /// Total instructions interpreted (across all threads). The walker
  /// counts IR instructions; the bytecode engine counts bytecode
  /// instructions (a fused superinstruction counts once).
  [[nodiscard]] std::uint64_t getInstructionsExecuted() const {
    return InstructionsExecuted.load(std::memory_order_relaxed);
  }

  /// The backend this engine resolved to (never Default).
  [[nodiscard]] ExecEngineKind getKind() const { return Kind; }

  [[nodiscard]] ExecStats statsSnapshot() const;

  /// Quiesces the shared OpenMP runtime: joins the hot-team worker pool
  /// and zeroes its counters. Tests that assert exact runtime statistics
  /// (or want a TSan-clean exit) call this between runs; the pool
  /// respawns lazily on the next fork.
  static void resetOpenMPRuntime();

  [[nodiscard]] const ir::Module &getModule() const { return M; }

private:
  struct FunctionInfo {
    // Slot indices for arguments and instructions producing values.
    std::map<const ir::Value *, unsigned> Slots;
    unsigned NumSlots = 0;
    // Fixed-size allocas coalesced into one per-frame arena: instruction
    // -> (arena offset, byte size). Variable-count allocas fall back to
    // the heap.
    std::map<const ir::Instruction *, std::pair<std::size_t, std::size_t>>
        FixedAllocas;
    std::size_t ArenaBytes = 0;
  };

  const FunctionInfo &getInfo(const ir::Function *F);
  RTValue interpret(const ir::Function *F, std::span<const RTValue> Args);
  RTValue executeBytecode(std::uint32_t FnIdx, std::span<const RTValue> Args);
  /// Non-walker dispatch: native unit when one is published (compiling
  /// lazily in Tiered mode once a function is hot), bytecode otherwise.
  RTValue executeTiered(std::uint32_t FnIdx, std::span<const RTValue> Args);
  /// Runs a whole frame natively (frame setup identical to bytecode).
  RTValue runNative(std::uint32_t FnIdx, const jit::CompiledFunction &CF,
                    std::span<const RTValue> Args);
  /// Enters native code on an existing frame at a bytecode instruction
  /// boundary — the shared path of runNative and OSR promotion.
  RTValue enterNative(const jit::CompiledFunction &CF,
                      const bc::BCFunction &BF, RTValue *Frame, char *Arena,
                      std::vector<void *> *Dyn, std::uint32_t ResumeIdx);
  /// On-stack replacement: promotes a hot *running* bytecode frame. True
  /// when the frame completed natively (result in Out); false when the
  /// function is a fallback unit and the caller should stop probing.
  bool tryOSR(std::uint32_t FnIdx, RTValue *Frame, char *Arena,
              std::uint32_t TargetIdx, std::vector<void *> &Dyn,
              RTValue &Out);
  /// Returns the published unit, compiling and publishing on first call.
  const jit::CompiledFunction *jitUnitFor(std::uint32_t FnIdx);
  void initJITTier();
  /// Dispatches a call to a *defined* function through the active backend
  /// (the runtime's fork_call trampoline funnels through here too).
  RTValue invokeDefined(const ir::Function *F, std::span<const RTValue> Args);
  RTValue callRuntime(const std::string &Name,
                      std::span<const RTValue> Args);
  RTValue callRuntimeResolved(bc::RTCallee Callee, const std::string &Name,
                              std::span<const RTValue> Args);

  const ir::Module &M;
  ExecEngineKind Kind;
  std::map<const ir::Function *, FunctionInfo> Infos;
  std::map<std::string, ExternalFn> Externals;
  std::map<const ir::GlobalVariable *, void *> GlobalStorage;

  /// Bytecode backend state: the shared immutable translation plus this
  /// engine's constant pools with global relocations applied (frame
  /// prefix templates; one flat array indexed via PoolOffsets).
  std::shared_ptr<const bc::BytecodeModule> BCMod;
  std::vector<RTValue> PatchedPools;
  std::vector<std::size_t> PoolOffsets;
  bool TranslatedHere = false;

  /// Native-tier state (publication table, compile lock, host helper
  /// table; defined in JITTier.h). Null unless Kind is Native or Tiered.
  struct JITState;
  friend struct JITHelpers; ///< host helpers called from generated code
  std::unique_ptr<JITState> JIT;
  /// Hot-loop promotion is armed only in Tiered mode; the bytecode loop
  /// pays one predictable branch per taken backward branch for it.
  bool OSRActive = false;
  std::uint32_t OSRThreshold = 0;

#define EXEC_COUNTER(Group, Name, Field) std::atomic<std::uint64_t> Field{0};
#include "interp/ExecStats.def"
};

} // namespace mcc::interp

#endif // MCC_INTERP_INTERPRETER_H
