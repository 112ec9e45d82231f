//===--- JITTier.h - Engine-side native-tier state --------------*- C++ -*-===//
//
// Private to the interp library (Interpreter.cpp needs the complete type
// for the engine destructor; JITTier.cpp implements everything). The
// public surface stays in Interpreter.h as forward declarations so that
// including the engine does not pull in the jit subsystem.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_INTERP_JITTIER_H
#define MCC_INTERP_JITTIER_H

#include "interp/Interpreter.h"
#include "jit/JIT.h"

#include <atomic>
#include <mutex>
#include <optional>

namespace mcc::interp {

/// The native tier's MCC_JIT_* knobs. An unset or bad variable keeps its
/// default; a bad one also sets \p Error.
struct JITKnobs {
  std::uint32_t CallThreshold = 16;
  std::uint32_t OSRThreshold = 1024;
  std::optional<bc::Op> ForceFallback;
  bool DirectCalls = true;
};
JITKnobs readJITKnobs(std::string *Error);

/// Per-engine native-tier state. The publication protocol matches the
/// bytecode table's spirit: executors load-acquire a unit pointer and
/// never block; compilation happens at most once per function under the
/// compile mutex and is published with a release store.
struct ExecutionEngine::JITState {
  explicit JITState(std::size_t NumFunctions)
      : Table(NumFunctions), CallCounts(NumFunctions),
        EntryCells(NumFunctions) {}

  jit::CompileOptions Opts;   ///< forced-fallback knob etc.
  jit::JITHostOps HostOps;    ///< helper table generated code calls into
  std::uint32_t CallThreshold = 0; ///< tiered: invocations before compile

  std::mutex CompileMutex;
  /// Null = not compiled yet; a unit with Supported == false is the
  /// published "stay on bytecode" decision.
  std::vector<std::atomic<const jit::CompiledFunction *>> Table;
  std::vector<std::unique_ptr<jit::CompiledFunction>> Owned; ///< under mutex
  std::vector<std::atomic<std::uint32_t>> CallCounts; ///< tiered hotness

  /// Direct native→native call patching (see CompileOptions in JIT.h):
  /// one cell per function, null until the function compiles Supported
  /// *and* is direct-callable. jitUnitFor's release store into a cell is
  /// the retro-patch — every already-compiled caller's fast path starts
  /// taking the direct route on its next execution of that site.
  std::vector<std::atomic<const void *>> EntryCells;
  /// Per-function engine-patched constant-pool base pointers, stable for
  /// the engine's lifetime, baked into direct-call frame setup.
  std::vector<const RTValue *> Pools;
};

} // namespace mcc::interp

#endif // MCC_INTERP_JITTIER_H
