//===--- Diagnostic.h - Diagnostic engine with notes ------------*- C++ -*-===//
//
// A Clang-style diagnostics engine: diagnostics are identified by an ID from
// a central table, carry a severity (error / warning / note / remark), a
// primary SourceLocation and %0/%1/... substitution arguments.
//
// Section 2 of the paper discusses two pitfalls of the shadow-AST approach
// that this engine is designed to test against:
//   * diagnostics accidentally naming internal variables like '.capture_expr.'
//   * diagnostics pointing into the shadow AST, for which a *representative
//     location* on the literal loop should be substituted.
// DiagnosticsEngine therefore supports location remapping regions (pushed
// while analyzing a transformed AST) so every report inside them is retargeted
// to the representative literal-loop location, plus note diagnostics to
// explain the transformation history (analogous to "in instantiation of ...").
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SUPPORT_DIAGNOSTIC_H
#define MCC_SUPPORT_DIAGNOSTIC_H

#include "support/SourceLocation.h"

#include <cstdarg>
#include <functional>
#include <string>
#include <vector>

namespace mcc {

class SourceManager;

namespace diag {
/// Central list of all diagnostics the compiler can emit.
enum DiagID : unsigned {
#define DIAG(ID, SEVERITY, TEXT) ID,
#include "support/Diagnostics.def"
#undef DIAG
  NUM_DIAGNOSTICS
};

enum class Severity { Ignored, Remark, Note, Warning, Error };

Severity getSeverity(DiagID ID);
const char *getFormatString(DiagID ID);
const char *getName(DiagID ID);
} // namespace diag

/// One fully-formed diagnostic.
struct Diagnostic {
  diag::DiagID ID = diag::NUM_DIAGNOSTICS;
  diag::Severity Sev = diag::Severity::Ignored;
  SourceLocation Loc;
  std::string Message; // format string with %N already substituted
  std::vector<SourceRange> Ranges;
};

class DiagnosticsEngine;

/// Fluent builder returned by DiagnosticsEngine::report. Collects the %N
/// arguments and emits the diagnostic on destruction.
class DiagnosticBuilder {
public:
  DiagnosticBuilder(DiagnosticBuilder &&Other) noexcept
      : Engine(Other.Engine), D(std::move(Other.D)),
        Args(std::move(Other.Args)) {
    Other.Engine = nullptr;
  }
  DiagnosticBuilder(const DiagnosticBuilder &) = delete;
  DiagnosticBuilder &operator=(const DiagnosticBuilder &) = delete;
  ~DiagnosticBuilder();

  DiagnosticBuilder &operator<<(const std::string &S) {
    Args.push_back(S);
    return *this;
  }
  DiagnosticBuilder &operator<<(const char *S) {
    Args.emplace_back(S);
    return *this;
  }
  DiagnosticBuilder &operator<<(std::string_view S) {
    Args.emplace_back(S);
    return *this;
  }
  DiagnosticBuilder &operator<<(long long V) {
    Args.push_back(std::to_string(V));
    return *this;
  }
  DiagnosticBuilder &operator<<(unsigned long long V) {
    Args.push_back(std::to_string(V));
    return *this;
  }
  DiagnosticBuilder &operator<<(int V) {
    Args.push_back(std::to_string(V));
    return *this;
  }
  DiagnosticBuilder &operator<<(unsigned V) {
    Args.push_back(std::to_string(V));
    return *this;
  }
  DiagnosticBuilder &operator<<(SourceRange R) {
    D.Ranges.push_back(R);
    return *this;
  }

private:
  friend class DiagnosticsEngine;
  DiagnosticBuilder(DiagnosticsEngine *E, Diagnostic Diag)
      : Engine(E), D(std::move(Diag)) {}

  DiagnosticsEngine *Engine;
  Diagnostic D;
  std::vector<std::string> Args;
};

/// Receives fully-formed diagnostics. The default consumer stores them; the
/// TextDiagnosticPrinter renders clang-style "file:line:col: error: ..."
/// output with a caret line.
class DiagnosticConsumer {
public:
  virtual ~DiagnosticConsumer() = default;
  virtual void handleDiagnostic(const Diagnostic &D) = 0;
};

class StoringDiagnosticConsumer final : public DiagnosticConsumer {
public:
  void handleDiagnostic(const Diagnostic &D) override {
    Diags.push_back(D);
  }
  [[nodiscard]] const std::vector<Diagnostic> &getDiagnostics() const {
    return Diags;
  }
  void clear() { Diags.clear(); }

  /// Every stored diagnostic as TextDiagnosticPrinter renders it.
  [[nodiscard]] std::string render(const SourceManager &SM) const;

private:
  std::vector<Diagnostic> Diags;
};

class TextDiagnosticPrinter final : public DiagnosticConsumer {
public:
  TextDiagnosticPrinter(std::string &Out, const SourceManager *SM)
      : Out(Out), SM(SM) {}
  void handleDiagnostic(const Diagnostic &D) override;

private:
  std::string &Out;
  const SourceManager *SM;
};

/// The engine: reports diagnostics, tracks error counts, applies the
/// transformed-AST location remapping policy, and fans results out to a
/// consumer.
class DiagnosticsEngine {
public:
  explicit DiagnosticsEngine(DiagnosticConsumer *Consumer = nullptr)
      : Consumer(Consumer) {}

  void setConsumer(DiagnosticConsumer *C) { Consumer = C; }
  [[nodiscard]] DiagnosticConsumer *getConsumer() const { return Consumer; }

  DiagnosticBuilder report(SourceLocation Loc, diag::DiagID ID);

  [[nodiscard]] unsigned getNumErrors() const { return NumErrors; }
  [[nodiscard]] unsigned getNumWarnings() const { return NumWarnings; }
  [[nodiscard]] unsigned getNumRemarks() const { return NumRemarks; }
  [[nodiscard]] bool hasErrorOccurred() const { return NumErrors != 0; }
  void reset() {
    NumErrors = 0;
    NumWarnings = 0;
    NumRemarks = 0;
  }

  /// -w: drop all warnings (and the notes attached to them).
  void setSuppressAllWarnings(bool V) { SuppressAllWarnings = V; }
  [[nodiscard]] bool getSuppressAllWarnings() const {
    return SuppressAllWarnings;
  }

  /// -Werror: promote warnings to errors (they then count as errors, so
  /// compilation fails).
  void setWarningsAsErrors(bool V) { WarningsAsErrors = V; }
  [[nodiscard]] bool getWarningsAsErrors() const { return WarningsAsErrors; }

  /// While a remap region is active, every diagnostic whose location lies
  /// inside the shadow AST (i.e. has an invalid or internal location) is
  /// retargeted to \p RepresentativeLoc, and an explanatory note
  /// (note_omp_transformed_here) is emitted after it. This implements the
  /// policy discussed in Section 2 of the paper.
  void pushTransformRemap(SourceLocation RepresentativeLoc,
                          std::string TransformName) {
    RemapStack.push_back({RepresentativeLoc, std::move(TransformName)});
  }
  void popTransformRemap() { RemapStack.pop_back(); }
  [[nodiscard]] bool inTransformRemap() const { return !RemapStack.empty(); }

private:
  friend class DiagnosticBuilder;
  void emit(Diagnostic D, const std::vector<std::string> &Args);

  static std::string formatDiagnostic(const char *Format,
                                      const std::vector<std::string> &Args);

  struct RemapEntry {
    SourceLocation RepresentativeLoc;
    std::string TransformName;
  };

  DiagnosticConsumer *Consumer = nullptr;
  unsigned NumErrors = 0;
  unsigned NumWarnings = 0;
  unsigned NumRemarks = 0;
  std::vector<RemapEntry> RemapStack;
  bool EmittingRemapNote = false;
  bool SuppressAllWarnings = false;
  bool WarningsAsErrors = false;
  bool SuppressingAttachedNotes = false;
};

} // namespace mcc

#endif // MCC_SUPPORT_DIAGNOSTIC_H
