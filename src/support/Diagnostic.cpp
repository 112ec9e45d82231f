#include "support/Diagnostic.h"

#include "support/SourceManager.h"

#include <array>
#include <cassert>

namespace mcc {
namespace diag {

namespace {
struct DiagInfo {
  Severity Sev;
  const char *Format;
  const char *Name;
};

constexpr std::array<DiagInfo, NUM_DIAGNOSTICS> DiagTable = {{
#define DIAG(ID, SEVERITY, TEXT) {Severity::SEVERITY, TEXT, #ID},
#include "support/Diagnostics.def"
#undef DIAG
}};
} // namespace

Severity getSeverity(DiagID ID) {
  assert(ID < NUM_DIAGNOSTICS);
  return DiagTable[ID].Sev;
}

const char *getFormatString(DiagID ID) {
  assert(ID < NUM_DIAGNOSTICS);
  return DiagTable[ID].Format;
}

const char *getName(DiagID ID) {
  assert(ID < NUM_DIAGNOSTICS);
  return DiagTable[ID].Name;
}

} // namespace diag

DiagnosticBuilder::~DiagnosticBuilder() {
  if (Engine)
    Engine->emit(std::move(D), Args);
}

DiagnosticBuilder DiagnosticsEngine::report(SourceLocation Loc,
                                            diag::DiagID ID) {
  Diagnostic D;
  D.ID = ID;
  D.Sev = diag::getSeverity(ID);
  D.Loc = Loc;
  return DiagnosticBuilder(this, std::move(D));
}

std::string
DiagnosticsEngine::formatDiagnostic(const char *Format,
                                    const std::vector<std::string> &Args) {
  std::string Out;
  for (const char *P = Format; *P; ++P) {
    if (*P == '%' && P[1] >= '0' && P[1] <= '9') {
      unsigned Index = static_cast<unsigned>(P[1] - '0');
      if (Index < Args.size())
        Out += Args[Index];
      else
        Out += "<missing-arg>";
      ++P;
    } else {
      Out += *P;
    }
  }
  return Out;
}

void DiagnosticsEngine::emit(Diagnostic D,
                             const std::vector<std::string> &Args) {
  D.Message = formatDiagnostic(diag::getFormatString(D.ID), Args);

  // Transformed-AST location policy (paper section 2): retarget diagnostics
  // that point nowhere (into shadow AST nodes synthesized without a usable
  // location) at the representative location of the literal loop.
  bool Remapped = false;
  if (!RemapStack.empty() && !EmittingRemapNote && D.Loc.isInvalid() &&
      D.Sev >= diag::Severity::Warning) {
    D.Loc = RemapStack.back().RepresentativeLoc;
    Remapped = true;
  }

  // Warning-control flags (-w / -Werror). Notes never stand alone: when -w
  // drops a warning, the notes that follow it are dropped too.
  if (D.Sev == diag::Severity::Warning) {
    if (SuppressAllWarnings) {
      SuppressingAttachedNotes = true;
      return;
    }
    if (WarningsAsErrors)
      D.Sev = diag::Severity::Error;
  }
  if (D.Sev == diag::Severity::Note) {
    if (SuppressingAttachedNotes)
      return;
  } else {
    SuppressingAttachedNotes = false;
  }

  switch (D.Sev) {
  case diag::Severity::Error:
    ++NumErrors;
    break;
  case diag::Severity::Warning:
    ++NumWarnings;
    break;
  case diag::Severity::Remark:
    ++NumRemarks;
    break;
  default:
    break;
  }

  if (Consumer)
    Consumer->handleDiagnostic(D);

  // Explain the transformation history with a note, analogous to the
  // "in instantiation of template ..." notes for templates.
  if (Remapped) {
    EmittingRemapNote = true;
    report(RemapStack.back().RepresentativeLoc, diag::note_omp_transformed_here)
        << RemapStack.back().TransformName;
    EmittingRemapNote = false;
  }
}

std::string StoringDiagnosticConsumer::render(const SourceManager &SM) const {
  std::string Out;
  TextDiagnosticPrinter Printer(Out, &SM);
  for (const Diagnostic &D : Diags)
    Printer.handleDiagnostic(D);
  return Out;
}

void TextDiagnosticPrinter::handleDiagnostic(const Diagnostic &D) {
  const char *SevStr = "";
  switch (D.Sev) {
  case diag::Severity::Error:
    SevStr = "error";
    break;
  case diag::Severity::Warning:
    SevStr = "warning";
    break;
  case diag::Severity::Note:
    SevStr = "note";
    break;
  case diag::Severity::Remark:
    SevStr = "remark";
    break;
  case diag::Severity::Ignored:
    return;
  }

  if (SM && D.Loc.isValid()) {
    PresumedLoc P = SM->getPresumedLoc(D.Loc);
    if (P.isValid()) {
      Out += P.Filename;
      Out += ':';
      Out += std::to_string(P.Line);
      Out += ':';
      Out += std::to_string(P.Column);
      Out += ": ";
      Out += SevStr;
      Out += ": ";
      Out += D.Message;
      Out += '\n';
      // Caret line.
      std::string_view LineText = SM->getLineText(D.Loc);
      Out += LineText;
      Out += '\n';
      for (unsigned I = 1; I < P.Column; ++I)
        Out += (I - 1 < LineText.size() && LineText[I - 1] == '\t') ? '\t'
                                                                    : ' ';
      Out += "^\n";
      return;
    }
  }
  Out += SevStr;
  Out += ": ";
  Out += D.Message;
  Out += '\n';
}

} // namespace mcc
