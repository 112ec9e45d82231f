//===--- JobSpec.h - Textual compile-job specification ---------*- C++ -*-===//
//
// The one compile-flag grammar, shared by every front door: minicc's
// command line (which adds only its own driver words), the minicc-serve
// job files ("[flags...] <file>", one per line), the daemon protocol's
// Submit frames (flags travel as the same words; the client ships the
// source bytes), and minicc-fuzz's corpus emission. One parser means one
// semantics: a flag word is parsed identically whether it arrived from a
// command line, a file, a socket, or a test. Every word takes "--x" and
// "-x" alike.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SERVICE_JOBSPEC_H
#define MCC_SERVICE_JOBSPEC_H

#include "service/CompileService.h"

#include <string>
#include <vector>

namespace mcc::svc {

/// Splits \p Line on whitespace.
std::vector<std::string> splitJobWords(const std::string &Line);

/// Parses one flag word (everything in the job grammar except the file
/// operand) into \p Job. Returns false with \p Error set if \p Word is
/// not a recognized flag (including a word that does not start with '-')
/// or its value is malformed: numbers are whole decimals in range, and
/// --analyze= needs at least one pass name.
bool parseJobFlagWord(const std::string &Word, CompileJob &Job,
                      std::string &Error);

/// The usage lines for every word parseJobFlagWord accepts; both drivers
/// print them.
std::string jobFlagHelp();

/// Renders the non-default options of \p Job back into flag words (the
/// inverse of parseJobFlagWord, round-trip tested). This is what the
/// client sends over the wire.
std::string renderJobFlags(const CompileJob &Job);

/// Parses a full job line "[flags...] <file>". On success \p File holds
/// the (single) file operand; the caller decides how to load it. Returns
/// false with an empty \p Error for blank/comment lines, false with a
/// message for malformed ones.
bool parseJobSpecLine(const std::string &Line, CompileJob &Job,
                      std::string &File, std::string &Error);

} // namespace mcc::svc

#endif // MCC_SERVICE_JOBSPEC_H
