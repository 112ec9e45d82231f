//===--- StrictParse.h - Numbers in flags and MCC_* variables ---*- C++ -*-===//
//
// A component reads its MCC_* variable through readEnv and keeps its
// default on a bad value; the drivers' startup check reads it through the
// same call and refuses the bad value.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_SUPPORT_STRICTPARSE_H
#define MCC_SUPPORT_STRICTPARSE_H

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace mcc {

/// Parses \p Text as a whole decimal number no larger than \p Max. Digits
/// only: an empty value, a sign, blanks, trailing junk or overflow fail.
inline bool parseDecimal(std::string_view Text, std::uint64_t Max,
                         std::uint64_t &Out) {
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
  return Ec == std::errc() && Ptr == End && Out <= Max;
}

/// Parses a driver flag `<Flag>N`, N a whole decimal from \p Min to \p Max.
/// False when \p Arg is another word; else true, with \p Out set or, when N
/// is bad, \p Error.
inline bool parseNumericFlag(std::string_view Arg, std::string_view Flag,
                             std::uint64_t Min, std::uint64_t Max,
                             std::uint64_t &Out, std::string &Error) {
  if (!Arg.starts_with(Flag))
    return false;
  if (!parseDecimal(Arg.substr(Flag.size()), Max, Out) || Out < Min)
    Error = "invalid " + std::string(Flag) + " (expected a whole number from " +
            std::to_string(Min) + " to " + std::to_string(Max) +
            "): " + std::string(Arg);
  return true;
}

/// Reads environment variable \p Name through \p Parse, a
/// `bool(std::string_view, T &)`. Nullopt when unset or rejected; a
/// rejected value also sets \p Error (when given and still empty).
template <typename T, typename ParseFn>
std::optional<T> readEnv(const char *Name, ParseFn Parse,
                         const char *Expected, std::string *Error) {
  const char *V = std::getenv(Name);
  if (!V)
    return std::nullopt;
  T Out{};
  if (Parse(std::string_view(V), Out))
    return Out;
  if (Error && Error->empty())
    *Error = std::string("invalid ") + Name + " value '" + V +
             "' (expected " + Expected + ")";
  return std::nullopt;
}

/// Parses "0" or "1".
inline bool parseBit(std::string_view V, bool &Out) {
  Out = V == "1";
  return V == "0" || V == "1";
}

} // namespace mcc

#endif // MCC_SUPPORT_STRICTPARSE_H
