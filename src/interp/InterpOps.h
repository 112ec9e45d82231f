//===--- InterpOps.h - Shared scalar semantics for both engines -*- C++ -*-===//
//
// The single definition of the mini-IR's scalar arithmetic, used by the
// tree-walking reference engine and the bytecode engine alike. Keeping the
// width-extension, shift-masking and division-trap rules in one place is
// what makes "byte-identical verdicts under both engines" a structural
// property rather than a test-enforced hope.
//
//===----------------------------------------------------------------------===//
#ifndef MCC_INTERP_INTERPOPS_H
#define MCC_INTERP_INTERPOPS_H

#include "ir/IR.h"

#include <cstdint>
#include <stdexcept>

namespace mcc::interp::ops {

inline std::int64_t signExtend(std::int64_t V, unsigned Bits) {
  if (Bits >= 64)
    return V;
  std::uint64_t Mask = (1ULL << Bits) - 1;
  std::uint64_t U = static_cast<std::uint64_t>(V) & Mask;
  if (U & (1ULL << (Bits - 1)))
    U |= ~Mask;
  return static_cast<std::int64_t>(U);
}

inline std::uint64_t zeroExtend(std::int64_t V, unsigned Bits) {
  if (Bits >= 64)
    return static_cast<std::uint64_t>(V);
  return static_cast<std::uint64_t>(V) & ((1ULL << Bits) - 1);
}

/// Wrapping int64 arithmetic. Mini-IR integers wrap in two's complement;
/// the host's signed + - * would be undefined on overflow, so they go
/// through std::uint64_t.
inline std::int64_t wrapAdd(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) +
                                   static_cast<std::uint64_t>(B));
}
inline std::int64_t wrapSub(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) -
                                   static_cast<std::uint64_t>(B));
}
inline std::int64_t wrapMul(std::int64_t A, std::int64_t B) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(A) *
                                   static_cast<std::uint64_t>(B));
}

/// Integer binary operation at the given result width. Division and
/// remainder trap on zero (std::runtime_error) and pin the INT64_MIN / -1
/// overflow case; every result is sign-extended back to \p Bits.
inline std::int64_t evalIntBinop(ir::Opcode Op, std::int64_t A,
                                 std::int64_t B, unsigned Bits) {
  using ir::Opcode;
  std::int64_t R = 0;
  switch (Op) {
  case Opcode::Add:
    R = wrapAdd(A, B);
    break;
  case Opcode::Sub:
    R = wrapSub(A, B);
    break;
  case Opcode::Mul:
    R = wrapMul(A, B);
    break;
  case Opcode::SDiv:
    if (B == 0)
      throw std::runtime_error("integer division by zero");
    R = (A == INT64_MIN && B == -1) ? A : A / B;
    break;
  case Opcode::UDiv:
    if (B == 0)
      throw std::runtime_error("integer division by zero");
    R = static_cast<std::int64_t>(zeroExtend(A, Bits) / zeroExtend(B, Bits));
    break;
  case Opcode::SRem:
    if (B == 0)
      throw std::runtime_error("integer remainder by zero");
    R = (A == INT64_MIN && B == -1) ? 0 : A % B;
    break;
  case Opcode::URem:
    if (B == 0)
      throw std::runtime_error("integer remainder by zero");
    R = static_cast<std::int64_t>(zeroExtend(A, Bits) % zeroExtend(B, Bits));
    break;
  case Opcode::And:
    R = A & B;
    break;
  case Opcode::Or:
    R = A | B;
    break;
  case Opcode::Xor:
    R = A ^ B;
    break;
  case Opcode::Shl:
    R = A << (B & (Bits - 1));
    break;
  case Opcode::AShr:
    R = signExtend(A, Bits) >> (B & (Bits - 1));
    break;
  case Opcode::LShr:
    R = static_cast<std::int64_t>(zeroExtend(A, Bits) >> (B & (Bits - 1)));
    break;
  default:
    throw std::runtime_error("evalIntBinop: not an integer binop");
  }
  return signExtend(R, Bits);
}

/// Integer comparison at the operands' width.
inline bool evalICmp(ir::CmpPred P, std::int64_t A, std::int64_t B,
                     unsigned Bits) {
  using ir::CmpPred;
  std::int64_t SA = signExtend(A, Bits), SB = signExtend(B, Bits);
  std::uint64_t UA = zeroExtend(A, Bits), UB = zeroExtend(B, Bits);
  switch (P) {
  case CmpPred::EQ:
    return UA == UB;
  case CmpPred::NE:
    return UA != UB;
  case CmpPred::SLT:
    return SA < SB;
  case CmpPred::SLE:
    return SA <= SB;
  case CmpPred::SGT:
    return SA > SB;
  case CmpPred::SGE:
    return SA >= SB;
  case CmpPred::ULT:
    return UA < UB;
  case CmpPred::ULE:
    return UA <= UB;
  case CmpPred::UGT:
    return UA > UB;
  case CmpPred::UGE:
    return UA >= UB;
  default:
    return false;
  }
}

/// Ordered floating-point comparison.
inline bool evalFCmp(ir::CmpPred P, double A, double B) {
  using ir::CmpPred;
  switch (P) {
  case CmpPred::OEQ:
    return A == B;
  case CmpPred::ONE:
    return A != B;
  case CmpPred::OLT:
    return A < B;
  case CmpPred::OLE:
    return A <= B;
  case CmpPred::OGT:
    return A > B;
  case CmpPred::OGE:
    return A >= B;
  default:
    return false;
  }
}

} // namespace mcc::interp::ops

#endif // MCC_INTERP_INTERPOPS_H
