//===- Arith.h - Pascal integer arithmetic ----------------------*- C++ -*-===//
//
// Part of the GADT project (PLDI'91 GADT reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pascal `integer` arithmetic as both execution engines and the constant
/// folder compute it: 64-bit two's complement that wraps on overflow. Host
/// signed arithmetic is undefined on overflow, and host division traps on
/// `INT64_MIN / -1`, so every engine goes through these instead. Division
/// and modulo by zero stay the caller's runtime error.
///
//===----------------------------------------------------------------------===//

#ifndef GADT_INTERP_ARITH_H
#define GADT_INTERP_ARITH_H

#include <cstdint>

namespace gadt {
namespace interp {
namespace arith {

inline int64_t add(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t sub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t mul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t neg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}
/// \p B must not be 0. `INT64_MIN div -1` wraps to INT64_MIN.
inline int64_t div(int64_t A, int64_t B) { return B == -1 ? neg(A) : A / B; }
/// \p B must not be 0. `INT64_MIN mod -1` is 0.
inline int64_t mod(int64_t A, int64_t B) { return B == -1 ? 0 : A % B; }

} // namespace arith
} // namespace interp
} // namespace gadt

#endif // GADT_INTERP_ARITH_H
