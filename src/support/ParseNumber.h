//===- support/ParseNumber.h - Overflow-checked decimal parsing -*- C++ -*-===//
//
// Part of the Usher project, reproducing "Accelerating Dynamic Detection of
// Uses of Undefined Values with Static Value-Flow Analysis" (CGO 2014).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one decimal parser behind every numeric flag and fault spec. Unlike
/// strtoull it rejects signs, whitespace and values above UINT64_MAX
/// instead of saturating or wrapping, so "18446744073709551617" can never
/// sneak through as 1 (or as step 0 of a fault plan).
///
//===----------------------------------------------------------------------===//

#ifndef USHER_SUPPORT_PARSENUMBER_H
#define USHER_SUPPORT_PARSENUMBER_H

#include <cstdint>
#include <string_view>

namespace usher {

/// Parses \p Text as an unsigned decimal into \p Out. Fails, leaving \p Out
/// unchanged, on an empty string, any non-digit, or overflow.
inline bool parseDecimal(std::string_view Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t D = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - D) / 10)
      return false;
    V = V * 10 + D;
  }
  Out = V;
  return true;
}

} // namespace usher

#endif // USHER_SUPPORT_PARSENUMBER_H
