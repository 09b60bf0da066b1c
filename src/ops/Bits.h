//===- ops/Bits.h - Bit scanning and integer logarithms ---------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Leading/trailing zero counts and the integer logarithms of §3.
///
/// The paper derives both logarithms from a leading-zero-count (LDZ)
/// instruction:
///   ⌈log2 x⌉ = N - LDZ(x - 1)        (1 < x <= 2^(N-1))
///   ⌊log2 x⌋ = N - 1 - LDZ(x)        (x >= 1)
/// LDZ itself is std::countl_zero, one instruction on current hardware.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_OPS_BITS_H
#define GMDIV_OPS_BITS_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <type_traits>

namespace gmdiv {

/// Number of leading zero bits in a 64-bit value; 64 for zero.
constexpr int countLeadingZeros64(uint64_t Value) {
  return std::countl_zero(Value);
}

/// Number of trailing zero bits in a 64-bit value; 64 for zero.
constexpr int countTrailingZeros64(uint64_t Value) {
  return std::countr_zero(Value);
}

/// Number of set bits in a 64-bit value.
constexpr int popCount64(uint64_t Value) { return std::popcount(Value); }

/// The low \p WordBits bits set (1 <= WordBits <= 64): the bit pattern
/// mask of an N-bit word held in a uint64_t.
constexpr uint64_t maskFor(int WordBits) {
  return WordBits == 64 ? ~uint64_t{0} : (uint64_t{1} << WordBits) - 1;
}

/// The N-bit two's-complement value of bit pattern \p Value (bits above
/// \p WordBits are ignored), sign-extended to 64 bits.
constexpr int64_t signExtend64(uint64_t Value, int WordBits) {
  const uint64_t SignBit = uint64_t{1} << (WordBits - 1);
  return static_cast<int64_t>(((Value & maskFor(WordBits)) ^ SignBit) -
                              SignBit);
}

/// Leading-zero count within a word of \p Bits bits (the paper's LDZ);
/// the width of the word for zero.
template <typename UWord> constexpr int countLeadingZeros(UWord Value) {
  return std::countl_zero(Value);
}

/// Trailing-zero count within a word; width of the word for zero.
template <typename UWord> constexpr int countTrailingZeros(UWord Value) {
  return std::countr_zero(Value);
}

/// ⌊log2 Value⌋ for Value >= 1, via the paper's LDZ identity.
template <typename UWord>
constexpr int floorLog2(UWord Value) {
  assert(Value >= 1 && "floorLog2 requires a positive argument");
  constexpr int Bits = static_cast<int>(sizeof(UWord) * 8);
  return Bits - 1 - countLeadingZeros<UWord>(Value);
}

/// ⌈log2 Value⌉ for Value >= 1, via the paper's LDZ identity.
/// Unlike the paper's statement (which assumes 1 < x <= 2^(N-1)) this
/// also handles Value == 1 (LDZ(0) = N, result 0) and values above
/// 2^(N-1).
template <typename UWord>
constexpr int ceilLog2(UWord Value) {
  assert(Value >= 1 && "ceilLog2 requires a positive argument");
  constexpr int Bits = static_cast<int>(sizeof(UWord) * 8);
  return Bits - countLeadingZeros<UWord>(static_cast<UWord>(Value - 1));
}

/// True if \p Value is a power of two (and nonzero).
template <typename UWord>
constexpr bool isPowerOf2(UWord Value) {
  static_assert(std::is_unsigned_v<UWord>, "requires an unsigned word");
  return Value != 0 && (Value & (Value - 1)) == 0;
}

/// Bit width of a word type, for generic code that cannot rely on
/// sizeof (emulated small words store N logical bits in wider storage).
/// The default covers every built-in integer and UInt128 (sizeof 16).
template <typename UWord> struct WordBitWidth {
  static constexpr int value = static_cast<int>(sizeof(UWord) * 8);
};

template <typename UWord>
inline constexpr int WordBitWidthV = WordBitWidth<UWord>::value;

} // namespace gmdiv

#endif // GMDIV_OPS_BITS_H
