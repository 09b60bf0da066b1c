//===- ops/SmallWord.h - Emulated words for parameterized-N checks -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emulated N-bit word types for small, non-native N (2 <= N <= 16).
///
/// The paper's theorems are stated for an arbitrary N-bit machine, but the
/// native word family only instantiates the algorithms at N = 8, 16, 32,
/// 64. SmallUWord<N>/SmallSWord<N> are drop-in word types with full
/// WordTraits/SignedWordTraits specializations, so CHOOSE_MULTIPLIER, the
/// core dividers and the codegen emitters instantiate *unchanged* at
/// N = 4..12 — small enough that the verification harness (src/verify)
/// can check every (n, d) pair exhaustively against the oracle.
///
/// Representation: an unsigned value is held zero-extended in a uint32_t
/// (invariant: Raw <= 2^N - 1); a signed value is held sign-extended in an
/// int32_t (invariant: -2^(N-1) <= Raw < 2^(N-1)), so comparisons are
/// plain comparisons of the storage. All arithmetic wraps mod 2^N through
/// the constructor, exactly the two's complement machine of the paper.
/// The doubleword is uint64_t/int64_t (2N <= 32 bits needed, so native
/// 64-bit arithmetic covers every udword computation exactly).
///
/// Conversions mirror the built-in word families: construction from an
/// integer is implicit (it masks, like static_cast to uint8_t), while
/// conversions *out* (to uint64_t/int64_t and between the signed and
/// unsigned siblings) are explicit, so the existing static_casts in the
/// algorithm templates compile and no accidental widening changes
/// semantics.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_OPS_SMALLWORD_H
#define GMDIV_OPS_SMALLWORD_H

#include "ops/Bits.h"
#include "ops/Ops.h"

#include <cassert>
#include <compare>
#include <cstdint>

namespace gmdiv {

template <int NBits> struct SmallSWord;

/// Unsigned N-bit word emulated in uint32_t storage, 2 <= N <= 16.
template <int NBits> struct SmallUWord {
  static_assert(NBits >= 2 && NBits <= 16,
                "SmallUWord emulates sub-native widths only");
  static constexpr int Bits = NBits;
  static constexpr uint32_t RawMask = (uint32_t{1} << NBits) - 1;

  uint32_t Raw = 0; ///< Invariant: Raw <= RawMask.

  constexpr SmallUWord() = default;
  /// Implicit, masking — mirrors integral conversion to a narrow type.
  constexpr SmallUWord(uint64_t Value)
      : Raw(static_cast<uint32_t>(Value) & RawMask) {}

  constexpr uint32_t raw() const { return Raw; }
  explicit constexpr operator uint64_t() const { return Raw; }
  explicit constexpr operator uint32_t() const { return Raw; }
  explicit constexpr operator SmallSWord<NBits>() const;

  friend constexpr SmallUWord operator+(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw} + B.Raw);
  }
  friend constexpr SmallUWord operator-(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw} - B.Raw);
  }
  friend constexpr SmallUWord operator*(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw} * B.Raw);
  }
  friend constexpr SmallUWord operator/(SmallUWord A, SmallUWord B) {
    assert(B.Raw != 0 && "division by zero");
    return SmallUWord(uint64_t{A.Raw} / B.Raw);
  }
  friend constexpr SmallUWord operator%(SmallUWord A, SmallUWord B) {
    assert(B.Raw != 0 && "division by zero");
    return SmallUWord(uint64_t{A.Raw} % B.Raw);
  }
  friend constexpr SmallUWord operator&(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw & B.Raw});
  }
  friend constexpr SmallUWord operator|(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw | B.Raw});
  }
  friend constexpr SmallUWord operator^(SmallUWord A, SmallUWord B) {
    return SmallUWord(uint64_t{A.Raw ^ B.Raw});
  }
  friend constexpr SmallUWord operator~(SmallUWord A) {
    return SmallUWord(uint64_t{~A.Raw});
  }
  friend constexpr SmallUWord operator<<(SmallUWord A, int Count) {
    assert(Count >= 0 && Count < 32 && "shift count out of range");
    return SmallUWord(uint64_t{A.Raw} << Count);
  }
  friend constexpr SmallUWord operator>>(SmallUWord A, int Count) {
    assert(Count >= 0 && Count < 32 && "shift count out of range");
    return SmallUWord(uint64_t{A.Raw >> Count});
  }
  friend constexpr bool operator==(SmallUWord A, SmallUWord B) {
    return A.Raw == B.Raw;
  }
  friend constexpr std::strong_ordering operator<=>(SmallUWord A,
                                                    SmallUWord B) {
    return A.Raw <=> B.Raw;
  }
};

/// Signed N-bit word emulated in int32_t storage (two's complement).
template <int NBits> struct SmallSWord {
  static_assert(NBits >= 2 && NBits <= 16,
                "SmallSWord emulates sub-native widths only");
  static constexpr int Bits = NBits;
  static constexpr uint32_t RawMask = (uint32_t{1} << NBits) - 1;

  int32_t Raw = 0; ///< Invariant: -2^(N-1) <= Raw < 2^(N-1).

  static constexpr int32_t canonicalize(uint32_t Low) {
    Low &= RawMask;
    if (Low & (uint32_t{1} << (NBits - 1)))
      return static_cast<int32_t>(Low) - (int32_t{1} << NBits);
    return static_cast<int32_t>(Low);
  }

  constexpr SmallSWord() = default;
  /// Implicit, wrapping mod 2^N then sign-extending from bit N-1.
  constexpr SmallSWord(int64_t Value)
      : Raw(canonicalize(static_cast<uint32_t>(Value))) {}

  constexpr int32_t raw() const { return Raw; }
  explicit constexpr operator int64_t() const { return Raw; }
  /// Sign-extends, as converting a native signed word to uint64_t does.
  explicit constexpr operator uint64_t() const {
    return static_cast<uint64_t>(static_cast<int64_t>(Raw));
  }
  explicit constexpr operator SmallUWord<NBits>() const {
    return SmallUWord<NBits>(
        static_cast<uint64_t>(static_cast<int64_t>(Raw)));
  }

  friend constexpr SmallSWord operator-(SmallSWord A) {
    return SmallSWord(-int64_t{A.Raw});
  }
  friend constexpr SmallSWord operator+(SmallSWord A, SmallSWord B) {
    return SmallSWord(int64_t{A.Raw} + B.Raw);
  }
  friend constexpr SmallSWord operator-(SmallSWord A, SmallSWord B) {
    return SmallSWord(int64_t{A.Raw} - B.Raw);
  }
  friend constexpr SmallSWord operator*(SmallSWord A, SmallSWord B) {
    return SmallSWord(int64_t{A.Raw} * B.Raw);
  }
  friend constexpr bool operator==(SmallSWord A, SmallSWord B) {
    return A.Raw == B.Raw;
  }
  friend constexpr std::strong_ordering operator<=>(SmallSWord A,
                                                    SmallSWord B) {
    return A.Raw <=> B.Raw;
  }
};

template <int NBits>
constexpr SmallUWord<NBits>::operator SmallSWord<NBits>() const {
  return SmallSWord<NBits>(int64_t{Raw});
}

/// WordTraits over the emulated family: the doubleword is uint64_t, which
/// exactly covers the up-to-2N+1-bit intermediates (2N <= 32) the
/// algorithms need.
template <int NBits> struct WordTraits<SmallUWord<NBits>> {
  using UWord = SmallUWord<NBits>;
  using SWord = SmallSWord<NBits>;
  using UDWord = uint64_t;
  using SDWord = int64_t;
  static constexpr int Bits = NBits;

  static constexpr UDWord udFromWord(UWord Value) { return Value.raw(); }
  static constexpr UWord udLow(UDWord Value) { return UWord(Value); }
  static constexpr UWord udHigh(UDWord Value) { return UWord(Value >> NBits); }
  static constexpr SDWord sdFromWord(SWord Value) { return Value.raw(); }
  static constexpr UWord sdLow(SDWord Value) {
    return UWord(static_cast<uint64_t>(Value));
  }
  static constexpr SWord sdHigh(SDWord Value) { return SWord(Value >> NBits); }
  static std::pair<UDWord, UDWord> udDivMod(UDWord A, UDWord B) {
    assert(B != 0 && "division by zero");
    return {A / B, A % B};
  }
  /// 2^K as a doubleword, 0 <= K < 2*Bits (same contract as the native
  /// traits; 2N <= 32 so uint64_t holds it exactly).
  static constexpr UDWord udPow2(int K) {
    assert(K >= 0 && K < 2 * NBits && "udPow2 exponent out of range");
    return uint64_t{1} << K;
  }
  /// (q, r) with 2^Exponent = q*Divisor + r; Exponent may be up to 2*Bits.
  static std::pair<UDWord, UDWord> udDivModPow2(int Exponent, UDWord Divisor) {
    assert(Exponent >= 0 && Exponent <= 2 * NBits && "exponent out of range");
    assert(Divisor != 0 && "division by zero");
    const uint64_t Numerator = uint64_t{1} << Exponent;
    return {Numerator / Divisor, Numerator % Divisor};
  }
};

template <int NBits> struct SignedWordTraits<SmallSWord<NBits>> {
  using Traits = WordTraits<SmallUWord<NBits>>;
};

/// Bit-scanning overloads. More specialized than the Bits.h primaries, so
/// overload resolution picks these (the primaries' static_asserts would
/// reject a class type); found by ADL at each instantiation point.
template <int NBits> constexpr int countLeadingZeros(SmallUWord<NBits> Value) {
  return countLeadingZeros64(Value.raw()) - (64 - NBits);
}
template <int NBits> constexpr int countTrailingZeros(SmallUWord<NBits> Value) {
  if (Value.raw() == 0)
    return NBits;
  return countTrailingZeros64(Value.raw());
}
template <int NBits> constexpr int floorLog2(SmallUWord<NBits> Value) {
  assert(Value.raw() >= 1 && "floorLog2 requires a positive argument");
  return NBits - 1 - countLeadingZeros(Value);
}
template <int NBits> constexpr int ceilLog2(SmallUWord<NBits> Value) {
  assert(Value.raw() >= 1 && "ceilLog2 requires a positive argument");
  return 64 - countLeadingZeros64(Value.raw() - 1);
}
template <int NBits> constexpr bool isPowerOf2(SmallUWord<NBits> Value) {
  return Value.raw() != 0 && (Value.raw() & (Value.raw() - 1)) == 0;
}

/// The word's bit width for generic code (ModArith): specialized here
/// because sizeof(SmallUWord) says nothing about N.
template <int NBits> struct WordBitWidth<SmallUWord<NBits>> {
  static constexpr int value = NBits;
};

} // namespace gmdiv

#endif // GMDIV_OPS_SMALLWORD_H
