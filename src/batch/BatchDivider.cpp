//===- batch/BatchDivider.cpp - Facade implementation ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Builds the flattened batch state from the scalar dividers — the same
// ChooseMultiplier / Figure 5.2 / §9 precomputation the per-element API
// runs, done once per BatchDivider — and binds the kernel table of the
// selected backend.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"

#include "core/Divider.h"
#include "core/ExactDiv.h"
#include "metrics/Metrics.h"
#include "ops/Bits.h"

#include <cinttypes>
#include <cstdio>

namespace gmdiv {
namespace batch {

// Defined in BatchDispatch.cpp.
const KernelTables &tablesForBackend(Backend B);

namespace {

template <typename T> UnsignedBatchState<T> buildUnsignedState(T Divisor) {
  UnsignedBatchState<T> S;
  S.Divisor = Divisor;
  const UnsignedDivider<T> Div(Divisor);
  S.MPrime = Div.magic();
  S.Shift1 = Div.preShift();
  S.Shift2 = Div.postShift();
  const ExactUnsignedDivider<T> Exact(Divisor);
  S.Inverse = Exact.inverse();
  S.QMax = Exact.maxQuotient();
  S.ExactShift = Exact.shift();
  S.IsPow2 = isPowerOf2(Divisor);
  S.Pow2Shift = countTrailingZeros(Divisor);
  return S;
}

template <typename T> SignedBatchState<T> buildSignedState(T Divisor) {
  SignedBatchState<T> S;
  S.Divisor = Divisor;
  const SignedDivider<T> Div(Divisor);
  S.MPrime = Div.magic();
  S.ShiftPost = Div.postShift();
  S.DSign = Div.divisorSign();
  return S;
}

template <typename T> const char *laneName() {
  if constexpr (std::is_signed_v<T>)
    return sizeof(T) == 1 ? "i8"
                          : sizeof(T) == 2 ? "i16"
                                           : sizeof(T) == 4 ? "i32" : "i64";
  else
    return sizeof(T) == 1 ? "u8"
                          : sizeof(T) == 2 ? "u16"
                                           : sizeof(T) == 4 ? "u32" : "u64";
}

} // namespace

template <typename T>
BatchDivider<T>::BatchDivider(T Divisor, Backend B)
    : Selected(backendAvailable(B) ? B : Backend::Scalar) {
  if constexpr (IsSigned) {
    State = buildSignedState<T>(Divisor);
    Kernels = tablesForBackend(Selected).template signedFor<T>();
  } else {
    State = buildUnsignedState<T>(Divisor);
    Kernels = tablesForBackend(Selected).template unsignedFor<T>();
  }
  GMDIV_STAT_ADD(batch, dividers_constructed, 1);
  noteBackendSelected(Selected, SelectionSource::Divider);
}

template <typename T>
BatchDivider<T>::BatchDivider(T Divisor)
    : BatchDivider(Divisor, activeBackend()) {}

template <typename T> std::string BatchDivider<T>::describe() const {
  char Buf[192];
  if constexpr (IsSigned) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s d=%" PRId64 ": backend=%s, m'=0x%" PRIx64
                  ", sh_post=%d, dsign=%d",
                  laneName<T>(), static_cast<int64_t>(State.Divisor),
                  backendName(Selected), static_cast<uint64_t>(State.MPrime),
                  State.ShiftPost, static_cast<int>(State.DSign));
  } else {
    std::snprintf(Buf, sizeof(Buf),
                  "%s d=%" PRIu64 ": backend=%s, m'=0x%" PRIx64
                  ", sh1=%d, sh2=%d, inverse=0x%" PRIx64 ", qmax=%" PRIu64
                  ", e=%d",
                  laneName<T>(), static_cast<uint64_t>(State.Divisor),
                  backendName(Selected), static_cast<uint64_t>(State.MPrime),
                  State.Shift1, State.Shift2,
                  static_cast<uint64_t>(State.Inverse),
                  static_cast<uint64_t>(State.QMax), State.ExactShift);
  }
  return std::string(Buf);
}

template class BatchDivider<uint8_t>;
template class BatchDivider<uint16_t>;
template class BatchDivider<uint32_t>;
template class BatchDivider<uint64_t>;
template class BatchDivider<int8_t>;
template class BatchDivider<int16_t>;
template class BatchDivider<int32_t>;
template class BatchDivider<int64_t>;

} // namespace batch
} // namespace gmdiv
