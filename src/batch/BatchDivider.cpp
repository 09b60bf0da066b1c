//===- batch/BatchDivider.cpp - Facade implementation ---------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Builds the core dividers — the ChooseMultiplier / Figure 5.2 / §9
// precomputation, done once per BatchDivider — and binds the kernel
// table of the selected backend.
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"

#include <cinttypes>
#include <cstdio>

namespace gmdiv {
namespace batch {

// Defined in BatchDispatch.cpp.
const KernelTables &tablesForBackend(Backend B);

namespace {

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

const char *unsignedShapeName(UnsignedShape S) {
  switch (S) {
  case UnsignedShape::Fits:
    return "fits";
  case UnsignedShape::PreShift:
    return "pre-shift";
  case UnsignedShape::Long:
    return "long";
  }
  return "long";
}

template <typename T>
BatchDivider<T>::BatchDivider(T Divisor, Backend B)
    : State(Divisor), Selected(backendAvailable(B) ? B : Backend::Scalar) {
  if constexpr (IsSigned)
    Kernels = tablesForBackend(Selected).template signedFor<T>();
  else
    Kernels = tablesForBackend(Selected).template unsignedFor<T>(State.Shape);
  noteBackendSelected(Selected, SelectionSource::Divider);
}

template <typename T>
BatchDivider<T>::BatchDivider(T Divisor)
    : BatchDivider(Divisor, activeBackend()) {}

template <typename T> std::string BatchDivider<T>::describe() const {
  char Buf[320];
  if constexpr (IsSigned) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s d=%" PRId64 ": backend=%s, m'=0x%" PRIx64
                  ", sh_post=%d, dsign=%d",
                  laneName<T>(), static_cast<int64_t>(State.Div.divisor()),
                  backendName(Selected),
                  static_cast<uint64_t>(State.Div.magic()),
                  State.Div.postShift(),
                  static_cast<int>(State.Div.divisorSign()));
  } else {
    const char *Qd = "";
    if constexpr (sizeof(T) == 8)
      Qd = State.CrossShift == 0 ? ", qd=2mul(q<2^32)" : ", qd=2mul(d<2^32)";
    std::snprintf(Buf, sizeof(Buf),
                  "%s d=%" PRIu64 ": backend=%s, shape=%s%s m=0x%" PRIx64
                  " pre=%d post=%d%s, m'=0x%" PRIx64
                  ", sh1=%d, sh2=%d, inverse=0x%" PRIx64 ", qmax=%" PRIu64
                  ", e=%d",
                  laneName<T>(), static_cast<uint64_t>(State.Div.divisor()),
                  backendName(Selected), unsignedShapeName(State.Shape),
                  isPowerOf2(State.Div.divisor()) && State.Div.divisor() > 1
                      ? " (power of two)"
                      : "",
                  static_cast<uint64_t>(State.Magic), State.Pre, State.Post,
                  Qd, static_cast<uint64_t>(State.Div.magic()),
                  State.Div.preShift(), State.Div.postShift(),
                  static_cast<uint64_t>(State.Exact.inverse()),
                  static_cast<uint64_t>(State.Exact.maxQuotient()),
                  State.Exact.shift());
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
