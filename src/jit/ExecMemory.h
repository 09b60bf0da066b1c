//===- jit/ExecMemory.h - W^X executable code buffers -----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Page-granular executable memory for the JIT backend, following a
/// strict W^X discipline: a buffer is mmap'd PROT_READ|PROT_WRITE,
/// filled with machine code, then flipped to PROT_READ|PROT_EXEC with
/// mprotect before the first call. No mapping is ever writable and
/// executable at the same time, so a stray write through a dangling
/// pointer cannot silently retarget live code (docs/JIT.md covers the
/// policy and its limits).
///
/// The layer is POSIX-only by construction; on hosts without mmap the
/// allocation entry point reports failure and JitBatchDivider falls
/// back to the static batch kernels.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_EXECMEMORY_H
#define GMDIV_JIT_EXECMEMORY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace gmdiv {
namespace jit {

/// One executable mapping holding a finalized code sequence. Move-only;
/// the mapping is released on destruction. After construction through
/// allocateExec() the memory is PROT_READ|PROT_EXEC and immutable.
class ExecBuffer {
public:
  ExecBuffer() = default;
  ~ExecBuffer();
  ExecBuffer(ExecBuffer &&Other) noexcept;
  ExecBuffer &operator=(ExecBuffer &&Other) noexcept;
  ExecBuffer(const ExecBuffer &) = delete;
  ExecBuffer &operator=(const ExecBuffer &) = delete;

  bool valid() const { return Base != nullptr; }
  /// Entry point of the copied code (start of the mapping).
  const void *entry() const { return Base; }
  /// Bytes of machine code (the mapping itself is page-rounded).
  size_t codeSize() const { return CodeBytes; }
  size_t mappedSize() const { return MappedBytes; }

  /// Maps \p Size bytes of code from \p Code: mmap RW, copy, mprotect
  /// R+X. Returns an invalid buffer (and fills \p Error when given) if
  /// the host cannot provide executable memory.
  static ExecBuffer allocateExec(const void *Code, size_t Size,
                                 std::string *Error = nullptr);

private:
  void *Base = nullptr;
  size_t CodeBytes = 0;
  size_t MappedBytes = 0;
};

/// True when this build can map and run executable buffers (POSIX mmap
/// present). Says nothing about the instruction set — see
/// jit::vectorHostSupported() for the full gate.
bool execMemorySupported();

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_EXECMEMORY_H
