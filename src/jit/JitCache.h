//===- jit/JitCache.h - Empty code cache under the JIT name -----*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CodeCache is an empty shim: nothing in gmdiv generates code, so
/// there is nothing to cache. The name stays only because the bench/e2e
/// ledger constructs one, clears the global one and reads its stats();
/// those always read zero. The one divider cache is
/// service::DividerRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_JIT_JITCACHE_H
#define GMDIV_JIT_JITCACHE_H

#include "service/Key.h"

#include <cstddef>

namespace gmdiv {
namespace jit {

class CodeCache {
public:
  CodeCache(size_t /*NumShards*/, size_t /*ShardCapacity*/) {}

  static CodeCache &global() {
    static CodeCache Cache(1, 1);
    return Cache;
  }

  void clear() {}
  cache::CacheStats stats() const { return {}; }
};

} // namespace jit
} // namespace gmdiv

#endif // GMDIV_JIT_JITCACHE_H
