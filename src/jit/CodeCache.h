//===- jit/CodeCache.h - Compiled-unit cache with LRU eviction --*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code cache closes the serving-layer loop: the same IR loops are
/// re-submitted millions of times, so compilation must be paid once.
/// Units are keyed by (source function, loop header): compilation reads
/// the IR alone -- no loop policy -- so every runner of one loop, under
/// any LoopOptions, shares one unit. Eviction is LRU at a fixed
/// capacity; invalidate(F) drops every unit lifted from F (the hook for
/// callers that mutate IR between runs). Units are handed out as
/// shared_ptr<const CompiledUnit>, so an evicted unit stays valid for
/// loops still running it.
///
/// compileLoop() is the full pipeline (frontend -> passes -> backend);
/// CodeCache::getOrCompile() wraps it with the cache, and its Stats
/// (hits/misses/evictions/invalidations) are what tests and the
/// micro_runtime bench observe.
///
/// The cache is not internally synchronized: callers that share one
/// cache across client threads must wrap it (the in-tree runners own one
/// cache per client, matching the one-invocation-at-a-time loop handle).
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_JIT_CODECACHE_H
#define SPICE_JIT_CODECACHE_H

#include "jit/Backend.h"
#include "transform/CanonicalLoop.h"

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>

namespace spice {
namespace jit {

/// Full compile pipeline: match is the caller's job (the CanonicalLoop
/// proves the shape); this lifts, optimizes and lowers. Returns null
/// with \p WhyNot set when the frontend refuses the region.
std::shared_ptr<const CompiledUnit>
compileLoop(const transform::CanonicalLoop &CL, std::string *WhyNot = nullptr);

struct CodeCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Invalidations = 0;
};

class CodeCache {
public:
  explicit CodeCache(size_t Capacity = 64) : Capacity(Capacity ? Capacity : 1) {}

  /// Cached unit for (function, header), or null.
  std::shared_ptr<const CompiledUnit>
  lookup(const ir::Function *F, const ir::BasicBlock *Header);

  /// Inserts \p Unit, evicting the least recently used entry at capacity.
  void insert(const ir::Function *F, const ir::BasicBlock *Header,
              std::shared_ptr<const CompiledUnit> Unit);

  /// lookup() or compileLoop()+insert(). Null (with \p WhyNot) when the
  /// region is not compilable; refusals are not cached.
  std::shared_ptr<const CompiledUnit>
  getOrCompile(const transform::CanonicalLoop &CL,
               std::string *WhyNot = nullptr);

  /// Drops every unit lifted from \p F.
  void invalidate(const ir::Function *F);

  size_t size() const { return Entries.size(); }
  size_t capacity() const { return Capacity; }
  const CodeCacheStats &stats() const { return Stats; }

private:
  using Key = std::pair<const ir::Function *, const ir::BasicBlock *>;
  struct Entry {
    std::shared_ptr<const CompiledUnit> Unit;
    uint64_t Tick;
  };

  size_t Capacity;
  uint64_t NextTick = 0;
  std::map<Key, Entry> Entries;
  CodeCacheStats Stats;
};

} // namespace jit
} // namespace spice

#endif // SPICE_JIT_CODECACHE_H
