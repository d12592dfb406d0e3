//===- jit/CodeCache.cpp - Compiled-unit cache with LRU eviction ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "jit/Frontend.h"
#include "jit/Passes.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

using namespace spice;
using namespace spice::jit;

std::shared_ptr<const CompiledUnit>
jit::compileLoop(const transform::CanonicalLoop &CL, std::string *WhyNot) {
  FrontendResult Lifted = liftLoop(CL);
  if (!Lifted.Fn) {
    if (WhyNot)
      *WhyNot = Lifted.Error;
    return nullptr;
  }
  runDefaultPasses(*Lifted.Fn);
  return lowerToClosures(std::move(Lifted.Fn));
}

std::shared_ptr<const CompiledUnit>
CodeCache::lookup(const ir::Function *F, const ir::BasicBlock *Header) {
  auto It = Entries.find(Key{F, Header});
  if (It == Entries.end()) {
    ++Stats.Misses;
    return nullptr;
  }
  It->second.Tick = NextTick++;
  ++Stats.Hits;
  return It->second.Unit;
}

void CodeCache::insert(const ir::Function *F, const ir::BasicBlock *Header,
                       std::shared_ptr<const CompiledUnit> Unit) {
  Key K{F, Header};
  auto It = Entries.find(K);
  if (It != Entries.end()) {
    It->second = Entry{std::move(Unit), NextTick++};
    return;
  }
  if (Entries.size() >= Capacity) {
    auto Victim = Entries.begin();
    for (auto EIt = Entries.begin(); EIt != Entries.end(); ++EIt)
      if (EIt->second.Tick < Victim->second.Tick)
        Victim = EIt;
    Entries.erase(Victim);
    ++Stats.Evictions;
  }
  Entries.emplace(K, Entry{std::move(Unit), NextTick++});
}

std::shared_ptr<const CompiledUnit>
CodeCache::getOrCompile(const transform::CanonicalLoop &CL,
                        std::string *WhyNot) {
  if (std::shared_ptr<const CompiledUnit> Unit = lookup(CL.F, CL.Header))
    return Unit;
  std::shared_ptr<const CompiledUnit> Unit = compileLoop(CL, WhyNot);
  if (Unit)
    insert(CL.F, CL.Header, Unit);
  return Unit;
}

void CodeCache::invalidate(const ir::Function *F) {
  for (auto It = Entries.begin(); It != Entries.end();) {
    if (It->first.first == F) {
      It = Entries.erase(It);
      ++Stats.Invalidations;
    } else {
      ++It;
    }
  }
}
