//===- jit/JitLoop.h - Tiered runner: interpret, profile, JIT ---*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tiering glue between the vm and the JIT. A JitLoopRunner owns one
/// (function, memory) pair and executes invocations at the best available
/// tier:
///
///   * Cold: vm::runFunction, accumulating a vm::HotnessProfile.
///   * Hot (the profiled loop clears JitTierOptions::HotnessThreshold
///     after one interpreted invocation, or ForceJit): the loop region is
///     compiled through the CodeCache and every later invocation runs it
///     natively inside a core::SpiceLoop -- speculation, conflict
///     detection and recovery included -- via JitLoopTraits.
///
/// A JIT invocation is an interpreter sandwich. The entry slice runs the
/// preheader in a vm::ThreadContext up to the loop header, which leaves
/// the header phi registers holding the loop's true start values; the
/// runner snapshots invariant bindings and start live-ins from that
/// context. The loop itself runs as compiled slots: each Traits::step()
/// is one header-to-header traversal over a chunk-private register
/// frame, with all memory traffic through the chunk's core::SpecSpace.
/// Chunks start reductions at their identities; the true start values
/// are folded in exactly once after the merge. The exit slice deposits
/// the final reduction values back into the kept-alive ThreadContext
/// (setValue), jumps to the loop exit and lets the interpreter finish
/// the function -- so the return value is computed by the same code the
/// pure interpreter would run.
///
/// Deopt protocol: a failed guard or fuel exhaustion inside step()
/// poisons the chunk and reports it as "exited" (docs/jit.md spells out
/// why that is sound under Spice's start validation and commit-time read
/// validation); on the non-speculative path it is a fatal error, exactly
/// like the interpreter's own assertion. Compile refusals (unsupported
/// ops, no canonical loop) permanently pin the runner to the interpreter
/// tier -- behavior is never wrong, only slower.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_JIT_JITLOOP_H
#define SPICE_JIT_JITLOOP_H

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "jit/Backend.h"
#include "jit/CodeCache.h"
#include "support/ErrorHandling.h"
#include "transform/CanonicalLoop.h"
#include "vm/Interpreter.h"

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spice {
namespace jit {

/// Fixed capacity of a JitLiveIn. Loops speculating more live-ins than
/// this stay on the interpreter tier.
inline constexpr size_t kMaxSpeculatedLiveIns = 16;

/// Op budget per JitLoopTraits::step(); bounds a mis-speculated chunk
/// spinning in a garbage-driven inner loop. Must exceed any true
/// iteration's op count (a true-path fuel deopt is a fatal error, like
/// a true-path guard failure).
inline constexpr uint64_t kStepFuel = 1ull << 24;

/// The speculated live-in vector, one slot per non-reduction header phi
/// in JitFunction::SpecPhiRegs order. Unused slots stay 0, so equality
/// over the whole array matches equality over the used prefix.
struct JitLiveIn {
  std::array<int64_t, kMaxSpeculatedLiveIns> V{};
  bool operator==(const JitLiveIn &O) const { return V == O.V; }
};

/// Spice traits adapter running a CompiledUnit. One Traits object is
/// shared by every chunk of an invocation, so it holds only state that
/// is immutable during an invocation (the unit, the memory view, the
/// per-invocation frame template); everything a chunk mutates lives in
/// State.
struct JitLoopTraits {
  using LiveIn = JitLiveIn;

  struct State {
    /// Chunk-private register frame (constants, bindings, reduction
    /// identities pre-loaded from TemplateFrame).
    std::vector<int64_t> Frame;
    /// Set when a guard failed or fuel ran out on this speculative
    /// chunk; the chunk then reports Exited and lets Spice's start and
    /// read validation squash or re-execute it.
    bool Poisoned = false;
  };

  const CompiledUnit *Unit = nullptr;
  int64_t *MemBase = nullptr;
  uint64_t MemWords = 0;
  /// NumRegs-sized frame image: const pool, invariant bindings and
  /// reduction identities. Rebuilt by the runner before each
  /// invocation, stable while one is in flight.
  std::vector<int64_t> TemplateFrame;
  std::atomic<uint64_t> *Deopts = nullptr;

  State initialState() const { return State{TemplateFrame, false}; }
  /// Defined inline: step() is the per-iteration hot path, and the call
  /// into the dispatch loop should cost no more than the dispatch loop.
  bool step(LiveIn &LI, State &S, core::SpecSpace &Mem) const {
    if (S.Poisoned)
      return false;
    const JitFunction &Fn = Unit->Fn;
    for (size_t I = 0; I != Fn.SpecPhiRegs.size(); ++I)
      S.Frame[Fn.SpecPhiRegs[I]] = LI.V[I];
    ExecCtx Ctx{S.Frame.data(), MemBase, MemWords, &Mem, kStepFuel};
    uint32_t R = execute(*Unit, Ctx);
    if (R == kRetDeopt) {
      if (!Mem.isSpeculative())
        reportFatalError(
            "jit: guard failure or fuel exhaustion on the non-speculative "
            "path; the compiled loop and the interpreter disagree on a "
            "true iteration");
      if (Deopts)
        Deopts->fetch_add(1, std::memory_order_relaxed);
      // Poison and report "exited": a wrong-start chunk is squashed by
      // start validation; a right-start chunk can only have diverged by
      // reading another chunk's store, which commit-time read validation
      // (EnableConflictDetection, required for loops with stores) catches
      // and re-executes. See docs/jit.md.
      S.Poisoned = true;
      return false;
    }
    if (R == kRetExit)
      return false;
    assert(R == kRetOk && "unknown execute() sentinel");
    for (size_t I = 0; I != Fn.SpecPhiRegs.size(); ++I)
      LI.V[I] = S.Frame[Fn.SpecPhiRegs[I]];
    return true;
  }
  void combine(State &Into, State &&Chunk) const;
};

/// Tiering policy knobs. Without ForceJit, a runner interprets its
/// first invocation to build the hotness profile and consults the
/// profile from the second invocation on.
struct JitTierOptions {
  /// Minimum fraction of dynamic instructions the loop must account for
  /// before promotion -- the same 0.5% hotness math (vm::HotnessProfile)
  /// the section-6 profiler uses to pick candidate loops.
  double HotnessThreshold = 0.005;
  /// Compile on the first invocation, skipping warmup and the hotness
  /// check (benchmarks and tests of the JIT tier itself).
  bool ForceJit = false;
};

/// Per-runner tier counters (cache-level counters live in
/// CodeCache::stats()).
struct JitTierStats {
  uint64_t InterpretedInvocations = 0;
  uint64_t JitInvocations = 0;
  uint64_t Deopts = 0;
};

/// Runs one function's invocations at the best tier. Single-client, like
/// the SpiceLoop handle it wraps: one invocation at a time, driven by one
/// thread. The function, memory, runtime and cache must outlive the
/// runner; call CodeCache::invalidate(&F) and rebuild the runner if the
/// function's IR is mutated.
class JitLoopRunner {
  /// The kept-alive interpreter context of one in-flight invocation:
  /// entry slice ran, exit slice pending.
  struct EntrySlice {
    vm::PlainEnv Env;
    vm::ThreadContext TC;
    EntrySlice(const ir::Function &F, vm::Memory &Mem,
               std::vector<int64_t> Args)
        : Env(Mem), TC(F, Mem, Env, std::move(Args)) {}
  };

public:
  JitLoopRunner(core::SpiceRuntime &RT, ir::Function &F, vm::Memory &Mem,
                CodeCache &Cache, core::LoopOptions Opts = {},
                JitTierOptions Tier = {});

  JitLoopRunner(const JitLoopRunner &) = delete;
  JitLoopRunner &operator=(const JitLoopRunner &) = delete;

  /// One invocation: full function semantics (entry slice, loop, exit
  /// slice), parallel when promoted, interpreted otherwise.
  int64_t invoke(const std::vector<int64_t> &Args);

  /// An admitted-but-unresolved invocation (see SpiceLoop::submit).
  /// Resolve with get() before the runner is destroyed.
  class Pending {
  public:
    /// Drives the invocation to completion and returns the function's
    /// return value.
    int64_t get();

  private:
    friend class JitLoopRunner;
    JitLoopRunner *Runner = nullptr;
    std::unique_ptr<EntrySlice> Slice;
    JitLiveIn Start;
    std::optional<core::SpiceFuture<JitLoopTraits::State>> Fut;
    int64_t Immediate = 0;
    bool HasImmediate = false;
  };

  /// Asynchronous spelling of invoke(): the entry slice runs now, the
  /// loop is admitted to the runtime scheduler, and the exit slice runs
  /// on the thread that calls Pending::get(). Falls back to a
  /// synchronously interpreted result below the JIT tier.
  Pending submit(const std::vector<int64_t> &Args);

  /// One invocation running the compiled unit single-threaded with no
  /// Spice machinery (the native sequential baseline). Interpreted when
  /// the loop is not promotable.
  int64_t invokeSequential(const std::vector<int64_t> &Args);

  /// One invocation on the interpreter tier (also accumulates the
  /// hotness profile, like cold invoke() calls).
  int64_t runInterpreted(const std::vector<int64_t> &Args);

  /// False once matching or compilation has refused the loop for good.
  bool supported() const { return CL != nullptr && !Refused; }
  /// True once promoted (a compiled unit is installed).
  bool jitted() const { return Unit != nullptr; }
  const std::string &whyNot() const { return WhyNot; }

  const vm::HotnessProfile &profile() const { return Profile; }
  JitTierStats tierStats() const {
    return {InterpretedInvocations, JitInvocations,
            Deopts.load(std::memory_order_relaxed)};
  }
  /// Spice counters of the promoted loop (zeros before promotion).
  core::SpiceStats loopStats() const {
    return Loop ? Loop->lastStats() : core::SpiceStats{};
  }
  const CompiledUnit *unit() const { return Unit.get(); }
  const transform::CanonicalLoop *canonicalLoop() const { return CL.get(); }

private:
  /// Promotes to the JIT tier if policy allows; false => interpret.
  bool ensureJitted();
  /// Runs the entry slice, rebuilds the frame template and start
  /// live-ins from it, and returns the kept-alive context.
  std::unique_ptr<EntrySlice> beginInvocation(const std::vector<int64_t> &Args,
                                              JitLiveIn &StartLI);
  /// Folds the true start values into \p Merged and runs the exit slice.
  int64_t finishInvocation(EntrySlice &S, JitLoopTraits::State Merged);

  core::SpiceRuntime &RT;
  ir::Function &F;
  vm::Memory &Mem;
  CodeCache &Cache;
  core::LoopOptions Opts;
  JitTierOptions Tier;

  std::unique_ptr<transform::CanonicalLoop> CL;
  std::shared_ptr<const CompiledUnit> Unit;
  JitLoopTraits Traits;
  std::optional<core::SpiceLoop<JitLoopTraits>> Loop;

  vm::HotnessProfile Profile;
  std::atomic<uint64_t> Deopts{0};
  uint64_t InterpretedInvocations = 0;
  uint64_t JitInvocations = 0;
  bool Refused = false;
  std::string WhyNot;
};

} // namespace jit
} // namespace spice

#endif // SPICE_JIT_JITLOOP_H
