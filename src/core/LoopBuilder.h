//===- core/LoopBuilder.h - Lambda front-end for Spice loops ----*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// spice::LoopBuilder assembles a Spice loop from lambdas instead of a
/// hand-written Traits struct. The callables are type-erased behind
/// std::function (one indirect call per iteration -- negligible next to a
/// chunk of loop work); only the speculated live-in and the reduction
/// state remain template parameters:
///
/// \code
///   spice::core::SpiceRuntime RT;
///   auto Min =
///       spice::LoopBuilder<Node *, long>()
///           .init([] { return std::numeric_limits<long>::max(); })
///           .step([](Node *&N, long &Min, spice::core::SpecSpace &) {
///             if (!N)
///               return false;
///             Min = std::min(Min, N->Value);
///             N = N->Next;
///             return true;
///           })
///           .combine([](long &Into, long &&Chunk) {
///             Into = std::min(Into, Chunk);
///           })
///           .build(RT);
///   long Result = Min.invoke(Head);
/// \endcode
///
/// step() and combine() are mandatory; init() defaults to
/// value-initialization for default-constructible states; weight()
/// installs a per-iteration work weight and switches the loop to the
/// weighted work metric. build(Runtime) registers the loop on a shared
/// SpiceRuntime; the returned LambdaLoop owns the erased callables and
/// forwards invoke()/stats() to the underlying SpiceLoop handle.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_LOOPBUILDER_H
#define SPICE_CORE_LOOPBUILDER_H

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace spice {

namespace detail {

/// The Traits object a LoopBuilder assembles: SpiceLoop's compile-time
/// customization points, each dispatching to an erased callable.
template <typename LiveInT, typename StateT> struct LambdaTraits {
  using LiveIn = LiveInT;
  using State = StateT;

  std::function<State()> Init;
  std::function<bool(LiveIn &, State &, core::SpecSpace &)> Step;
  std::function<void(State &, State &&)> Combine;
  std::function<uint64_t(const LiveIn &)> Weight;

  State initialState() {
    if constexpr (std::is_default_constructible_v<State>) {
      return Init ? Init() : State{};
    } else {
      assert(Init && "non-default-constructible State requires .init()");
      return Init();
    }
  }

  bool step(LiveIn &LI, State &S, core::SpecSpace &Mem) {
    return Step(LI, S, Mem);
  }

  void combine(State &Into, State &&Chunk) {
    Combine(Into, std::move(Chunk));
  }

  uint64_t weight(const LiveIn &LI) { return Weight ? Weight(LI) : 1; }
};

} // namespace detail

/// A Spice loop assembled by LoopBuilder: owns the type-erased callables
/// (stable address for the underlying SpiceLoop) and the loop handle.
/// Movable; the runtime it was built on must outlive it.
template <typename LiveInT, typename StateT> class LambdaLoop {
public:
  using Traits = detail::LambdaTraits<LiveInT, StateT>;
  using LiveIn = LiveInT;
  using State = StateT;

  /// Executes one invocation starting from \p Start.
  State invoke(const LiveIn &Start) { return Loop->invoke(Start); }

  /// Admits one invocation to the runtime's scheduler and returns its
  /// completion future (see SpiceLoop::submit / core/SpiceFuture.h).
  core::SpiceFuture<State> submit(const LiveIn &Start) {
    return Loop->submit(Start);
  }

  /// Admits \p Starts as ONE scheduler request sharing one lane lease
  /// (see SpiceLoop::submitBatch / core/SpiceFuture.h).
  core::SpiceBatchFuture<State> submitBatch(std::span<const LiveIn> Starts) {
    return Loop->submitBatch(Starts);
  }

  /// Plain sequential execution with no Spice machinery (baseline oracle
  /// for tests and benchmarks). Does not touch predictor state.
  State runSequentialReference(LiveIn LI) {
    return Loop->runSequentialReference(std::move(LI));
  }

  const core::SpiceStats &stats() const { return Loop->stats(); }
  /// Consistent snapshot of the last completed invocation's stats (see
  /// SpiceLoop::lastStats and docs/stats.md).
  core::SpiceStats lastStats() const { return Loop->lastStats(); }
  /// Speculative-buffer pool snapshot (see SpiceLoop::bufferPoolStats
  /// and docs/stats.md).
  core::SpecBufferPoolStats bufferPoolStats() const {
    return Loop->bufferPoolStats();
  }
  /// Effective-chunking snapshot (see SpiceLoop::tuning and
  /// docs/tuning.md).
  core::LoopTuning tuning() const { return Loop->tuning(); }
  const core::LoopOptions &options() const { return Loop->options(); }
  core::SpiceRuntime &runtime() const { return Loop->runtime(); }
  const core::MemoizationPlan &currentPlan() const {
    return Loop->currentPlan();
  }
  unsigned validRows() const { return Loop->validRows(); }
  std::vector<LiveIn> predictions() const { return Loop->predictions(); }

private:
  template <typename, typename> friend class LoopBuilder;

  LambdaLoop(std::unique_ptr<Traits> T, core::SpiceRuntime &RT,
             const core::LoopOptions &Opts)
      : TraitsBox(std::move(T)),
        Loop(std::make_unique<core::SpiceLoop<Traits>>(*TraitsBox, RT,
                                                       Opts)) {}

  std::unique_ptr<Traits> TraitsBox;
  std::unique_ptr<core::SpiceLoop<Traits>> Loop;
};

/// Fluent builder for LambdaLoop; see the file banner for usage.
///
/// Misuse is diagnosed loudly in every build type (reportFatalError, not
/// assert): a builder assembled in one place is typically built far from
/// where the mistake was made, and a missing callable would otherwise
/// surface as an opaque bad_function_call mid-invocation.
template <typename LiveInT, typename StateT> class LoopBuilder {
public:
  using Traits = detail::LambdaTraits<LiveInT, StateT>;

  /// Identity / initial value of the per-chunk state. Optional when
  /// StateT is default-constructible (value-initialized then).
  LoopBuilder &init(std::function<StateT()> F) {
    checkSet("init", !T.Init, F != nullptr);
    T.Init = std::move(F);
    return *this;
  }

  /// One iteration: advance the live-in and fold into the state; return
  /// false when the loop exits (no iteration executed). Shared mutable
  /// memory must go through the SpecSpace. Mandatory.
  LoopBuilder &step(
      std::function<bool(LiveInT &, StateT &, core::SpecSpace &)> F) {
    checkSet("step", !T.Step, F != nullptr);
    T.Step = std::move(F);
    return *this;
  }

  /// Ordered (left-to-right) merge of a later chunk's state. Mandatory.
  LoopBuilder &combine(std::function<void(StateT &, StateT &&)> F) {
    checkSet("combine", !T.Combine, F != nullptr);
    T.Combine = std::move(F);
    return *this;
  }

  /// Per-iteration work weight for cost-based load balancing; installing
  /// one switches the loop to the weighted work metric (the paper's
  /// "better metric" remark in section 5). Called at the top of every
  /// iteration, *including* the final one whose step() returns false, so
  /// the callable must tolerate the loop's exit live-in (e.g. a null
  /// list cursor).
  LoopBuilder &weight(std::function<uint64_t(const LiveInT &)> F) {
    checkSet("weight", !T.Weight, F != nullptr);
    T.Weight = std::move(F);
    Opts.UseWeightedWork = true;
    return *this;
  }

  /// Per-loop policy (oversubscription, conflict detection, ...). The
  /// UseWeightedWork flag is OR-ed with weight()'s implication.
  LoopBuilder &options(core::LoopOptions O) {
    O.UseWeightedWork |= Opts.UseWeightedWork;
    Opts = std::move(O);
    return *this;
  }

  /// Registers the assembled loop on \p Runtime and returns the owning
  /// handle. The builder is consumed (its callables are moved out).
  LambdaLoop<LiveInT, StateT> build(core::SpiceRuntime &Runtime) {
    if (!T.Step)
      reportFatalError("LoopBuilder::build: .step(...) is mandatory and "
                       "was never set");
    if (!T.Combine)
      reportFatalError("LoopBuilder::build: .combine(...) is mandatory "
                       "and was never set");
    return LambdaLoop<LiveInT, StateT>(
        std::make_unique<Traits>(std::move(T)), Runtime, Opts);
  }

private:
  /// Shared setter diagnostics: each hook may be installed once, and
  /// only with a real callable.
  static void checkSet(const char *Hook, bool FirstTime, bool NonNull) {
    char Buf[128];
    if (!FirstTime) {
      std::snprintf(Buf, sizeof(Buf),
                    "LoopBuilder::%s set twice (each hook may be "
                    "installed once per builder)",
                    Hook);
      reportFatalError(Buf);
    }
    if (!NonNull) {
      std::snprintf(Buf, sizeof(Buf),
                    "LoopBuilder::%s passed a null callable", Hook);
      reportFatalError(Buf);
    }
  }

  Traits T;
  core::LoopOptions Opts;
};

} // namespace spice

#endif // SPICE_CORE_LOOPBUILDER_H
