//===- core/SpiceRuntime.h - One shared pool, many loops --------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpiceRuntime is the process-wide home of the speculative runtime: it
/// owns the single WorkerPool, the lane Scheduler, and every cross-loop
/// policy knob (RuntimeConfig: thread count, worker placement hooks,
/// LanePolicy). Loops are lightweight handles registered on a runtime:
///
/// \code
///   spice::core::SpiceRuntime RT(/*NumThreads=*/8);
///   auto Select = RT.makeLoop(SelectTraits);  // default LoopOptions
///   spice::core::LoopOptions WithConflicts;
///   WithConflicts.EnableConflictDetection = true;
///   auto Refresh = RT.makeLoop(RefreshTraits, WithConflicts);
///   // Synchronous: lease lanes, run, return the merged state.
///   auto R = Select.invoke(Head);
///   // Asynchronous: admit both invocations, overlap their chunks.
///   auto FS = Select.submit(Head);
///   auto FR = Refresh.submit(Root);
///   auto S = FS.get();
///   auto P = FR.get();
/// \endcode
///
/// A program with N static Spice loops therefore runs on one thread pool
/// (the paper's pre-allocated threads), not N of them: idle lanes of one
/// loop serve another, and concurrent invocations -- blocking invoke()
/// or asynchronous submit() -- go through the runtime's admission
/// Scheduler, which splits freed lanes among queued invocations by
/// RuntimeConfig::Policy (first-come, fair-share, or aged priority; see
/// core/Scheduler.h). Per-loop policy lives in LoopOptions; see
/// core/SpiceLoop.h for the loop protocol and core/LoopBuilder.h for the
/// lambda front-end that spares workloads the Traits boilerplate.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPICERUNTIME_H
#define SPICE_CORE_SPICERUNTIME_H

#include "core/Scheduler.h"
#include "core/SpiceConfig.h"
#include "core/WorkerPool.h"
#include "support/ErrorHandling.h"

#include <atomic>
#include <cassert>
#include <utility>

namespace spice {
namespace core {

template <typename Traits> class SpiceLoop;

/// Owns the shared WorkerPool, the admission Scheduler, and all
/// cross-loop policy. Loops hold a reference to their runtime, so the
/// runtime must outlive every loop created on it.
class SpiceRuntime {
public:
  explicit SpiceRuntime(RuntimeConfig Config = {})
      : Config(std::move(Config)),
        Place(topology::makePlacement(
            this->Config.Topology,
            this->Config.NumThreads > 0 ? this->Config.NumThreads - 1 : 0)),
        Pool(this->Config.NumThreads > 0 ? this->Config.NumThreads - 1 : 0,
             topology::composedStartHook(Place, this->Config.WorkerStartHook),
             Place),
        Sched(Pool, this->Config) {
    assert(this->Config.NumThreads >= 1 && "need at least one thread");
  }

  /// Convenience: a runtime with \p NumThreads threads and default
  /// cross-loop policy.
  explicit SpiceRuntime(unsigned NumThreads)
      : SpiceRuntime(configWithThreads(NumThreads)) {}

  ~SpiceRuntime() {
    // Loud in every build type: both conditions leave dangling state
    // behind (a future driving a destroyed scheduler, a loop handle
    // holding a destroyed pool) that would otherwise surface as opaque
    // crashes far from the mistake.
    if (OutstandingSubmissions.load(std::memory_order_acquire) != 0)
      reportFatalError("destroying a SpiceRuntime while submitted "
                       "invocations are unresolved; get()/wait() every "
                       "SpiceFuture (or destroy it) before the runtime");
    if (RegisteredLoops.load(std::memory_order_relaxed) != 0)
      reportFatalError("destroying a SpiceRuntime while loops are still "
                       "registered on it (they would dangle)");
  }

  SpiceRuntime(const SpiceRuntime &) = delete;
  SpiceRuntime &operator=(const SpiceRuntime &) = delete;

  /// Total execution contexts, including each invocation's client thread.
  unsigned numThreads() const { return Config.NumThreads; }

  const RuntimeConfig &config() const { return Config; }

  /// The shared worker pool (NumThreads - 1 workers). Invocations lease
  /// lanes from it via the scheduler.
  WorkerPool &pool() { return Pool; }

  /// The admission scheduler and lease ledger: which worker is free, who
  /// holds it, and which queued invocation freed lanes go to
  /// (RuntimeConfig::Policy).
  Scheduler &scheduler() { return Sched; }

  /// The worker placement resolved from RuntimeConfig::Topology, or
  /// null when placement is off (or resolved to nothing). See
  /// docs/topology.md.
  const topology::Placement *placement() const { return Place.get(); }

  /// Snapshot of the runtime-wide admission counters.
  SchedulerStats schedulerStats() const { return Sched.stats(); }

  /// Creates a loop handle registered on this runtime. \p T must outlive
  /// the returned loop; the loop shares this runtime's worker pool with
  /// every other registered loop.
  template <typename Traits>
  SpiceLoop<Traits> makeLoop(Traits &T, const LoopOptions &Opts = {}) {
    return SpiceLoop<Traits>(T, *this, Opts);
  }

  /// Loops currently registered (constructed and not yet destroyed).
  unsigned numLoops() const {
    return RegisteredLoops.load(std::memory_order_relaxed);
  }

private:
  template <typename Traits> friend class SpiceLoop;

  static RuntimeConfig configWithThreads(unsigned NumThreads) {
    RuntimeConfig C;
    C.NumThreads = NumThreads;
    return C;
  }

  void registerLoop() {
    RegisteredLoops.fetch_add(1, std::memory_order_relaxed);
  }
  void unregisterLoop() {
    RegisteredLoops.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Outstanding-submission accounting behind the destructor diagnostic:
  /// every submit() notes itself, every resolution (get/wait/abandon)
  /// notes back.
  void noteSubmitted() {
    OutstandingSubmissions.fetch_add(1, std::memory_order_acq_rel);
  }
  void noteResolved() {
    OutstandingSubmissions.fetch_sub(1, std::memory_order_acq_rel);
  }

  RuntimeConfig Config;
  /// Declared before Pool: the pool's workers pin through it at start.
  std::shared_ptr<const topology::Placement> Place;
  WorkerPool Pool;
  Scheduler Sched;
  std::atomic<unsigned> RegisteredLoops{0};
  std::atomic<unsigned> OutstandingSubmissions{0};
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPICERUNTIME_H
