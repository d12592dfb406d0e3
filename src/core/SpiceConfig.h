//===- core/SpiceConfig.h - Runtime config and statistics -------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tunables of the native Spice runtime, split by scope:
///
///  * RuntimeConfig -- process-wide settings of a SpiceRuntime (thread
///    count, worker placement hooks). One runtime serves many loops.
///  * LoopOptions -- per-loop policy (chunk granularity via ChunkPolicy,
///    conflict detection, work metric, runaway guard, priority and
///    deadline), passed to SpiceRuntime::makeLoop.
///
/// Plus the statistics block every experiment reads (mis-speculation
/// rates, squashes, load balance).
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPICECONFIG_H
#define SPICE_CORE_SPICECONFIG_H

#include "topology/Placement.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace spice {
namespace core {

/// Cross-loop lane policy: how the runtime's Scheduler splits freed
/// worker lanes among queued invocations when concurrent submissions
/// contend for the shared pool (see core/Scheduler.h).
enum class LanePolicy {
  /// Admission order: the oldest queued invocation takes every free lane
  /// it asked for; later ones wait. The pre-scheduler behavior.
  FirstCome,
  /// Free lanes are split proportionally to the queued invocations'
  /// requests, at least one lane each, so a wide invocation can no
  /// longer monopolize the pool while others starve.
  FairShare,
  /// Strict LoopOptions::Priority order (higher first), with queued time
  /// aging the effective priority -- one step per millisecond queued
  /// (Scheduler::kAgingStepMicros) -- so low-priority work cannot starve.
  Priority,
};

/// What the admission Scheduler does with a submission that would push
/// the queue past its cap (RuntimeConfig::MaxQueuedInvocations). Serving
/// deployments pick the shedding policy that matches their clients; see
/// docs/serving.md.
enum class OverloadPolicy {
  /// submit() blocks the calling thread until the queue has room (grants
  /// or drops make room). The no-shedding default: overload turns into
  /// client-side backpressure instead of errors.
  Block,
  /// submit() fails immediately: the returned future resolves to an
  /// OverloadError and SchedulerStats::RejectedSubmissions counts the
  /// shed request. The classic load-shedding front door.
  Reject,
  /// Like Reject when a cap is hit, but additionally every queued
  /// request carrying a deadline (LoopOptions::SubmitDeadlineMicros) is
  /// dropped -- future resolves to OverloadError,
  /// SchedulerStats::DroppedDeadline counts it -- once it has waited past
  /// its deadline. Deadlines are checked at grant passes (a submission
  /// and every lane release), not by a timer thread.
  DeadlineDrop,
};

/// Process-wide settings of a SpiceRuntime: sizing and placement of the
/// single shared WorkerPool that executes every registered loop, plus
/// the cross-loop scheduling policy.
struct RuntimeConfig {
  /// Total threads including the non-speculative main (client) thread;
  /// the shared pool spawns NumThreads - 1 workers.
  unsigned NumThreads = 4;

  /// Placement hook, run once on each worker thread before it parks
  /// (worker index in [0, NumThreads-1)). The intended use is NUMA / core
  /// pinning: bind the worker to a node here and the lane leases hand the
  /// pinned workers to invocations. Null = no placement.
  std::function<void(unsigned)> WorkerStartHook;

  /// How freed lanes are handed to queued invocations (see LanePolicy).
  LanePolicy Policy = LanePolicy::FirstCome;

  /// Runtime-wide cap on queued (admitted but not yet granted)
  /// invocations across every loop, counted in invocations -- a batch
  /// submission counts its full size while it waits. 0 = unbounded (the
  /// pre-backpressure behavior). What happens at the cap is Overload.
  uint64_t MaxQueuedInvocations = 0;

  /// Overload behavior when a submission would exceed
  /// MaxQueuedInvocations (see OverloadPolicy).
  OverloadPolicy Overload = OverloadPolicy::Block;

  /// Hardware-topology placement (docs/topology.md). Off (the default)
  /// keeps the runtime bit-for-bit topology-blind. Auto discovers the
  /// machine (or honors SPICE_TOPOLOGY); Override injects a fake
  /// topology for tests. When the resolved topology has more than one
  /// node, workers are pinned to home nodes (real topologies only, in
  /// front of WorkerStartHook), lane grants pack onto one node, steals
  /// prefer same-core then same-node victims, and warm
  /// session/SpecWriteBuffer freelists shard per node.
  topology::PlacementConfig Topology;
};

/// Chunk-granularity policy of one loop (LoopOptions::Chunking): either
/// a pinned chunks-per-thread -- the default -- or online control by a
/// per-loop ChunkController that moves k inside [MinK, MaxK] from the
/// loop's own counters (see core/ChunkController.h; docs/tuning.md is
/// the operator guide). Static(1) is bit-for-bit the paper protocol.
/// Every other policy also gets the controller's sequential rung:
/// Static(k >= 2) pins the granularity, not whether to speculate (see
/// LoopOptions::AlwaysSpeculate).
struct ChunkPolicy {
  enum class Kind : uint8_t { Static, Adaptive };
  Kind Mode = Kind::Static;

  /// Inclusive chunks-per-thread bounds. Static policies pin
  /// MinK == MaxK; the default 0 defers to the flat
  /// LoopOptions::ChunksPerThread knob, so code that only sets that
  /// field keeps its exact behavior.
  unsigned MinK = 0;
  unsigned MaxK = 0;

  /// Pinned k: every invocation runs K chunks per thread.
  static ChunkPolicy Static(unsigned K) {
    ChunkPolicy P;
    P.Mode = Kind::Static;
    P.MinK = P.MaxK = K;
    return P;
  }

  /// Online control within [MinK, MaxK] (inclusive). The controller
  /// scores epochs of ChunkControllerConfig::EpochInvocations (6)
  /// parallel invocations.
  static ChunkPolicy Adaptive(unsigned MinK, unsigned MaxK) {
    ChunkPolicy P;
    P.Mode = Kind::Adaptive;
    P.MinK = MinK;
    P.MaxK = MaxK;
    return P;
  }
};

/// Per-loop policy: everything a single SpiceLoop decides for itself,
/// independent of the runtime that executes it.
struct LoopOptions {
  /// Speculative chunks per thread. 1 reproduces the paper exactly: t
  /// chunks on t threads, serial recovery. Larger values oversubscribe
  /// the invocation with ChunksPerThread * NumThreads chunks scheduled
  /// onto per-worker deques with work stealing, and mis-speculation
  /// recovery re-enqueues the squashed work as stealable chunks instead
  /// of replaying it on the single faulting thread. Loop registration
  /// rejects 0 with a fatal diagnostic. Ignored when Chunking is
  /// adaptive (the controller picks k inside its bounds).
  unsigned ChunksPerThread = 1;

  /// Chunk-granularity policy. The default Static policy with
  /// unset bounds follows ChunksPerThread exactly; switch to
  /// ChunkPolicy::Adaptive(MinK, MaxK) to let the loop tune its own k
  /// (introspect via SpiceLoop::tuning()).
  ChunkPolicy Chunking;

  /// Keeps speculation on where it keeps losing: opts the loop out of
  /// the chunk controller's sequential rung, which otherwise runs a loop
  /// sequentially while its epochs throw away or redo more work than
  /// they commit (docs/tuning.md). For ablations that measure
  /// granularity or memoization, and tests that pin a recovery path. No
  /// effect at Static(1), which never uses the rung.
  bool AlwaysSpeculate = false;

  /// Paper's adaptive scheme: memoize fresh live-ins on *every* invocation.
  /// When false, the first invocation's memoized values are reused forever
  /// (the paper's "trivial strategy", used as an ablation baseline).
  bool RememoizeEveryInvocation = true;

  /// Use the Traits-provided per-iteration weight as the work metric
  /// instead of iteration counts (the paper's "better metric" remark in
  /// section 5; ablated in bench/ablation_workmetric).
  bool UseWeightedWork = false;

  /// Commit-time value validation of speculative reads (software analogue
  /// of the conflict-detection hardware of section 3). Required for loops
  /// whose bodies write shared memory (e.g. mcf's refresh_potential).
  bool EnableConflictDetection = false;

  /// Runaway guard: a speculative chunk aborts itself after this many
  /// iterations (a mis-predicted pointer can enter a stale cycle).
  uint64_t MaxSpecIterations = 1ull << 32;

  /// Scheduling priority of this loop's submissions under
  /// LanePolicy::Priority (higher wins; ignored by the other policies).
  int Priority = 0;

  /// Admission deadline of this loop's submissions: under
  /// OverloadPolicy::DeadlineDrop, a submission still ungranted after
  /// this many microseconds in the queue is dropped (its future resolves
  /// to an OverloadError; SchedulerStats::DroppedDeadline counts it).
  /// 0 = no deadline. Ignored by the Block and Reject policies.
  uint64_t SubmitDeadlineMicros = 0;

  /// True when this loop adapts its chunk granularity at runtime.
  bool adaptiveChunking() const {
    return Chunking.Mode == ChunkPolicy::Kind::Adaptive;
  }

  /// Smallest chunks-per-thread this loop can run (static policies pin
  /// min == max == the configured k).
  unsigned minChunksPerThread() const {
    if (adaptiveChunking())
      return Chunking.MinK;
    return Chunking.MinK ? Chunking.MinK : ChunksPerThread;
  }

  /// Largest chunks-per-thread this loop can run -- what every
  /// invocation-sized structure is allocated for.
  unsigned maxChunksPerThread() const {
    if (adaptiveChunking())
      return Chunking.MaxK;
    return Chunking.MaxK ? Chunking.MaxK : ChunksPerThread;
  }

  /// Chunks of one invocation on a runtime with \p NumThreads threads;
  /// for adaptive loops, the upper bound the structures are sized for.
  /// A single-threaded runtime never speculates, so oversubscription is
  /// meaningless there. Loop registration rejects ChunksPerThread == 0
  /// and malformed adaptive bounds with a fatal diagnostic, so no
  /// silent fallback is applied here.
  unsigned numChunks(unsigned NumThreads) const {
    return NumThreads <= 1 ? 1 : NumThreads * maxChunksPerThread();
  }
};

/// Counters accumulated across invocations of one SpiceLoop.
///
/// Historical field names (SquashedThreads, LaunchedSpecThreads) predate
/// the chunk/thread decoupling; they now count *chunks*. With
/// ChunksPerThread == 1 a chunk is a thread and the values are identical
/// to the paper protocol's.
struct SpiceStats {
  uint64_t Invocations = 0;
  /// Invocations executed entirely sequentially: no valid prediction
  /// for the first speculative chunk (first invocation, or SVA row 0
  /// invalidated by a squash), or held by the sequential rung
  /// (RungHeldInvocations). A *partial* valid prefix still runs
  /// parallel, just with fewer speculative chunks.
  uint64_t SequentialInvocations = 0;
  /// The subset of SequentialInvocations that ran sequentially because
  /// the chunk controller's sequential rung held the loop (its
  /// speculation kept losing; see docs/tuning.md). Always 0 at
  /// Static(1) and with LoopOptions::AlwaysSpeculate.
  uint64_t RungHeldInvocations = 0;
  /// Invocations in which at least one speculative chunk was squashed.
  uint64_t MisspeculatedInvocations = 0;
  /// Invocations where every launched chunk validated.
  uint64_t FullySpeculativeInvocations = 0;
  uint64_t TotalIterations = 0;
  uint64_t SquashedThreads = 0;
  uint64_t LaunchedSpecThreads = 0;
  /// Squashes caused by read-validation (conflict) failures.
  uint64_t ConflictSquashes = 0;
  /// Iterations re-executed after a validated chunk failed (serially on
  /// the main thread, or concurrently as recovery chunks).
  uint64_t RecoveryIterations = 0;
  /// Iterations whose results were discarded: chunks squashed for
  /// mis-speculation, plus the discarded first executions of
  /// failed-but-validated chunks that were re-enqueued as recovery
  /// chunks.
  uint64_t WastedIterations = 0;
  /// Chunk executions that happened off the chunk's home lane -- stolen
  /// by an idle worker or drained by the resolving main thread
  /// (MainHelpedChunks is that subset). Only possible with
  /// ChunksPerThread > 1.
  uint64_t StolenChunks = 0;
  /// Pending chunks the resolving main thread executed itself while
  /// waiting for the speculation chain (oversubscribed mode only).
  uint64_t MainHelpedChunks = 0;
  /// Failed-but-validated chunks re-enqueued as stealable recovery work.
  uint64_t RecoveryChunks = 0;
  /// Recovery chunks whose re-execution ran off the home lane (stolen by
  /// an idle worker or drained by the resolving main thread).
  uint64_t StolenRecoveryChunks = 0;
  /// Worker-to-worker steals whose thief and victim lanes live on the
  /// same placement node -- with topology off (or a single node), every
  /// worker steal counts here. Main-thread helping (MainHelpedChunks)
  /// is not a steal and is counted by neither locality counter;
  /// LocalSteals + RemoteSteals == StolenChunks - MainHelpedChunks.
  /// See the StealLocality section of docs/stats.md.
  uint64_t LocalSteals = 0;
  /// Worker-to-worker steals that crossed placement nodes -- the
  /// cross-node traffic NUMA-aware placement exists to shrink. Always 0
  /// with topology off or a single node.
  uint64_t RemoteSteals = 0;
  /// Time this loop's submissions spent in the runtime's admission queue
  /// before the Scheduler granted them lanes. An uncontended submission
  /// is granted inside submit() and contributes exactly 0; only deferred
  /// grants (lanes freed later by another invocation) accumulate time.
  uint64_t QueuedMicros = 0;
  /// Worker lanes granted across this loop's parallel invocations. With
  /// a sole client this is min(pool size, launched chunks) every time;
  /// under contention the scheduler's policy caps it (FairShare splits,
  /// Priority preempts admission order). GrantedLanes / (Invocations -
  /// SequentialInvocations) is the mean partition this loop ran on.
  uint64_t GrantedLanes = 0;
  /// Per-invocation imbalance numerator at execution-context granularity:
  /// the observed per-chunk work is list-scheduled onto the invocation's
  /// execution contexts (deterministically modelling the work-stealing
  /// scheduler) and the makespan is taken relative to the ideal equal
  /// split; see loadImbalance(). With ChunksPerThread == 1 this is
  /// exactly the paper's max-chunk / ideal-chunk ratio.
  double ImbalanceSum = 0.0;
  uint64_t ImbalanceSamples = 0;
  /// Same numerator at raw chunk granularity (largest chunk relative to
  /// the ideal chunk), before any scheduling smooths it; the gap between
  /// the two is the balance recovered by oversubscription + stealing.
  double ChunkImbalanceSum = 0.0;
  uint64_t ChunkImbalanceSamples = 0;

  /// Mean ratio makespan / ideal-per-context-work across parallel
  /// invocations (1.0 = perfectly balanced).
  double loadImbalance() const {
    return ImbalanceSamples ? ImbalanceSum / ImbalanceSamples : 0.0;
  }

  /// Mean ratio max-chunk / ideal-chunk across parallel invocations.
  double chunkImbalance() const {
    return ChunkImbalanceSamples ? ChunkImbalanceSum / ChunkImbalanceSamples
                                 : 0.0;
  }

  /// Fraction of invocations with at least one squash.
  double misspeculationRate() const {
    return Invocations
               ? static_cast<double>(MisspeculatedInvocations) / Invocations
               : 0.0;
  }
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPICECONFIG_H
