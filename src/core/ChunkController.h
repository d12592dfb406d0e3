//===- core/ChunkController.h - Adaptive chunk-granularity control *- C++ -*-=//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online controller behind LoopOptions::ChunkPolicy::Adaptive -- and
/// behind every loop not pinned at k = 1, for its sequential rung: it
/// replaces the static ChunksPerThread knob with a per-loop feedback
/// loop over the counters the runtime already tracks. No single static k
/// wins across workloads -- counter-dense loops (the packet pipeline)
/// conflict at nearly every chunk boundary, so finer chunks *grow* the
/// re-executed recovery work, while skewed or churning loops want finer
/// chunks so the work-stealing scheduler can smooth the imbalance the
/// one-invocation-stale plan leaves behind (both measured in
/// bench/ablation_loadbalance.cpp).
///
/// The controller is a deterministic epoch-based hill climb over the
/// chunks-per-thread ladder (k doubles or halves, clamped to
/// [MinK, MaxK]; a MinK == MaxK controller never moves k and starts
/// steady):
///
///  * every completed parallel invocation contributes one
///    InvocationSample; after EpochInvocations samples the controller
///    scores the epoch (useful-work fraction divided by the observed
///    load-imbalance penalty -- see score());
///  * every k move recuts the memoization plan, so the first epoch on a
///    new rung runs with transitional boundaries; the controller
///    discards SettleEpochs epochs after each move and only scores the
///    settled behavior (probe comparisons are settled-vs-settled);
///  * while *probing*, it compares the epoch score against the previous
///    epoch's: an improvement beyond the deadband keeps moving in the
///    same direction; a regression -- or a flat result -- steps back and
///    settles on the rung it came from (a move must earn its keep, so
///    noise never walks k away from a good setting);
///  * once *steady*, it holds k (hysteresis) until the epoch score
///    DETERIORATES by more than the drift band below the score it
///    settled on -- a workload shift -- and then resumes probing, picking
///    the first direction from the counters themselves: a high recovery
///    or wasted fraction means chunk boundaries are hurting (go coarser;
///    when already at MinK, hold instead of probing the known-bad way),
///    otherwise the remaining suspect is load imbalance (go finer).
///    Improvements are absorbed into the tracked score, never probed:
///    if the current k got better, there is no evidence against it;
///  * below MinK sits the *sequential rung*. An epoch whose speculation
///    loses -- wasted plus re-executed iterations above half the
///    committed ones, in at least half of its invocations -- puts the
///    loop on the rung: holding() turns true and SpiceLoop runs the next
///    invocations sequentially (no scheduler trip, no lanes), memoizing
///    through the plan so predictions stay fresh. After the hold, one
///    probe epoch speculates again at the current k: a probe that loses
///    doubles the hold (up to a cap) and holds again, a probe that does
///    not lose takes the loop off the rung. Every epoch that does not
///    lose halves the hold, and the next entry starts from it: a loop
///    whose probes only sometimes win keeps its backoff. The rung
///    epochs -- the one that enters and every probe -- decide only the
///    rung; the k climb resumes with the next epoch.
///    ChunkControllerConfig::SequentialRung = false
///    (LoopOptions::AlwaysSpeculate) turns the rung off.
///
/// The thresholds, bands and hold lengths are named constants in
/// ChunkController.cpp. The rung ignores fixed per-invocation cost on
/// purpose: it asks whether speculation does useful work, not whether a
/// parallel round trip beats a sequential one on a tiny input.
///
/// The controller consumes plain numbers and owns no clock, so its k
/// trajectory is a pure function of the sample trace: tests replay a
/// recorded trace and assert the exact decisions
/// (tests/chunk_controller_test.cpp). SpiceLoop feeds it per-invocation
/// stat deltas and re-plans memoization for the chosen chunk count; the
/// current state is exposed through SpiceLoop::tuning() as a LoopTuning
/// snapshot. docs/tuning.md is the operator guide.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_CHUNKCONTROLLER_H
#define SPICE_CORE_CHUNKCONTROLLER_H

#include <cstdint>

namespace spice {
namespace core {

/// Settings of one loop's chunk controller, taken from its ChunkPolicy
/// and LoopOptions (see core/SpiceConfig.h). The bands, thresholds and
/// hold lengths the decisions use are constants (ChunkController.cpp).
struct ChunkControllerConfig {
  /// Inclusive chunks-per-thread range the controller moves within.
  unsigned MinK = 1;
  unsigned MaxK = 8;
  /// Parallel invocations scored per decision -- also the length of a
  /// sequential-rung probe. Sequential invocations carry no
  /// chunk-granularity signal and do not count. SpiceLoop always runs
  /// the default; tests drive other lengths.
  unsigned EpochInvocations = 6;
  /// Epochs discarded (not scored) after every k move. Changing the
  /// granularity recuts the memoization plan, and the first invocations
  /// on the new rung run with transitional boundaries (grown rows fill
  /// in one invocation later; squash recovery invalidates rows); scoring
  /// that churn would systematically undervalue every probe. One settle
  /// epoch makes probe comparisons settled-vs-settled.
  unsigned SettleEpochs = 1;
  /// Whether a losing epoch may put the loop on the sequential rung;
  /// false is LoopOptions::AlwaysSpeculate.
  bool SequentialRung = true;
};

/// One completed invocation's counter deltas, as SpiceLoop tracks them
/// (see SpiceStats for the cumulative definitions).
struct InvocationSample {
  /// Iterations committed by this invocation (TotalIterations delta).
  uint64_t Iterations = 0;
  /// Re-executed iterations among them (RecoveryIterations delta).
  uint64_t RecoveryIterations = 0;
  /// Discarded iterations of squashed chunks (WastedIterations delta).
  uint64_t WastedIterations = 0;
  /// Execution-context makespan / ideal for this invocation, or <= 0
  /// when unavailable (squashed invocations are not sampled).
  double LoadImbalance = 0.0;
  /// At least one speculative chunk was squashed
  /// (MisspeculatedInvocations delta).
  bool Misspeculated = false;
  /// True for a sequential invocation: no usable granularity signal.
  bool Sequential = false;
};

/// Deterministic hill-climbing controller for one loop's effective
/// chunks-per-thread. Not thread-safe by itself: SpiceLoop drives it
/// from the (single) thread resolving the loop's invocations.
class ChunkController {
public:
  explicit ChunkController(const ChunkControllerConfig &Config);

  /// Chunks per thread the next invocation should plan for.
  unsigned currentK() const { return K; }

  /// True while the loop sits on the sequential rung: the next
  /// invocation must run sequentially and be reported as a Sequential
  /// sample, which counts down the hold.
  bool holding() const { return Holding; }

  /// Consumes one completed invocation and returns the k for the next
  /// one (changes only at epoch boundaries).
  unsigned onInvocation(const InvocationSample &S);

  /// Epoch objective of one sample: the fraction of executed iterations
  /// that were useful (committed once, not re-executed, not discarded)
  /// divided by the load-imbalance penalty. Higher is better; exposed so
  /// tests and benches score exactly like the controller.
  static double score(const InvocationSample &S);

  /// Where the controller is in its decision cycle.
  enum class Mode : uint8_t {
    Probing, ///< Comparing epoch scores, moving along the ladder.
    Steady,  ///< Settled; holding k until the score drifts.
  };

  /// Introspection state, surfaced through SpiceLoop::tuning().
  struct Snapshot {
    unsigned K = 1;            ///< Current chunks per thread.
    Mode M = Mode::Probing;    ///< Decision-cycle phase.
    int Direction = 1;         ///< +1 probing finer ladder steps, -1 coarser.
    unsigned EpochFill = 0;    ///< Samples accumulated toward the next epoch.
    double LastEpochScore = 0; ///< Score of the last completed epoch.
    double SteadyScore = 0;    ///< Reference score the Steady hold tracks.
    uint64_t Decisions = 0;    ///< Completed epochs.
    uint64_t Grows = 0;        ///< Moves to a finer k.
    uint64_t Shrinks = 0;      ///< Moves to a coarser k.
    uint64_t Reprobes = 0;     ///< Steady holds broken by score drift.
    bool Holding = false;      ///< On the sequential rung.
    unsigned Hold = 0;         ///< Current or next hold (invocations).
    uint64_t Probes = 0;       ///< Probe epochs started off the rung.
    uint64_t LosingProbes = 0; ///< Probes that lost and doubled the hold.
  };
  Snapshot snapshot() const;

private:
  /// Moves K one ladder step in \p Dir (double/halve, clamped). Returns
  /// false when already at the boundary (K unchanged).
  bool step(int Dir);

  /// Consumes one epoch's mean score and decides the next move.
  void decide(double EpochScore, double EpochRecoveryFraction,
              double EpochWasteFraction);

  /// The sequential rung's part of an epoch decision, given whether the
  /// epoch's speculation lost. Returns true when the epoch belonged to
  /// the rung (it entered the rung, or was a probe), in which case the k
  /// climb does not score it.
  bool decideRung(bool Losing);

  ChunkControllerConfig Cfg;
  unsigned K;
  int Dir = 1;
  unsigned SettleLeft = 0; ///< Epochs left to discard after a k move.
  Mode M = Mode::Probing;
  bool HavePrev = false; ///< A previous epoch score exists to compare to.
  double PrevScore = 0.0;
  double SteadyScore = 0.0;
  double LastEpochScore = 0.0;

  // Epoch accumulators.
  unsigned Fill = 0;
  double ScoreAcc = 0.0;
  uint64_t IterAcc = 0;
  uint64_t RecoveryAcc = 0;
  uint64_t WasteAcc = 0;
  unsigned MisspecAcc = 0;

  // Sequential rung.
  bool Holding = false;  ///< Invocations run sequentially (holding()).
  bool InProbe = false;  ///< The epoch being filled is a probe.
  unsigned Hold = 0;     ///< Current hold, or the next entry's.
  unsigned HoldLeft = 0; ///< Held invocations left before the probe.

  // Decision counters (Snapshot).
  uint64_t Decisions = 0;
  uint64_t Grows = 0;
  uint64_t Shrinks = 0;
  uint64_t Reprobes = 0;
  uint64_t Probes = 0;
  uint64_t LosingProbes = 0;
};

/// One loop's tuning snapshot (SpiceLoop::tuning()): the effective
/// chunking the next invocation will use plus the controller state that
/// chose it. For ChunkPolicy::Static loops the snapshot restates the
/// pinned k (and, at k >= 2, carries the sequential rung's state).
struct LoopTuning {
  /// True for ChunkPolicy::Adaptive, false for Static.
  bool Adaptive = false;
  /// Effective chunks per thread the next invocation plans for.
  unsigned ChunksPerThread = 1;
  /// Chunks the next invocation's memoization plan targets
  /// (ChunksPerThread * runtime threads; what Planner cuts).
  unsigned PlannedChunks = 1;
  /// Controller bounds (MinK == MaxK == ChunksPerThread when static).
  unsigned MinK = 1;
  unsigned MaxK = 1;
  /// Mean worker-lane share of this loop's parallel invocations,
  /// relative to the runtime's worker count: GrantedLanes /
  /// (parallel invocations * pool workers). 0 when nothing ran parallel.
  double LaneShare = 0.0;
  /// Controller state; a defaulted steady snapshot for loops without a
  /// controller (Static(1), or a single-threaded runtime).
  ChunkController::Snapshot Controller;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_CHUNKCONTROLLER_H
