//===- core/ChunkController.cpp - Adaptive chunk-granularity control ------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ChunkController.h"

#include <algorithm>
#include <cmath>

namespace spice {
namespace core {

namespace {

// The k climb.

/// Relative score change treated as noise: a probe move is kept only on
/// an improvement beyond this band. Epoch means of squash-heavy loops
/// wander several percent, so the band is wide enough that a probe must
/// show a real gain to keep the new k.
constexpr double kDeadband = 0.08;
/// Once steady, an epoch score DETERIORATION beyond this fraction of the
/// tracked steady score re-opens probing (workload shift). Wander within
/// the band -- and any improvement -- is absorbed into the tracked score
/// instead: a k that got better needs no probe.
constexpr double kDrift = 0.30;
/// Recovery fraction above which the re-probe direction is "coarser"
/// (counter-dense loops re-execute more at finer granularity).
constexpr double kRecoveryHigh = 0.05;
/// Wasted (squashed-chunk) fraction above which the re-probe direction
/// is likewise "coarser": churn-heavy list loops lose whole chunks to
/// rare squashes, and finer chunks only add boundaries to lose at.
constexpr double kWasteHigh = 0.05;

// The sequential rung.

/// An epoch loses when its wasted plus re-executed iterations exceed
/// this fraction of the iterations it committed...
constexpr double kRungLoss = 0.5;
/// ...and at least this fraction of its invocations mis-speculated, so
/// one bad invocation in an otherwise clean epoch (an input shift) does
/// not stop speculation.
constexpr double kRungMisspec = 0.5;
/// Shortest hold, in held invocations. Two, so the second held
/// invocation memoizes every row through a plan cut for sequential
/// execution and the probe starts from fresh predictions.
constexpr unsigned kFirstHold = 2;
/// Cap of the hold, which doubles after each losing probe: a loop whose
/// speculation never recovers still probes about once per this many
/// invocations.
constexpr unsigned kMaxHold = 64;

} // namespace

ChunkController::ChunkController(const ChunkControllerConfig &Config)
    : Cfg(Config) {
  // Defensive normalization; SpiceLoop registration rejects bad bounds
  // with a fatal diagnostic before a controller is ever built.
  Cfg.MinK = std::max(1u, Cfg.MinK);
  Cfg.MaxK = std::max(Cfg.MinK, Cfg.MaxK);
  Cfg.EpochInvocations = std::max(1u, Cfg.EpochInvocations);
  K = Cfg.MinK;
  Hold = kFirstHold;
  // A pinned k has no ladder to climb.
  if (Cfg.MinK == Cfg.MaxK)
    M = Mode::Steady;
}

double ChunkController::score(const InvocationSample &S) {
  const uint64_t Executed = S.Iterations + S.WastedIterations;
  if (Executed == 0)
    return 0.0;
  const uint64_t Useful =
      S.Iterations > S.RecoveryIterations ? S.Iterations - S.RecoveryIterations
                                          : 0;
  const double Eff =
      static_cast<double>(Useful) / static_cast<double>(Executed);
  // An imbalanced invocation finishes when its slowest lane does; scale
  // useful-work fraction down by how far the makespan sat above ideal.
  const double Penalty = std::max(1.0, S.LoadImbalance);
  return Eff / Penalty;
}

bool ChunkController::step(int StepDir) {
  if (StepDir > 0) {
    if (K >= Cfg.MaxK)
      return false;
    K = std::min(K * 2, Cfg.MaxK);
    ++Grows;
  } else {
    if (K <= Cfg.MinK)
      return false;
    K = std::max(K / 2, Cfg.MinK);
    ++Shrinks;
  }
  // The move recuts the plan; give the new rung time to settle before
  // the next scored epoch (see ChunkControllerConfig::SettleEpochs).
  SettleLeft = Cfg.SettleEpochs;
  return true;
}

unsigned ChunkController::onInvocation(const InvocationSample &S) {
  if (S.Sequential) {
    // A held invocation counts down the hold, and the last one arms a
    // probe epoch. Any other sequential invocation carries no signal.
    if (Holding && --HoldLeft == 0) {
      Holding = false;
      InProbe = true;
      ++Probes;
    }
    return K;
  }
  ScoreAcc += score(S);
  IterAcc += S.Iterations;
  RecoveryAcc += S.RecoveryIterations;
  WasteAcc += S.WastedIterations;
  MisspecAcc += S.Misspeculated ? 1 : 0;
  if (++Fill < Cfg.EpochInvocations)
    return K;

  const double EpochScore = ScoreAcc / static_cast<double>(Fill);
  const double RecFrac =
      IterAcc ? static_cast<double>(RecoveryAcc) / static_cast<double>(IterAcc)
              : 0.0;
  const double WasteFrac =
      IterAcc ? static_cast<double>(WasteAcc) / static_cast<double>(IterAcc)
              : 0.0;
  // The rung's verdict: speculation lost when the work it threw away or
  // redid outweighs kRungLoss of the work it committed, in at least
  // kRungMisspec of the epoch's invocations.
  const bool Losing = static_cast<double>(RecoveryAcc + WasteAcc) >
                          kRungLoss * static_cast<double>(IterAcc) &&
                      static_cast<double>(MisspecAcc) >=
                          kRungMisspec * static_cast<double>(Fill);
  Fill = 0;
  ScoreAcc = 0.0;
  IterAcc = RecoveryAcc = WasteAcc = 0;
  MisspecAcc = 0;
  LastEpochScore = EpochScore;
  if (decideRung(Losing)) {
    ++Decisions;
    return K;
  }
  if (SettleLeft > 0) {
    // Transitional epoch right after a k move: the plan is still
    // recutting around the new granularity. Observe it (LastEpochScore
    // above) but do not let it drive a decision.
    --SettleLeft;
    return K;
  }
  decide(EpochScore, RecFrac, WasteFrac);
  return K;
}

bool ChunkController::decideRung(bool Losing) {
  if (!Cfg.SequentialRung)
    return false;
  const bool WasProbe = InProbe;
  InProbe = false;
  if (!Losing) {
    // A probe that does not lose takes the loop off the rung. Every
    // epoch that does not lose halves the hold, so a loop whose probes
    // win now and then keeps its backoff, while one that keeps winning
    // soon re-enters at the first hold.
    Hold = std::max(kFirstHold, Hold / 2);
    return WasProbe;
  }
  if (WasProbe) {
    ++LosingProbes;
    Hold = std::min(2 * Hold, kMaxHold);
  }
  Holding = true;
  HoldLeft = Hold;
  return true;
}

void ChunkController::decide(double EpochScore, double EpochRecoveryFraction,
                             double EpochWasteFraction) {
  ++Decisions;
  if (Cfg.MinK == Cfg.MaxK) {
    // A pinned k has nothing to climb: track the score and hold.
    SteadyScore = EpochScore;
    return;
  }

  if (M == Mode::Steady) {
    // Hysteresis hold: only a real DETERIORATION reopens probing -- an
    // improvement is no evidence against the current k. The reference
    // score tracks in-band wander and all upside (epoch means are noisy
    // -- squash-heavy and clean invocations alternate) so that drift
    // accumulating over many epochs does not masquerade as a shift.
    if (EpochScore >= SteadyScore * (1.0 - kDrift)) {
      SteadyScore = 0.5 * (SteadyScore + EpochScore);
      return;
    }
    // Re-probe direction comes from the counters: heavy recovery or
    // wasted work means chunk boundaries are hurting (go coarser);
    // otherwise the remaining suspect is load imbalance (go finer).
    // When that direction is unavailable (already at the bound), hold
    // instead of probing the opposite -- known-wrong -- way.
    Dir = EpochRecoveryFraction > kRecoveryHigh ||
                  EpochWasteFraction > kWasteHigh
              ? -1
              : 1;
    if (!step(Dir)) {
      SteadyScore = EpochScore;
      return;
    }
    ++Reprobes;
    M = Mode::Probing;
    PrevScore = EpochScore;
    HavePrev = true;
    return;
  }

  // Probing.
  if (!HavePrev) {
    // Baseline epoch: record it and take the first ladder step.
    PrevScore = EpochScore;
    HavePrev = true;
    if (!step(Dir)) {
      Dir = -Dir;
      if (!step(Dir)) {
        M = Mode::Steady;
        SteadyScore = EpochScore;
      }
    }
    return;
  }

  if (EpochScore > PrevScore * (1.0 + kDeadband)) {
    // Better: keep climbing; settle if the ladder ends here.
    PrevScore = EpochScore;
    if (!step(Dir)) {
      M = Mode::Steady;
      SteadyScore = EpochScore;
    }
    return;
  }
  // Worse, or flat within the deadband: the step did not earn its keep.
  // Revert to the rung we came from and hold there -- settling on the
  // far side of a flat comparison would let per-epoch noise walk k away
  // from a good setting one "flat" step at a time.
  step(-Dir);
  M = Mode::Steady;
  SteadyScore = PrevScore;
  HavePrev = false;
}

ChunkController::Snapshot ChunkController::snapshot() const {
  Snapshot S;
  S.K = K;
  S.M = M;
  S.Direction = Dir;
  S.EpochFill = Fill;
  S.LastEpochScore = LastEpochScore;
  S.SteadyScore = SteadyScore;
  S.Decisions = Decisions;
  S.Grows = Grows;
  S.Shrinks = Shrinks;
  S.Reprobes = Reprobes;
  S.Holding = Holding;
  S.Hold = Cfg.SequentialRung ? Hold : 0;
  S.Probes = Probes;
  S.LosingProbes = LosingProbes;
  return S;
}

} // namespace core
} // namespace spice
