//===- tests/chunk_controller_test.cpp - Adaptive chunking tests ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The ChunkController owns no clock and consumes plain counter deltas, so
// its k trajectory and its sequential-rung decisions are a pure function
// of the sample trace. These tests replay hand-built traces and assert
// the exact decisions, then exercise the controller end-to-end inside
// SpiceLoop: registration validation, tuning()/lastStats()
// introspection, two loops adapting concurrently on one runtime, and a
// loop whose speculation always loses riding the sequential rung (these
// run under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/ChunkController.h"
#include "core/LoopBuilder.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

// A parallel invocation whose per-sample score is Score: Iterations and
// WastedIterations are split so (It - Rec) / (It + Wasted) == Score with
// no load-imbalance penalty. Recovery controls the re-probe direction
// heuristic (RecFrac = Recovery / Iterations per epoch).
InvocationSample sampleWithScore(double Score, uint64_t Recovery = 0) {
  InvocationSample S;
  S.Iterations = 100 + Recovery;
  S.RecoveryIterations = Recovery;
  S.WastedIterations =
      static_cast<uint64_t>((S.Iterations - Recovery) / Score) - S.Iterations;
  return S;
}

// A CLEAN low-score sample: all the deficit is load imbalance, no wasted
// or re-executed work. Distinguishes the re-probe direction heuristic's
// "boundaries hurt" signals from a plain balance problem.
InvocationSample sampleWithImbalance(double Score) {
  InvocationSample S;
  S.Iterations = 100;
  S.LoadImbalance = 1.0 / Score;
  return S;
}

// A parallel invocation whose speculation lost: it threw away 80% of
// the work it committed, and mis-speculated.
InvocationSample losingSample() {
  InvocationSample S;
  S.Iterations = 100;
  S.WastedIterations = 80;
  S.Misspeculated = true;
  return S;
}

// A parallel invocation whose every chunk validated.
InvocationSample cleanSample() {
  InvocationSample S;
  S.Iterations = 100;
  return S;
}

// An invocation that ran sequentially (while holding: a held one).
InvocationSample sequentialSample() {
  InvocationSample S;
  S.Sequential = true;
  return S;
}

ChunkControllerConfig testConfig() {
  ChunkControllerConfig C;
  C.MinK = 1;
  C.MaxK = 8;
  C.EpochInvocations = 2; // Short epochs keep the replay trace readable.
  C.SettleEpochs = 0;     // Score every epoch; the settle-discard rule
                          // has its own dedicated test below.
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Pure controller: score, ladder, replay determinism
//===----------------------------------------------------------------------===//

TEST(ChunkControllerScore, UsefulWorkFractionOverImbalance) {
  InvocationSample S;
  S.Iterations = 100;
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 1.0);

  S.WastedIterations = 100; // Half the executed work was discarded.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.5);

  S.RecoveryIterations = 50; // Half the committed work ran twice.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.25);

  S.LoadImbalance = 2.0; // Makespan twice the ideal halves the score.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.125);

  S.LoadImbalance = 0.5; // Below-1 imbalance (unavailable) is no penalty.
  EXPECT_DOUBLE_EQ(ChunkController::score(S), 0.25);

  InvocationSample Empty;
  EXPECT_DOUBLE_EQ(ChunkController::score(Empty), 0.0);
}

TEST(ChunkController, ReplayedTraceProducesExactKTrajectory) {
  // Epochs of two samples each. Per-epoch mean scores and the decision
  // the controller must make at each boundary:
  //   E1 0.50 baseline            -> first ladder step, k 1 -> 2
  //   E2 0.70 better (>8% band)   -> keep climbing,     k 2 -> 4
  //   E3 0.60 worse               -> step back, settle, k 4 -> 2 (steady)
  //   E4 0.72 within 30% drift    -> hold,              k = 2
  //   E5 0.30 drifted, recovery-heavy -> re-probe coarser, k 2 -> 1
  //   E6 0.50 better at MinK      -> ladder ends, settle steady at k = 1
  const std::vector<InvocationSample> Trace = {
      sampleWithScore(0.50), sampleWithScore(0.50), // E1
      sampleWithScore(0.70), sampleWithScore(0.70), // E2
      sampleWithScore(0.60), sampleWithScore(0.60), // E3
      sampleWithScore(0.72), sampleWithScore(0.72), // E4
      sampleWithScore(0.30, /*Recovery=*/40),       // E5: RecFrac ~ 0.29
      sampleWithScore(0.30, /*Recovery=*/40),
      sampleWithScore(0.50), sampleWithScore(0.50), // E6
  };
  const std::vector<unsigned> WantK = {1, 2, 2, 4, 4, 2, 2, 2, 2, 1, 1, 1};

  ChunkController C(testConfig());
  ASSERT_EQ(C.currentK(), 1u);
  std::vector<unsigned> GotK;
  for (const InvocationSample &S : Trace)
    GotK.push_back(C.onInvocation(S));
  EXPECT_EQ(GotK, WantK);

  const ChunkController::Snapshot Snap = C.snapshot();
  EXPECT_EQ(Snap.K, 1u);
  EXPECT_EQ(Snap.M, ChunkController::Mode::Steady);
  EXPECT_EQ(Snap.Decisions, 6u);
  EXPECT_EQ(Snap.Grows, 2u);
  EXPECT_EQ(Snap.Shrinks, 2u);
  EXPECT_EQ(Snap.Reprobes, 1u);
  EXPECT_DOUBLE_EQ(Snap.SteadyScore, 0.5);

  // Determinism: a second controller fed the identical trace takes the
  // identical trajectory.
  ChunkController C2(testConfig());
  std::vector<unsigned> GotK2;
  for (const InvocationSample &S : Trace)
    GotK2.push_back(C2.onInvocation(S));
  EXPECT_EQ(GotK2, GotK);
  EXPECT_EQ(C2.snapshot().Decisions, Snap.Decisions);
  EXPECT_EQ(C2.snapshot().Grows, Snap.Grows);
  EXPECT_EQ(C2.snapshot().Shrinks, Snap.Shrinks);
}

TEST(ChunkController, SequentialInvocationsCarryNoSignal) {
  ChunkController C(testConfig());
  InvocationSample Seq;
  Seq.Sequential = true;
  for (int I = 0; I != 10; ++I)
    EXPECT_EQ(C.onInvocation(Seq), 1u);
  // No epoch completed: still at the baseline, zero decisions.
  EXPECT_EQ(C.snapshot().EpochFill, 0u);
  EXPECT_EQ(C.snapshot().Decisions, 0u);

  // One parallel sample fills half an epoch; a sequential one in between
  // does not advance it.
  (void)C.onInvocation(sampleWithScore(0.5));
  (void)C.onInvocation(Seq);
  EXPECT_EQ(C.snapshot().EpochFill, 1u);
}

TEST(ChunkController, DegenerateRangeSettlesImmediately) {
  ChunkControllerConfig Cfg = testConfig();
  Cfg.MinK = Cfg.MaxK = 4;
  ChunkController C(Cfg);
  EXPECT_EQ(C.currentK(), 4u);
  (void)C.onInvocation(sampleWithScore(0.5));
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.5)), 4u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Grows, 0u);
  EXPECT_EQ(C.snapshot().Shrinks, 0u);
}

TEST(ChunkController, FlatProbeRevertsTheStep) {
  // A probe step that lands within the deadband is noise, not a win: the
  // controller must return to the rung it came from (settling in place
  // would let flat comparisons walk k away from a good setting).
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  ASSERT_EQ(C.currentK(), 2u);
  unsigned K = 2;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.51)); // E2 flat (+2%) -> revert
  EXPECT_EQ(K, 1u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_DOUBLE_EQ(C.snapshot().SteadyScore, 0.50)
      << "holds the baseline rung's score, not the flat probe's";
}

TEST(ChunkController, ImprovementNeverReopensProbing) {
  // Settle at k = 1, then improve far beyond the drift band: a k that
  // got BETTER is no evidence against itself, so the controller must
  // absorb the upside into the tracked score and hold.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.40)); // E2 worse -> settle k 1
  ASSERT_EQ(C.currentK(), 1u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 1;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.95)); // Nearly doubled score.
  EXPECT_EQ(K, 1u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Reprobes, 0u);
  EXPECT_GT(C.snapshot().SteadyScore, 0.50) << "upside tracked, not probed";
}

TEST(ChunkController, ReprobeTowardFinerOnCleanDeterioration) {
  // Settle at k = 2, then deteriorate with CLEAN samples (the deficit is
  // pure load imbalance): boundaries are not hurting, so the re-probe
  // direction must be finer.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.50)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.70)); // E2 better -> k 4
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.40)); // E3 worse -> settle k 2
  ASSERT_EQ(C.currentK(), 2u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 2;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithImbalance(0.30)); // Clean deterioration.
  EXPECT_EQ(K, 4u) << "clean deterioration probes finer chunks";
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Probing);
  EXPECT_EQ(C.snapshot().Reprobes, 1u);
}

TEST(ChunkController, WasteHeavyDeteriorationHoldsAtMinK) {
  // Settle at MinK, then deteriorate with waste-heavy epochs (rare whole
  // -chunk squashes, the churning-list signature): the wanted direction
  // is coarser, which is unavailable at MinK -- the controller must hold
  // rather than probe the known-bad finer direction.
  ChunkController C(testConfig());
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.90)); // E1 baseline -> k 2
  for (int I = 0; I != 2; ++I)
    (void)C.onInvocation(sampleWithScore(0.70)); // E2 worse -> settle k 1
  ASSERT_EQ(C.currentK(), 1u);
  ASSERT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  unsigned K = 1;
  for (int I = 0; I != 2; ++I)
    K = C.onInvocation(sampleWithScore(0.30)); // WasteFrac >> WasteHigh.
  EXPECT_EQ(K, 1u) << "coarser is unavailable at MinK: hold";
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.snapshot().Reprobes, 0u);
}

TEST(ChunkController, SettleEpochDiscardedAfterEachMove) {
  // Every k move recuts the plan, so the first epoch on the new rung is
  // transitional: with SettleEpochs = 1 (the default) it must be
  // observed but never drive a decision.
  ChunkControllerConfig Cfg = testConfig();
  Cfg.EpochInvocations = 1;
  Cfg.SettleEpochs = 1;
  ChunkController C(Cfg);

  EXPECT_EQ(C.onInvocation(sampleWithScore(0.50)), 2u); // E1 baseline -> k 2
  EXPECT_EQ(C.snapshot().Decisions, 1u);

  // E2 is the settle epoch: a terrible score right after the move is
  // transition churn, not evidence against k = 2.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 2u);
  EXPECT_EQ(C.snapshot().Decisions, 1u) << "settle epoch is not scored";
  EXPECT_DOUBLE_EQ(C.snapshot().LastEpochScore, 0.10) << "but is observed";

  // E3 is the scored epoch: settled k = 2 beats the baseline, so the
  // climb continues -- and earns its own settle epoch.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.70)), 4u);
  EXPECT_EQ(C.snapshot().Decisions, 2u);
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 4u); // E4: settling
  EXPECT_EQ(C.snapshot().Decisions, 2u);

  // E5 scored: worse than 0.70, so revert to k 2 -- the revert is a move
  // too, and E6 settles it before Steady epochs are scored again.
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.40)), 2u);
  EXPECT_EQ(C.snapshot().M, ChunkController::Mode::Steady);
  EXPECT_EQ(C.onInvocation(sampleWithScore(0.10)), 2u); // E6: settling
  EXPECT_EQ(C.snapshot().Decisions, 3u) << "settle epoch after revert";
  EXPECT_EQ(C.currentK(), 2u) << "0.10 would have broken the Steady hold "
                                 "had the settle epoch been scored";
}

//===----------------------------------------------------------------------===//
// The sequential rung
//===----------------------------------------------------------------------===//

TEST(SequentialRung, ReplayedTraceEntersHoldsProbesAndLeaves) {
  // Epochs of two samples on a pinned k = 2 (a Static(2) loop). The
  // holding() flag and the hold after each sample, and why:
  //   E1 losing                 -> enter the rung, hold 2
  //   2 held invocations        -> the hold runs out: probe 1 armed
  //   E2 losing probe           -> hold doubles to 4
  //   4 held invocations        -> probe 2 armed
  //   E3 losing probe           -> hold doubles to 8
  //   8 held invocations        -> probe 3 armed
  //   E4 winning probe          -> leave the rung; the hold halves to 4
  //   E5 losing                 -> enter again, with the remembered 4
  ChunkControllerConfig Cfg = testConfig();
  Cfg.MinK = Cfg.MaxK = 2;
  const InvocationSample L = losingSample();
  const InvocationSample C = cleanSample();
  const InvocationSample S = sequentialSample();
  const std::vector<InvocationSample> Trace = {
      L, L,                   // E1
      S, S,                   // hold 2
      L, L,                   // E2: probe 1 loses
      S, S, S, S,             // hold 4
      L, L,                   // E3: probe 2 loses
      S, S, S, S, S, S, S, S, // hold 8
      C, C,                   // E4: probe 3 wins
      L, L,                   // E5
  };
  const std::vector<bool> WantHolding = {
      false, true,                                     // E1
      true, false,                                     // hold 2
      false, true,                                     // E2
      true, true, true, false,                         // hold 4
      false, true,                                     // E3
      true, true, true, true, true, true, true, false, // hold 8
      false, false,                                    // E4
      false, true,                                     // E5
  };
  const std::vector<unsigned> WantHold = {
      2, 2,                   // E1
      2, 2,                   // hold 2
      2, 4,                   // E2
      4, 4, 4, 4,             // hold 4
      4, 8,                   // E3
      8, 8, 8, 8, 8, 8, 8, 8, // hold 8
      8, 4,                   // E4
      4, 4,                   // E5
  };

  auto Replay = [&](ChunkController &Ctl) {
    std::vector<bool> Holding;
    std::vector<unsigned> Hold;
    for (const InvocationSample &X : Trace) {
      EXPECT_EQ(Ctl.onInvocation(X), 2u) << "the rung never moves k";
      Holding.push_back(Ctl.holding());
      Hold.push_back(Ctl.snapshot().Hold);
    }
    EXPECT_EQ(Holding, WantHolding);
    EXPECT_EQ(Hold, WantHold);
  };
  ChunkController Ctl(Cfg);
  Replay(Ctl);
  const ChunkController::Snapshot Snap = Ctl.snapshot();
  EXPECT_TRUE(Snap.Holding);
  EXPECT_EQ(Snap.Probes, 3u);
  EXPECT_EQ(Snap.LosingProbes, 2u);
  EXPECT_EQ(Snap.Decisions, 5u) << "every epoch was a rung epoch";
  EXPECT_EQ(Snap.Grows + Snap.Shrinks, 0u);

  // Determinism: a second controller fed the same trace decides the same.
  ChunkController Again(Cfg);
  Replay(Again);
  EXPECT_EQ(Again.snapshot().Probes, Snap.Probes);
  EXPECT_EQ(Again.snapshot().LosingProbes, Snap.LosingProbes);
}

TEST(SequentialRung, HoldStopsGrowingAtItsCapAndDecays) {
  ChunkControllerConfig Cfg = testConfig();
  Cfg.MinK = Cfg.MaxK = 2;
  ChunkController Ctl(Cfg);
  for (int I = 0; I != 2; ++I)
    (void)Ctl.onInvocation(losingSample()); // Enter.
  std::vector<unsigned> Holds;
  for (int Probe = 0; Probe != 8; ++Probe) {
    Holds.push_back(Ctl.snapshot().Hold);
    unsigned Held = 0;
    while (Ctl.holding()) {
      (void)Ctl.onInvocation(sequentialSample());
      ++Held;
    }
    EXPECT_EQ(Held, Holds.back()) << "a hold lasts Hold invocations";
    for (int I = 0; I != 2; ++I)
      (void)Ctl.onInvocation(losingSample()); // A losing probe.
  }
  const std::vector<unsigned> Want = {2, 4, 8, 16, 32, 64, 64, 64};
  EXPECT_EQ(Holds, Want);
  EXPECT_EQ(Ctl.snapshot().Hold, 64u);
  EXPECT_EQ(Ctl.snapshot().LosingProbes, 8u);

  // A winning probe, then clean epochs: each halves the hold, down to
  // the first hold, where the next entry starts.
  while (Ctl.holding())
    (void)Ctl.onInvocation(sequentialSample());
  std::vector<unsigned> Decay;
  for (int Epoch = 0; Epoch != 7; ++Epoch) {
    for (int I = 0; I != 2; ++I)
      (void)Ctl.onInvocation(cleanSample());
    EXPECT_FALSE(Ctl.holding());
    Decay.push_back(Ctl.snapshot().Hold);
  }
  const std::vector<unsigned> WantDecay = {32, 16, 8, 4, 2, 2, 2};
  EXPECT_EQ(Decay, WantDecay);
}

TEST(SequentialRung, OneBadInvocationDoesNotTripTheRung) {
  // A single invocation that lost far more than the epoch committed is
  // an input shift, not speculation losing: a quarter of the epoch
  // mis-speculated, below the rung's half.
  ChunkControllerConfig Cfg = testConfig();
  Cfg.EpochInvocations = 4;
  ChunkController Ctl(Cfg);
  InvocationSample Bad = losingSample();
  Bad.WastedIterations = 10000;
  (void)Ctl.onInvocation(Bad);
  for (int I = 0; I != 3; ++I)
    (void)Ctl.onInvocation(cleanSample());
  EXPECT_FALSE(Ctl.holding());
  EXPECT_EQ(Ctl.snapshot().Decisions, 1u);
}

TEST(SequentialRung, DisabledRungNeverHolds) {
  // ChunkControllerConfig::SequentialRung = false is what
  // LoopOptions::AlwaysSpeculate sets.
  ChunkControllerConfig Cfg = testConfig();
  Cfg.SequentialRung = false;
  ChunkController Ctl(Cfg);
  for (int I = 0; I != 20; ++I) {
    (void)Ctl.onInvocation(losingSample());
    EXPECT_FALSE(Ctl.holding()) << "sample " << I;
  }
  EXPECT_EQ(Ctl.snapshot().Hold, 0u);
  EXPECT_EQ(Ctl.snapshot().Probes, 0u);
}

TEST(SequentialRung, PinnedRangeNeverMovesK) {
  // MinK == MaxK is a Static(k) loop's controller: whatever the epochs
  // say -- better, worse, boundary-heavy, imbalanced, or losing outright
  // -- k stays put and the k climb never probes.
  ChunkControllerConfig Cfg = testConfig();
  Cfg.MinK = Cfg.MaxK = 4;
  ChunkController Ctl(Cfg);
  EXPECT_EQ(Ctl.snapshot().M, ChunkController::Mode::Steady);
  const std::vector<InvocationSample> Trace = {
      sampleWithScore(0.5), sampleWithScore(0.5),         // baseline
      sampleWithScore(0.95), sampleWithScore(0.95),       // better
      sampleWithScore(0.2, 40), sampleWithScore(0.2, 40), // recovery-heavy
      sampleWithImbalance(0.2), sampleWithImbalance(0.2), // imbalanced
      losingSample(), losingSample(),                     // enter the rung
      sequentialSample(), sequentialSample(),             // hold 2
      cleanSample(), cleanSample(),                       // winning probe
  };
  for (const InvocationSample &X : Trace)
    EXPECT_EQ(Ctl.onInvocation(X), 4u);
  const ChunkController::Snapshot Snap = Ctl.snapshot();
  EXPECT_EQ(Snap.K, 4u);
  EXPECT_EQ(Snap.M, ChunkController::Mode::Steady);
  EXPECT_EQ(Snap.Grows, 0u);
  EXPECT_EQ(Snap.Shrinks, 0u);
  EXPECT_EQ(Snap.Reprobes, 0u);
  EXPECT_FALSE(Snap.Holding) << "the probe after the hold won";
}

//===----------------------------------------------------------------------===//
// Registration validation (fatal diagnostics)
//===----------------------------------------------------------------------===//

TEST(ChunkPolicyDeathTest, ZeroChunksPerThreadIsFatalAtRegistration) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.ChunksPerThread = 0;
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunksPerThread is 0 at loop registration");
}

TEST(ChunkPolicyDeathTest, AdaptiveBoundsMustBeOrderedAndNonZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/0, /*MaxK=*/8);
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunkPolicy::Adaptive bounds are invalid");
  EXPECT_DEATH(
      {
        SpiceRuntime RT(2);
        OtterTraits Traits;
        LoopOptions O;
        O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/4, /*MaxK=*/2);
        auto Loop = RT.makeLoop(Traits, O);
      },
      "ChunkPolicy::Adaptive bounds are invalid");
}

//===----------------------------------------------------------------------===//
// End-to-end: adaptive loops on a runtime
//===----------------------------------------------------------------------===//

TEST(AdaptiveChunking, TuningReportsControllerStateAndBounds) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(/*MinK=*/1, /*MaxK=*/8);
  auto Loop = RT.makeLoop(Traits, O);

  LoopTuning T = Loop.tuning();
  EXPECT_TRUE(T.Adaptive);
  EXPECT_EQ(T.MinK, 1u);
  EXPECT_EQ(T.MaxK, 8u);
  EXPECT_EQ(T.ChunksPerThread, 1u) << "controller starts at MinK";
  EXPECT_EQ(T.PlannedChunks, 4u);

  ClauseList List(600, 17);
  for (int I = 0; I != 40; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
    List.mutate(Got.MinClause, 2);
  }
  T = Loop.tuning();
  EXPECT_GE(T.ChunksPerThread, T.MinK);
  EXPECT_LE(T.ChunksPerThread, T.MaxK);
  EXPECT_EQ(T.PlannedChunks, T.ChunksPerThread * 4u);
  EXPECT_GT(T.Controller.Decisions, 0u) << "40 invocations complete epochs";
  EXPECT_GT(T.LaneShare, 0.0);
}

TEST(AdaptiveChunking, StaticLoopTuningRestatesPinnedK) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Static(2);
  auto Loop = RT.makeLoop(Traits, O);
  const LoopTuning T = Loop.tuning();
  EXPECT_FALSE(T.Adaptive);
  EXPECT_EQ(T.ChunksPerThread, 2u);
  EXPECT_EQ(T.MinK, 2u);
  EXPECT_EQ(T.MaxK, 2u);
  EXPECT_EQ(T.PlannedChunks, 8u);
  EXPECT_EQ(T.Controller.M, ChunkController::Mode::Steady);
  EXPECT_EQ(T.Controller.Decisions, 0u);
}

TEST(AdaptiveChunking, LastStatsIsAConsistentPostInvocationSnapshot) {
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(1, 4);
  auto Loop = RT.makeLoop(Traits, O);
  ClauseList List(400, 23);
  uint64_t PrevInvocations = 0;
  for (int I = 0; I != 12; ++I) {
    (void)Loop.invoke(List.head());
    const SpiceStats S = Loop.lastStats();
    // Each snapshot is internally consistent and strictly newer than the
    // previous one -- cumulative counters never run backwards.
    EXPECT_EQ(S.Invocations, PrevInvocations + 1);
    EXPECT_GE(S.Invocations,
              S.SequentialInvocations + S.MisspeculatedInvocations);
    EXPECT_GE(S.TotalIterations, S.RecoveryIterations);
    PrevInvocations = S.Invocations;
  }
}

TEST(AdaptiveChunking, CorrectUnderHeavyChurnWhileAdapting) {
  // Aggressive churn forces squashes and recovery while the controller
  // moves k: adaptation must never compromise the sequential semantics.
  SpiceRuntime RT(4);
  OtterTraits Traits;
  LoopOptions O;
  O.Chunking = ChunkPolicy::Adaptive(1, 8);
  auto Loop = RT.makeLoop(Traits, O);
  ClauseList List(300, 77);
  for (int I = 0; I != 60; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << I;
    List.mutate(Got.MinClause, 30);
  }
}

TEST(AdaptiveChunking, TwoLoopsAdaptIndependentlyAndConcurrently) {
  // One runtime, two adaptive loops driven from two threads: a stable
  // otter list (clean signal, free to grow k) and an mcf walk with stale
  // potentials (conflict-heavy, recovery pushes k the other way). Runs
  // under TSan in CI: controller state, throughput feedback, and the
  // shared scheduler must not race.
  SpiceRuntime RT(4);
  OtterTraits OT;
  LoopOptions OtterOpts;
  OtterOpts.Chunking = ChunkPolicy::Adaptive(1, 8);
  auto OtterLoop = RT.makeLoop(OT, OtterOpts);

  McfTraits MT;
  LoopOptions McfOpts;
  McfOpts.Chunking = ChunkPolicy::Adaptive(1, 8);
  McfOpts.EnableConflictDetection = true;
  auto McfLoop = RT.makeLoop(MT, McfOpts);

  std::thread OtterThread([&] {
    ClauseList List(600, 31);
    for (int I = 0; I != 40; ++I) {
      OtterTraits::State Got = OtterLoop.invoke(List.head());
      ASSERT_EQ(Got.MinClause, List.findLightestReference());
    }
  });
  std::thread McfThread([&] {
    BasisTree TreeSpice(800, 37);
    BasisTree TreeRef(800, 37);
    for (int I = 0; I != 15; ++I) {
      int64_t Want = TreeRef.refreshPotentialReference();
      McfTraits::State Got = McfLoop.invoke(TreeSpice.traversalStart());
      ASSERT_EQ(Got.Checksum, Want);
      TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
      TreeRef.mutate(40, 0, false);
    }
  });
  OtterThread.join();
  McfThread.join();

  const LoopTuning A = OtterLoop.tuning();
  const LoopTuning B = McfLoop.tuning();
  EXPECT_GT(A.Controller.Decisions, 0u);
  EXPECT_GT(B.Controller.Decisions, 0u);
  EXPECT_GE(A.ChunksPerThread, 1u);
  EXPECT_LE(A.ChunksPerThread, 8u);
  EXPECT_GE(B.ChunksPerThread, 1u);
  EXPECT_LE(B.ChunksPerThread, 8u);
}

//===----------------------------------------------------------------------===//
// End-to-end: a loop whose speculation always loses rides the rung
//===----------------------------------------------------------------------===//

namespace {

/// A LoopBuilder loop whose every iteration fetchAdds one shared counter,
/// with conflict detection on: each speculative chunk reads a counter
/// value that an earlier chunk then advances, so every speculative chunk
/// fails commit-time validation and is redone, and speculation throws
/// away about as much work as it commits. To make that hold on every
/// schedule, chunk 0 (iteration 0 on the client thread) first waits,
/// bounded, until the lanes have run their chunks and left.
struct SharedCounterLoop {
  static constexpr int64_t Trip = 2048;

  SharedCounterLoop(SpiceRuntime &RT, const LoopOptions &O)
      : RT(RT), Loop(build(O)) {}

  /// runSequentialReference's results for the next \p N invocations,
  /// with the counter left where it was.
  std::vector<uint64_t> wants(size_t N) {
    const int64_t Saved = Counter;
    std::vector<uint64_t> W;
    for (size_t I = 0; I != N; ++I)
      W.push_back(Loop.runSequentialReference(0));
    Counter = Saved;
    return W;
  }

  /// One oracle-checked invocation, then the stats identities.
  void invoke() {
    const uint64_t Want = wants(1)[0];
    EXPECT_EQ(Loop.invoke(0), Want);
    test::checkStatsInvariants(Loop.lastStats());
  }

  SpiceRuntime &RT;
  int64_t Counter = 0;
  LambdaLoop<int64_t, uint64_t> Loop;

private:
  LambdaLoop<int64_t, uint64_t> build(LoopOptions O) {
    O.EnableConflictDetection = true;
    return LoopBuilder<int64_t, uint64_t>()
        .step([this](int64_t &I, uint64_t &S, SpecSpace &Mem) {
          if (I >= Trip)
            return false;
          if (I == 0 && !Mem.isSpeculative()) {
            const auto Deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (RT.pool().busyWorkers() != 0 &&
                   std::chrono::steady_clock::now() < Deadline)
              std::this_thread::yield();
          }
          S += static_cast<uint64_t>(Mem.fetchAdd(&Counter, int64_t{1}));
          ++I;
          return true;
        })
        .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
        .options(O)
        .build(RT);
  }
};

LoopOptions withChunking(ChunkPolicy P) {
  LoopOptions O;
  O.Chunking = P;
  return O;
}

} // namespace

TEST(SequentialRung, LosingLoopReachesTheRungAndStaysCorrect) {
  // Static(2) pins the granularity, not whether to speculate; and
  // Adaptive(1, 1) is not the paper protocol, because it has the rung.
  for (bool Adaptive : {false, true}) {
    const ChunkPolicy P =
        Adaptive ? ChunkPolicy::Adaptive(1, 1) : ChunkPolicy::Static(2);
    SCOPED_TRACE(Adaptive ? "Adaptive(1, 1)" : "Static(2)");
    SpiceRuntime RT(/*NumThreads=*/4);
    SharedCounterLoop L(RT, withChunking(P));
    const unsigned Epoch = ChunkControllerConfig{}.EpochInvocations;
    std::optional<uint64_t> ParallelBeforeRung;
    for (int I = 0; I != 60; ++I) {
      L.invoke();
      const SpiceStats S = L.Loop.lastStats();
      if (!ParallelBeforeRung && S.RungHeldInvocations > 0)
        ParallelBeforeRung = S.Invocations - S.SequentialInvocations;
    }
    ASSERT_TRUE(ParallelBeforeRung.has_value()) << "never held";
    EXPECT_LE(*ParallelBeforeRung, 2u * Epoch)
        << "the rung within the first two epochs";

    const SpiceStats S = L.Loop.lastStats();
    EXPECT_GT(S.MisspeculatedInvocations, 0u);
    EXPECT_GT(S.RungHeldInvocations, 0u);
    const LoopTuning T = L.Loop.tuning();
    EXPECT_EQ(T.ChunksPerThread, P.MinK) << "the rung never moves k";
    EXPECT_GE(T.Controller.Probes, 2u);
    // Off the rung, the last probe is still running.
    EXPECT_EQ(T.Controller.LosingProbes + (T.Controller.Holding ? 0 : 1),
              T.Controller.Probes)
        << "every finished probe of an always-losing loop lost";
    EXPECT_GE(T.Controller.Hold, 8u) << "the hold doubled on each";
    test::checkStatsInvariants(RT.schedulerStats());
  }
}

TEST(SequentialRung, AlwaysSpeculateKeepsSpeculating) {
  SpiceRuntime RT(/*NumThreads=*/4);
  LoopOptions O = withChunking(ChunkPolicy::Static(2));
  O.AlwaysSpeculate = true;
  SharedCounterLoop L(RT, O);
  for (int I = 0; I != 30; ++I)
    L.invoke();
  const SpiceStats S = L.Loop.lastStats();
  EXPECT_EQ(S.RungHeldInvocations, 0u);
  EXPECT_EQ(S.SequentialInvocations, 1u) << "only the bootstrap";
  EXPECT_EQ(S.MisspeculatedInvocations, 29u)
      << "every parallel invocation lost, and the loop kept speculating";
  EXPECT_FALSE(L.Loop.tuning().Controller.Holding);
  EXPECT_EQ(L.Loop.tuning().Controller.Probes, 0u);
}

TEST(SequentialRung, PaperProtocolNeverEntersTheRung) {
  // Static(1), spelled explicitly and as the default ChunksPerThread = 1.
  const LoopOptions Explicit = withChunking(ChunkPolicy::Static(1));
  for (const LoopOptions &O : {Explicit, LoopOptions{}}) {
    SpiceRuntime RT(/*NumThreads=*/4);
    SharedCounterLoop L(RT, O);
    for (int I = 0; I != 30; ++I)
      L.invoke();
    const SpiceStats S = L.Loop.lastStats();
    EXPECT_EQ(S.RungHeldInvocations, 0u);
    EXPECT_GT(S.MisspeculatedInvocations, 0u);
    EXPECT_GT(S.RecoveryIterations, 0u) << "serial recovery, every time";
    const LoopTuning T = L.Loop.tuning();
    EXPECT_FALSE(T.Adaptive);
    EXPECT_FALSE(T.Controller.Holding);
    EXPECT_EQ(T.Controller.Decisions, 0u) << "Static(1) has no controller";
  }
}

TEST(SequentialRung, BatchElementsStartingWhileTheRungHoldsRunSequentially) {
  SpiceRuntime RT(/*NumThreads=*/4);
  SharedCounterLoop L(RT, withChunking(ChunkPolicy::Static(2)));
  const unsigned Epoch = ChunkControllerConfig{}.EpochInvocations;
  // The sequential bootstrap, then all but the last invocation of the
  // first (losing) epoch.
  for (unsigned I = 0; I != Epoch; ++I)
    L.invoke();
  ASSERT_EQ(L.Loop.lastStats().RungHeldInvocations, 0u);

  // Element 0 completes the epoch and puts the loop on the rung; the
  // first hold is two invocations, so elements 1 and 2 start while it
  // holds and element 3 is the probe, parallel on the batch's lease.
  const std::vector<int64_t> Starts(4, 0);
  const std::vector<uint64_t> Want = L.wants(Starts.size());
  const SpiceStats Before = L.Loop.lastStats();
  SpiceBatchFuture<uint64_t> F = L.Loop.submitBatch(Starts);
  F.wait();
  for (size_t I = 0; I != Starts.size(); ++I)
    EXPECT_EQ(F.get(I), Want[I]) << "element " << I;
  const SpiceStats S = L.Loop.lastStats();
  test::checkStatsInvariants(S);
  test::checkStatsInvariants(RT.schedulerStats());
  EXPECT_EQ(S.RungHeldInvocations - Before.RungHeldInvocations, 2u);
  EXPECT_EQ(S.SequentialInvocations - Before.SequentialInvocations, 2u);
  EXPECT_EQ(S.MisspeculatedInvocations - Before.MisspeculatedInvocations, 2u)
      << "elements 0 and 3 speculated";
  EXPECT_EQ(L.Loop.tuning().Controller.Probes, 1u);
}
