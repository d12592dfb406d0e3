//===- tests/spice_loop_test.cpp - End-to-end runtime tests ---------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Correctness of the full speculative protocol: for every workload, every
// thread count, and many churn patterns, the Spice execution must produce
// exactly the sequential result on every invocation.
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Ks.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Sjeng.h"

#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// Otter (linked-list min, the paper's running example)
//===----------------------------------------------------------------------===//

struct OtterParam {
  unsigned Threads;
  size_t ListSize;
  unsigned Inserts;
  uint64_t Seed;
};

class OtterSpiceTest : public ::testing::TestWithParam<OtterParam> {};

TEST_P(OtterSpiceTest, MatchesSequentialAcrossInvocations) {
  const OtterParam P = GetParam();
  ClauseList List(P.ListSize, P.Seed);
  OtterTraits Traits;
  SpiceRuntime RT(P.Threads);
  auto Loop = RT.makeLoop(Traits);

  for (int Invocation = 0; Invocation != 30 && List.head(); ++Invocation) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << Invocation;
    ASSERT_EQ(Got.MinWeight, Expected->PickWeight);
    List.mutate(Got.MinClause, P.Inserts);
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_GE(S.Invocations, 8u);
  EXPECT_GE(S.SequentialInvocations, 1u) << "first invocation bootstraps";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OtterSpiceTest,
    ::testing::Values(OtterParam{2, 400, 2, 11}, OtterParam{3, 400, 2, 12},
                      OtterParam{4, 400, 2, 13}, OtterParam{4, 1000, 5, 14},
                      OtterParam{4, 50, 1, 15}, OtterParam{8, 2000, 3, 16},
                      OtterParam{2, 8, 1, 17}, OtterParam{4, 8, 0, 18},
                      OtterParam{6, 300, 10, 19}));

TEST(OtterSpice, HighChurnStillCorrect) {
  // Insert so aggressively that predictions frequently break.
  ClauseList List(200, 99);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 40; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
    List.mutate(Got.MinClause, 40); // 20% growth per invocation.
  }
}

TEST(OtterSpice, StableListBecomesFullySpeculative) {
  // No churn at all: after the bootstrap invocation, every invocation
  // should validate all threads.
  ClauseList List(600, 5);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_EQ(S.SequentialInvocations, 1u);
  EXPECT_EQ(S.MisspeculatedInvocations, 0u);
  EXPECT_EQ(S.FullySpeculativeInvocations, 9u);
}

TEST(OtterSpice, RemovedPredictionIsDetectedAndSquashed) {
  // Deterministically break row 0: remove exactly the predicted node.
  ClauseList List(300, 7);
  OtterTraits Traits;
  SpiceRuntime RT(2);
  auto Loop = RT.makeLoop(Traits);
  (void)Loop.invoke(List.head()); // Bootstrap.
  ASSERT_EQ(Loop.validRows(), 1u);

  // Find the predicted node by running one speculative invocation and then
  // removing ~the middle node; repeat until a mis-speculation shows up.
  uint64_t MissesBefore = Loop.stats().MisspeculatedInvocations;
  for (int I = 0; I != 20; ++I) {
    // Remove the middle node: with a 2-thread split this is close to the
    // memoized sample, so it breaks the prediction sooner or later.
    Clause *Mid = List.head();
    for (size_t S = 0; S != List.size() / 2; ++S)
      Mid = Mid->Next;
    List.remove(Mid);
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
  }
  EXPECT_GT(Loop.stats().MisspeculatedInvocations, MissesBefore)
      << "removing memoized nodes must eventually trigger a squash";
  EXPECT_GT(Loop.stats().SquashedThreads, 0u);
}

TEST(OtterSpice, SingleThreadConfigDegeneratesToSequential) {
  ClauseList List(100, 3);
  OtterTraits Traits;
  SpiceRuntime RT(1);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 5; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
    List.mutate(Got.MinClause, 1);
  }
  EXPECT_EQ(Loop.stats().SequentialInvocations, 5u);
  EXPECT_EQ(Loop.stats().LaunchedSpecThreads, 0u);
}

TEST(OtterSpice, MemoizeOnceAblationStillCorrect) {
  ClauseList List(400, 21);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.RememoizeEveryInvocation = false;
  auto Loop = RT.makeLoop(Traits, O);
  uint64_t Misses = 0;
  for (int I = 0; I != 50; ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected);
    List.mutate(Got.MinClause, 2);
  }
  Misses = Loop.stats().MisspeculatedInvocations;
  // The stale predictions decay: removing the minimum every invocation
  // eventually deletes a memoized node and, without re-memoization, every
  // later invocation squashes. Expect notable mis-speculation.
  EXPECT_GT(Misses, 0u);
}

//===----------------------------------------------------------------------===//
// mcf (tree walk with speculative stores + value validation)
//===----------------------------------------------------------------------===//

struct McfParam {
  unsigned Threads;
  size_t TreeSize;
  unsigned Arcs;
  unsigned Relocations;
  uint64_t Seed;
};

class McfSpiceTest : public ::testing::TestWithParam<McfParam> {};

TEST_P(McfSpiceTest, PotentialsAndChecksumMatchSequential) {
  const McfParam P = GetParam();
  BasisTree TreeSpice(P.TreeSize, P.Seed);
  BasisTree TreeRef(P.TreeSize, P.Seed); // Identical twin for the oracle.

  McfTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.EnableConflictDetection = true; // Loop writes shared memory.
  auto Loop = RT.makeLoop(Traits, O);

  for (int Invocation = 0; Invocation != 25; ++Invocation) {
    int64_t WantChecksum = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, WantChecksum) << "invocation " << Invocation;
    // Compare every potential computed by the parallel walk.
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    ASSERT_EQ(A, nullptr);
    ASSERT_EQ(B, nullptr);
    TreeSpice.mutate(P.Arcs, P.Relocations);
    TreeRef.mutate(P.Arcs, P.Relocations); // Same seed: same mutations.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, McfSpiceTest,
    ::testing::Values(McfParam{2, 500, 2, 0, 31}, McfParam{4, 500, 2, 0, 32},
                      McfParam{4, 2000, 4, 1, 33},
                      McfParam{4, 300, 0, 2, 34}, McfParam{3, 64, 1, 1, 35},
                      McfParam{8, 1000, 3, 1, 36}));

TEST(McfSpice, StalePotentialsForceConflictSquashes) {
  // PropagateNow=false leaves potentials stale, so chunk-boundary reads
  // fail value validation and the runtime must fall back to recovery --
  // while still producing correct results.
  BasisTree TreeSpice(800, 41);
  BasisTree TreeRef(800, 41);
  McfTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 15; ++I) {
    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want);
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    // Heavy arc churn with no incremental propagation.
    TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
    TreeRef.mutate(40, 0, false);
  }
  EXPECT_GT(Loop.stats().ConflictSquashes, 0u)
      << "stale potentials must trip value validation at least once";
  EXPECT_GT(Loop.stats().RecoveryIterations, 0u);
}

//===----------------------------------------------------------------------===//
// ks (shrinking candidate list, invariant live-ins)
//===----------------------------------------------------------------------===//

TEST(KsSpice, InnerLoopMatchesSequentialAcrossSwapSteps) {
  KsGraph G(128, 4, 51);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);

  // One KL pass: repeatedly pick the first unswapped A vertex, find its
  // best partner via the Spice loop, and swap.
  for (int Step = 0; Step != 40 && G.aListHead() && G.bListHead(); ++Step) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);

    // Oracle.
    int64_t BestGain = INT64_MIN;
    KsVertex *BestB = nullptr;
    for (KsVertex *B = G.bListHead(); B; B = B->Next) {
      int64_t Gain = Traits.FixedADValue + G.dValue(B->Id) -
                     2 * G.edgeWeight(A->Id, B->Id);
      if (Gain > BestGain) {
        BestGain = Gain;
        BestB = B;
      }
    }

    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_EQ(Got.BestB, BestB) << "swap step " << Step;
    ASSERT_EQ(Got.BestGain, BestGain);

    G.applySwap(A->Id, Got.BestB->Id);
  }
  EXPECT_GT(Loop.stats().Invocations, 10u);
}

TEST(KsSpice, AdaptsToShrinkingList) {
  // The candidate list shrinks by one every invocation; re-memoization
  // must keep the loop parallel (few sequential invocations).
  KsGraph G(256, 4, 52);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < 100) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_NE(Got.BestB, nullptr);
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  const SpiceStats &S = Loop.stats();
  // Bootstrap + the tail where the list is tiny may run sequentially, but
  // the bulk must be parallel.
  EXPECT_LT(S.SequentialInvocations, S.Invocations / 2);
}

//===----------------------------------------------------------------------===//
// sjeng (8 live-ins, branchy body, variable iteration cost)
//===----------------------------------------------------------------------===//

struct SjengParam {
  unsigned Threads;
  size_t Pieces;
  double MutateProb;
  unsigned MutateCount;
  bool WeightedWork;
  uint64_t Seed;
};

class SjengSpiceTest : public ::testing::TestWithParam<SjengParam> {};

TEST_P(SjengSpiceTest, ScoresMatchSequential) {
  const SjengParam P = GetParam();
  SjengBoard Board(P.Pieces, P.Seed);
  SjengTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.UseWeightedWork = P.WeightedWork;
  auto Loop = RT.makeLoop(Traits, O);

  for (int Invocation = 0; Invocation != 40; ++Invocation) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want) << "invocation " << Invocation;
    Board.mutate(P.MutateProb, P.MutateCount);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SjengSpiceTest,
    ::testing::Values(SjengParam{2, 300, 0.3, 1, false, 61},
                      SjengParam{4, 300, 0.3, 1, false, 62},
                      SjengParam{4, 300, 0.3, 1, true, 63},
                      SjengParam{4, 1000, 0.5, 3, false, 64},
                      SjengParam{4, 64, 1.0, 4, true, 65},
                      SjengParam{8, 500, 0.2, 2, true, 66}));

//===----------------------------------------------------------------------===//
// Oversubscription (ChunksPerThread > 1) and the work-stealing recovery
// path. These run under TSan in CI: forced mispredictions with more chunks
// than threads exercise concurrent recovery chunks, stealing, and the
// ordered commit of their buffers.
//===----------------------------------------------------------------------===//

struct OversubParam {
  unsigned Threads;
  unsigned ChunksPerThread;
  size_t ListSize;
  unsigned Inserts;
  uint64_t Seed;
};

class OversubscribedOtterTest
    : public ::testing::TestWithParam<OversubParam> {};

TEST_P(OversubscribedOtterTest, MatchesSequentialAcrossInvocations) {
  const OversubParam P = GetParam();
  ClauseList List(P.ListSize, P.Seed);
  OtterTraits Traits;
  SpiceRuntime RT(P.Threads);
  LoopOptions O;
  O.ChunksPerThread = P.ChunksPerThread;
  auto Loop = RT.makeLoop(Traits, O);
  ASSERT_EQ(Loop.tuning().PlannedChunks, P.Threads * P.ChunksPerThread);

  for (int Invocation = 0; Invocation != 30 && List.head(); ++Invocation) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << Invocation;
    ASSERT_EQ(Got.MinWeight, Expected->PickWeight);
    List.mutate(Got.MinClause, P.Inserts);
  }
  EXPECT_GE(Loop.stats().Invocations, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OversubscribedOtterTest,
    ::testing::Values(OversubParam{2, 2, 400, 2, 211},
                      OversubParam{4, 2, 400, 2, 212},
                      OversubParam{4, 4, 1000, 5, 213},
                      OversubParam{4, 8, 2000, 3, 214},
                      OversubParam{3, 4, 300, 10, 215},
                      OversubParam{4, 4, 24, 1, 216},
                      OversubParam{2, 8, 50, 1, 217}));

TEST(OversubscribedSpice, PlansOneScheduleListPerChunk) {
  ClauseList List(600, 220);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  (void)Loop.invoke(List.head()); // Bootstrap plans the next invocation.
  EXPECT_EQ(Loop.currentPlan().PerThread.size(), 8u)
      << "chunk planning must cover ChunksPerThread * NumThreads chunks";
  (void)Loop.invoke(List.head());
  EXPECT_EQ(Loop.stats().LaunchedSpecThreads, 7u)
      << "a fully predicted invocation launches numChunks() - 1 chunks";
}

TEST(OversubscribedSpice, StableListStaysFullySpeculative) {
  // No churn: after the bootstrap invocation every chunk validates, even
  // with twice as many chunks as threads.
  ClauseList List(600, 221);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, List.findLightestReference());
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_EQ(S.SequentialInvocations, 1u);
  EXPECT_EQ(S.MisspeculatedInvocations, 0u);
  EXPECT_EQ(S.FullySpeculativeInvocations, 9u);
  EXPECT_EQ(S.RecoveryChunks, 0u);
}

TEST(OversubscribedSpice, ForcedMispredictionsStillCorrect) {
  // Deterministically delete nodes near memoized samples so predictions
  // break often while oversubscribed; squashed suffixes must re-resolve
  // through stealable chunks without corrupting the reduction.
  ClauseList List(400, 222);
  OtterTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  auto Loop = RT.makeLoop(Traits, O);
  uint64_t MissesBefore = Loop.stats().MisspeculatedInvocations;
  for (int I = 0; I != 40 && List.size() > 32; ++I) {
    // Remove a mid-list node (close to some memoized row) plus the min.
    Clause *Mid = List.head();
    for (size_t S = 0; S != List.size() / 2; ++S)
      Mid = Mid->Next;
    List.remove(Mid);
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Got = Loop.invoke(List.head());
    ASSERT_EQ(Got.MinClause, Expected) << "invocation " << I;
    List.mutate(Got.MinClause, 1);
  }
  EXPECT_GT(Loop.stats().MisspeculatedInvocations, MissesBefore)
      << "removing memoized nodes must eventually trigger squashes";
}

TEST(OversubscribedMcf, StalePotentialsRecoverThroughStealableChunks) {
  // The mcf walk writes shared memory; with stale potentials the
  // chunk-boundary reads may fail commit-time validation. Oversubscribed,
  // a failed chunk is re-enqueued as a stealable recovery chunk (instead
  // of the paper's serial replay) and the ordered commit must still
  // produce exactly the sequential potentials. Whether a read is stale
  // depends on the schedule, so the conflict-then-requeue path itself is
  // pinned down deterministically by spice_runtime_test's
  // LoopBuilder.StaleReadConflictRecoversThroughARequeuedChunk.
  BasisTree TreeSpice(800, 241);
  BasisTree TreeRef(800, 241);
  McfTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int I = 0; I != 15; ++I) {
    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want) << "invocation " << I;
    test::checkStatsInvariants(Loop.lastStats());
    TreeNode *A = TreeSpice.traversalStart();
    TreeNode *B = TreeRef.traversalStart();
    while (A && B) {
      ASSERT_EQ(A->Potential, B->Potential);
      A = BasisTree::advance(A);
      B = BasisTree::advance(B);
    }
    ASSERT_EQ(A, nullptr);
    ASSERT_EQ(B, nullptr);
    TreeSpice.mutate(/*Arcs=*/40, /*Relocations=*/0, /*PropagateNow=*/false);
    TreeRef.mutate(40, 0, false);
  }
}

TEST(OversubscribedKs, ShrinkingListStaysCorrectAndParallel) {
  KsGraph G(256, 4, 251);
  KsTraits Traits;
  Traits.Graph = &G;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 2;
  auto Loop = RT.makeLoop(Traits, O);
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < 100) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    ASSERT_NE(Got.BestB, nullptr);
    KsTraits::State Want = Loop.runSequentialReference(G.bListHead());
    ASSERT_EQ(Got.BestB, Want.BestB);
    ASSERT_EQ(Got.BestGain, Want.BestGain);
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  const SpiceStats &S = Loop.stats();
  EXPECT_LT(S.SequentialInvocations, S.Invocations / 2);
}

TEST(OversubscribedSjeng, WeightedWorkSweepMatchesSequential) {
  SjengBoard Board(500, 261);
  SjengTraits Traits;
  SpiceRuntime RT(4);
  LoopOptions O;
  O.ChunksPerThread = 4;
  O.UseWeightedWork = true;
  auto Loop = RT.makeLoop(Traits, O);
  for (int Invocation = 0; Invocation != 40; ++Invocation) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want) << "invocation " << Invocation;
    Board.mutate(0.3, 1);
  }
}

TEST(SjengSpice, AttributeChurnCausesModerateMisspeculation) {
  SjengBoard Board(400, 71);
  SjengTraits Traits;
  SpiceRuntime RT(4);
  auto Loop = RT.makeLoop(Traits);
  for (int I = 0; I != 100; ++I) {
    SjengScore Want = Board.evalReference();
    SjengScore Got = Loop.invoke(Board.start());
    ASSERT_EQ(Got, Want);
    Board.mutate(/*MutateProb=*/0.3, /*Count=*/1);
  }
  const SpiceStats &S = Loop.stats();
  // A mutation upstream of a memoized sample breaks that prediction, so
  // the rate should be visible but far below 100%.
  EXPECT_GT(S.MisspeculatedInvocations, 5u);
  EXPECT_LT(S.MisspeculatedInvocations, 60u);
}
