//===- tests/graph_workload_test.cpp - Graph-analytics workload tests -----===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The SSSP frontier workload: generator invariants, the sequential
// oracle, and bit-for-bit equality of speculative SSSP against the
// oracle under ChunksPerThread sweeps and forced mispredictions (runs
// under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/SpiceRuntime.h"
#include "workloads/Graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// CsrGraph generators
//===----------------------------------------------------------------------===//

static void expectWellFormed(const CsrGraph &G) {
  int64_t V = static_cast<int64_t>(G.numVertices());
  size_t Counted = 0;
  for (int64_t U = 0; U != V; ++U) {
    for (const CsrGraph::Edge *E = G.edgesBegin(U), *End = G.edgesEnd(U);
         E != End; ++E) {
      EXPECT_GE(E->To, 0);
      EXPECT_LT(E->To, V);
      EXPECT_NE(E->To, U) << "self-loops are dropped";
      EXPECT_GE(E->Weight, 1);
      ++Counted;
    }
  }
  EXPECT_EQ(Counted, G.numEdges());
}

TEST(CsrGraph, RmatIsWellFormedAndDeterministic) {
  CsrGraph A = CsrGraph::rmat(200, 8, 42);
  CsrGraph B = CsrGraph::rmat(200, 8, 42);
  expectWellFormed(A);
  EXPECT_EQ(A.numVertices(), 256u) << "rounded up to a power of two";
  EXPECT_EQ(A.numVertices(), B.numVertices());
  EXPECT_EQ(A.numEdges(), B.numEdges());
  for (int64_t U = 0; U != static_cast<int64_t>(A.numVertices()); ++U) {
    ASSERT_EQ(A.degree(U), B.degree(U)) << "vertex " << U;
    const CsrGraph::Edge *EA = A.edgesBegin(U), *EB = B.edgesBegin(U);
    for (size_t I = 0; I != A.degree(U); ++I) {
      EXPECT_EQ(EA[I].To, EB[I].To);
      EXPECT_EQ(EA[I].Weight, EB[I].Weight);
    }
  }
}

TEST(CsrGraph, RmatDegreeDistributionIsSkewed) {
  CsrGraph G = CsrGraph::rmat(512, 8, 7);
  size_t MaxDeg = 0;
  for (int64_t U = 0; U != static_cast<int64_t>(G.numVertices()); ++U)
    MaxDeg = std::max(MaxDeg, G.degree(U));
  // Mean degree is ~8; R-MAT hubs must stand far above it.
  EXPECT_GT(MaxDeg, 32u) << "R-MAT should concentrate edges on hubs";
}

TEST(CsrGraph, GridIsWellFormedWithBoundedDegree) {
  CsrGraph G = CsrGraph::grid(12, 9, 3);
  expectWellFormed(G);
  EXPECT_EQ(G.numVertices(), 108u);
  for (int64_t U = 0; U != static_cast<int64_t>(G.numVertices()); ++U) {
    EXPECT_GE(G.degree(U), 2u);
    EXPECT_LE(G.degree(U), 4u);
  }
}

//===----------------------------------------------------------------------===//
// Sequential oracle
//===----------------------------------------------------------------------===//

TEST(SsspReference, UnitWeightGridIsManhattanDistance) {
  // On a unit-weight grid the shortest path from the corner is the
  // Manhattan distance: a closed form the oracle must reproduce.
  size_t W = 7, H = 5;
  CsrGraph G = CsrGraph::grid(W, H, 11, /*WeightRange=*/1);
  std::vector<int64_t> D = SsspWorkload::ssspReference(G, 0);
  for (size_t Y = 0; Y != H; ++Y)
    for (size_t X = 0; X != W; ++X)
      EXPECT_EQ(D[Y * W + X], static_cast<int64_t>(X + Y))
          << "vertex (" << X << "," << Y << ")";
}

TEST(SsspReference, SatisfiesTriangleInequalityOnRmat) {
  CsrGraph G = CsrGraph::rmat(128, 6, 13);
  std::vector<int64_t> D = SsspWorkload::ssspReference(G, 0);
  // Fixpoint check: no edge can still relax.
  for (int64_t U = 0; U != static_cast<int64_t>(G.numVertices()); ++U) {
    if (D[static_cast<size_t>(U)] == SsspWorkload::unreached())
      continue;
    for (const CsrGraph::Edge *E = G.edgesBegin(U), *End = G.edgesEnd(U);
         E != End; ++E)
      EXPECT_LE(D[static_cast<size_t>(E->To)],
                D[static_cast<size_t>(U)] + E->Weight);
  }
}

//===----------------------------------------------------------------------===//
// Speculative execution vs the oracle
//===----------------------------------------------------------------------===//

TEST(SsspWorkload, FrontierStartsAtSourceAndAdvances) {
  CsrGraph G = CsrGraph::grid(8, 8, 17);
  SsspWorkload Work(std::move(G), /*Source=*/0);
  ASSERT_NE(Work.frontierHead(), nullptr);
  EXPECT_EQ(Work.frontierHead()->Vertex, 0);
  EXPECT_EQ(Work.frontierSize(), 1u);
  EXPECT_EQ(Work.distances()[0], 0);
  EXPECT_EQ(Work.distances()[1], SsspWorkload::unreached());
}

/// Runs speculative SSSP on \p Work and checks the distance array is
/// bit-identical to the oracle, and the stats identities after the run.
static void expectMatchesOracle(SsspWorkload &Work, SsspWorkload::Loop &L,
                                int64_t Source) {
  Work.reset(Source);
  size_t Waves = Work.run(L);
  EXPECT_GT(Waves, 1u) << "test graph too small to exercise waves";
  test::checkStatsInvariants(L.lastStats());
  std::vector<int64_t> Want =
      SsspWorkload::ssspReference(Work.graph(), Source);
  EXPECT_EQ(Work.distances(), Want)
      << "speculative SSSP diverged from the sequential oracle";
}

TEST(SsspWorkload, RmatMatchesOracleAcrossChunksPerThread) {
  SpiceRuntime RT(/*NumThreads=*/4);
  CsrGraph G = CsrGraph::rmat(256, 8, 19);
  SsspWorkload Work(std::move(G), 0);
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    LoopOptions O;
    O.ChunksPerThread = K;
    SsspWorkload::Loop L = Work.makeLoop(RT, O);
    expectMatchesOracle(Work, L, /*Source=*/0);
    expectMatchesOracle(Work, L, /*Source=*/3);
  }
}

TEST(SsspWorkload, GridMatchesOracleAcrossChunksPerThread) {
  SpiceRuntime RT(/*NumThreads=*/4);
  CsrGraph G = CsrGraph::grid(24, 24, 23);
  SsspWorkload Work(std::move(G), 0);
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    LoopOptions O;
    O.ChunksPerThread = K;
    SsspWorkload::Loop L = Work.makeLoop(RT, O);
    expectMatchesOracle(Work, L, /*Source=*/0);
  }
}

TEST(SsspWorkload, ForcedMispredictionsStillMatchOracle) {
  // Re-running from a different source with a loop that kept its
  // predictor state forces stale frontier-pointer predictions: the
  // first waves after each reset must mis-speculate and recover. The
  // final frontier collapse (hundreds of nodes down to a handful)
  // guarantees at least one squash per run.
  SpiceRuntime RT(/*NumThreads=*/4);
  CsrGraph G = CsrGraph::rmat(256, 8, 29);
  SsspWorkload Work(std::move(G), 0);
  LoopOptions O;
  O.ChunksPerThread = 2;
  SsspWorkload::Loop L = Work.makeLoop(RT, O);
  for (int64_t Source : {int64_t{0}, int64_t{7}, int64_t{100}, int64_t{1}})
    expectMatchesOracle(Work, L, Source);
  EXPECT_GT(L.stats().MisspeculatedInvocations, 0u)
      << "frontier churn should force mispredictions";
  EXPECT_GT(L.stats().Invocations, 8u);
}

TEST(SsspWorkload, ConflictDetectionIsForcedOn) {
  SpiceRuntime RT(/*NumThreads=*/2);
  CsrGraph G = CsrGraph::grid(4, 4, 31);
  SsspWorkload Work(std::move(G), 0);
  LoopOptions O;
  O.EnableConflictDetection = false; // The facade must override this.
  SsspWorkload::Loop L = Work.makeLoop(RT, O);
  EXPECT_TRUE(L.options().EnableConflictDetection)
      << "distance writes need commit-time validation";
  EXPECT_TRUE(L.options().UseWeightedWork)
      << "the degree weight hook implies the weighted metric";
}

TEST(SsspWorkload, SequentialRuntimeStillCorrect) {
  // NumThreads == 1 never speculates; the facade must degrade to plain
  // sequential execution.
  SpiceRuntime RT(/*NumThreads=*/1);
  CsrGraph G = CsrGraph::rmat(128, 6, 37);
  SsspWorkload Work(std::move(G), 0);
  SsspWorkload::Loop L = Work.makeLoop(RT);
  expectMatchesOracle(Work, L, 0);
  EXPECT_EQ(L.stats().MisspeculatedInvocations, 0u);
}
