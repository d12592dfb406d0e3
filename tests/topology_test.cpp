//===- tests/topology_test.cpp - Topology discovery + NUMA placement ------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The src/topology/ subsystem through its deterministic injection path
// (Topology::fromNodeSizes / PlacementConfig::overrideWith -- no real
// NUMA hardware needed): topology parsing, proportional worker
// assignment on symmetric (2x8) and asymmetric (12,4) layouts, the
// same-core -> same-node -> remote steal-victim order, node-packed
// session leases from the Scheduler's ledger (including the
// trim-to-node and span-as-last-resort rules), the per-node steal
// counters, and -- the degradation guarantee -- that a
// single-node override leaves the full loop protocol's stats
// bit-for-bit identical to running with topology off. Runs under TSan
// in CI.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "topology/Placement.h"
#include "topology/Topology.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::topology;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// Topology: the machine model
//===----------------------------------------------------------------------===//

TEST(Topology, SingleNodeShape) {
  Topology T = Topology::singleNode(8);
  EXPECT_FALSE(T.empty());
  EXPECT_EQ(T.numCpus(), 8u);
  EXPECT_EQ(T.numNodes(), 1u);
  EXPECT_TRUE(T.synthetic());
  for (unsigned C = 0; C != 8; ++C)
    EXPECT_EQ(T.nodeOfCpu(C), 0u);
}

TEST(Topology, FromNodeSizesAssignsSequentialOsIds) {
  Topology T = Topology::fromNodeSizes({2, 3});
  EXPECT_EQ(T.numCpus(), 5u);
  ASSERT_EQ(T.numNodes(), 2u);
  EXPECT_EQ(T.cpusOfNode(0).size(), 2u);
  EXPECT_EQ(T.cpusOfNode(1).size(), 3u);
  EXPECT_EQ(T.nodeOfCpu(1), 0u);
  EXPECT_EQ(T.nodeOfCpu(2), 1u);
  EXPECT_EQ(T.osCpuOf(4), 4u);
}

TEST(Topology, FromNodeSizesDropsEmptyNodes) {
  Topology T = Topology::fromNodeSizes({4, 0, 4});
  EXPECT_EQ(T.numNodes(), 2u) << "zero-cpu nodes do not exist";
  EXPECT_EQ(T.numCpus(), 8u);
}

TEST(Topology, ParseAcceptsWellFormedSpecs) {
  auto T = Topology::parse("8,8");
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->numNodes(), 2u);
  EXPECT_EQ(T->numCpus(), 16u);

  auto Asym = Topology::parse("12,4");
  ASSERT_TRUE(Asym.has_value());
  EXPECT_EQ(Asym->cpusOfNode(0).size(), 12u);
  EXPECT_EQ(Asym->cpusOfNode(1).size(), 4u);

  auto One = Topology::parse("3");
  ASSERT_TRUE(One.has_value());
  EXPECT_EQ(One->numNodes(), 1u);
}

TEST(Topology, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(Topology::parse("").has_value());
  EXPECT_FALSE(Topology::parse("8,").has_value());
  EXPECT_FALSE(Topology::parse(",8").has_value());
  EXPECT_FALSE(Topology::parse("8,x").has_value());
  EXPECT_FALSE(Topology::parse("-4").has_value());
  EXPECT_FALSE(Topology::parse("0,0").has_value()) << "zero total cpus";
  EXPECT_FALSE(Topology::parse("99999999999999999999").has_value())
      << "overflow must not wrap";
}

TEST(Topology, DiscoverReturnsSomethingUsable) {
  // On any machine: at least one cpu, dense node ids covering every cpu.
  Topology T = Topology::discover();
  ASSERT_FALSE(T.empty());
  for (unsigned C = 0; C != T.numCpus(); ++C)
    EXPECT_LT(T.nodeOfCpu(C), T.numNodes());
}

//===----------------------------------------------------------------------===//
// Placement: worker -> node/cpu assignment
//===----------------------------------------------------------------------===//

TEST(Placement, SymmetricNodesSplitWorkersEvenly) {
  Placement P(Topology::fromNodeSizes({8, 8}), /*NumWorkers=*/16,
              /*PinWorkers=*/false);
  EXPECT_EQ(P.numWorkers(), 16u);
  EXPECT_EQ(P.workersOfNode(0), 8u);
  EXPECT_EQ(P.workersOfNode(1), 8u);
  // Node-contiguous layout: node 0's workers are indices 0..7.
  auto [F0, L0] = P.workerRangeOfNode(0);
  auto [F1, L1] = P.workerRangeOfNode(1);
  EXPECT_EQ(F0, 0u);
  EXPECT_EQ(L0, 8u);
  EXPECT_EQ(F1, 8u);
  EXPECT_EQ(L1, 16u);
  for (unsigned W = 0; W != 16; ++W)
    EXPECT_EQ(P.nodeOfWorker(W), W < 8 ? 0u : 1u);
}

TEST(Placement, AsymmetricNodesSplitProportionally) {
  // 12+4 cpus, 8 workers: largest-remainder gives 6 and 2.
  Placement P(Topology::fromNodeSizes({12, 4}), /*NumWorkers=*/8,
              /*PinWorkers=*/false);
  EXPECT_EQ(P.workersOfNode(0), 6u);
  EXPECT_EQ(P.workersOfNode(1), 2u);
}

TEST(Placement, EveryWorkerLandsOnItsNodesCpus) {
  Placement P(Topology::fromNodeSizes({3, 5}), /*NumWorkers=*/11,
              /*PinWorkers=*/false);
  const Topology &T = P.topology();
  for (unsigned W = 0; W != P.numWorkers(); ++W)
    EXPECT_EQ(T.nodeOfCpu(P.cpuOfWorker(W)), P.nodeOfWorker(W))
        << "worker " << W << " assigned a foreign cpu slot";
}

TEST(Placement, OversubscribedNodeWrapsWorkersOntoSlots) {
  // 4 workers on a 2-cpu node: slots are reused round-robin, and the
  // wrap is what the same-core steal preference keys on.
  Placement P(Topology::fromNodeSizes({2}), /*NumWorkers=*/4,
              /*PinWorkers=*/false);
  EXPECT_EQ(P.cpuOfWorker(0), P.cpuOfWorker(2));
  EXPECT_EQ(P.cpuOfWorker(1), P.cpuOfWorker(3));
  EXPECT_NE(P.cpuOfWorker(0), P.cpuOfWorker(1));
}

TEST(Placement, SyntheticTopologiesNeverPin) {
  Placement P(Topology::fromNodeSizes({8, 8}), 16, /*PinWorkers=*/true);
  EXPECT_FALSE(P.pinsWorkers())
      << "fabricated os cpu ids must never reach sched_setaffinity";
}

TEST(Placement, MakePlacementOffOrEmptyIsNull) {
  EXPECT_EQ(makePlacement(PlacementConfig::off(), 8), nullptr);
  EXPECT_EQ(makePlacement(PlacementConfig::overrideWith(Topology{}), 8),
            nullptr);
  EXPECT_EQ(
      makePlacement(PlacementConfig::overrideWith(Topology::singleNode(4)), 0),
      nullptr)
      << "no workers, nothing to place";
}

//===----------------------------------------------------------------------===//
// Steal-victim ordering: same-core -> same-node -> remote
//===----------------------------------------------------------------------===//

TEST(VictimOrder, ClassesBeforeRingDistance) {
  // Lanes: 0,1 share cpu 0 (node 0); lane 2 on cpu 1 (node 0); lanes
  // 3,4 on node 1. From lane 0: core-mate 1 first, then node-mate 2,
  // then the remote lanes in ring order.
  std::vector<unsigned> Cpus = {0, 0, 1, 2, 3};
  std::vector<unsigned> Nodes = {0, 0, 0, 1, 1};
  std::vector<unsigned> Out;
  Placement::victimOrder(0, Cpus, Nodes, Out);
  EXPECT_EQ(Out, (std::vector<unsigned>{1, 2, 3, 4}));
}

TEST(VictimOrder, RingStartsAfterTheThief) {
  // All lanes one node, distinct cpus: pure ring order from Lane+1.
  std::vector<unsigned> Cpus = {0, 1, 2, 3};
  std::vector<unsigned> Nodes = {0, 0, 0, 0};
  std::vector<unsigned> Out;
  Placement::victimOrder(2, Cpus, Nodes, Out);
  EXPECT_EQ(Out, (std::vector<unsigned>{3, 0, 1}));
}

TEST(VictimOrder, RemoteLanesComeLast) {
  std::vector<unsigned> Cpus = {0, 1, 2};
  std::vector<unsigned> Nodes = {0, 1, 0};
  std::vector<unsigned> Out;
  Placement::victimOrder(0, Cpus, Nodes, Out);
  EXPECT_EQ(Out, (std::vector<unsigned>{2, 1}))
      << "the node-mate outranks the ring-closer remote lane";
}

//===----------------------------------------------------------------------===//
// Node-packed session leases
//===----------------------------------------------------------------------===//

namespace {

std::shared_ptr<const Placement> fakePlacement(std::vector<unsigned> Nodes,
                                               unsigned Workers) {
  return makePlacement(
      PlacementConfig::overrideWith(Topology::fromNodeSizes(Nodes)), Workers);
}

/// Free workers per node, as the scheduler's ledger counts them.
std::vector<unsigned> freeByNode(const Scheduler &Sched, unsigned Nodes) {
  std::vector<unsigned> Free;
  for (unsigned N = 0; N != Nodes; ++N)
    Free.push_back(Sched.freeWorkersOnNode(N));
  return Free;
}

/// Nodes of a session's lanes, in lane order.
std::vector<unsigned> laneNodes(WorkerSession &S) {
  std::vector<unsigned> N;
  for (unsigned L = 0; L != S.lanes(); ++L)
    N.push_back(S.laneNode(L));
  return N;
}

} // namespace

TEST(NodePackedLeases, FittingLeaseStaysOnOneNode) {
  auto P = fakePlacement({4, 4}, 8);
  WorkerPool Pool(8, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  ASSERT_TRUE(Pool.localityActive());
  auto S = Sched.tryAcquireSessionFor(4, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 4u);
  std::vector<unsigned> Nodes = laneNodes(*S);
  for (unsigned N : Nodes)
    EXPECT_EQ(N, Nodes[0]) << "a lease a node can hold must not span";
}

TEST(NodePackedLeases, OversizedLeaseIsTrimmedToTheLargestBlock) {
  // 8 lanes ask, largest free block 4, 2*4 >= 8: trim. One-node
  // locality beats raw lane count when the block covers half the ask.
  auto P = fakePlacement({4, 4}, 8);
  WorkerPool Pool(8, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(8, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 4u) << "trimmed to one node's block";
  std::vector<unsigned> Nodes = laneNodes(*S);
  for (unsigned N : Nodes)
    EXPECT_EQ(N, Nodes[0]);
}

TEST(NodePackedLeases, TinyBlocksForceASpanningLease) {
  // Three 1-lane nodes, ask 3: no block covers half, so the lease
  // spans all nodes rather than starving the invocation.
  auto P = fakePlacement({1, 1, 1}, 3);
  WorkerPool Pool(3, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(3, true, std::this_thread::get_id());
  EXPECT_EQ(S->lanes(), 3u);
}

TEST(NodePackedLeases, SecondLeaseTakesTheOtherNode) {
  auto P = fakePlacement({2, 2}, 4);
  WorkerPool Pool(4, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto A = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  auto B = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  ASSERT_EQ(A->lanes(), 2u);
  ASSERT_EQ(B->lanes(), 2u);
  EXPECT_NE(A->laneNode(0), B->laneNode(0))
      << "two node-sized leases partition by node";
}

TEST(NodePackedLeases, FreeWorkersByNodeTracksLeases) {
  auto P = fakePlacement({2, 2}, 4);
  WorkerPool Pool(4, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  std::vector<unsigned> Free = freeByNode(Sched, 2);
  EXPECT_EQ(Free, (std::vector<unsigned>{2, 2}));
  {
    auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
    Free = freeByNode(Sched, 2);
    unsigned Node = S->laneNode(0);
    EXPECT_EQ(Free[Node], 0u);
    EXPECT_EQ(Free[1 - Node], 2u);
  }
  Free = freeByNode(Sched, 2);
  EXPECT_EQ(Free, (std::vector<unsigned>{2, 2})) << "release restores";
}

//===----------------------------------------------------------------------===//
// Steal counters: locality split at the deque level
//===----------------------------------------------------------------------===//

TEST(StealCounters, CrossNodeStealCountsAsRemote) {
  // Spanning lease over 1-lane nodes: any steal is cross-node.
  auto P = fakePlacement({1, 1, 1}, 3);
  WorkerPool Pool(3, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(3, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 3u);
  S->pushChunk(0, 1);
  S->pushChunk(0, 2);
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(S->acquireChunk(1, C, Stolen)); // Lane 1 raids lane 0.
  EXPECT_TRUE(Stolen);
  ASSERT_TRUE(S->acquireChunk(0, C, Stolen)); // Lane 0 pops its own.
  EXPECT_FALSE(Stolen);
  auto SC = S->takeStealCounters();
  EXPECT_EQ(SC.Local, 0u);
  EXPECT_EQ(SC.Remote, 1u);
  auto Again = S->takeStealCounters();
  EXPECT_EQ(Again.Remote, 0u) << "take zeroes";
}

TEST(StealCounters, SameNodeStealCountsAsLocal) {
  auto P = fakePlacement({2, 2}, 4);
  WorkerPool Pool(4, {}, P);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 2u) << "node-packed: both lanes on one node";
  S->pushChunk(0, 1);
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(S->acquireChunk(1, C, Stolen));
  EXPECT_TRUE(Stolen);
  auto SC = S->takeStealCounters();
  EXPECT_EQ(SC.Local, 1u);
  EXPECT_EQ(SC.Remote, 0u);
}

TEST(StealCounters, TopologyBlindPoolCountsEveryStealLocal) {
  WorkerPool Pool(2);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  S->pushChunk(0, 1);
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(S->acquireChunk(1, C, Stolen));
  EXPECT_TRUE(Stolen);
  auto SC = S->takeStealCounters();
  EXPECT_EQ(SC.Local, 1u) << "one node: nothing is remote";
  EXPECT_EQ(SC.Remote, 0u);
}

//===----------------------------------------------------------------------===//
// Degradation guarantee: single-node topology == topology off,
// bit-for-bit
//===----------------------------------------------------------------------===//

namespace {

SpiceStats runStableOtterOn(SpiceRuntime &RT, OtterTraits &Traits) {
  LoopOptions Opts;
  Opts.ChunksPerThread = 2; // Exercise stealing and recovery requeues.
  auto Loop = RT.makeLoop(Traits, Opts);
  ClauseList List(600, 5);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    EXPECT_EQ(Got.MinClause, List.findLightestReference());
  }
  return Loop.stats();
}

} // namespace

TEST(TopologyDegradation, SingleNodeOverrideMatchesOffBitForBit) {
  OtterTraits TraitsOff, TraitsOn;
  RuntimeConfig Off;
  Off.NumThreads = 4;
  SpiceRuntime RTOff(Off);
  SpiceStats A = runStableOtterOn(RTOff, TraitsOff);

  RuntimeConfig On;
  On.NumThreads = 4;
  On.Topology =
      PlacementConfig::overrideWith(Topology::singleNode(3));
  SpiceRuntime RTOn(On);
  ASSERT_NE(RTOn.placement(), nullptr);
  ASSERT_FALSE(RTOn.pool().localityActive()) << "one node: no locality";
  SpiceStats B = runStableOtterOn(RTOn, TraitsOn);

  // Deterministic protocol counters must be identical; the
  // timing-dependent ones (steals, helps) are compared through their
  // shared invariant below instead.
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.MisspeculatedInvocations, B.MisspeculatedInvocations);
  EXPECT_EQ(A.FullySpeculativeInvocations, B.FullySpeculativeInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.LaunchedSpecThreads, B.LaunchedSpecThreads);
  EXPECT_EQ(A.GrantedLanes, B.GrantedLanes);
  EXPECT_EQ(A.ConflictSquashes, B.ConflictSquashes);
  EXPECT_EQ(B.RemoteSteals, 0u);
}

TEST(TopologyDegradation, MultiNodeLoopRunSatisfiesTheStealInvariant) {
  // Real end-to-end run on a fake 2-node machine: the full protocol
  // (steals, recovery requeues, main helping) with node-aware deques.
  OtterTraits Traits;
  RuntimeConfig C;
  C.NumThreads = 5;
  C.Topology =
      PlacementConfig::overrideWith(Topology::fromNodeSizes({2, 2}));
  SpiceRuntime RT(C);
  ASSERT_TRUE(RT.pool().localityActive());
  SpiceStats S = runStableOtterOn(RT, Traits);

  // Every worker-side steal is exactly one of local/remote;
  // main-helped chunks count in StolenChunks but are not steals.
  EXPECT_EQ(S.LocalSteals + S.RemoteSteals,
            S.StolenChunks - S.MainHelpedChunks);
  // The trim rule keeps a sole client's lease on one node here (ask 4+,
  // largest block 2, 2*2 >= 4), so no steal can cross nodes.
  EXPECT_EQ(S.RemoteSteals, 0u);
}

TEST(TopologyDegradation, AsymmetricLayoutRunsTheProtocolCorrectly) {
  OtterTraits Traits;
  RuntimeConfig C;
  C.NumThreads = 5;
  C.Topology =
      PlacementConfig::overrideWith(Topology::fromNodeSizes({12, 4}));
  SpiceRuntime RT(C);
  ASSERT_TRUE(RT.pool().localityActive());
  SpiceStats S = runStableOtterOn(RT, Traits);
  EXPECT_EQ(S.Invocations, 10u);
  EXPECT_EQ(S.LocalSteals + S.RemoteSteals,
            S.StolenChunks - S.MainHelpedChunks);
}
