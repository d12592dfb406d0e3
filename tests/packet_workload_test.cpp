//===- tests/packet_workload_test.cpp - Packet-pipeline workload tests ----===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The packet-processing workload: flow-table invariants, the trace
// generator, and bit-for-bit equality of the speculative pipeline
// against a twin sequential instance under ChunksPerThread sweeps,
// bursty traces, and forced mispredictions (runs under TSan in CI).
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/SpiceRuntime.h"
#include "workloads/Packets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// FlowTable
//===----------------------------------------------------------------------===//

TEST(FlowTable, LookupFindsEveryKeyAndOnlyThose) {
  FlowTable T(100, 16, 5);
  EXPECT_EQ(T.numFlows(), 100u);
  std::set<uint64_t> Seen;
  for (uint64_t Key : T.keys()) {
    FlowEntry *F = T.lookup(Key);
    ASSERT_NE(F, nullptr);
    EXPECT_EQ(F->Key, Key);
    Seen.insert(Key);
  }
  EXPECT_EQ(Seen.size(), 100u) << "keys must be unique";
  EXPECT_EQ(T.lookup(0), nullptr) << "zero is reserved";
}

TEST(FlowTable, DeterministicForSameSeed) {
  FlowTable A(64, 8, 9), B(64, 8, 9);
  EXPECT_EQ(A.keys(), B.keys());
  EXPECT_EQ(A.checksum(), B.checksum());
  EXPECT_TRUE(A.countersEqual(B));
}

TEST(FlowTable, ChecksumSeesCounterChanges) {
  FlowTable A(32, 8, 11), B(32, 8, 11);
  uint64_t Before = A.checksum();
  A.lookup(A.keys()[3])->Packets = 7;
  EXPECT_NE(A.checksum(), Before);
  EXPECT_FALSE(A.countersEqual(B));
  A.resetCounters();
  EXPECT_EQ(A.checksum(), Before);
  EXPECT_TRUE(A.countersEqual(B));
}

TEST(FlowTable, ChainsStayShortWithEnoughBuckets) {
  FlowTable T(256, 128, 13);
  EXPECT_LE(T.maxChainLength(), 10u) << "hashing should spread the keys";
}

//===----------------------------------------------------------------------===//
// Trace generator
//===----------------------------------------------------------------------===//

TEST(PacketPipeline, TraceIsDeterministicAndTracked) {
  PacketPipeline A(64, 16, 4096, 17), B(64, 16, 4096, 17);
  EXPECT_EQ(A.generateTrace(1000, 0.1, 8), 1000u);
  EXPECT_EQ(B.generateTrace(1000, 0.1, 8), 1000u);
  for (size_t I = 0; I != A.traceLength(); ++I) {
    const Packet &PA = A.traceBegin()[I], &PB = B.traceBegin()[I];
    EXPECT_EQ(PA.FlowKey, PB.FlowKey);
    EXPECT_EQ(PA.Length, PB.Length);
    EXPECT_EQ(PA.Flags, PB.Flags);
    EXPECT_NE(A.table().lookup(PA.FlowKey), nullptr)
        << "every trace packet belongs to a tracked flow";
  }
}

TEST(PacketPipeline, BurstsProduceSameFlowRuns) {
  PacketPipeline P(256, 64, 8192, 19);
  P.generateTrace(8000, /*BurstProb=*/0.2, /*BurstLen=*/16);
  size_t LongestRun = 1, Run = 1;
  for (size_t I = 1; I != P.traceLength(); ++I) {
    if (P.traceBegin()[I].FlowKey == P.traceBegin()[I - 1].FlowKey)
      ++Run;
    else
      Run = 1;
    LongestRun = std::max(LongestRun, Run);
  }
  EXPECT_GE(LongestRun, 8u) << "burst dial should emit same-flow runs";
}

TEST(PacketPipeline, TraceLengthClampedToArena) {
  PacketPipeline P(16, 8, 100, 21);
  EXPECT_EQ(P.generateTrace(1000), 100u);
}

//===----------------------------------------------------------------------===//
// Speculative execution vs the twin oracle
//===----------------------------------------------------------------------===//

namespace {

/// Speculative instance and sequential twin built from one seed; every
/// generated trace is identical, so the tables must stay bit-identical.
struct TwinRig {
  PacketPipeline Live, Ref;

  TwinRig(size_t Flows, size_t Buckets, size_t MaxTrace, uint64_t Seed)
      : Live(Flows, Buckets, MaxTrace, Seed),
        Ref(Flows, Buckets, MaxTrace, Seed) {}

  /// One invocation on both instances; returns true when states and
  /// tables match bit-for-bit. Checks the stats identities too.
  bool invocationMatches(PacketPipeline::Loop &L, size_t Packets,
                         double BurstProb, unsigned BurstLen) {
    Live.generateTrace(Packets, BurstProb, BurstLen);
    Ref.generateTrace(Packets, BurstProb, BurstLen);
    PacketState Got = L.invoke(Live.traceBegin());
    test::checkStatsInvariants(L.lastStats());
    PacketState Want = Ref.processTraceReference();
    return Got == Want && Live.table().countersEqual(Ref.table()) &&
           Live.table().checksum() == Ref.table().checksum();
  }
};

} // namespace

TEST(PacketPipeline, MatchesOracleAcrossChunksPerThread) {
  SpiceRuntime RT(/*NumThreads=*/4);
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    TwinRig Rig(256, 64, 1 << 14, 23);
    LoopOptions O;
    O.ChunksPerThread = K;
    PacketPipeline::Loop L = Rig.Live.makeLoop(RT, O);
    for (int I = 0; I != 12; ++I)
      EXPECT_TRUE(Rig.invocationMatches(L, 8000, 0.05, 8))
          << "k=" << K << " invocation " << I;
    EXPECT_EQ(L.stats().Invocations, 12u);
  }
}

TEST(PacketPipeline, BurstyTraceWithFewFlowsStillMatches) {
  // Few hot flows + long bursts: the dense-conflict end of the dial,
  // where cross-chunk counter updates collide constantly.
  SpiceRuntime RT(/*NumThreads=*/4);
  TwinRig Rig(8, 4, 1 << 13, 27);
  LoopOptions O;
  O.ChunksPerThread = 4;
  PacketPipeline::Loop L = Rig.Live.makeLoop(RT, O);
  for (int I = 0; I != 10; ++I)
    EXPECT_TRUE(Rig.invocationMatches(L, 6000, 0.3, 32))
        << "invocation " << I;
}

TEST(PacketPipeline, ShrinkingTracesForceMispredictionsAndStillMatch) {
  // Trace length halves between invocations: memoized trace cursors
  // land past the new end, so late chunks exit unvalidated and their
  // successors squash -- the deterministic live-in misprediction.
  SpiceRuntime RT(/*NumThreads=*/4);
  TwinRig Rig(128, 32, 1 << 14, 29);
  LoopOptions O;
  O.ChunksPerThread = 2;
  PacketPipeline::Loop L = Rig.Live.makeLoop(RT, O);
  size_t Len = 1 << 14;
  for (int I = 0; I != 8; ++I) {
    EXPECT_TRUE(Rig.invocationMatches(L, Len, 0.05, 8))
        << "invocation " << I << " length " << Len;
    if (I % 2 == 1)
      Len /= 2;
  }
  EXPECT_GT(L.stats().MisspeculatedInvocations, 0u)
      << "shrinking traces should break trace-cursor predictions";
}

TEST(PacketPipeline, ConflictDetectionIsForcedOn) {
  SpiceRuntime RT(/*NumThreads=*/2);
  PacketPipeline P(16, 8, 256, 31);
  LoopOptions O;
  O.EnableConflictDetection = false; // The facade must override this.
  PacketPipeline::Loop L = P.makeLoop(RT, O);
  EXPECT_TRUE(L.options().EnableConflictDetection)
      << "per-flow counters need commit-time validation";
}

TEST(PacketPipeline, StateMachineCountsOpensAndCloses) {
  // Sequential-only semantic check of the SYN/FIN machine: a flow opens
  // once (first accepted SYN) and closes once (first FIN afterwards).
  PacketPipeline P(4, 2, 1024, 33);
  P.generateTrace(1024, 0.0, 1);
  PacketState S = P.processTraceReference();
  EXPECT_EQ(S.Packets, 1024);
  EXPECT_GT(S.Bytes, 1024 * 64 - 1);
  EXPECT_LE(S.Opened, 4);
  EXPECT_LE(S.Closed, S.Opened);
}
