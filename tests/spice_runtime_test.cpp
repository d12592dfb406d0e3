//===- tests/spice_runtime_test.cpp - Shared-runtime API tests ------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The SpiceRuntime API: one shared WorkerPool serving many loops, worker
// lane leasing (sessions from the Scheduler's ledger), concurrent
// invocations from different client threads (run under TSan in CI), the
// paper-protocol stats of a sole loop pinned to golden values, and the
// LoopBuilder lambda front-end.
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/LoopBuilder.h"
#include "core/Scheduler.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

//===----------------------------------------------------------------------===//
// Worker sessions: lane leasing
//===----------------------------------------------------------------------===//

TEST(WorkerSession, LeasesUpToMaxLanesAndReturnsThem) {
  WorkerPool Pool(4);
  Scheduler Sched(Pool, RuntimeConfig{});
  EXPECT_EQ(Sched.freeWorkers(), 4u);
  {
    Scheduler::SessionHandle S =
        Sched.tryAcquireSessionFor(3, true, std::this_thread::get_id());
    EXPECT_EQ(S->lanes(), 3u);
    EXPECT_EQ(Sched.freeWorkers(), 1u);
  }
  EXPECT_EQ(Sched.freeWorkers(), 4u) << "handle destruction releases lanes";
}

TEST(WorkerSession, ConcurrentSessionsPartitionThePool) {
  WorkerPool Pool(4);
  Scheduler Sched(Pool, RuntimeConfig{});
  const std::thread::id Me = std::this_thread::get_id();
  Scheduler::SessionHandle A = Sched.tryAcquireSessionFor(3, true, Me);
  Scheduler::SessionHandle B = Sched.tryAcquireSessionFor(3, true, Me);
  EXPECT_EQ(A->lanes(), 3u);
  EXPECT_EQ(B->lanes(), 1u) << "second session gets what is left";
  EXPECT_EQ(Sched.freeWorkers(), 0u);
  EXPECT_EQ(Sched.tryAcquireSessionFor(1, true, Me), nullptr)
      << "an exhausted pool leases nothing and does not block";
}

TEST(WorkerSession, RunsJobOncePerLaneWithSessionQueues) {
  WorkerPool Pool(3);
  Scheduler Sched(Pool, RuntimeConfig{});
  Scheduler::SessionHandle S =
      Sched.tryAcquireSessionFor(3, true, std::this_thread::get_id());
  std::vector<std::atomic<int>> Hits(30);
  for (uint32_t C = 0; C != 30; ++C)
    S->pushChunk(C % 3, C);
  S->launch([&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (S->acquireChunk(Lane, C, Stolen))
      Hits[C].fetch_add(1);
  });
  S->wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(S->pendingChunks(), 0u);
}

TEST(WorkerSession, TwoSessionsRunJobsConcurrently) {
  WorkerPool Pool(2);
  Scheduler Sched(Pool, RuntimeConfig{});
  const std::thread::id Me = std::this_thread::get_id();
  Scheduler::SessionHandle A = Sched.tryAcquireSessionFor(1, false, Me);
  Scheduler::SessionHandle B = Sched.tryAcquireSessionFor(1, false, Me);
  // Rendezvous across sessions: each job waits (bounded) for the other,
  // which only terminates if both sessions really run at the same time.
  std::atomic<int> Arrived{0};
  auto Rendezvous = [&](unsigned) {
    Arrived.fetch_add(1);
    for (int I = 0; I != 1'000'000 && Arrived.load() < 2; ++I)
      std::this_thread::yield();
  };
  A->launch(Rendezvous);
  B->launch(Rendezvous);
  A->wait();
  B->wait();
  EXPECT_EQ(Arrived.load(), 2);
}

//===----------------------------------------------------------------------===//
// SpiceRuntime: many loops, one pool
//===----------------------------------------------------------------------===//

TEST(SpiceRuntime, RegistersAndUnregistersLoops) {
  SpiceRuntime RT(/*NumThreads=*/4);
  EXPECT_EQ(RT.numLoops(), 0u);
  OtterTraits Traits;
  {
    auto L1 = RT.makeLoop(Traits);
    LoopOptions Oversub;
    Oversub.ChunksPerThread = 2;
    auto L2 = RT.makeLoop(Traits, Oversub);
    EXPECT_EQ(RT.numLoops(), 2u);
    EXPECT_EQ(L1.runtime().numThreads(), 4u);
    EXPECT_EQ(L2.options().ChunksPerThread, 2u);
    EXPECT_EQ(&L1.runtime(), &RT);
  }
  EXPECT_EQ(RT.numLoops(), 0u);
}

TEST(SpiceRuntime, WorkerStartHookRunsOncePerWorker) {
  std::atomic<unsigned> Started{0};
  std::atomic<uint32_t> SeenMask{0};
  {
    RuntimeConfig C;
    C.NumThreads = 4; // 3 workers.
    C.WorkerStartHook = [&](unsigned Index) {
      Started.fetch_add(1);
      SeenMask.fetch_or(1u << Index);
    };
    SpiceRuntime RT(C);
    ClauseList List(200, 91);
    OtterTraits Traits;
    auto Loop = RT.makeLoop(Traits);
    for (int I = 0; I != 3 && List.head(); ++I) {
      OtterTraits::State Got = Loop.invoke(List.head());
      ASSERT_EQ(Got.MinClause, List.findLightestReference());
      List.mutate(Got.MinClause, 1);
    }
  }
  EXPECT_EQ(Started.load(), 3u);
  EXPECT_EQ(SeenMask.load(), 0b111u) << "hook sees worker indices 0..2";
}

TEST(SpiceRuntime, TwoLoopsInterleavedOnOneRuntime) {
  SpiceRuntime RT(/*NumThreads=*/4);

  ClauseList List(500, 81);
  OtterTraits Otter;
  auto Select = RT.makeLoop(Otter);

  BasisTree TreeSpice(500, 82), TreeRef(500, 82);
  McfTraits Mcf;
  LoopOptions McfOpts;
  McfOpts.EnableConflictDetection = true;
  auto Refresh = RT.makeLoop(Mcf, McfOpts);

  // Alternate invocations of the two loops on the same pool.
  for (int I = 0; I != 20 && List.head(); ++I) {
    Clause *Expected = List.findLightestReference();
    OtterTraits::State Picked = Select.invoke(List.head());
    ASSERT_EQ(Picked.MinClause, Expected) << "interleaved invocation " << I;
    List.mutate(Picked.MinClause, 2);

    int64_t Want = TreeRef.refreshPotentialReference();
    McfTraits::State Got = Refresh.invoke(TreeSpice.traversalStart());
    ASSERT_EQ(Got.Checksum, Want) << "interleaved invocation " << I;
    TreeSpice.mutate(2, 1);
    TreeRef.mutate(2, 1);
  }
  EXPECT_GE(Select.stats().Invocations, 20u);
  EXPECT_GE(Refresh.stats().Invocations, 20u);
}

// The satellite scenario: two distinct loops registered on one shared
// runtime, invoked concurrently from two client threads, with forced
// mispredictions (mid-list removals break memoized rows; stale mcf
// potentials fail read validation). Runs under TSan in CI.
TEST(SpiceRuntime, TwoLoopsInvokedConcurrentlyFromTwoClientThreads) {
  SpiceRuntime RT(/*NumThreads=*/4);

  OtterTraits Otter;
  LoopOptions OtterOpts;
  OtterOpts.ChunksPerThread = 2;
  auto Select = RT.makeLoop(Otter, OtterOpts);
  McfTraits Mcf;
  LoopOptions McfOpts;
  McfOpts.ChunksPerThread = 2;
  McfOpts.EnableConflictDetection = true;
  auto Refresh = RT.makeLoop(Mcf, McfOpts);

  std::atomic<bool> OtterOk{true}, McfOk{true};

  std::thread OtterClient([&] {
    ClauseList List(400, 83);
    for (int I = 0; I != 30 && List.size() > 32; ++I) {
      // Remove a mid-list node: close to a memoized row, so predictions
      // break and the recovery path runs while the other client is busy.
      Clause *Mid = List.head();
      for (size_t S = 0; S != List.size() / 2; ++S)
        Mid = Mid->Next;
      List.remove(Mid);
      Clause *Expected = List.findLightestReference();
      OtterTraits::State Got = Select.invoke(List.head());
      if (Got.MinClause != Expected) {
        OtterOk.store(false);
        return;
      }
      List.mutate(Got.MinClause, 1);
    }
  });

  std::thread McfClient([&] {
    BasisTree TreeSpice(400, 84), TreeRef(400, 84);
    for (int I = 0; I != 30; ++I) {
      int64_t Want = TreeRef.refreshPotentialReference();
      McfTraits::State Got = Refresh.invoke(TreeSpice.traversalStart());
      if (Got.Checksum != Want) {
        McfOk.store(false);
        return;
      }
      // No incremental propagation: stale potentials force conflict
      // squashes and concurrent recovery chunks.
      TreeSpice.mutate(/*Arcs=*/20, /*Relocations=*/0,
                       /*PropagateNow=*/false);
      TreeRef.mutate(20, 0, false);
    }
  });

  OtterClient.join();
  McfClient.join();
  EXPECT_TRUE(OtterOk.load()) << "otter loop diverged from its oracle";
  EXPECT_TRUE(McfOk.load()) << "mcf loop diverged from its oracle";
  EXPECT_GE(Select.stats().Invocations, 20u);
  EXPECT_GE(Refresh.stats().Invocations, 30u);
  test::checkStatsInvariants(Select.stats());
  test::checkStatsInvariants(Refresh.stats());
  test::checkStatsInvariants(RT.schedulerStats());
}

// Same two-client scenario on a deliberately starved pool (NumThreads=2,
// one worker): sessions must take turns leasing the single lane without
// deadlock or corruption.
TEST(SpiceRuntime, ConcurrentClientsShareASingleWorker) {
  SpiceRuntime RT(/*NumThreads=*/2);
  OtterTraits OtterA, OtterB;
  auto LoopA = RT.makeLoop(OtterA);
  auto LoopB = RT.makeLoop(OtterB);

  std::atomic<bool> AOk{true}, BOk{true};
  auto Client = [](decltype(LoopA) &Loop, uint64_t Seed,
                   std::atomic<bool> &Ok) {
    ClauseList List(300, Seed);
    for (int I = 0; I != 25 && List.head(); ++I) {
      Clause *Expected = List.findLightestReference();
      OtterTraits::State Got = Loop.invoke(List.head());
      if (Got.MinClause != Expected) {
        Ok.store(false);
        return;
      }
      List.mutate(Got.MinClause, 2);
    }
  };
  std::thread TA([&] { Client(LoopA, 85, AOk); });
  std::thread TB([&] { Client(LoopB, 86, BOk); });
  TA.join();
  TB.join();
  EXPECT_TRUE(AOk.load());
  EXPECT_TRUE(BOk.load());
}

//===----------------------------------------------------------------------===//
// Paper-protocol fixed point: golden stats of a sole loop
//===----------------------------------------------------------------------===//

namespace {

/// Runs the stable-list otter workload (no churn: fully deterministic
/// stats, no timing-dependent squash counters) and returns the stats.
template <typename LoopT> SpiceStats runStableOtter(LoopT &Loop) {
  ClauseList List(600, 5);
  for (int I = 0; I != 10; ++I) {
    typename OtterTraits::State Got = Loop.invoke(List.head());
    EXPECT_EQ(Got.MinClause, List.findLightestReference());
  }
  return Loop.stats();
}

/// runStableOtter's stats on 4 threads at \p K chunks per thread -- the
/// values the retired private-pool-per-loop constructor produced too:
/// one sequential bootstrap invocation, then nine fully speculative ones
/// of 4K-1 chunks on 3 leased lanes each. Every unset counter is 0.
SpiceStats stableOtterGolden(unsigned K) {
  SpiceStats G;
  G.Invocations = 10;
  G.SequentialInvocations = 1;
  G.FullySpeculativeInvocations = 9;
  G.TotalIterations = 6000;
  G.LaunchedSpecThreads = K == 1 ? 27 : 135;
  G.GrantedLanes = 27;
  G.ImbalanceSum = K == 1 ? 9.68 : 9.64;
  G.ImbalanceSamples = 9;
  G.ChunkImbalanceSum = K == 1 ? 9.68 : 11.386666666666667;
  G.ChunkImbalanceSamples = 9;
  return G;
}

/// Field-by-field comparison against the golden stats. Under
/// oversubscription the steal/help counters depend on timing and are
/// exempt; everything else is deterministic on a stable list.
void expectStatsEqual(const SpiceStats &A, const SpiceStats &B,
                      bool Oversubscribed) {
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.MisspeculatedInvocations, B.MisspeculatedInvocations);
  EXPECT_EQ(A.FullySpeculativeInvocations, B.FullySpeculativeInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.SquashedThreads, B.SquashedThreads);
  EXPECT_EQ(A.LaunchedSpecThreads, B.LaunchedSpecThreads);
  EXPECT_EQ(A.ConflictSquashes, B.ConflictSquashes);
  EXPECT_EQ(A.RecoveryIterations, B.RecoveryIterations);
  EXPECT_EQ(A.WastedIterations, B.WastedIterations);
  if (!Oversubscribed) {
    EXPECT_EQ(A.StolenChunks, B.StolenChunks);
    EXPECT_EQ(A.MainHelpedChunks, B.MainHelpedChunks);
    EXPECT_EQ(A.LocalSteals, B.LocalSteals);
  }
  EXPECT_EQ(A.RecoveryChunks, B.RecoveryChunks);
  EXPECT_EQ(A.StolenRecoveryChunks, B.StolenRecoveryChunks);
  EXPECT_EQ(A.RemoteSteals, B.RemoteSteals);
  // A sole client is always granted immediately (0 queued micros).
  EXPECT_EQ(A.QueuedMicros, B.QueuedMicros);
  EXPECT_EQ(A.GrantedLanes, B.GrantedLanes);
  EXPECT_DOUBLE_EQ(A.ImbalanceSum, B.ImbalanceSum);
  EXPECT_EQ(A.ImbalanceSamples, B.ImbalanceSamples);
  EXPECT_DOUBLE_EQ(A.ChunkImbalanceSum, B.ChunkImbalanceSum);
  EXPECT_EQ(A.ChunkImbalanceSamples, B.ChunkImbalanceSamples);
}

} // namespace

TEST(SpiceRuntime, StableOtterStatsMatchPaperProtocolGolden) {
  // ChunksPerThread == 1 is the paper's protocol; 4 oversubscribes it.
  for (unsigned K : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "ChunksPerThread = " << K);
    OtterTraits Traits;
    SpiceRuntime RT(/*NumThreads=*/4);
    LoopOptions Opts;
    Opts.ChunksPerThread = K;
    auto Loop = RT.makeLoop(Traits, Opts);
    expectStatsEqual(runStableOtter(Loop), stableOtterGolden(K),
                     /*Oversubscribed=*/K > 1);
  }
}

//===----------------------------------------------------------------------===//
// Lane hand-offs: lanes leave at empty, the resolver runs late requeues
//===----------------------------------------------------------------------===//

TEST(SpiceRuntime, SubmitStormFromTwoClientsOnTwoWorkers) {
  // Back-to-back submit().get() from two clients on a 2-worker pool: every
  // round trip wakes the leased lanes, which leave once their deques are
  // empty, and the resolver spins or parks on done words and on the
  // session countdown. A lost wake-up hangs here; a torn hand-off shows
  // as a wrong sum.
  constexpr int64_t Trip = 256;
  constexpr int PerClient = 10000;
  SpiceRuntime RT(/*NumThreads=*/3);
  auto MakeCount = [&] {
    return LoopBuilder<int64_t, uint64_t>()
        .step([](int64_t &I, uint64_t &S, SpecSpace &) {
          if (I >= Trip)
            return false;
          S += static_cast<uint64_t>(I);
          ++I;
          return true;
        })
        .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
        .build(RT);
  };
  auto A = MakeCount();
  auto B = MakeCount();
  const uint64_t Want = A.runSequentialReference(0);
  ASSERT_EQ(Want, static_cast<uint64_t>(Trip * (Trip - 1) / 2));
  std::atomic<int> Wrong{0};
  auto Client = [&](decltype(A) &Loop) {
    for (int I = 0; I != PerClient; ++I)
      if (Loop.submit(0).get() != Want)
        Wrong.fetch_add(1);
  };
  std::thread TA([&] { Client(A); });
  std::thread TB([&] { Client(B); });
  TA.join();
  TB.join();
  EXPECT_EQ(Wrong.load(), 0);
  EXPECT_EQ(A.stats().Invocations + B.stats().Invocations, 2u * PerClient);
  EXPECT_GT(A.stats().LaunchedSpecThreads, 0u) << "the storm ran parallel";
  EXPECT_EQ(RT.pool().busyWorkers(), 0u);
  EXPECT_EQ(RT.scheduler().freeWorkers(), 2u);
  test::checkStatsInvariants(A.stats());
  test::checkStatsInvariants(B.stats());
  test::checkStatsInvariants(RT.schedulerStats());
}

namespace {

/// The conflict loop of the two tests below, at k = 2 with conflict
/// detection: every iteration reads one shared cell through the
/// SpecSpace, and iteration 0 -- chunk 0's, on the client thread --
/// writes it, after waiting (bounded) for Ready() once Armed. A
/// speculative chunk that read the cell before that write fails
/// commit-time read validation on every schedule; it is requeued from
/// its validated start, and the re-execution reads the written value.
struct ConflictCell {
  static constexpr int64_t Trip = 4096;
  /// Sum over iterations of I plus the cell (1 once written).
  static constexpr uint64_t Want = Trip * (Trip - 1) / 2 + Trip;

  ConflictCell(SpiceRuntime &RT, std::function<bool()> Ready)
      : Ready(std::move(Ready)), Client(std::this_thread::get_id()),
        Loop(build(RT)) {}

  /// One oracle-checked invocation with the cell and StaleReads reset.
  void invoke() {
    Cell = 0;
    StaleReads = 0;
    EXPECT_EQ(Loop.invoke(0), Want);
  }

  int64_t Cell = 0;
  bool Armed = false;
  std::function<bool()> Ready;
  const std::thread::id Client;
  /// Speculative reads that saw the cell unwritten, this invocation.
  std::atomic<unsigned> StaleReads{0};
  /// Speculative reads of the written cell -- recovery executions -- on
  /// a thread other than the client's.
  std::atomic<unsigned> OffClientFreshReads{0};
  LambdaLoop<int64_t, uint64_t> Loop;

private:
  LambdaLoop<int64_t, uint64_t> build(SpiceRuntime &RT) {
    LoopOptions O;
    O.ChunksPerThread = 2;
    O.EnableConflictDetection = true;
    return LoopBuilder<int64_t, uint64_t>()
        .step([this](int64_t &I, uint64_t &S, SpecSpace &Mem) {
          if (I >= Trip)
            return false;
          if (I == 0) {
            const auto Deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (Armed && !Ready() &&
                   std::chrono::steady_clock::now() < Deadline)
              std::this_thread::yield();
            Mem.write(&Cell, int64_t{1});
          }
          const int64_t V = Mem.read(&Cell);
          if (Mem.isSpeculative() && V == 0)
            StaleReads.fetch_add(1, std::memory_order_relaxed);
          else if (Mem.isSpeculative() && std::this_thread::get_id() != Client)
            OffClientFreshReads.fetch_add(1, std::memory_order_relaxed);
          S += static_cast<uint64_t>(I) + static_cast<uint64_t>(V);
          ++I;
          return true;
        })
        .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
        .options(O)
        .build(RT);
  }
};

} // namespace

TEST(LoopBuilder, StaleReadConflictRecoversThroughARequeuedChunk) {
  // One worker: chunk 1 is the first chunk its lane runs, so the first
  // stale read is chunk 1's, and chunk 0 writes the cell only after it.
  SpiceRuntime RT(/*NumThreads=*/2);
  ConflictCell C(RT, [&] { return C.StaleReads.load() > 0; });
  C.invoke(); // Sequential bootstrap: seeds the predictions.
  C.Armed = true;
  constexpr unsigned Rounds = 4;
  for (unsigned R = 0; R != Rounds; ++R)
    C.invoke();
  const SpiceStats &S = C.Loop.stats();
  EXPECT_GE(S.ConflictSquashes, Rounds)
      << "chunk 1's stale read must fail validation every invocation";
  EXPECT_GE(S.RecoveryChunks, Rounds)
      << "k = 2 recovers through requeued chunks, not a serial replay";
  EXPECT_GT(S.RecoveryIterations, 0u);
  EXPECT_EQ(S.MisspeculatedInvocations, Rounds);
}

TEST(LoopBuilder, ResolverRunsARequeuePushedAfterEveryLaneLeft) {
  // Chunk 0 writes the cell only once both lanes have left the job, so
  // every speculative chunk read it stale and every recovery requeue is
  // pushed with no lane left to take it: the resolver must run them all
  // (a lane parked inside the session would be needed otherwise), and
  // the steal accounting identity must still hold.
  SpiceRuntime RT(/*NumThreads=*/3);
  // The lanes were woken at the grant, before chunk 0 started, so no
  // busy worker means both have run out of chunks and left.
  ConflictCell C(RT, [&] { return RT.pool().busyWorkers() == 0; });
  C.invoke();
  C.Armed = true;
  constexpr unsigned Rounds = 3;
  for (unsigned R = 0; R != Rounds; ++R)
    C.invoke();
  const SpiceStats &S = C.Loop.stats();
  EXPECT_GE(S.RecoveryChunks, Rounds);
  EXPECT_EQ(S.ConflictSquashes, S.RecoveryChunks);
  EXPECT_EQ(S.MainHelpedChunks, S.RecoveryChunks)
      << "only the resolver may run a requeue pushed after the lanes left";
  EXPECT_EQ(S.StolenRecoveryChunks, S.RecoveryChunks);
  EXPECT_EQ(C.OffClientFreshReads.load(), 0u);
  EXPECT_EQ(S.LocalSteals + S.RemoteSteals,
            S.StolenChunks - S.MainHelpedChunks);
}

//===----------------------------------------------------------------------===//
// LoopBuilder: the lambda front-end
//===----------------------------------------------------------------------===//

namespace {

struct BuilderNode {
  long Value;
  BuilderNode *Next;
};

} // namespace

TEST(LoopBuilder, ListMinMatchesReference) {
  std::vector<BuilderNode> Arena(5000);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {static_cast<long>((I * 2654435761u) % 1000003), Head};
    Head = &Arena[I];
  }

  SpiceRuntime RT(/*NumThreads=*/4);
  auto Min =
      LoopBuilder<BuilderNode *, long>()
          .init([] { return std::numeric_limits<long>::max(); })
          .step([](BuilderNode *&N, long &Best, SpecSpace &) {
            if (!N)
              return false;
            Best = std::min(Best, N->Value);
            N = N->Next;
            return true;
          })
          .combine(
              [](long &Into, long &&Chunk) { Into = std::min(Into, Chunk); })
          .build(RT);
  EXPECT_EQ(RT.numLoops(), 1u);

  long Want = std::numeric_limits<long>::max();
  for (const BuilderNode &N : Arena)
    Want = std::min(Want, N.Value);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Min.invoke(Head), Want) << "invocation " << I;
  EXPECT_EQ(Min.stats().Invocations, 5u);
  EXPECT_EQ(Min.stats().SequentialInvocations, 1u);
  EXPECT_EQ(Min.stats().MisspeculatedInvocations, 0u);
}

TEST(LoopBuilder, WeightInstallsWeightedWorkMetric) {
  std::vector<BuilderNode> Arena(2000);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {static_cast<long>(I % 97), Head};
    Head = &Arena[I];
  }

  SpiceRuntime RT(/*NumThreads=*/4);
  auto Sum =
      LoopBuilder<BuilderNode *, uint64_t>()
          .step([](BuilderNode *&N, uint64_t &S, SpecSpace &) {
            if (!N)
              return false;
            S += static_cast<uint64_t>(N->Value);
            N = N->Next;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .weight([](BuilderNode *const &N) {
            // Weighed before the exit check: N is null on the last call.
            return N ? static_cast<uint64_t>(1 + N->Value % 7) : 1;
          })
          .build(RT);
  EXPECT_TRUE(Sum.options().UseWeightedWork)
      << ".weight(...) must switch the loop to the weighted metric";

  uint64_t Want = 0;
  for (const BuilderNode &N : Arena)
    Want += static_cast<uint64_t>(N.Value);
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(Sum.invoke(Head), Want);
}

TEST(LoopBuilder, ThrowingStepDoesNotPoisonThePoolOrTheHandle) {
  // A user callable that throws during a parallel invocation must leave
  // the shared pool quiescent (lanes joined and released) and the loop
  // handle reusable. The throw is restricted to the client thread, i.e.
  // the non-speculative chunk 0 -- workers have no unwind path by
  // design, like the paper's pre-allocated threads.
  SpiceRuntime RT(/*NumThreads=*/4);
  const std::thread::id MainId = std::this_thread::get_id();
  bool Armed = false;
  auto Sum =
      LoopBuilder<int64_t, uint64_t>()
          .step([&](int64_t &I, uint64_t &S, SpecSpace &) {
            if (Armed && std::this_thread::get_id() == MainId)
              throw std::runtime_error("client bug");
            if (I >= 4096)
              return false;
            S += static_cast<uint64_t>(I);
            ++I;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .build(RT);

  const uint64_t Want = 4096ull * 4095 / 2;
  EXPECT_EQ(Sum.invoke(0), Want); // Bootstrap (sequential).
  Armed = true;                   // Chunk 0 of the next invocation throws.
  EXPECT_THROW(Sum.invoke(0), std::runtime_error);
  EXPECT_EQ(RT.scheduler().freeWorkers(), 3u)
      << "the unwound invocation must release its leased lanes";
  Armed = false;
  EXPECT_EQ(Sum.invoke(0), Want) << "handle must stay usable after the "
                                    "exception";
}

// Misuse diagnostics fire in every build type (reportFatalError, not
// assert): a builder misassembled here would otherwise surface as an
// opaque bad_function_call deep inside an invocation. The aliases keep
// template-argument commas out of the EXPECT_DEATH macro arguments.
namespace {
using CountBuilder = LoopBuilder<int64_t, uint64_t>;
using CountStepFn = std::function<bool(int64_t &, uint64_t &, SpecSpace &)>;
} // namespace

TEST(LoopBuilderDeathTest, BuildWithoutStepDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/2);
        auto L = CountBuilder()
                     .combine([](uint64_t &A, uint64_t &&B) { A += B; })
                     .build(RT);
      },
      "step.*mandatory");
}

TEST(LoopBuilderDeathTest, BuildWithoutCombineDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/2);
        auto L = CountBuilder()
                     .step([](int64_t &, uint64_t &, SpecSpace &) {
                       return false;
                     })
                     .build(RT);
      },
      "combine.*mandatory");
}

TEST(LoopBuilderDeathTest, DoubleInitDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CountBuilder()
            .init([] { return uint64_t{0}; })
            .init([] { return uint64_t{1}; });
      },
      "init set twice");
}

TEST(LoopBuilderDeathTest, DoubleStepDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto Step = [](int64_t &, uint64_t &, SpecSpace &) { return false; };
  EXPECT_DEATH({ CountBuilder().step(Step).step(Step); },
               "step set twice");
}

TEST(LoopBuilderDeathTest, NullCallableDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ CountBuilder().step(CountStepFn{}); }, "null callable");
}

TEST(LoopBuilder, DefaultInitValueInitializesState) {
  std::vector<BuilderNode> Arena(512);
  BuilderNode *Head = nullptr;
  for (size_t I = 0; I != Arena.size(); ++I) {
    Arena[I] = {1, Head};
    Head = &Arena[I];
  }
  SpiceRuntime RT(/*NumThreads=*/2);
  auto Count =
      LoopBuilder<BuilderNode *, uint64_t>()
          .step([](BuilderNode *&N, uint64_t &S, SpecSpace &) {
            if (!N)
              return false;
            ++S;
            N = N->Next;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .build(RT);
  for (int I = 0; I != 3; ++I)
    EXPECT_EQ(Count.invoke(Head), Arena.size());
}
