//===- tests/scheduler_test.cpp - Submission API + lane scheduler ---------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The asynchronous submission surface (SpiceLoop::submit / SpiceFuture)
// and the cross-loop lane Scheduler behind it: the pure planGrants policy
// core (first-come, fair-share splitting, priority with starvation
// aging), the lease ledger's grant pass (lanes a node trim frees reach a
// queued request in the same pass), submit().get() equivalence with
// invoke(), exception
// propagation through futures, fair-share liveness under client
// contention (run under TSan in CI), and the loud-failure diagnostics
// (submit-then-destroy-runtime, nested submission self-deadlock,
// futures resolved out of submission order).
//
// The serving layer on top of that surface is covered here too:
// batched submission (SpiceLoop::submitBatch / SpiceBatchFuture --
// N-invocation equivalence through one admission, per-element
// exception isolation, abandoned batches releasing their lease) and
// bounded admission (a queue cap with OverloadPolicy::Reject /
// DeadlineDrop shedding counted in SchedulerStats, and Block parking
// submitters until grants make room -- the Block test runs real client
// threads and is a TSan target like the fair-share one).
//
//===----------------------------------------------------------------------===//

#include "StatsIdentities.h"
#include "core/LoopBuilder.h"
#include "core/Scheduler.h"
#include "core/SpiceFuture.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "topology/Placement.h"
#include "topology/Topology.h"
#include "workloads/Otter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

/// Deterministic fixed-trip counting loop: sum of 0..Trip-1.
struct CountTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };
  int64_t Trip = 20000;

  State initialState() { return {}; }
  bool step(LiveIn &I, State &S, SpecSpace &) {
    if (I >= Trip)
      return false;
    S.Sum += static_cast<uint64_t>(I);
    ++I;
    return true;
  }
  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }

  uint64_t expected() const {
    return static_cast<uint64_t>(Trip) * static_cast<uint64_t>(Trip - 1) /
           2;
  }
};

using Candidates = std::vector<Scheduler::Candidate>;

/// Keeps template-argument commas out of EXPECT_DEATH macro arguments.
using CountBuilder = LoopBuilder<int64_t, uint64_t>;

} // namespace

//===----------------------------------------------------------------------===//
// planGrants: the pure policy core
//===----------------------------------------------------------------------===//

TEST(PlanGrants, FirstComeHeadTakesEverythingItAskedFor) {
  Candidates Q = {{3, 0, 0}, {3, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 3, LanePolicy::FirstCome, 0);
  ASSERT_EQ(Plan.size(), 1u);
  EXPECT_EQ(Plan[0].Index, 0u);
  EXPECT_EQ(Plan[0].Lanes, 3u) << "first-come monopolizes by design";
}

TEST(PlanGrants, FirstComeLeftoverLanesFlowToLaterRequests) {
  Candidates Q = {{2, 0, 0}, {3, 0, 0}, {1, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 4, LanePolicy::FirstCome, 0);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Lanes, 2u);
  EXPECT_EQ(Plan[1].Index, 1u);
  EXPECT_EQ(Plan[1].Lanes, 2u) << "second request gets what is left";
}

TEST(PlanGrants, FairShareSplitsInsteadOfMonopolizing) {
  Candidates Q = {{3, 0, 0}, {3, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 3, LanePolicy::FairShare, 0);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Lanes, 2u);
  EXPECT_EQ(Plan[1].Lanes, 1u)
      << "a wide invocation no longer takes the whole pool";
}

TEST(PlanGrants, FairShareMoreQueuedThanLanesAdmitsOldestMinOneEach) {
  Candidates Q = {{2, 0, 0}, {2, 0, 0}, {2, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 2, LanePolicy::FairShare, 0);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Index, 0u);
  EXPECT_EQ(Plan[0].Lanes, 1u);
  EXPECT_EQ(Plan[1].Index, 1u);
  EXPECT_EQ(Plan[1].Lanes, 1u)
      << "the newest request stays queued, not starved forever: it "
         "ages to the queue head as older ones resolve";
}

TEST(PlanGrants, FairShareIsProportionalToRequests) {
  Candidates Q = {{8, 0, 0}, {1, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 4, LanePolicy::FairShare, 0);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Lanes, 3u);
  EXPECT_EQ(Plan[1].Lanes, 1u);
}

TEST(PlanGrants, FairShareNeverGrantsBeyondARequest) {
  Candidates Q = {{2, 0, 0}, {2, 0, 0}};
  auto Plan = Scheduler::planGrants(Q, 8, LanePolicy::FairShare, 0);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Lanes, 2u);
  EXPECT_EQ(Plan[1].Lanes, 2u);
}

TEST(PlanGrants, PriorityIsStrictWithoutAging) {
  Candidates Q = {{2, /*Priority=*/0, /*QueuedMicros=*/50000},
                  {2, /*Priority=*/5, /*QueuedMicros=*/0}};
  auto Plan =
      Scheduler::planGrants(Q, 2, LanePolicy::Priority, /*AgingStep=*/0);
  ASSERT_EQ(Plan.size(), 1u);
  EXPECT_EQ(Plan[0].Index, 1u) << "higher static priority wins; aging "
                                  "disabled with a zero aging step";
  EXPECT_EQ(Plan[0].Lanes, 2u);
}

TEST(PlanGrants, PriorityAgingPromotesStarvedRequests) {
  // Low-priority request queued 10ms, against a fresh priority-5 one:
  // with one aging step per 1000us its effective priority is 0 + 10.
  Candidates Q = {{2, /*Priority=*/0, /*QueuedMicros=*/10000},
                  {2, /*Priority=*/5, /*QueuedMicros=*/0}};
  auto Plan = Scheduler::planGrants(Q, 2, LanePolicy::Priority,
                                    /*AgingStep=*/1000);
  ASSERT_EQ(Plan.size(), 1u);
  EXPECT_EQ(Plan[0].Index, 0u)
      << "queued time must age a starved request past a fresh "
         "higher-priority one";
}

TEST(PlanGrants, PriorityTiesResolveInAdmissionOrder) {
  Candidates Q = {{1, 3, 0}, {1, 3, 0}, {1, 3, 0}};
  auto Plan = Scheduler::planGrants(Q, 2, LanePolicy::Priority, 1000);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].Index, 0u);
  EXPECT_EQ(Plan[1].Index, 1u);
}

TEST(PlanGrants, NoLanesOrNoRequestsPlansNothing) {
  EXPECT_TRUE(
      Scheduler::planGrants({}, 4, LanePolicy::FairShare, 0).empty());
  Candidates Q = {{2, 0, 0}};
  EXPECT_TRUE(
      Scheduler::planGrants(Q, 0, LanePolicy::FairShare, 0).empty());
}

//===----------------------------------------------------------------------===//
// The lease ledger's grant pass
//===----------------------------------------------------------------------===//

TEST(LeaseLedger, TrimFreedLanesReachAQueuedRequestInTheSamePass) {
  // Nodes {2, 2, 1}: one lease of all 5 workers must span (no block
  // covers half of it), so its release frees lanes on every node at
  // once. FairShare plans R1 (8 lanes) 3 lanes and R2, R3 one each, and
  // leaves R4 queued; the lease trims R1 to node 0's block of 2, and the
  // lane that frees reaches R4 in the same pass.
  using namespace spice::topology;
  auto Place = makePlacement(
      PlacementConfig::overrideWith(Topology::fromNodeSizes({2, 2, 1})), 5);
  WorkerPool Pool(5, {}, Place);
  RuntimeConfig C;
  C.Policy = LanePolicy::FairShare;
  Scheduler Sched(Pool, C);
  const std::thread::id Me = std::this_thread::get_id();
  std::vector<Scheduler::SessionHandle> Granted(4);
  Scheduler::SessionHandle Hold = Sched.tryAcquireSessionFor(5, true, Me);
  ASSERT_EQ(Hold->lanes(), 5u) << "the holding lease spans every node";

  for (unsigned I = 0; I != 4; ++I) {
    Scheduler::Request R;
    R.RequestedLanes = I == 0 ? 8 : 1;
    R.Owner = Me;
    R.OnGrant = [&Granted, I](Scheduler::SessionHandle S, uint64_t) {
      Granted[I] = std::move(S);
    };
    ASSERT_NE(Sched.submit(std::move(R)), 0u);
  }
  EXPECT_EQ(Sched.queueDepth(), 4u) << "no lane was free to grant";

  Hold.reset(); // The release runs one grant pass.
  ASSERT_EQ(Sched.queueDepth(), 0u) << "that pass granted every request";
  EXPECT_EQ(Granted[0]->lanes(), 2u) << "trimmed to node 0's block";
  EXPECT_EQ(Granted[0]->laneNode(0), 0u);
  EXPECT_EQ(Granted[0]->laneNode(1), 0u);
  EXPECT_EQ(Granted[1]->laneNode(0), 2u) << "best fit: the 1-lane node";
  EXPECT_EQ(Granted[2]->laneNode(0), 1u);
  EXPECT_EQ(Granted[3]->lanes(), 1u);
  EXPECT_EQ(Granted[3]->laneNode(0), 1u)
      << "the lane the trim freed must not idle while R4 waits";
  EXPECT_EQ(Sched.freeWorkers(), 0u);

  SchedulerStats S = Sched.stats();
  EXPECT_EQ(S.Submitted, 4u);
  EXPECT_EQ(S.ImmediateGrants, 0u);
  EXPECT_EQ(S.DeferredGrants, 4u);
  EXPECT_EQ(S.CappedGrants, 1u) << "only R1 got fewer than min(8, 5)";
  test::checkStatsInvariants(S);
  Granted.clear();
  EXPECT_EQ(Sched.freeWorkers(), 5u);
}

TEST(LeaseLedger, CappedGrantsCountContentionNotRequestWidth) {
  // A k = 2 loop asks one lane per speculative chunk, more than a small
  // pool has: on an idle pool that grant is not capped. It is capped
  // once another lease holds a lane it could have had.
  WorkerPool Pool(3);
  Scheduler Sched(Pool, RuntimeConfig{});
  const std::thread::id Me = std::this_thread::get_id();
  Scheduler::SessionHandle Got;
  auto Wide = [&] {
    Scheduler::Request R;
    R.RequestedLanes = 7;
    R.Owner = Me;
    R.OnGrant = [&Got](Scheduler::SessionHandle S, uint64_t) {
      Got = std::move(S);
    };
    return R;
  };
  ASSERT_NE(Sched.submit(Wide()), 0u);
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->lanes(), 3u);
  EXPECT_EQ(Sched.stats().CappedGrants, 0u) << "the whole pool is no cap";
  Got.reset();

  Scheduler::SessionHandle Other = Sched.tryAcquireSessionFor(1, true, Me);
  ASSERT_NE(Sched.submit(Wide()), 0u);
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->lanes(), 2u);
  EXPECT_EQ(Sched.stats().CappedGrants, 1u) << "a held lane is contention";
  Got.reset();
  test::checkStatsInvariants(Sched.stats());
}

//===----------------------------------------------------------------------===//
// SpiceFuture: submission semantics
//===----------------------------------------------------------------------===//

TEST(SubmitFuture, FirstSubmissionRunsSequentiallyInGet) {
  SpiceRuntime RT(/*NumThreads=*/4);
  CountTraits T;
  auto Loop = RT.makeLoop(T);
  SpiceFuture<CountTraits::State> F = Loop.submit(0);
  EXPECT_TRUE(F.valid());
  EXPECT_FALSE(F.ready()) << "nothing runs until the future is driven "
                             "(no predictions yet: sequential pending)";
  EXPECT_EQ(F.get().Sum, T.expected());
  EXPECT_FALSE(F.valid()) << "get() consumes the handle";
  EXPECT_EQ(Loop.stats().SequentialInvocations, 1u);
  EXPECT_EQ(Loop.stats().QueuedMicros, 0u);
}

TEST(SubmitFuture, SubmitGetMatchesInvokeResultsAndStats) {
  // invoke() is submit().get(); driving the future explicitly must be
  // bit-for-bit identical, stats included (QueuedMicros stays 0: every
  // sole-client grant is immediate).
  OtterTraits TInvoke, TSubmit;
  SpiceRuntime RTInvoke(/*NumThreads=*/4), RTSubmit(/*NumThreads=*/4);
  auto LoopInvoke = RTInvoke.makeLoop(TInvoke);
  auto LoopSubmit = RTSubmit.makeLoop(TSubmit);

  ClauseList ListA(600, 5), ListB(600, 5);
  for (int I = 0; I != 10; ++I) {
    OtterTraits::State A = LoopInvoke.invoke(ListA.head());
    SpiceFuture<OtterTraits::State> F = LoopSubmit.submit(ListB.head());
    OtterTraits::State B = F.get();
    ASSERT_EQ(A.MinWeight, B.MinWeight);
  }
  const SpiceStats &A = LoopInvoke.stats(), &B = LoopSubmit.stats();
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.LaunchedSpecThreads, B.LaunchedSpecThreads);
  EXPECT_EQ(A.MisspeculatedInvocations, B.MisspeculatedInvocations);
  EXPECT_EQ(A.GrantedLanes, B.GrantedLanes);
  EXPECT_EQ(A.QueuedMicros, 0u);
  EXPECT_EQ(B.QueuedMicros, 0u);
  EXPECT_EQ(B.GrantedLanes, 9u * 3u)
      << "9 parallel invocations x 3 lanes on an uncontended pool";
  SchedulerStats S = RTSubmit.schedulerStats();
  EXPECT_EQ(S.Submitted, 9u);
  EXPECT_EQ(S.ImmediateGrants, 9u);
  EXPECT_EQ(S.DeferredGrants, 0u);
}

TEST(SubmitFuture, AbandonedFutureCompletesTheInvocation) {
  SpiceRuntime RT(/*NumThreads=*/4);
  CountTraits T;
  auto Loop = RT.makeLoop(T);
  { SpiceFuture<CountTraits::State> F = Loop.submit(0); }
  // The destructor drove the invocation: the handle is reusable and the
  // pool quiescent.
  EXPECT_EQ(Loop.stats().Invocations, 1u);
  EXPECT_EQ(RT.scheduler().freeWorkers(), 3u);
  EXPECT_EQ(Loop.invoke(0).Sum, T.expected());
}

TEST(SubmitFuture, ThrowingStepSurfacesThroughGet) {
  // A client callable throwing in the non-speculative chunk 0 must
  // surface through SpiceFuture::get(), release the leased lanes, and
  // leave the handle reusable. wait() absorbs (get() rethrows).
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
  Armed = true;
  SpiceFuture<uint64_t> F = Sum.submit(0);
  F.wait(); // Drives chunk 0 into the throw; absorbs it.
  EXPECT_TRUE(F.ready());
  EXPECT_THROW(F.get(), std::runtime_error);
  EXPECT_EQ(RT.scheduler().freeWorkers(), 3u)
      << "the unwound invocation must release its leased lanes";
  Armed = false;
  EXPECT_EQ(Sum.submit(0).get(), Want)
      << "handle must stay usable after the exception";
}

TEST(SubmitFuture, TwoLoopsOverlapFromOneClientThread) {
  // The async showcase: submit A (granted every free lane), submit B
  // (queued), then resolve in order. B's grant is deferred until A's
  // resolution releases the lanes, so B's speculative chunks overlap
  // A's bookkeeping and B's own chunk-0 drive.
  SpiceRuntime RT(/*NumThreads=*/4);
  CountTraits TA, TB;
  auto LoopA = RT.makeLoop(TA);
  auto LoopB = RT.makeLoop(TB);
  // Warm both so submissions request lanes.
  EXPECT_EQ(LoopA.invoke(0).Sum, TA.expected());
  EXPECT_EQ(LoopB.invoke(0).Sum, TB.expected());

  for (int Round = 0; Round != 5; ++Round) {
    auto FA = LoopA.submit(0);
    auto FB = LoopB.submit(0);
    EXPECT_FALSE(FB.ready());
    EXPECT_EQ(FA.get().Sum, TA.expected());
    EXPECT_EQ(FB.get().Sum, TB.expected());
  }
  EXPECT_GT(LoopB.stats().QueuedMicros, 0u)
      << "B was always admitted while A held the pool: deferred grants "
         "must accumulate queue time";
  EXPECT_EQ(LoopA.stats().QueuedMicros, 0u)
      << "A always found a free pool: immediate grants cost 0";
  SchedulerStats S = RT.schedulerStats();
  EXPECT_GE(S.DeferredGrants, 5u);
  EXPECT_GE(S.ImmediateGrants, 5u);
  EXPECT_EQ(S.TotalQueuedMicros, LoopB.stats().QueuedMicros);
  test::checkStatsInvariants(S);
}

//===----------------------------------------------------------------------===//
// Fair share under real client contention (TSan target)
//===----------------------------------------------------------------------===//

TEST(LaneScheduler, FairShareTwoClientsBothProgressOnAStarvedPool) {
  // Two loops, two client threads, a pool too small to serve both fully
  // (2 workers; each parallel invocation wants 2 lanes). Under FairShare
  // every queued invocation gets at least one lane, so both clients make
  // continuous progress and every result stays correct.
  RuntimeConfig C;
  C.NumThreads = 3;
  C.Policy = LanePolicy::FairShare;
  SpiceRuntime RT(C);
  OtterTraits OtterA, OtterB;
  auto LoopA = RT.makeLoop(OtterA);
  auto LoopB = RT.makeLoop(OtterB);

  std::atomic<bool> AOk{true}, BOk{true};
  auto Client = [](decltype(LoopA) &Loop, uint64_t Seed,
                   std::atomic<bool> &Ok) {
    ClauseList List(400, Seed);
    for (int I = 0; I != 30 && List.head(); ++I) {
      Clause *Expected = List.findLightestReference();
      SpiceFuture<OtterTraits::State> F = Loop.submit(List.head());
      OtterTraits::State Got = F.get();
      if (Got.MinClause != Expected) {
        Ok.store(false);
        return;
      }
      List.mutate(Got.MinClause, 2);
    }
  };
  std::thread TA([&] { Client(LoopA, 87, AOk); });
  std::thread TB([&] { Client(LoopB, 88, BOk); });
  TA.join();
  TB.join();
  EXPECT_TRUE(AOk.load()) << "loop A diverged from its oracle";
  EXPECT_TRUE(BOk.load()) << "loop B diverged from its oracle";
  EXPECT_EQ(LoopA.stats().Invocations, 30u);
  EXPECT_EQ(LoopB.stats().Invocations, 30u);
  SchedulerStats S = RT.schedulerStats();
  EXPECT_GT(S.Submitted, 0u);
  EXPECT_EQ(S.ImmediateGrants + S.DeferredGrants, S.Submitted)
      << "every admitted request must eventually be granted";
  test::checkStatsInvariants(LoopA.stats());
  test::checkStatsInvariants(LoopB.stats());
  test::checkStatsInvariants(S);
}

TEST(LaneScheduler, PriorityPolicyRuntimeStaysCorrectUncontended) {
  RuntimeConfig C;
  C.NumThreads = 4;
  C.Policy = LanePolicy::Priority;
  SpiceRuntime RT(C);
  CountTraits T;
  LoopOptions High;
  High.Priority = 7;
  auto Loop = RT.makeLoop(T, High);
  for (int I = 0; I != 4; ++I)
    EXPECT_EQ(Loop.invoke(0).Sum, T.expected());
  EXPECT_EQ(RT.schedulerStats().ImmediateGrants, 3u);
  test::checkStatsInvariants(Loop.stats());
  test::checkStatsInvariants(RT.schedulerStats());
}

//===----------------------------------------------------------------------===//
// SpiceBatchFuture: batched submission
//===----------------------------------------------------------------------===//

TEST(BatchFuture, BatchMatchesNSoloSubmissionsThroughOneAdmission) {
  // The serving-layer amortization claim, checked for exactness: a batch
  // of 8 must produce bit-identical results and loop stats to 8 solo
  // submissions -- while making ONE trip through the scheduler where the
  // solo client makes 8.
  CountTraits TSolo, TBatch;
  SpiceRuntime RTSolo(/*NumThreads=*/4), RTBatch(/*NumThreads=*/4);
  auto Solo = RTSolo.makeLoop(TSolo);
  auto Batch = RTBatch.makeLoop(TBatch);
  EXPECT_EQ(Solo.invoke(0).Sum, TSolo.expected()); // Warm (sequential).
  EXPECT_EQ(Batch.invoke(0).Sum, TBatch.expected());

  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(Solo.submit(0).get().Sum, TSolo.expected());
  std::vector<int64_t> Starts(8, 0);
  SpiceBatchFuture<CountTraits::State> F = Batch.submitBatch(Starts);
  EXPECT_TRUE(F.valid());
  EXPECT_EQ(F.size(), 8u);
  std::vector<CountTraits::State> Out = F.take();
  EXPECT_FALSE(F.valid()) << "take() consumes the handle";
  ASSERT_EQ(Out.size(), 8u);
  for (const CountTraits::State &S : Out)
    EXPECT_EQ(S.Sum, TBatch.expected());

  const SpiceStats &A = Solo.stats(), &B = Batch.stats();
  EXPECT_EQ(A.Invocations, B.Invocations);
  EXPECT_EQ(A.SequentialInvocations, B.SequentialInvocations);
  EXPECT_EQ(A.TotalIterations, B.TotalIterations);
  EXPECT_EQ(A.GrantedLanes, B.GrantedLanes)
      << "every batch element re-launches the same leased lanes";
  SchedulerStats SA = RTSolo.schedulerStats();
  SchedulerStats SB = RTBatch.schedulerStats();
  EXPECT_EQ(SA.Submitted, 8u);
  EXPECT_EQ(SB.Submitted, 1u) << "one admission covers the whole batch";
  EXPECT_EQ(SB.ImmediateGrants, 1u);
  EXPECT_EQ(SB.HighWaterQueueDepth, 8u)
      << "queue depth is weighted: a batch counts as its size";
  test::checkStatsInvariants(A);
  test::checkStatsInvariants(B);
  test::checkStatsInvariants(SA);
  test::checkStatsInvariants(SB);
}

TEST(BatchFuture, EmptyBatchIsInvalidAndTouchesNothing) {
  SpiceRuntime RT(/*NumThreads=*/4);
  CountTraits T;
  auto Loop = RT.makeLoop(T);
  std::vector<int64_t> None;
  SpiceBatchFuture<CountTraits::State> F = Loop.submitBatch(None);
  EXPECT_FALSE(F.valid());
  EXPECT_EQ(F.size(), 0u);
  F.wait(); // No-op, not a crash.
  EXPECT_EQ(Loop.stats().Invocations, 0u);
  EXPECT_EQ(Loop.invoke(0).Sum, T.expected())
      << "the handle was never marked in flight";
}

TEST(BatchFuture, AbandonedBatchReleasesItsLeaseExactlyOnce) {
  // The destructor drives the whole batch: no leaked lanes, no
  // double-abort, and the runtime tears down cleanly afterwards (its
  // destructor dies loudly on any unresolved submission).
  SpiceRuntime RT(/*NumThreads=*/4);
  CountTraits T;
  auto Loop = RT.makeLoop(T);
  EXPECT_EQ(Loop.invoke(0).Sum, T.expected()); // Warm.
  std::vector<int64_t> Starts(4, 0);
  { SpiceBatchFuture<CountTraits::State> F = Loop.submitBatch(Starts); }
  EXPECT_EQ(Loop.stats().Invocations, 5u);
  EXPECT_EQ(RT.scheduler().freeWorkers(), 3u)
      << "the abandoned batch must return its leased lanes";
  EXPECT_EQ(Loop.invoke(0).Sum, T.expected())
      << "handle must stay usable after the abandonment";
}

TEST(BatchFuture, ElementExceptionDoesNotShedTheRestOfTheBatch) {
  // One element's Traits callable throwing (always on the driving
  // thread: workers have no unwind path) is isolated to that element --
  // earlier and later elements still execute and their results are
  // retrievable, and the lane lease survives the unwind.
  SpiceRuntime RT(/*NumThreads=*/4);
  const std::thread::id MainId = std::this_thread::get_id();
  auto Sum =
      CountBuilder()
          .step([&](int64_t &I, uint64_t &S, SpecSpace &) {
            if (I < 0 && std::this_thread::get_id() == MainId)
              throw std::runtime_error("client bug in element");
            if (I >= 4096)
              return false;
            S += static_cast<uint64_t>(I);
            ++I;
            return true;
          })
          .combine([](uint64_t &Into, uint64_t &&Chunk) { Into += Chunk; })
          .build(RT);
  const uint64_t Want = 4096ull * 4095 / 2;
  EXPECT_EQ(Sum.invoke(0), Want); // Warm (sequential).

  std::vector<int64_t> Starts = {0, -1, 0}; // Element 1 throws.
  SpiceBatchFuture<uint64_t> F = Sum.submitBatch(Starts);
  EXPECT_EQ(F.get(0), Want);
  EXPECT_THROW(F.get(1), std::runtime_error);
  EXPECT_EQ(F.get(2), Want)
      << "an element after the throwing one must still have executed";
  F = SpiceBatchFuture<uint64_t>(); // Consume leftovers via abandon.
  EXPECT_EQ(RT.scheduler().freeWorkers(), 3u)
      << "the unwound element must not leak the batch's lane lease";

  // take() surfaces the first stored exception after the whole batch ran.
  SpiceBatchFuture<uint64_t> G = Sum.submitBatch(std::vector<int64_t>{-1, 0});
  EXPECT_THROW(G.take(), std::runtime_error);
}

//===----------------------------------------------------------------------===//
// Bounded admission: queue caps and overload policies (TSan target)
//===----------------------------------------------------------------------===//

TEST(Overload, RejectShedsSubmissionsPastTheRuntimeCap) {
  // One worker lane, runtime-wide cap of one queued invocation: A holds
  // the lane, B fills the queue, C must be shed as an OverloadError
  // future instead of growing the queue.
  RuntimeConfig C;
  C.NumThreads = 2;
  C.MaxQueuedInvocations = 1;
  C.Overload = OverloadPolicy::Reject;
  SpiceRuntime RT(C);
  CountTraits TA, TB, TC;
  auto LoopA = RT.makeLoop(TA);
  auto LoopB = RT.makeLoop(TB);
  auto LoopC = RT.makeLoop(TC);
  EXPECT_EQ(LoopA.invoke(0).Sum, TA.expected()); // Warm all three.
  EXPECT_EQ(LoopB.invoke(0).Sum, TB.expected());
  EXPECT_EQ(LoopC.invoke(0).Sum, TC.expected());

  auto FA = LoopA.submit(0); // Granted the lane immediately.
  auto FB = LoopB.submit(0); // Admitted: fills the queue.
  auto FC = LoopC.submit(0); // Over cap: shed.
  EXPECT_THROW(FC.get(), OverloadError);
  EXPECT_EQ(FA.get().Sum, TA.expected());
  EXPECT_EQ(FB.get().Sum, TB.expected())
      << "admitted submissions are untouched by the shedding";

  SchedulerStats S = RT.schedulerStats();
  EXPECT_EQ(S.RejectedSubmissions, 1u);
  EXPECT_EQ(S.DroppedDeadline, 0u);
  EXPECT_EQ(S.Submitted, 2u) << "a rejected submission is never admitted";
  EXPECT_EQ(S.HighWaterQueueDepth, 1u) << "the cap bounded the queue";
  EXPECT_EQ(RT.scheduler().freeWorkers(), 1u);
  test::checkStatsInvariants(S);
}

TEST(Overload, DeadlineDropShedsARequestThatOutwaitedItsDeadline) {
  // B's submission carries a 2ms deadline and queues behind A, which
  // holds the only lane for far longer: the grant pass triggered by A's
  // resolution must sweep B out instead of granting it.
  RuntimeConfig C;
  C.NumThreads = 2;
  C.Overload = OverloadPolicy::DeadlineDrop;
  SpiceRuntime RT(C);
  CountTraits TA, TB;
  auto LoopA = RT.makeLoop(TA);
  LoopOptions OB;
  OB.SubmitDeadlineMicros = 2000;
  auto LoopB = RT.makeLoop(TB, OB);
  EXPECT_EQ(LoopA.invoke(0).Sum, TA.expected()); // Warm both.
  EXPECT_EQ(LoopB.invoke(0).Sum, TB.expected());

  auto FA = LoopA.submit(0); // Holds the lane until driven.
  auto FB = LoopB.submit(0); // Queued, deadline ticking.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(FA.get().Sum, TA.expected()); // Release -> sweep drops B.
  EXPECT_THROW(FB.get(), OverloadError);

  SchedulerStats S = RT.schedulerStats();
  EXPECT_EQ(S.DroppedDeadline, 1u);
  EXPECT_EQ(S.RejectedSubmissions, 0u);
  EXPECT_EQ(S.Submitted, 2u) << "dropped requests were admitted first";
  EXPECT_EQ(S.DeferredGrants, 0u) << "B must never have been granted";
  EXPECT_EQ(RT.scheduler().freeWorkers(), 1u);
  test::checkStatsInvariants(S);
}

TEST(Overload, BlockParksASubmitterUntilGrantsMakeRoom) {
  // Default policy: a third client hitting the cap parks inside
  // submit() and is admitted -- not shed -- once resolving the earlier
  // futures drains the queue. Runs a real parked thread (TSan target).
  RuntimeConfig C;
  C.NumThreads = 2;
  C.MaxQueuedInvocations = 1;
  C.Overload = OverloadPolicy::Block;
  SpiceRuntime RT(C);
  CountTraits TA, TB, TC;
  auto LoopA = RT.makeLoop(TA);
  auto LoopB = RT.makeLoop(TB);
  auto LoopC = RT.makeLoop(TC);
  EXPECT_EQ(LoopA.invoke(0).Sum, TA.expected()); // Warm all three.
  EXPECT_EQ(LoopB.invoke(0).Sum, TB.expected());
  EXPECT_EQ(LoopC.invoke(0).Sum, TC.expected());

  auto FA = LoopA.submit(0); // Granted the lane.
  auto FB = LoopB.submit(0); // Fills the queue (at the cap).
  std::atomic<bool> Admitted{false};
  std::atomic<uint64_t> CSum{0};
  std::thread T([&] {
    auto FC = LoopC.submit(0); // Parks: over cap until FB is granted.
    Admitted.store(true);
    CSum.store(FC.get().Sum);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Admitted.load())
      << "no grant has run, so the cap still blocks the third client";
  EXPECT_EQ(FA.get().Sum, TA.expected()); // Grants B -> room -> C admits.
  EXPECT_EQ(FB.get().Sum, TB.expected()); // Grants C.
  T.join();
  EXPECT_TRUE(Admitted.load());
  EXPECT_EQ(CSum.load(), TC.expected());

  SchedulerStats S = RT.schedulerStats();
  EXPECT_EQ(S.RejectedSubmissions, 0u) << "Block never sheds";
  EXPECT_EQ(S.DroppedDeadline, 0u);
  EXPECT_EQ(S.Submitted, 3u);
  EXPECT_EQ(S.HighWaterQueueDepth, 1u) << "the cap held while parking";
  test::checkStatsInvariants(S);
}

//===----------------------------------------------------------------------===//
// Loud-failure diagnostics
//===----------------------------------------------------------------------===//

TEST(SchedulerDeathTest, DestroyingRuntimeWithUnresolvedSubmissionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto RT = std::make_unique<SpiceRuntime>(/*NumThreads=*/2);
        CountTraits T;
        SpiceLoop<CountTraits> Loop(T, *RT);
        SpiceFuture<CountTraits::State> F = Loop.submit(0);
        RT.reset(); // Unresolved submission: must die loudly.
      },
      "unresolved");
}

TEST(SchedulerDeathTest, NestedSubmitGetFromAStepCallbackDies) {
  // A step callback submitting to (and waiting on) the same runtime
  // while its own invocation leases every worker: only this thread's
  // stack could ever free a lane, so the wait is a provable
  // self-deadlock and must abort instead of hanging.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/2); // One worker.
        CountTraits TInner;
        auto Inner = RT.makeLoop(TInner);
        Inner.invoke(0); // Warm: the nested submission requests lanes.

        const std::thread::id MainId = std::this_thread::get_id();
        bool Armed = false;
        auto Outer =
            CountBuilder()
                .step([&](int64_t &I, uint64_t &S, SpecSpace &) {
                  if (Armed && std::this_thread::get_id() == MainId)
                    S += Inner.submit(0).get().Sum; // Deadlocks.
                  if (I >= 4096)
                    return false;
                  ++I;
                  return true;
                })
                .combine(
                    [](uint64_t &A, uint64_t &&B) { A += B; })
                .build(RT);
        Outer.invoke(0); // Warm the outer loop too.
        Armed = true;
        Outer.invoke(0);
      },
      "deadlock");
}

TEST(SchedulerDeathTest, ResolvingFuturesOutOfSubmissionOrderDies) {
  // FB is queued behind FA, whose session leases the whole pool and can
  // only be released by this thread driving FA -- blocking on FB first
  // is the same provable self-deadlock.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpiceRuntime RT(/*NumThreads=*/4);
        CountTraits TA;
        CountTraits TB;
        auto LoopA = RT.makeLoop(TA);
        auto LoopB = RT.makeLoop(TB);
        LoopA.invoke(0);
        LoopB.invoke(0);
        auto FA = LoopA.submit(0); // Granted all three lanes.
        auto FB = LoopB.submit(0); // Queued.
        FB.get();                  // Out of order: must die, not hang.
      },
      "deadlock");
}
