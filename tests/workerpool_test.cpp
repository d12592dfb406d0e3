//===- tests/workerpool_test.cpp - WorkerPool tests -----------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"
#include "core/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace spice::core;
using spice::core::detail::ChunkDeques;

TEST(WorkerPool, RunsEveryLaneExactlyOnce) {
  WorkerPool Pool(4);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(4, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 4u);
  std::vector<std::atomic<int>> Hits(4);
  S->launch([&](unsigned Lane) { Hits[Lane].fetch_add(1); });
  S->wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(WorkerPool, PartialLeaseLeavesOthersParked) {
  WorkerPool Pool(4);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 2u);
  EXPECT_EQ(Sched.freeWorkers(), 2u);
  std::atomic<int> Runs{0};
  S->launch([&](unsigned Lane) {
    EXPECT_LT(Lane, 2u);
    Runs.fetch_add(1);
  });
  S->wait();
  EXPECT_EQ(Runs.load(), 2);
}

TEST(WorkerPool, ReusableAcrossManyLeases) {
  // Every round leases, launches, and releases: the released session is
  // recycled, so only the first round allocates one.
  WorkerPool Pool(3);
  Scheduler Sched(Pool, RuntimeConfig{});
  std::atomic<uint64_t> Sum{0};
  for (int Round = 0; Round != 200; ++Round) {
    auto S = Sched.tryAcquireSessionFor(3, true, std::this_thread::get_id());
    S->launch([&](unsigned Lane) { Sum.fetch_add(Lane + 1); });
    S->wait();
  }
  EXPECT_EQ(Sum.load(), 200u * (1 + 2 + 3));
  EXPECT_EQ(Pool.sessionPoolStats().SessionsCreated, 1u);
  EXPECT_EQ(Pool.sessionPoolStats().SessionPoolHits, 199u);
}

TEST(WorkerPool, CallerRunsConcurrentlyWithWorkers) {
  WorkerPool Pool(1);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(1, true, std::this_thread::get_id());
  std::atomic<bool> WorkerSawFlag{false};
  std::atomic<bool> Flag{false};
  S->launch([&](unsigned) {
    // Wait (bounded) for the caller to set the flag after launch.
    for (int I = 0; I != 1'000'000 && !Flag.load(); ++I)
      std::this_thread::yield();
    WorkerSawFlag = Flag.load();
  });
  Flag = true; // If launch() blocked until completion, this would be late.
  S->wait();
  EXPECT_TRUE(WorkerSawFlag.load());
}

TEST(WorkerPool, LaunchWakesOnlyTheLeasedWorkers) {
  // One lane blocks inside its job until released: the pool counts it
  // busy, the unleased worker stays parked, and a lane that has left its
  // job is no longer busy even though the session still leases it.
  WorkerPool Pool(3);
  Scheduler Sched(Pool, RuntimeConfig{});
  auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
  ASSERT_EQ(S->lanes(), 2u);
  EXPECT_EQ(Pool.busyWorkers(), 0u);
  std::atomic<bool> Release{false};
  S->launch([&](unsigned Lane) {
    if (Lane == 0)
      while (!Release.load())
        std::this_thread::yield();
  });
  // Lane 1 returns at once; lane 0 holds its job until Release.
  for (int I = 0; I != 1'000'000 && Pool.busyWorkers() != 1; ++I)
    std::this_thread::yield();
  EXPECT_EQ(Pool.busyWorkers(), 1u);
  Release = true;
  S->wait();
  EXPECT_EQ(Pool.busyWorkers(), 0u);
  EXPECT_EQ(Sched.freeWorkers(), 1u);
}

TEST(WorkerPool, DestructionJoinsCleanly) {
  for (int I = 0; I != 20; ++I) {
    WorkerPool Pool(2);
    Scheduler Sched(Pool, RuntimeConfig{});
    std::atomic<int> N{0};
    {
      auto S = Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
      S->launch([&](unsigned) { N.fetch_add(1); });
      S->wait();
    }
    EXPECT_EQ(N.load(), 2);
  }
}

TEST(WorkerPoolDeathTest, ThrowingWorkerStartHookAborts) {
  // A WorkerStartHook that throws during pool start has no unwind path
  // (workers never propagate exceptions); it must abort loudly with the
  // hook's message instead of calling std::terminate with no context --
  // or worse, wedging the pool with fewer workers than it advertises.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2, [](unsigned Index) {
          if (Index == 1)
            throw std::runtime_error("pinning failed: no such node");
        });
        // The destructor joins the workers, so the block cannot exit
        // normally: worker 1 runs the hook before its first park.
      },
      "WorkerStartHook threw during worker start.*no such node");
}

TEST(WorkerPoolDeathTest, ReentrantSessionLaunchAborts) {
  // A second launch before wait() is a protocol violation: it must die
  // with a diagnostic instead of clobbering the in-flight job (UB).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2);
        Scheduler Sched(Pool, RuntimeConfig{});
        auto S =
            Sched.tryAcquireSessionFor(2, true, std::this_thread::get_id());
        S->launch([](unsigned) {});
        S->launch([](unsigned) {}); // No wait(): must abort.
      },
      "WorkerSession::launch");
}

//===----------------------------------------------------------------------===//
// Chunk deques and work stealing
//===----------------------------------------------------------------------===//

TEST(WorkerPoolQueues, OwnLanePopsInFifoOrder) {
  ChunkDeques Q;
  Q.reset(1, /*AllowStealing=*/true);
  Q.push(0, 1);
  Q.push(0, 2);
  Q.push(0, 3);
  uint32_t C = 0;
  bool Stolen = true;
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 3u);
  EXPECT_FALSE(Q.acquire(0, C, Stolen)) << "drained";
}

TEST(WorkerPoolQueues, StealsMostSpeculativeChunkFromTheBack) {
  ChunkDeques Q;
  Q.reset(2, /*AllowStealing=*/true);
  Q.push(0, 1); // Lane 0 holds {1, 3}; lane 1 is empty.
  Q.push(0, 3);
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(Q.acquire(1, C, Stolen));
  EXPECT_EQ(C, 3u) << "thief takes the back, leaving 1 to its owner";
  EXPECT_TRUE(Stolen);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
}

TEST(WorkerPoolQueues, StealingCanBeDisabled) {
  // ChunksPerThread == 1 runs the paper's fixed schedule: a worker with
  // an empty lane must not poach from its neighbours.
  ChunkDeques Q;
  Q.reset(2, /*AllowStealing=*/false);
  Q.push(0, 1);
  uint32_t C = 0;
  bool Stolen = false;
  EXPECT_FALSE(Q.acquire(1, C, Stolen));
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
}

TEST(WorkerPoolQueues, HelpPopFrontPrefersOldestChunkAcrossLanes) {
  ChunkDeques Q;
  Q.reset(3, /*AllowStealing=*/true);
  Q.push(2, 2); // Fronts are 2, 5, 4; oldest pending is 2.
  Q.push(0, 5);
  Q.push(1, 4);
  Q.push(2, 7);
  uint32_t C = 0;
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 4u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 5u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 7u);
  EXPECT_FALSE(Q.helpPopFront(C));
  EXPECT_EQ(Q.pending(), 0u);
}

TEST(WorkerPoolQueues, AcquireReturnsFalseOnEmptyDequesWithoutBlocking) {
  // A lane leaves its job as soon as nothing is pending: acquire on
  // empty deques must return false at once (this test would hang if it
  // parked), and a chunk pushed afterwards -- a late recovery requeue --
  // is still there for the next acquirer or helpPopFront.
  ChunkDeques Q;
  Q.reset(2, /*AllowStealing=*/true);
  uint32_t C = 0;
  bool Stolen = false;
  EXPECT_FALSE(Q.acquire(0, C, Stolen));
  EXPECT_FALSE(Q.acquire(1, C, Stolen));
  Q.pushFront(0, 11);
  ASSERT_TRUE(Q.acquire(1, C, Stolen));
  EXPECT_EQ(C, 11u);
  EXPECT_TRUE(Stolen);
  EXPECT_FALSE(Q.acquire(0, C, Stolen));
  Q.push(1, 12);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 12u);
  EXPECT_FALSE(Q.acquire(1, C, Stolen));
  EXPECT_EQ(Q.pending(), 0u);
}

TEST(WorkerPoolQueues, OversubscribedDrainExecutesEveryChunkOnce) {
  // 64 chunks on 3 lanes with stealing: every chunk runs exactly once.
  ChunkDeques Q;
  Q.reset(3, /*AllowStealing=*/true);
  std::vector<std::atomic<int>> Hits(64);
  for (uint32_t C = 0; C != 64; ++C)
    Q.push(C % 3, C);
  std::vector<std::thread> Lanes;
  for (unsigned Lane = 0; Lane != 3; ++Lane)
    Lanes.emplace_back([&, Lane] {
      uint32_t C;
      bool Stolen;
      while (Q.acquire(Lane, C, Stolen))
        Hits[C].fetch_add(1);
    });
  for (std::thread &T : Lanes)
    T.join();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(Q.pending(), 0u);
}
