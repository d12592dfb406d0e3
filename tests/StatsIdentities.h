//===- tests/StatsIdentities.h - Stats identity checks ----------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// checkStatsInvariants(): asserts every identity docs/stats.md lists
/// between the counters of a loop's SpiceStats and of the runtime's
/// SchedulerStats. Tests call it after an invocation, on lastStats() (or
/// on stats() between invocations) and on schedulerStats() once every
/// future has resolved. The loop identities assume that no submission was
/// shed by overload control and that every invocation did nonzero work.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_TESTS_STATSIDENTITIES_H
#define SPICE_TESTS_STATSIDENTITIES_H

#include "core/Scheduler.h"
#include "core/SpiceConfig.h"

#include <gtest/gtest.h>

namespace spice {
namespace test {

/// One loop's counters, after a completed invocation.
inline void checkStatsInvariants(const core::SpiceStats &S) {
  // Parallel invocations = Invocations - SequentialInvocations
  //                      = MisspeculatedInvocations
  //                        + FullySpeculativeInvocations.
  ASSERT_GE(S.Invocations, S.SequentialInvocations);
  EXPECT_EQ(S.Invocations - S.SequentialInvocations,
            S.MisspeculatedInvocations + S.FullySpeculativeInvocations);
  // Every invocation the sequential rung held ran sequentially.
  EXPECT_LE(S.RungHeldInvocations, S.SequentialInvocations);
  // Imbalance is sampled on exactly the fully speculative invocations.
  EXPECT_EQ(S.ImbalanceSamples, S.FullySpeculativeInvocations);
  EXPECT_EQ(S.ChunkImbalanceSamples, S.ImbalanceSamples);
  // Steal locality partitions the worker-side steals; main-thread help
  // is counted in StolenChunks but is not a steal.
  ASSERT_GE(S.StolenChunks, S.MainHelpedChunks);
  EXPECT_EQ(S.LocalSteals + S.RemoteSteals,
            S.StolenChunks - S.MainHelpedChunks);
  // Subsets: conflict squashes of all squashes, stolen recovery chunks
  // of all recovery chunks, re-executed iterations of kept ones.
  EXPECT_LE(S.ConflictSquashes, S.SquashedThreads);
  EXPECT_LE(S.StolenRecoveryChunks, S.RecoveryChunks);
  EXPECT_LE(S.RecoveryIterations, S.TotalIterations);
}

/// The runtime's admission counters, once every future has resolved.
inline void checkStatsInvariants(const core::SchedulerStats &S) {
  EXPECT_EQ(S.ImmediateGrants + S.DeferredGrants + S.DroppedDeadline,
            S.Submitted);
}

} // namespace test
} // namespace spice

#endif // SPICE_TESTS_STATSIDENTITIES_H
