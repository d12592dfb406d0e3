//===- core/Scheduler.h - Cross-loop lane admission scheduler ---*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Scheduler is a SpiceRuntime's admission queue: every parallel
/// invocation submitted through SpiceLoop::submit() becomes a lane
/// Request here, and the scheduler decides which queued invocation the
/// free lanes go to -- the WorkerPool only leases the lanes it is told
/// to. Grants happen at two points, both without a dedicated scheduler
/// thread:
///
///  * submit(): the new request is enqueued and a grant pass runs
///    immediately, so an uncontended submission leaves with its session
///    in hand (the fast path every sole-client invoke() takes).
///  * WorkerPool release hook: when an invocation returns its lanes, the
///    releasing thread runs a grant pass over the queue -- the deferred
///    grant path. The request's OnGrant callback (which pushes the
///    invocation's chunks and launches the leased lanes) therefore runs
///    on whichever thread freed the lanes; the granted session is
///    accounted to the request's Owner, the thread that drives the
///    future (see WorkerPool::tryAcquireSessionFor).
///
/// Which request wins is LanePolicy (RuntimeConfig::Policy):
///
///  * FirstCome  -- admission order; the head takes every free lane it
///                  asked for (the pre-scheduler behavior).
///  * FairShare  -- free lanes split proportionally to the queued
///                  requests, minimum one lane each, so one wide
///                  invocation cannot monopolize the pool.
///  * Priority   -- strict LoopOptions::Priority order, with queue time
///                  aging the effective priority (one step per
///                  kAgingStepMicros) so low-priority work cannot
///                  starve.
///
/// The queue is bounded when the runtime asks for it: submissions carry
/// an invocation weight (a batch counts its size), and when admitting
/// one would push the queue depth past the cap
/// (RuntimeConfig::MaxQueuedInvocations), the RuntimeConfig::
/// OverloadPolicy decides: Block parks the submitter until the queue
/// drains, Reject sheds the submission (ticket 0,
/// SchedulerStats::RejectedSubmissions), and DeadlineDrop additionally
/// expires queued requests that out-waited their
/// LoopOptions::SubmitDeadlineMicros at every grant pass
/// (SchedulerStats::DroppedDeadline). Overload therefore degrades into
/// counted shedding instead of unbounded queue growth; docs/serving.md
/// is the operator guide.
///
/// The policy core is the pure function planGrants(), unit-tested in
/// isolation (tests/scheduler_test.cpp); the mutexed queue machinery
/// around it only executes its plan. Lock order: the scheduler mutex is
/// taken strictly outside the pool mutex; grant callbacks run with
/// neither held.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SCHEDULER_H
#define SPICE_CORE_SCHEDULER_H

#include "core/SpiceConfig.h"
#include "core/WorkerPool.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace spice {
namespace core {

/// Runtime-wide admission counters, read via SpiceRuntime::
/// schedulerStats(). Sequential invocations never enter the admission
/// queue and are invisible here.
struct SchedulerStats {
  /// Requests that entered the admission queue.
  uint64_t Submitted = 0;
  /// Requests granted inside their own submit() call (lanes were free).
  uint64_t ImmediateGrants = 0;
  /// Requests granted later, by a thread releasing lanes.
  uint64_t DeferredGrants = 0;
  /// Grants handed fewer lanes than requested (pool contention; under
  /// FairShare also deliberate splitting).
  uint64_t CappedGrants = 0;
  /// Total time granted requests spent queued (deferred grants only;
  /// immediate grants contribute 0 by definition).
  uint64_t TotalQueuedMicros = 0;
  /// High-water mark of the admission queue depth, in queued
  /// *invocations* (a batch counts its size) -- the figure the queue
  /// cap bounds. With a cap set this can never exceed the cap plus one
  /// in-admission request.
  uint64_t HighWaterQueueDepth = 0;
  /// Submissions shed at admission because a queue cap was hit under
  /// OverloadPolicy::Reject (or DeadlineDrop with a still-full queue).
  /// Their futures resolve to OverloadError; they are not in Submitted.
  uint64_t RejectedSubmissions = 0;
  /// Queued requests dropped after waiting past their
  /// LoopOptions::SubmitDeadlineMicros under OverloadPolicy::
  /// DeadlineDrop. These *are* counted in Submitted (they entered the
  /// queue) but never in ImmediateGrants/DeferredGrants.
  uint64_t DroppedDeadline = 0;
};

/// Cross-loop lane scheduler; owned by SpiceRuntime (one per pool).
class Scheduler {
public:
  using Clock = std::chrono::steady_clock;

  /// Queue time per effective-priority step under LanePolicy::Priority
  /// (starvation aging).
  static constexpr uint64_t kAgingStepMicros = 1000;

  /// One queued invocation's lane request.
  struct Request {
    /// Lanes the invocation can use (its launchable chunk count), >= 1.
    unsigned RequestedLanes = 1;
    /// Session stealing flag (LoopOptions::ChunksPerThread > 1).
    bool AllowStealing = false;
    /// LoopOptions::Priority of the submitting loop.
    int Priority = 0;
    /// The thread that will drive the granted session (the submitter);
    /// leases are accounted to it for self-deadlock diagnostics.
    std::thread::id Owner;
    /// Invocations this request admits at once (a batch's size); the
    /// queue cap and HighWaterQueueDepth count in this unit.
    unsigned Invocations = 1;
    /// Admission deadline in microseconds (0 = none); see
    /// LoopOptions::SubmitDeadlineMicros. Only OverloadPolicy::
    /// DeadlineDrop acts on it.
    uint64_t DeadlineMicros = 0;
    /// Runs exactly once, outside every scheduler/pool mutex, on the
    /// granting thread (submitter or releaser): receives the leased
    /// session and the microseconds the request spent queued.
    std::function<void(WorkerPool::SessionHandle, uint64_t)> OnGrant;
    /// Runs instead of OnGrant -- outside every lock, on the sweeping
    /// thread -- when the request is deadline-dropped. Optional.
    std::function<void()> OnDrop;
  };

  /// Policy, queue cap, and overload behavior all come from the
  /// runtime's \p Config (see RuntimeConfig).
  Scheduler(WorkerPool &Pool, const RuntimeConfig &Config)
      : Pool(Pool), Policy(Config.Policy),
        RuntimeCap(Config.MaxQueuedInvocations), Overload(Config.Overload) {}

  /// A scheduler must drain before destruction; SpiceRuntime's
  /// destructor diagnostics enforce it before this runs.
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Enqueues \p R and runs a grant pass. When the pass grants R itself
  /// (free lanes, policy picked it), R.OnGrant has already run -- with
  /// QueuedMicros == 0 -- by the time submit returns. Returns a ticket
  /// identifying the request in the admission queue, or 0 when admission
  /// control shed it: the request would push the queue past its cap and
  /// the policy is Reject (or DeadlineDrop with nothing left to drop).
  /// A rejected request's callbacks never run. Under Block, submit
  /// instead parks until the queue has room -- with a fatal self-
  /// deadlock diagnostic when the caller's own sessions hold every lane,
  /// because only its parked stack could ever make room.
  uint64_t submit(Request R);

  /// True while the ticket's request sits in the admission queue. The
  /// request leaves the queue the moment a grant pass picks it -- before
  /// its OnGrant callback runs -- so false means granted-or-in-flight.
  /// Used by the waiters' self-deadlock diagnostic: "still queued while
  /// the waiting thread holds every lane" is provably stuck, "popped
  /// but not yet Granted" is a grant mid-flight on another thread.
  bool isQueued(uint64_t Ticket) const;

  /// Deferred-grant entry point, wired to WorkerPool::setReleaseHook.
  void onLanesFreed();

  SchedulerStats stats() const;
  unsigned queueDepth() const;
  /// Queued invocations (requests weighted by Request::Invocations) --
  /// the figure the queue cap bounds.
  uint64_t queuedInvocations() const;
  LanePolicy policy() const { return Policy; }
  OverloadPolicy overloadPolicy() const { return Overload; }

  /// A queued request as planGrants sees it.
  struct Candidate {
    unsigned RequestedLanes;
    int Priority;
    uint64_t QueuedMicros;
  };
  /// One planned grant: lane cap for the request at \p Index of the
  /// candidate (admission-ordered) vector. \p Node is the placement
  /// node the lanes should come from (the pool's PreferredNode hint),
  /// or -1 when the plan ran without node information (or the grant
  /// must span nodes from the pool's choice of start block).
  struct Grant {
    size_t Index;
    unsigned Lanes;
    int Node = -1;
  };

  /// Pure policy core: splits \p FreeLanes over \p Pending (admission
  /// order) and returns the grants in execution order; requests absent
  /// from the result stay queued. Guarantees sum(Lanes) <= FreeLanes and
  /// 1 <= Lanes <= RequestedLanes per grant.
  ///
  /// \p NodeFreeLanes, when non-null with more than one entry, is the
  /// free-lane count per placement node (summing to FreeLanes) and
  /// turns on the node-packing post-pass: each planned grant is
  /// assigned the free node block that fits it most tightly; a grant no
  /// block covers is trimmed to the largest free block when that block
  /// covers at least half of it (one-node locality beats raw lane
  /// count), else it spans nodes starting from the largest block. Lanes
  /// the trims freed are then re-offered to the candidates the plan
  /// left queued, in admission order, one node block each -- so packing
  /// never idles lanes that a queued request could use.
  static std::vector<Grant>
  planGrants(const std::vector<Candidate> &Pending, unsigned FreeLanes,
             LanePolicy Policy, uint64_t AgingStepMicros,
             const std::vector<unsigned> *NodeFreeLanes = nullptr);

private:
  struct Entry {
    Request R;
    Clock::time_point Enqueued;
    uint64_t Ticket = 0;
    /// True until the submit() call that enqueued this entry finishes
    /// its own grant pass: a grant while set is an immediate grant and
    /// reports 0 queued time, and the deadline sweep skips it (a
    /// submission always gets its own grant attempt first).
    bool Immediate = true;
  };

  /// Plans against the current free-lane count, executes the leases, and
  /// pops granted entries -- all under the scheduler mutex -- then runs
  /// the OnGrant callbacks unlocked. Under DeadlineDrop the pass first
  /// sweeps expired entries.
  void runGrants();

  /// True when admitting \p R now would push the queue past its cap.
  /// Requires the scheduler mutex.
  bool overCapLocked(const Request &R) const;

  /// Removes every non-Immediate entry that has waited past its
  /// deadline, updating the queue accounting and DroppedDeadline, and
  /// collects the OnDrop callbacks into \p Drops (run them outside the
  /// mutex). Requires the scheduler mutex.
  void sweepExpiredLocked(Clock::time_point Now,
                          std::vector<std::function<void()>> &Drops);

  /// Queue-accounting half of removing \p E from the queue (grant or
  /// drop). Requires the scheduler mutex.
  void noteRemovedLocked(const Entry &E);

  WorkerPool &Pool;
  const LanePolicy Policy;
  const uint64_t RuntimeCap;
  const OverloadPolicy Overload;

  mutable std::mutex M;
  std::deque<Entry> Queue;
  uint64_t NextTicket = 1;
  SchedulerStats St;
  /// Queued invocations (Request::Invocations-weighted queue depth).
  uint64_t QueuedInvs = 0;
  /// Per-node free-lane snapshot for the node-packing plan (guarded by
  /// M; reused across passes to keep the grant path allocation-free).
  std::vector<unsigned> NodeFreeScratch;
  /// Blocked submitters (OverloadPolicy::Block) park here until a grant
  /// or drop shrinks the queue below the cap.
  std::condition_variable CapCV;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SCHEDULER_H
