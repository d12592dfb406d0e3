//===- core/Scheduler.h - Cross-loop lane admission scheduler ---*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Scheduler is a SpiceRuntime's admission queue and its lease
/// ledger: every parallel invocation submitted through SpiceLoop::submit()
/// becomes a lane Request here, and the scheduler alone records which
/// pool worker is free and which thread's lease holds it. One mutex
/// guards the queue and the ledger together. Grants happen at two
/// points, both without a dedicated scheduler thread:
///
///  * submit(): the new request is enqueued and a grant pass runs in the
///    same critical section, so an uncontended submission leaves with
///    its session in hand (the fast path every sole-client invoke()
///    takes).
///  * Session release: destroying a SessionHandle returns its workers to
///    the ledger and runs a grant pass over the queue in one critical
///    section -- the deferred-grant path. The request's OnGrant callback
///    (which pushes the invocation's chunks and launches the leased
///    lanes) therefore runs on whichever thread freed the lanes; the
///    lease is recorded against the request's Owner, the thread that
///    drives the future.
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
/// Under a multi-node placement (docs/topology.md) every lease is
/// node-packed against the ledger's exact per-node counts: it comes from
/// the tightest node block that covers it, is trimmed to the largest
/// free block when that block covers at least half of it, and spans
/// nodes only as a last resort. When a trim leaves lanes free while
/// requests are still queued, the same grant pass plans again.
///
/// The policy core is the pure function planGrants(), unit-tested in
/// isolation (tests/scheduler_test.cpp); the mutexed queue machinery
/// around it only executes its plan. Grant and drop callbacks run after
/// the unlock.
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
#include <memory>
#include <mutex>
#include <optional>
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
  /// Grants handed fewer lanes than min(requested, pool workers): pool
  /// contention, a FairShare split among queued requests, or a node
  /// trim. A request wider than the whole pool is not capped by that.
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

  /// Deleter of a leased session: returns its workers to the ledger and
  /// runs a grant pass over the queue (the deferred-grant path), parking
  /// the session on the pool's freelist for reuse.
  struct Release {
    Scheduler *Sched;
    void operator()(WorkerSession *S) const { Sched->release(S); }
  };
  using SessionHandle = std::unique_ptr<WorkerSession, Release>;

  /// One queued invocation's lane request.
  struct Request {
    /// Lanes the invocation can use (its launchable chunk count), >= 1.
    unsigned RequestedLanes = 1;
    /// Session stealing flag (LoopOptions::ChunksPerThread > 1).
    bool AllowStealing = false;
    /// LoopOptions::Priority of the submitting loop.
    int Priority = 0;
    /// The thread that will drive the granted session (the submitter);
    /// the ledger records the lease against it for the self-deadlock
    /// diagnostics.
    std::thread::id Owner;
    /// Invocations this request admits at once (a batch's size); the
    /// queue cap and HighWaterQueueDepth count in this unit.
    unsigned Invocations = 1;
    /// Admission deadline in microseconds (0 = none); see
    /// LoopOptions::SubmitDeadlineMicros. Only OverloadPolicy::
    /// DeadlineDrop acts on it.
    uint64_t DeadlineMicros = 0;
    /// Runs exactly once, outside the scheduler mutex, on the granting
    /// thread (submitter or releaser): receives the leased session and
    /// the microseconds the request spent queued.
    std::function<void(SessionHandle, uint64_t)> OnGrant;
    /// Runs instead of OnGrant -- outside every lock, on the sweeping
    /// thread -- when the request is deadline-dropped. Optional.
    std::function<void()> OnDrop;
  };

  /// Policy, queue cap, and overload behavior all come from the
  /// runtime's \p Config (see RuntimeConfig).
  /// Every worker of \p Pool starts free.
  Scheduler(WorkerPool &Pool, const RuntimeConfig &Config);

  /// A scheduler must drain, and every session must be released, before
  /// destruction; SpiceRuntime's destructor diagnostics enforce it
  /// before this runs.
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

  /// Leases up to \p MaxLanes free workers to \p Owner at once, or
  /// returns null when none is free. Bypasses the admission queue, which
  /// holds requests only while no worker is free, so it never overtakes
  /// one; invocations go through submit(), tests and the lease
  /// micro-benchmark come here.
  SessionHandle tryAcquireSessionFor(unsigned MaxLanes, bool AllowStealing,
                                     std::thread::id Owner);

  /// True when the ticket's request is still queued and the calling
  /// thread's leases hold every worker of the pool: a wait for that
  /// grant is a provable self-deadlock (grants need a free worker, and
  /// only the waiting thread's stack could free one). One lock covers
  /// both facts, and a grant leases and dequeues in one critical
  /// section, so a grant in flight on another thread never reads as
  /// stuck.
  bool queuedBehindOwnLeases(uint64_t Ticket) const;

  SchedulerStats stats() const;
  unsigned queueDepth() const;
  /// Queued invocations (requests weighted by Request::Invocations) --
  /// the figure the queue cap bounds.
  uint64_t queuedInvocations() const;
  /// Workers no lease holds (a snapshot).
  unsigned freeWorkers() const;
  /// Free workers whose placement node is \p Node (a snapshot).
  unsigned freeWorkersOnNode(unsigned Node) const;
  LanePolicy policy() const { return Policy; }
  OverloadPolicy overloadPolicy() const { return Overload; }

  /// A queued request as planGrants sees it.
  struct Candidate {
    unsigned RequestedLanes;
    int Priority;
    uint64_t QueuedMicros;
  };
  /// One planned grant: lane cap for the request at \p Index of the
  /// candidate (admission-ordered) vector.
  struct Grant {
    size_t Index;
    unsigned Lanes;
  };

  /// Pure policy core: splits \p FreeLanes over \p Pending (admission
  /// order) and returns the grants in execution order; requests absent
  /// from the result stay queued. Guarantees sum(Lanes) <= FreeLanes and
  /// 1 <= Lanes <= RequestedLanes per grant.
  static std::vector<Grant> planGrants(const std::vector<Candidate> &Pending,
                                       unsigned FreeLanes, LanePolicy Policy,
                                       uint64_t AgingStepMicros);

private:
  struct Entry {
    Request R;
    Clock::time_point Enqueued;
    uint64_t Ticket = 0;
  };

  /// A grant decided under the mutex, delivered after the unlock.
  struct Handoff {
    std::function<void(SessionHandle, uint64_t)> OnGrant;
    SessionHandle Session;
    uint64_t QueuedMicros = 0;
  };
  /// Everything a grant pass decided. The first grant is held inline,
  /// so a pass that grants one request allocates nothing.
  struct Outcome {
    std::optional<Handoff> First;
    std::vector<Handoff> Rest;
    std::vector<std::function<void()>> Drops;
  };

  /// The grant pass: sweeps expired entries (DeadlineDrop), then leases
  /// workers to queued requests while both remain, popping each granted
  /// entry. The entry with ticket \p Fresh (0 for none) is the one the
  /// calling submit() just enqueued: its grant is immediate, with 0
  /// queued time, and the sweep spares it. Requires the mutex.
  void grantLocked(uint64_t Fresh, Outcome &Out);

  /// Runs a pass's outcome with no lock held: wakes parked Block
  /// submitters when anything left the queue, then runs the drop and
  /// grant callbacks.
  void deliver(Outcome &Out);

  /// Leases min(free, \p MaxLanes) workers to \p Owner, node-packed
  /// under a multi-node placement (which may trim the lease, see the
  /// file comment). Requires the mutex and a free worker.
  SessionHandle leaseLocked(unsigned MaxLanes, bool AllowStealing,
                            std::thread::id Owner);

  /// Session deleter (Release): returns \p S's workers to the ledger,
  /// parks it on the pool's freelist, and runs a grant pass.
  void release(WorkerSession *S);

  /// True when the calling thread's leases hold every worker. Requires
  /// the mutex.
  bool callerHoldsEveryWorkerLocked() const;

  /// The node with the most free workers (ties to the lower id).
  /// Requires the mutex and a multi-node placement.
  unsigned widestNodeLocked() const;

  /// True when admitting \p R now would push the queue past its cap.
  /// Requires the scheduler mutex.
  bool overCapLocked(const Request &R) const;

  /// Removes every entry but ticket \p Spare that has waited past its
  /// deadline, updating the queue accounting and DroppedDeadline, and
  /// collects the OnDrop callbacks into \p Drops (run them outside the
  /// mutex). Requires the scheduler mutex.
  void sweepExpiredLocked(Clock::time_point Now, uint64_t Spare,
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
  /// The lease ledger: Holder[W] is the thread whose lease holds pool
  /// worker W (its request's Owner), or a default id while W is free.
  std::vector<std::thread::id> Holder;
  unsigned FreeCount = 0;
  /// Free workers per placement node (multi-node placement only, else
  /// empty).
  std::vector<unsigned> FreeByNode;
  /// Blocked submitters (OverloadPolicy::Block) park here until a grant
  /// or drop shrinks the queue below the cap.
  std::condition_variable CapCV;
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SCHEDULER_H
