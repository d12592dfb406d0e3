//===- core/Scheduler.cpp - Cross-loop lane admission scheduler -----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Scheduler.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <optional>

using namespace spice;
using namespace spice::core;

Scheduler::~Scheduler() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Queue.empty())
    reportFatalError("destroying a Scheduler with invocations still "
                     "queued; resolve every SpiceFuture before tearing "
                     "down the runtime");
}

bool Scheduler::overCapLocked(const Request &R) const {
  return RuntimeCap && QueuedInvs + R.Invocations > RuntimeCap;
}

void Scheduler::noteRemovedLocked(const Entry &E) {
  assert(QueuedInvs >= E.R.Invocations && "queue accounting out of sync");
  QueuedInvs -= std::min<uint64_t>(QueuedInvs, E.R.Invocations);
}

void Scheduler::sweepExpiredLocked(
    Clock::time_point Now, std::vector<std::function<void()>> &Drops) {
  for (size_t I = 0; I != Queue.size();) {
    Entry &E = Queue[I];
    // Immediate entries are exempt: the submission that enqueued them is
    // still inside its own grant pass, which must get first shot even at
    // a zero deadline.
    bool Expired =
        !E.Immediate && E.R.DeadlineMicros > 0 &&
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Now - E.Enqueued)
                .count()) >= E.R.DeadlineMicros;
    if (!Expired) {
      ++I;
      continue;
    }
    ++St.DroppedDeadline;
    noteRemovedLocked(E);
    if (E.R.OnDrop)
      Drops.push_back(std::move(E.R.OnDrop));
    Queue.erase(Queue.begin() + static_cast<std::ptrdiff_t>(I));
  }
}

uint64_t Scheduler::submit(Request R) {
  assert(R.RequestedLanes >= 1 && "a lane request needs at least one lane");
  assert(R.OnGrant && "a lane request needs a grant callback");
  assert(R.Invocations >= 1 && "a request admits at least one invocation");
  uint64_t Ticket;
  std::vector<std::function<void()>> Drops;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (overCapLocked(R)) {
      switch (Overload) {
      case OverloadPolicy::Block:
        // Self-deadlock diagnostic, same shape as awaitGrant's: room is
        // only made by grants, grants need lanes, and every lane is
        // leased to this thread's own (parked) stack.
        if (Pool.callerHoldsEntirePool())
          reportFatalError(
              "Scheduler::submit would deadlock waiting for queue "
              "room: this thread's sessions lease every worker of the "
              "pool, so the grants that would drain the queue can "
              "never happen (resolve earlier futures before submitting "
              "past the cap)");
        CapCV.wait(Lock, [&] { return !overCapLocked(R); });
        break;
      case OverloadPolicy::DeadlineDrop:
        // Expired entries make room first; what remains decides.
        sweepExpiredLocked(Clock::now(), Drops);
        if (!overCapLocked(R))
          break;
        [[fallthrough]];
      case OverloadPolicy::Reject:
        ++St.RejectedSubmissions;
        Lock.unlock();
        for (auto &D : Drops)
          D();
        return 0;
      }
    }
    Ticket = NextTicket++;
    QueuedInvs += R.Invocations;
    St.HighWaterQueueDepth =
        std::max<uint64_t>(St.HighWaterQueueDepth, QueuedInvs);
    ++St.Submitted;
    Queue.push_back(
        Entry{std::move(R), Clock::now(), Ticket, /*Immediate=*/true});
  }
  for (auto &D : Drops)
    D();
  runGrants();
  // If our own pass did not grant this request, it now waits for a
  // deferred grant and accumulates real queue time from Enqueued on.
  // Only this entry is downgraded: a concurrent submitter's entry stays
  // Immediate until *its* submit() finishes its own pass, keeping the
  // ImmediateGrants / QueuedMicros==0 definition exact per request.
  std::lock_guard<std::mutex> Lock(M);
  for (Entry &E : Queue)
    if (E.Ticket == Ticket)
      E.Immediate = false;
  return Ticket;
}

bool Scheduler::isQueued(uint64_t Ticket) const {
  std::lock_guard<std::mutex> Lock(M);
  for (const Entry &E : Queue)
    if (E.Ticket == Ticket)
      return true;
  return false;
}

void Scheduler::onLanesFreed() { runGrants(); }

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return St;
}

unsigned Scheduler::queueDepth() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(Queue.size());
}

uint64_t Scheduler::queuedInvocations() const {
  std::lock_guard<std::mutex> Lock(M);
  return QueuedInvs;
}

std::vector<Scheduler::Grant>
Scheduler::planGrants(const std::vector<Candidate> &Pending,
                      unsigned FreeLanes, LanePolicy Policy,
                      uint64_t AgingStepMicros,
                      const std::vector<unsigned> *NodeFreeLanes) {
  std::vector<Grant> Plan;
  if (FreeLanes == 0 || Pending.empty())
    return Plan;

  // FirstCome and Priority share the greedy core: walk an order, hand
  // each request everything it asked for while lanes remain.
  auto GreedyInOrder = [&](const std::vector<size_t> &Order) {
    unsigned Free = FreeLanes;
    for (size_t I : Order) {
      if (Free == 0)
        break;
      unsigned Lanes = std::min(Free, Pending[I].RequestedLanes);
      Plan.push_back(Grant{I, Lanes});
      Free -= Lanes;
    }
  };

  switch (Policy) {
  case LanePolicy::FirstCome: {
    std::vector<size_t> Order(Pending.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    GreedyInOrder(Order);
    break;
  }
  case LanePolicy::Priority: {
    // Effective priority = static priority + one step per
    // AgingStepMicros spent queued; ties resolve in admission order
    // (stable sort over the admission-ordered input).
    auto Effective = [&](const Candidate &C) {
      int64_t Aged = AgingStepMicros
                         ? static_cast<int64_t>(C.QueuedMicros /
                                                AgingStepMicros)
                         : 0;
      return static_cast<int64_t>(C.Priority) + Aged;
    };
    std::vector<size_t> Order(Pending.size());
    std::iota(Order.begin(), Order.end(), size_t{0});
    std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      return Effective(Pending[A]) > Effective(Pending[B]);
    });
    GreedyInOrder(Order);
    break;
  }
  case LanePolicy::FairShare: {
    // Proportional split: cap_i ~ FreeLanes * req_i / sum(req), clamped
    // to [1, req_i]. Overshoot (the floors of many small requests) is
    // trimmed from the back of the admission queue -- latest submissions
    // stay queued when there are more requests than lanes; undershoot
    // (rounding) is handed back one lane at a time in admission order.
    uint64_t SumReq = 0;
    for (const Candidate &C : Pending)
      SumReq += C.RequestedLanes;
    std::vector<unsigned> Caps(Pending.size());
    uint64_t Total = 0;
    for (size_t I = 0; I != Pending.size(); ++I) {
      uint64_t Share =
          SumReq ? uint64_t{FreeLanes} * Pending[I].RequestedLanes / SumReq : 0;
      Caps[I] = static_cast<unsigned>(std::clamp<uint64_t>(
          Share, 1, Pending[I].RequestedLanes));
      Total += Caps[I];
    }
    for (size_t I = Pending.size(); Total > FreeLanes && I-- > 0;) {
      uint64_t Excess = Total - FreeLanes;
      unsigned Keep = Caps[I] > Excess
                          ? Caps[I] - static_cast<unsigned>(Excess)
                          : 0;
      Total -= Caps[I] - Keep;
      Caps[I] = Keep;
    }
    bool Progress = true;
    while (Total < FreeLanes && Progress) {
      Progress = false;
      for (size_t I = 0; I != Pending.size() && Total < FreeLanes; ++I) {
        if (Caps[I] != 0 && Caps[I] < Pending[I].RequestedLanes) {
          ++Caps[I];
          ++Total;
          Progress = true;
        }
      }
    }
    for (size_t I = 0; I != Pending.size(); ++I)
      if (Caps[I] != 0)
        Plan.push_back(Grant{I, Caps[I]});
    break;
  }
  }

  // Node-packing post-pass (multi-node placement only): pick each
  // grant's home node so its lanes come from one node where possible.
  // Policy (who gets how many lanes) stays exactly as planned above;
  // only the trim-to-node rule may shrink a grant, and the lanes it
  // frees are re-offered to still-queued candidates below.
  if (NodeFreeLanes && NodeFreeLanes->size() > 1) {
    std::vector<unsigned> Free = *NodeFreeLanes;
    auto Largest = [&Free] {
      unsigned Big = 0;
      for (unsigned N = 1; N != Free.size(); ++N)
        if (Free[N] > Free[Big])
          Big = N;
      return Big;
    };
    for (Grant &G : Plan) {
      // Best fit: the smallest block covering the grant (ties to the
      // lower node id) leaves bigger blocks intact for wider grants.
      int Best = -1;
      for (unsigned N = 0; N != Free.size(); ++N)
        if (Free[N] >= G.Lanes &&
            (Best < 0 || Free[N] < Free[static_cast<unsigned>(Best)]))
          Best = static_cast<int>(N);
      if (Best >= 0) {
        G.Node = Best;
        Free[static_cast<unsigned>(Best)] -= G.Lanes;
        continue;
      }
      unsigned Big = Largest();
      if (Free[Big] > 0 && 2 * Free[Big] >= G.Lanes) {
        // Trim to the largest block: one-node locality beats raw lane
        // count when the block covers at least half the grant.
        G.Lanes = Free[Big];
        G.Node = static_cast<int>(Big);
        Free[Big] = 0;
        continue;
      }
      // The grant must span nodes; start it at the largest block and
      // account the spill against the next-largest blocks, mirroring
      // the pool's lease spill-over.
      G.Node = Free[Big] > 0 ? static_cast<int>(Big) : -1;
      unsigned Left = G.Lanes;
      while (Left > 0) {
        unsigned B = Largest();
        if (Free[B] == 0)
          break;
        unsigned Take = std::min(Free[B], Left);
        Free[B] -= Take;
        Left -= Take;
      }
    }
    // Trimmed lanes are real capacity: offer one node block each to the
    // candidates the policy pass left queued, in admission order.
    std::vector<bool> InPlan(Pending.size(), false);
    for (const Grant &G : Plan)
      InPlan[G.Index] = true;
    for (size_t I = 0; I != Pending.size(); ++I) {
      if (InPlan[I])
        continue;
      unsigned Big = Largest();
      if (Free[Big] == 0)
        break;
      unsigned Lanes = std::min(Pending[I].RequestedLanes, Free[Big]);
      Plan.push_back(Grant{I, Lanes, static_cast<int>(Big)});
      Free[Big] -= Lanes;
    }
  }
  return Plan;
}

void Scheduler::runGrants() {
  struct Action {
    Entry E;
    WorkerPool::SessionHandle Session;
    uint64_t QueuedMicros;
  };
  // The sole-candidate fast path fills Solo; only the contended
  // multi-candidate path pays for the planning vectors below.
  std::optional<Action> Solo;
  std::vector<Action> Actions;
  std::vector<std::function<void()>> Drops;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Queue.empty())
      return;
    Clock::time_point Now = Clock::now();
    // Expired entries leave before planning: a request past its deadline
    // is shed even when lanes just became free for it.
    if (Overload == OverloadPolicy::DeadlineDrop)
      sweepExpiredLocked(Now, Drops);
    if (Queue.size() == 1) {
      // Fast path: with a single queued request, every LanePolicy grants
      // it min(free lanes, requested) -- greedy, proportional, and
      // priority orders are all trivial -- so skip planGrants and its
      // per-pass Pending/Plan/Granted vectors. tryAcquireSessionFor
      // itself returns null when no lane is free. This is the shape of
      // every uncontended submit() and of the serving steady state.
      Entry &E = Queue.front();
      WorkerPool::SessionHandle S = Pool.tryAcquireSessionFor(
          E.R.RequestedLanes, E.R.AllowStealing, E.R.Owner);
      if (S) {
        if (E.Immediate)
          ++St.ImmediateGrants;
        else
          ++St.DeferredGrants;
        if (S->lanes() < E.R.RequestedLanes)
          ++St.CappedGrants;
        uint64_t Waited =
            E.Immediate
                ? 0
                : static_cast<uint64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(
                          Now - E.Enqueued)
                          .count());
        St.TotalQueuedMicros += Waited;
        noteRemovedLocked(E);
        Solo.emplace(Action{std::move(E), std::move(S), Waited});
        Queue.pop_front();
      }
    } else if (!Queue.empty()) {
      // One snapshot drives both the lane total and the node-packing
      // post-pass, so the plan can never see more (or differently
      // distributed) lanes than the nodes it packs onto.
      unsigned Free;
      const std::vector<unsigned> *NodeFree = nullptr;
      if (Pool.localityActive()) {
        Pool.freeWorkersByNode(NodeFreeScratch);
        Free = 0;
        for (unsigned N : NodeFreeScratch)
          Free += N;
        NodeFree = &NodeFreeScratch;
      } else {
        Free = Pool.freeWorkers();
      }
      if (Free > 0) {
        std::vector<Candidate> Pending;
        Pending.reserve(Queue.size());
        for (const Entry &E : Queue) {
          uint64_t Waited =
              E.Immediate
                  ? 0
                  : static_cast<uint64_t>(
                        std::chrono::duration_cast<std::chrono::microseconds>(
                            Now - E.Enqueued)
                            .count());
          Pending.push_back(
              Candidate{E.R.RequestedLanes, E.R.Priority, Waited});
        }
        std::vector<Grant> Plan =
            planGrants(Pending, Free, Policy, kAgingStepMicros, NodeFree);
        std::vector<size_t> Granted;
        for (const Grant &G : Plan) {
          Entry &E = Queue[G.Index];
          WorkerPool::SessionHandle S = Pool.tryAcquireSessionFor(
              G.Lanes, E.R.AllowStealing, E.R.Owner, G.Node);
          if (!S)
            break; // Raced with another lease; retry on next release.
          if (E.Immediate)
            ++St.ImmediateGrants;
          else
            ++St.DeferredGrants;
          if (S->lanes() < E.R.RequestedLanes)
            ++St.CappedGrants;
          uint64_t Waited = Pending[G.Index].QueuedMicros;
          St.TotalQueuedMicros += Waited;
          noteRemovedLocked(E);
          Actions.push_back(Action{std::move(E), std::move(S), Waited});
          Granted.push_back(G.Index);
        }
        std::sort(Granted.begin(), Granted.end());
        for (size_t I = Granted.size(); I-- > 0;)
          Queue.erase(Queue.begin() +
                      static_cast<std::ptrdiff_t>(Granted[I]));
      }
    }
  }
  // Every removal makes room below the cap: wake parked Block
  // submitters before running the callbacks.
  if (Solo || !Actions.empty() || !Drops.empty())
    CapCV.notify_all();
  for (auto &D : Drops)
    D();
  // Callbacks run with no scheduler or pool lock held: they push chunks
  // and launch the leased lanes, which take pool-side locks of their own.
  if (Solo)
    Solo->E.R.OnGrant(std::move(Solo->Session), Solo->QueuedMicros);
  for (Action &A : Actions)
    A.E.R.OnGrant(std::move(A.Session), A.QueuedMicros);
}
