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
#include <utility>

using namespace spice;
using namespace spice::core;

static uint64_t microsBetween(Scheduler::Clock::time_point From,
                              Scheduler::Clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(To - From).count());
}

Scheduler::Scheduler(WorkerPool &Pool, const RuntimeConfig &Config)
    : Pool(Pool), Policy(Config.Policy),
      RuntimeCap(Config.MaxQueuedInvocations), Overload(Config.Overload),
      Holder(Pool.size()), FreeCount(Pool.size()) {
  if (Pool.localityActive())
    for (unsigned N = 0; N != Pool.numNodes(); ++N)
      FreeByNode.push_back(Pool.placement()->workersOfNode(N));
}

Scheduler::~Scheduler() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Queue.empty())
    reportFatalError("destroying a Scheduler with invocations still "
                     "queued; resolve every SpiceFuture before tearing "
                     "down the runtime");
  assert(FreeCount == Holder.size() &&
         "destroying a Scheduler with sessions still leased");
}

bool Scheduler::overCapLocked(const Request &R) const {
  return RuntimeCap && QueuedInvs + R.Invocations > RuntimeCap;
}

void Scheduler::noteRemovedLocked(const Entry &E) {
  assert(QueuedInvs >= E.R.Invocations && "queue accounting out of sync");
  QueuedInvs -= std::min<uint64_t>(QueuedInvs, E.R.Invocations);
}

void Scheduler::sweepExpiredLocked(Clock::time_point Now, uint64_t Spare,
                                   std::vector<std::function<void()>> &Drops) {
  for (size_t I = 0; I != Queue.size();) {
    Entry &E = Queue[I];
    bool Expired = E.Ticket != Spare && E.R.DeadlineMicros > 0 &&
                   microsBetween(E.Enqueued, Now) >= E.R.DeadlineMicros;
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
  Outcome Out;
  uint64_t Ticket;
  {
    std::unique_lock<std::mutex> Lock(M);
    if (overCapLocked(R)) {
      switch (Overload) {
      case OverloadPolicy::Block:
        // Self-deadlock diagnostic, same query as awaitGrant's: room is
        // only made by grants, grants need lanes, and every lane is
        // leased to this thread's own (parked) stack.
        if (callerHoldsEveryWorkerLocked())
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
        sweepExpiredLocked(Clock::now(), /*Spare=*/0, Out.Drops);
        if (!overCapLocked(R))
          break;
        [[fallthrough]];
      case OverloadPolicy::Reject:
        ++St.RejectedSubmissions;
        Lock.unlock();
        deliver(Out);
        return 0;
      }
    }
    Ticket = NextTicket++;
    QueuedInvs += R.Invocations;
    St.HighWaterQueueDepth =
        std::max<uint64_t>(St.HighWaterQueueDepth, QueuedInvs);
    ++St.Submitted;
    Queue.push_back(Entry{std::move(R), Clock::now(), Ticket});
    grantLocked(/*Fresh=*/Ticket, Out);
  }
  deliver(Out);
  return Ticket;
}

Scheduler::SessionHandle
Scheduler::tryAcquireSessionFor(unsigned MaxLanes, bool AllowStealing,
                                std::thread::id Owner) {
  std::lock_guard<std::mutex> Lock(M);
  if (FreeCount == 0)
    return nullptr;
  return leaseLocked(MaxLanes, AllowStealing, Owner);
}

bool Scheduler::queuedBehindOwnLeases(uint64_t Ticket) const {
  std::lock_guard<std::mutex> Lock(M);
  return callerHoldsEveryWorkerLocked() &&
         std::any_of(Queue.begin(), Queue.end(),
                     [Ticket](const Entry &E) { return E.Ticket == Ticket; });
}

bool Scheduler::callerHoldsEveryWorkerLocked() const {
  const std::thread::id Me = std::this_thread::get_id();
  return !Holder.empty() &&
         std::all_of(Holder.begin(), Holder.end(),
                     [Me](std::thread::id H) { return H == Me; });
}

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

unsigned Scheduler::freeWorkers() const {
  std::lock_guard<std::mutex> Lock(M);
  return FreeCount;
}

unsigned Scheduler::freeWorkersOnNode(unsigned Node) const {
  std::lock_guard<std::mutex> Lock(M);
  unsigned Free = 0;
  for (unsigned W = 0; W != Holder.size(); ++W)
    Free += Holder[W] == std::thread::id() && Pool.nodeOfWorker(W) == Node;
  return Free;
}

std::vector<Scheduler::Grant>
Scheduler::planGrants(const std::vector<Candidate> &Pending, unsigned FreeLanes,
                      LanePolicy Policy, uint64_t AgingStepMicros) {
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

  return Plan;
}

unsigned Scheduler::widestNodeLocked() const {
  return static_cast<unsigned>(
      std::max_element(FreeByNode.begin(), FreeByNode.end()) -
      FreeByNode.begin());
}

Scheduler::SessionHandle
Scheduler::leaseLocked(unsigned MaxLanes, bool AllowStealing,
                       std::thread::id Owner) {
  assert(FreeCount > 0 && MaxLanes >= 1 && "leasing with no free worker");
  assert(Owner != std::thread::id() && "a lease needs an owner thread");
  unsigned Take = std::min(FreeCount, MaxLanes);
  unsigned Start = 0;
  if (!FreeByNode.empty()) {
    // Best fit: the smallest free node block covering the ask (ties to
    // the lower node id), leaving bigger blocks intact for wider asks.
    int Best = -1;
    for (unsigned N = 0; N != FreeByNode.size(); ++N)
      if (FreeByNode[N] >= Take &&
          (Best < 0 || FreeByNode[N] < FreeByNode[Best]))
        Best = static_cast<int>(N);
    if (Best >= 0) {
      Start = static_cast<unsigned>(Best);
    } else {
      // No node covers the ask. Trim to the largest free block when it
      // covers at least half of it -- one-node locality beats raw lane
      // count there -- else span nodes starting from that block.
      Start = widestNodeLocked();
      if (2 * FreeByNode[Start] >= Take)
        Take = FreeByNode[Start];
    }
  }
  SessionHandle S(Pool.takeSession(Start), Release{this});
  auto TakeFrom = [&](unsigned First, unsigned Last) {
    for (unsigned W = First; W != Last && S->lanes() != Take; ++W) {
      if (Holder[W] != std::thread::id())
        continue;
      Holder[W] = Owner;
      S->Workers.push_back(W);
    }
  };
  if (FreeByNode.empty()) {
    // Topology-blind lease: first free workers by index.
    TakeFrom(0, static_cast<unsigned>(Holder.size()));
  } else {
    // Node-contiguous lease: drain Start's free workers first (the
    // placement lays each node out as one index range), then spill to
    // whichever node has the most free workers until the ask is covered.
    for (unsigned Node = Start; S->lanes() != Take;
         Node = widestNodeLocked()) {
      unsigned Before = S->lanes();
      auto [First, Last] = Pool.placement()->workerRangeOfNode(Node);
      TakeFrom(First, Last);
      FreeByNode[Node] -= S->lanes() - Before;
    }
  }
  FreeCount -= Take;
  S->open(AllowStealing);
  return S;
}

void Scheduler::release(WorkerSession *S) {
  Outcome Out;
  {
    std::lock_guard<std::mutex> Lock(M);
    for (unsigned W : S->Workers) {
      assert(Holder[W] != std::thread::id() &&
             "releasing a worker that was not leased");
      Holder[W] = std::thread::id();
      if (!FreeByNode.empty())
        ++FreeByNode[Pool.nodeOfWorker(W)];
    }
    FreeCount += S->lanes();
    // Parked before the pass, so a grant this release makes can reuse
    // the session it is releasing.
    Pool.parkSession(S);
    grantLocked(/*Fresh=*/0, Out);
  }
  deliver(Out);
}

void Scheduler::grantLocked(uint64_t Fresh, Outcome &Out) {
  if (Queue.empty())
    return;
  const Clock::time_point Now = Clock::now();
  // Expired entries leave before planning: a request past its deadline
  // is shed even when lanes just became free for it.
  if (Overload == OverloadPolicy::DeadlineDrop)
    sweepExpiredLocked(Now, /*Spare=*/Fresh, Out.Drops);
  auto QueuedFor = [&](const Entry &E) {
    return E.Ticket == Fresh ? 0 : microsBetween(E.Enqueued, Now);
  };
  // Leases, counts, and hands off one granted entry; the emptied
  // OnGrant marks it for removal below.
  auto GrantEntry = [&](Entry &E, unsigned Lanes) {
    SessionHandle S = leaseLocked(Lanes, E.R.AllowStealing, E.R.Owner);
    ++(E.Ticket == Fresh ? St.ImmediateGrants : St.DeferredGrants);
    if (S->lanes() < std::min(E.R.RequestedLanes, Pool.size()))
      ++St.CappedGrants;
    uint64_t Waited = QueuedFor(E);
    St.TotalQueuedMicros += Waited;
    noteRemovedLocked(E);
    Handoff H{std::exchange(E.R.OnGrant, nullptr), std::move(S), Waited};
    if (!Out.First)
      Out.First.emplace(std::move(H));
    else
      Out.Rest.push_back(std::move(H));
  };
  // Every round grants at least one request. Another round runs only
  // when a node trim left workers free while requests are still queued.
  while (!Queue.empty() && FreeCount > 0) {
    if (Queue.size() == 1) {
      // Every LanePolicy grants a sole request min(free, requested), so
      // skip planGrants and its vectors: the shape of every uncontended
      // submit() and of the serving steady state.
      GrantEntry(Queue.front(), Queue.front().R.RequestedLanes);
    } else {
      std::vector<Candidate> Pending;
      Pending.reserve(Queue.size());
      for (const Entry &E : Queue)
        Pending.push_back(
            Candidate{E.R.RequestedLanes, E.R.Priority, QueuedFor(E)});
      for (const Grant &G :
           planGrants(Pending, FreeCount, Policy, kAgingStepMicros))
        GrantEntry(Queue[G.Index], G.Lanes);
    }
    std::erase_if(Queue, [](const Entry &E) { return !E.R.OnGrant; });
  }
}

void Scheduler::deliver(Outcome &Out) {
  // Every removal makes room below the cap: wake parked Block
  // submitters before running the callbacks.
  if (Out.First || !Out.Drops.empty())
    CapCV.notify_all();
  for (auto &D : Out.Drops)
    D();
  // Callbacks run with no scheduler lock held: they push chunks and
  // launch the leased lanes.
  if (Out.First)
    Out.First->OnGrant(std::move(Out.First->Session), Out.First->QueuedMicros);
  for (Handoff &H : Out.Rest)
    H.OnGrant(std::move(H.Session), H.QueuedMicros);
}
