//===- core/WorkerPool.cpp - Shared workers + leased lane sessions --------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/WorkerPool.h"

#include "core/SpecWriteBuffer.h"
#include "support/ErrorHandling.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

using namespace spice;
using namespace spice::core;
using namespace spice::core::detail;

//===----------------------------------------------------------------------===//
// Waiting on a word
//===----------------------------------------------------------------------===//

static void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

void detail::awaitWord(const std::atomic<uint32_t> &Word, uint32_t Target) {
  for (unsigned I = 0; I != WaitSpins; ++I) {
    if (Word.load(std::memory_order_acquire) == Target)
      return;
    cpuRelax();
  }
  for (uint32_t V; (V = Word.load(std::memory_order_acquire)) != Target;)
    Word.wait(V, std::memory_order_acquire);
}

//===----------------------------------------------------------------------===//
// ChunkDeques
//===----------------------------------------------------------------------===//

void ChunkDeques::reset(unsigned NumLanes, bool AllowStealing) {
  // Adjust incrementally: existing Lane objects (and their deque
  // storage) survive a lane-count change, so a recycled session only
  // allocates the delta.
  if (Lanes.size() > NumLanes)
    Lanes.resize(NumLanes);
  while (Lanes.size() < NumLanes)
    Lanes.push_back(std::make_unique<Lane>());
  for (auto &L : Lanes)
    L->Q.clear();
  Stealing = AllowStealing;
  // Locality belongs to a lease: the next one re-installs it (or not).
  // The locality vectors keep their capacity for that re-install.
  UseLocality = false;
  LocalSteals.store(0, std::memory_order_relaxed);
  RemoteSteals.store(0, std::memory_order_relaxed);
}

void ChunkDeques::setLocality(const topology::Placement &P,
                              const std::vector<unsigned> &Workers) {
  assert(Workers.size() == Lanes.size() &&
         "locality installed for a different lease");
  size_t L = Lanes.size();
  LaneNode.resize(L);
  LaneCpu.resize(L);
  for (size_t I = 0; I != L; ++I) {
    LaneNode[I] = P.nodeOfWorker(Workers[I]);
    LaneCpu[I] = P.cpuOfWorker(Workers[I]);
  }
  VictimOrder.clear();
  if (L > 1) {
    VictimOrder.reserve(L * (L - 1));
    for (size_t I = 0; I != L; ++I) {
      topology::Placement::victimOrder(static_cast<unsigned>(I), LaneCpu,
                                       LaneNode, OrderScratch);
      VictimOrder.insert(VictimOrder.end(), OrderScratch.begin(),
                         OrderScratch.end());
    }
  }
  UseLocality = true;
}

void ChunkDeques::clear() {
  for (auto &L : Lanes) {
    std::lock_guard<std::mutex> Lock(L->M);
    L->Q.clear();
  }
}

void ChunkDeques::push(unsigned LaneIdx, uint32_t Chunk) {
  assert(LaneIdx < Lanes.size() && "push into nonexistent lane");
  Lane &L = *Lanes[LaneIdx];
  std::lock_guard<std::mutex> Lock(L.M);
  L.Q.push_back(Chunk);
}

void ChunkDeques::pushFront(unsigned LaneIdx, uint32_t Chunk) {
  assert(LaneIdx < Lanes.size() && "push into nonexistent lane");
  Lane &L = *Lanes[LaneIdx];
  std::lock_guard<std::mutex> Lock(L.M);
  L.Q.push_front(Chunk);
}

bool ChunkDeques::acquire(unsigned LaneIdx, uint32_t &Chunk, bool &Stolen) {
  assert(LaneIdx < Lanes.size() && "acquire from nonexistent lane");
  {
    Lane &Own = *Lanes[LaneIdx];
    std::lock_guard<std::mutex> Lock(Own.M);
    if (!Own.Q.empty()) {
      Chunk = Own.Q.front();
      Own.Q.pop_front();
      Stolen = false;
      return true;
    }
  }
  if (!Stealing)
    return false;
  // Steal from the back (most speculative chunk) of the other lanes.
  if (UseLocality) {
    // Placement-aware victim scan: same-core siblings first, then
    // same-node lanes, then remote nodes (precomputed per lane by
    // setLocality), counting which side of the node boundary the steal
    // landed on.
    size_t NumVictims = Lanes.size() - 1;
    const unsigned *Order = VictimOrder.data() + LaneIdx * NumVictims;
    for (size_t I = 0; I != NumVictims; ++I) {
      unsigned V = Order[I];
      Lane &Victim = *Lanes[V];
      std::lock_guard<std::mutex> Lock(Victim.M);
      if (!Victim.Q.empty()) {
        Chunk = Victim.Q.back();
        Victim.Q.pop_back();
        Stolen = true;
        (LaneNode[V] == LaneNode[LaneIdx] ? LocalSteals : RemoteSteals)
            .fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
  // Blind ring scan from our right-hand neighbour. Every steal is local
  // by definition: without a placement there is only one node.
  for (size_t Off = 1; Off != Lanes.size(); ++Off) {
    Lane &Victim = *Lanes[(LaneIdx + Off) % Lanes.size()];
    std::lock_guard<std::mutex> Lock(Victim.M);
    if (!Victim.Q.empty()) {
      Chunk = Victim.Q.back();
      Victim.Q.pop_back();
      Stolen = true;
      LocalSteals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

bool ChunkDeques::helpPopFront(uint32_t &Chunk) {
  // The producer resolves chunks in order, so prefer the globally oldest
  // pending chunk: scan every lane front, then pop the minimum. The scan
  // takes one lane lock at a time; if the chosen front was acquired by a
  // worker in between, rescan.
  for (;;) {
    size_t BestLane = Lanes.size();
    uint32_t BestChunk = 0;
    for (size_t I = 0; I != Lanes.size(); ++I) {
      std::lock_guard<std::mutex> Lock(Lanes[I]->M);
      if (!Lanes[I]->Q.empty() &&
          (BestLane == Lanes.size() || Lanes[I]->Q.front() < BestChunk)) {
        BestLane = I;
        BestChunk = Lanes[I]->Q.front();
      }
    }
    if (BestLane == Lanes.size())
      return false;
    std::lock_guard<std::mutex> Lock(Lanes[BestLane]->M);
    std::deque<uint32_t> &Q = Lanes[BestLane]->Q;
    if (!Q.empty() && Q.front() == BestChunk) {
      Chunk = BestChunk;
      Q.pop_front();
      return true;
    }
  }
}

size_t ChunkDeques::pending() const {
  size_t N = 0;
  for (const auto &LanePtr : Lanes) {
    std::lock_guard<std::mutex> Lock(LanePtr->M);
    N += LanePtr->Q.size();
  }
  return N;
}

ChunkDeques::StealCounters ChunkDeques::takeStealCounters() {
  StealCounters C;
  C.Local = LocalSteals.exchange(0, std::memory_order_relaxed);
  C.Remote = RemoteSteals.exchange(0, std::memory_order_relaxed);
  return C;
}

//===----------------------------------------------------------------------===//
// WorkerSession
//===----------------------------------------------------------------------===//

void WorkerSession::open(bool AllowStealing) {
  Deques.reset(lanes(), AllowStealing);
  if (Pool.localityActive())
    Deques.setLocality(*Pool.placement(), Workers);
}

void WorkerSession::launch(std::function<void(unsigned)> NewJob) {
  assert(!InFlight && "re-entrant WorkerSession::launch without wait()");
  if (InFlight)
    reportFatalError("WorkerSession::launch called while a previous "
                     "launch is still in flight; call wait() first");
  InFlight = true;
  Job = std::move(NewJob);
  Remaining.store(lanes(), std::memory_order_relaxed);
  // The lease (under the scheduler mutex) made these slots ours, and each
  // worker has left its previous job, so the plain writes are ordered
  // before the release increment that wakes the worker.
  for (unsigned L = 0; L != Workers.size(); ++L) {
    WorkerPool::WorkerSlot &Slot = Pool.Slots[Workers[L]];
    assert(Slot.Wake.load(std::memory_order_relaxed) % 2 == 0 &&
           "leased worker is still running a job");
    Slot.Session = this;
    Slot.Lane = L;
    Slot.Wake.fetch_add(1, std::memory_order_release);
    Slot.Wake.notify_one();
  }
}

void WorkerSession::wait() {
  detail::awaitWord(Remaining, 0);
  InFlight = false;
}

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

WorkerPool::WorkerPool(unsigned NumWorkers,
                       std::function<void(unsigned)> StartHook,
                       std::shared_ptr<const topology::Placement> Placement)
    : WorkerStartHook(std::move(StartHook)), Place(std::move(Placement)),
      Slots(NumWorkers) {
  assert((!Place || Place->numWorkers() == NumWorkers) &&
         "placement sized for a different pool");
  if (Place && Place->numWorkers() != NumWorkers)
    reportFatalError("WorkerPool placement does not cover the pool's "
                     "workers (placement built for a different size?)");
  if (localityActive()) {
    // Per-node freelist shards, so reused sessions and warm buffers stay
    // with the node that touched them.
    BufferShards.reserve(Place->numNodes());
    for (unsigned N = 0; N != Place->numNodes(); ++N)
      BufferShards.push_back(std::make_unique<BufferShard>());
  }
  FreeSessionShards.resize(localityActive() ? Place->numNodes() : 1);
  Threads.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

WorkerPool::~WorkerPool() {
  // Every worker is parked (all sessions waited and released): a wake
  // with no session tells it to exit.
  for (WorkerSlot &Slot : Slots) {
    Slot.Session = nullptr;
    Slot.Wake.fetch_add(1, std::memory_order_release);
    Slot.Wake.notify_one();
  }
  for (std::thread &T : Threads)
    T.join();
  // Workers are joined: the freelists can no longer be touched. Any
  // drawn buffer is back in its shard between invocations, so the
  // shards own every buffer by now.
  for (std::vector<WorkerSession *> &Shard : FreeSessionShards)
    for (WorkerSession *S : Shard)
      delete S;
  for (std::unique_ptr<BufferShard> &Shard : BufferShards)
    for (SpecWriteBuffer *B : Shard->Free)
      delete B;
}

void WorkerPool::workerMain(unsigned Index) {
  if (WorkerStartHook) {
    // An exception here would escape the thread entry point as a bare
    // std::terminate with no context, leaving the pool's accounting
    // expecting a worker that never parks. Fail loudly instead: the
    // pool cannot run without its workers.
    try {
      WorkerStartHook(Index);
    } catch (const std::exception &E) {
      std::string Msg =
          "RuntimeConfig::WorkerStartHook threw during worker start: ";
      Msg += E.what();
      reportFatalError(Msg.c_str(), __FILE__, __LINE__);
    } catch (...) {
      reportFatalError("RuntimeConfig::WorkerStartHook threw a non-"
                       "std::exception value during worker start",
                       __FILE__, __LINE__);
    }
  }
  WorkerSlot &Slot = Slots[Index];
  for (uint32_t Parked = 0;; Parked += 2) {
    Slot.Wake.wait(Parked, std::memory_order_acquire);
    WorkerSession *Session = Slot.Session;
    if (!Session)
      return;
    // The job lives once in the session: written before the wake we
    // just acquired, and not rewritten until after wait(), so calling
    // it here without a copy is ordered and race-free.
    Session->Job(Slot.Lane);
    Slot.Wake.store(Parked + 2, std::memory_order_release);
    // The session outlives this notify: the pool deletes recycled
    // sessions only after joining its workers.
    if (Session->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      Session->Remaining.notify_one();
  }
}

WorkerSession *WorkerPool::takeSession(unsigned Shard) {
  std::lock_guard<std::mutex> Lock(FreelistM);
  // The home shard's sessions ran on this node last -- their deque and
  // job storage is warm there. Any parked session beats an allocation,
  // so fall through the other shards before newing.
  for (size_t I = 0; I != FreeSessionShards.size(); ++I) {
    std::vector<WorkerSession *> &List =
        FreeSessionShards[(Shard + I) % FreeSessionShards.size()];
    if (!List.empty()) {
      WorkerSession *S = List.back();
      List.pop_back();
      ++PoolSt.SessionPoolHits;
      return S;
    }
  }
  ++PoolSt.SessionsCreated;
  return new WorkerSession(*this);
}

void WorkerPool::parkSession(WorkerSession *S) {
  assert(!S->InFlight && "recycling a session with a job still in flight");
  unsigned Shard = 0;
  if (localityActive() && !S->Workers.empty())
    Shard = nodeOfWorker(S->Workers[0]);
  S->Workers.clear();
  std::lock_guard<std::mutex> Lock(FreelistM);
  FreeSessionShards[Shard].push_back(S);
}

unsigned WorkerPool::busyWorkers() const {
  unsigned Busy = 0;
  for (const WorkerSlot &Slot : Slots)
    Busy += Slot.Wake.load(std::memory_order_acquire) % 2;
  return Busy;
}

SessionPoolStats WorkerPool::sessionPoolStats() const {
  std::lock_guard<std::mutex> Lock(FreelistM);
  return PoolSt;
}

SpecWriteBuffer *WorkerPool::acquireSpecBuffer(unsigned Node) {
  assert(Node < BufferShards.size() &&
         "buffer draw for a node without a shard");
  BufferShard &Shard = *BufferShards[Node];
  {
    std::lock_guard<std::mutex> Lock(Shard.M);
    if (!Shard.Free.empty()) {
      SpecWriteBuffer *B = Shard.Free.back();
      Shard.Free.pop_back();
      return B;
    }
  }
  return new SpecWriteBuffer();
}

void WorkerPool::releaseSpecBuffer(unsigned Node, SpecWriteBuffer *B) {
  assert(Node < BufferShards.size() &&
         "buffer release for a node without a shard");
  BufferShard &Shard = *BufferShards[Node];
  std::lock_guard<std::mutex> Lock(Shard.M);
  Shard.Free.push_back(B);
}
