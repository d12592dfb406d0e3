//===- core/WorkerPool.h - Shared workers, leased lane sessions -*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper pre-allocates threads to cores at program entry and wakes them
/// with a new_invocation token per loop invocation, avoiding per-invocation
/// spawn cost. WorkerPool reproduces that: N persistent threads, each
/// parked on its own wake word (std::atomic::wait). One pool is shared by
/// every loop of a SpiceRuntime, so an invocation does not own the threads
/// -- it *leases* them, through the runtime's Scheduler (core/Scheduler.h):
///
///   WorkerPool::SessionHandle S =
///       Pool.tryAcquireSessionFor(MaxLanes, Stealing, Owner);
///   for (...) S->pushChunk(Lane, Chunk);
///   S->launch([&](unsigned Lane) {
///     while (S->acquireChunk(Lane, ...)) ...; // Leave once nothing is left.
///   });
///   ... S->helpPopFront(...) / S->pushChunkFront(...) ...
///   S->wait();            // Handle destruction returns the lanes.
///
/// tryAcquireSessionFor() partitions the free workers: it hands out up to
/// MaxLanes of them, so concurrent invocations -- of different loops, from
/// different client threads -- split the pool instead of serializing on
/// it. It never blocks: with no free worker it returns null, and the
/// Scheduler queues the request until a release (setReleaseHook) frees a
/// lane. Waiting for lanes, and the self-deadlock check that guards the
/// wait, therefore live in the Scheduler. launch() wakes exactly the
/// leased workers, one wake word each; wait() spins briefly on the
/// session's countdown of running lanes and then parks on it.
///
/// Each session owns its own chunk deques (one lane per leased worker): a
/// worker pops its own lane from the front (oldest, least speculative
/// chunk first) and, when its lane is empty, steals from the back of the
/// session's other lanes (the most speculative chunk, leaving earlier
/// chunks to their owner). acquireChunk() never blocks: a lane leaves its
/// job as soon as every deque is empty. The producer (the client thread
/// driving the session) may push more chunks -- recovery chunks after a
/// mis-speculation -- at any time, but must then be ready to run them
/// itself via helpPopFront(), front-first: no lane may be left to take
/// them. The deques are mutex-guarded: chunks are coarse units of loop
/// work, so queue transfer cost is irrelevant next to chunk execution and
/// the simple locking keeps the protocol easy to reason about (and
/// TSan-clean).
///
/// When the pool is built with a multi-node topology::Placement
/// (docs/topology.md), locality shapes all of this: leases take
/// node-contiguous worker ranges (packing an invocation onto one node,
/// with a trim-to-node rule when no node has enough free lanes), steals
/// scan victims same-core -> same-node -> remote and count their
/// locality (ChunkDeques::takeStealCounters), and released sessions and
/// warm SpecWriteBuffers park on per-node freelist shards so a reused
/// session or buffer is warm in the right node's cache. Without a
/// placement -- or on a single node -- none of it engages and every
/// path below is bit-for-bit the topology-blind behavior.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_WORKERPOOL_H
#define SPICE_CORE_WORKERPOOL_H

#include "topology/Placement.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace spice {
namespace core {

class SpecWriteBuffer;
class WorkerPool;

namespace detail {

/// Pause instructions a waiter spins on its word before it parks in
/// std::atomic::wait. 1024 pauses are ~16 us on the 4-core Xeon the
/// spicebench figures come from (~16 ns per pause), just above the
/// ~15 us median wake-up of a parked worker there: a resolver whose
/// chunk is one worker wake-up away sees it done without being put to
/// sleep and woken itself, while a longer wait hands the core back.
/// A fixed bound, not a tuning knob.
inline constexpr unsigned WaitSpins = 1024;

/// Returns once \p Word holds \p Target (acquire): spins up to WaitSpins
/// pauses, then parks in std::atomic::wait, so whoever stores the
/// target must notify the word.
void awaitWord(const std::atomic<uint32_t> &Word, uint32_t Target);

/// A set of per-lane chunk deques with optional back-stealing. One
/// instance per session; all methods are thread-safe against each other.
class ChunkDeques {
public:
  /// Worker-to-worker steal counts by victim locality, accumulated
  /// since the last takeStealCounters(). Main-thread helpPopFront is
  /// not a steal and counts in neither bucket. Without locality
  /// (setLocality not called since the last reset) every steal is
  /// Local: one node means nothing is remote.
  struct StealCounters {
    uint64_t Local = 0;
    uint64_t Remote = 0;
  };

  /// Prepares \p NumLanes empty deques, discarding any previous state
  /// (including locality: the next lease must call setLocality again).
  void reset(unsigned NumLanes, bool AllowStealing);

  /// Installs the steal-locality order for this lease: lane i runs on
  /// pool worker \p Workers[i], whose node and cpu slot \p P knows.
  /// Steals then scan victims same-core -> same-node -> remote (ring
  /// order within each class) instead of the blind ring, and the
  /// counters split by locality. Only between reset() and the first
  /// acquire.
  void setLocality(const topology::Placement &P,
                   const std::vector<unsigned> &Workers);

  /// Drops every pending chunk, keeping the lane count and stealing
  /// mode. Only valid while no acquirer is active -- between a wait()
  /// and the next launch().
  void clear();

  void push(unsigned Lane, uint32_t Chunk);
  void pushFront(unsigned Lane, uint32_t Chunk);

  /// Worker-side acquire: pops the front of \p Lane's own deque, else
  /// (with stealing) the back of another lane, setting \p Stolen. Never
  /// blocks: returns false as soon as nothing is pending.
  bool acquire(unsigned Lane, uint32_t &Chunk, bool &Stolen);

  /// Producer-side non-blocking help: pops the oldest pending chunk
  /// across all lanes. Returns false when nothing is pending.
  bool helpPopFront(uint32_t &Chunk);

  /// Pending (not yet acquired) chunks across all lanes.
  size_t pending() const;

  /// Reads and zeroes the steal-locality counters. Only race-free while
  /// no acquirer is active (after a wait(), before the next launch) --
  /// the resolve path reads them once per launch round.
  StealCounters takeStealCounters();

private:
  /// One per-lane deque. Mutex-guarded; padded indirectly by the
  /// surrounding unique_ptr allocation granularity.
  struct Lane {
    mutable std::mutex M;
    std::deque<uint32_t> Q;
  };

  std::vector<std::unique_ptr<Lane>> Lanes;
  bool Stealing = true;

  /// Locality state (setLocality). The vectors keep their capacity
  /// across reset() so a recycled session's lease re-fills them without
  /// allocating.
  bool UseLocality = false;
  std::vector<unsigned> LaneNode; ///< lane -> placement node
  std::vector<unsigned> LaneCpu;  ///< lane -> placement cpu slot
  /// Flat victim order: lane i's Lanes.size()-1 victims at offset
  /// i * (Lanes.size() - 1), same-core first, then same-node, then
  /// remote.
  std::vector<unsigned> VictimOrder;
  std::vector<unsigned> OrderScratch; ///< setLocality per-lane scratch.
  std::atomic<uint64_t> LocalSteals{0};
  std::atomic<uint64_t> RemoteSteals{0};
};

} // namespace detail

/// A lease of worker lanes for one invocation: up to MaxLanes workers,
/// partitioned off the shared pool, plus this invocation's private chunk
/// deques. Created by WorkerPool::tryAcquireSessionFor(); destroying the
/// handle returns the workers to the pool. One client thread drives a
/// session (push/launch/help/close/wait); the leased workers run its job.
class WorkerSession {
public:
  /// SessionHandle deleter: returns the lanes and parks the session
  /// object on the pool's freelist for reuse (its deques keep their lane
  /// allocations), instead of destroying it. The pool deletes parked
  /// sessions at teardown.
  struct Recycler {
    void operator()(WorkerSession *S) const;
  };

  ~WorkerSession() {
    assert(!InFlight && "destroying a session with a job still in flight");
  }
  WorkerSession(const WorkerSession &) = delete;
  WorkerSession &operator=(const WorkerSession &) = delete;

  /// Lanes leased to this session (>= 1).
  unsigned lanes() const { return static_cast<unsigned>(Workers.size()); }

  /// Placement node of the worker behind \p Lane; 0 when the pool has
  /// no placement. What the loop's per-chunk buffer draw keys on.
  unsigned laneNode(unsigned Lane) const;

  /// Wakes the leased workers -- through their wake words, no one else
  /// -- to run Job(LaneIndex), LaneIndex in [0, lanes()). The client
  /// thread does not participate and may execute its own chunk
  /// concurrently. Must be paired with wait().
  void launch(std::function<void(unsigned)> Job);

  /// Returns once every leased worker has finished the launched job:
  /// a short spin on the running-lane countdown, then a park on it.
  void wait();

  /// This session's chunk deques (see ChunkDeques; one lane per leased
  /// worker, reset empty by tryAcquireSessionFor).
  void pushChunk(unsigned Lane, uint32_t Chunk) { Deques.push(Lane, Chunk); }
  void pushChunkFront(unsigned Lane, uint32_t Chunk) {
    Deques.pushFront(Lane, Chunk);
  }
  /// Drops chunks nobody ran (an unwound resolution). Only between
  /// wait() and the next launch().
  void clearQueues() { Deques.clear(); }
  bool acquireChunk(unsigned Lane, uint32_t &Chunk, bool &Stolen) {
    return Deques.acquire(Lane, Chunk, Stolen);
  }
  bool helpPopFront(uint32_t &Chunk) { return Deques.helpPopFront(Chunk); }
  size_t pendingChunks() const { return Deques.pending(); }

  /// Steal-locality counters of this lease since the last take (see
  /// ChunkDeques::takeStealCounters; read after wait()).
  detail::ChunkDeques::StealCounters takeStealCounters() {
    return Deques.takeStealCounters();
  }

private:
  friend class WorkerPool;
  explicit WorkerSession(WorkerPool &Pool) : Pool(Pool) {}

  WorkerPool &Pool;
  std::vector<unsigned> Workers; ///< Leased worker indices; lane i runs
                                 ///< on worker Workers[i].
  std::thread::id Owner;         ///< Thread that acquired the lease.
  detail::ChunkDeques Deques;
  /// The launched job, stored once per session (not copied per slot).
  /// Written by launch() before the wake-word increments that publish
  /// it; stable until the next launch, which the protocol orders after
  /// wait() -- so workers call it concurrently without copying.
  std::function<void(unsigned)> Job;
  bool InFlight = false; ///< launch() issued, wait() not yet returned.
  /// Leased workers still running the job. The worker that takes it to
  /// zero notifies it; wait() parks on it.
  std::atomic<uint32_t> Remaining{0};
};

/// Session-freelist counters, read via WorkerPool::sessionPoolStats().
/// A serving workload's steady state is all hits: SessionsCreated stops
/// growing once every concurrency level has been seen.
struct SessionPoolStats {
  /// WorkerSession objects allocated (freelist misses).
  uint64_t SessionsCreated = 0;
  /// Acquisitions served by recycling a parked session -- no session,
  /// deque, or lane allocation.
  uint64_t SessionPoolHits = 0;
};

/// Persistent pool of worker threads shared by every loop of a runtime.
/// Invocations lease lanes through sessions.
class WorkerPool {
public:
  /// Spawns \p NumWorkers threads; they park immediately. \p
  /// WorkerStartHook, when set, runs once on each worker thread before it
  /// first parks (NUMA / affinity placement); a hook that throws aborts
  /// the process with a diagnostic (the pool cannot run without its
  /// workers). \p Placement, when set, must cover exactly NumWorkers
  /// workers; with more than one node it turns on the locality behavior
  /// described in the file comment.
  explicit WorkerPool(
      unsigned NumWorkers, std::function<void(unsigned)> WorkerStartHook = {},
      std::shared_ptr<const topology::Placement> Placement = nullptr);

  /// Stops and joins all workers. All sessions must have been released.
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  unsigned size() const { return static_cast<unsigned>(Threads.size()); }

  //===--------------------------------------------------------------------===//
  // Placement: the topology view the pool was built with.
  //===--------------------------------------------------------------------===//

  /// The worker placement, or null for a topology-blind pool.
  const topology::Placement *placement() const { return Place.get(); }

  /// Placement nodes the workers span (1 without a placement).
  unsigned numNodes() const { return Place ? Place->numNodes() : 1; }

  /// Home node of worker \p Worker (0 without a placement).
  unsigned nodeOfWorker(unsigned Worker) const {
    return Place ? Place->nodeOfWorker(Worker) : 0;
  }

  /// True when leases, steals, and freelists are node-aware: a
  /// placement with more than one node.
  bool localityActive() const { return Place && Place->numNodes() > 1; }

  /// Snapshot of free (unleased) workers per node into \p Out (sized
  /// numNodes()). The Scheduler's node-packing pass reads this; like
  /// freeWorkers() it is racy by nature.
  void freeWorkersByNode(std::vector<unsigned> &Out) const;

  //===--------------------------------------------------------------------===//
  // Sessions: leased worker lanes for concurrent invocations.
  //===--------------------------------------------------------------------===//

  using SessionHandle =
      std::unique_ptr<WorkerSession, WorkerSession::Recycler>;

  /// Leases min(free workers, MaxLanes) workers as a session, or returns
  /// null when no worker is free (the Scheduler then queues the request
  /// for a deferred grant). The session's deques are reset open with one
  /// lane per leased worker. Requires a non-empty pool and MaxLanes >= 1.
  /// Destroying the handle returns the lanes. Under a multi-node
  /// placement the lease is node-packed: it comes from one node when a
  /// node has enough free lanes, is trimmed to the largest free node
  /// block when that block covers at least half the ask, and spans
  /// nodes only as a last resort.
  ///
  /// The lease is accounted to \p Owner -- the thread that will *drive*
  /// the session -- rather than the calling thread, because a deferred
  /// grant executes on whichever thread released the lanes (see
  /// core/Scheduler.h). Self-deadlock diagnostics and the pool's
  /// held-lane bookkeeping key off that owner. \p PreferredNode is the
  /// Scheduler's node-packing hint (Grant::Node): the lease starts on
  /// that node when it still has free lanes; -1 lets the pool pick.
  SessionHandle tryAcquireSessionFor(unsigned MaxLanes, bool AllowStealing,
                                     std::thread::id Owner,
                                     int PreferredNode = -1);

  /// Hook invoked (outside the pool mutex) after every session release:
  /// the deferred-grant path. The runtime's Scheduler registers itself
  /// here so freed lanes are offered to queued invocations. Must be set
  /// before any session exists and never reassigned afterwards.
  void setReleaseHook(std::function<void()> Hook);

  /// True when the calling thread's sessions lease *every* worker of the
  /// pool: any further blocking acquisition by this thread would be a
  /// certain self-deadlock (only its own stack could free a lane, and it
  /// is about to park). Used by the scheduler's wait path; always false
  /// for an empty pool.
  bool callerHoldsEntirePool() const;

  /// Workers currently not leased to any session (snapshot; racy by
  /// nature, exposed for tests and diagnostics).
  unsigned freeWorkers() const;

  /// Workers woken by a launch that have not yet left its job (same
  /// snapshot caveat). A leased lane that has run out of chunks is not
  /// busy: it has left, even though its session still holds it.
  unsigned busyWorkers() const;

  /// Session-freelist counters (see SessionPoolStats). Snapshot under
  /// the pool mutex.
  SessionPoolStats sessionPoolStats() const;

  //===--------------------------------------------------------------------===//
  // Per-node SpecWriteBuffer shards: warm speculative-store buffers that
  // stay node-local. Active only under a multi-node placement
  // (hasBufferShards()); loops fall back to their own buffers otherwise.
  //===--------------------------------------------------------------------===//

  /// True when the pool keeps per-node buffer shards (multi-node
  /// placement): loops should draw chunk buffers from the home lane's
  /// node instead of using their loop-owned (placement-blind) pool.
  bool hasBufferShards() const { return !BufferShards.empty(); }

  /// Draws a buffer from \p Node's shard (allocating on a cold shard).
  /// The buffer may hold a previous draw's contents; clear() before
  /// use. Requires hasBufferShards().
  SpecWriteBuffer *acquireSpecBuffer(unsigned Node);

  /// Returns \p B to \p Node's shard -- the node it was drawn for, so
  /// the warm memory stays with that node's workers.
  void releaseSpecBuffer(unsigned Node, SpecWriteBuffer *B);

private:
  friend class WorkerSession;

  void workerMain(unsigned Index);

  /// Handle-destruction path (WorkerSession::Recycler): returns the
  /// leased lanes, runs the release hook, and parks \p S on the
  /// freelist shard of its first worker's node for reuse instead of
  /// deleting it.
  void recycleSession(WorkerSession *S);

  /// Pops a parked session -- \p Shard's freelist first, then the other
  /// shards -- or allocates a fresh one, bumping the SessionPoolStats
  /// counters. Requires the pool mutex.
  WorkerSession *takeSessionLocked(unsigned Shard);

  /// Node-packing decision for a lease of \p Take lanes (locality
  /// active, pool mutex held): the node to start taking workers from,
  /// and the possibly-trimmed lane count. \p Preferred (a scheduler
  /// grant's node, -1 for none) wins while it has free lanes; otherwise
  /// best-fit (the smallest free block that covers Take), then the
  /// trim-to-node rule: when no node covers Take but the largest free
  /// block covers at least half of it, the lease shrinks to that block
  /// rather than spanning nodes.
  std::pair<unsigned, unsigned> chooseStartNodeLocked(unsigned Take,
                                                      int Preferred) const;

  /// Leases \p Take free workers into \p S on behalf of \p Owner.
  /// Requires the pool mutex and Take <= FreeCount. \p StartNode (-1
  /// without locality) is where the node-contiguous scan begins;
  /// spill-over continues through the remaining nodes by descending
  /// free count.
  void leaseLocked(WorkerSession &S, unsigned Take, std::thread::id Owner,
                   int StartNode);

  /// Per-worker mailbox, one cache line each. Wake is the worker's wake
  /// word: even while it is parked, odd from a launch() until it leaves
  /// the job (launch and worker each add one). Session and Lane are
  /// written by launch() before its increment publishes them; a wake
  /// with no Session is the destructor's stop signal. Leased is
  /// guarded by Mutex.
  struct alignas(64) WorkerSlot {
    std::atomic<uint32_t> Wake{0};
    WorkerSession *Session = nullptr;
    unsigned Lane = 0;
    bool Leased = false;
  };

  /// One node's warm-buffer freelist (multi-node placement only). Own
  /// mutex: buffer draws must not contend with the lease path.
  struct BufferShard {
    std::mutex M;
    std::vector<SpecWriteBuffer *> Free;
  };

  std::vector<std::thread> Threads;
  std::function<void(unsigned)> WorkerStartHook;
  std::shared_ptr<const topology::Placement> Place;
  /// Deferred-grant hook (see setReleaseHook). Written once before any
  /// session exists; read under the pool mutex, invoked outside it.
  std::function<void()> ReleaseHook;

  mutable std::mutex Mutex;
  std::vector<WorkerSlot> Slots;
  unsigned FreeCount = 0;
  /// Free workers per placement node (guarded by Mutex; maintained only
  /// while localityActive(), else empty).
  std::vector<unsigned> FreeByNode;
  /// Leased workers per acquiring thread (callerHoldsEntirePool; keyed
  /// by the session's owner, guarded by Mutex).
  std::unordered_map<std::thread::id, unsigned> WorkersHeldByThread;
  /// Released sessions parked for reuse, sharded by the node of the
  /// session's first worker -- one shard without locality (guarded by
  /// Mutex; deleted in the pool destructor). Reusing a session reuses
  /// its ChunkDeques lanes and job storage, so the steady-state submit
  /// path allocates no session state at all.
  std::vector<std::vector<WorkerSession *>> FreeSessionShards;
  SessionPoolStats PoolSt;
  /// Per-node warm SpecWriteBuffer freelists (empty without a
  /// multi-node placement; buffers deleted in the pool destructor).
  std::vector<std::unique_ptr<BufferShard>> BufferShards;
};

inline unsigned WorkerSession::laneNode(unsigned Lane) const {
  return Pool.nodeOfWorker(Workers[Lane]);
}

} // namespace core
} // namespace spice

#endif // SPICE_CORE_WORKERPOOL_H
