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
/// -- it *leases* them from the runtime's Scheduler (core/Scheduler.h),
/// which keeps the lease ledger (which worker is free, who holds it) and
/// hands each grant a WorkerSession from this pool:
///
///   Scheduler::SessionHandle S = Sched.tryAcquireSessionFor(...);
///   for (...) S->pushChunk(Lane, Chunk);
///   S->launch([&](unsigned Lane) {
///     while (S->acquireChunk(Lane, ...)) ...; // Leave once nothing is left.
///   });
///   ... S->helpPopFront(...) / S->pushChunkFront(...) ...
///   S->wait();            // Handle destruction returns the lanes.
///
/// The pool is the mechanism under the ledger: the threads, their wake
/// words, the sessions' deques and launch/wait, the placement view, and
/// the freelists sessions and warm buffers are recycled through. launch()
/// wakes exactly the leased workers, one wake word each; wait() spins
/// briefly on the session's countdown of running lanes and then parks on
/// it.
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
/// (docs/topology.md), locality shapes all of this: the Scheduler leases
/// node-contiguous worker ranges, steals scan victims same-core ->
/// same-node -> remote and count their locality
/// (ChunkDeques::takeStealCounters), and released sessions and warm
/// SpecWriteBuffers park on per-node freelist shards so a reused session
/// or buffer is warm in the right node's cache. Without a placement -- or
/// on a single node -- none of it engages and every path below is
/// bit-for-bit the topology-blind behavior.
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

/// A lease of worker lanes for one invocation: the workers the Scheduler
/// granted it, plus this invocation's private chunk deques. Handed out as
/// a Scheduler::SessionHandle, whose destruction returns the workers to
/// the Scheduler's ledger and parks the session on the pool's freelist
/// for reuse. One client thread drives a session
/// (push/launch/help/close/wait); the leased workers run its job.
class WorkerSession {
public:
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
  /// worker, reset empty by open()).
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
  friend class Scheduler;
  explicit WorkerSession(WorkerPool &Pool) : Pool(Pool) {}

  /// Readies a freshly leased session: one empty deque per leased
  /// worker, with locality-ordered steals under a multi-node placement.
  void open(bool AllowStealing);

  WorkerPool &Pool;
  std::vector<unsigned> Workers; ///< Leased worker indices; lane i runs
                                 ///< on worker Workers[i].
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
/// Invocations lease lanes through sessions the Scheduler grants.
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

  //===--------------------------------------------------------------------===//
  // Sessions: worker lanes for concurrent invocations.
  //===--------------------------------------------------------------------===//

  /// Workers woken by a launch that have not yet left its job (a
  /// snapshot, racy by nature). A leased lane that has run out of chunks
  /// is not busy: it has left, even though its session still holds it.
  unsigned busyWorkers() const;

  /// Session-freelist counters (see SessionPoolStats). Snapshot under
  /// the freelist mutex.
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
  friend class Scheduler;

  void workerMain(unsigned Index);

  /// Pops a parked session -- node \p Shard's freelist first, then the
  /// other shards -- or allocates a fresh one, bumping the
  /// SessionPoolStats counters. The Scheduler fills in its workers.
  WorkerSession *takeSession(unsigned Shard);

  /// Parks released session \p S (its workers already returned to the
  /// Scheduler's ledger) on the freelist shard of its first worker's
  /// node, keeping its deque and job storage for the next lease.
  void parkSession(WorkerSession *S);

  /// Per-worker mailbox, one cache line each. Wake is the worker's wake
  /// word: even while it is parked, odd from a launch() until it leaves
  /// the job (launch and worker each add one). Session and Lane are
  /// written by launch() before its increment publishes them; a wake
  /// with no Session is the destructor's stop signal.
  struct alignas(64) WorkerSlot {
    std::atomic<uint32_t> Wake{0};
    WorkerSession *Session = nullptr;
    unsigned Lane = 0;
  };

  /// One node's warm-buffer freelist (multi-node placement only). Own
  /// mutex: buffer draws must not contend with the session freelist.
  struct BufferShard {
    std::mutex M;
    std::vector<SpecWriteBuffer *> Free;
  };

  std::vector<std::thread> Threads;
  std::function<void(unsigned)> WorkerStartHook;
  std::shared_ptr<const topology::Placement> Place;
  std::vector<WorkerSlot> Slots;

  /// Guards the session freelist and its counters, nothing else.
  mutable std::mutex FreelistM;
  /// Released sessions parked for reuse, sharded by the node of the
  /// session's first worker -- one shard without locality (deleted in
  /// the pool destructor). Reusing a session reuses its ChunkDeques
  /// lanes and job storage, so the steady-state submit path allocates no
  /// session state at all.
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
