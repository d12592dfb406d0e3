//===- core/SpiceLoop.h - Speculative parallel iteration chunks -*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpiceLoop is the native-runtime embodiment of the paper's technique:
/// given a loop expressed as a live-in transition function plus a private
/// reduction state, it executes each invocation as a chain of speculative
/// chunks. The paper runs exactly t chunks on t threads; this runtime
/// decouples the two (LoopOptions::ChunksPerThread): an invocation is
/// split into k*t chunks scheduled onto per-worker deques with work
/// stealing, so a mis-balanced or mis-predicted chunk no longer idles
/// every other core.
///
/// A SpiceLoop is a lightweight handle on a SpiceRuntime: the runtime
/// owns the single shared WorkerPool and the admission Scheduler, and
/// each invocation is granted a partition of the worker lanes by the
/// scheduler's LanePolicy, so many loops -- invoked from the same or
/// different client threads -- share one set of pre-allocated threads:
///
/// \code
///   SpiceRuntime RT(/*NumThreads=*/4);            // one pool, process-wide
///   auto Loop = RT.makeLoop(Traits, LoopOptions{}); // per-loop policy
///   auto Result = Loop.invoke(Head);              // submit(Head).get()
/// \endcode
///
/// Invocation is submission-based: submit(Start) admits the invocation
/// to the runtime's scheduler and returns a SpiceFuture immediately. As
/// soon as the scheduler grants lanes (inside submit when the pool has
/// free workers, else deferred until another invocation releases its
/// lanes), the speculative chunks start executing on the granted
/// workers; the non-speculative chunk 0 and the ordered commit chain
/// run on the client thread inside SpiceFuture::get()/wait(). invoke()
/// is literally submit(Start).get() -- the synchronous spelling -- and
/// a client can overlap invocations of *different* loops by holding
/// several futures (one loop handle still runs one invocation at a
/// time; see core/SpiceFuture.h for future semantics).
///
/// Serving layers batch: submitBatch(Starts) admits N invocations as
/// ONE scheduler request returning a SpiceBatchFuture -- one admission
/// trip and one lane lease amortized across the batch, the elements
/// executing in submission order on the driving thread. Admission
/// itself is bounded: a queue cap plus RuntimeConfig::OverloadPolicy
/// shed overload as OverloadError futures instead of growing the queue
/// (see core/Scheduler.h and docs/serving.md).
///
/// A loop is adapted through a Traits object (or assembled from lambdas
/// with spice::LoopBuilder, see core/LoopBuilder.h):
///
/// \code
///   struct ListMin {
///     using LiveIn = Node *;            // speculated live-ins S
///     struct State { long Min; ... };   // reductions + live-outs
///     State initialState();             // identity values
///     // One iteration: returns false when the loop exits (no iteration
///     // executed). Shared mutable memory goes through Mem.
///     bool step(LiveIn &LI, State &S, SpecSpace &Mem);
///     // Ordered (left-to-right) merge of a later chunk into Into.
///     void combine(State &Into, State &&Chunk);
///     // Optional: per-iteration work weight (cost-based load balancing).
///     uint64_t weight(const LiveIn &LI);
///   };
/// \endcode
///
/// Protocol per invocation (paper sections 3-4, generalized to chunks):
///  * chunk 0 (main thread, non-speculative) starts from the real live-in;
///    chunk i >= 1 starts from SVA row i-1 (the value memoized last
///    invocation) and is queued on worker lane (i-1) mod lanes;
///  * every chunk with a successor compares its live-in against the
///    successor's predicted start at the top of each iteration; a match
///    validates the successor and ends the chunk;
///  * a natural loop exit in chunk i means chunks i+1.. mis-speculated:
///    they are squashed via cooperative resteer (abort flags polled per
///    iteration) and their buffered stores are discarded;
///  * every chunk runs Algorithm 2 re-memoization driven by the plan the
///    central component computed from the previous invocation's work
///    counters (dynamic load balancing);
///  * speculative chunks buffer stores in a per-chunk SpecWriteBuffer;
///    with conflict detection enabled their reads are value-validated at
///    commit (commits are ordered, performed by the resolving main
///    thread), and a failed validation squashes the chunk;
///  * recovery: with ChunksPerThread == 1 a failed validated chunk
///    triggers the paper's sequential re-execution of the remainder. With
///    oversubscription the failed chunk is instead re-enqueued as a
///    stealable recovery chunk -- any idle worker (or the resolving main
///    thread) picks it up while the not-yet-invalidated successor chunks
///    keep running, so recovery proceeds concurrently and validated
///    downstream work is only discarded if its reads really conflict;
///  * a loop not pinned at k = 1 whose speculation keeps losing sits on
///    its ChunkController's sequential rung: held invocations run the
///    plain loop (no scheduler trip, no lanes) until a probe epoch
///    speculates without losing (see core/ChunkController.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_CORE_SPICELOOP_H
#define SPICE_CORE_SPICELOOP_H

#include "core/BootstrapSampler.h"
#include "core/ChunkController.h"
#include "core/Planner.h"
#include "core/Scheduler.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceConfig.h"
#include "core/SpiceFuture.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

namespace spice {
namespace core {

/// Detects an optional Traits::weight(LiveIn) member.
template <typename Traits, typename LiveIn>
concept HasWeight = requires(Traits T, const LiveIn &LI) {
  { T.weight(LI) } -> std::convertible_to<uint64_t>;
};

/// Speculatively parallelized loop. One instance per static loop; reuse it
/// across invocations so the value predictor can learn. A lightweight
/// handle: execution runs on the SpiceRuntime's shared worker pool.
template <typename Traits> class SpiceLoop {
public:
  using LiveIn = typename Traits::LiveIn;
  using State = typename Traits::State;

  /// Registers a loop with per-loop policy \p Opts on \p Runtime (the
  /// preferred spelling is Runtime.makeLoop(T, Opts)). The runtime -- and
  /// its shared pool -- must outlive the loop.
  SpiceLoop(Traits &T, SpiceRuntime &Runtime, const LoopOptions &Opts = {})
      : T(T), RT(Runtime), Opts(validated(Opts)),
        NumChunks(Opts.numChunks(RT.numThreads())), PlanChunks(NumChunks),
        Sampler(std::max(kBootstrapCapacity,
                         static_cast<size_t>(2 * NumChunks))),
        SVA(NumChunks > 1 ? NumChunks - 1 : 0), RowValid(SVA.size(), 0),
        Buffers(NumChunks),
        AbortFlags(std::make_unique<std::atomic<bool>[]>(NumChunks)),
        DoneFlags(std::make_unique<std::atomic<uint32_t>[]>(NumChunks)),
        Results(NumChunks) {
    BufPtrs.reserve(Buffers.size());
    for (SpecWriteBuffer &B : Buffers)
      BufPtrs.push_back(&B);
    // NumChunks (and every invocation-sized structure above) is sized
    // for the policy's largest k; adaptive loops start at MinK and the
    // controller moves PlanChunks within the allocation. Every loop not
    // pinned at k = 1 gets a controller: a Static(k >= 2) one keeps its
    // k but may still stop speculating (the sequential rung). Static(1)
    // has none and stays the paper protocol.
    if (RT.numThreads() > 1 &&
        (Opts.adaptiveChunking() || Opts.maxChunksPerThread() > 1)) {
      ChunkControllerConfig CC;
      CC.MinK = Opts.minChunksPerThread();
      CC.MaxK = Opts.maxChunksPerThread();
      CC.SequentialRung = !Opts.AlwaysSpeculate;
      Controller = std::make_unique<ChunkController>(CC);
      setEffectiveK(Controller->currentK());
    }
    RT.registerLoop();
  }

  ~SpiceLoop() {
    if (InvokeInFlight.load(std::memory_order_acquire))
      reportFatalError("destroying a SpiceLoop while a submitted "
                       "invocation is unresolved; get()/wait() its "
                       "SpiceFuture (or destroy the future) first");
    RT.unregisterLoop();
  }

  SpiceLoop(const SpiceLoop &) = delete;
  SpiceLoop &operator=(const SpiceLoop &) = delete;

  /// Executes one invocation starting from \p Start and returns the merged
  /// state (reductions and live-outs): the synchronous spelling of
  /// submit(Start).get(). Different loops of one runtime may invoke
  /// concurrently, but each individual loop is driven by one client
  /// thread at a time (the predictor state is per-loop); overlapping
  /// invoke()/submit() calls on the same handle abort with a diagnostic.
  State invoke(const LiveIn &Start) { return submit(Start).get(); }

  /// Admits one invocation starting from \p Start to the runtime's
  /// scheduler and returns its completion future. The speculative chunks
  /// start on worker lanes as soon as the scheduler grants them (by
  /// RuntimeConfig::Policy); chunk 0 and the ordered commit chain run on
  /// the thread that drives the future (get/wait -- see
  /// core/SpiceFuture.h). The loop handle runs one invocation at a time:
  /// the next submit() must wait until this future resolves. \p Start
  /// and the Traits object must stay valid until resolution.
  ///
  /// The granted lanes are accounted to the *submitting* thread, which
  /// is expected to also drive the future: the self-deadlock diagnostic
  /// (waiting on a grant only your own stack could unblock) keys off
  /// that accounting. A future moved to and driven by a different
  /// thread still executes correctly, but a deadlock it causes is no
  /// longer provable and blocks instead of aborting.
  SpiceFuture<State> submit(const LiveIn &Start) {
    return SpiceFuture<State>(submitStarts({Start}));
  }

  /// Admits \p Starts.size() invocations as ONE scheduler request and
  /// returns their SpiceBatchFuture: one admission-queue trip and one
  /// lane lease amortized over the whole batch, which is what makes
  /// per-request cost scale for serving workloads (docs/serving.md).
  /// The elements execute in submission order on the thread driving the
  /// future -- element k's live-in predictions come from element k-1's
  /// run, so batches of a warmed loop stay parallel throughout, while a
  /// cold loop (no predictions at submit time) runs the whole batch
  /// sequentially. The loop handle still runs one *submission* at a
  /// time; the queue cap counts a batch as Starts.size() invocations.
  /// An empty batch returns an invalid future. \p Starts is copied;
  /// the Traits object must stay valid until resolution.
  SpiceBatchFuture<State> submitBatch(std::span<const LiveIn> Starts) {
    if (Starts.empty())
      return SpiceBatchFuture<State>();
    return SpiceBatchFuture<State>(
        submitStarts(std::vector<LiveIn>(Starts.begin(), Starts.end())));
  }

  /// Plain sequential execution with no Spice machinery (baseline oracle
  /// for tests and benchmarks). Does not touch predictor state.
  State runSequentialReference(LiveIn LI) {
    State S = T.initialState();
    SpecSpace Direct;
    while (T.step(LI, S, Direct)) {
    }
    return S;
  }

  /// Live cumulative counters. The reference stays valid for the loop's
  /// lifetime but is updated *during* resolution, so a reader overlapping
  /// an in-flight invocation can see a half-updated invocation; use
  /// lastStats() for a consistent snapshot. docs/stats.md documents
  /// which counters are cumulative and which are per-invocation means.
  const SpiceStats &stats() const { return Stats; }

  /// Consistent snapshot of the cumulative counters as of the last
  /// *completed* invocation (batch element): taken by the driving thread
  /// after all of the invocation's bookkeeping, so every counter in it
  /// agrees about how many invocations it covers. Call from the thread
  /// that drives this loop's futures (or between invocations).
  SpiceStats lastStats() const { return LastStats; }

  /// Tuning introspection: the effective chunk granularity the next
  /// invocation will plan for, this loop's observed mean lane share, and
  /// the controller state behind it -- the k climb of a
  /// ChunkPolicy::Adaptive loop and the sequential rung of every loop
  /// not pinned at k = 1 (see core/ChunkController.h and
  /// docs/tuning.md). Static(1) loops report their pinned k with a
  /// default controller snapshot. Same consistency rule as lastStats():
  /// read between invocations.
  LoopTuning tuning() const {
    LoopTuning Tune;
    Tune.Adaptive = Opts.adaptiveChunking();
    Tune.ChunksPerThread = effectiveK();
    Tune.PlannedChunks = PlanChunks;
    if (Opts.adaptiveChunking()) {
      Tune.MinK = Opts.Chunking.MinK;
      Tune.MaxK = Opts.Chunking.MaxK;
    } else {
      Tune.MinK = Tune.MaxK = Tune.ChunksPerThread;
    }
    const uint64_t Parallel =
        Stats.Invocations - Stats.SequentialInvocations;
    const unsigned Workers =
        RT.numThreads() > 1 ? RT.numThreads() - 1 : 1;
    Tune.LaneShare =
        Parallel ? static_cast<double>(Stats.GrantedLanes) /
                       (static_cast<double>(Parallel) * Workers)
                 : 0.0;
    if (Controller) {
      Tune.Controller = Controller->snapshot();
    } else {
      Tune.Controller.K = Tune.ChunksPerThread;
      Tune.Controller.M = ChunkController::Mode::Steady;
    }
    return Tune;
  }

  /// The per-loop options this loop was registered with.
  const LoopOptions &options() const { return Opts; }

  /// The runtime this loop is registered on.
  SpiceRuntime &runtime() const { return RT; }

  /// Current memoization plan (exposed for tests and load-balance benches).
  const MemoizationPlan &currentPlan() const { return Plan; }

  /// Number of SVA rows currently holding a prediction.
  unsigned validRows() const {
    unsigned N = 0;
    for (uint8_t V : RowValid)
      N += V;
    return N;
  }

  /// Valid prediction prefix (the next invocation's chunk start values,
  /// i.e. its chunk boundaries). Exposed for benches and tests that
  /// analyze chunk geometry -- e.g. re-deriving load imbalance under a
  /// cost model the runtime's work metric cannot see.
  std::vector<LiveIn> predictions() const {
    return std::vector<LiveIn>(SVA.begin(),
                               SVA.begin() + countLaunchableSpecChunks());
  }

  /// Aggregate SpecWriteBuffer introspection across this loop's
  /// per-chunk buffer pool (the buffers live for the loop's lifetime and
  /// are reused by every invocation). Same consistency rule as
  /// lastStats(): read between invocations.
  SpecBufferPoolStats bufferPoolStats() const {
    SpecBufferPoolStats P;
    P.Buffers = Buffers.size();
    for (const SpecWriteBuffer &B : Buffers) {
      P.TableSlots += B.capacity();
      P.Rehashes += B.rehashes();
      if (!B.usesInlineStorage())
        ++P.HeapTables;
    }
    return P;
  }

private:
  /// Re-enqueues of a failed-but-validated chunk as a stealable recovery
  /// chunk before the paper's serial re-execution takes over (k > 1).
  static constexpr unsigned kMaxRecoveryRequeues = 2;
  /// Smallest capacity of the bootstrap sampler that seeds the first
  /// invocation's predictions.
  static constexpr size_t kBootstrapCapacity = 64;

  enum class ChunkStatus : uint8_t {
    Matched, ///< Found the successor's predicted live-in: chunk complete.
    Exited,  ///< Reached the natural loop exit.
    Squashed,///< Aborted by the runtime (mis-speculation upstream of us).
    Runaway, ///< Hit MaxSpecIterations (stale-pointer cycle guard).
  };

  struct ChunkResult {
    ChunkStatus Status = ChunkStatus::Exited;
    uint64_t Work = 0;
    uint64_t Iterations = 0;
    bool Stolen = false; ///< Executed off its home lane (steal or help).
    std::optional<State> S;
    std::vector<unsigned> WrittenRows;
  };

  uint64_t weightOf(const LiveIn &LI) {
    if constexpr (HasWeight<Traits, LiveIn>) {
      if (Opts.UseWeightedWork)
        return T.weight(LI);
    }
    return 1;
  }

  /// Longest launchable prefix: chunk i+1 needs a valid SVA row i. Capped
  /// at the current plan's chunk count -- after an adaptive shrink, rows
  /// beyond it are stale and must not launch (they are also invalidated
  /// eagerly in setEffectiveK; the cap makes the invariant local).
  unsigned countLaunchableSpecChunks() const {
    const unsigned Limit = PlanChunks > 0 ? PlanChunks - 1 : 0;
    unsigned N = 0;
    while (N < Limit && N < SVA.size() && RowValid[N])
      ++N;
    return N;
  }

  /// Runs one chunk. \p Target is the successor's predicted start (null
  /// for the last active chunk); \p ChunkIdx is 0 for the non-speculative
  /// main chunk. \p IterBudget caps speculative iterations (normally
  /// Opts.MaxSpecIterations; tighter for main-helped chunks, see
  /// helpIterBudget()).
  ChunkResult runChunk(LiveIn LI, const LiveIn *Target, unsigned ChunkIdx,
                       MemoCursor Cursor, uint64_t IterBudget) {
    ChunkResult R;
    R.S = T.initialState();
    bool Speculative = ChunkIdx != 0;
    SpecSpace Mem =
        Speculative ? SpecSpace(&specBuf(ChunkIdx)) : SpecSpace();
    for (;;) {
      if (Speculative &&
          AbortFlags[ChunkIdx].load(std::memory_order_relaxed)) {
        R.Status = ChunkStatus::Squashed;
        break;
      }
      // Algorithm 2: bump the work counter, then memoize when a threshold
      // is crossed (before the detection check so a threshold equal to the
      // chunk length still fires and refreshes the successor's row).
      uint64_t W = weightOf(LI);
      R.Work += W;
      if (unsigned Row = Cursor.shouldRecord(R.Work); Row != ~0u)
        recordRow(Row, LI, R);
      if (Target && LI == *Target) {
        R.Status = ChunkStatus::Matched;
        R.Work -= W; // The matched iteration belongs to the successor.
        break;
      }
      if (!T.step(LI, *R.S, Mem)) {
        R.Status = ChunkStatus::Exited;
        R.Work -= W; // Exit test only; no iteration executed.
        break;
      }
      ++R.Iterations;
      if (Speculative && R.Iterations >= IterBudget) {
        R.Status = ChunkStatus::Runaway;
        break;
      }
    }
    return R;
  }

  void recordRow(unsigned Row, const LiveIn &LI, ChunkResult &R) {
    assert(Row < SVA.size() && "memoization row out of range");
    SVA[Row] = LI;
    RowValid[Row] = 1;
    R.WrittenRows.push_back(Row);
  }

  /// True while the chunk controller holds the loop on its sequential
  /// rung: the next invocation runs sequentially.
  bool rungHolds() const { return Controller && Controller->holding(); }

  /// Sequential invocation: no predictions available (first invocation, or
  /// every row invalidated), or the sequential rung holds the loop.
  /// Memoizes via the plan when one exists, otherwise through the
  /// bootstrap sampler -- so the invocation after a hold starts from
  /// fresh predictions.
  State invokeSequential(LiveIn LI) {
    ++Stats.SequentialInvocations;
    if (rungHolds())
      ++Stats.RungHeldInvocations;
    State S = T.initialState();
    SpecSpace Direct;
    uint64_t Work = 0;
    bool UsePlan = !Plan.empty();
    MemoCursor Cursor =
        UsePlan ? MemoCursor(&Plan.PerThread[0]) : MemoCursor();
    ChunkResult Dummy;
    if (!UsePlan)
      Sampler.reset();
    for (;;) {
      uint64_t W = weightOf(LI);
      Work += W;
      if (UsePlan) {
        if (unsigned Row = Cursor.shouldRecord(Work); Row != ~0u)
          recordRow(Row, LI, Dummy);
      } else {
        Sampler.offer(Work, LI);
      }
      if (!T.step(LI, S, Direct)) {
        Work -= W;
        break;
      }
      ++Stats.TotalIterations;
    }
    if (!UsePlan)
      seedFromSampler();
    planNext({Work});
    if (Controller) {
      // Counts down a hold; otherwise no signal.
      InvocationSample Sample;
      Sample.Sequential = true;
      Controller->onInvocation(Sample);
    }
    LastStats = Stats;
    return S;
  }

  void seedFromSampler() {
    std::optional<std::vector<LiveIn>> Rows = Sampler.extract(PlanChunks);
    if (!Rows)
      return; // Too few iterations: stay sequential next time too.
    for (size_t I = 0; I != Rows->size(); ++I) {
      SVA[I] = (*Rows)[I];
      RowValid[I] = 1;
    }
  }

  /// Executes chunk \p C against the prediction snapshot and publishes its
  /// result, waking the resolver if it parked on the chunk's done word.
  /// Runs on workers, and -- in oversubscribed mode -- on the resolving
  /// main thread as well.
  void executeChunk(unsigned C, const std::vector<LiveIn> &Pred,
                    unsigned ActiveChunks, bool Stolen,
                    uint64_t IterBudget) {
    const LiveIn *Target = C < ActiveChunks ? &Pred[C] : nullptr;
    ChunkResult R = runChunk(Pred[C - 1], Target, C, cursorFor(C),
                             IterBudget);
    R.Stolen = Stolen;
    Results[C] = std::move(R);
    DoneFlags[C].store(1, std::memory_order_release);
    DoneFlags[C].notify_one();
  }

  /// Iteration cap for speculative chunks the resolving main thread
  /// executes inline. Main is the only writer of the abort flags, so
  /// while it runs a chunk nobody can squash that chunk; an unbounded
  /// mis-predicted chunk (stale-pointer cycle) would stall resolution
  /// for Opts.MaxSpecIterations. A healthy chunk is about
  /// TotalWork/NumChunks work units (>= its iterations, weights are
  /// >= 1), so 4x that plus slack never cuts real work short; a false
  /// Runaway simply routes the chunk through the normal recovery
  /// requeue -- executed with the full budget once off the main thread.
  uint64_t helpIterBudget() const {
    if (Plan.TotalWork == 0)
      return Opts.MaxSpecIterations;
    // Divide by the plan's own chunk count: under adaptive chunking the
    // running invocation executes the chunks its plan cut, which may
    // differ from the freshly chosen PlanChunks.
    const uint64_t Chunks = std::max<uint64_t>(1, Plan.PerThread.size());
    uint64_t Budget = 4 * (Plan.TotalWork / Chunks) + 1024;
    return std::min(Budget, Opts.MaxSpecIterations);
  }

  class AsyncInvocation;

  /// Shared admission path of submit()/submitBatch(): one scheduler
  /// request covering all of \p Starts (size 1 for a plain submit).
  std::unique_ptr<AsyncInvocation> submitStarts(std::vector<LiveIn> Starts) {
    assert(!Starts.empty() && "a submission needs at least one start");
    if (InvokeInFlight.exchange(true, std::memory_order_acquire))
      reportFatalError("SpiceLoop::submit/invoke while a previous "
                       "invocation of this loop handle is unresolved; a "
                       "loop is driven by one client thread at a time "
                       "(use one loop per client, many loops per "
                       "runtime)");
    const size_t N = Starts.size();
    Stats.Invocations += N;
    RT.noteSubmitted();
    auto Inv = std::make_unique<AsyncInvocation>(*this, std::move(Starts));
    unsigned ActiveChunks = rungHolds() ? 0 : countLaunchableSpecChunks();
    if (ActiveChunks == 0) {
      // No usable predictions, or the sequential rung holds the loop:
      // every element runs the sequential protocol, executed by whoever
      // drives the future. The scheduler is not involved -- no lanes
      // are needed.
      Inv->Phase.store(AsyncInvocation::InvPhase::SeqPending,
                       std::memory_order_release);
    } else {
      Inv->ActiveChunks = ActiveChunks;
      Inv->Phase.store(AsyncInvocation::InvPhase::Queued,
                       std::memory_order_release);
      Scheduler::Request R;
      R.RequestedLanes = ActiveChunks;
      R.AllowStealing = effectiveK() > 1;
      R.Priority = Opts.Priority;
      R.Owner = std::this_thread::get_id();
      R.Invocations = static_cast<unsigned>(N);
      R.DeadlineMicros = Opts.SubmitDeadlineMicros;
      R.OnGrant = [I = Inv.get()](Scheduler::SessionHandle S,
                                  uint64_t Micros) {
        I->onGrant(std::move(S), Micros);
      };
      R.OnDrop = [I = Inv.get()] { I->onDropped(); };
      Inv->Ticket = RT.scheduler().submit(std::move(R));
      if (Inv->Ticket == 0)
        // Admission control shed the request (queue cap under Reject,
        // or DeadlineDrop with a still-full queue): no callback will
        // ever run, and the future resolves to OverloadError when
        // driven. Same thread as the client, so a plain store is safe.
        Inv->Phase.store(AsyncInvocation::InvPhase::Dropped,
                         std::memory_order_release);
    }
    return Inv;
  }

  /// One submitted request -- a single invocation or a whole batch: the
  /// shared state between the future the client holds, the scheduler's
  /// grant/drop callbacks, and the driving thread. Phases: SeqPending
  /// (no predictions, every element runs in wait()), or Queued ->
  /// Granted (lanes leased, element 0's chunks launched) -> Resolved,
  /// with Dropped replacing Granted when admission control shed the
  /// request. Elements execute strictly in submission order on the
  /// driving thread; the lane lease is held across all of them and
  /// released exactly once in finish() -- so an abandoned batch neither
  /// leaks lanes nor double-aborts. onGrant/onDropped may run on a
  /// foreign (lane-releasing) thread; the mutex/CV hand-off orders
  /// their writes before the driver's reads.
  class AsyncInvocation final : public detail::FutureImpl<State>,
                                public detail::BatchFutureImpl<State> {
  public:
    AsyncInvocation(SpiceLoop &L, std::vector<LiveIn> Starts)
        : L(L), Starts(std::move(Starts)), Results(this->Starts.size()),
          Errs(this->Starts.size()) {}

    // FutureImpl view (plain submit: a batch of one).
    void wait() noexcept override { resolveThrough(Starts.size() - 1); }
    bool ready() const override {
      return Phase.load(std::memory_order_acquire) == InvPhase::Resolved;
    }
    State take() override { return takeElement(0); }

    // BatchFutureImpl view (submitBatch).
    void waitAll() noexcept override { resolveThrough(Starts.size() - 1); }
    void waitUpTo(size_t I) noexcept override { resolveThrough(I); }
    bool allReady() const override { return ready(); }
    size_t count() const override { return Starts.size(); }

    State takeElement(size_t I) override {
      assert(I < Starts.size() && NextElem > I &&
             "takeElement before the element resolved");
      if (Errs[I]) {
        std::exception_ptr E = std::move(Errs[I]);
        Errs[I] = nullptr;
        std::rethrow_exception(E);
      }
      if (!Results[I])
        reportFatalError("batch element taken twice (each element of a "
                         "SpiceBatchFuture may be consumed once)");
      State S = std::move(*Results[I]);
      Results[I].reset();
      return S;
    }

  private:
    friend class SpiceLoop;

    enum class InvPhase : int {
      SeqPending,
      Queued,
      Granted,
      Dropped,
      Resolved
    };

    /// Grant callback (scheduler): lease in hand, start element 0's
    /// speculative chunks, then publish the session to the driver.
    void onGrant(Scheduler::SessionHandle S, uint64_t Micros) {
      L.prepareParallel(ActiveChunks, S.get());
      L.launchChunks(*S, ActiveChunks);
      {
        std::lock_guard<std::mutex> Lock(M);
        Session = std::move(S);
        QueuedMicros = Micros;
        Phase.store(InvPhase::Granted, std::memory_order_release);
        // Deliberately notified under the mutex: the woken driver may
        // resolve and destroy this object the instant it owns M, so the
        // broadcast must complete before M is released.
        CV.notify_all();
      }
    }

    /// Drop callback (scheduler deadline sweep): the request left the
    /// admission queue ungranted; wake the driver to shed.
    void onDropped() {
      std::lock_guard<std::mutex> Lock(M);
      Phase.store(InvPhase::Dropped, std::memory_order_release);
      CV.notify_all();
    }

    /// Driver side: blocks until the scheduler granted lanes. A request
    /// still sitting in the admission queue while the waiting thread's
    /// own sessions lease the entire pool can never be granted (grants
    /// need a free lane, and only this parked thread's stack could free
    /// one): that provable self-deadlock -- a step callback submitting
    /// and waiting on the same runtime, or futures resolved out of
    /// submission order -- aborts loudly instead of hanging. The
    /// diagnostic assumes the submitting thread drives the future (the
    /// ledger records leases against it); see SpiceLoop::submit().
    void awaitGrant() {
      std::unique_lock<std::mutex> Lock(M);
      if (Phase.load(std::memory_order_relaxed) == InvPhase::Queued &&
          L.RT.scheduler().queuedBehindOwnLeases(Ticket))
        reportFatalError(
            "waiting on a queued SpiceFuture would deadlock: this "
            "thread's sessions lease every worker of the pool, so the "
            "grant this wait needs can never happen (nested "
            "submit()/invoke() from a loop body, or futures resolved "
            "out of submission order?)");
      CV.wait(Lock, [this] {
        return Phase.load(std::memory_order_relaxed) != InvPhase::Queued;
      });
    }

    /// Driver core: executes elements NextElem..Last in submission
    /// order, storing each outcome, and finishes the request when the
    /// last element is done. One thread drives a future, so this is
    /// never concurrent with itself. Idempotent past the end.
    void resolveThrough(size_t Last) noexcept {
      if (Phase.load(std::memory_order_acquire) == InvPhase::Resolved)
        return;
      Last = std::min(Last, Starts.size() - 1);
      if (!Began) {
        Began = true;
        // Acquire: a deferred grant may have completed on another thread
        // since the check above, and its release store of Phase is what
        // publishes Session and QueuedMicros when awaitGrant's mutex is
        // skipped.
        if (Phase.load(std::memory_order_acquire) == InvPhase::Queued)
          awaitGrant();
        if (Phase.load(std::memory_order_relaxed) == InvPhase::Dropped) {
          // Admission control shed the request. It was one scheduler
          // request, so it sheds as one: every element resolves to the
          // same overload outcome.
          std::exception_ptr E = std::make_exception_ptr(OverloadError(
              "submission shed by the runtime's admission control "
              "(queue cap under OverloadPolicy::Reject, or deadline "
              "expiry under OverloadPolicy::DeadlineDrop)"));
          for (size_t I = 0; I != Starts.size(); ++I)
            Errs[I] = E;
          NextElem = Starts.size();
        }
      }
      while (NextElem <= Last) {
        size_t I = NextElem;
        try {
          Results[I] = runElement(I);
        } catch (...) {
          // Stored per element, surfaced by get(); swallowed by an
          // abandoning destructor. Workers have no unwind path by
          // design, so this is always the client's own callable
          // throwing on this thread -- the session was joined on the
          // unwind (SessionJoiner) and the batch continues with the
          // next element.
          Errs[I] = std::current_exception();
        }
        NextElem = I + 1;
      }
      if (NextElem == Starts.size())
        finish();
    }

    /// One element's execution on the driving thread. Element 0 of a
    /// granted request resolves the chunks launched at grant time;
    /// every later element re-launches the held session against the
    /// predictions its predecessor refreshed (or runs sequentially when
    /// none are valid or the sequential rung holds -- lanes idle for
    /// that element, but order is preserved).
    State runElement(size_t I) {
      if (I == 0 && Session)
        return L.resolveGranted(*Session, Starts[0], ActiveChunks,
                                QueuedMicros);
      if (!Session || L.rungHolds())
        return L.invokeSequential(Starts[I]);
      unsigned Active = L.countLaunchableSpecChunks();
      if (Active == 0)
        return L.invokeSequential(Starts[I]);
      L.prepareParallel(Active, Session.get());
      L.launchChunks(*Session, Active);
      return L.resolveGranted(*Session, Starts[I], Active,
                              /*QueuedMicros=*/0);
    }

    /// Exactly-once completion of the whole request: release the lane
    /// lease (offering deferred grants), clear the loop's in-flight
    /// flag, and publish Resolved.
    void finish() noexcept {
      Session.reset();
      L.InvokeInFlight.store(false, std::memory_order_release);
      L.RT.noteResolved();
      Phase.store(InvPhase::Resolved, std::memory_order_release);
    }

    SpiceLoop &L;
    std::vector<LiveIn> Starts; ///< One per element, submission order.
    unsigned ActiveChunks = 0;
    uint64_t Ticket = 0; ///< Admission-queue id (see awaitGrant).
    Scheduler::SessionHandle Session;
    uint64_t QueuedMicros = 0;
    std::mutex M;
    std::condition_variable CV;
    std::atomic<InvPhase> Phase{InvPhase::SeqPending};
    std::vector<std::optional<State>> Results; ///< Per-element outcome.
    std::vector<std::exception_ptr> Errs;      ///< Per-element error.
    size_t NextElem = 0; ///< Next element to execute (driver only).
    bool Began = false;  ///< Driver entered resolution (driver only).
  };

  /// Grant-side setup, step 1: snapshot the predictions into PredArena
  /// (memoization overwrites SVA during the run) and reset the per-chunk
  /// machinery. Runs on the granting thread; the launch that follows
  /// publishes the writes to the workers, and the mutex hand-off in
  /// onGrant publishes them to the driver. One invocation per loop is in
  /// flight at a time (InvokeInFlight), so the loop-owned arena is safe
  /// and its capacity is reused by every invocation.
  void prepareParallel(unsigned ActiveChunks, WorkerSession *S) {
    PredArena.assign(SVA.begin(), SVA.begin() + ActiveChunks);
    bindChunkBuffers(ActiveChunks, S);
    for (unsigned I = 0; I <= ActiveChunks; ++I) {
      AbortFlags[I].store(false, std::memory_order_relaxed);
      DoneFlags[I].store(0, std::memory_order_relaxed);
      specBuf(I).clear();
      Results[I].reset();
    }
  }

  /// The write buffer chunk \p C runs against this invocation: the
  /// loop-owned buffer by default, or a node-local pool buffer while a
  /// NUMA binding is active (bindChunkBuffers).
  SpecWriteBuffer &specBuf(unsigned C) { return *BufPtrs[C]; }

  /// NUMA half of prepareParallel: when the runtime runs a multi-node
  /// placement, each speculative chunk draws its SpecWriteBuffer from
  /// the shard of the node owning the chunk's home lane, so a chunk's
  /// speculative writes -- and the commit chain's reads of them -- stay
  /// in node-local memory. Without placement (or for the sequential
  /// chunk 0, which buffers nothing) the loop-owned buffers are used
  /// unchanged and this is a no-op. Balanced by releaseChunkBuffers.
  void bindChunkBuffers(unsigned ActiveChunks, WorkerSession *S) {
    if (!S || S->lanes() == 0 || !RT.pool().hasBufferShards())
      return;
    const unsigned Lanes = S->lanes();
    for (unsigned C = 1; C <= ActiveChunks; ++C) {
      unsigned Node = S->laneNode(homeLane(C, Lanes));
      DrawnBufs.emplace_back(Node, RT.pool().acquireSpecBuffer(Node));
      BufPtrs[C] = DrawnBufs.back().second;
    }
  }

  /// Returns pool-drawn buffers to their node shards (cleared, so the
  /// next borrower starts empty) and repoints every chunk at its
  /// loop-owned buffer. Runs only after the session is joined -- no
  /// worker can still be writing through BufPtrs.
  void releaseChunkBuffers() {
    if (DrawnBufs.empty())
      return;
    for (size_t C = 0; C != BufPtrs.size(); ++C)
      BufPtrs[C] = &Buffers[C];
    for (auto &[Node, B] : DrawnBufs) {
      B->clear();
      RT.pool().releaseSpecBuffer(Node, B);
    }
    DrawnBufs.clear();
  }

  /// Grant-side setup, step 2: queue the speculative chunks on the
  /// granted lanes and wake the leased workers. With a sole client the
  /// session holds min(pool size, ActiveChunks) lanes, the pre-scheduler
  /// schedule; a capped grant simply queues more chunks per lane. Each
  /// lane runs chunks until every deque is empty and then leaves the
  /// job; a recovery chunk pushed after that is the resolver's to run
  /// (WaitForChunk in resolveGranted). The job context (session
  /// pointer, active count, PredArena) lives in the loop so the lambda
  /// captures only `this` -- small enough for std::function's inline
  /// storage, so a launch never heap-allocates.
  void launchChunks(WorkerSession &S, unsigned ActiveChunks) {
    const unsigned Lanes = S.lanes();
    for (unsigned C = 1; C <= ActiveChunks; ++C)
      S.pushChunk(homeLane(C, Lanes), C);
    Launch.S = &S;
    Launch.ActiveChunks = ActiveChunks;
    S.launch([this](unsigned Lane) {
      uint32_t C;
      bool Stolen;
      while (Launch.S->acquireChunk(Lane, C, Stolen))
        executeChunk(C, PredArena, Launch.ActiveChunks, Stolen,
                     Opts.MaxSpecIterations);
    });
  }

  /// Driver side of one granted invocation (one batch element): chunk
  /// 0, the ordered commit chain, recovery, and the per-invocation
  /// bookkeeping, against the chunks previously launched on \p Session
  /// (launchChunks). Runs on the thread driving the future; the
  /// speculative chunks have been executing since the launch. The
  /// session is *borrowed*: the caller keeps the lease afterwards (a
  /// batch re-launches it element by element) and releases it exactly
  /// once when the whole request completes (AsyncInvocation::finish).
  /// On exit -- normal or unwinding -- the leased workers are joined
  /// and the deques left empty, so the caller may re-launch.
  State resolveGranted(WorkerSession &Session, const LiveIn &Start,
                       unsigned ActiveChunks, uint64_t QueuedMicros) {
    const std::vector<LiveIn> &Pred = PredArena;
    const SpiceStats Before = Stats;
    Stats.LaunchedSpecThreads += ActiveChunks;
    Stats.QueuedMicros += QueuedMicros;
    Stats.GrantedLanes += Session.lanes();
    // Oversubscription only changes behavior when there can be more
    // chunks than workers; an effective k of 1 must reproduce the
    // paper's fixed chunk-per-thread schedule exactly.
    const bool Oversubscribed = effectiveK() > 1;
    const unsigned Lanes = Session.lanes();
    // If a Traits callable throws mid-invocation, the lanes must still be
    // joined before the handle returns them to the shared pool -- a
    // session destroyed with its job in flight would lease busy workers
    // to other loops. Squash the orphaned chunks, let the lanes drain
    // them, and drop any recovery chunk nobody ran; idempotent on the
    // normal path (lanes already joined, deques empty).
    struct SessionJoiner {
      SpiceLoop &L;
      WorkerSession &S;
      unsigned ActiveChunks;
      ~SessionJoiner() {
        for (unsigned I = 0; I <= ActiveChunks; ++I)
          L.AbortFlags[I].store(true, std::memory_order_relaxed);
        S.wait();
        S.clearQueues();
        // Safe only here: the join above is what guarantees no worker
        // still writes through the chunk buffers.
        L.releaseChunkBuffers();
      }
    } Joiner{*this, Session, ActiveChunks};
    Results[0] = runChunk(Start, &Pred[0], /*ChunkIdx=*/0,
                          cursorFor(0), Opts.MaxSpecIterations);

    // Waits for chunk C to finish; in oversubscribed mode the main thread
    // first drains pending chunks oldest-first -- a requeued recovery
    // chunk is always among them, since the lanes may all have left. A
    // helped chunk whose start is already validated (P == C) gets the
    // full budget; a still-speculative one is clamped so main can never
    // be wedged inside a chunk only it could abort. Once nothing is
    // pending, C is running on a lane, and only main pushes chunks, so
    // main spins briefly and then parks on C's done word.
    auto WaitForChunk = [&](unsigned C) {
      uint32_t P;
      while (Oversubscribed && !DoneFlags[C].load(std::memory_order_acquire) &&
             Session.helpPopFront(P)) {
        ++Stats.MainHelpedChunks;
        executeChunk(P, Pred, ActiveChunks, /*Stolen=*/true,
                     P == C ? Opts.MaxSpecIterations : helpIterBudget());
      }
      detail::awaitWord(DoneFlags[C], 1);
    };

    // --- Ordered chain resolution (main thread) ---
    // Work/Requeues live in loop-owned arenas: one invocation is in
    // flight per loop, and reusing their capacity keeps the per-submit
    // resolution allocation-free.
    State Merged = std::move(*Results[0]->S);
    WorkArena.assign(PlanChunks, 0);
    std::vector<uint64_t> &Work = WorkArena;
    Work[0] = Results[0]->Work;
    Stats.TotalIterations += Results[0]->Iterations;

    bool PrevMatched = Results[0]->Status == ChunkStatus::Matched;
    unsigned Committed = 0;     // Highest committed speculative chunk.
    unsigned RecoverFrom = ~0u; // Chunk to re-execute serially (legacy).
    bool AnyFailure = false;    // A validated chunk failed and was redone.
    RequeueArena.assign(ActiveChunks + 1, 0);
    std::vector<unsigned> &Requeues = RequeueArena;
    for (unsigned J = 1; J <= ActiveChunks;) {
      if (!PrevMatched) {
        // Chunk J's start was never seen: mis-speculation. Squash.
        AbortFlags[J].store(true, std::memory_order_relaxed);
        ++J;
        continue;
      }
      // Chunk J's start was validated, so it terminates by itself.
      WaitForChunk(J);
      ChunkResult &R = *Results[J];
      bool Healthy =
          R.Status == ChunkStatus::Matched || R.Status == ChunkStatus::Exited;
      bool ReadsOk = !Opts.EnableConflictDetection ||
                     specBuf(J).validateReads();
      if (!Healthy || !ReadsOk) {
        if (!ReadsOk)
          ++Stats.ConflictSquashes;
        AnyFailure = true;
        if (Oversubscribed && Requeues[J] < kMaxRecoveryRequeues) {
          // Steal-aware recovery: discard the failed execution and
          // re-enqueue the chunk from its validated start. Successors
          // keep running -- their own commit-time validation decides
          // whether their work survives the redone chunk.
          ++Requeues[J];
          ++Stats.RecoveryChunks;
          ++Stats.SquashedThreads;
          Stats.WastedIterations += R.Iterations;
          if (R.Stolen)
            ++Stats.StolenChunks;
          for (unsigned Row : R.WrittenRows)
            RowValid[Row] = 0;
          specBuf(J).clear();
          Results[J].reset();
          DoneFlags[J].store(0, std::memory_order_relaxed);
          AbortFlags[J].store(false, std::memory_order_relaxed);
          // Front of the lane: J blocks the whole commit chain, so it
          // must run before any more-speculative pending chunk. Every
          // lane may have left already; WaitForChunk then runs it here.
          Session.pushChunkFront(homeLane(J, Lanes), J);
          continue; // Same J: wait for the recovery execution.
        }
        // Paper protocol (and oversubscribed last resort): everything
        // from J on is redone sequentially by the main thread.
        RecoverFrom = J;
        PrevMatched = false;
        AbortFlags[J].store(true, std::memory_order_relaxed);
        ++J;
        continue;
      }
      specBuf(J).commit();
      T.combine(Merged, std::move(*R.S));
      Work[J] = R.Work;
      Stats.TotalIterations += R.Iterations;
      if (Requeues[J] > 0) {
        // This was a recovery execution: its iterations are re-executed
        // work, exactly like the paper's serial recovery accounts them.
        Stats.RecoveryIterations += R.Iterations;
        if (R.Stolen)
          ++Stats.StolenRecoveryChunks;
      }
      Committed = J;
      PrevMatched = R.Status == ChunkStatus::Matched;
      ++J;
    }
    // Exhaustiveness: the chain either commits through a chunk that
    // Exited (loop complete), stops at a squash whose predecessor Exited
    // (also complete: the predecessor covered the remainder), or stops at
    // an unhealthy validated chunk (RecoverFrom set). The last active
    // chunk has no detection target, so it can never end Matched.
    bool NeedRecovery = RecoverFrom != ~0u;
    if (NeedRecovery)
      Merged = runRecovery(std::move(Merged), Pred[RecoverFrom - 1], Work,
                           RecoverFrom);

    Session.wait(); // The caller's finish() returns the leased lanes.

    // Steal locality: fold this element's deque counters into the loop
    // stats now (before the LastStats snapshot below); the exchange
    // leaves the session's counters at zero for the next batch element.
    {
      const detail::ChunkDeques::StealCounters SC =
          Session.takeStealCounters();
      Stats.LocalSteals += SC.Local;
      Stats.RemoteSteals += SC.Remote;
    }

    // Post-join bookkeeping: wasted work and stale rows of dead chunks.
    bool AnySquash = AnyFailure;
    for (unsigned J = Committed + 1; J <= ActiveChunks; ++J) {
      ChunkResult &R = *Results[J];
      AnySquash = true;
      ++Stats.SquashedThreads;
      Stats.WastedIterations += R.Iterations;
      specBuf(J).clear();
      for (unsigned Row : R.WrittenRows)
        RowValid[Row] = 0; // Memoized by a dead chunk: untrustworthy.
    }
    for (unsigned J = 1; J <= ActiveChunks; ++J)
      if (Results[J] && Results[J]->Stolen)
        ++Stats.StolenChunks;

    if (AnySquash)
      ++Stats.MisspeculatedInvocations;
    else
      ++Stats.FullySpeculativeInvocations;

    // Load balance: only meaningful for fully validated invocations. The
    // metric is re-derived from chunk granularity: the observed per-chunk
    // work is list-scheduled onto the invocation's execution contexts
    // (deterministic model of the work-stealing scheduler); with one
    // chunk per thread this reduces to the paper's max-chunk ratio.
    if (!AnySquash) {
      uint64_t Total = 0, MaxChunk = 0;
      for (unsigned J = 0; J <= ActiveChunks; ++J) {
        Total += Work[J];
        MaxChunk = std::max(MaxChunk, Work[J]);
      }
      if (Total > 0) {
        // The invocation's real execution contexts: the leased lanes
        // plus the resolving main thread. With a sole client this equals
        // min(NumThreads, ActiveChunks + 1), the pre-runtime value;
        // under pool contention it reflects the partition actually held.
        unsigned ExecUnits = Lanes + 1;
        ChunkWorkArena.assign(Work.begin(),
                              Work.begin() + ActiveChunks + 1);
        uint64_t Makespan = listScheduleMakespan(ChunkWorkArena, ExecUnits);
        double Ideal =
            static_cast<double>(Total) / static_cast<double>(ExecUnits);
        Stats.ImbalanceSum += static_cast<double>(Makespan) / Ideal;
        ++Stats.ImbalanceSamples;
        double IdealChunk = static_cast<double>(Total) /
                            static_cast<double>(ActiveChunks + 1);
        Stats.ChunkImbalanceSum +=
            static_cast<double>(MaxChunk) / IdealChunk;
        ++Stats.ChunkImbalanceSamples;
      }
    }

    // Feedback: the invocation's counter deltas go to the chunk
    // controller, which may move PlanChunks for the *next* plan.
    if (Controller) {
      InvocationSample Sample;
      Sample.Iterations = Stats.TotalIterations - Before.TotalIterations;
      Sample.RecoveryIterations =
          Stats.RecoveryIterations - Before.RecoveryIterations;
      Sample.WastedIterations =
          Stats.WastedIterations - Before.WastedIterations;
      Sample.Misspeculated = AnySquash;
      if (Stats.ImbalanceSamples > Before.ImbalanceSamples)
        Sample.LoadImbalance = Stats.ImbalanceSum - Before.ImbalanceSum;
      setEffectiveK(Controller->onInvocation(Sample));
    }

    planNext(Work);
    LastStats = Stats;
    return Merged;
  }

  /// Sequential re-execution from \p From to the natural exit after a
  /// validated chunk produced an unusable result. Runs concurrently with
  /// doomed speculative chunks (which only touch private buffers).
  State runRecovery(State Merged, LiveIn LI, std::vector<uint64_t> &Work,
                    unsigned FailedChunk) {
    State S = T.initialState();
    SpecSpace Direct;
    uint64_t Iters = 0;
    while (T.step(LI, S, Direct))
      ++Iters;
    T.combine(Merged, std::move(S));
    // Positionally, the redone iterations replace the failed chunk's
    // segment (and everything after it).
    Work[FailedChunk] = Iters;
    Stats.RecoveryIterations += Iters;
    Stats.TotalIterations += Iters;
    return Merged;
  }

  /// Home lane of speculative chunk \p C: round-robin over the launched
  /// lanes, so early chunks sit at the front of distinct deques.
  static unsigned homeLane(unsigned C, unsigned Lanes) {
    return (C - 1) % Lanes;
  }

  MemoCursor cursorFor(unsigned ChunkIdx) {
    if (Plan.PerThread.size() <= ChunkIdx)
      return MemoCursor();
    return MemoCursor(&Plan.PerThread[ChunkIdx]);
  }

  /// Effective chunks per thread the next invocation plans for: the
  /// controller's pick under ChunkPolicy::Adaptive, the pinned k
  /// otherwise.
  unsigned effectiveK() const {
    return Controller ? Controller->currentK()
                      : Opts.maxChunksPerThread();
  }

  /// Applies a controller decision: retarget the next plan at \p K
  /// chunks per thread. On a shrink, SVA rows at and beyond the new last
  /// chunk are stale boundaries and are invalidated -- chunk boundaries
  /// 0..PlanChunks-2 stay valid, so the next invocation still runs fully
  /// parallel (with one transiently fat last chunk the fresh plan then
  /// rebalances). On a grow, rows beyond the old range are already
  /// invalid and fill in naturally once the wider plan has run: the new
  /// granularity takes full effect one invocation later.
  void setEffectiveK(unsigned K) {
    const unsigned NewPlanChunks = std::min(
        NumChunks, std::max(1u, RT.numThreads() * std::max(1u, K)));
    if (NewPlanChunks == PlanChunks)
      return;
    if (NewPlanChunks < PlanChunks)
      for (size_t Row = NewPlanChunks > 0 ? NewPlanChunks - 1 : 0;
           Row < RowValid.size(); ++Row)
        RowValid[Row] = 0;
    PlanChunks = NewPlanChunks;
  }

  /// Central predictor component: plan the next invocation's memoization.
  void planNext(const std::vector<uint64_t> &Work) {
    if (RT.numThreads() < 2)
      return;
    if (!Opts.RememoizeEveryInvocation && !Plan.empty() &&
        Plan.PerThread.size() == PlanChunks)
      return; // Memoize-once: keep the plan while the granularity holds.
              // A controller retarget (PlanChunks moved) still recuts --
              // the old boundaries describe chunks that no longer exist,
              // and without the recut an adaptive probe would execute the
              // old granularity and read as a no-op.
    PadScratch.assign(Work.begin(), Work.end());
    std::vector<uint64_t> &Padded = PadScratch;
    if (Padded.size() > PlanChunks) {
      // Shrink transition: the finished invocation ran more chunks than
      // the next plan targets. The next invocation's last chunk covers
      // every span from PlanChunks-1 on (its boundary rows were just
      // invalidated), so fold that work into it -- the plan's recording
      // points then land inside chunks that will actually run.
      for (size_t J = PlanChunks; J < Padded.size(); ++J)
        Padded[PlanChunks - 1] += Padded[J];
      Padded.resize(PlanChunks);
    }
    Padded.resize(PlanChunks, 0);
    // In-place replan: the plan's per-chunk lists keep their capacity,
    // so the steady-state replan after every invocation is
    // allocation-free.
    planMemoizationInto(Padded, PlanChunks, Plan);
  }

  /// Registration-time validation of the per-loop options; fatal on a
  /// configuration that previously fell back silently.
  static const LoopOptions &validated(const LoopOptions &Opts) {
    if (Opts.adaptiveChunking()) {
      if (Opts.Chunking.MinK == 0 || Opts.Chunking.MaxK < Opts.Chunking.MinK)
        reportFatalError(
            "ChunkPolicy::Adaptive bounds are invalid at loop "
            "registration: require 1 <= MinK <= MaxK (MinK = 0 or "
            "MaxK < MinK given)");
    } else if (Opts.maxChunksPerThread() == 0) {
      reportFatalError(
          "LoopOptions::ChunksPerThread is 0 at loop registration; the "
          "oversubscription degree must be >= 1 (1 = the paper's one "
          "chunk per thread). The old silent fallback to 1 has been "
          "removed");
    }
    return Opts;
  }

  Traits &T;
  SpiceRuntime &RT;
  LoopOptions Opts;
  unsigned NumChunks; ///< Allocation bound: chunks at the largest k.
  /// Chunks the next invocation's memoization plan targets (== NumChunks
  /// for static policies; moved by the controller inside the allocation
  /// for adaptive ones). Written only between invocations by the thread
  /// driving the loop.
  unsigned PlanChunks;
  BootstrapSampler<LiveIn> Sampler;
  MemoizationPlan Plan;
  std::vector<LiveIn> SVA;
  std::vector<uint8_t> RowValid;
  std::vector<SpecWriteBuffer> Buffers;
  /// Per-chunk buffer indirection: BufPtrs[C] is the buffer chunk C
  /// actually runs against. Normally &Buffers[C]; while a NUMA binding
  /// is active it points at a node-local pool buffer instead
  /// (bindChunkBuffers / releaseChunkBuffers). Same write/publish
  /// discipline as PredArena.
  std::vector<SpecWriteBuffer *> BufPtrs;
  /// (node, buffer) pairs drawn from the pool's node shards for the
  /// in-flight invocation; empty whenever no invocation is bound.
  std::vector<std::pair<unsigned, SpecWriteBuffer *>> DrawnBufs;
  std::unique_ptr<std::atomic<bool>[]> AbortFlags;
  /// Per-chunk done words: 1 once the chunk's result is published.
  /// executeChunk notifies them; the resolver parks on them.
  std::unique_ptr<std::atomic<uint32_t>[]> DoneFlags;
  std::vector<std::optional<ChunkResult>> Results;
  /// Launch context captured by reference from the worker lambda so the
  /// lambda closes over `this` alone (8 bytes -- fits std::function's
  /// small-buffer storage, so launching chunks never heap-allocates).
  /// Written in launchChunks before WorkerSession::launch, whose
  /// release increment of each wake word publishes it to the workers.
  struct LaunchCtx {
    WorkerSession *S = nullptr;
    unsigned ActiveChunks = 0;
  };
  LaunchCtx Launch;
  /// Reusable per-invocation scratch. Safe as members because at most
  /// one invocation is in flight per loop (InvokeInFlight): written by
  /// the driving thread in prepareParallel/resolveGranted before workers
  /// start (ordered by the wake words in launch, and by onGrant's
  /// mutex/CV for the submit path), read-only while chunks run.
  std::vector<LiveIn> PredArena;
  std::vector<uint64_t> WorkArena;
  std::vector<uint64_t> PadScratch;
  std::vector<uint64_t> ChunkWorkArena;
  std::vector<unsigned> RequeueArena;
  SpiceStats Stats;
  /// Snapshot of Stats at the last completed invocation (lastStats()).
  SpiceStats LastStats;
  /// Chunk controller (the adaptive k climb and the sequential rung);
  /// null for Static(1) and on single-threaded runtimes. Driven only
  /// between invocations by the thread driving the loop; submit() reads
  /// holding() after InvokeInFlight orders it behind the last
  /// resolution.
  std::unique_ptr<ChunkController> Controller;
  /// Guards against overlapping invoke() on one handle (see invoke()).
  /// Written twice per invocation, so it gets its own cache line, which
  /// also starts the next object on a fresh line: loops of different
  /// clients often sit side by side, and must not false-share.
  alignas(64) std::atomic<bool> InvokeInFlight{false};
};

} // namespace core
} // namespace spice

#endif // SPICE_CORE_SPICELOOP_H
