//===- bench/ablation_loadbalance.cpp - Load-balance ablations ------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Two load-balance ablations of the native runtime:
//
//  1. Section 4/5 discussion: memoizing live-ins on *every* invocation
//     both adapts predictions to churn and load-balances the chunks. The
//     paper's adaptive scheme runs against the memoize-once "trivial
//     strategy" on the shrinking ks candidate list and churning otter.
//
//  2. Chunk/thread decoupling: with ChunksPerThread > 1 the planner cuts
//     finer chunks and the work-stealing scheduler absorbs what the
//     one-invocation-stale plan got wrong. On a skewed workload (a cost
//     hotspot the unit work metric cannot see) the load imbalance must
//     be monotonically non-increasing as ChunksPerThread grows; the
//     bench fails (exit 1) if it is not.
//
//  3. Conflict structure and recovery policy on the post-paper workload
//     families (docs/workloads.md): where SSSP conflicts land depends
//     on the graph shape (grid wavefronts vs R-MAT hubs), and the
//     structurally conflict-prone packet pipeline sweeps
//     ChunksPerThread to measure what each recovery policy re-executes
//     -- evidence for the ROADMAP's adaptive-ChunksPerThread item
//     (counter-dense loops want coarse chunks).
//
//  4. ChunkPolicy::Adaptive vs every static k on six kernels that
//     disagree about the best granularity; the adaptive controller must
//     match the best static k on each kernel and beat the best single
//     static k on the suite geomean (exit 1 otherwise).
//
// Every loop keeps speculation on (LoopOptions::AlwaysSpeculate), so the
// ablations measure granularity, memoization and recovery rather than
// the chunk controller's sequential rung. One printed, ungated row shows
// the rung's effect on the packets and mcf kernels at static k = 2.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/ChunkController.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "workloads/Graph.h"
#include "workloads/Ks.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

/// Options every loop of this bench starts from: speculation stays on
/// even where it loses (see the file comment).
LoopOptions speculating() {
  LoopOptions O;
  O.AlwaysSpeculate = true;
  return O;
}

struct Outcome {
  SpiceStats Stats;
  bool Correct = true;
};

Outcome runKsPass(SpiceRuntime &RT, bool Rememoize) {
  KsGraph G(512, 6, 7);
  KsTraits Traits;
  Traits.Graph = &G;
  LoopOptions O = speculating();
  O.RememoizeEveryInvocation = Rememoize;
  auto Loop = RT.makeLoop(Traits, O);
  Outcome Out;
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < 200) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    KsTraits::State Want = Loop.runSequentialReference(G.bListHead());
    Out.Correct &= Got.BestB == Want.BestB && Got.BestGain == Want.BestGain;
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  Out.Stats = Loop.stats();
  return Out;
}

Outcome runOtterChurn(SpiceRuntime &RT, bool Rememoize) {
  ClauseList List(1200, 8);
  OtterTraits Traits;
  LoopOptions O = speculating();
  O.RememoizeEveryInvocation = Rememoize;
  auto Loop = RT.makeLoop(Traits, O);
  Outcome Out;
  for (int I = 0; I != 150 && List.head(); ++I) {
    OtterTraits::State Got = Loop.invoke(List.head());
    Out.Correct &= Got.MinClause == List.findLightestReference();
    List.mutate(Got.MinClause, 2);
  }
  Out.Stats = Loop.stats();
  return Out;
}

//===----------------------------------------------------------------------===//
// Skewed workload for the ChunksPerThread sweep: a fixed-trip index loop
// with a static per-iteration cost hotspot, run under the paper's default
// *unit* work metric. The planner cannot see the cost landscape, so it
// cuts equal-iteration chunks whose true costs are badly skewed -- the
// situation section 5's "better metric" remark worries about. Everything
// is static and perfectly predictable (no squashes, no timing
// sensitivity), so the measurement isolates pure load balance: the bench
// reads the chunk boundaries the runtime actually used (predictions()),
// prices them under the true cost model, and list-schedules them onto
// the 4 contexts with core::listScheduleMakespan. One chunk per thread
// pins the hot chunk to one context; finer chunks + stealing spread it.
//===----------------------------------------------------------------------===//

struct HotspotTraits {
  using LiveIn = int64_t; // Iteration index, 0..Trip.
  struct State {
    uint64_t Sum = 0;
  };

  int64_t Trip = 4096;
  int64_t HotStart = 0;
  int64_t HotLen = 1024;
  uint64_t HotCost = 8;
  uint64_t ColdCost = 1;

  uint64_t cost(int64_t I) const {
    int64_t Off = (I - HotStart + Trip) % Trip;
    return Off < HotLen ? HotCost : ColdCost;
  }

  /// True cost of the iteration range [Begin, End).
  uint64_t rangeCost(int64_t Begin, int64_t End) const {
    uint64_t W = 0;
    for (int64_t I = Begin; I < End; ++I)
      W += cost(I);
    return W;
  }

  State initialState() { return {}; }

  bool step(LiveIn &LI, State &S, core::SpecSpace &Mem) {
    (void)Mem;
    if (LI >= Trip)
      return false;
    S.Sum += cost(LI) * static_cast<uint64_t>(LI + 1);
    ++LI;
    return true;
  }

  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

struct SweepPoint {
  unsigned ChunksPerThread;
  double Imbalance;      ///< Mean true-cost makespan / ideal per context.
  double ChunkImbalance; ///< Mean true-cost max-chunk / ideal-chunk.
  uint64_t Stolen;
  uint64_t Squashed;
  bool Correct;
};

SweepPoint runHotspotSweep(SpiceRuntime &RT, unsigned ChunksPerThread,
                           int Invocations, int64_t Trip) {
  HotspotTraits Traits;
  Traits.Trip = Trip;
  Traits.HotLen = Trip / 4;
  Traits.HotStart = Trip / 3; // Deliberately boundary-unaligned.
  LoopOptions O = speculating();
  O.ChunksPerThread = ChunksPerThread;
  // Paper default: unit work metric. The planner balances iteration
  // counts and is blind to the hotspot.
  O.UseWeightedWork = false;
  auto Loop = RT.makeLoop(Traits, O);

  SweepPoint P{ChunksPerThread, 0.0, 0.0, 0, 0, true};
  double ImbalanceSum = 0, ChunkSum = 0;
  uint64_t Samples = 0;
  for (int I = 0; I != Invocations; ++I) {
    HotspotTraits::State Got = Loop.invoke(0);
    HotspotTraits::State Want = Loop.runSequentialReference(0);
    P.Correct &= Got.Sum == Want.Sum;
    // Price the chunk boundaries the next invocation will use under the
    // true cost model the runtime cannot see.
    std::vector<int64_t> Rows = Loop.predictions();
    if (Rows.empty())
      continue; // Bootstrap invocation: no chunk geometry yet.
    std::vector<uint64_t> TrueCost;
    int64_t Prev = 0;
    for (int64_t Row : Rows) {
      TrueCost.push_back(Traits.rangeCost(Prev, Row));
      Prev = Row;
    }
    TrueCost.push_back(Traits.rangeCost(Prev, Trip));
    uint64_t Total = 0, MaxChunk = 0;
    for (uint64_t W : TrueCost) {
      Total += W;
      MaxChunk = std::max(MaxChunk, W);
    }
    if (Total == 0)
      continue;
    uint64_t Makespan = listScheduleMakespan(TrueCost, RT.numThreads());
    ImbalanceSum += static_cast<double>(Makespan) * RT.numThreads() / Total;
    ChunkSum += static_cast<double>(MaxChunk) * TrueCost.size() / Total;
    ++Samples;
  }
  if (Samples) {
    P.Imbalance = ImbalanceSum / Samples;
    P.ChunkImbalance = ChunkSum / Samples;
  }
  P.Stolen = Loop.stats().StolenChunks;
  P.Squashed = Loop.stats().SquashedThreads;
  return P;
}

//===----------------------------------------------------------------------===//
// Conflict-density ablation on the post-paper workloads: the dependence
// structure (not a runtime knob) sets how often commit-time validation
// fails.
//===----------------------------------------------------------------------===//

struct ConflictPoint {
  double MisspecRate = 0.0;
  uint64_t ConflictSquashes = 0;
  uint64_t RecoveryChunks = 0;
  double RecoveryFraction = 0.0; ///< RecoveryIterations / TotalIterations.
  bool Correct = true;

  /// Extracts the counter columns; Correct stays with the caller.
  static ConflictPoint fromStats(const SpiceStats &S, bool Correct) {
    ConflictPoint P;
    P.MisspecRate = S.misspeculationRate();
    P.ConflictSquashes = S.ConflictSquashes;
    P.RecoveryChunks = S.RecoveryChunks;
    if (S.TotalIterations)
      P.RecoveryFraction = static_cast<double>(S.RecoveryIterations) /
                           static_cast<double>(S.TotalIterations);
    P.Correct = Correct;
    return P;
  }
};

ConflictPoint runSsspConflicts(SpiceRuntime &RT, CsrGraph G, int Rounds) {
  SsspWorkload Work(std::move(G), /*Source=*/0);
  LoopOptions O = speculating();
  O.ChunksPerThread = 2;
  auto Loop = Work.makeLoop(RT, O);
  bool Correct = true;
  for (int R = 0; R != Rounds; ++R) {
    int64_t Source = (static_cast<int64_t>(R) * 13) %
                     static_cast<int64_t>(Work.graph().numVertices());
    Work.reset(Source);
    Work.run(Loop);
    Correct &= Work.distances() ==
               SsspWorkload::ssspReference(Work.graph(), Source);
  }
  return ConflictPoint::fromStats(Loop.stats(), Correct);
}

/// The packet pipeline is *structurally* conflict-prone: whatever flow
/// is active where a chunk boundary lands has packets on both sides, so
/// nearly every speculative chunk fails validation about once per
/// invocation no matter how the trace dials are set. What the recovery
/// policy controls is how much work each failure costs: the paper's
/// serial recovery (ChunksPerThread=1) re-executes the whole remainder
/// of the trace, while the oversubscribed requeue recovery re-executes
/// one chunk and lets validated successors stand. This sweep measures
/// that directly as RecoveryIterations / TotalIterations.
ConflictPoint runPacketRecovery(SpiceRuntime &RT, unsigned ChunksPerThread,
                                int Invocations, size_t TraceLen) {
  PacketPipeline Live(256, 64, TraceLen, 91);
  PacketPipeline Ref(256, 64, TraceLen, 91);
  LoopOptions O = speculating();
  O.ChunksPerThread = ChunksPerThread;
  auto Loop = Live.makeLoop(RT, O);
  bool Correct = true;
  for (int I = 0; I != Invocations; ++I) {
    Live.generateTrace(TraceLen, /*BurstProb=*/0.05, /*BurstLen=*/16);
    Ref.generateTrace(TraceLen, 0.05, 16);
    PacketState Want = Ref.processTraceReference();
    PacketState Got = Loop.invoke(Live.traceBegin());
    Correct &= Got == Want && Live.table().countersEqual(Ref.table());
  }
  return ConflictPoint::fromStats(Loop.stats(), Correct);
}

//===----------------------------------------------------------------------===//
// Ablation 4: ChunkPolicy::Adaptive vs every static k, six kernels. The
// kernels disagree about the best static chunks-per-thread -- the packet
// pipeline, mcf and the churning list loops pay for every extra chunk
// boundary, while the refresh scan conflicts structurally every
// invocation and wants the small requeue blast radius only finer chunks
// give -- so no single static k wins the suite. Each
// variant is scored with the controller's own objective
// (ChunkController::score: useful-work fraction over the load-imbalance
// penalty) over the LAST THIRD of its invocations: the first two thirds
// are warm-up, covering the adaptive controller's probing epochs and the
// static plans' bootstrap alike. The headline claims, enforced by exit
// code: Adaptive reaches the best static k on every kernel (within a
// tolerance) and strictly beats every single static k on the full-suite
// geomean.
//===----------------------------------------------------------------------===//

struct KernelResult {
  double Score = 0.0;
  double RecoveryFraction = 0.0;   ///< Second-half recovery share.
  double SequentialFraction = 0.0; ///< Scored-window sequential share.
  unsigned FinalK = 0;             ///< tuning() k after the run.
  bool Correct = true;
};

/// Scores the [Mid, End) stats window exactly like the controller scores
/// an epoch.
KernelResult scoreWindow(const SpiceStats &End, const SpiceStats &Mid,
                         bool Correct) {
  InvocationSample S;
  S.Iterations = End.TotalIterations - Mid.TotalIterations;
  S.RecoveryIterations = End.RecoveryIterations - Mid.RecoveryIterations;
  S.WastedIterations = End.WastedIterations - Mid.WastedIterations;
  const uint64_t Samples = End.ImbalanceSamples - Mid.ImbalanceSamples;
  if (Samples)
    S.LoadImbalance = (End.ImbalanceSum - Mid.ImbalanceSum) /
                      static_cast<double>(Samples);
  KernelResult R;
  R.Score = ChunkController::score(S);
  if (S.Iterations)
    R.RecoveryFraction = static_cast<double>(S.RecoveryIterations) /
                         static_cast<double>(S.Iterations);
  if (const uint64_t Inv = End.Invocations - Mid.Invocations)
    R.SequentialFraction =
        static_cast<double>(End.SequentialInvocations -
                            Mid.SequentialInvocations) /
        static_cast<double>(Inv);
  R.Correct = Correct;
  return R;
}

KernelResult runOtterKernel(SpiceRuntime &RT, ChunkPolicy CP, int Inv) {
  ClauseList List(1200, 8);
  OtterTraits Traits;
  LoopOptions O = speculating();
  O.Chunking = CP;
  auto Loop = RT.makeLoop(Traits, O);
  bool Correct = true;
  SpiceStats Mid;
  for (int I = 0; I != Inv && List.head(); ++I) {
    if (I == 2 * Inv / 3)
      Mid = Loop.lastStats();
    OtterTraits::State Got = Loop.invoke(List.head());
    Correct &= Got.MinClause == List.findLightestReference();
    List.mutate(Got.MinClause, 6);
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

/// The "fine chunks win" anchor: a conflict-detection scan that REWRITES
/// a shared cell a quarter of the way in, every invocation. Readers
/// later in the index space logged the previous invocation's value when
/// they speculated, so the chunk holding each downstream reader fails
/// read validation every single time -- the conflict is structural, not
/// transient. What varies with k is only the blast radius of that
/// guaranteed failure: at k=1 (the paper's sequential-recovery regime) a
/// failed chunk squashes everything downstream and the main thread
/// re-runs the rest of the trip sequentially, while oversubscribed runs
/// (k > 1) requeue just the conflicted chunk -- and a chunk shrinks as k
/// grows. This is the paper's oversubscription thesis turned into a
/// kernel: the measured static profile climbs from ~0.4 at k=1 toward
/// ~0.9 at k=8.
struct RefreshTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };

  int64_t Trip = 2048;
  int64_t WritePos = 516;
  int64_t ReaderStride = 512;
  int64_t ReaderOffset = 8;
  int64_t Epoch = 0; ///< Value published this invocation.
  int64_t Cell = 0;  ///< Shared cell the readers watch.

  State initialState() { return {}; }

  bool step(LiveIn &LI, State &S, core::SpecSpace &Mem) {
    if (LI >= Trip)
      return false;
    if (LI == WritePos)
      Mem.write(&Cell, Epoch);
    if ((LI % ReaderStride) == ReaderOffset)
      S.Sum += static_cast<uint64_t>(Mem.read(&Cell)) * 31u;
    S.Sum += static_cast<uint64_t>(LI) * 2654435761u;
    ++LI;
    return true;
  }

  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

KernelResult runRefreshKernel(SpiceRuntime &RT, ChunkPolicy CP, int Inv,
                              int64_t Trip) {
  RefreshTraits Traits;
  Traits.Trip = Trip;
  // The writer sits just past the first quarter boundary: deep enough
  // that its chunk is speculative (the write stays buffered) at every k
  // in the sweep. The readers land at quarter strides, offset a few
  // iterations in so they never share a boundary with the writer.
  Traits.WritePos = Trip / 4 + 4;
  Traits.ReaderStride = Trip / 4;
  Traits.ReaderOffset = 8;
  LoopOptions O = speculating();
  O.Chunking = CP;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  bool Correct = true;
  SpiceStats Mid;
  int64_t ShadowCell = 0;
  for (int I = 0; I != Inv; ++I) {
    if (I == 2 * Inv / 3)
      Mid = Loop.lastStats();
    Traits.Epoch = I + 1;
    RefreshTraits::State Got = Loop.invoke(0);
    // Sequential shadow of the same scan. The cell persists across
    // invocations, so a fresh runSequentialReference would see the
    // already-updated value and diverge from a correct parallel run.
    uint64_t Want = 0;
    for (int64_t J = 0; J != Trip; ++J) {
      if (J == Traits.WritePos)
        ShadowCell = Traits.Epoch;
      if ((J % Traits.ReaderStride) == Traits.ReaderOffset)
        Want += static_cast<uint64_t>(ShadowCell) * 31u;
      Want += static_cast<uint64_t>(J) * 2654435761u;
    }
    Correct &= Got.Sum == Want;
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

/// Flat-landscape control: a fixed-trip index loop with a PINNED
/// per-iteration cost hotspot, run under the weighted work metric with
/// memoize-once planning. The once-cut weighted plan prices the skew
/// exactly and its index boundary predictions never go stale, so every
/// k balances equally well and the controller has nothing to gain --
/// the case the deadband must not wander on.
struct PinnedHotspotTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };

  int64_t Trip = 4096;
  int64_t HotLen = 1024;
  uint64_t HotCost = 16;
  uint64_t ColdCost = 1;

  uint64_t cost(int64_t I) const { return I < HotLen ? HotCost : ColdCost; }

  State initialState() { return {}; }

  bool step(LiveIn &LI, State &S, core::SpecSpace &Mem) {
    (void)Mem;
    if (LI >= Trip)
      return false;
    S.Sum += cost(LI) * static_cast<uint64_t>(LI + 1);
    ++LI;
    return true;
  }

  uint64_t weight(const LiveIn &LI) { return cost(LI); }

  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

KernelResult runPinnedHotspotKernel(SpiceRuntime &RT, ChunkPolicy CP,
                                    int Inv, int64_t Trip) {
  PinnedHotspotTraits Traits;
  Traits.Trip = Trip;
  Traits.HotLen = Trip / 4;
  LoopOptions O = speculating();
  O.Chunking = CP;
  O.UseWeightedWork = true;
  O.RememoizeEveryInvocation = false;
  auto Loop = RT.makeLoop(Traits, O);
  bool Correct = true;
  SpiceStats Mid;
  for (int I = 0; I != Inv; ++I) {
    if (I == 2 * Inv / 3)
      Mid = Loop.lastStats();
    PinnedHotspotTraits::State Got = Loop.invoke(0);
    PinnedHotspotTraits::State Want = Loop.runSequentialReference(0);
    Correct &= Got.Sum == Want.Sum;
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

KernelResult runKsKernel(SpiceRuntime &RT, ChunkPolicy CP, int Steps) {
  KsGraph G(512, 6, 7);
  KsTraits Traits;
  Traits.Graph = &G;
  LoopOptions O = speculating();
  O.Chunking = CP;
  auto Loop = RT.makeLoop(Traits, O);
  bool Correct = true;
  SpiceStats Mid;
  int Step = 0;
  while (G.aListHead() && G.bListHead() && Step < Steps) {
    if (Step == 2 * Steps / 3)
      Mid = Loop.lastStats();
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    KsTraits::State Got = Loop.invoke(G.bListHead());
    KsTraits::State Want = Loop.runSequentialReference(G.bListHead());
    Correct &= Got.BestB == Want.BestB && Got.BestGain == Want.BestGain;
    G.applySwap(A->Id, Got.BestB->Id);
    ++Step;
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

/// mcf's refresh_potential over a churning basis tree with potentials
/// left stale (read-validation conflicts at chunk boundaries): like the
/// packet pipeline, every extra boundary is another conflict surface, so
/// coarse chunks win -- but through the conflict-detection path rather
/// than counter collisions.
KernelResult runMcfKernel(SpiceRuntime &RT, ChunkPolicy CP, int Inv,
                          bool Rung = false) {
  BasisTree Tree(2048, 31);
  McfTraits Traits;
  LoopOptions O = speculating();
  O.AlwaysSpeculate = !Rung;
  O.Chunking = CP;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  bool Correct = true;
  SpiceStats Mid;
  for (int I = 0; I != Inv; ++I) {
    if (I == 2 * Inv / 3)
      Mid = Loop.lastStats();
    McfTraits::State Got = Loop.invoke(Tree.traversalStart());
    Correct &= Got.Checksum == Tree.refreshPotentialReference();
    Tree.mutate(/*Arcs=*/8, /*Relocations=*/2, /*PropagateNow=*/false);
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

KernelResult runPacketsKernel(SpiceRuntime &RT, ChunkPolicy CP, int Inv,
                              size_t TraceLen, bool Rung = false) {
  PacketPipeline Live(256, 64, TraceLen, 91);
  PacketPipeline Ref(256, 64, TraceLen, 91);
  LoopOptions O = speculating();
  O.AlwaysSpeculate = !Rung;
  O.Chunking = CP;
  auto Loop = Live.makeLoop(RT, O);
  bool Correct = true;
  SpiceStats Mid;
  for (int I = 0; I != Inv; ++I) {
    if (I == 2 * Inv / 3)
      Mid = Loop.lastStats();
    Live.generateTrace(TraceLen, /*BurstProb=*/0.05, /*BurstLen=*/16);
    Ref.generateTrace(TraceLen, 0.05, 16);
    PacketState Want = Ref.processTraceReference();
    PacketState Got = Loop.invoke(Live.traceBegin());
    Correct &= Got == Want && Live.table().countersEqual(Ref.table());
  }
  KernelResult R = scoreWindow(Loop.stats(), Mid, Correct);
  R.FinalK = Loop.tuning().ChunksPerThread;
  return R;
}

void reportConflictPoint(const char *Name, const ConflictPoint &P) {
  std::printf("%-24s | %10.1f%% | %10lu | %8lu | %9.1f%% | %8s\n", Name,
              100 * P.MisspecRate,
              static_cast<unsigned long>(P.ConflictSquashes),
              static_cast<unsigned long>(P.RecoveryChunks),
              100 * P.RecoveryFraction, P.Correct ? "yes" : "NO");
}

void report(const char *Title, const Outcome &Adaptive,
            const Outcome &Once) {
  std::printf("--- %s ---\n", Title);
  std::printf("%-28s | %12s | %12s\n", "", "re-memoize", "memoize-once");
  std::printf("%-28s | %11.1f%% | %11.1f%%\n",
              "mis-speculated invocations",
              100 * Adaptive.Stats.misspeculationRate(),
              100 * Once.Stats.misspeculationRate());
  std::printf("%-28s | %12lu | %12lu\n", "sequential invocations",
              static_cast<unsigned long>(
                  Adaptive.Stats.SequentialInvocations),
              static_cast<unsigned long>(Once.Stats.SequentialInvocations));
  std::printf("%-28s | %12lu | %12lu\n", "wasted iterations",
              static_cast<unsigned long>(Adaptive.Stats.WastedIterations),
              static_cast<unsigned long>(Once.Stats.WastedIterations));
  std::printf("%-28s | %12.3f | %12.3f\n",
              "load imbalance (max/ideal)",
              Adaptive.Stats.loadImbalance(), Once.Stats.loadImbalance());
  std::printf("%-28s | %12s | %12s\n\n", "all results correct",
              Adaptive.Correct ? "yes" : "NO",
              Once.Correct ? "yes" : "NO");
}

} // namespace

int main() {
  const spice::benchutil::BenchConfig Bench;
  // One shared runtime serves every loop of both ablations.
  SpiceRuntime RT(Bench.runtimeConfig());
  std::printf("=== Ablation: adaptive re-memoization vs memoize-once "
              "===\n\n");
  Outcome KsAdaptive = runKsPass(RT, true), KsOnce = runKsPass(RT, false);
  Outcome OtAdaptive = runOtterChurn(RT, true),
          OtOnce = runOtterChurn(RT, false);
  report("ks FindMaxGp (list shrinks every invocation)", KsAdaptive,
         KsOnce);
  report("otter find_lightest_cl (remove-min + inserts)", OtAdaptive,
         OtOnce);
  std::printf("Re-memoizing every invocation keeps predictions fresh and "
              "chunks balanced as the\niteration space drifts -- the "
              "paper's justification for Algorithm 2.\n\n");

  std::printf("=== Ablation: ChunksPerThread sweep, static cost hotspot "
              "under the unit work\n    metric (%u threads) ===\n\n",
              RT.numThreads());
  const int Invocations = Bench.pick(60, 16);
  const int64_t Trip = Bench.pick<int64_t>(4096, 2048);
  std::printf("%-14s | %12s | %12s | %8s | %8s | %8s\n", "chunks/thread",
              "imbalance", "chunk-imbal", "stolen", "squashed", "correct");
  std::printf("%.*s\n", 76,
              "-----------------------------------------------------------"
              "-----------------");
  std::vector<SweepPoint> Sweep;
  std::vector<double> Imbalances, ChunkImbalances;
  bool AllCorrect = KsAdaptive.Correct && KsOnce.Correct &&
                    OtAdaptive.Correct && OtOnce.Correct;
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    SweepPoint P = runHotspotSweep(RT, K, Invocations, Trip);
    std::printf("%-14u | %12.4f | %12.4f | %8lu | %8lu | %8s\n", K,
                P.Imbalance, P.ChunkImbalance,
                static_cast<unsigned long>(P.Stolen),
                static_cast<unsigned long>(P.Squashed),
                P.Correct ? "yes" : "NO");
    AllCorrect &= P.Correct;
    Sweep.push_back(P);
    Imbalances.push_back(P.Imbalance);
    ChunkImbalances.push_back(P.ChunkImbalance);
  }
  bool Monotone = true;
  for (size_t I = 1; I < Sweep.size(); ++I)
    Monotone &= Sweep[I].Imbalance <= Sweep[I - 1].Imbalance + 1e-9;
  std::printf("\nLoad imbalance monotonically non-increasing in "
              "chunks/thread: %s\n",
              Monotone ? "yes" : "NO");
  std::printf("The unit metric cannot see the hotspot, so the planner "
              "cuts equal-iteration\nchunks of skewed true cost. One "
              "chunk per thread pins the hot chunk to one\ncontext; finer "
              "chunks + stealing spread it -- the scalability argument "
              "for\ndecoupling chunk count from thread count.\n\n");

  std::printf("=== Ablation: conflict structure and recovery policy on "
              "the post-paper\n    workloads ===\n\n");
  std::printf("%-24s | %11s | %10s | %8s | %10s | %8s\n", "workload",
              "misspec%", "conflicts", "recovery", "recov-work", "correct");
  std::printf("%.*s\n", 85,
              "-----------------------------------------------------------"
              "--------------------------");
  const int SsspRounds = Bench.pick(6, 2);
  const size_t SsspVerts = Bench.pick<size_t>(1024, 256);
  ConflictPoint SsspGrid = runSsspConflicts(
      RT, CsrGraph::grid(SsspVerts / 32, 32, 71), SsspRounds);
  ConflictPoint SsspRmat =
      runSsspConflicts(RT, CsrGraph::rmat(SsspVerts, 8, 72), SsspRounds);
  reportConflictPoint("sssp (grid)", SsspGrid);
  reportConflictPoint("sssp (rmat)", SsspRmat);
  const int PktInv = Bench.pick(40, 10);
  const size_t PktLen = Bench.pick<size_t>(1 << 13, 1 << 11);
  std::vector<double> PktConflicts, PktRecoveryFrac;
  bool NewWorkloadsCorrect = SsspGrid.Correct && SsspRmat.Correct;
  for (unsigned K : {1u, 2u, 4u, 8u}) {
    ConflictPoint P = runPacketRecovery(RT, K, PktInv, PktLen);
    char Name[32];
    std::snprintf(Name, sizeof(Name), "packets (k=%u)", K);
    reportConflictPoint(Name, P);
    NewWorkloadsCorrect &= P.Correct;
    PktConflicts.push_back(static_cast<double>(P.ConflictSquashes));
    PktRecoveryFrac.push_back(P.RecoveryFraction);
  }
  AllCorrect &= NewWorkloadsCorrect;
  std::printf("\nGraph shape sets where SSSP conflicts land (R-MAT: "
              "shared hubs in a few wide\nwaves; grid: adjacent "
              "wavefront vertices over many narrow waves). The packet\n"
              "pipeline conflicts at nearly every chunk boundary "
              "(whatever flow is active\nthere straddles it), so "
              "finer chunks mean more -- individually cheaper,\n"
              "concurrently redone -- failures: the recov-work column "
              "(re-executed fraction\nof all iterations) GROWS with "
              "chunks/thread while each failure's serial cost\nshrinks. "
              "Counter-dense loops are the concrete case for the "
              "ROADMAP's adaptive\nChunksPerThread item: this workload "
              "wants coarse chunks, the hotspot sweep\nabove wants fine "
              "ones.\n");

  std::printf("\n=== Ablation: ChunkPolicy::Adaptive vs static k on six "
              "kernels ===\n\n");
  const int AdOtterInv = Bench.pick(150, 60);
  const int AdHotInv = Bench.pick(96, 48);
  const int64_t AdHotTrip = Bench.pick<int64_t>(4096, 2048);
  // The refresh kernel needs the controller to climb to k=4 (baseline,
  // two probes, a revert, plus a settle epoch after each move: ~48
  // invocations) before the scored window opens, so its invocation
  // count stays at the full value even under the tiny budget.
  const int AdRefInv = 96;
  const int64_t AdRefTrip = Bench.pick<int64_t>(4096, 2048);
  const int AdKsSteps = Bench.pick(200, 80);
  // mcf's epoch scores swing between clean and conflicted draws, so the
  // controller needs the full probe-and-return arc (~54 invocations)
  // before the scored window opens; keep the count at every budget.
  const int AdMcfInv = 96;
  // The packet scores need a wide scored window to settle (squash-heavy
  // runs sample imbalance rarely), so the invocation count stays at the
  // full value even under the tiny budget; the trace length shrinks.
  const int AdPktInv = 96;
  const size_t AdPktLen = Bench.pick<size_t>(1 << 12, 1 << 11);
  struct AdaptiveKernel {
    const char *Name;
    std::function<KernelResult(ChunkPolicy)> Run;
  };
  const AdaptiveKernel Kernels[] = {
      {"otter (churn)",
       [&](ChunkPolicy CP) { return runOtterKernel(RT, CP, AdOtterInv); }},
      {"refresh (mid-scan write)",
       [&](ChunkPolicy CP) {
         return runRefreshKernel(RT, CP, AdRefInv, AdRefTrip);
       }},
      {"pinned hotspot",
       [&](ChunkPolicy CP) {
         return runPinnedHotspotKernel(RT, CP, AdHotInv, AdHotTrip);
       }},
      {"ks (shrinking list)",
       [&](ChunkPolicy CP) { return runKsKernel(RT, CP, AdKsSteps); }},
      {"mcf (stale potentials)",
       [&](ChunkPolicy CP) { return runMcfKernel(RT, CP, AdMcfInv); }},
      {"packets (counter-dense)",
       [&](ChunkPolicy CP) {
         return runPacketsKernel(RT, CP, AdPktInv, AdPktLen);
       }},
  };
  const unsigned StaticKs[] = {1u, 2u, 4u, 8u};
  // An adaptive kernel passes when its last-third score reaches the best
  // static rung's within this relative tolerance. The tolerance covers
  // the asymmetry of the comparison, not controller quality: BestStatic
  // is the MAX over four noisy draws (biased up several percent on the
  // squash-heavy kernels) while the adaptive run is a single draw.
  const double Tolerance = 0.15;
  std::printf("%-24s | %8s | %8s | %8s | %8s | %8s | %6s | %4s\n", "kernel",
              "k=1", "k=2", "k=4", "k=8", "adaptive", "ok", "->k");
  std::printf("%.*s\n", 92,
              "-----------------------------------------------------------"
              "---------------------------------");
  double AdaptiveLogSum = 0.0, StaticLogSum[4] = {0, 0, 0, 0};
  double AdaptiveRecoverySum = 0.0;
  size_t KernelCount = 0;
  bool SweepCorrect = true, EveryKernelOk = true;
  for (const AdaptiveKernel &Kernel : Kernels) {
    double StaticScore[4];
    double BestStatic = 0.0;
    for (size_t I = 0; I != 4; ++I) {
      KernelResult S = Kernel.Run(ChunkPolicy::Static(StaticKs[I]));
      SweepCorrect &= S.Correct;
      StaticScore[I] = S.Score;
      BestStatic = std::max(BestStatic, S.Score);
      StaticLogSum[I] += std::log(std::max(S.Score, 1e-9));
    }
    KernelResult A = Kernel.Run(ChunkPolicy::Adaptive(1, 8));
    SweepCorrect &= A.Correct;
    const bool Ok = A.Score >= BestStatic * (1.0 - Tolerance);
    EveryKernelOk &= Ok;
    AdaptiveLogSum += std::log(std::max(A.Score, 1e-9));
    AdaptiveRecoverySum += A.RecoveryFraction;
    ++KernelCount;
    std::printf("%-24s | %8.4f | %8.4f | %8.4f | %8.4f | %8.4f | %6s | %4u\n",
                Kernel.Name, StaticScore[0], StaticScore[1], StaticScore[2],
                StaticScore[3], A.Score, Ok ? "yes" : "NO", A.FinalK);
  }
  const double AdaptiveGeo =
      std::exp(AdaptiveLogSum / static_cast<double>(KernelCount));
  double BestStaticGeo = 0.0;
  unsigned BestStaticK = 1;
  for (size_t I = 0; I != 4; ++I) {
    double Geo = std::exp(StaticLogSum[I] / static_cast<double>(KernelCount));
    if (Geo > BestStaticGeo) {
      BestStaticGeo = Geo;
      BestStaticK = StaticKs[I];
    }
  }
  const double GeoRatio = BestStaticGeo > 0 ? AdaptiveGeo / BestStaticGeo : 0;
  const double AdaptiveRecovery =
      AdaptiveRecoverySum / static_cast<double>(KernelCount);
  const bool GeoBeat = GeoRatio > 1.0;
  std::printf("\nSuite geomean: adaptive %.4f vs best single static "
              "(k=%u) %.4f -- ratio %.3f (%s)\n",
              AdaptiveGeo, BestStaticK, BestStaticGeo, GeoRatio,
              GeoBeat ? "adaptive wins" : "ADAPTIVE LOSES");
  std::printf("Every kernel within %.0f%% of its best static k: %s\n",
              100 * Tolerance, EveryKernelOk ? "yes" : "NO");
  std::printf("Scores are ChunkController::score over the last third of "
              "each run: the six\nkernels disagree about the best static "
              "k (packets and mcf conflict at every\nextra boundary; the "
              "refresh scan wants fine chunks because requeue recovery\n"
              "re-runs one chunk per conflicted reader while k=1 re-runs "
              "the rest of the\ntrip sequentially; the pinned hotspot is "
              "indifferent), so one feedback\ncontroller per loop beats "
              "any one number in LoopOptions.\n");

  // The sequential rung's effect on the two conflict-bound kernels,
  // printed and not gated: every run above kept speculation on.
  std::printf("\nWith the sequential rung on (static k=2, not gated):\n");
  std::printf("%-24s | %8s | %8s\n", "kernel", "score", "seq-frac");
  const KernelResult RungPkt = runPacketsKernel(
      RT, ChunkPolicy::Static(2), AdPktInv, AdPktLen, /*Rung=*/true);
  const KernelResult RungMcf =
      runMcfKernel(RT, ChunkPolicy::Static(2), AdMcfInv, /*Rung=*/true);
  std::printf("%-24s | %8.4f | %8.4f\n", "packets (counter-dense)",
              RungPkt.Score, RungPkt.SequentialFraction);
  std::printf("%-24s | %8.4f | %8.4f\n", "mcf (stale potentials)",
              RungMcf.Score, RungMcf.SequentialFraction);
  SweepCorrect &= RungPkt.Correct && RungMcf.Correct;
  AllCorrect &= SweepCorrect;

  spice::benchutil::BenchJson Json("ablation_loadbalance");
  Json.scalar("threads", static_cast<uint64_t>(RT.numThreads()));
  Json.scalar("invocations", static_cast<uint64_t>(Invocations));
  Json.series("chunks_per_thread", {1, 2, 4, 8});
  Json.series("load_imbalance", Imbalances);
  Json.series("chunk_imbalance", ChunkImbalances);
  // Scalar per-k spellings of the imbalance sweep: the CI regression
  // gate (scripts/compare_bench.py) only reads scalar keys, and these
  // are deterministic (static workload, geometry re-priced from the
  // runtime's own chunk boundaries), so a >10% regression fails the job.
  for (const SweepPoint &P : Sweep) {
    char Key[32];
    std::snprintf(Key, sizeof(Key), "load_imbalance_k%u",
                  P.ChunksPerThread);
    Json.scalar(Key, P.Imbalance);
  }
  Json.scalar("monotone_non_increasing",
              static_cast<uint64_t>(Monotone ? 1 : 0));
  Json.scalar("rememoize_imbalance_ks", KsAdaptive.Stats.loadImbalance());
  Json.scalar("memoize_once_imbalance_ks", KsOnce.Stats.loadImbalance());
  Json.scalar("sssp_misspec_grid", SsspGrid.MisspecRate);
  Json.scalar("sssp_misspec_rmat", SsspRmat.MisspecRate);
  Json.scalar("sssp_conflicts_grid", SsspGrid.ConflictSquashes);
  Json.scalar("sssp_conflicts_rmat", SsspRmat.ConflictSquashes);
  Json.series("packets_chunks_per_thread", {1, 2, 4, 8});
  Json.series("packets_conflicts", PktConflicts);
  Json.series("packets_recovery_fraction", PktRecoveryFrac);
  Json.scalar("sssp_recovery_fraction_grid", SsspGrid.RecoveryFraction);
  Json.scalar("sssp_recovery_fraction_rmat", SsspRmat.RecoveryFraction);
  Json.scalar("new_workloads_correct",
              static_cast<uint64_t>(NewWorkloadsCorrect ? 1 : 0));
  // Adaptive-chunking gate metrics (scripts/compare_bench.py): the suite
  // geomean ratio must stay above 1 (higher is better) and the adaptive
  // runs' re-executed-work share must not creep up (lower is better).
  Json.scalar("adaptive_vs_best_static_geomean", GeoRatio);
  Json.scalar("adaptive_recovery_fraction", AdaptiveRecovery);
  Json.scalar("adaptive_every_kernel_ok",
              static_cast<uint64_t>(EveryKernelOk ? 1 : 0));
  Json.write();

  if (!AllCorrect || !Monotone || !EveryKernelOk || !GeoBeat)
    return 1;
  return 0;
}
