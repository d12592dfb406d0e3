//===- bench/fig7_speedup.cpp - Reproduce paper Figure 7 ------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Part 1 -- Figure 7: loop speedup of Spice over single-threaded execution
// for ks, otter, 181.mcf and 458.sjeng at 2 and 4 threads, plus the
// geometric mean. Methodology mirrors the paper: both versions execute on
// the multicore timing simulator (Table 1 configuration); speedup is total
// sequential cycles over total parallel cycles across all invocations.
//
// Part 2 -- beyond the paper: the native runtime executes the four paper
// kernels plus the two post-paper workload families (graph-analytics
// SSSP and the packet-processing flow pipeline, docs/workloads.md) with
// chunk count decoupled from thread count, sweeping ChunksPerThread in
// {1, 2, 4, 8} at 4 threads. ChunksPerThread=1 is the paper
// configuration; larger values oversubscribe the worker deques and
// route mispredictions through stealable recovery chunks. Wall-clock
// speedup against the in-process sequential reference is reported per
// point, with runtime counters (steals, recovery chunks, load imbalance).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "jit/JitLoop.h"
#include "support/MathUtil.h"
#include "topology/Placement.h"
#include "topology/Topology.h"
#include "vm/Interpreter.h"
#include "workloads/Graph.h"
#include "workloads/IRWorkloads.h"
#include "workloads/Ks.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"
#include "workloads/SimHarness.h"
#include "workloads/Sjeng.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

struct BenchRow {
  const char *Name;
  std::function<std::unique_ptr<IRWorkload>()> Make;
  unsigned Invocations;
  int64_t TripEstimate;
  double Paper2T; ///< Paper Figure 7 bar heights (read off the chart).
  double Paper4T;
};

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One native sweep cell: wall-clock speedup plus runtime counters.
struct NativeCell {
  double Speedup = 0.0;
  double Imbalance = 0.0;
  uint64_t Stolen = 0;
  uint64_t RecoveryChunks = 0;
  double MisspecRate = 0.0;
  uint64_t QueuedMicros = 0;
  uint64_t GrantedLanes = 0;
  uint64_t LocalSteals = 0;
  uint64_t RemoteSteals = 0;
  bool Correct = true;
};

LoopOptions nativeOptions(unsigned ChunksPerThread) {
  LoopOptions O;
  O.ChunksPerThread = ChunksPerThread;
  return O;
}

NativeCell finishCell(const SpiceStats &S, double SeqSeconds,
                      double SpiceSeconds) {
  NativeCell Cell;
  Cell.Speedup = SpiceSeconds > 0 ? SeqSeconds / SpiceSeconds : 0.0;
  Cell.Imbalance = S.loadImbalance();
  Cell.Stolen = S.StolenChunks;
  Cell.RecoveryChunks = S.RecoveryChunks;
  Cell.MisspecRate = S.misspeculationRate();
  Cell.QueuedMicros = S.QueuedMicros;
  Cell.GrantedLanes = S.GrantedLanes;
  Cell.LocalSteals = S.LocalSteals;
  Cell.RemoteSteals = S.RemoteSteals;
  return Cell;
}

NativeCell runOtterNative(SpiceRuntime &RT, const LoopOptions &Base,
                          int Invocations, size_t ListSize) {
  ClauseList List(ListSize, 7001);
  OtterTraits Traits;
  auto Loop = RT.makeLoop(Traits, Base);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  for (int I = 0; I != Invocations && List.head(); ++I) {
    Clock::time_point T0 = Clock::now();
    Clause *Expected = List.findLightestReference();
    SeqSec += secondsSince(T0);
    T0 = Clock::now();
    OtterTraits::State Got = Loop.invoke(List.head());
    SpiceSec += secondsSince(T0);
    Cell.Correct &= Got.MinClause == Expected;
    List.mutate(Got.MinClause, 2);
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

NativeCell runMcfNative(SpiceRuntime &RT, const LoopOptions &Base,
                        int Invocations, size_t TreeSize) {
  BasisTree TreeSpice(TreeSize, 7002);
  BasisTree TreeRef(TreeSize, 7002);
  McfTraits Traits;
  LoopOptions O = Base;
  O.EnableConflictDetection = true;
  auto Loop = RT.makeLoop(Traits, O);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  for (int I = 0; I != Invocations; ++I) {
    Clock::time_point T0 = Clock::now();
    int64_t Want = TreeRef.refreshPotentialReference();
    SeqSec += secondsSince(T0);
    T0 = Clock::now();
    McfTraits::State Got = Loop.invoke(TreeSpice.traversalStart());
    SpiceSec += secondsSince(T0);
    Cell.Correct &= Got.Checksum == Want;
    TreeSpice.mutate(4, 1);
    TreeRef.mutate(4, 1);
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

NativeCell runKsNative(SpiceRuntime &RT, const LoopOptions &Base, int MaxSteps,
                       size_t Vertices) {
  KsGraph G(Vertices, 8, 7003);
  KsTraits Traits;
  Traits.Graph = &G;
  auto Loop = RT.makeLoop(Traits, Base);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  int Steps = 0;
  while (G.aListHead() && G.bListHead() && Steps < MaxSteps) {
    KsVertex *A = G.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = G.dValue(A->Id);
    Clock::time_point T0 = Clock::now();
    KsTraits::State Want = Loop.runSequentialReference(G.bListHead());
    SeqSec += secondsSince(T0);
    T0 = Clock::now();
    KsTraits::State Got = Loop.invoke(G.bListHead());
    SpiceSec += secondsSince(T0);
    Cell.Correct &= Got.BestB == Want.BestB && Got.BestGain == Want.BestGain;
    G.applySwap(A->Id, Got.BestB->Id);
    ++Steps;
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

/// Graph analytics (beyond the paper's four kernels): full SSSP runs
/// from rotating sources; every frontier wave is one invocation.
NativeCell runSsspNative(SpiceRuntime &RT, const LoopOptions &Base, int Rounds,
                         size_t Vertices) {
  SsspWorkload Work(CsrGraph::rmat(Vertices, 8, 7005), /*Source=*/0);
  auto Loop = Work.makeLoop(RT, Base);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  for (int R = 0; R != Rounds; ++R) {
    int64_t Source = (static_cast<int64_t>(R) * 17) %
                     static_cast<int64_t>(Work.graph().numVertices());
    Clock::time_point T0 = Clock::now();
    std::vector<int64_t> Want =
        SsspWorkload::ssspReference(Work.graph(), Source);
    SeqSec += secondsSince(T0);
    // reset() is timed: it is the speculative side's counterpart of the
    // reference's distance-array initialization.
    T0 = Clock::now();
    Work.reset(Source);
    Work.run(Loop);
    SpiceSec += secondsSince(T0);
    Cell.Correct &= Work.distances() == Want;
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

/// Packet processing (beyond the paper's four kernels): bursty traces
/// against a hash-bucketed flow table, length varying per invocation.
NativeCell runPacketsNative(SpiceRuntime &RT, const LoopOptions &Base,
                            int Invocations, size_t TraceLen) {
  PacketPipeline Live(512, 128, TraceLen, 7006);
  PacketPipeline Ref(512, 128, TraceLen, 7006);
  auto Loop = Live.makeLoop(RT, Base);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  for (int I = 0; I != Invocations; ++I) {
    // Vary the trace length so trace-cursor predictions go stale at the
    // tail, like otter's shrinking list.
    size_t Len = TraceLen - (static_cast<size_t>(I) % 4) * (TraceLen / 8);
    Live.generateTrace(Len, /*BurstProb=*/0.05, /*BurstLen=*/8);
    Ref.generateTrace(Len, 0.05, 8);
    Clock::time_point T0 = Clock::now();
    PacketState Want = Ref.processTraceReference();
    SeqSec += secondsSince(T0);
    T0 = Clock::now();
    PacketState Got = Loop.invoke(Live.traceBegin());
    SpiceSec += secondsSince(T0);
    Cell.Correct &=
        Got == Want && Live.table().countersEqual(Ref.table());
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

NativeCell runSjengNative(SpiceRuntime &RT, const LoopOptions &Base,
                          int Invocations, size_t Pieces) {
  SjengBoard Board(Pieces, 7004);
  SjengTraits Traits;
  LoopOptions O = Base;
  O.UseWeightedWork = true;
  auto Loop = RT.makeLoop(Traits, O);
  NativeCell Cell;
  double SpiceSec = 0, SeqSec = 0;
  for (int I = 0; I != Invocations; ++I) {
    Clock::time_point T0 = Clock::now();
    SjengScore Want = Board.evalReference();
    SeqSec += secondsSince(T0);
    T0 = Clock::now();
    SjengScore Got = Loop.invoke(Board.start());
    SpiceSec += secondsSince(T0);
    Cell.Correct &= Got == Want;
    Board.mutate(0.3, 1);
  }
  NativeCell Counted = finishCell(Loop.stats(), SeqSec, SpiceSec);
  Counted.Correct = Cell.Correct;
  return Counted;
}

/// The JIT tier as a native kernel (docs/jit.md): the otter IR loop --
/// the same vm-executable IR the simulated Figure 7 interprets -- lifted
/// through the staged JIT and run inside the Spice runtime with
/// speculation, conflict detection and recovery intact. Three identically
/// seeded twins: an interpreter oracle (correctness and the
/// interpreter-throughput baseline), a JIT-parallel runner, and a
/// JIT-sequential runner (the speedup denominator, so the reported
/// speedup isolates parallelism from compilation).
struct JitNativeResult {
  NativeCell Cell;
  double InterpSec = 0;
  double JitSeqSec = 0;
};

JitNativeResult runJitLoopNative(SpiceRuntime &RT, const LoopOptions &Base,
                                 int Invocations, size_t ListSize) {
  struct Twin {
    ir::Module M;
    OtterIR W;
    ir::Function *F;
    vm::Memory Mem{1 << 20};
    explicit Twin(size_t N) : W(N, 7007) {
      W.InsertsPerInvocation = 2;
      W.RandomRemovalsPerInvocation = 1; // Force some mispredictions.
      F = W.build(M);
      Mem.layoutGlobals(M);
      W.initData(Mem);
    }
  };
  Twin Interp(ListSize), Par(ListSize), Seq(ListSize);

  jit::CodeCache Cache;
  jit::JitTierOptions Tier;
  Tier.ForceJit = true;
  jit::JitLoopRunner ParRun(RT, *Par.F, Par.Mem, Cache, Base, Tier);
  jit::JitLoopRunner SeqRun(RT, *Seq.F, Seq.Mem, Cache, Base, Tier);

  JitNativeResult R;
  bool Correct = ParRun.supported() && SeqRun.supported();
  double JitParSec = 0;
  for (int I = 0; I != Invocations; ++I) {
    Clock::time_point T0 = Clock::now();
    int64_t Want =
        vm::runFunction(*Interp.F, Interp.Mem,
                        Interp.W.invocationArgs(Interp.Mem))
            .ReturnValue;
    R.InterpSec += secondsSince(T0);
    T0 = Clock::now();
    int64_t GotSeq = SeqRun.invokeSequential(Seq.W.invocationArgs(Seq.Mem));
    R.JitSeqSec += secondsSince(T0);
    T0 = Clock::now();
    int64_t GotPar = ParRun.invoke(Par.W.invocationArgs(Par.Mem));
    JitParSec += secondsSince(T0);
    Correct &= GotSeq == Want && GotPar == Want &&
               Par.W.resultDigest(Par.Mem) ==
                   Interp.W.resultDigest(Interp.Mem);
    Interp.W.mutate(Interp.Mem);
    Par.W.mutate(Par.Mem);
    Seq.W.mutate(Seq.Mem);
  }
  Correct &= ParRun.jitted() && SeqRun.jitted();
  R.Cell = finishCell(ParRun.loopStats(), R.JitSeqSec, JitParSec);
  R.Cell.Correct = Correct;
  return R;
}

} // namespace

int main() {
  const benchutil::BenchConfig Bench;
  const bool Tiny = Bench.tiny();
  benchutil::BenchJson Json("fig7_speedup");

  //===------------------------------------------------------------------===//
  // Part 1: simulated Figure 7.
  //===------------------------------------------------------------------===//
  sim::MachineConfig Config; // Table 1 defaults.
  std::printf("=== Figure 7: Spice loop speedup (simulated, Table 1 "
              "machine) ===\n");
  std::printf("Machine: %u-core CMP, L1 %uc, L2 %uc, L3 %uc, mem %uc, "
              "channel %uc, resteer %uc\n\n",
              4u, Config.L1Latency, Config.L2Latency, Config.L3Latency,
              Config.MemLatency, Config.ChannelLatency,
              Config.ResteerLatency);

  const unsigned SimScale = Tiny ? 4 : 1;
  std::vector<BenchRow> Rows = {
      {"ks",
       [&] { return std::make_unique<KsIR>(2048 / SimScale, 12, 101); },
       /*Invocations=*/24 / SimScale, /*TripEstimate=*/1024, 1.85, 2.57},
      {"otter",
       [&] {
         auto W = std::make_unique<OtterIR>(3000 / SimScale, 102);
         W->InsertsPerInvocation = 2;
         return W;
       },
       /*Invocations=*/24 / SimScale, /*TripEstimate=*/3000, 1.75, 2.30},
      {"181.mcf",
       [&] {
         auto W = std::make_unique<McfIR>(3000 / SimScale, 103);
         W->ArcChanges = 2;
         return W;
       },
       /*Invocations=*/20 / SimScale, /*TripEstimate=*/2999, 1.55, 1.90},
      {"458.sjeng",
       [&] {
         auto W = std::make_unique<SjengIR>(1500 / SimScale, 104);
         W->MutateProb = 0.55;
         return W;
       },
       /*Invocations=*/24 / SimScale, /*TripEstimate=*/1500, 1.24, 1.40},
  };

  std::printf("%-10s | %8s %8s | %8s %8s | %9s %9s\n", "loop",
              "2T meas", "2T paper", "4T meas", "4T paper", "misspec%",
              "conflicts");
  std::printf("%.*s\n", 78,
              "-----------------------------------------------------------"
              "-------------------");

  std::vector<double> Meas2, Meas4, Paper2, Paper4;
  for (const BenchRow &Row : Rows) {
    HarnessResult R2 =
        runTwinExperiment(Row.Make, 2, Row.Invocations, Config,
                          Row.TripEstimate);
    HarnessResult R4 =
        runTwinExperiment(Row.Make, 4, Row.Invocations, Config,
                          Row.TripEstimate);
    if (!R2.AllCorrect || !R4.AllCorrect) {
      std::printf("%-10s | RESULT MISMATCH (%u + %u invocations)\n",
                  Row.Name, R2.Mismatches, R4.Mismatches);
      Json.scalar("sim_mismatch_loop", std::string(Row.Name));
      Json.write(); // Keep the partial artifact for the failing commit.
      return 1;
    }
    double Misspec = 100.0 * R4.MisspeculatedInvocations / R4.Invocations;
    std::printf("%-10s | %8.2f %8.2f | %8.2f %8.2f | %8.1f%% %9lu\n",
                Row.Name, R2.speedup(), Row.Paper2T, R4.speedup(),
                Row.Paper4T, Misspec,
                static_cast<unsigned long>(R4.Conflicts));
    Meas2.push_back(R2.speedup());
    Meas4.push_back(R4.speedup());
    Paper2.push_back(Row.Paper2T);
    Paper4.push_back(Row.Paper4T);
    Json.scalar(std::string("sim_speedup_2t_") + Row.Name, R2.speedup());
    Json.scalar(std::string("sim_speedup_4t_") + Row.Name, R4.speedup());
  }
  std::printf("%.*s\n", 78,
              "-----------------------------------------------------------"
              "-------------------");
  std::printf("%-10s | %8.2f %8.2f | %8.2f %8.2f |\n", "GeoMean",
              geometricMean(Meas2), geometricMean(Paper2),
              geometricMean(Meas4), geometricMean(Paper4));
  Json.scalar("sim_geomean_2t", geometricMean(Meas2));
  Json.scalar("sim_geomean_4t", geometricMean(Meas4));
  std::printf("\nPaper columns are bar heights read off Figure 7 "
              "(4-thread geomean 2.01 = 101%% speedup).\n");
  std::printf("All runs verified against the sequential twin, invocation "
              "by invocation.\n\n");

  //===------------------------------------------------------------------===//
  // Part 2: native runtime, ChunksPerThread sweep. All kernels register
  // their loops on ONE shared SpiceRuntime (one worker pool for the whole
  // sweep -- the post-PR-3 execution model).
  //===------------------------------------------------------------------===//
  SpiceRuntime RT(Bench.runtimeConfig());
  std::printf("=== Native runtime: ChunksPerThread sweep, %u threads, one "
              "shared pool (wall-clock) ===\n\n",
              RT.numThreads());
  std::printf("%-10s |", "loop");
  const unsigned Ks[] = {1, 2, 4, 8};
  for (unsigned K : Ks)
    std::printf("   k=%u", K);
  std::printf("   | steals(k=8) recov(k=8)\n");
  std::printf("%.*s\n", 66,
              "-----------------------------------------------------------"
              "-------");

  struct NativeRow {
    const char *Name;
    std::function<NativeCell(unsigned)> Run;
  };
  const int Inv = Bench.pick(60, 12);
  const size_t Sz = Bench.pick<size_t>(3000, 600);
  std::vector<NativeRow> NativeRows = {
      {"otter",
       [&](unsigned K) {
         return runOtterNative(RT, nativeOptions(K), Inv, Sz);
       }},
      {"181.mcf",
       [&](unsigned K) {
         return runMcfNative(RT, nativeOptions(K), Inv, Sz / 2);
       }},
      {"ks",
       [&](unsigned K) {
         return runKsNative(RT, nativeOptions(K), Inv, Sz / 4);
       }},
      {"458.sjeng",
       [&](unsigned K) {
         return runSjengNative(RT, nativeOptions(K), Inv, Sz / 2);
       }},
      // Beyond the paper: the two post-paper workload families (see
      // docs/workloads.md). sssp counts full SSSP runs, not waves.
      {"sssp",
       [&](unsigned K) {
         return runSsspNative(RT, nativeOptions(K), Bench.pick(8, 3), Sz / 2);
       }},
      {"packets",
       [&](unsigned K) {
         return runPacketsNative(RT, nativeOptions(K), Inv,
                                 Bench.pick<size_t>(1 << 14, 1 << 11));
       }},
  };
  // Beyond the paper: the JIT tier as a seventh native entry. The
  // interpreter-vs-JIT-sequential seconds accumulate across the k sweep
  // into one throughput ratio. Full Sz: the ratio row should measure
  // steady-state loop throughput, not the per-invocation entry/exit
  // slices a short list would amplify.
  double JitInterpSec = 0, JitSeqSec = 0;
  NativeRows.push_back(
      {"jitloop", [&](unsigned K) {
         JitNativeResult R =
             runJitLoopNative(RT, nativeOptions(K), Inv, Sz);
         JitInterpSec += R.InterpSec;
         JitSeqSec += R.JitSeqSec;
         return R.Cell;
       }});

  bool AllCorrect = true;
  for (const NativeRow &Row : NativeRows) {
    std::printf("%-10s |", Row.Name);
    NativeCell Last;
    std::vector<double> Speedups;
    for (unsigned K : Ks) {
      NativeCell Cell = Row.Run(K);
      AllCorrect &= Cell.Correct;
      std::printf("  %5.2f", Cell.Speedup);
      Speedups.push_back(Cell.Speedup);
      Last = Cell;
    }
    std::printf("   | %11lu %10lu\n",
                static_cast<unsigned long>(Last.Stolen),
                static_cast<unsigned long>(Last.RecoveryChunks));
    Json.series(std::string("native_speedup_") + Row.Name, Speedups);
    Json.scalar(std::string("native_stolen_k8_") + Row.Name, Last.Stolen);
    Json.scalar(std::string("native_recovery_k8_") + Row.Name,
                Last.RecoveryChunks);
  }
  const double JitVsInterp =
      JitSeqSec > 0 ? JitInterpSec / JitSeqSec : 0.0;
  std::printf("\njitloop is the otter IR loop compiled by the staged JIT "
              "(docs/jit.md); its\nspeedups are against the JIT-sequential "
              "baseline. JIT-sequential beats the\ninterpreter on the same "
              "IR by %.1fx.\n", JitVsInterp);
  Json.scalar("jit_vs_interp_throughput", JitVsInterp);
  std::printf("\nChunksPerThread=1 is the paper's configuration (one "
              "chunk per thread, serial\nrecovery); larger k oversubscribes "
              "the worker deques and recovers through\nstealable chunks. "
              "Wall-clock numbers depend on the host's core count.\n");

  //===------------------------------------------------------------------===//
  // Part 3: multi-client contention -- the admission scheduler. All six
  // kernels run at once, each driven by its own client thread on one
  // shared runtime, so every invocation (invoke() == submit().get())
  // queues at the Scheduler and the lane policy decides who gets freed
  // lanes. Repeated per LanePolicy; the rows land in
  // BENCH_fig7_speedup.json so the scheduler hot path is tracked per
  // commit.
  //===------------------------------------------------------------------===//
  std::printf("\n=== Native runtime: multi-client contention (6 client "
              "threads x 6 kernels,\n    one shared pool, "
              "ChunksPerThread=2) ===\n\n");
  const int CInv = Bench.pick(24, 6);
  const size_t CSz = Bench.pick<size_t>(1500, 400);
  struct PolicyRun {
    const char *Name;
    LanePolicy Policy;
    /// Run on a fake 2-node topology (PlacementConfig::overrideWith):
    /// node-packed grants and locality-ordered steals, same workloads.
    bool Topo = false;
  };
  const PolicyRun Policies[] = {
      {"firstcome", LanePolicy::FirstCome},
      {"fairshare", LanePolicy::FairShare},
      {"priority", LanePolicy::Priority},
      {"topo", LanePolicy::FairShare, /*Topo=*/true},
  };
  std::printf("%-10s | %8s | %7s | %10s | %8s | %8s | %8s | %8s\n",
              "policy", "seconds", "geomean", "queued-us", "granted",
              "deferred", "capped", "correct");
  std::printf("%.*s\n", 88,
              "-----------------------------------------------------------"
              "-----------------------------");
  bool ContentionCorrect = true;
  std::vector<double> PolicyGeomeans;
  double StealLocalFraction = 1.0;
  for (const PolicyRun &P : Policies) {
    RuntimeConfig RC = Bench.runtimeConfig();
    RC.Policy = P.Policy;
    if (P.Topo) {
      // Fake symmetric 2-node machine sized to the worker count: the
      // deterministic injection path, so this row exercises node-packed
      // leases and locality-ordered stealing on any host.
      const unsigned Workers = RC.NumThreads > 0 ? RC.NumThreads - 1 : 0;
      const unsigned Half = (Workers + 1) / 2;
      RC.Topology = topology::PlacementConfig::overrideWith(
          topology::Topology::fromNodeSizes({Half, Half}));
    }
    SpiceRuntime CRT(RC);
    // Distinct priorities (only the Priority policy reads them): the
    // paper kernels outrank the post-paper workloads.
    auto Opt = [](int Priority) {
      LoopOptions O = nativeOptions(2);
      O.Priority = Priority;
      return O;
    };
    std::vector<NativeCell> Cells(6);
    Clock::time_point T0 = Clock::now();
    std::vector<std::thread> Clients;
    Clients.emplace_back(
        [&] { Cells[0] = runOtterNative(CRT, Opt(5), CInv, CSz); });
    Clients.emplace_back(
        [&] { Cells[1] = runMcfNative(CRT, Opt(4), CInv, CSz / 2); });
    Clients.emplace_back(
        [&] { Cells[2] = runKsNative(CRT, Opt(3), CInv, CSz / 4); });
    Clients.emplace_back(
        [&] { Cells[3] = runSjengNative(CRT, Opt(2), CInv, CSz / 2); });
    Clients.emplace_back([&] {
      Cells[4] = runSsspNative(CRT, Opt(1), Bench.pick(4, 2), CSz / 2);
    });
    Clients.emplace_back([&] {
      Cells[5] = runPacketsNative(CRT, Opt(0), CInv,
                                  Bench.pick<size_t>(1 << 12, 1 << 10));
    });
    for (std::thread &C : Clients)
      C.join();
    double Seconds = secondsSince(T0);
    uint64_t Queued = 0, Granted = 0, Local = 0, Remote = 0;
    bool Correct = true;
    std::vector<double> Speedups;
    for (const NativeCell &Cell : Cells) {
      Queued += Cell.QueuedMicros;
      Granted += Cell.GrantedLanes;
      Local += Cell.LocalSteals;
      Remote += Cell.RemoteSteals;
      Correct &= Cell.Correct;
      Speedups.push_back(Cell.Speedup);
    }
    const double Geomean = geometricMean(Speedups);
    SchedulerStats SS = CRT.schedulerStats();
    std::printf("%-10s | %8.3f | %7.3f | %10lu | %8lu | %8lu | %8lu | "
                "%8s\n",
                P.Name, Seconds, Geomean,
                static_cast<unsigned long>(Queued),
                static_cast<unsigned long>(Granted),
                static_cast<unsigned long>(SS.DeferredGrants),
                static_cast<unsigned long>(SS.CappedGrants),
                Correct ? "yes" : "NO");
    ContentionCorrect &= Correct;
    Json.scalar(std::string("contention_seconds_") + P.Name, Seconds);
    Json.scalar(std::string("contention_geomean_") + P.Name, Geomean);
    Json.scalar(std::string("contention_queued_micros_") + P.Name, Queued);
    Json.scalar(std::string("contention_granted_lanes_") + P.Name,
                Granted);
    Json.scalar(std::string("contention_deferred_grants_") + P.Name,
                SS.DeferredGrants);
    Json.scalar(std::string("contention_capped_grants_") + P.Name,
                SS.CappedGrants);
    if (P.Topo) {
      // Steal locality on the fake 2-node machine: node-packed leases
      // should keep nearly every steal on the victim's node. 1.0 when
      // the run happened not to steal at all.
      StealLocalFraction =
          Local + Remote > 0
              ? static_cast<double>(Local) /
                    static_cast<double>(Local + Remote)
              : 1.0;
      Json.scalar("steal_local_fraction", StealLocalFraction);
      Json.scalar("contention_local_steals", Local);
      Json.scalar("contention_remote_steals", Remote);
    } else {
      PolicyGeomeans.push_back(Geomean);
    }
  }
  // Cross-policy contention geomean (topology-off rows only, so the
  // gate compares like with like across commits).
  const double ContentionGeomean = geometricMean(PolicyGeomeans);
  Json.scalar("contention_geomean", ContentionGeomean);
  Json.scalar("contention_clients", uint64_t{6});
  Json.scalar("contention_all_correct",
              static_cast<uint64_t>(ContentionCorrect ? 1 : 0));
  std::printf("\nEvery client verifies each invocation against its "
              "sequential oracle while the\nother five compete for "
              "lanes: queued-us is time invocations sat in the\n"
              "admission queue, capped grants ran on fewer lanes than "
              "min(requested, pool\nworkers): contention, FairShare "
              "splits, or node trims. The topo row reruns\nfairshare on "
              "a fake 2-node topology (docs/topology.md), node-packed by "
              "the\nscheduler's lease ledger: steal_local_fraction %.3f "
              "of steals stayed on the\nvictim's node.\n",
              StealLocalFraction);

  Json.scalar("budget", std::string(Bench.budgetName()));
  Json.scalar("native_all_correct",
              static_cast<uint64_t>(AllCorrect ? 1 : 0));
  Json.write(); // Before the gate: the artifact matters most on failure.
  if (!AllCorrect || !ContentionCorrect) {
    std::printf("NATIVE RESULT MISMATCH\n");
    return 1;
  }
  if (StealLocalFraction < 0.9) {
    // Locality acceptance gate: on the fake 2-node topology the
    // node-packed leases and victim ordering must keep steals local.
    std::printf("STEAL LOCALITY REGRESSION: local fraction %.3f < 0.9\n",
                StealLocalFraction);
    return 1;
  }
  std::printf("All native runs verified against the sequential reference, "
              "invocation by invocation.\n");
  return 0;
}
