//===- bench/serve.cpp - Spice-as-a-service sustained serving bench -------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving-layer bench: one SpiceRuntime serving a stream of requests
// from N client threads, the shape docs/serving.md tunes. Three parts:
//
//  1. Sustained mixed load. Even clients serve packet-pipeline requests
//     (one freshly generated trace per request), odd clients serve SSSP
//     requests (one full delta-stepping run per request), all through
//     one shared runtime under LanePolicy::FairShare. Warmup rounds are
//     oracle-checked against the sequential twins; the measured phase
//     merges every client's per-request latency into
//     serve_throughput_rps and serve_p50/p99/p999_us.
//
//  2. Batch amortization under contention. A sjeng evaluation client
//     (read-only board: perfectly repeatable invocations) measures 16
//     solo submit().get() round trips against one submitBatch(16) --
//     same loop work, 1/16th of the admission traffic -- while a second
//     client hammers the scheduler.
//
//  3. Overload shedding. Clients deliberately overrun a capped runtime
//     under OverloadPolicy::Reject (then DeadlineDrop): every shed
//     request must surface as an OverloadError and be counted by
//     SchedulerStats while the queue stays at its cap.
//
// Writes BENCH_serve.json (serve_throughput_rps is gated higher-is-
// better by scripts/compare_bench.py); exits non-zero on any oracle
// mismatch or unaccounted shedding.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/SpiceFuture.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "topology/Placement.h"
#include "topology/Topology.h"
#include "workloads/Graph.h"
#include "workloads/Packets.h"
#include "workloads/Sjeng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;
using Clock = std::chrono::steady_clock;

namespace {

double microsSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0)
      .count();
}

/// Tiny fixed-trip loop for the overload hammers: short enough that the
/// admission queue, not the loop work, is the bottleneck.
struct ServeCountTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };
  int64_t Trip = 256;

  State initialState() { return {}; }
  bool step(LiveIn &I, State &S, SpecSpace &) {
    if (I >= Trip)
      return false;
    S.Sum += static_cast<uint64_t>(I);
    ++I;
    return true;
  }
  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

/// Merged latency tail: \p Sorted ascending, \p PerMille in [0, 1000].
double percentileUs(const std::vector<double> &Sorted, size_t PerMille) {
  if (Sorted.empty())
    return 0.0;
  size_t I = std::min(Sorted.size() - 1, Sorted.size() * PerMille / 1000);
  return Sorted[I];
}

struct ServeResult {
  std::vector<double> LatenciesUs; ///< Merged, measured phase only.
  double ElapsedSeconds = 0;
  uint64_t Requests = 0;
  uint64_t LocalSteals = 0;  ///< Summed over every client loop.
  uint64_t RemoteSteals = 0; ///< Nonzero only on a multi-node topology.
  bool OracleOk = true;

  /// Fraction of worker steals that stayed on the victim's node (1.0
  /// when the run never stole).
  double stealLocalFraction() const {
    uint64_t Total = LocalSteals + RemoteSteals;
    return Total ? static_cast<double>(LocalSteals) /
                       static_cast<double>(Total)
                 : 1.0;
  }
};

/// Part 1: the sustained mixed-load phase. Every client runs warmup
/// rounds (oracle-checked), parks at a barrier, then serves its measured
/// requests; the wall clock spans only the measured phase. Run under
/// FairShare (no tenant monopolizes the lanes), on the machine's
/// topology and on a fake 2-node one.
ServeResult runSustainedLoad(const benchutil::BenchConfig &Bench,
                             bool FakeTopology = false) {
  const unsigned Clients = Bench.pick(6u, 4u);
  const size_t TraceBase = Bench.pick<size_t>(16000, 3000);
  const int PacketWarmup = Bench.pick(4, 2);
  const int PacketRequests = Bench.pick(160, 24);
  const size_t SsspVertices = Bench.pick<size_t>(1 << 13, 1 << 10);
  const int SsspWarmup = 2;
  const int SsspRequests = Bench.pick(30, 6);

  RuntimeConfig RC = Bench.runtimeConfig();
  RC.Policy = LanePolicy::FairShare;
  if (FakeTopology) {
    // Deterministic 2-node override sized to the worker count: the
    // serving path with node-packed leases, node-local buffer shards,
    // and locality-ordered steals (docs/topology.md).
    const unsigned Workers = RC.NumThreads > 0 ? RC.NumThreads - 1 : 0;
    const unsigned Half = (Workers + 1) / 2;
    RC.Topology = topology::PlacementConfig::overrideWith(
        topology::Topology::fromNodeSizes({Half, Half}));
  }
  SpiceRuntime RT(RC);

  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<bool> OracleOk{true};
  std::atomic<uint64_t> LocalSteals{0}, RemoteSteals{0};
  std::vector<std::vector<double>> PerClient(Clients);
  std::mutex PrintM;

  auto AwaitStart = [&] {
    Ready.fetch_add(1);
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
  };

  auto PacketClient = [&](unsigned C) {
    PacketPipeline Live(/*NumFlows=*/4096, /*NumBuckets=*/1024,
                        /*MaxTrace=*/TraceBase + TraceBase / 4,
                        /*Seed=*/100 + C);
    PacketPipeline Twin(4096, 1024, TraceBase + TraceBase / 4, 100 + C);
    PacketPipeline::Loop Loop = Live.makeLoop(RT);
    auto TraceLen = [&](int Req) {
      return TraceBase + static_cast<size_t>(Req) * 97 % (TraceBase / 4);
    };
    for (int W = 0; W != PacketWarmup; ++W) {
      Live.generateTrace(TraceLen(W));
      Twin.generateTrace(TraceLen(W));
      PacketState Got = Loop.submit(Live.traceBegin()).get();
      PacketState Want = Twin.processTraceReference();
      if (!(Got == Want) || !Live.table().countersEqual(Twin.table())) {
        std::lock_guard<std::mutex> Lock(PrintM);
        std::printf("ORACLE MISMATCH: packet client %u, warmup %d\n", C,
                    W);
        OracleOk.store(false);
        return;
      }
    }
    AwaitStart();
    for (int R = 0; R != PacketRequests; ++R) {
      Live.generateTrace(TraceLen(PacketWarmup + R));
      Clock::time_point T0 = Clock::now();
      PacketState S = Loop.submit(Live.traceBegin()).get();
      PerClient[C].push_back(microsSince(T0));
      if (S.Packets < 0) // Defeat dead-code elimination; never true.
        OracleOk.store(false);
    }
    LocalSteals.fetch_add(Loop.stats().LocalSteals);
    RemoteSteals.fetch_add(Loop.stats().RemoteSteals);
  };

  auto SsspClient = [&](unsigned C) {
    SsspWorkload Work(CsrGraph::rmat(SsspVertices, /*EdgesPerVertex=*/8,
                                     /*Seed=*/200 + C),
                      /*Source=*/0);
    SsspWorkload::Loop Loop = Work.makeLoop(RT);
    std::vector<int64_t> Want = SsspWorkload::ssspReference(Work.graph(), 0);
    for (int W = 0; W != SsspWarmup; ++W) {
      Work.run(Loop);
      if (Work.distances() != Want) {
        std::lock_guard<std::mutex> Lock(PrintM);
        std::printf("ORACLE MISMATCH: sssp client %u, warmup %d\n", C, W);
        OracleOk.store(false);
        return;
      }
      Work.reset(0);
    }
    AwaitStart();
    for (int R = 0; R != SsspRequests; ++R) {
      Clock::time_point T0 = Clock::now();
      Work.run(Loop);
      PerClient[C].push_back(microsSince(T0));
      Work.reset(0);
    }
    LocalSteals.fetch_add(Loop.stats().LocalSteals);
    RemoteSteals.fetch_add(Loop.stats().RemoteSteals);
  };

  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      if (C % 2 == 0)
        PacketClient(C);
      else
        SsspClient(C);
    });
  while (Ready.load(std::memory_order_acquire) != Clients &&
         OracleOk.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Clock::time_point T0 = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  ServeResult R;
  R.ElapsedSeconds =
      std::chrono::duration<double>(Clock::now() - T0).count();
  R.OracleOk = OracleOk.load();
  R.LocalSteals = LocalSteals.load();
  R.RemoteSteals = RemoteSteals.load();
  for (std::vector<double> &L : PerClient) {
    R.Requests += L.size();
    R.LatenciesUs.insert(R.LatenciesUs.end(), L.begin(), L.end());
  }
  std::sort(R.LatenciesUs.begin(), R.LatenciesUs.end());
  return R;
}

/// Part 2: median per-invocation nanoseconds of \p Reps rounds of either
/// 16 solo round trips or one submitBatch(16), against a contending
/// client on the same runtime.
uint64_t medianSjengPerInvocationNanos(const benchutil::BenchConfig &Bench,
                                       int Reps, bool Batched) {
  constexpr size_t BatchN = 16;
  SpiceRuntime RT(Bench.runtimeConfig());
  SjengBoard Board(Bench.pick<size_t>(512, 128), /*Seed=*/5);
  SjengBoard BgBoard(Bench.pick<size_t>(512, 128), /*Seed=*/6);
  SjengTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(Board.start()); // Warm; the board is read-only, so every
  BgLoop.invoke(BgBoard.start()); // later invocation repeats exactly.

  std::atomic<bool> Stop{false};
  std::thread Bg([&] {
    while (!Stop.load(std::memory_order_relaxed))
      BgLoop.submit(BgBoard.start()).get();
  });
  std::vector<SjengLiveIn> Starts(BatchN, Board.start());
  std::vector<uint64_t> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    if (Batched) {
      Loop.submitBatch(Starts).take();
    } else {
      for (size_t K = 0; K != BatchN; ++K)
        Loop.submit(Board.start()).get();
    }
    Nanos[static_cast<size_t>(I)] =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - T0)
                .count()) /
        BatchN;
  }
  Stop.store(true);
  Bg.join();
  std::nth_element(Nanos.begin(), Nanos.begin() + Reps / 2, Nanos.end());
  return Nanos[static_cast<size_t>(Reps / 2)];
}

struct OverloadResult {
  uint64_t Shed = 0;      ///< OverloadErrors the clients caught.
  uint64_t Served = 0;    ///< Requests that returned a result.
  SchedulerStats Sched{}; ///< Runtime counters after the run.
  bool Accounted = true;  ///< Client-side sheds == scheduler counters.
};

/// Part 3: four clients deliberately overrunning a capped runtime (one
/// is granted, two fill the queue to its cap, the fourth overruns).
/// \p DeadlineMicros 0 runs OverloadPolicy::Reject; otherwise
/// DeadlineDrop with that per-submission deadline.
OverloadResult runOverload(const benchutil::BenchConfig &Bench,
                           uint64_t DeadlineMicros) {
  const unsigned Clients = 4;
  const int Requests = Bench.pick(1200, 200);
  RuntimeConfig RC = Bench.runtimeConfig();
  RC.MaxQueuedInvocations = 2;
  RC.Overload = DeadlineMicros ? OverloadPolicy::DeadlineDrop
                               : OverloadPolicy::Reject;
  OverloadResult Out;
  {
    SpiceRuntime RT(RC);
    std::vector<ServeCountTraits> Traits(Clients);
    std::atomic<uint64_t> Shed{0}, Served{0};
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        LoopOptions Opts;
        Opts.SubmitDeadlineMicros = DeadlineMicros;
        auto Loop = RT.makeLoop(Traits[C], Opts);
        Loop.invoke(0); // Warm: submissions request lanes from here on.
        for (int R = 0; R != Requests; ++R) {
          try {
            Loop.submit(0).get();
            Served.fetch_add(1, std::memory_order_relaxed);
          } catch (const OverloadError &) {
            Shed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();
    Out.Shed = Shed.load();
    Out.Served = Served.load();
    Out.Sched = RT.schedulerStats();
  }
  Out.Accounted = Out.Shed == Out.Sched.RejectedSubmissions +
                                  Out.Sched.DroppedDeadline &&
                  Out.Sched.HighWaterQueueDepth <=
                      RC.MaxQueuedInvocations;
  return Out;
}

} // namespace

int main() {
  const benchutil::BenchConfig Bench;
  std::printf("spice serving bench (budget=%s, threads=%u)\n\n",
              Bench.budgetName(), Bench.threads());

  // Part 1: sustained mixed load, plus a rerun on a fake 2-node
  // topology (docs/topology.md).
  ServeResult Serve = runSustainedLoad(Bench);
  ServeResult Topo = runSustainedLoad(Bench, /*FakeTopology=*/true);
  if (!Serve.OracleOk || !Topo.OracleOk) {
    std::printf("FAILED: serving results diverged from the oracles\n");
    return 1;
  }
  double Rps = Serve.Requests / Serve.ElapsedSeconds;
  double P50 = percentileUs(Serve.LatenciesUs, 500);
  double P99 = percentileUs(Serve.LatenciesUs, 990);
  double P999 = percentileUs(Serve.LatenciesUs, 999);
  std::printf("sustained load:  %lu requests in %.2fs -> %.0f req/s "
              "(FairShare)\n",
              (unsigned long)Serve.Requests, Serve.ElapsedSeconds, Rps);
  std::printf("latency:         p50 %.0fus  p99 %.0fus  p99.9 %.0fus\n",
              P50, P99, P999);
  double TopoRps = Topo.Requests / Topo.ElapsedSeconds;
  std::printf("2-node topology: %lu requests in %.2fs -> %.0f req/s, "
              "steal locality %.3f (%lu local / %lu remote)\n\n",
              (unsigned long)Topo.Requests, Topo.ElapsedSeconds, TopoRps,
              Topo.stealLocalFraction(),
              (unsigned long)Topo.LocalSteals,
              (unsigned long)Topo.RemoteSteals);

  // Part 2: batch amortization under contention.
  const int BatchReps = Bench.pick(100, 16);
  uint64_t SoloNs =
      medianSjengPerInvocationNanos(Bench, BatchReps, /*Batched=*/false);
  uint64_t BatchNs =
      medianSjengPerInvocationNanos(Bench, BatchReps, /*Batched=*/true);
  std::printf("contended sjeng: solo submit %lu ns/invocation, "
              "submitBatch(16) %lu ns/invocation (%.2fx)\n\n",
              (unsigned long)SoloNs, (unsigned long)BatchNs,
              BatchNs ? (double)SoloNs / (double)BatchNs : 0.0);

  // Part 3: overload shedding.
  OverloadResult Reject = runOverload(Bench, /*DeadlineMicros=*/0);
  OverloadResult Drop = runOverload(Bench, /*DeadlineMicros=*/50);
  std::printf("overload/reject: %lu served, %lu shed (scheduler counted "
              "%lu rejected; high-water depth %lu <= cap 2)\n",
              (unsigned long)Reject.Served, (unsigned long)Reject.Shed,
              (unsigned long)Reject.Sched.RejectedSubmissions,
              (unsigned long)Reject.Sched.HighWaterQueueDepth);
  std::printf("overload/drop:   %lu served, %lu shed (scheduler counted "
              "%lu rejected + %lu past-deadline)\n",
              (unsigned long)Drop.Served, (unsigned long)Drop.Shed,
              (unsigned long)Drop.Sched.RejectedSubmissions,
              (unsigned long)Drop.Sched.DroppedDeadline);
  if (!Reject.Accounted || !Drop.Accounted) {
    std::printf("FAILED: client-side sheds and scheduler counters "
                "disagree, or the queue overran its cap\n");
    return 1;
  }

  benchutil::BenchJson Json("serve");
  Json.scalar("budget", std::string(Bench.budgetName()));
  Json.scalar("serve_requests", Serve.Requests);
  Json.scalar("serve_throughput_rps", Rps);
  Json.scalar("serve_p50_us", P50);
  Json.scalar("serve_p99_us", P99);
  Json.scalar("serve_p999_us", P999);
  Json.scalar("serve_topo_throughput_rps", TopoRps);
  Json.scalar("serve_steal_local_fraction", Topo.stealLocalFraction());
  Json.scalar("serve_topo_local_steals", Topo.LocalSteals);
  Json.scalar("serve_topo_remote_steals", Topo.RemoteSteals);
  Json.scalar("serve_solo_submit_ns", SoloNs);
  Json.scalar("serve_batch16_submit_per_invocation_ns", BatchNs);
  Json.scalar("serve_rejected_submissions",
              Reject.Sched.RejectedSubmissions);
  Json.scalar("serve_dropped_deadline", Drop.Sched.DroppedDeadline);
  Json.write();
  return 0;
}
