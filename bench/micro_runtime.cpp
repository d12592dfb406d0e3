//===- bench/micro_runtime.cpp - Runtime primitive microbenchmarks --------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro measurements of the native runtime's primitives:
// the per-iteration detection compare at live-in widths 1..8 (the paper's
// sjeng overhead discussion), speculative write-buffer operations, the
// re-memoization planner, worker-pool session round trips, and the
// scheduler hot path (submit()/SpiceFuture round trips, solo and under a
// contending client, plus the submitBatch() amortization of both). The
// submit and batch round trips are additionally hand-timed into
// BENCH_micro_runtime.json so the scheduler hot path is tracked in the
// per-commit perf artifacts (scripts/compare_bench.py reports them),
// alongside the JIT tier's compile costs: jit_cold_compile_ns (first
// CodeCache::getOrCompile of a loop -- lift, passes, lowering) vs
// jit_cache_hit_compile_ns (every warm re-lookup of the same key).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/Planner.h"
#include "core/Scheduler.h"
#include "core/SpecWriteBuffer.h"
#include "core/SpiceLoop.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "jit/CodeCache.h"
#include "transform/CanonicalLoop.h"
#include "workloads/IRWorkloads.h"
#include "workloads/Sjeng.h"

#include <algorithm>
#include <atomic>
#include <benchmark/benchmark.h>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

using namespace spice;
using namespace spice::core;

namespace {

/// Tiny fixed-trip loop: short enough that the submission/lease overhead
/// is a visible share of the round trip.
struct MicroCountTraits {
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

/// Live-in tuple of parameterizable width.
template <unsigned W> struct WideLiveIn {
  int64_t V[W];
  bool operator==(const WideLiveIn &O) const {
    for (unsigned I = 0; I != W; ++I)
      if (V[I] != O.V[I])
        return false;
    return true;
  }
};

template <unsigned W> void BM_DetectionCompare(benchmark::State &State) {
  WideLiveIn<W> A{}, B{};
  for (unsigned I = 0; I != W; ++I)
    A.V[I] = B.V[I] = I * 7;
  B.V[W - 1] ^= 1; // Mismatch on the last word: worst case.
  for (auto _ : State) {
    benchmark::DoNotOptimize(A == B);
    A.V[0] ^= 1; // Defeat hoisting.
  }
}

void BM_SpecBufferWrite(benchmark::State &State) {
  std::vector<int64_t> Cells(1024, 0);
  SpecWriteBuffer Buf;
  size_t I = 0;
  for (auto _ : State) {
    Buf.write(&Cells[I & 1023], static_cast<int64_t>(I));
    if ((++I & 1023) == 0)
      Buf.clear();
  }
}

void BM_SpecBufferReadOwnWrite(benchmark::State &State) {
  int64_t Cell = 0;
  SpecWriteBuffer Buf;
  Buf.write(&Cell, int64_t{42});
  for (auto _ : State)
    benchmark::DoNotOptimize(Buf.read(&Cell));
}

void BM_SpecBufferValidate(benchmark::State &State) {
  std::vector<int64_t> Cells(static_cast<size_t>(State.range(0)), 7);
  SpecWriteBuffer Buf;
  for (int64_t &C : Cells)
    benchmark::DoNotOptimize(Buf.read(&C));
  for (auto _ : State)
    benchmark::DoNotOptimize(Buf.validateReads());
}

void BM_PlannerCompute(benchmark::State &State) {
  std::vector<uint64_t> Work = {1000, 900, 1100, 1000};
  for (auto _ : State) {
    MemoizationPlan Plan = planMemoization(Work, 4);
    benchmark::DoNotOptimize(Plan);
  }
}

void BM_SessionRoundTrip(benchmark::State &State) {
  // Per-invocation cost of the shared-pool path: lease lanes from the
  // scheduler's ledger, launch, wait, release (what every parallel
  // invocation pays underneath).
  WorkerPool Pool(3);
  Scheduler Sched(Pool, RuntimeConfig{});
  std::atomic<uint64_t> Sink{0};
  for (auto _ : State) {
    Scheduler::SessionHandle S = Sched.tryAcquireSessionFor(
        3, /*AllowStealing=*/true, std::this_thread::get_id());
    S->launch([&](unsigned I) { Sink.fetch_add(I); });
    S->wait();
  }
}

void BM_SubmitRoundTrip(benchmark::State &State) {
  // The scheduler hot path, uncontended: submit (admission + immediate
  // grant + chunk launch) and drive the future to completion -- what
  // every invoke() pays on top of the loop work itself.
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits;
  auto Loop = RT.makeLoop(Traits);
  Loop.invoke(0); // Warm: submissions request lanes from here on.
  for (auto _ : State) {
    SpiceFuture<MicroCountTraits::State> F = Loop.submit(0);
    benchmark::DoNotOptimize(F.get().Sum);
  }
}

void BM_SubmitRoundTripContended(benchmark::State &State) {
  // Same round trip with a second client thread hammering its own loop
  // on the same runtime: submissions queue at the scheduler and grants
  // ride the deferred (session-release) path.
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg([&] {
    while (!Stop.load(std::memory_order_relaxed))
      benchmark::DoNotOptimize(BgLoop.submit(0).get().Sum);
  });
  for (auto _ : State) {
    SpiceFuture<MicroCountTraits::State> F = Loop.submit(0);
    benchmark::DoNotOptimize(F.get().Sum);
  }
  Stop.store(true);
  Bg.join();
}

void BM_BatchSubmitRoundTrip(benchmark::State &State) {
  // submitBatch(N).take(): one admission and one lane lease shared by N
  // invocations. Reported per *batch*; divide by the batch size to
  // compare against BM_SubmitRoundTrip.
  const size_t N = static_cast<size_t>(State.range(0));
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits;
  auto Loop = RT.makeLoop(Traits);
  Loop.invoke(0);
  std::vector<int64_t> Starts(N, 0);
  for (auto _ : State) {
    SpiceBatchFuture<MicroCountTraits::State> F = Loop.submitBatch(Starts);
    benchmark::DoNotOptimize(F.take());
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N));
}

void BM_SjengEvalStep(benchmark::State &State) {
  workloads::SjengBoard Board(256, 3);
  workloads::SjengLiveIn LI = Board.start();
  workloads::SjengScore S;
  for (auto _ : State) {
    if (!LI.Cursor)
      LI = Board.start();
    workloads::sjengEvalStep(LI, S);
    benchmark::DoNotOptimize(S);
  }
}

/// Median of \p V (the mean of the middle two for an even count), in
/// the unit of its elements. The hand-timed keys are written as doubles
/// so a sub-nanosecond per-operation cost or shift stays visible.
double median(std::vector<double> &V) {
  const size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  return (V[Mid] + *std::max_element(V.begin(), V.begin() + Mid)) / 2;
}

/// Nanoseconds elapsed since \p T0.
double nanosSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Hand-timed median of the CodeCache paths on the otter IR loop: cold
/// is the full getOrCompile pipeline (frontend -> passes -> backend)
/// into a fresh cache, warm is a repeat getOrCompile hitting the same
/// (function, loop header) key -- the price every re-submitted serving
/// invocation actually pays.
double medianJitCompileNanos(int Reps, bool Warm) {
  using Clock = std::chrono::steady_clock;
  ir::Module M;
  workloads::OtterIR W(/*ListSize=*/64, /*Seed=*/5);
  ir::Function *F = W.build(M);
  auto CL = transform::matchCanonicalLoop(*F);
  assert(CL && "otter loop must match the canonical shape");
  jit::CodeCache WarmCache;
  if (Warm)
    (void)WarmCache.getOrCompile(*CL);
  std::vector<double> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    jit::CodeCache ColdCache;
    jit::CodeCache &Cache = Warm ? WarmCache : ColdCache;
    Clock::time_point T0 = Clock::now();
    auto Unit = Cache.getOrCompile(*CL);
    Nanos[static_cast<size_t>(I)] = nanosSince(T0);
    benchmark::DoNotOptimize(Unit);
  }
  return median(Nanos);
}

/// Times \p Reps repetitions of \p Body (each covering \p OpsPerRep
/// individual operations) and returns the median per-operation cost in
/// nanoseconds. Small enough batches of cheap ops would disappear under
/// clock overhead, hence the batching.
template <typename Fn>
double medianOpNanos(int Reps, uint64_t OpsPerRep, Fn &&Body) {
  std::vector<double> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    const auto T0 = std::chrono::steady_clock::now();
    Body();
    Nanos[static_cast<size_t>(I)] =
        nanosSince(T0) / static_cast<double>(OpsPerRep);
  }
  return median(Nanos);
}

constexpr size_t SpecBenchAddrs = 48;
constexpr int SpecBenchRounds = 64;

/// Per-write cost over a realistic chunk lifetime: 48 distinct
/// addresses inserted fresh each generation, with the (cheap, O(live))
/// clear amortized in -- i.e. what a reused buffer pays per buffered
/// store at steady state.
double specWriteNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 0);
  SpecWriteBuffer Buf;
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R) {
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            Buf.write(&Cells[I], static_cast<int64_t>(I + R));
          Buf.clear();
        }
      });
}

/// Per-read cost when the address is in the write log (read-own-write).
double specReadHitNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 0);
  SpecWriteBuffer Buf;
  for (size_t I = 0; I != SpecBenchAddrs; ++I)
    Buf.write(&Cells[I], static_cast<int64_t>(I));
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R)
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            benchmark::DoNotOptimize(Buf.read(&Cells[I]));
      });
}

/// Per-read cost when the address was never written: probe, shared
/// load, and the already-logged check (steady state after the first
/// read of each address).
double specReadMissNanos(int Reps) {
  std::vector<int64_t> Cells(SpecBenchAddrs, 7);
  SpecWriteBuffer Buf;
  for (int64_t &C : Cells)
    benchmark::DoNotOptimize(Buf.read(&C));
  return medianOpNanos(
      Reps, SpecBenchAddrs * SpecBenchRounds, [&] {
        for (int R = 0; R != SpecBenchRounds; ++R)
          for (size_t I = 0; I != SpecBenchAddrs; ++I)
            benchmark::DoNotOptimize(Buf.read(&Cells[I]));
      });
}

/// Per-live-entry cost of the populate-then-clear cycle on a reused
/// buffer: what the generation-stamp clear (plus the re-inserts it
/// enables) costs compared to throwing buffers away.
double specClearReuseNanos(int Reps) {
  constexpr size_t Live = 32;
  std::vector<int64_t> Cells(Live, 0);
  SpecWriteBuffer Buf;
  return medianOpNanos(Reps, Live * SpecBenchRounds, [&] {
    for (int R = 0; R != SpecBenchRounds; ++R) {
      for (size_t I = 0; I != Live; ++I)
        Buf.write(&Cells[I], static_cast<int64_t>(R));
      Buf.clear();
    }
  });
}

/// Hand-timed median of \p Reps submit().get() round trips (ns), solo or
/// against a contending background client. google-benchmark reports the
/// same numbers interactively; this feeds the flat BENCH_*.json artifact
/// the CI perf trajectory is built from.
double medianSubmitRoundTripNanos(int Reps, bool Contended) {
  using Clock = std::chrono::steady_clock;
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg;
  if (Contended)
    Bg = std::thread([&] {
      while (!Stop.load(std::memory_order_relaxed))
        BgLoop.submit(0).get();
    });
  std::vector<double> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Loop.submit(0).get();
    Nanos[static_cast<size_t>(I)] = nanosSince(T0);
  }
  Stop.store(true);
  if (Bg.joinable())
    Bg.join();
  return median(Nanos);
}

/// Hand-timed median per-invocation cost of submitBatch(BatchN).take()
/// round trips (ns), solo or contended -- the serving layer's
/// amortization of medianSubmitRoundTripNanos (same loop, same trip
/// count; only the admission traffic differs).
double medianBatchSubmitPerInvocationNanos(int Reps, size_t BatchN,
                                           bool Contended) {
  using Clock = std::chrono::steady_clock;
  SpiceRuntime RT(/*NumThreads=*/4);
  MicroCountTraits Traits, BgTraits;
  auto Loop = RT.makeLoop(Traits);
  auto BgLoop = RT.makeLoop(BgTraits);
  Loop.invoke(0);
  BgLoop.invoke(0);
  std::atomic<bool> Stop{false};
  std::thread Bg;
  if (Contended)
    Bg = std::thread([&] {
      while (!Stop.load(std::memory_order_relaxed))
        BgLoop.submit(0).get();
    });
  std::vector<int64_t> Starts(BatchN, 0);
  std::vector<double> Nanos(static_cast<size_t>(Reps));
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    Loop.submitBatch(Starts).take();
    Nanos[static_cast<size_t>(I)] =
        nanosSince(T0) / static_cast<double>(BatchN);
  }
  Stop.store(true);
  if (Bg.joinable())
    Bg.join();
  return median(Nanos);
}

} // namespace

BENCHMARK(BM_DetectionCompare<1>);
BENCHMARK(BM_DetectionCompare<2>);
BENCHMARK(BM_DetectionCompare<4>);
BENCHMARK(BM_DetectionCompare<8>);
BENCHMARK(BM_SpecBufferWrite);
BENCHMARK(BM_SpecBufferReadOwnWrite);
BENCHMARK(BM_SpecBufferValidate)->Arg(16)->Arg(256);
BENCHMARK(BM_PlannerCompute);
BENCHMARK(BM_SessionRoundTrip);
BENCHMARK(BM_SubmitRoundTrip);
BENCHMARK(BM_SubmitRoundTripContended);
BENCHMARK(BM_BatchSubmitRoundTrip)->Arg(4)->Arg(16);
BENCHMARK(BM_SjengEvalStep);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // BENCH_micro_runtime.json: the scheduler hot path, tracked per commit
  // alongside the figure benches (see bench/BenchUtil.h).
  const spice::benchutil::BenchConfig Bench;
  const int Reps = Bench.pick(400, 60);
  spice::benchutil::BenchJson Json("micro_runtime");
  Json.scalar("budget", std::string(Bench.budgetName()));
  // Speculative-buffer primitives (see docs/stats.md for definitions).
  const int SpecReps = Bench.pick(400, 60);
  Json.scalar("spec_write_ns", specWriteNanos(SpecReps));
  Json.scalar("spec_read_hit_ns", specReadHitNanos(SpecReps));
  Json.scalar("spec_read_miss_ns", specReadMissNanos(SpecReps));
  Json.scalar("spec_clear_reuse_ns", specClearReuseNanos(SpecReps));
  Json.scalar("submit_roundtrip_ns",
              medianSubmitRoundTripNanos(Reps, /*Contended=*/false));
  Json.scalar("contended_submit_roundtrip_ns",
              medianSubmitRoundTripNanos(Reps, /*Contended=*/true));
  const int BatchReps = Bench.pick(100, 20);
  Json.scalar(
      "batch16_submit_per_invocation_ns",
      medianBatchSubmitPerInvocationNanos(BatchReps, 16,
                                          /*Contended=*/false));
  Json.scalar(
      "contended_batch16_submit_per_invocation_ns",
      medianBatchSubmitPerInvocationNanos(BatchReps, 16,
                                          /*Contended=*/true));
  // The JIT tier's serving costs: what a first-ever submission pays to
  // compile vs what every warm re-submission pays for the cache hit.
  const int JitReps = Bench.pick(200, 40);
  Json.scalar("jit_cold_compile_ns",
              medianJitCompileNanos(JitReps, /*Warm=*/false));
  Json.scalar("jit_cache_hit_compile_ns",
              medianJitCompileNanos(JitReps, /*Warm=*/true));
  Json.write();
  return 0;
}
