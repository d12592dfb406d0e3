//===- benchmark/Kernels.cpp - paper_ro and conflict_rw workloads ---------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two kernel workloads: one client thread drives a set of loops in a
// closed loop, each request running the loop's sequential reference and
// one Spice call on the same input (alternating which runs first), then
// checking the result against the oracle and applying the between-
// invocation churn.
//
//  * paper_ro: otter, ks, 458.sjeng and the JIT-tiered otter IR loop,
//    NumThreads=4, ChunksPerThread=1 (the paper protocol). Read-only
//    speculation: no stores to buffer, nothing to steal.
//  * conflict_rw: 181.mcf, packets and sssp, NumThreads=4,
//    ChunksPerThread=2. Every store goes through the speculative write
//    buffer, reads are validated at commit, recovery chunks are stolen.
//
// The measured window is split evenly between the loops, in rounds: each
// loop's share of one round is one of its slices (see Slice in Bench.h),
// so a burst of machine noise costs a loop one slice, not its result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SpiceLoop.h"
#include "jit/CodeCache.h"
#include "jit/JitLoop.h"
#include "vm/Interpreter.h"
#include "workloads/Graph.h"
#include "workloads/IRWorkloads.h"
#include "workloads/Ks.h"
#include "workloads/Mcf.h"
#include "workloads/Otter.h"
#include "workloads/Packets.h"
#include "workloads/Sjeng.h"

#include <cstdio>
#include <optional>

namespace spicebench {

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

constexpr const char *kSubmitSpan = "sched/SpiceLoop::submit";
constexpr const char *kGetSpan = "resolve/SpiceFuture::get";

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetupReps = 9;
/// Requests per loop inside each set-up: the first is sequential (no
/// predictions yet), the second the first parallel one (and, for the
/// JIT loop, the one that compiles).
constexpr unsigned kFirstRequests = 2;
/// The window is cut into this many rounds over the loops.
constexpr unsigned kRounds = 6;

struct RequestResult {
  double SpiceUs = 0;
  double SeqUs = 0;
  double ClientCpuUs = 0;
  bool Ok = false;
};

/// The shape of every kernel request: the sequential reference and the
/// Spice part in the given order, each timed. The Spice part is the
/// request's latency and is bracketed by the client thread's CPU clock.
template <typename SeqFn, typename SpiceFn>
RequestResult runRequest(CallContext &Ctx, bool SeqFirst, SeqFn &&Seq,
                         SpiceFn &&Spice) {
  RequestResult X;
  auto DoSeq = [&] { X.SeqUs = spanned(Ctx, "seq/reference", Seq); };
  auto DoSpice = [&] {
    double C0 = threadCpuUs();
    X.SpiceUs = spanned(Ctx, "request", Spice);
    X.ClientCpuUs = threadCpuUs() - C0;
  };
  if (SeqFirst) {
    DoSeq();
    DoSpice();
  } else {
    DoSpice();
    DoSeq();
  }
  return X;
}

/// One loop of a kernel workload. It owns its seeded input (plus a twin
/// where the oracle needs its own copy of mutable state) for the whole
/// run, and re-registers its loop handle on every set-up's runtime.
class KernelLoop {
public:
  explicit KernelLoop(const char *Name) { Meter.Name = Name; }
  virtual ~KernelLoop() = default;

  /// Registers the loop on \p RT (the previous handle must be detached).
  virtual void attach(SpiceRuntime &RT, const LoopOptions &Opts) = 0;
  /// Destroys the loop handle; its runtime is about to go away.
  virtual void detach() = 0;
  /// One request; runtime calls are recorded in \p M.
  virtual RequestResult request(CallContext &Ctx, LoopMeter &M,
                                bool SeqFirst) = 0;
  /// Cumulative counters of the attached handle.
  virtual SpiceStats stats() const = 0;
  virtual SpecBufferPoolStats buffers() const { return {}; }
  /// Effective chunks per thread of the next invocation.
  virtual unsigned k() const = 0;
  /// False once the input cannot take another request (VM heap).
  virtual bool canContinue() const { return true; }

  LoopMeter Meter;
  uint64_t RequestCount = 0;
};

template <typename Fn> bool checked(CallContext &Ctx, Fn &&Check) {
  bool Ok = false;
  spanned(Ctx, "oracle/check", [&] { Ok = Check(); });
  return Ok;
}

template <typename Fn> void churn(CallContext &Ctx, Fn &&F) {
  spanned(Ctx, "input/churn", F);
}

//===----------------------------------------------------------------------===//
// paper_ro loops
//===----------------------------------------------------------------------===//

class OtterLoop : public KernelLoop {
public:
  OtterLoop(size_t N, uint64_t Seed) : KernelLoop("otter"), List(N, Seed) {}

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    Loop.emplace(Traits, RT, Opts);
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    Clause *Want = nullptr;
    OtterTraits::State Got{};
    RequestResult X = runRequest(
        Ctx, SeqFirst, [&] { Want = List.findLightestReference(); },
        [&] {
          Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan,
                          [&] { return Loop->submit(List.head()); });
        });
    X.Ok = checked(Ctx, [&] { return Got.MinClause == Want; });
    churn(Ctx, [&] { List.mutate(Want, 2); });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  ClauseList List;
  OtterTraits Traits;
  std::optional<SpiceLoop<OtterTraits>> Loop;
};

class KsLoop : public KernelLoop {
public:
  KsLoop(size_t N, uint64_t Seed)
      : KernelLoop("ks"), Graph(N, 8, Seed), PassLength(N / 8) {
    Traits.Graph = &Graph;
  }

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    Loop.emplace(Traits, RT, Opts);
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    KsVertex *A = Graph.aListHead();
    Traits.FixedA = A->Id;
    Traits.FixedADValue = Graph.dValue(A->Id);
    KsTraits::State Want{}, Got{};
    RequestResult X = runRequest(
        Ctx, SeqFirst,
        [&] { Want = Loop->runSequentialReference(Graph.bListHead()); },
        [&] {
          Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan,
                          [&] { return Loop->submit(Graph.bListHead()); });
        });
    X.Ok = checked(Ctx, [&] {
      return Got.BestB == Want.BestB && Got.BestGain == Want.BestGain;
    });
    churn(Ctx, [&] {
      // One Kernighan-Lin step; after PassLength steps the pass commits
      // its swaps, so the next pass scans a new partition.
      Graph.applySwap(A->Id, Want.BestB->Id);
      PassA.push_back(A->Id);
      PassB.push_back(Want.BestB->Id);
      if (PassA.size() == PassLength) {
        Graph.commitSwaps(PassA, PassB, PassA.size());
        PassA.clear();
        PassB.clear();
      }
    });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  KsGraph Graph;
  size_t PassLength;
  std::vector<int64_t> PassA, PassB;
  KsTraits Traits;
  std::optional<SpiceLoop<KsTraits>> Loop;
};

class SjengLoop : public KernelLoop {
public:
  SjengLoop(size_t N, uint64_t Seed) : KernelLoop("sjeng"), Board(N, Seed) {}

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    LoopOptions O = Opts;
    O.UseWeightedWork = true;
    Loop.emplace(Traits, RT, O);
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    SjengScore Want{}, Got{};
    RequestResult X = runRequest(
        Ctx, SeqFirst, [&] { Want = Board.evalReference(); },
        [&] {
          Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan,
                          [&] { return Loop->submit(Board.start()); });
        });
    X.Ok = checked(Ctx, [&] { return Got == Want; });
    churn(Ctx, [&] { Board.mutate(0.3, 1); });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  SjengBoard Board;
  SjengTraits Traits;
  std::optional<SpiceLoop<SjengTraits>> Loop;
};

/// The otter IR loop run through JitLoopRunner with default tiering: the
/// first invocation is interpreted, the second compiles. Two identically
/// seeded twins: one driven through the parallel runner, one through
/// invokeSequential (the speedup reference). The oracle walks the list
/// on the host; every 64th request also runs the interpreter.
class JitOtterLoop : public KernelLoop {
  struct Twin {
    ir::Module Mod;
    OtterIR W;
    ir::Function *F = nullptr;
    vm::Memory Mem;
    Twin(size_t N, uint64_t Seed, uint64_t Words) : W(N, Seed), Mem(Words) {
      W.InsertsPerInvocation = 2;
      F = W.build(Mod);
      Mem.layoutGlobals(Mod);
      W.initData(Mem);
    }
  };

public:
  JitOtterLoop(size_t N, uint64_t Seed)
      : KernelLoop("jitloop"), Par(N, Seed, words(N)),
        Seq(N, Seed, words(N)) {}

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    Cache.emplace();
    ParRun.emplace(RT, *Par.F, Par.Mem, *Cache, Opts);
    SeqRun.emplace(RT, *Seq.F, Seq.Mem, *Cache, Opts);
  }
  void detach() override {
    ParRun.reset();
    SeqRun.reset();
    Cache.reset();
  }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    std::vector<int64_t> ParArgs = Par.W.invocationArgs(Par.Mem);
    std::vector<int64_t> SeqArgs = Seq.W.invocationArgs(Seq.Mem);
    int64_t Want = 0, Got = 0;
    RequestResult X = runRequest(
        Ctx, SeqFirst, [&] { Want = SeqRun->invokeSequential(SeqArgs); },
        [&] {
          Got = timedCall(Ctx, M, "jit/JitLoopRunner::submit",
                          "jit/Pending::get",
                          [&] { return ParRun->submit(ParArgs); });
        });
    SeqUs.push_back(X.SeqUs);
    X.Ok = checked(Ctx, [&] {
      int64_t HostMin = hostMinWeight(Par.Mem, ParArgs[0]);
      return Got == HostMin && Want == HostMin &&
             Par.W.resultDigest(Par.Mem) == Seq.W.resultDigest(Seq.Mem);
    });
    if (++Served % 64 == 0) {
      int64_t Interp = 0;
      auto RunInterp = [&] { Interp = SeqRun->runInterpreted(SeqArgs); };
      InterpUs.push_back(spanned(Ctx, "vm/runFunction", RunInterp));
      X.Ok = X.Ok && Interp == Want;
    }
    churn(Ctx, [&] {
      Par.W.mutate(Par.Mem);
      Seq.W.mutate(Seq.Mem);
    });
    return X;
  }
  SpiceStats stats() const override { return ParRun->loopStats(); }
  unsigned k() const override { return 1; }
  bool canContinue() const override {
    return Par.Mem.heapTop() + 64 < Par.Mem.size();
  }

  /// Compiles the loop once more outside the runner (and outside
  /// setup_s): the compile cost of the JIT layer on its own.
  double timeCompile(CallContext &Ctx) {
    return spanned(Ctx, "jit/compileLoop",
                   [&] { jit::compileLoop(*ParRun->canonicalLoop()); });
  }
  bool jitted() const { return ParRun->jitted() && SeqRun->jitted(); }
  uint64_t deopts() const { return ParRun->tierStats().Deopts; }

  /// Interpreter and JIT-sequential times, one sample per run of each.
  std::vector<double> InterpUs, SeqUs;

private:
  static uint64_t words(size_t N) {
    // Nodes are two words and each request inserts two: room for N / 2
    // + 16k requests, far more than one run makes (canContinue() guards).
    return 4 * static_cast<uint64_t>(N) + (1u << 16);
  }
  static int64_t hostMinWeight(const vm::Memory &Mem, int64_t Head) {
    int64_t Min = INT64_MAX;
    for (int64_t P = Head; P != 0; P = Mem.load(static_cast<uint64_t>(P) + 1))
      Min = std::min(Min, Mem.load(static_cast<uint64_t>(P)));
    return Min;
  }

  Twin Par, Seq;
  uint64_t Served = 0;
  std::optional<jit::CodeCache> Cache;
  std::optional<jit::JitLoopRunner> ParRun, SeqRun;
};

//===----------------------------------------------------------------------===//
// conflict_rw loops
//===----------------------------------------------------------------------===//

class McfLoop : public KernelLoop {
public:
  McfLoop(size_t N, uint64_t Seed)
      : KernelLoop("mcf"), Live(N, Seed), Twin(N, Seed) {}

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    LoopOptions O = Opts;
    O.EnableConflictDetection = true;
    Loop.emplace(Traits, RT, O);
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    int64_t Want = 0;
    McfTraits::State Got{};
    RequestResult X = runRequest(
        Ctx, SeqFirst, [&] { Want = Twin.refreshPotentialReference(); },
        [&] {
          Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan, [&] {
            return Loop->submit(Live.traversalStart());
          });
        });
    X.Ok = checked(Ctx, [&] {
      if (Got.Checksum != Want)
        return false;
      const TreeNode *A = Live.traversalStart(), *B = Twin.traversalStart();
      for (; A && B; A = BasisTree::advance(const_cast<TreeNode *>(A)),
                     B = BasisTree::advance(const_cast<TreeNode *>(B)))
        if (A->Potential != B->Potential)
          return false;
      return A == nullptr && B == nullptr;
    });
    churn(Ctx, [&] {
      Live.mutate(4, 1);
      Twin.mutate(4, 1);
    });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  BasisTree Live, Twin;
  McfTraits Traits;
  std::optional<SpiceLoop<McfTraits>> Loop;
};

class PacketsLoop : public KernelLoop {
public:
  PacketsLoop(size_t TraceLen, uint64_t Seed)
      : KernelLoop("packets"), Base(TraceLen),
        Live(4096, 1024, TraceLen, Seed), Twin(4096, 1024, TraceLen, Seed),
        Lengths(deriveSeed(Seed, 1)) {
    nextTrace();
  }

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    Loop.emplace(Live.makeLoop(RT, Opts));
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    PacketState Want{}, Got{};
    RequestResult X = runRequest(
        Ctx, SeqFirst, [&] { Want = Twin.processTraceReference(); },
        [&] {
          Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan,
                          [&] { return Loop->submit(Live.traceBegin()); });
        });
    X.Ok = checked(Ctx, [&] {
      return Got == Want && Live.table().countersEqual(Twin.table());
    });
    churn(Ctx, [&] { nextTrace(); });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  /// Trace lengths vary in [3/4, 1] of the arena, so memoized
  /// trace-cursor predictions go stale at the tail.
  void nextTrace() {
    size_t Len = Base - Lengths.nextBelow(Base / 4);
    Live.generateTrace(Len);
    Twin.generateTrace(Len);
  }

  size_t Base;
  PacketPipeline Live, Twin;
  RandomEngine Lengths;
  std::optional<PacketPipeline::Loop> Loop;
};

/// Full SSSP runs from seeded sources: one request is one run, i.e. a
/// reset plus one invocation per frontier wave.
class SsspLoop : public KernelLoop {
public:
  SsspLoop(size_t Vertices, uint64_t Seed)
      : KernelLoop("sssp"), Work(CsrGraph::rmat(Vertices, 8, Seed), 0),
        Sources(deriveSeed(Seed, 1)) {}

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) override {
    Loop.emplace(Work.makeLoop(RT, Opts));
  }
  void detach() override { Loop.reset(); }
  RequestResult request(CallContext &Ctx, LoopMeter &M,
                        bool SeqFirst) override {
    const CsrGraph &G = Work.graph();
    int64_t Source;
    do {
      Source = static_cast<int64_t>(Sources.nextBelow(G.numVertices()));
    } while (G.degree(Source) == 0);
    std::vector<int64_t> Want;
    RequestResult X = runRequest(
        Ctx, SeqFirst,
        [&] { Want = SsspWorkload::ssspReference(G, Source); },
        [&] {
          spanned(Ctx, "workload/frontier", [&] { Work.reset(Source); });
          while (!Work.done()) {
            RelaxState Merged = timedCall(
                Ctx, M, kSubmitSpan, kGetSpan,
                [&] { return Loop->submit(Work.frontierHead()); });
            spanned(Ctx, "workload/frontier",
                    [&] { Work.advanceFrontier(Merged); });
          }
        });
    X.Ok = checked(Ctx, [&] { return Work.distances() == Want; });
    return X;
  }
  SpiceStats stats() const override { return Loop->lastStats(); }
  SpecBufferPoolStats buffers() const override {
    return Loop->bufferPoolStats();
  }
  unsigned k() const override { return Loop->tuning().ChunksPerThread; }

private:
  SsspWorkload Work;
  RandomEngine Sources;
  std::optional<SsspWorkload::Loop> Loop;
};

//===----------------------------------------------------------------------===//
// The kernel-workload runner
//===----------------------------------------------------------------------===//

bool runKernels(const Options &O, Report &R, Tracer *T,
                std::vector<std::unique_ptr<KernelLoop>> &Loops,
                unsigned ChunksPerThread, JitOtterLoop *Jit) {
  RuntimeConfig RC;
  RC.NumThreads = 4;
  LoopOptions Opts;
  Opts.Chunking = ChunkPolicy::Static(ChunksPerThread);
  Opts.ChunksPerThread = ChunksPerThread;

  RandomEngine TraceCoin(deriveSeed(O.Seed, 999));
  CallContext Ctx;
  Ctx.Trace = T ? &T->thread(0) : nullptr;
  uint64_t NextRequest = 1;
  auto DoRequest = [&](KernelLoop &L, LoopMeter &M) {
    Ctx.Request = NextRequest++;
    Ctx.TraceThisRequest = Ctx.Trace && TraceCoin.nextBool(0.5);
    bool SeqFirst = L.RequestCount % 2 == 0;
    RequestResult X = L.request(Ctx, M, SeqFirst);
    if (&M == &L.Meter) {
      M.slice(M.Current).CpuUs += X.ClientCpuUs;
      M.finishRequest(X.SpiceUs, X.SpiceUs, X.SeqUs, Ctx.TraceThisRequest,
                      X.Ok, L.k());
    }
    ++L.RequestCount;
    ++R.Attempted;
    R.Failed += X.Ok ? 0 : 1;
    if (!X.Ok)
      std::printf("ORACLE MISMATCH: %s request %llu\n", L.Meter.Name.c_str(),
                  static_cast<unsigned long long>(L.RequestCount));
    return X;
  };

  // Set-up: runtime, loop registration (and JIT runners), first requests.
  std::unique_ptr<SpiceRuntime> RT;
  std::vector<double> SetupS, CompileUs;
  LoopMeter Scratch;
  for (unsigned Rep = 0; Rep != kSetupReps; ++Rep) {
    if (RT) {
      for (auto &L : Loops)
        L->detach();
      RT.reset();
    }
    Ctx.TraceThisRequest = true; // Set-up spans are recorded in full.
    double Spent = spanned(Ctx, "setup/runtime+loops", [&] {
      RT = std::make_unique<SpiceRuntime>(RC);
      for (auto &L : Loops)
        L->attach(*RT, Opts);
    });
    for (auto &L : Loops)
      for (unsigned I = 0; I != kFirstRequests; ++I)
        Spent += DoRequest(*L, Scratch).SpiceUs;
    SetupS.push_back(Spent / 1e6);
    if (Jit) {
      if (!Jit->jitted()) {
        std::fprintf(stderr, "spicebench: the JIT loop was not promoted\n");
        return false;
      }
      Ctx.TraceThisRequest = true;
      CompileUs.push_back(Jit->timeCompile(Ctx));
    }
  }

  // Measured window.
  std::vector<SpiceStats> Before;
  for (auto &L : Loops) {
    Before.push_back(L->stats());
    L->Meter.reserve(1 << 16);
  }
  SchedulerStats SchedBefore = RT->schedulerStats();
  SessionPoolStats PoolBefore = RT->pool().sessionPoolStats();
  const uint64_t DeoptsBefore = Jit ? Jit->deopts() : 0;
  const size_t InterpBefore = Jit ? Jit->InterpUs.size() : 0;
  const size_t JitSeqBefore = Jit ? Jit->SeqUs.size() : 0;
  const double Proc0 = processCpuUs(), Client0 = threadCpuUs();
  const double SliceUs =
      O.Seconds * 1e6 / static_cast<double>(kRounds * Loops.size());
  for (unsigned Round = 0; Round != kRounds; ++Round)
    for (auto &L : Loops) {
      const double P0 = processCpuUs(), C0 = threadCpuUs();
      L->Meter.slice(Round);
      const double End = nowUs() + SliceUs;
      while (nowUs() < End && L->canContinue() &&
             (!O.CheckRequests || L->Meter.Requests < O.CheckRequests))
        DoRequest(*L, L->Meter);
      // Workers run only Spice work; the client's share (added per
      // request) is its CPU inside the Spice part.
      L->Meter.slice(Round).CpuUs +=
          (processCpuUs() - P0) - (threadCpuUs() - C0);
    }
  const double ProcCpu = processCpuUs() - Proc0;
  const double ClientCpu = threadCpuUs() - Client0;

  Tally Counts;
  Counts.addRuntimeDelta(SchedBefore, RT->schedulerStats(), PoolBefore,
                         RT->pool().sessionPoolStats());
  // Every metric is the geometric mean over the loops of the loop's median
  // over its slices, so each loop weighs the same whatever its request
  // cost.
  std::vector<const LoopMeter *> Meters;
  std::vector<double> Speedups, TailSpeedups, Overheads, Rates, Cpus, P50s,
      P99s;
  for (size_t I = 0; I != Loops.size(); ++I) {
    KernelLoop &L = *Loops[I];
    const std::vector<Slice> &S = L.Meter.Slices;
    Counts.addLoopDelta(Before[I], L.stats());
    Counts.addBuffers(L.buffers());
    Meters.push_back(&L.Meter);
    Speedups.push_back(sliceMedian(S, &Slice::speedup));
    TailSpeedups.push_back(sliceMedian(S, &Slice::tailSpeedup));
    Overheads.push_back(sliceMedian(S, &Slice::cpuOverhead));
    Rates.push_back(sliceMedian(S, &Slice::throughput));
    Cpus.push_back(sliceMedian(S, &Slice::cpuPerRequest));
    P50s.push_back(sliceMedian(S, &Slice::latencyP50));
    P99s.push_back(sliceMedian(S, &Slice::latencyP99));
  }
  if (Jit)
    Counts.JitDeopts = Jit->deopts() - DeoptsBefore;
  for (auto &L : Loops)
    L->detach();
  RT.reset();

  std::printf("loops (window %.1f s, %u rounds):\n", O.Seconds, kRounds);
  printLoopTable(Meters);

  R.add("setup_s", median(SetupS), "s");
  R.add("speedup", geomean(Speedups), "x");
  R.add("speedup_p05", geomean(TailSpeedups), "x");
  R.add("cpu_overhead", geomean(Overheads), "x");
  R.add("throughput_ips", geomean(Rates), "1/s");
  R.add("cpu_us_per_inv", geomean(Cpus), "us");
  R.add("latency_p50_us", geomean(P50s), "us");
  R.add("latency_p99_us", geomean(P99s), "us");
  R.add("max_rps_in_slo", 0, "1/s");
  addLayerMetrics(R, Meters, Counts, T, ProcCpu, ClientCpu);

  if (Jit) {
    std::vector<double> Interp(Jit->InterpUs.begin() + InterpBefore,
                               Jit->InterpUs.end());
    std::vector<double> JitSeq(Jit->SeqUs.begin() + JitSeqBefore,
                               Jit->SeqUs.end());
    std::printf("jit: compile_us %.1f (median of %zu), invoke_us_p50 %.1f, "
                "seq_us_p50 %.1f, vm interp_us_p50 %.1f (%zu samples)\n",
                median(CompileUs), CompileUs.size(),
                quantile(Jit->Meter.LatencyUs, 0.5), median(JitSeq),
                median(Interp), Interp.size());
    R.add("jit.vs_interp",
          median(JitSeq) > 0 ? median(Interp) / median(JitSeq) : 0, "x");
    R.add("jit.deopts", static_cast<double>(Counts.JitDeopts), "count");
    R.add("jit.compile_fraction",
          median(CompileUs) / (median(SetupS) * 1e6), "fraction");
  } else {
    addNoJit(R);
  }
  return true;
}

uint64_t sizeFor(const Options &O, uint64_t Full, uint64_t Check) {
  return O.CheckRequests ? Check : Full;
}

} // namespace

bool runPaperRO(const Options &O, Report &R, Tracer *T) {
  std::vector<std::unique_ptr<KernelLoop>> Loops;
  Loops.push_back(std::make_unique<OtterLoop>(
      sizeFor(O, 300000, 20000), deriveSeed(O.Seed, 11)));
  Loops.push_back(std::make_unique<KsLoop>(sizeFor(O, 120000, 4000),
                                           deriveSeed(O.Seed, 12)));
  Loops.push_back(std::make_unique<SjengLoop>(sizeFor(O, 18000, 3000),
                                              deriveSeed(O.Seed, 13)));
  auto Jit = std::make_unique<JitOtterLoop>(sizeFor(O, 20000, 4000),
                                            deriveSeed(O.Seed, 14));
  JitOtterLoop *JitPtr = Jit.get();
  Loops.push_back(std::move(Jit));
  return runKernels(O, R, T, Loops, /*ChunksPerThread=*/1, JitPtr);
}

bool runConflictRW(const Options &O, Report &R, Tracer *T) {
  std::vector<std::unique_ptr<KernelLoop>> Loops;
  Loops.push_back(std::make_unique<McfLoop>(sizeFor(O, 30000, 4000),
                                            deriveSeed(O.Seed, 21)));
  Loops.push_back(std::make_unique<PacketsLoop>(sizeFor(O, 32768, 4096),
                                                deriveSeed(O.Seed, 22)));
  Loops.push_back(std::make_unique<SsspLoop>(sizeFor(O, 32768, 2048),
                                             deriveSeed(O.Seed, 23)));
  return runKernels(O, R, T, Loops, /*ChunksPerThread=*/2, nullptr);
}

} // namespace spicebench
