//===- benchmark/Serving.cpp - submit_storm and serve_open workloads ------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two multi-client workloads, both with NumThreads=3 (two workers)
// and two client threads, so clients + workers equal the four cores:
//
//  * submit_storm: each client runs submit().get() back-to-back on its
//    own 256-trip counting loop. The loop body costs about a microsecond,
//    so the round trip is all fixed cost: admission, grant, lease, wake,
//    the resolve wait and the release.
//  * serve_open: each client owns a packets handle and an SSSP handle and
//    serves a seeded Poisson schedule FIFO, open loop, under FairShare
//    lanes and adaptive chunking. Latency counts from each request's due
//    time. The offered rate climbs a ladder of fixed absolute rates three
//    times; each step visit is drained before the next, and a step's
//    figures are medians over its visits. The highest rate whose p99
//    meets the frozen SLO is max_rps_in_slo.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/SpiceLoop.h"
#include "workloads/Graph.h"
#include "workloads/Packets.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sys/prctl.h>
#include <thread>

namespace spicebench {

using namespace spice;
using namespace spice::core;
using namespace spice::workloads;

namespace {

constexpr const char *kSubmitSpan = "sched/SpiceLoop::submit";
constexpr const char *kGetSpan = "resolve/SpiceFuture::get";
constexpr unsigned kClients = 2;
/// Set-ups per run of each workload here; setup_s is their median. The
/// storm's set-up is ~0.1 ms, so it takes many to settle the median.
constexpr unsigned kStormSetupReps = 31;
constexpr unsigned kServeSetupReps = 9;
/// Sub-windows of the submit_storm window (its slices).
constexpr unsigned kStormSlices = 20;

struct Window {
  double StartUs = 0;
  double EndUs = 0;
  double ProcCpuUs = 0;
  double seconds() const { return (EndUs - StartUs) / 1e6; }
};

/// Runs Client(0, Start) on this thread and Client(1, Start) on a second
/// one, released together at Start; measures wall and process CPU until
/// both have returned.
template <typename Fn> Window runClients(Fn &&Client) {
  std::atomic<bool> Ready{false}, Go{false};
  Window W;
  std::thread Second([&] {
    Ready.store(true, std::memory_order_release);
    while (!Go.load(std::memory_order_acquire))
      std::this_thread::yield();
    Client(1u, W.StartUs);
  });
  while (!Ready.load(std::memory_order_acquire))
    std::this_thread::yield();
  W.ProcCpuUs = processCpuUs();
  W.StartUs = nowUs();
  Go.store(true, std::memory_order_release);
  Client(0u, W.StartUs);
  Second.join();
  W.EndUs = nowUs();
  W.ProcCpuUs = processCpuUs() - W.ProcCpuUs;
  return W;
}

//===----------------------------------------------------------------------===//
// submit_storm
//===----------------------------------------------------------------------===//

constexpr int64_t kTrip = 256;
constexpr uint64_t kTripSum = kTrip * (kTrip - 1) / 2;

/// A counting loop: the smallest loop that still runs parallel, so the
/// round trip measures the runtime's fixed cost.
struct CountTraits {
  using LiveIn = int64_t;
  struct State {
    uint64_t Sum = 0;
  };
  State initialState() { return {}; }
  bool step(LiveIn &I, State &S, SpecSpace &) {
    if (I >= kTrip)
      return false;
    S.Sum += static_cast<uint64_t>(I);
    ++I;
    return true;
  }
  void combine(State &Into, State &&Chunk) { Into.Sum += Chunk.Sum; }
};

} // namespace

bool runSubmitStorm(const Options &O, Report &R, Tracer *T) {
  RuntimeConfig RC;
  RC.NumThreads = 3;
  CountTraits Traits[kClients];
  std::unique_ptr<SpiceRuntime> RT;
  std::optional<SpiceLoop<CountTraits>> Loops[kClients];

  std::vector<double> SetupS;
  for (unsigned Rep = 0; Rep != kStormSetupReps; ++Rep) {
    for (auto &L : Loops)
      L.reset();
    RT.reset();
    double T0 = nowUs();
    RT = std::make_unique<SpiceRuntime>(RC);
    for (unsigned C = 0; C != kClients; ++C)
      Loops[C].emplace(Traits[C], *RT, LoopOptions{});
    for (unsigned C = 0; C != kClients; ++C)
      for (int I = 0; I != 2; ++I) {
        ++R.Attempted;
        R.Failed += Loops[C]->invoke(0).Sum == kTripSum ? 0 : 1;
      }
    SetupS.push_back((nowUs() - T0) / 1e6);
  }

  LoopMeter Meters[kClients];
  double ClientCpu[kClients] = {};
  SpiceStats Before[kClients];
  for (unsigned C = 0; C != kClients; ++C) {
    Meters[C].Name = "count" + std::to_string(C);
    Meters[C].reserve(1 << 18);
    Before[C] = Loops[C]->lastStats();
  }
  SchedulerStats SchedBefore = RT->schedulerStats();
  SessionPoolStats PoolBefore = RT->pool().sessionPoolStats();
  const double ProcCpuStart = processCpuUs();

  // The window is cut into kStormSlices sub-windows; client 0 samples the
  // process CPU clock as it enters each one.
  const double SubUs = O.Seconds * 1e6 / kStormSlices;
  std::vector<double> SliceCpu(kStormSlices + 1, -1);
  Window W = runClients([&](unsigned C, double StartUs) {
    SpiceLoop<CountTraits> &Loop = *Loops[C];
    LoopMeter &M = Meters[C];
    RandomEngine Coin(deriveSeed(O.Seed, 50 + C));
    CallContext Ctx;
    Ctx.Trace = T ? &T->thread(C) : nullptr;
    const double Cpu0 = threadCpuUs();
    const double End = StartUs + O.Seconds * 1e6;
    uint64_t N = 0;
    for (double Now = nowUs();
         Now < End && (!O.CheckRequests || N < O.CheckRequests);
         Now = nowUs()) {
      const unsigned Sub = std::min(
          static_cast<unsigned>((Now - StartUs) / SubUs), kStormSlices - 1);
      if (C == 0 && Sub > 0 && SliceCpu[Sub] < 0)
        SliceCpu[Sub] = processCpuUs();
      M.slice(Sub);
      Ctx.Request = (static_cast<uint64_t>(C) << 40) | ++N;
      Ctx.TraceThisRequest = Ctx.Trace && Coin.nextBool(0.5);
      uint64_t Want = 0, Got = 0;
      double SeqUs = 0;
      auto Seq = [&] {
        SeqUs = spanned(Ctx, "seq/reference",
                        [&] { Want = Loop.runSequentialReference(0).Sum; });
      };
      if (N % 2)
        Seq();
      double Lat = spanned(Ctx, "request", [&] {
        Got = timedCall(Ctx, M, kSubmitSpan, kGetSpan,
                        [&] { return Loop.submit(0); })
                  .Sum;
      });
      if (N % 2 == 0)
        Seq();
      M.finishRequest(Lat, Lat, SeqUs, Ctx.TraceThisRequest,
                      Got == kTripSum && Want == kTripSum, 1);
    }
    ClientCpu[C] = threadCpuUs() - Cpu0;
  });

  SliceCpu[0] = ProcCpuStart;
  SliceCpu[kStormSlices] = ProcCpuStart + W.ProcCpuUs;

  Tally Counts;
  Counts.addRuntimeDelta(SchedBefore, RT->schedulerStats(), PoolBefore,
                         RT->pool().sessionPoolStats());
  std::vector<const LoopMeter *> MeterPtrs;
  std::vector<double> All;
  // Both clients' requests of one sub-window form one slice.
  std::vector<Slice> Subs(kStormSlices);
  for (unsigned C = 0; C != kClients; ++C) {
    Counts.addLoopDelta(Before[C], Loops[C]->lastStats());
    Counts.addBuffers(Loops[C]->bufferPoolStats());
    MeterPtrs.push_back(&Meters[C]);
    All.insert(All.end(), Meters[C].LatencyUs.begin(),
               Meters[C].LatencyUs.end());
    for (size_t K = 0; K != Meters[C].Slices.size(); ++K) {
      const Slice &From = Meters[C].Slices[K];
      Slice &To = Subs[K];
      To.LatencyUs.insert(To.LatencyUs.end(), From.LatencyUs.begin(),
                          From.LatencyUs.end());
      To.Ratios.insert(To.Ratios.end(), From.Ratios.begin(),
                       From.Ratios.end());
      To.ServiceUs += From.ServiceUs;
      To.SeqUs += From.SeqUs;
      To.Requests += From.Requests;
    }
    R.Attempted += Meters[C].Requests;
    R.Failed += Meters[C].Failed;
  }
  for (unsigned K = 0; K != kStormSlices; ++K) {
    Subs[K].WallUs = SubUs;
    if (SliceCpu[K] >= 0 && SliceCpu[K + 1] >= 0)
      Subs[K].CpuUs = SliceCpu[K + 1] - SliceCpu[K];
  }
  for (auto &L : Loops)
    L.reset();
  RT.reset();

  std::printf("clients (window %.2f s, %u sub-windows):\n", W.seconds(),
              kStormSlices);
  printLoopTable(MeterPtrs);
  std::printf("info latency_p999_us %.2f (%zu samples, %zu beyond it)\n",
              quantile(All, 0.999), All.size(), All.size() / 1000);

  R.add("setup_s", median(SetupS), "s");
  R.add("speedup", sliceMedian(Subs, &Slice::speedup), "x");
  R.add("speedup_p05", sliceMedian(Subs, &Slice::tailSpeedup), "x");
  R.add("cpu_overhead", sliceMedian(Subs, &Slice::cpuOverhead), "x");
  R.add("throughput_ips", sliceMedian(Subs, &Slice::rate), "1/s");
  R.add("cpu_us_per_inv", sliceMedian(Subs, &Slice::cpuPerRequest), "us");
  R.add("latency_p50_us", sliceMedian(Subs, &Slice::latencyP50), "us");
  R.add("latency_p99_us", sliceMedian(Subs, &Slice::latencyP99), "us");
  R.add("max_rps_in_slo", 0, "1/s");
  addLayerMetrics(R, MeterPtrs, Counts, T, W.ProcCpuUs,
                  ClientCpu[0] + ClientCpu[1]);
  addNoJit(R);
  return true;
}

//===----------------------------------------------------------------------===//
// serve_open
//===----------------------------------------------------------------------===//

namespace {

/// Closed-loop capacity C of the serve_open mix, both clients together,
/// in requests per second. Measured with --capacity and frozen, so every
/// commit is offered the same absolute rates (see README.md for the
/// calibration runs and the machine).
constexpr double kCapacityRps = 2000.0;
/// The latency limit on each step's p99: 4x the p99 of the lightest step
/// (0.3C), the median over 10 runs, frozen likewise. (4x the p50 would sit
/// inside the unloaded tail of this mix: SSSP requests take ~3.5x as
/// long as packets requests.)
constexpr double kSloUs = 14400.0;
/// Rate ladder: kLadderBase * C, then up in steps of 0.1C.
constexpr double kLadderBase = 0.3;
constexpr unsigned kSteps = 8;
/// The ladder is climbed this many times per run; each step's figures
/// are medians over its visits, so one disturbed visit does not move them.
constexpr unsigned kSweeps = 3;
constexpr unsigned kVisits = kSweeps * kSteps;
/// The step whose latency quantiles are reported as the workload's
/// latencies: 0.7C.
constexpr unsigned kReportStep = 4;
/// A visit's requests still unstarted this long after its arrivals end
/// are dropped unserved (and the step misses the SLO): a bound on drain
/// time should the frozen capacity overstate this machine by far.
constexpr double kMaxDrainSteps = 2.0;

constexpr size_t kTraceMin = 4000;
constexpr size_t kTraceSpan = 1000;
constexpr size_t kSsspVertices = 1 << 11;
constexpr unsigned kSources = 8;

double stepRate(unsigned Step) {
  return (kLadderBase + 0.1 * Step) * kCapacityRps;
}

struct ServeRequest {
  unsigned Visit = 0; ///< Sweep * kSteps + step.
  double DueUs = 0;   ///< Offset from the start of its visit.
  bool Packets = false;
  uint32_t Param = 0; ///< Trace length, or index of the SSSP source.
};

/// One request of the window; times are offsets from its visit's start.
struct ServeRecord {
  unsigned Visit = 0;
  double DueUs = 0, StartUs = 0, DoneUs = 0;
  double SeqUs = 0; ///< Sequential reference on the same input.
  bool Packets = false;
  uint32_t Param = 0;
  bool Served = false;
  bool Ok = false;
};

ServeRequest drawRequest(RandomEngine &Rng) {
  ServeRequest Q;
  Q.Packets = Rng.nextBool(0.5);
  Q.Param = Q.Packets ? static_cast<uint32_t>(kTraceMin +
                                              Rng.nextBelow(kTraceSpan))
                      : static_cast<uint32_t>(Rng.nextBelow(kSources));
  return Q;
}

/// One client's Poisson schedule: every sweep climbs the ladder, each
/// step visit offering half the step's rate to each client for \p StepUs.
std::vector<ServeRequest> makeSchedule(uint64_t Seed, double StepUs) {
  RandomEngine Rng(Seed);
  std::vector<ServeRequest> S;
  for (unsigned V = 0; V != kVisits; ++V) {
    const double MeanGapUs = 1e6 / (stepRate(V % kSteps) / kClients);
    for (double T = 0;;) {
      T += -std::log(1.0 - Rng.nextDouble()) * MeanGapUs;
      if (T >= StepUs)
        break;
      ServeRequest Q = drawRequest(Rng);
      Q.Visit = V;
      Q.DueUs = T;
      S.push_back(Q);
    }
  }
  return S;
}

/// One serving client: a packets pipeline plus the twin its oracle
/// replays on, and an SSSP workload with precomputed answers for its
/// sources. The sequential references run between visits, never while
/// requests are timed, and right after the requests they check, so a
/// visit's speedup compares times taken in the same state of the host.
class ServeClient {
public:
  explicit ServeClient(uint64_t Seed)
      : Live(4096, 1024, kTraceMin + kTraceSpan, Seed),
        Twin(4096, 1024, kTraceMin + kTraceSpan, Seed),
        Work(CsrGraph::rmat(kSsspVertices, 8, deriveSeed(Seed, 1)), 0) {
    RandomEngine Pick(deriveSeed(Seed, 2));
    const CsrGraph &G = Work.graph();
    while (Sources.size() != kSources) {
      auto V = static_cast<int64_t>(Pick.nextBelow(G.numVertices()));
      if (G.degree(V) > 0)
        Sources.push_back(V);
    }
    for (int64_t S : Sources)
      Want.push_back(SsspWorkload::ssspReference(G, S));
    PacketMeter.Name = "packets";
    SsspMeter.Name = "sssp";
  }

  void attach(SpiceRuntime &RT, const LoopOptions &Opts) {
    PLoop.emplace(Live.makeLoop(RT, Opts));
    SLoop.emplace(Work.makeLoop(RT, Opts));
  }
  void detach() {
    PLoop.reset();
    SLoop.reset();
  }

  /// Input generation for \p Q, done before it is due: the trace of a
  /// packets request. \p Record indexes the window record (-1 in set-up).
  void prepare(const ServeRequest &Q, int64_t Record) {
    if (!Q.Packets)
      return;
    Live.generateTrace(Q.Param);
    Log.push_back({Q.Param, {}, Record, TraceState::Pending});
  }

  /// Drops the prepared \p Q unserved.
  void drop(const ServeRequest &Q) {
    if (Q.Packets)
      Log.back().State = TraceState::Dropped;
  }

  /// The Spice part of \p Q (prepared); runtime calls go to the meter of
  /// its loop.
  void serve(const ServeRequest &Q, CallContext &Ctx) {
    if (Q.Packets) {
      Log.back().Got =
          timedCall(Ctx, PacketMeter, kSubmitSpan, kGetSpan,
                    [&] { return PLoop->submit(Live.traceBegin()); });
      Log.back().State = TraceState::Served;
      return;
    }
    spanned(Ctx, "workload/frontier", [&] { Work.reset(Sources[Q.Param]); });
    while (!Work.done()) {
      RelaxState Merged =
          timedCall(Ctx, SsspMeter, kSubmitSpan, kGetSpan,
                    [&] { return SLoop->submit(Work.frontierHead()); });
      spanned(Ctx, "workload/frontier",
              [&] { Work.advanceFrontier(Merged); });
    }
  }

  /// The immediate oracle: SSSP distances in full; for packets only the
  /// packet count (the full check is the replay).
  bool check(const ServeRequest &Q) const {
    if (Q.Packets)
      return Log.back().Got.Packets == static_cast<int64_t>(Q.Param);
    return Work.distances() == Want[Q.Param];
  }

  /// Wall time of the sequential reference of SSSP source \p Param.
  double timeSssp(uint32_t Param) const {
    double T0 = nowUs();
    SsspWorkload::ssspReference(Work.graph(), Sources[Param]);
    return nowUs() - T0;
  }

  /// Replays, in order, every trace that is no longer pending through
  /// the sequential reference on the twin: sets each window record's
  /// reference time and clears its Ok flag on a mismatch. Returns the
  /// mismatches of set-up requests, which no window record carries.
  uint64_t replay(std::vector<ServeRecord> &Records) {
    uint64_t Failed = 0;
    for (; Replayed != Log.size(); ++Replayed) {
      const PacketLogEntry &E = Log[Replayed];
      if (E.State == TraceState::Pending)
        break;
      // A dropped trace still advances the twin's generator.
      Twin.generateTrace(E.Len);
      if (E.State == TraceState::Dropped)
        continue;
      double T0 = nowUs();
      PacketState Expected = Twin.processTraceReference();
      double Dt = nowUs() - T0;
      bool Ok = Expected == E.Got;
      if (E.Record >= 0) {
        ServeRecord &Rec = Records[static_cast<size_t>(E.Record)];
        Rec.SeqUs = Dt;
        Rec.Ok = Rec.Ok && Ok;
      } else {
        Failed += Ok ? 0 : 1;
      }
    }
    return Failed;
  }

  /// True when every replayed request left the flow tables identical.
  bool tablesAgree() const {
    return Live.table().countersEqual(Twin.table());
  }

  unsigned k(bool Packets) const {
    return Packets ? PLoop->tuning().ChunksPerThread
                   : SLoop->tuning().ChunksPerThread;
  }
  SpiceStats stats(bool Packets) const {
    return Packets ? PLoop->lastStats() : SLoop->lastStats();
  }
  SpecBufferPoolStats buffers(bool Packets) const {
    return Packets ? PLoop->bufferPoolStats() : SLoop->bufferPoolStats();
  }
  uint64_t decisions() const {
    return PLoop->tuning().Controller.Decisions +
           SLoop->tuning().Controller.Decisions;
  }

  LoopMeter PacketMeter, SsspMeter;

private:
  enum class TraceState : uint8_t { Pending, Served, Dropped };
  struct PacketLogEntry {
    uint32_t Len;
    PacketState Got;
    int64_t Record;
    TraceState State;
  };

  PacketPipeline Live, Twin;
  SsspWorkload Work;
  std::vector<int64_t> Sources;
  std::vector<std::vector<int64_t>> Want;
  std::vector<PacketLogEntry> Log;
  size_t Replayed = 0; ///< Log entries the twin has caught up with.
  std::optional<PacketPipeline::Loop> PLoop;
  std::optional<SsspWorkload::Loop> SLoop;
};

/// One step of the ladder, each figure the median over its visits.
struct StepResult {
  double RateRps = 0;
  double Requests = 0;
  double P50Us = 0, P99Us = 0, LateP99Us = 0;
  double Backlog = 0; ///< Requests due but not started at a visit's end.
  bool BacklogGrew = false;
  bool AnyFailed = false; ///< A request failed or was dropped unserved.
  /// log(p99 / SLO); a failed request or a growing backlog counts as at
  /// least twice the SLO. Positive means the step missed the SLO.
  double Excess = 0;
};

std::vector<StepResult> stepResults(const std::vector<ServeRecord> &All,
                                    double StepUs) {
  struct Visit {
    std::vector<double> Lat, Late;
    size_t Backlog = 0;
  };
  std::vector<Visit> Visits(kVisits);
  std::vector<StepResult> Steps(kSteps);
  for (const ServeRecord &Rec : All) {
    Visit &V = Visits[Rec.Visit];
    if (!Rec.Served || Rec.StartUs > StepUs)
      ++V.Backlog;
    if (!Rec.Served || !Rec.Ok)
      Steps[Rec.Visit % kSteps].AnyFailed = true;
    if (!Rec.Served)
      continue;
    V.Lat.push_back(Rec.DoneUs - Rec.DueUs);
    V.Late.push_back(Rec.StartUs - Rec.DueUs);
  }
  for (unsigned K = 0; K != kSteps; ++K) {
    StepResult &S = Steps[K];
    std::vector<double> N, P50, P99, Late, Backlog;
    for (unsigned Sweep = 0; Sweep != kSweeps; ++Sweep) {
      const Visit &V = Visits[Sweep * kSteps + K];
      if (V.Lat.empty())
        continue;
      N.push_back(static_cast<double>(V.Lat.size()));
      P50.push_back(quantile(V.Lat, 0.5));
      P99.push_back(quantile(V.Lat, 0.99));
      Late.push_back(quantile(V.Late, 0.99));
      Backlog.push_back(static_cast<double>(V.Backlog));
    }
    S.RateRps = stepRate(K);
    S.Requests = median(N);
    S.P50Us = median(P50);
    S.P99Us = median(P99);
    S.LateP99Us = median(Late);
    S.Backlog = median(Backlog);
    S.BacklogGrew = S.Backlog > std::max(4.0, S.Requests / 50);
    S.Excess = S.P99Us > 0 ? std::log(S.P99Us / kSloUs) : 0;
    if (S.AnyFailed || S.BacklogGrew)
      S.Excess = std::max(S.Excess, std::log(2.0));
  }
  return Steps;
}

/// The highest offered rate whose p99 meets the SLO with no growing
/// backlog, interpolated in log(p99) between the last step that meets it
/// and the first that does not. Below the ladder it extrapolates from
/// the first step; above it, it reports the top rate.
double maxRateInSlo(const std::vector<StepResult> &Steps) {
  for (unsigned K = 0; K != Steps.size(); ++K) {
    if (Steps[K].Excess <= 0)
      continue;
    if (K == 0)
      return Steps[0].RateRps * std::exp(-Steps[0].Excess);
    const StepResult &Lo = Steps[K - 1], &Hi = Steps[K];
    double F = -Lo.Excess / (Hi.Excess - Lo.Excess);
    return Lo.RateRps + F * (Hi.RateRps - Lo.RateRps);
  }
  return Steps.back().RateRps;
}

} // namespace

bool runServeOpen(const Options &O, Report &R, Tracer *T) {
  RuntimeConfig RC;
  RC.NumThreads = 3;
  RC.Policy = LanePolicy::FairShare;
  RC.Overload = OverloadPolicy::Block;
  LoopOptions Opts;
  Opts.Chunking = ChunkPolicy::Adaptive(1, 8);

  const double StepUs = O.Seconds * 1e6 / kVisits;
  std::vector<std::unique_ptr<ServeClient>> Clients;
  std::vector<std::vector<ServeRequest>> Schedules;
  for (unsigned C = 0; C != kClients; ++C) {
    Clients.push_back(
        std::make_unique<ServeClient>(deriveSeed(O.Seed, 40 + C)));
    Schedules.push_back(makeSchedule(deriveSeed(O.Seed, 45 + C), StepUs));
    if (O.CheckRequests && Schedules[C].size() > O.CheckRequests)
      Schedules[C].resize(O.CheckRequests);
  }

  // Set-up: runtime, four loops, two requests of each kind per client.
  std::vector<std::vector<ServeRecord>> Records(kClients);
  std::unique_ptr<SpiceRuntime> RT;
  std::vector<double> SetupS;
  CallContext SetupCtx;
  for (unsigned Rep = 0; Rep != kServeSetupReps; ++Rep) {
    for (auto &C : Clients)
      C->detach();
    RT.reset();
    double T0 = nowUs();
    RT = std::make_unique<SpiceRuntime>(RC);
    for (auto &C : Clients)
      C->attach(*RT, Opts);
    double Spent = nowUs() - T0;
    for (auto &C : Clients)
      for (uint32_t I = 0; I != 4; ++I) {
        ServeRequest Q;
        Q.Packets = I < 2;
        Q.Param = Q.Packets ? static_cast<uint32_t>(kTraceMin) : I - 2;
        C->prepare(Q, -1);
        double S0 = nowUs();
        C->serve(Q, SetupCtx);
        Spent += nowUs() - S0;
        ++R.Attempted;
        R.Failed += C->check(Q) ? 0 : 1;
      }
    SetupS.push_back(Spent / 1e6);
  }
  for (unsigned C = 0; C != kClients; ++C)
    R.Failed += Clients[C]->replay(Records[C]);

  // Per-client records of the window, and the counters before it.
  std::vector<double> Oversleep[kClients];
  double ClientCpu[kClients] = {};
  /// Client CPU spent on oracles, references and input generation, by
  /// visit.
  std::vector<double> HarnessCpu[kClients];
  uint64_t ReplayFailed[kClients] = {};
  SpiceStats Before[kClients][2];
  uint64_t DecisionsBefore = 0;
  for (unsigned C = 0; C != kClients; ++C) {
    Before[C][0] = Clients[C]->stats(true);
    Before[C][1] = Clients[C]->stats(false);
    DecisionsBefore += Clients[C]->decisions();
    Records[C].resize(Schedules[C].size());
    HarnessCpu[C].assign(kVisits, 0);
  }
  SchedulerStats SchedBefore = RT->schedulerStats();
  SessionPoolStats PoolBefore = RT->pool().sessionPoolStats();

  // Visits start together: the barrier's completion step (run once every
  // client has drained the previous visit and checked it) stamps the next
  // visit's start time and the process CPU clock.
  std::vector<double> VisitStart(kVisits + 1, 0), VisitCpu(kVisits + 1, 0);
  unsigned Phase = 0;
  auto StampVisit = [&]() noexcept {
    if (Phase <= kVisits) {
      VisitStart[Phase] = nowUs();
      VisitCpu[Phase] = processCpuUs();
    }
    ++Phase;
  };
  std::barrier Sync(kClients, StampVisit);

  Window W = runClients([&](unsigned C, double StartUs) {
    // Sleep precisely: the default 50 us timer slack would show up as
    // generator lateness on every request.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ServeClient &SC = *Clients[C];
    const std::vector<ServeRequest> &Sched = Schedules[C];
    std::vector<ServeRecord> &Recs = Records[C];
    RandomEngine Coin(deriveSeed(O.Seed, 60 + C));
    CallContext Ctx;
    Ctx.Trace = T ? &T->thread(C) : nullptr;
    const double Cpu0 = threadCpuUs();

    // One request: sleep until due, serve, check, prepare the next.
    auto Serve = [&](ServeRequest &Q, size_t I, double Due, bool HasNext,
                     ServeRequest Next) {
      const unsigned Visit = Q.Visit;
      Ctx.Request = (static_cast<uint64_t>(C) << 40) | (I + 1);
      Ctx.TraceThisRequest = Ctx.Trace && Coin.nextBool(0.5);
      if (nowUs() < Due) {
        spanned(Ctx, "gen/sleep", [&] { sleepUntilUs(Due); });
        Oversleep[C].push_back(nowUs() - Due);
      }
      const double Start = nowUs();
      spanBegin(Ctx, "request", Due);
      if (Start > Due) {
        spanBegin(Ctx, "client/late", Due);
        spanEnd(Ctx, Start);
      }
      SC.serve(Q, Ctx);
      const double Done = nowUs();
      spanEnd(Ctx, Done);

      const double H0 = threadCpuUs();
      bool Ok = false;
      spanned(Ctx, "oracle/check", [&] { Ok = SC.check(Q); });
      const double Base = Due - Q.DueUs;
      Recs[I] = {Visit,    Q.DueUs, Start - Base, Done - Base, 0,
                 Q.Packets, Q.Param, true,        Ok};
      LoopMeter &M = Q.Packets ? SC.PacketMeter : SC.SsspMeter;
      M.finishRequest(Done - Due, Done - Start, 0, Ctx.TraceThisRequest, Ok,
                      SC.k(Q.Packets));
      if (HasNext) {
        Q = Next;
        spanned(Ctx, "input/generate",
                [&] { SC.prepare(Q, static_cast<int64_t>(I + 1)); });
      }
      HarnessCpu[C][Visit] += threadCpuUs() - H0;
    };

    if (O.Capacity) {
      // Closed loop: every request is due the moment the last one ends.
      RandomEngine Closed(deriveSeed(O.Seed, 70 + C));
      ServeRequest Q = drawRequest(Closed);
      SC.prepare(Q, 0);
      for (size_t I = 0; nowUs() < StartUs + O.Seconds * 1e6; ++I) {
        Recs.resize(I + 1);
        Q.DueUs = 0;
        Serve(Q, I, nowUs(), true, drawRequest(Closed));
      }
      SC.drop(Q);
    } else {
      ServeRequest Q = Sched.empty() ? ServeRequest{} : Sched[0];
      if (!Sched.empty())
        SC.prepare(Q, 0);
      size_t I = 0;
      for (unsigned V = 0; V != kVisits; ++V) {
        Sync.arrive_and_wait();
        const double VisitUs = VisitStart[V];
        const double DropAfter = VisitUs + StepUs * (1 + kMaxDrainSteps);
        const size_t Begin = I;
        for (; I < Sched.size() && Sched[I].Visit == V; ++I) {
          const bool HasNext = I + 1 < Sched.size();
          if (nowUs() > DropAfter) {
            // Dropped unserved; its trace (if any) is already generated.
            Recs[I] = {V, Q.DueUs, 0, 0, 0, Q.Packets, Q.Param, false, false};
            SC.drop(Q);
            if (HasNext) {
              Q = Sched[I + 1];
              SC.prepare(Q, static_cast<int64_t>(I + 1));
            }
            continue;
          }
          Serve(Q, I, VisitUs + Q.DueUs, HasNext,
                HasNext ? Sched[I + 1] : ServeRequest{});
        }
        // Between visits: the sequential references of this visit's
        // requests, which are also the packets oracle.
        const double H0 = threadCpuUs();
        Ctx.TraceThisRequest = Ctx.Trace != nullptr;
        spanned(Ctx, "oracle/replay", [&] {
          ReplayFailed[C] += SC.replay(Recs);
          double SourceUs[kSources];
          std::fill(SourceUs, SourceUs + kSources, -1.0);
          for (size_t J = Begin; J != I; ++J) {
            ServeRecord &Rec = Recs[J];
            if (!Rec.Served || Rec.Packets)
              continue;
            if (SourceUs[Rec.Param] < 0)
              SourceUs[Rec.Param] = SC.timeSssp(Rec.Param);
            Rec.SeqUs = SourceUs[Rec.Param];
          }
        });
        HarnessCpu[C][V] += threadCpuUs() - H0;
      }
      Sync.arrive_and_wait();
    }
    ClientCpu[C] = threadCpuUs() - Cpu0;
  });

  Tally Counts;
  Counts.addRuntimeDelta(SchedBefore, RT->schedulerStats(), PoolBefore,
                         RT->pool().sessionPoolStats());
  std::vector<const LoopMeter *> Meters;
  uint64_t DecisionsAfter = 0;
  for (unsigned C = 0; C != kClients; ++C) {
    ServeClient &SC = *Clients[C];
    Counts.addLoopDelta(Before[C][0], SC.stats(true));
    Counts.addLoopDelta(Before[C][1], SC.stats(false));
    Counts.addBuffers(SC.buffers(true));
    Counts.addBuffers(SC.buffers(false));
    DecisionsAfter += SC.decisions();
    Meters.push_back(&SC.PacketMeter);
    Meters.push_back(&SC.SsspMeter);
  }
  Counts.TuneDecisions = DecisionsAfter - DecisionsBefore;
  for (auto &C : Clients)
    C->detach();
  RT.reset();

  // The rest of the oracle (closed-loop runs replay here), then per-visit
  // totals: service and reference time of each request kind, requests.
  struct VisitTotals {
    double Svc[2] = {0, 0}, Seq[2] = {0, 0};
    double Requests = 0, HarnessCpu = 0;
    double BusyUs = 0; ///< Visit start to its last completion.
    std::vector<double> Ratios; ///< Per request: seq over service time.
  };
  std::vector<VisitTotals> Visits(kVisits);
  std::vector<ServeRecord> All;
  std::vector<double> Late;
  uint64_t Dropped = 0;
  for (unsigned C = 0; C != kClients; ++C) {
    R.Failed += ReplayFailed[C] + Clients[C]->replay(Records[C]) +
                (Clients[C]->tablesAgree() ? 0 : 1);
    for (unsigned V = 0; V != kVisits; ++V)
      Visits[V].HarnessCpu += HarnessCpu[C][V];
    for (const ServeRecord &Rec : Records[C]) {
      All.push_back(Rec);
      if (!Rec.Served) {
        ++Dropped;
        continue;
      }
      ++R.Attempted;
      R.Failed += Rec.Ok ? 0 : 1;
      VisitTotals &X = Visits[Rec.Visit];
      X.BusyUs = std::max({X.BusyUs, StepUs, Rec.DoneUs});
      X.Svc[Rec.Packets] += Rec.DoneUs - Rec.StartUs;
      X.Seq[Rec.Packets] += Rec.SeqUs;
      if (Rec.SeqUs > 0)
        X.Ratios.push_back(Rec.SeqUs / (Rec.DoneUs - Rec.StartUs));
      ++X.Requests;
      Late.push_back(Rec.StartUs - Rec.DueUs);
    }
  }

  R.add("setup_s", median(SetupS), "s");
  if (O.Capacity) {
    std::vector<double> Lat;
    for (const ServeRecord &Rec : All)
      Lat.push_back(Rec.DoneUs - Rec.DueUs);
    R.add("capacity_rps", static_cast<double>(All.size()) / W.seconds(),
          "1/s");
    R.add("capacity_latency_p50_us", quantile(Lat, 0.5), "us");
    return true;
  }

  std::vector<StepResult> Steps = stepResults(All, StepUs);
  std::printf("rate ladder (C = %.1f rps, SLO p99 <= %.0f us; %u sweeps, "
              "%.2f s per visit, medians over visits; window %.2f s, %llu "
              "requests dropped unserved):\n",
              kCapacityRps, kSloUs, kSweeps, StepUs / 1e6, W.seconds(),
              static_cast<unsigned long long>(Dropped));
  std::printf("  %6s %9s %7s %10s %10s %12s %8s %6s\n", "step", "rate_rps",
              "n", "p50_us", "p99_us", "late_p99_us", "backlog", "slo");
  for (unsigned K = 0; K != kSteps; ++K) {
    const StepResult &S = Steps[K];
    std::printf("  %5.2fC %9.1f %7.0f %10.1f %10.1f %12.1f %8.0f %6s\n",
                kLadderBase + 0.1 * K, S.RateRps, S.Requests, S.P50Us,
                S.P99Us, S.LateP99Us, S.Backlog,
                S.Excess <= 0 ? "met" : "missed");
  }
  for (unsigned K = 0; K != kSteps; ++K)
    std::printf("info serve.p50_us.r%03.0f %.1f\ninfo serve.p99_us.r%03.0f "
                "%.1f\n",
                100 * (kLadderBase + 0.1 * K), Steps[K].P50Us,
                100 * (kLadderBase + 0.1 * K), Steps[K].P99Us);
  std::vector<double> AllOversleep = Oversleep[0];
  AllOversleep.insert(AllOversleep.end(), Oversleep[1].begin(),
                      Oversleep[1].end());
  std::printf("info gen.oversleep_us_p99 %.1f\ninfo serve.late_us_p99 %.1f\n",
              quantile(AllOversleep, 0.99), quantile(Late, 0.99));

  // Speedup and runtime CPU are medians over the visits: each visit's
  // references ran right after it, in the same state of the host.
  std::vector<double> Speedups, TailSpeedups, Overheads, Cpus;
  double Served = 0, BusyUs = 0;
  for (unsigned V = 0; V != kVisits; ++V) {
    Served += Visits[V].Requests;
    BusyUs += Visits[V].BusyUs;
    const VisitTotals &X = Visits[V];
    if (X.Requests == 0)
      continue;
    std::vector<double> Kinds;
    for (int K = 0; K != 2; ++K)
      if (X.Svc[K] > 0)
        Kinds.push_back(X.Seq[K] / X.Svc[K]);
    Speedups.push_back(geomean(Kinds));
    TailSpeedups.push_back(quantile(X.Ratios, 0.05));
    const double Cpu = VisitCpu[V + 1] - VisitCpu[V] - X.HarnessCpu;
    Cpus.push_back(Cpu / X.Requests);
    Overheads.push_back(Cpu / (X.Seq[0] + X.Seq[1]));
  }
  const StepResult &Rep = Steps[kReportStep];
  R.add("speedup", median(Speedups), "x");
  R.add("speedup_p05", median(TailSpeedups), "x");
  R.add("cpu_overhead", median(Overheads), "x");
  R.add("throughput_ips", BusyUs > 0 ? Served / BusyUs * 1e6 : 0, "1/s");
  R.add("cpu_us_per_inv", median(Cpus), "us");
  R.add("latency_p50_us", Rep.P50Us, "us");
  R.add("latency_p99_us", Rep.P99Us, "us");
  R.add("max_rps_in_slo", maxRateInSlo(Steps), "1/s");
  addLayerMetrics(R, Meters, Counts, T, W.ProcCpuUs,
                  ClientCpu[0] + ClientCpu[1]);
  addNoJit(R);
  return true;
}

} // namespace spicebench
