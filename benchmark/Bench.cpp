//===- benchmark/Bench.cpp - spicebench shared harness --------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

namespace spicebench {

using namespace spice;

static Clock::time_point origin() {
  static const Clock::time_point Origin = Clock::now();
  return Origin;
}

double nowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin())
      .count();
}

void sleepUntilUs(double Us) {
  std::this_thread::sleep_until(
      origin() + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(Us)));
}

static double cpuClockUs(clockid_t Id) {
  timespec TS{};
  clock_gettime(Id, &TS);
  return static_cast<double>(TS.tv_sec) * 1e6 +
         static_cast<double>(TS.tv_nsec) * 1e-3;
}

double threadCpuUs() { return cpuClockUs(CLOCK_THREAD_CPUTIME_ID); }
double processCpuUs() { return cpuClockUs(CLOCK_PROCESS_CPUTIME_ID); }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  size_t N = 0;
  for (double X : V)
    if (X > 0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0;
}

uint64_t deriveSeed(uint64_t Seed, uint64_t Stream) {
  RandomEngine R(Seed * 0x9e3779b97f4a7c15ULL + Stream);
  return R.next();
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

ThreadTrace::ThreadTrace(unsigned Tid, size_t RawCap)
    : Tid(Tid), RawCap(RawCap) {
  Raw.reserve(RawCap);
  Stack.reserve(16);
}

void ThreadTrace::begin(const char *Name, double StartUs, uint64_t Request) {
  uint32_t Parent = Stack.empty() ? 0 : Stack.back().Id;
  Stack.push_back({Name, StartUs, 0.0, NextId++, Parent, Request});
}

void ThreadTrace::end(double EndUs) {
  Open O = Stack.back();
  Stack.pop_back();
  double Dur = EndUs - O.StartUs;
  Totals &T = ByName[O.Name];
  ++T.Count;
  T.TotalUs += Dur;
  T.SelfUs += Dur - O.ChildUs;
  if (!Stack.empty())
    Stack.back().ChildUs += Dur;
  if (Raw.size() < RawCap)
    Raw.push_back({O.Name, O.StartUs, EndUs, O.Id, O.Parent, O.Request});
  else
    ++Dropped;
}

Tracer::Tracer(unsigned NumThreads, size_t RawCapPerThread) {
  for (unsigned Tid = 0; Tid != NumThreads; ++Tid)
    Threads.push_back(std::make_unique<ThreadTrace>(Tid, RawCapPerThread));
}

static std::string layerOf(const std::string &Name) {
  size_t Slash = Name.find('/');
  return Slash == std::string::npos ? Name : Name.substr(0, Slash);
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "spicebench: cannot write trace %s\n",
                 Path.c_str());
    return false;
  }
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool First = true;
  uint64_t Dropped = 0;
  for (const auto &T : Threads) {
    Dropped += T->dropped();
    for (const ThreadTrace::RawSpan &S : T->raw()) {
      std::string Name = S.Name;
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"id\": %u, \"parent\": %u, \"request\": "
                   "%llu}}",
                   First ? "" : ",\n", Name.c_str(), layerOf(Name).c_str(),
                   S.StartUs, S.EndUs - S.StartUs, T->tid(), S.Id, S.Parent,
                   static_cast<unsigned long long>(S.Request));
      First = false;
    }
  }
  std::fprintf(F, "\n], \"otherData\": {\"dropped_spans\": %llu}}\n",
               static_cast<unsigned long long>(Dropped));
  bool Ok = std::fclose(F) == 0;
  std::printf("trace: wrote %s (%llu spans beyond the cap not written)\n",
              Path.c_str(), static_cast<unsigned long long>(Dropped));
  return Ok;
}

double Tracer::totalUs(const std::string &Name) const {
  double Sum = 0;
  for (const auto &T : Threads)
    for (const auto &[N, Tot] : T->totals())
      if (Name == N)
        Sum += Tot.TotalUs;
  return Sum;
}

double Tracer::selfUs(const std::string &Name) const {
  double Sum = 0;
  for (const auto &T : Threads)
    for (const auto &[N, Tot] : T->totals())
      if (Name == N)
        Sum += Tot.SelfUs;
  return Sum;
}

void Tracer::printSelfTimes() const {
  std::map<std::string, ThreadTrace::Totals> ByLayer;
  double AllSelf = 0;
  for (const auto &T : Threads)
    for (const auto &[N, Tot] : T->totals()) {
      ThreadTrace::Totals &L = ByLayer[layerOf(N)];
      L.Count += Tot.Count;
      L.TotalUs += Tot.TotalUs;
      L.SelfUs += Tot.SelfUs;
      AllSelf += Tot.SelfUs;
    }
  std::printf("self time per layer (traced requests; spans around calls "
              "into each layer):\n");
  std::printf("  %-16s %10s %12s %12s %8s\n", "layer", "spans", "total_ms",
              "self_ms", "self%");
  for (const auto &[Layer, L] : ByLayer)
    std::printf("  %-16s %10llu %12.3f %12.3f %7.2f%%\n", Layer.c_str(),
                static_cast<unsigned long long>(L.Count), L.TotalUs / 1e3,
                L.SelfUs / 1e3, AllSelf > 0 ? 100 * L.SelfUs / AllSelf : 0);
}

//===----------------------------------------------------------------------===//
// Meters and tallies
//===----------------------------------------------------------------------===//

void LoopMeter::reserve(size_t N) {
  SubmitUs.reserve(N);
  GetUs.reserve(N);
  LatencyUs.reserve(N);
  RequestTraced.reserve(N);
}

Slice &LoopMeter::slice(unsigned S) {
  if (Slices.size() <= S)
    Slices.resize(S + 1);
  Current = S;
  return Slices[S];
}

void LoopMeter::finishRequest(double Latency, double Service, double Seq,
                              bool Traced, bool Ok, unsigned K) {
  LatencyUs.push_back(Latency);
  RequestTraced.push_back(Traced ? 1 : 0);
  Slice &S = slice(Current);
  S.LatencyUs.push_back(Latency);
  S.ServiceUs += Service;
  S.SeqUs += Seq;
  ++S.Requests;
  if (Seq > 0 && Service > 0)
    S.Ratios.push_back(Seq / Service);
  KSum += K;
  ++Requests;
  TracedRequests += Traced ? 1 : 0;
  Failed += Ok ? 0 : 1;
}

void Tally::addLoopDelta(const core::SpiceStats &B,
                         const core::SpiceStats &A) {
  core::SpiceStats &L = Loop;
  L.Invocations += A.Invocations - B.Invocations;
  L.SequentialInvocations += A.SequentialInvocations - B.SequentialInvocations;
  L.MisspeculatedInvocations +=
      A.MisspeculatedInvocations - B.MisspeculatedInvocations;
  L.TotalIterations += A.TotalIterations - B.TotalIterations;
  L.LaunchedSpecThreads += A.LaunchedSpecThreads - B.LaunchedSpecThreads;
  L.ConflictSquashes += A.ConflictSquashes - B.ConflictSquashes;
  L.RecoveryIterations += A.RecoveryIterations - B.RecoveryIterations;
  L.WastedIterations += A.WastedIterations - B.WastedIterations;
  L.StolenChunks += A.StolenChunks - B.StolenChunks;
  L.MainHelpedChunks += A.MainHelpedChunks - B.MainHelpedChunks;
  L.GrantedLanes += A.GrantedLanes - B.GrantedLanes;
  L.ImbalanceSum += A.ImbalanceSum - B.ImbalanceSum;
  L.ImbalanceSamples += A.ImbalanceSamples - B.ImbalanceSamples;
  L.ChunkImbalanceSum += A.ChunkImbalanceSum - B.ChunkImbalanceSum;
  L.ChunkImbalanceSamples += A.ChunkImbalanceSamples - B.ChunkImbalanceSamples;
}

void Tally::addRuntimeDelta(const core::SchedulerStats &SB,
                            const core::SchedulerStats &SA,
                            const core::SessionPoolStats &PB,
                            const core::SessionPoolStats &PA) {
  Sched.Submitted += SA.Submitted - SB.Submitted;
  Sched.DeferredGrants += SA.DeferredGrants - SB.DeferredGrants;
  Sched.CappedGrants += SA.CappedGrants - SB.CappedGrants;
  Sched.TotalQueuedMicros += SA.TotalQueuedMicros - SB.TotalQueuedMicros;
  Sessions.SessionsCreated += PA.SessionsCreated - PB.SessionsCreated;
  Sessions.SessionPoolHits += PA.SessionPoolHits - PB.SessionPoolHits;
}

void Tally::addBuffers(const core::SpecBufferPoolStats &B) {
  Buffers.TableSlots += B.TableSlots;
  Buffers.Rehashes += B.Rehashes;
  Buffers.HeapTables += B.HeapTables;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit) {
  // JSON has no NaN or infinity; a ratio over nothing reads 0.
  Entries.push_back({Name, std::isfinite(Value) ? Value : 0, Unit});
}

void Report::print() const {
  for (const Entry &E : Entries)
    std::printf("metric %-32s %.6g %s\n", E.Name.c_str(), E.Value,
                E.Unit.c_str());
}

static std::string jsonNumber(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

bool Report::printResult(const std::vector<std::string> &Names) const {
  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != Names.size(); ++I) {
    const Entry *Found = nullptr;
    for (const Entry &E : Entries)
      if (E.Name == Names[I])
        Found = &E;
    if (!Found) {
      std::fprintf(stderr, "spicebench: metric %s was not measured\n",
                   Names[I].c_str());
      return false;
    }
    Out += (I ? ", \"" : "\"") + Found->Name + "\": {\"value\": " +
           jsonNumber(Found->Value) + ", \"unit\": \"" + Found->Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Per-layer metrics
//===----------------------------------------------------------------------===//

static double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

void addLayerMetrics(Report &R, const std::vector<const LoopMeter *> &Meters,
                     const Tally &T, const Tracer *Trace, double ProcCpuUs,
                     double ClientCpuUs) {
  std::vector<double> Submit, Get;
  double CallUs = 0, GetSum = 0, KSum = 0;
  double TracedGetWall = 0, TracedGetCpu = 0, TracedClientCpu = 0;
  uint64_t Requests = 0, TracedRequests = 0;
  std::vector<double> TraceRatios;
  for (const LoopMeter *M : Meters) {
    Submit.insert(Submit.end(), M->SubmitUs.begin(), M->SubmitUs.end());
    Get.insert(Get.end(), M->GetUs.begin(), M->GetUs.end());
    for (size_t I = 0; I != M->SubmitUs.size(); ++I) {
      CallUs += M->SubmitUs[I] + M->GetUs[I];
      GetSum += M->GetUs[I];
    }
    KSum += M->KSum;
    Requests += M->Requests;
    TracedRequests += M->TracedRequests;
    TracedGetWall += M->TracedGetWallUs;
    TracedGetCpu += M->TracedGetCpuUs;
    TracedClientCpu += M->TracedClientCpuUs;
    // Tracing overhead, measured A/B inside the run: mean latency of the
    // loop's traced requests over its untraced ones.
    double TracedSum = 0, PlainSum = 0;
    uint64_t TracedN = 0, PlainN = 0;
    for (size_t I = 0; I != M->LatencyUs.size(); ++I) {
      if (M->RequestTraced[I]) {
        TracedSum += M->LatencyUs[I];
        ++TracedN;
      } else {
        PlainSum += M->LatencyUs[I];
        ++PlainN;
      }
    }
    if (TracedN && PlainN && PlainSum > 0)
      TraceRatios.push_back((TracedSum / TracedN) / (PlainSum / PlainN));
  }
  const core::SpiceStats &L = T.Loop;
  const double Inv = static_cast<double>(L.Invocations);
  const double Parallel =
      static_cast<double>(L.Invocations - L.SequentialInvocations);
  const double Submitted = static_cast<double>(T.Sched.Submitted);

  R.add("sched.submit_us_p50", median(Submit), "us");
  R.add("sched.queued_fraction",
        ratio(static_cast<double>(T.Sched.TotalQueuedMicros), CallUs),
        "fraction");
  R.add("sched.deferred_fraction",
        ratio(static_cast<double>(T.Sched.DeferredGrants), Submitted),
        "fraction");
  R.add("sched.capped_fraction",
        ratio(static_cast<double>(T.Sched.CappedGrants), Submitted),
        "fraction");
  R.add("sched.lanes_per_inv",
        ratio(static_cast<double>(L.GrantedLanes), Parallel), "lanes");

  R.add("resolve.get_us_p50", quantile(Get, 0.5), "us");
  R.add("resolve.get_us_p99", quantile(Get, 0.99), "us");
  R.add("resolve.share", ratio(GetSum, CallUs), "fraction");

  const double Iters = static_cast<double>(L.TotalIterations);
  R.add("spec.misspec_rate",
        ratio(static_cast<double>(L.MisspeculatedInvocations), Inv),
        "fraction");
  R.add("spec.sequential_fraction",
        ratio(static_cast<double>(L.SequentialInvocations), Inv), "fraction");
  R.add("spec.wasted_fraction",
        ratio(static_cast<double>(L.WastedIterations), Iters), "fraction");
  R.add("spec.recovery_fraction",
        ratio(static_cast<double>(L.RecoveryIterations), Iters), "fraction");
  R.add("spec.conflict_squashes_per_inv",
        ratio(static_cast<double>(L.ConflictSquashes), Inv), "count");
  R.add("plan.load_imbalance",
        ratio(L.ImbalanceSum, static_cast<double>(L.ImbalanceSamples)),
        "ratio");
  R.add("plan.chunk_imbalance",
        ratio(L.ChunkImbalanceSum,
              static_cast<double>(L.ChunkImbalanceSamples)),
        "ratio");

  R.add("pool.spec_chunks_per_inv",
        ratio(static_cast<double>(L.LaunchedSpecThreads), Inv), "count");
  R.add("pool.stolen_per_inv",
        ratio(static_cast<double>(L.StolenChunks), Inv), "count");
  R.add("pool.main_helped_fraction",
        ratio(static_cast<double>(L.MainHelpedChunks),
              static_cast<double>(L.LaunchedSpecThreads)),
        "fraction");
  R.add("pool.session_reuse_fraction",
        ratio(static_cast<double>(T.Sessions.SessionPoolHits),
              static_cast<double>(T.Sessions.SessionPoolHits +
                                  T.Sessions.SessionsCreated)),
        "fraction");

  R.add("buffer.table_slots", static_cast<double>(T.Buffers.TableSlots),
        "count");
  R.add("buffer.rehashes", static_cast<double>(T.Buffers.Rehashes), "count");
  R.add("buffer.heap_tables", static_cast<double>(T.Buffers.HeapTables),
        "count");

  R.add("tune.k_mean", ratio(KSum, static_cast<double>(Requests)), "k");
  R.add("tune.decisions", static_cast<double>(T.TuneDecisions), "count");

  R.add("cpu.client_us_per_inv",
        ratio(TracedClientCpu, static_cast<double>(TracedRequests)), "us");
  R.add("cpu.worker_us_per_inv",
        ratio(ProcCpuUs - ClientCpuUs, static_cast<double>(Requests)), "us");
  R.add("cpu.resolve_busy_fraction", ratio(TracedGetCpu, TracedGetWall),
        "fraction");

  double Coverage = 0;
  if (Trace) {
    double RequestUs = Trace->totalUs("request");
    Coverage = ratio(RequestUs - Trace->selfUs("request"), RequestUs);
  }
  R.add("trace.coverage", Coverage, "fraction");
  R.add("trace.overhead_fraction",
        TraceRatios.empty() ? 0 : geomean(TraceRatios) - 1, "fraction");
}

void addNoJit(Report &R) {
  R.add("jit.vs_interp", 0, "x");
  R.add("jit.deopts", 0, "count");
  R.add("jit.compile_fraction", 0, "fraction");
}

void printLoopTable(const std::vector<const LoopMeter *> &Meters) {
  std::printf("  %-10s %9s %6s %7s %8s %11s %11s %11s %10s\n", "loop",
              "requests", "failed", "slices", "speedup", "lat_p50_us",
              "lat_p99_us", "seq_us/req", "ips");
  for (const LoopMeter *M : Meters) {
    double Seq = 0;
    for (const Slice &S : M->Slices)
      Seq += S.SeqUs;
    std::printf("  %-10s %9llu %6llu %7zu %8.3f %11.1f %11.1f %11.1f "
                "%10.1f\n",
                M->Name.c_str(), static_cast<unsigned long long>(M->Requests),
                static_cast<unsigned long long>(M->Failed), M->Slices.size(),
                sliceMedian(M->Slices, &Slice::speedup),
                quantile(M->LatencyUs, 0.5), quantile(M->LatencyUs, 0.99),
                ratio(Seq, static_cast<double>(M->Requests)),
                sliceMedian(M->Slices, &Slice::throughput));
  }
}

} // namespace spicebench
