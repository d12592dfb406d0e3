//===- benchmark/Bench.h - spicebench shared harness ------------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every spicebench workload shares: clocks (wall, thread CPU,
/// process CPU), order statistics, the span tracer behind --trace, the
/// per-loop meter that times each call into the runtime from outside, the
/// counter tally that folds the runtime's public stats accessors into
/// per-layer ratios, and the metric report that ends in the one-line JSON
/// result.
///
/// Everything here observes the runtime through its public API; nothing
/// reaches into src/.
///
//===----------------------------------------------------------------------===//

#ifndef SPICEBENCH_BENCH_H
#define SPICEBENCH_BENCH_H

#include "core/SpecWriteBuffer.h"
#include "core/SpiceConfig.h"
#include "core/SpiceRuntime.h"
#include "core/WorkerPool.h"
#include "support/Random.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spicebench {

//===----------------------------------------------------------------------===//
// Clocks and order statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock since the first call in the process.
double nowUs();

/// Sleeps until nowUs() reaches \p Us.
void sleepUntilUs(double Us);

/// CPU time of the calling thread, in microseconds.
double threadCpuUs();

/// CPU time of the whole process (every thread), in microseconds.
double processCpuUs();

/// Linear-interpolation quantile (\p Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);

/// Geometric mean of the positive entries of \p V; 0 when there are none.
double geomean(const std::vector<double> &V);

/// Stream \p Stream of the run's seed: every generator of one run draws
/// from its own stream, so adding a draw to one input never shifts
/// another.
uint64_t deriveSeed(uint64_t Seed, uint64_t Stream);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One client thread's span recorder. Spans nest (a stack per thread);
/// each span's self time is its duration minus what its children cover.
/// Per-name totals are kept for every span, raw spans only up to a cap
/// so the Chrome trace file stays small.
class ThreadTrace {
public:
  ThreadTrace(unsigned Tid, size_t RawCap);

  /// Opens span \p Name (a static string "layer/op") at \p StartUs.
  void begin(const char *Name, double StartUs, uint64_t Request);
  /// Closes the innermost open span at \p EndUs.
  void end(double EndUs);

  struct Totals {
    uint64_t Count = 0;
    double TotalUs = 0;
    double SelfUs = 0;
  };
  /// Keyed by the span-name literal (pointer identity).
  const std::map<const char *, Totals> &totals() const { return ByName; }

  struct RawSpan {
    const char *Name;
    double StartUs, EndUs;
    uint32_t Id, Parent;
    uint64_t Request;
  };
  const std::vector<RawSpan> &raw() const { return Raw; }
  unsigned tid() const { return Tid; }
  uint64_t dropped() const { return Dropped; }

private:
  struct Open {
    const char *Name;
    double StartUs;
    double ChildUs;
    uint32_t Id;
    uint32_t Parent;
    uint64_t Request;
  };
  unsigned Tid;
  size_t RawCap;
  uint32_t NextId = 1;
  uint64_t Dropped = 0;
  std::vector<Open> Stack;
  std::vector<RawSpan> Raw;
  std::map<const char *, Totals> ByName;
};

/// All client threads' traces of one run, created up front; each client
/// thread writes only its own ThreadTrace.
class Tracer {
public:
  Tracer(unsigned NumThreads, size_t RawCapPerThread);
  ThreadTrace &thread(unsigned Tid) { return *Threads.at(Tid); }

  /// Writes every kept raw span as Chrome trace-event JSON.
  bool writeChromeJson(const std::string &Path) const;
  /// Prints self time per layer (the span-name prefix before '/').
  void printSelfTimes() const;
  /// Sum of durations of spans named \p Name across threads.
  double totalUs(const std::string &Name) const;
  /// Sum of child-free time of spans named \p Name across threads.
  double selfUs(const std::string &Name) const;

private:
  std::vector<std::unique_ptr<ThreadTrace>> Threads;
};

//===----------------------------------------------------------------------===//
// Per-loop meter
//===----------------------------------------------------------------------===//

/// The requests of one slice of the measured window. Co-tenant
/// interference on a shared host slows single cores by up to ~40% for
/// seconds at a time, so every timing is computed per slice and reported
/// as the median over the run's slices: a minority of disturbed slices
/// does not move it. (Drift over minutes, across runs, is what the ratio
/// metrics cancel: each request's Spice time is paired with a sequential
/// reference taken next to it.)
struct Slice {
  std::vector<double> LatencyUs;
  /// Per request with a reference: sequential time over service time.
  std::vector<double> Ratios;
  double ServiceUs = 0; ///< Sum of the Spice part of each request.
  double SeqUs = 0;     ///< Sum of sequential-reference times.
  double CpuUs = 0;     ///< Runtime CPU, where the workload attributes it.
  double WallUs = 0;    ///< Wall time of the slice, where it is fixed.
  uint64_t Requests = 0;

  /// Requests per second of service time (one client at a time).
  double throughput() const {
    return ServiceUs > 0 ? Requests / ServiceUs * 1e6 : 0;
  }
  /// Requests per second of the slice's wall time (all clients).
  double rate() const { return WallUs > 0 ? Requests / WallUs * 1e6 : 0; }
  double speedup() const { return ServiceUs > 0 ? SeqUs / ServiceUs : 0; }
  double cpuPerRequest() const { return Requests ? CpuUs / Requests : 0; }
  /// Runtime CPU over the sequential reference's time for the same work.
  double cpuOverhead() const { return SeqUs > 0 ? CpuUs / SeqUs : 0; }
  /// The per-request speedup of the slowest 5% of the slice's requests
  /// (the 5th percentile keeps ten or more samples beyond it in every
  /// workload's slices).
  double tailSpeedup() const { return quantile(Ratios, 0.05); }
  double latencyP50() const { return quantile(LatencyUs, 0.5); }
  double latencyP99() const { return quantile(LatencyUs, 0.99); }
};

/// Median over the non-empty slices of the slice statistic \p Stat.
inline double sliceMedian(const std::vector<Slice> &Slices,
                          double (Slice::*Stat)() const) {
  std::vector<double> V;
  for (const Slice &S : Slices)
    if (S.Requests)
      V.push_back((S.*Stat)());
  return quantile(V, 0.5);
}

/// Everything measured from outside about one loop handle in the
/// measured window: per-call wall times of submit() and get(), per-
/// request latency and sequential-reference time by slice, and (on
/// traced requests) the client thread's CPU inside those calls.
struct LoopMeter {
  std::string Name;
  std::vector<double> SubmitUs;  ///< Per runtime invocation.
  std::vector<double> GetUs;     ///< Per runtime invocation.
  std::vector<double> LatencyUs; ///< Per request (oracle-checked unit).
  std::vector<uint8_t> RequestTraced;
  std::vector<Slice> Slices;
  unsigned Current = 0; ///< Slice that finishRequest() adds to.
  double KSum = 0;      ///< Sum of effective k, one sample per request.
  uint64_t Requests = 0;
  uint64_t Failed = 0;
  /// Traced requests only.
  double TracedGetWallUs = 0;
  double TracedGetCpuUs = 0;
  double TracedClientCpuUs = 0;
  uint64_t TracedRequests = 0;

  void reserve(size_t N);
  /// Directs the following requests to slice \p S.
  Slice &slice(unsigned S);
  /// Records one finished request: \p LatencyUs as the user sees it,
  /// \p ServiceUs of it spent in the Spice part (the two differ only
  /// when an open-loop request waited for its client), \p SeqUs of
  /// sequential reference on the same input, \p K the loop's chunks per
  /// thread.
  void finishRequest(double LatencyUs, double ServiceUs, double SeqUs,
                     bool Traced, bool Ok, unsigned K);
};

/// The request a client thread is running, as its calls into the runtime
/// see it.
struct CallContext {
  ThreadTrace *Trace = nullptr; ///< Non-null in --trace runs.
  /// Half the requests of a --trace run are traced (a seeded coin); the
  /// untraced half is the baseline of trace.overhead_fraction.
  bool TraceThisRequest = false;
  uint64_t Request = 0;

  bool traced() const { return Trace && TraceThisRequest; }
};

/// Opens a span on a traced request.
inline void spanBegin(CallContext &Ctx, const char *Name, double T) {
  if (Ctx.traced())
    Ctx.Trace->begin(Name, T, Ctx.Request);
}

/// Closes the innermost span on a traced request.
inline void spanEnd(CallContext &Ctx, double T) {
  if (Ctx.traced())
    Ctx.Trace->end(T);
}

/// Runs \p F as one span named \p Name; returns its wall time.
template <typename Fn>
double spanned(CallContext &Ctx, const char *Name, Fn &&F) {
  double T0 = nowUs();
  spanBegin(Ctx, Name, T0);
  F();
  double T1 = nowUs();
  spanEnd(Ctx, T1);
  return T1 - T0;
}

/// One call into the runtime: times submit() and get() into \p M, and on
/// a traced request opens a span around each and reads the thread CPU
/// clock. \p Submit returns a future (SpiceFuture or
/// JitLoopRunner::Pending); the result of its get() is returned.
template <typename SubmitFn>
auto timedCall(CallContext &Ctx, LoopMeter &M, const char *SubmitSpan,
               const char *GetSpan, SubmitFn &&Submit) {
  const bool Traced = Ctx.traced();
  double C0 = Traced ? threadCpuUs() : 0;
  double T0 = nowUs();
  if (Traced)
    Ctx.Trace->begin(SubmitSpan, T0, Ctx.Request);
  auto Future = Submit();
  double T1 = nowUs();
  double C1 = 0;
  if (Traced) {
    Ctx.Trace->end(T1);
    C1 = threadCpuUs();
    Ctx.Trace->begin(GetSpan, T1, Ctx.Request);
  }
  auto Result = Future.get();
  double T2 = nowUs();
  if (Traced) {
    double C2 = threadCpuUs();
    Ctx.Trace->end(T2);
    M.TracedGetWallUs += T2 - T1;
    M.TracedGetCpuUs += C2 - C1;
    M.TracedClientCpuUs += C2 - C0;
  }
  M.SubmitUs.push_back(T1 - T0);
  M.GetUs.push_back(T2 - T1);
  return Result;
}

//===----------------------------------------------------------------------===//
// Counter tally
//===----------------------------------------------------------------------===//

/// Sums of the runtime's public counters over the measured window (the
/// fields the per-layer metrics read): SpiceStats deltas of every loop,
/// SchedulerStats and SessionPoolStats deltas of the runtime, and
/// end-of-window buffer-pool snapshots.
struct Tally {
  spice::core::SpiceStats Loop;
  spice::core::SchedulerStats Sched;
  spice::core::SessionPoolStats Sessions;
  spice::core::SpecBufferPoolStats Buffers;
  uint64_t TuneDecisions = 0;
  uint64_t JitDeopts = 0;

  void addLoopDelta(const spice::core::SpiceStats &Before,
                    const spice::core::SpiceStats &After);
  void addRuntimeDelta(const spice::core::SchedulerStats &SB,
                       const spice::core::SchedulerStats &SA,
                       const spice::core::SessionPoolStats &PB,
                       const spice::core::SessionPoolStats &PA);
  void addBuffers(const spice::core::SpecBufferPoolStats &B);
};

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

/// The run's options (see main.cpp for the command line).
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  std::string TracePath;
  /// --check: at most this many requests per loop (kernel workloads) or
  /// per client (serving workloads), on small inputs; 0 = run the window.
  uint64_t CheckRequests = 0;
  /// Serve workload only: measure closed-loop capacity instead of the
  /// open-loop ladder (how the frozen capacity constant was obtained).
  bool Capacity = false;
};

/// Metrics of one run, in print order. A workload adds every metric it
/// measures; main.cpp selects the end-to-end or per-layer set for the
/// result line.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit);
  void print() const;
  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly \p Names. Returns false when one of them is missing.
  bool printResult(const std::vector<std::string> &Names) const;

  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
};

/// Per-layer metrics common to every workload: everything derivable from
/// the meters, the counter tally and the trace. \p ProcCpuUs is the
/// process CPU over the measured window and \p ClientCpuUs the client
/// threads' CPU over it; the difference is the workers'.
void addLayerMetrics(Report &R, const std::vector<const LoopMeter *> &Meters,
                     const Tally &T, const Tracer *Trace, double ProcCpuUs,
                     double ClientCpuUs);

/// The JIT-layer metrics of a workload that runs no JIT loop (all 0).
void addNoJit(Report &R);

/// Prints one line per loop: requests, speedup, latency quantiles.
void printLoopTable(const std::vector<const LoopMeter *> &Meters);

/// Median of \p V (0 when empty).
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Workload entry points (Kernels.cpp, Serving.cpp). Each fills \p R and
/// returns false on a setup error it cannot report as a failed request.
bool runPaperRO(const Options &O, Report &R, Tracer *T);
bool runConflictRW(const Options &O, Report &R, Tracer *T);
bool runSubmitStorm(const Options &O, Report &R, Tracer *T);
bool runServeOpen(const Options &O, Report &R, Tracer *T);

} // namespace spicebench

#endif // SPICEBENCH_BENCH_H
