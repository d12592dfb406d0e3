//===- benchmark/main.cpp - spicebench command line -----------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
//   spicebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out FILE]
//   spicebench --check [--workload <name>]
//   spicebench --workload serve_open --capacity
//
// One run prints the machine fingerprint, every metric it measured by
// name with its unit, and ends with one JSON line: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). --check runs a few
// hundred oracle-checked requests per workload on small inputs and exits
// non-zero on any mismatch. --capacity measures the closed-loop capacity
// that serve_open's rate ladder is frozen to.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace spicebench;

namespace {

/// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {"setup_s", "speedup",
                                            "speedup_p05", "cpu_overhead"};

/// The per-layer metrics, in BENCHMARK.json order.
const std::vector<std::string> kPerLayer = {
    "throughput_ips",
    "latency_p50_us",
    "latency_p99_us",
    "cpu_us_per_inv",
    "max_rps_in_slo",
    "sched.submit_us_p50",
    "sched.queued_fraction",
    "sched.deferred_fraction",
    "sched.capped_fraction",
    "sched.lanes_per_inv",
    "resolve.get_us_p50",
    "resolve.get_us_p99",
    "resolve.share",
    "spec.misspec_rate",
    "spec.sequential_fraction",
    "spec.wasted_fraction",
    "spec.recovery_fraction",
    "spec.conflict_squashes_per_inv",
    "plan.load_imbalance",
    "plan.chunk_imbalance",
    "pool.spec_chunks_per_inv",
    "pool.stolen_per_inv",
    "pool.main_helped_fraction",
    "pool.session_reuse_fraction",
    "buffer.table_slots",
    "buffer.rehashes",
    "buffer.heap_tables",
    "tune.k_mean",
    "tune.decisions",
    "jit.vs_interp",
    "jit.deopts",
    "jit.compile_fraction",
    "cpu.client_us_per_inv",
    "cpu.worker_us_per_inv",
    "cpu.resolve_busy_fraction",
    "trace.coverage",
    "trace.overhead_fraction"};

struct Workload {
  const char *Name;
  bool (*Run)(const Options &, Report &, Tracer *);
};

const Workload kWorkloads[] = {
    {"paper_ro", runPaperRO},
    {"conflict_rw", runConflictRW},
    {"submit_storm", runSubmitStorm},
    {"serve_open", runServeOpen},
};

/// Requests per loop (kernel workloads) or per client under --check.
constexpr uint64_t kCheckRequests = 100;

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned Regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned I = 0; I != 3; ++I)
      __get_cpuid(0x80000002 + I, &Regs[4 * I], &Regs[4 * I + 1],
                  &Regs[4 * I + 2], &Regs[4 * I + 3]);
    char Brand[49] = {};
    std::memcpy(Brand, Regs, 48);
    std::string S(Brand);
    size_t B = S.find_first_not_of(' ');
    return B == std::string::npos ? "unknown" : S.substr(B);
  }
#endif
  return "unknown";
}

/// Prints the fingerprint; false when this build must not be measured.
bool fingerprint() {
#ifdef __clang__
  const char *Compiler = "clang " __clang_version__;
#else
  const char *Compiler = "gcc " __VERSION__;
#endif
#ifdef SPICEBENCH_BUILD_TYPE
  const char *BuildType = SPICEBENCH_BUILD_TYPE;
#else
  const char *BuildType = "unknown";
#endif
  const char *Sha = std::getenv("SPICEBENCH_GIT_SHA");
  std::printf("fingerprint nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s "
              "git=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(), Compiler,
              BuildType, Sha && *Sha ? Sha : "unknown");
  bool Sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  Sanitized = true;
#endif
#endif
  bool Debug = true;
#ifdef NDEBUG
  Debug = false;
#endif
  if (Debug || Sanitized) {
    std::fprintf(stderr, "spicebench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 Sanitized ? "sanitizer" : "debug (assertions on)");
    return false;
  }
  return true;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : kWorkloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "spicebench: %s\n"
               "usage: spicebench --workload <paper_ro|conflict_rw|"
               "submit_storm|serve_open>\n"
               "                  [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-out FILE]\n"
               "       spicebench --check [--workload <name>]\n"
               "       spicebench --workload serve_open --capacity\n",
               Why);
  std::exit(2);
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0';
}

int runCheck(const Options &Base) {
  bool AllOk = true;
  for (const Workload &W : kWorkloads) {
    if (!Base.Workload.empty() && Base.Workload != W.Name)
      continue;
    Options O = Base;
    O.Workload = W.Name;
    O.CheckRequests = kCheckRequests;
    Report R;
    bool Ran = W.Run(O, R, nullptr);
    bool Ok = Ran && R.Failed == 0 && R.Attempted > 0;
    std::printf("check %-13s %s: %llu requests, %llu failed\n", W.Name,
                Ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(R.Attempted),
                static_cast<unsigned long long>(R.Failed));
    AllOk &= Ok;
  }
  return AllOk ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  nowUs(); // Pin the clock origin before anything is timed.
  Options O;
  bool Check = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    double N = 0;
    if (A == "--workload") {
      O.Workload = Value();
    } else if (A == "--seed") {
      const char *S = Value();
      char *End = nullptr;
      errno = 0;
      O.Seed = std::strtoull(S, &End, 10);
      if (End == S || *End != '\0' || *S == '-' || errno == ERANGE)
        usage("--seed takes a non-negative integer");
    } else if (A == "--seconds") {
      if (!parseNumber(Value(), N) || N <= 0 || N > 3600)
        usage("--seconds takes a positive number of seconds");
      O.Seconds = N;
    } else if (A == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--trace-out") {
      O.TracePath = Value();
    } else if (A == "--check") {
      Check = true;
    } else if (A == "--capacity") {
      O.Capacity = true;
    } else if (A == "--help" || A == "-h") {
      usage("help");
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!O.Workload.empty() && !findWorkload(O.Workload))
    usage(("unknown workload " + O.Workload).c_str());
  if (O.Capacity && O.Workload != "serve_open")
    usage("--capacity applies to serve_open only");

  if (!fingerprint())
    return 3;
  if (Check)
    return runCheck(O);
  if (O.Workload.empty())
    usage("--workload is required");

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  std::fflush(stdout);
  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>(/*NumThreads=*/2,
                                 /*RawCapPerThread=*/20000);
  Report R;
  if (!findWorkload(O.Workload)->Run(O, R, T.get()))
    return 1;
  R.print();
  if (T) {
    T->printSelfTimes();
    std::string Path =
        O.TracePath.empty() ? "spicebench-trace.json" : O.TracePath;
    std::filesystem::path Dir = std::filesystem::path(Path).parent_path();
    if (!Dir.empty())
      std::filesystem::create_directories(Dir);
    if (!T->writeChromeJson(Path))
      return 1;
  }
  if (O.Capacity)
    return 0;
  std::fflush(stdout);
  return R.printResult(O.Trace ? kPerLayer : kEndToEnd) ? 0 : 1;
}
