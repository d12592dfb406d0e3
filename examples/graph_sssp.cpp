//===- examples/graph_sssp.cpp - Speculative frontier relaxation ----------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The graph-analytics workload family end to end: single-source shortest
// paths as a sequence of frontier waves, each wave one speculative loop
// invocation on a shared SpiceRuntime. Distance reads and writes go
// through the SpecSpace, so two frontier vertices relaxing a common
// neighbor are caught by commit-time value validation -- conflicts are
// real but sparse, and their density depends on the graph shape (try
// swapping the R-MAT generator for CsrGraph::grid).
//
//===----------------------------------------------------------------------===//

#include "core/SpiceRuntime.h"
#include "workloads/Graph.h"

#include <cstdio>

using namespace spice::core;
using namespace spice::workloads;

int main() {
  SpiceRuntime Runtime(/*NumThreads=*/4);
  SsspWorkload Sssp(CsrGraph::rmat(/*NumVertices=*/4096,
                                   /*EdgesPerVertex=*/8, /*Seed=*/42),
                    /*Source=*/0);
  LoopOptions Opts;
  Opts.ChunksPerThread = 2; // Oversubscribe: frontier sizes are skewed.
  SsspWorkload::Loop Relax = Sssp.makeLoop(Runtime, Opts);

  std::printf("speculative SSSP over an R-MAT graph (%zu vertices, %zu "
              "edges)\n\n",
              Sssp.graph().numVertices(), Sssp.graph().numEdges());

  size_t Waves = 0;
  while (!Sssp.done()) {
    size_t Frontier = Sssp.frontierSize();
    RelaxState Wave = Sssp.runWave(Relax);
    if (Waves < 8)
      std::printf("wave %2zu: frontier %5zu, relaxations %6lu\n", Waves,
                  Frontier, (unsigned long)Wave.Relaxations);
    ++Waves;
  }

  size_t Reached = 0;
  for (int64_t D : Sssp.distances())
    Reached += D != SsspWorkload::unreached();
  bool Correct = Sssp.distances() ==
                 SsspWorkload::ssspReference(Sssp.graph(), /*Source=*/0);

  const SpiceStats &S = Relax.stats();
  std::printf("\nwaves:                 %zu\n", Waves);
  std::printf("vertices reached:      %zu\n", Reached);
  std::printf("invocations:           %lu (%lu ran sequentially, %lu of "
              "them held by the sequential rung)\n",
              (unsigned long)S.Invocations,
              (unsigned long)S.SequentialInvocations,
              (unsigned long)S.RungHeldInvocations);
  std::printf("mis-speculated:        %lu (frontier churn + distance "
              "conflicts)\n",
              (unsigned long)S.MisspeculatedInvocations);
  std::printf("conflict squashes:     %lu\n",
              (unsigned long)S.ConflictSquashes);
  std::printf("matches oracle:        %s\n", Correct ? "yes" : "NO");
  return Correct ? 0 : 1;
}
