//===- topology/Placement.h - NUMA-aware worker placement -------*- C++ -*-===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer over topology::Topology (docs/topology.md): given a
/// worker count, Placement assigns every pool worker a home node and a
/// cpu slot, and answers the locality questions the runtime asks:
///
///  * The Scheduler's lease ledger packs each lease onto one node and
///    leases node-contiguously (nodeOfWorker, workerRangeOfNode);
///    WorkerPool keeps per-node session/SpecWriteBuffer freelist shards.
///  * ChunkDeques orders steal victims same-core -> same-node -> remote
///    (victimOrder).
///  * SpiceRuntime composes workerStartHook() in front of the user's
///    RuntimeConfig::WorkerStartHook to pin workers -- on real
///    (discovered) topologies only; synthetic ones never pin.
///
/// Workers are distributed over nodes proportionally to node cpu
/// counts (largest remainder, ties to the lower node id) and laid out
/// node-contiguously: node 0's workers first, then node 1's, so a
/// node's workers form one index range and "grant from one node" is
/// "grant one contiguous lane range". With placement off
/// (PlacementConfig::Mode::Off, the default) none of this engages and
/// the runtime behaves bit-for-bit as before.
///
//===----------------------------------------------------------------------===//

#ifndef SPICE_TOPOLOGY_PLACEMENT_H
#define SPICE_TOPOLOGY_PLACEMENT_H

#include "topology/Topology.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace spice {
namespace topology {

/// The RuntimeConfig::Topology knob: whether and how the runtime builds
/// a Placement at construction.
struct PlacementConfig {
  enum class Mode : uint8_t {
    /// No topology: the runtime behaves exactly as without this
    /// subsystem. The default.
    Off,
    /// Use SPICE_TOPOLOGY when set, else discover the real machine.
    Auto,
    /// Use the Fake topology below verbatim (tests, single-node CI).
    Override,
  };

  Mode M = Mode::Off;
  /// The injected topology for Mode::Override.
  Topology Fake;
  /// Pin worker threads to their node's cpus (real topologies only;
  /// synthetic topologies are never pinned to regardless).
  bool PinWorkers = true;

  static PlacementConfig off() { return {}; }
  static PlacementConfig automatic(bool Pin = true) {
    PlacementConfig C;
    C.M = Mode::Auto;
    C.PinWorkers = Pin;
    return C;
  }
  static PlacementConfig overrideWith(Topology T) {
    PlacementConfig C;
    C.M = Mode::Override;
    C.Fake = std::move(T);
    return C;
  }

  bool enabled() const { return M != Mode::Off; }
};

/// Immutable worker->node/cpu assignment for one pool size. Shared by
/// the pool, its deques, and the start hook via shared_ptr; all
/// accessors are const and thread-safe.
class Placement {
public:
  Placement(Topology T, unsigned NumWorkers, bool PinWorkers);

  unsigned numWorkers() const {
    return static_cast<unsigned>(WorkerNode.size());
  }
  unsigned numNodes() const { return Topo.numNodes(); }

  /// Home node of pool worker \p Worker.
  unsigned nodeOfWorker(unsigned Worker) const { return WorkerNode[Worker]; }

  /// Cpu slot (Topology index) of pool worker \p Worker. Workers beyond
  /// a node's cpu count wrap onto its slots round-robin; two workers on
  /// the same slot count as sharing a core for steal ordering.
  unsigned cpuOfWorker(unsigned Worker) const { return WorkerCpu[Worker]; }

  /// Worker-index range [first, last) of \p Node. Workers are laid out
  /// node-contiguously, so this is the node's lanes in the pool.
  std::pair<unsigned, unsigned> workerRangeOfNode(unsigned Node) const {
    return {NodeFirst[Node], NodeFirst[Node] + NodeCount[Node]};
  }

  /// Workers assigned to \p Node (== range width of workerRangeOfNode).
  unsigned workersOfNode(unsigned Node) const { return NodeCount[Node]; }

  const Topology &topology() const { return Topo; }

  /// True when workerStartHook() will actually pin: pinning requested
  /// and the topology's os cpu ids are real (non-synthetic).
  bool pinsWorkers() const { return Pin && !Topo.synthetic(); }

  /// Start hook for WorkerPool: pins worker I to its node's cpus (when
  /// pinsWorkers()), then runs \p Chained (the user's hook). The
  /// returned callable owns its data by value; it outlives this
  /// Placement safely.
  std::function<void(unsigned)>
  workerStartHook(std::function<void(unsigned)> Chained) const;

  /// Steal-victim order for \p Lane among lanes with the given cpu
  /// slots and nodes: same-cpu lanes first, then same-node, then
  /// remote, each class in ring order starting after \p Lane. Pure;
  /// exposed for tests. \p Out is cleared and filled with the
  /// LaneCpus.size()-1 victims.
  static void victimOrder(unsigned Lane, const std::vector<unsigned> &LaneCpus,
                          const std::vector<unsigned> &LaneNodes,
                          std::vector<unsigned> &Out);

private:
  Topology Topo;
  bool Pin = false;
  std::vector<unsigned> WorkerNode;  // worker -> node
  std::vector<unsigned> WorkerCpu;   // worker -> cpu slot
  std::vector<unsigned> NodeFirst;   // node -> first worker index
  std::vector<unsigned> NodeCount;   // node -> worker count
};

/// Builds the runtime's Placement from its config knob: null when
/// placement is Off, the resolved topology is empty, or there are no
/// workers. Mode::Auto resolves SPICE_TOPOLOGY first, then discovers
/// the real machine.
std::shared_ptr<const Placement> makePlacement(const PlacementConfig &C,
                                               unsigned NumWorkers);

/// The start hook WorkerPool should run: the placement's pinning hook
/// chained in front of \p UserHook, or \p UserHook unchanged when \p P
/// is null.
std::function<void(unsigned)>
composedStartHook(const std::shared_ptr<const Placement> &P,
                  std::function<void(unsigned)> UserHook);

} // namespace topology
} // namespace spice

#endif // SPICE_TOPOLOGY_PLACEMENT_H
