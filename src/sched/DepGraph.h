//===- sched/DepGraph.h - Straight-line dependence graph --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dependence graph over a straight-line guest-instruction sequence:
/// register RAW (with producer latency), WAR/WAW (latency 0 in an
/// in-order machine, modelled as latency-1 ordering edges to keep the
/// schedule conservative), and memory ordering (loads may reorder with
/// loads; stores order with every other memory access — the guest has no
/// alias analysis).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SCHED_DEPGRAPH_H
#define TPDBT_SCHED_DEPGRAPH_H

#include "guest/Program.h"
#include "sched/MachineModel.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace sched {

/// One instruction slot in the graph. Terminators are encoded as
/// IsTerminator nodes (branch unit, reading the terminator's registers).
struct DepNode {
  guest::Inst Inst;
  bool IsTerminator = false;
  guest::Terminator Term;
  /// (predecessor index, latency) pairs.
  std::vector<std::pair<uint32_t, unsigned>> Preds;

  UnitKind unit() const {
    return IsTerminator ? terminatorUnit() : unitFor(Inst.Op);
  }
  unsigned latency() const {
    return IsTerminator ? terminatorLatency() : latencyOf(Inst.Op);
  }
};

/// Dependence DAG over one flattened sequence.
class DepGraph {
public:
  /// Appends a plain instruction.
  void addInst(const guest::Inst &In);

  /// Appends a block terminator (conditional branches read their
  /// condition registers and order after every prior node, modelling the
  /// control dependence of later blocks in a hyperblock).
  void addTerminator(const guest::Terminator &T);

  size_t size() const { return Nodes.size(); }
  const DepNode &node(size_t I) const { return Nodes[I]; }

  /// Length of the longest latency path (a lower bound for any schedule).
  unsigned criticalPathLength() const;

private:
  void addRegisterDeps(uint32_t Idx, const guest::Inst &In);
  void addEdge(uint32_t From, uint32_t To, unsigned Latency);

  std::vector<DepNode> Nodes;
  // Bookkeeping for dependence construction.
  static constexpr int NoDef = -1;
  int LastDef[guest::NumRegs] = {};
  std::vector<std::vector<uint32_t>> LastUses =
      std::vector<std::vector<uint32_t>>(guest::NumRegs);
  int LastStore = NoDef;
  std::vector<uint32_t> LoadsSinceStore;
  int LastTerminator = NoDef;

public:
  /// An empty graph under the region-scheduling rules above: loads
  /// reorder with loads and float past independent ALU ops.
  DepGraph() {
    for (auto &D : LastDef)
      D = NoDef;
  }
};

} // namespace sched
} // namespace tpdbt

#endif // TPDBT_SCHED_DEPGRAPH_H
