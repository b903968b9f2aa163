//===- sched/DepGraph.cpp - Straight-line dependence graph -----------------===//

#include "sched/DepGraph.h"

#include <algorithm>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::sched;
using namespace tpdbt::guest;

void DepGraph::addEdge(uint32_t From, uint32_t To, unsigned Latency) {
  assert(From < To && "dependences point forward");
  Nodes[To].Preds.emplace_back(From, Latency);
}

void DepGraph::addRegisterDeps(uint32_t Idx, const Inst &In) {
  auto ReadReg = [&](uint8_t R) {
    if (LastDef[R] != NoDef)
      addEdge(static_cast<uint32_t>(LastDef[R]), Idx,
              Nodes[LastDef[R]].latency()); // RAW
    LastUses[R].push_back(Idx);
  };
  if (opcodeReadsRa(In.Op))
    ReadReg(In.Ra);
  if (opcodeReadsRb(In.Op))
    ReadReg(In.Rb);

  if (opcodeWritesRd(In.Op)) {
    uint8_t R = In.Rd;
    // WAR against earlier readers, WAW against the earlier definition.
    for (uint32_t Use : LastUses[R])
      if (Use != Idx)
        addEdge(Use, Idx, 1);
    if (LastDef[R] != NoDef && static_cast<uint32_t>(LastDef[R]) != Idx)
      addEdge(static_cast<uint32_t>(LastDef[R]), Idx, 1);
    LastDef[R] = static_cast<int>(Idx);
    LastUses[R].clear();
  }
}

void DepGraph::addInst(const Inst &In) {
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  DepNode N;
  N.Inst = In;
  Nodes.push_back(std::move(N));

  addRegisterDeps(Idx, In);

  // Memory ordering: stores order with everything; loads order with the
  // last store only.
  if (In.Op == Opcode::Load) {
    if (LastStore != NoDef)
      addEdge(static_cast<uint32_t>(LastStore), Idx, 1);
    LoadsSinceStore.push_back(Idx);
  } else if (In.Op == Opcode::Store) {
    if (LastStore != NoDef)
      addEdge(static_cast<uint32_t>(LastStore), Idx, 1);
    for (uint32_t L : LoadsSinceStore)
      addEdge(L, Idx, 1);
    LoadsSinceStore.clear();
    LastStore = static_cast<int>(Idx);
  }

  // Nothing moves above a prior branch (no speculation model).
  if (LastTerminator != NoDef)
    addEdge(static_cast<uint32_t>(LastTerminator), Idx, 1);
}

void DepGraph::addTerminator(const Terminator &T) {
  uint32_t Idx = static_cast<uint32_t>(Nodes.size());
  DepNode N;
  N.IsTerminator = true;
  N.Term = T;
  Nodes.push_back(std::move(N));

  // Branches read their condition registers.
  if (T.Kind == TermKind::Branch) {
    auto ReadReg = [&](uint8_t R) {
      if (LastDef[R] != NoDef)
        addEdge(static_cast<uint32_t>(LastDef[R]), Idx,
                Nodes[LastDef[R]].latency());
      LastUses[R].push_back(Idx);
    };
    ReadReg(T.Ra);
    if (!condUsesImm(T.Cond))
      ReadReg(T.Rb);
  }
  // Branches stay ordered among themselves; within a hyperblock a branch
  // may otherwise issue as soon as its condition is ready (later
  // instructions are predicated on it, which the LastTerminator edges in
  // addInst model).
  if (LastTerminator != NoDef)
    addEdge(static_cast<uint32_t>(LastTerminator), Idx, 1);
  LastTerminator = static_cast<int>(Idx);
}

unsigned DepGraph::criticalPathLength() const {
  std::vector<unsigned> Finish(Nodes.size(), 0);
  unsigned Max = 0;
  for (size_t I = 0; I < Nodes.size(); ++I) {
    unsigned Start = 0;
    for (auto [Pred, Lat] : Nodes[I].Preds)
      Start = std::max(Start, Finish[Pred] - 1 + Lat);
    Finish[I] = Start + 1;
    Max = std::max(Max, Finish[I]);
  }
  return Max;
}
