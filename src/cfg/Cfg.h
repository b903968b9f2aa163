//===- cfg/Cfg.h - Control-flow graph over a guest program ------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A CFG view over a guest Program: successor/predecessor edges, reverse
/// post order, reachability, natural-loop headers. The taken edge of a
/// conditional branch is always successor 0 — that is the edge whose
/// frequency the profiling phase's "taken" counter measures.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CFG_CFG_H
#define TPDBT_CFG_CFG_H

#include "guest/Program.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace cfg {

/// Immutable CFG derived from a Program.
class Cfg {
public:
  explicit Cfg(const guest::Program &P);

  size_t numBlocks() const { return Succs.size(); }
  guest::BlockId entry() const { return Entry; }

  /// Successors in order (taken edge first for conditional branches). A
  /// conditional branch whose two targets coincide yields one successor.
  const std::vector<guest::BlockId> &successors(guest::BlockId B) const {
    return Succs[B];
  }

  const std::vector<guest::BlockId> &predecessors(guest::BlockId B) const {
    return Preds[B];
  }

  /// True if \p B ends in a conditional branch with two distinct targets.
  bool hasCondBranch(guest::BlockId B) const { return CondBranch[B]; }

  /// The taken-edge target of \p B's conditional branch.
  guest::BlockId takenTarget(guest::BlockId B) const { return Taken[B]; }

  /// The fallthrough target of \p B's conditional branch.
  guest::BlockId fallthroughTarget(guest::BlockId B) const {
    return Fallthrough[B];
  }

  /// Blocks reachable from the entry, in reverse post order.
  const std::vector<guest::BlockId> &rpo() const { return Rpo; }

  bool isReachable(guest::BlockId B) const { return Reachable[B]; }

  /// True when \p B is the header of a natural loop: the target of a back
  /// edge Tail->B where B dominates Tail (the headers findNaturalLoops
  /// returns). Computed once, in the constructor.
  bool isLoopHeader(guest::BlockId B) const { return LoopHeader[B]; }

private:
  guest::BlockId Entry;
  std::vector<std::vector<guest::BlockId>> Succs;
  std::vector<std::vector<guest::BlockId>> Preds;
  std::vector<guest::BlockId> Taken;
  std::vector<guest::BlockId> Fallthrough;
  std::vector<bool> CondBranch;
  std::vector<bool> Reachable;
  std::vector<guest::BlockId> Rpo;
  std::vector<bool> LoopHeader;
};

/// Immediate-dominator tree for a Cfg (Cooper-Harvey-Kennedy iterative
/// algorithm). Unreachable blocks have no dominator information.
class DominatorTree {
public:
  explicit DominatorTree(const Cfg &G);

  /// Immediate dominator of \p B; the entry's idom is itself. Only valid
  /// for reachable blocks.
  guest::BlockId idom(guest::BlockId B) const { return Idom[B]; }

  /// True if \p A dominates \p B (reflexive). False when either block is
  /// unreachable.
  bool dominates(guest::BlockId A, guest::BlockId B) const;

private:
  const Cfg &G;
  std::vector<guest::BlockId> Idom;
  std::vector<uint32_t> RpoIndex;
};

/// A natural loop: header plus the set of body blocks (header included),
/// discovered from back edges Tail->Header where Header dominates Tail.
struct NaturalLoop {
  guest::BlockId Header;
  std::vector<guest::BlockId> Body;     ///< sorted, includes Header
  std::vector<guest::BlockId> BackTails; ///< sources of back edges

  bool contains(guest::BlockId B) const;
};

/// Finds all natural loops. Loops sharing a header are merged (classic
/// treatment). Returned in ascending header order.
std::vector<NaturalLoop> findNaturalLoops(const Cfg &G,
                                          const DominatorTree &DT);

} // namespace cfg
} // namespace tpdbt

#endif // TPDBT_CFG_CFG_H
