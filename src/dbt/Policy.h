//===- dbt/Policy.h - Two-phase translation policy --------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-phase translation *policy*: everything the translator decides
/// per block event (candidate registration, optimization triggering,
/// counter freezing, region-context cost accounting), factored out of the
/// execution loop.
///
/// Because guest execution is deterministic and unaffected by translation
/// decisions, one interpreted execution can drive many policies at once —
/// the experiment driver runs all retranslation thresholds of a figure in
/// a single pass. The block counters are shared: for a block that policy
/// P has not frozen, P's counts equal the shared counts; freezing
/// snapshots them.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_DBT_POLICY_H
#define TPDBT_DBT_POLICY_H

#include "cfg/Cfg.h"
#include "dbt/CostModel.h"
#include "profile/Profile.h"
#include "region/RegionFormer.h"
#include "vm/Interpreter.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace tpdbt {
namespace dbt {

/// Adaptive re-optimization (paper Section 5 future work): monitor each
/// region's side exits (and loop trip behaviour, after [21]) in the
/// optimized code and retranslate regions whose runtime behaviour departs
/// from the profile they were formed on. Retranslation returns the
/// region's blocks to the profiling phase with *fresh* counters — a new
/// profiling phase — so the next optimization uses current behaviour.
struct AdaptiveOptions {
  bool Enabled = false;
  /// Observe at least this many region entries before judging.
  uint64_t MinEntries = 256;
  /// Retranslate a non-loop region whose observed completion probability
  /// falls below this.
  double MinCompletion = 0.4;
  /// Monitor loop regions: retranslate when the observed loop-back
  /// probability changes trip-count class (continuous trip-count
  /// profiling [21]) or most terminations are unexpected side exits.
  bool MonitorLoops = true;
  /// Cap retranslations per region (guards against oscillation).
  int MaxRetranslations = 4;
};

/// Engine/policy configuration.
struct DbtOptions {
  /// Retranslation threshold T; 0 = profiling only (no optimization).
  uint64_t Threshold = 0;
  /// Optimization triggers when the candidate pool reaches this size.
  /// Sized so that the registered-twice trigger normally fires first: by
  /// the time a block reaches 2T, every related block executing at least
  /// half as often has itself registered, so region growth can follow
  /// likely successors and absorb diamond arms instead of degenerating to
  /// singleton regions.
  size_t PoolLimit = 64;
  /// Region-formation tuning.
  region::FormationOptions Formation;
  /// Cycle model parameters.
  CostParams Cost;
  /// Adaptive re-optimization (off by default, matching the paper's
  /// two-phase baseline).
  AdaptiveOptions Adaptive;
};

/// One block frozen by TranslationPolicy::freezeTimeline().
struct FrozenBlock {
  guest::BlockId Block = 0;
  /// Event position of the trigger that froze it.
  double Pos = 0.0;
  /// Its counters at the freeze.
  profile::BlockCounters At;
  /// True for the block whose crossing fired the trigger: its use is
  /// exactly T or 2T.
  bool Crossing = false;
};

/// Per-threshold simulation state. Feed it every executed block via
/// onBlockEvent() (with the shared counters already incremented for this
/// event) and collect the snapshot with finish().
class TranslationPolicy {
public:
  TranslationPolicy(const guest::Program &P, const cfg::Cfg &G,
                    DbtOptions Opts);

  const DbtOptions &options() const { return Opts; }

  /// Processes one executed block. \p Shared are the program-lifetime
  /// counters (identical to every policy's view of unfrozen blocks),
  /// already updated for this event.
  void onBlockEvent(guest::BlockId B, const vm::BlockResult &R,
                    const std::vector<profile::BlockCounters> &Shared);

  /// Builds the INIP snapshot: frozen counts for optimized blocks, shared
  /// end-of-run counts for the rest, plus regions and accounting.
  profile::ProfileSnapshot
  finish(const std::vector<profile::BlockCounters> &SharedFinal,
         uint64_t BlockEvents, uint64_t InstsExecuted) const;

  /// \name Analytic evaluation
  /// The analytic replays reconstruct the freeze timeline instead of
  /// pumping every event through onBlockEvent(): block b's pool
  /// registration is its T-th use and its registered-twice trigger the
  /// 2T-th, so policy state only changes at those crossings.
  /// freezeTimeline() is the one place that rule runs; an engine supplies
  /// only a counter source — exact (core/Trace.cpp, over the trace index)
  /// or estimated (sample/Estimator.cpp, over sampled curves). Each entry
  /// point performs exactly the state change the event pump would at the
  /// same stream position, so the exact snapshot is byte-identical (a
  /// differential test asserts this).
  /// Requires adaptive re-optimization to be off: thawing has no static
  /// timeline. Then every frozen block is a region node: a round freezes
  /// exactly the nodes of the regions it forms, and only adaptive
  /// invalidation removes a region. So a post-freeze event goes to
  /// analyticOptimizedEvent() or, in bulk, analyticSingletonRegion().
  /// @{

  /// True if \p B is frozen (optimized).
  bool isFrozen(guest::BlockId B) const { return Frozen[B]; }

  /// Event position of block B's J-th use (J is T or 2T, at most B's
  /// final use count).
  using CrossingSource = std::function<double(guest::BlockId B, uint64_t J)>;
  /// Fills \p Out with every block's shared counters as of (and
  /// including) the event at position \p Pos.
  using CountersSource = std::function<void(
      double Pos, std::vector<profile::BlockCounters> &Out)>;

  /// Runs the whole freeze timeline over \p Final (every block's final
  /// counters) and returns the frozen blocks in freeze order. Every block
  /// with Final.Use >= T contributes its T-th and 2T-th crossings, taken
  /// in order of position, then block, a block's registration before its
  /// own trigger (estimated positions can tie); crossings of an already
  /// frozen block are skipped. A registration that fills the pool, or a
  /// pooled block's 2T-th use, fires an optimization round on the
  /// counters \p CountersAt gives for the crossing's position, clamped to
  /// what the timeline knows: the crossing block's use is exactly T or
  /// 2T, a pooled block's at least T, and taken <= use <= Final. Exact
  /// counters satisfy every clamp already.
  std::vector<FrozenBlock>
  freezeTimeline(const std::vector<profile::BlockCounters> &Final,
                 const CrossingSource &CrossingPos,
                 const CountersSource &CountersAt);

  /// Closed-form profiling-phase accounting for \p Events block events
  /// (\p TakenEvents of them taken conditional branches, \p Insts guest
  /// instructions total). Order-independent, so the analytic path adds
  /// every block's pre-freeze prefix in one call.
  void analyticAddProfiling(uint64_t Events, uint64_t TakenEvents,
                            uint64_t Insts) {
    ProfilingOps += Events + TakenEvents;
    Account.Cycles +=
        Insts * Opts.Cost.ColdPerInst + Events * Opts.Cost.ProfilePerBlock;
    Account.ColdInsts += Insts;
  }

  /// Accounting and region-context walk for one event on a frozen block.
  void analyticOptimizedEvent(guest::BlockId B, const vm::BlockResult &R) {
    optimizedEvent(B, R, nullptr);
  }

  /// Closed form for every remaining occurrence of a block whose only
  /// region appearance is the single node of region \p RegionIdx, which
  /// it enters. Each occurrence arrives with the automaton outside any
  /// region or at this region's head, so its effect depends only on its
  /// own branch outcome — re-enter and take the back edge, stay at the
  /// head, or exit — making the whole stream a function of the outcome
  /// counts (\p TakenCnt / \p NotTakenCnt, \p Insts guest instructions
  /// total). \p LastTaken is the final occurrence's outcome; it decides
  /// whether a trailing run is still inside the region at trace end,
  /// which is what separates entries from exits.
  void analyticSingletonRegion(int32_t RegionIdx, uint64_t TakenCnt,
                               uint64_t NotTakenCnt, uint64_t Insts,
                               bool LastTaken) {
    const region::Region &Reg = Regions[static_cast<size_t>(RegionIdx)];
    const region::RegionNode &Node = Reg.Nodes.front();
    const CostParams &C = Opts.Cost;
    assert(Reg.Nodes.size() == 1 && TakenCnt + NotTakenCnt > 0 &&
           CtxRegion != RegionIdx &&
           "singleton closed form preconditions violated");
    Account.Cycles += Insts * C.OptPerInst;
    Account.OptInsts += Insts;

    RegionRuntime &RT = Runtime[static_cast<size_t>(RegionIdx)];
    const bool IsLatch =
        Node.TakenSucc == region::BackEdgeSucc ||
        (Node.HasCondBranch && Node.FallSucc == region::BackEdgeSucc);
    uint64_t Exits = 0;
    bool LastExits = false;
    // One outcome group at a time: every taken occurrence follows
    // TakenSucc, every other one FallSucc (TakenSucc too when the block
    // has no conditional branch).
    auto outcomeGroup = [&](int32_t Succ, uint64_t Count, bool IsLast) {
      if (Count == 0)
        return;
      if (Succ >= 0)
        return; // stays at the head: no observable counter
      if (Succ == region::BackEdgeSucc) {
        RT.BackEdges += Count;
        return;
      }
      Exits += Count;
      LastExits |= IsLast;
      if (Reg.Kind == region::RegionKind::NonLoop) {
        // CtxNode == 0 == LastNode for a singleton: always a completion.
        RT.Completions += Count;
      } else if (IsLatch || Succ == region::HaltSucc) {
        RT.LatchExits += Count;
        if (Succ != region::HaltSucc) {
          Account.Cycles += Count * C.LoopExitPenalty;
          Account.LoopExits += Count;
        }
      } else {
        RT.SideExits += Count;
        Account.Cycles += Count * C.SideExitPenalty;
        Account.SideExits += Count;
      }
    };
    const int32_t FallSucc =
        Node.HasCondBranch ? Node.FallSucc : Node.TakenSucc;
    outcomeGroup(Node.TakenSucc, TakenCnt, LastTaken);
    outcomeGroup(FallSucc, NotTakenCnt, !LastTaken);
    // Runs are separated by exits: the stream re-enters after each exit
    // except a final one, plus the initial entry.
    RT.Entries += 1 + Exits - (LastExits ? 1 : 0);
  }

  /// @}

  const CostAccount &cost() const { return Account; }
  const std::vector<region::Region> &regions() const { return Regions; }
  size_t optimizationRounds() const { return Rounds; }

  /// Number of regions the adaptive mechanism retranslated.
  uint64_t retranslations() const { return Retranslations; }

  /// Runtime observations of one live region (adaptive mode).
  struct RegionRuntime {
    uint64_t Entries = 0;
    uint64_t Completions = 0; ///< non-loop: runs reaching the last node
    uint64_t BackEdges = 0;   ///< loop: back-edge traversals
    uint64_t LatchExits = 0;  ///< loop: expected terminations
    uint64_t SideExits = 0;   ///< unexpected exits
    double FormationLp = 0.0; ///< loop-back prob the region was built for
    int RetranslationsLeft = 0;
    bool Dead = false;
  };

  const std::vector<RegionRuntime> &regionRuntime() const {
    return Runtime;
  }

private:
  /// Runs one optimization round; appends the blocks it freezes, in
  /// freeze order, to \p Newly when non-null.
  void triggerOptimization(const std::vector<profile::BlockCounters> &Shared,
                           std::vector<guest::BlockId> *Newly = nullptr);
  void maybeRetranslate(int32_t RegionIdx,
                        const std::vector<profile::BlockCounters> &Shared);
  void invalidateRegion(int32_t RegionIdx,
                        const std::vector<profile::BlockCounters> &Shared);

  /// Accounting and region-context walk for an event on a frozen block.
  /// \p Shared is only needed for adaptive retranslation judgements and
  /// may be null when adaptive mode is off (the analytic path).
  void optimizedEvent(guest::BlockId B, const vm::BlockResult &R,
                      const std::vector<profile::BlockCounters> *Shared);

  /// The policy's view of a block's counters: the shared counts minus the
  /// block's baseline (reset when adaptive retranslation sends the block
  /// back to the profiling phase).
  profile::BlockCounters
  effectiveCounts(guest::BlockId B,
                  const std::vector<profile::BlockCounters> &Shared) const {
    const profile::BlockCounters &S = Shared[B];
    const profile::BlockCounters &Base = BaseCounts[B];
    return {S.Use - Base.Use, S.Taken - Base.Taken};
  }

  const guest::Program &P;
  const cfg::Cfg &G;
  DbtOptions Opts;

  std::vector<profile::BlockCounters> FrozenCounts;
  std::vector<profile::BlockCounters> BaseCounts;
  std::vector<bool> Frozen;
  std::vector<bool> InPool;
  std::vector<uint8_t> LiveRegionCount; ///< live regions containing block
  std::vector<guest::BlockId> Pool;
  std::vector<region::Region> Regions;
  std::vector<RegionRuntime> Runtime;
  std::vector<int32_t> RegionEntryOf;
  uint64_t ProfilingOps = 0;
  uint64_t Retranslations = 0;
  size_t Rounds = 0;
  CostAccount Account;
  int32_t CtxRegion = -1;
  int32_t CtxNode = -1;
};

/// The profiling-only snapshot (AVEP / INIP(train)): with threshold 0
/// nothing ever freezes, so every event is a profiling-phase execution
/// and the snapshot is a closed form of the final counter table and the
/// stream totals (\p NumEvents block events, \p TakenTotal of them taken
/// conditional branches, \p TotalInsts guest instructions). No event,
/// and no replay index, is needed; byte-identical to an event-pumped
/// threshold-0 policy.
profile::ProfileSnapshot
profilingAverage(const guest::Program &P, const cfg::Cfg &G,
                 const DbtOptions &Base,
                 const std::vector<profile::BlockCounters> &Final,
                 uint64_t NumEvents, uint64_t TakenTotal, uint64_t TotalInsts);

} // namespace dbt
} // namespace tpdbt

#endif // TPDBT_DBT_POLICY_H
