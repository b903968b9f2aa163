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

  /// \name Oracle-based retirement (trace replay only)
  /// During replay the final per-block counts are known up front, so the
  /// policy can detect the moment after which no future event can change
  /// translation state: no unfrozen block will reach its pool-registration
  /// point (count T) or its registered-twice trigger (count 2T) in the
  /// remainder of the stream. A *settled* policy leaves the per-event
  /// dispatch set and consumes the stream tail through the cheap
  /// onBlockEventSettled() path — or, if it froze nothing at all, through
  /// one closed-form fastForwardTail() call. Requires adaptive
  /// re-optimization to be off (frozen blocks can otherwise thaw);
  /// beginOracle() is a no-op when it is on.
  /// @{

  /// Arms settlement tracking. Must be called before the first event, with
  /// the end-of-run shared counters of the stream about to be replayed.
  void beginOracle(const std::vector<profile::BlockCounters> &FinalShared);

  /// True once no future event can change which blocks are frozen, pooled,
  /// or optimized. Monotonic while the oracle is armed.
  bool settled() const { return OracleArmed && PendingBlocks == 0; }

  /// True if at least one block is currently frozen (optimized).
  bool anyFrozen() const { return FrozenBlocks > 0; }

  /// Cheap per-event path for a settled policy: profiling/optimized cycle
  /// accounting and the region-context walk, with no shared-counter reads
  /// and no pool or threshold logic.
  void onBlockEventSettled(guest::BlockId B, const vm::BlockResult &R);

  /// Closed-form accounting for a stream tail of \p Events block events
  /// (\p TakenEvents of them taken conditional branches, \p Insts guest
  /// instructions total). Valid only for a settled policy with no frozen
  /// blocks: every tail event is then a plain profiling-phase execution.
  void fastForwardTail(uint64_t Events, uint64_t TakenEvents, uint64_t Insts);

  /// @}

  /// \name Analytic (indexed) evaluation
  /// The indexed replay path (core/TraceIndex.h) reconstructs the freeze
  /// timeline arithmetically — block b's pool registration is its T-th
  /// occurrence, its registered-twice trigger the 2T-th — and drives the
  /// policy through these entry points instead of per-event
  /// onBlockEvent() calls. Each one performs exactly the state change the
  /// event pump would at the same stream position, so the resulting
  /// snapshot is byte-identical (a differential test asserts this).
  /// Requires adaptive re-optimization to be off: thawing has no static
  /// timeline.
  /// @{

  /// True if \p B is frozen (optimized).
  bool isFrozen(guest::BlockId B) const { return Frozen[B]; }
  /// True if \p B is in the candidate pool.
  bool isInPool(guest::BlockId B) const { return InPool[B]; }

  /// Registers \p B in the candidate pool (its use count just reached T).
  /// Returns true when the pool reached PoolLimit — the caller must fire
  /// analyticTrigger() at this event position.
  bool analyticRegister(guest::BlockId B) {
    assert(!Opts.Adaptive.Enabled && !Frozen[B] && !InPool[B] &&
           "analytic registration out of order");
    InPool[B] = true;
    Pool.push_back(B);
    return Pool.size() >= Opts.PoolLimit;
  }

  /// Runs one optimization round exactly as the event pump would, against
  /// the shared counters materialized for the trigger position. Blocks
  /// frozen by the round are available from lastFrozen() until the next.
  void
  analyticTrigger(const std::vector<profile::BlockCounters> &SharedAtTrigger) {
    triggerOptimization(SharedAtTrigger);
  }

  /// The blocks frozen by the most recent optimization round.
  const std::vector<guest::BlockId> &lastFrozen() const { return LastFrozen; }

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

  /// True while the region-context automaton is inside a region.
  bool inRegionContext() const { return CtxRegion >= 0; }
  /// The region the automaton is in (valid while inRegionContext()).
  int32_t contextRegion() const { return CtxRegion; }
  /// The node the automaton is at (valid while inRegionContext()); 0 is
  /// the region head, where a new loop iteration begins.
  int32_t contextNode() const { return CtxNode; }

  /// Closed form for \p Count consecutive complete iterations of the
  /// loop region the automaton is currently at the head of: each
  /// iteration executes one full pass over the iteration's path and
  /// takes the back edge. \p Insts is the guest instruction total of the
  /// folded events.
  void analyticLoopIterations(uint64_t Count, uint64_t Insts) {
    assert(CtxRegion >= 0 && CtxNode == 0 &&
           "loop closed form outside a loop-entry context");
    Account.Cycles += Insts * Opts.Cost.OptPerInst;
    Account.OptInsts += Insts;
    Runtime[CtxRegion].BackEdges += Count;
  }

  /// Closed form for every remaining occurrence of a frozen block that is
  /// a node of no region: each executes optimized off-trace and leaves
  /// the region automaton untouched (while inside a region only that
  /// region's members can execute, so such an event never observes a
  /// region context).
  void analyticOffTraceBlock(uint64_t Insts) {
    Account.Cycles += Insts * Opts.Cost.OptOffTracePerInst;
    Account.OffTraceInsts += Insts;
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
  void triggerOptimization(const std::vector<profile::BlockCounters> &Shared);
  void maybeRetranslate(int32_t RegionIdx,
                        const std::vector<profile::BlockCounters> &Shared);
  void invalidateRegion(int32_t RegionIdx,
                        const std::vector<profile::BlockCounters> &Shared);

  /// Accounting and region-context walk for an event on a frozen block.
  /// \p Shared is only needed for adaptive retranslation judgements and
  /// may be null when adaptive mode is off (the settled path).
  void optimizedEvent(guest::BlockId B, const vm::BlockResult &R,
                      const std::vector<profile::BlockCounters> *Shared);

  /// Drops \p B from the settlement pending set if it is in it.
  void clearPending(guest::BlockId B) {
    if (OracleArmed && OraclePending[B]) {
      OraclePending[B] = false;
      --PendingBlocks;
    }
  }

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
  /// Blocks frozen by the most recent optimization round (in freeze
  /// order); consumed by the analytic replay path.
  std::vector<guest::BlockId> LastFrozen;
  std::vector<region::Region> Regions;
  std::vector<RegionRuntime> Runtime;
  std::vector<int32_t> RegionEntryOf;
  /// Settlement state (see beginOracle). OraclePending[B] is true while a
  /// future event of B can still push it into the pool or fire a trigger;
  /// PendingBlocks counts the true bits.
  std::vector<bool> OraclePending;
  std::vector<uint64_t> OracleFinalUse;
  uint64_t PendingBlocks = 0;
  size_t FrozenBlocks = 0;
  bool OracleArmed = false;
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
