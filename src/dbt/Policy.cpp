//===- dbt/Policy.cpp - Two-phase translation policy ------------------------===//

#include "dbt/Policy.h"

#include "analysis/Metrics.h"
#include "analysis/RegionProb.h"

#include <algorithm>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::dbt;
using namespace tpdbt::guest;
using namespace tpdbt::region;

TranslationPolicy::TranslationPolicy(const Program &P, const cfg::Cfg &G,
                                     DbtOptions Opts)
    : P(P), G(G), Opts(Opts) {
  const size_t N = P.numBlocks();
  FrozenCounts.assign(N, profile::BlockCounters());
  BaseCounts.assign(N, profile::BlockCounters());
  Frozen.assign(N, false);
  InPool.assign(N, false);
  LiveRegionCount.assign(N, 0);
  RegionEntryOf.assign(N, -1);
}

void TranslationPolicy::triggerOptimization(
    const std::vector<profile::BlockCounters> &Shared,
    std::vector<BlockId> *Newly) {
  if (Pool.empty())
    return;
  ++Rounds;

  const size_t N = P.numBlocks();
  std::vector<double> TakenProb(N, 0.0);
  for (size_t B = 0; B < N; ++B)
    TakenProb[B] =
        Frozen[B] ? FrozenCounts[B].takenProb()
                  : effectiveCounts(static_cast<BlockId>(B), Shared)
                        .takenProb();
  // Regions may grow through *warm* blocks that have not quite reached
  // the registration threshold yet: the likely successor of a hot seed
  // runs at a fraction of the seed's rate (a diamond arm at ~0.5x, a
  // chain successor at the branch probability), so at trigger time it is
  // typically a few hundred executions short of T. Real trace growers
  // extend through such blocks; without this, regions degenerate into
  // singletons.
  const uint64_t GrowthMinUse = std::max<uint64_t>(1, Opts.Threshold / 2);
  std::vector<bool> Eligible(N, false);
  for (size_t B = 0; B < N; ++B)
    Eligible[B] =
        !Frozen[B] &&
        effectiveCounts(static_cast<BlockId>(B), Shared).Use >=
            GrowthMinUse;
  for ([[maybe_unused]] BlockId B : Pool)
    assert(!Frozen[B] && Eligible[B] && "pool block not eligible");

  RegionFormer Former(G, Opts.Formation);
  std::vector<Region> NewRegions = Former.form(Pool, TakenProb, Eligible);
  const size_t FirstNew = Regions.size();

  uint64_t StaticInsts = 0;
  for (Region &R : NewRegions) {
    for (const RegionNode &Node : R.Nodes) {
      StaticInsts += P.Blocks[Node.Orig].Insts.size() + 1;
      ++LiveRegionCount[Node.Orig];
    }
    int32_t Idx = static_cast<int32_t>(Regions.size());
    BlockId EntryB = R.entryBlock();
    assert(RegionEntryOf[EntryB] < 0 && "duplicate region entry");
    RegionEntryOf[EntryB] = Idx;

    RegionRuntime RT;
    RT.RetranslationsLeft = Opts.Adaptive.MaxRetranslations;
    if (R.Kind == RegionKind::Loop)
      RT.FormationLp = analysis::loopBackProb(R, TakenProb);
    Runtime.push_back(RT);
    Regions.push_back(std::move(R));
  }
  uint64_t OptCycles = StaticInsts * Opts.Cost.OptimizePerInst;
  Account.OptimizeCycles += OptCycles;
  Account.Cycles += OptCycles;
  Account.RegionsOptimized += NewRegions.size();

  // Freeze every block placed in a region this round (candidates and
  // absorbed warm members alike): profiling stops for a block once it is
  // optimized, so its INIP counts stay at their values from this instant.
  for (size_t RI = FirstNew; RI < Regions.size(); ++RI) {
    const Region &R = Regions[RI];
    for (const RegionNode &Node : R.Nodes) {
      BlockId B = Node.Orig;
      if (Frozen[B])
        continue;
      Frozen[B] = true;
      FrozenCounts[B] = effectiveCounts(B, Shared);
      InPool[B] = false;
      if (Newly)
        Newly->push_back(B);
    }
  }
  Pool.clear();
}

void TranslationPolicy::invalidateRegion(
    int32_t RegionIdx, const std::vector<profile::BlockCounters> &Shared) {
  Region &Reg = Regions[RegionIdx];
  RegionRuntime &RT = Runtime[RegionIdx];
  assert(!RT.Dead && "invalidating a dead region");
  RT.Dead = true;
  --RT.RetranslationsLeft;
  ++Retranslations;
  RegionEntryOf[Reg.entryBlock()] = -1;

  // Blocks no longer covered by any live region return to the profiling
  // phase with fresh counters: a new profiling phase for exactly the code
  // whose behaviour changed.
  for (const RegionNode &Node : Reg.Nodes) {
    assert(LiveRegionCount[Node.Orig] > 0 && "live-region count underflow");
    if (--LiveRegionCount[Node.Orig] > 0)
      continue;
    if (!Frozen[Node.Orig])
      continue; // already re-profiling (duplicated into a dead region too)
    Frozen[Node.Orig] = false;
    InPool[Node.Orig] = false;
    BaseCounts[Node.Orig] = Shared[Node.Orig];
  }
}

void TranslationPolicy::maybeRetranslate(
    int32_t RegionIdx, const std::vector<profile::BlockCounters> &Shared) {
  const AdaptiveOptions &A = Opts.Adaptive;
  RegionRuntime &RT = Runtime[RegionIdx];
  if (RT.Dead || RT.RetranslationsLeft <= 0 || RT.Entries < A.MinEntries)
    return;
  const Region &Reg = Regions[RegionIdx];

  // Judgements are per observation *window* (the stats reset below):
  // cumulative statistics would be dominated by the pre-change history
  // and never detect a phase change.
  bool Invalidate = false;
  if (Reg.Kind == RegionKind::NonLoop) {
    double ObservedCp = static_cast<double>(RT.Completions) /
                        static_cast<double>(RT.Entries);
    Invalidate = ObservedCp < A.MinCompletion;
  } else if (A.MonitorLoops) {
    uint64_t Terminations = RT.LatchExits + RT.SideExits;
    if (Terminations > 0) {
      // Most terminations being unexpected means the loop body's branches
      // no longer match the region.
      double BadFrac = static_cast<double>(RT.SideExits) /
                       static_cast<double>(Terminations);
      // Continuous trip-count profiling [21]: the observed loop-back
      // probability implies a trip-count class; a class change
      // invalidates trip-count-driven loop optimizations.
      double ObservedLp =
          static_cast<double>(RT.BackEdges) /
          static_cast<double>(RT.BackEdges + Terminations);
      bool ClassChanged = analysis::classifyTrip(ObservedLp) !=
                          analysis::classifyTrip(RT.FormationLp);
      Invalidate = BadFrac > 0.6 || ClassChanged;
    }
  }

  if (Invalidate) {
    invalidateRegion(RegionIdx, Shared);
    return;
  }
  // Healthy window: restart the observation window.
  RT.Entries = 0;
  RT.Completions = 0;
  RT.BackEdges = 0;
  RT.LatchExits = 0;
  RT.SideExits = 0;
}

void TranslationPolicy::onBlockEvent(
    BlockId Cur, const vm::BlockResult &R,
    const std::vector<profile::BlockCounters> &Shared) {
  const CostParams &C = Opts.Cost;
  const uint64_t T = Opts.Threshold;

  if (!Frozen[Cur]) {
    // Profiling-phase (instrumented) execution.
    ++ProfilingOps;
    if (R.IsCondBranch && R.Taken)
      ++ProfilingOps;
    Account.Cycles += R.InstsExecuted * C.ColdPerInst + C.ProfilePerBlock;
    Account.ColdInsts += R.InstsExecuted;

    if (T > 0) {
      uint64_t Use = effectiveCounts(Cur, Shared).Use;
      if (!InPool[Cur] && Use == T) {
        InPool[Cur] = true;
        Pool.push_back(Cur);
        if (Pool.size() >= Opts.PoolLimit)
          triggerOptimization(Shared);
      } else if (InPool[Cur] && Use == 2 * T) {
        // Registered twice: the block hit the threshold again while still
        // unoptimized.
        triggerOptimization(Shared);
      }
    }
    return;
  }

  optimizedEvent(Cur, R, &Shared);
}

void TranslationPolicy::optimizedEvent(
    BlockId Cur, const vm::BlockResult &R,
    const std::vector<profile::BlockCounters> *Shared) {
  const CostParams &C = Opts.Cost;

  if (CtxRegion < 0 && RegionEntryOf[Cur] >= 0) {
    CtxRegion = RegionEntryOf[Cur];
    CtxNode = 0;
    ++Runtime[CtxRegion].Entries;
  }

  if (CtxRegion >= 0) {
    // Optimized execution inside a region.
    const Region &Reg = Regions[CtxRegion];
    const RegionNode &Node = Reg.Nodes[CtxNode];
    assert(Node.Orig == Cur && "region context out of sync");
    Account.Cycles += R.InstsExecuted * C.OptPerInst;
    Account.OptInsts += R.InstsExecuted;

    int32_t Succ =
        (Node.HasCondBranch && !R.Taken) ? Node.FallSucc : Node.TakenSucc;
    if (Succ >= 0) {
      CtxNode = Succ;
    } else if (Succ == BackEdgeSucc) {
      CtxNode = 0;
      ++Runtime[CtxRegion].BackEdges;
    } else {
      // Leaving the region.
      RegionRuntime &RT = Runtime[CtxRegion];
      bool IsLatch = Node.TakenSucc == BackEdgeSucc ||
                     (Node.HasCondBranch && Node.FallSucc == BackEdgeSucc);
      if (Reg.Kind == RegionKind::NonLoop) {
        if (CtxNode == Reg.LastNode || Succ == HaltSucc) {
          ++RT.Completions;
        } else {
          ++RT.SideExits;
          Account.Cycles += C.SideExitPenalty;
          ++Account.SideExits;
        }
      } else {
        if (IsLatch || Succ == HaltSucc) {
          ++RT.LatchExits;
          if (Succ != HaltSucc) {
            Account.Cycles += C.LoopExitPenalty;
            ++Account.LoopExits;
          }
        } else {
          ++RT.SideExits;
          Account.Cycles += C.SideExitPenalty;
          ++Account.SideExits;
        }
      }
      int32_t Exited = CtxRegion;
      CtxRegion = -1;
      CtxNode = -1;
      if (Opts.Adaptive.Enabled) {
        assert(Shared && "adaptive mode requires shared counters");
        maybeRetranslate(Exited, *Shared);
      }
    }
    return;
  }

  // Optimized block executed outside any region context.
  Account.Cycles += R.InstsExecuted * C.OptOffTracePerInst;
  Account.OffTraceInsts += R.InstsExecuted;
}

std::vector<FrozenBlock> TranslationPolicy::freezeTimeline(
    const std::vector<profile::BlockCounters> &Final,
    const CrossingSource &CrossingPos, const CountersSource &CountersAt) {
  assert(!Opts.Adaptive.Enabled &&
         "the freeze timeline is static only without thawing");
  std::vector<FrozenBlock> Out;
  const uint64_t T = Opts.Threshold;
  if (T == 0)
    return Out;
  const size_t N = P.numBlocks();

  struct Crossing {
    double Pos;
    BlockId Block;
    bool Registration; ///< T-th use; false = 2T-th
  };
  std::vector<Crossing> Timeline;
  for (size_t B = 0; B < N; ++B) {
    const uint64_t Use = Final[B].Use;
    if (Use < T)
      continue;
    const auto Id = static_cast<BlockId>(B);
    Timeline.push_back({CrossingPos(Id, T), Id, true});
    if (Use >= 2 * T)
      Timeline.push_back({CrossingPos(Id, 2 * T), Id, false});
  }
  std::sort(Timeline.begin(), Timeline.end(),
            [](const Crossing &A, const Crossing &B) {
              if (A.Pos != B.Pos)
                return A.Pos < B.Pos;
              if (A.Block != B.Block)
                return A.Block < B.Block;
              return A.Registration && !B.Registration;
            });

  std::vector<profile::BlockCounters> SharedAt(N);
  std::vector<BlockId> Newly;
  auto fireTrigger = [&](double Pos, BlockId CrossBlock, uint64_t CrossUse) {
    CountersAt(Pos, SharedAt);
    for (size_t B = 0; B < N; ++B) {
      profile::BlockCounters &C = SharedAt[B];
      C.Use = std::min(C.Use, Final[B].Use);
      if (B == CrossBlock)
        C.Use = CrossUse;
      else if (InPool[B])
        C.Use = std::max(C.Use, T); // registered: it crossed T before this
      C.Taken = std::min({C.Taken, C.Use, Final[B].Taken});
    }
    Newly.clear();
    triggerOptimization(SharedAt, &Newly);
    for (BlockId F : Newly)
      Out.push_back({F, Pos, SharedAt[F], F == CrossBlock});
  };
  for (const Crossing &X : Timeline) {
    if (Frozen[X.Block])
      continue; // froze at an earlier crossing: no further triggers
    if (X.Registration) {
      InPool[X.Block] = true;
      Pool.push_back(X.Block);
      if (Pool.size() >= Opts.PoolLimit)
        fireTrigger(X.Pos, X.Block, T);
    } else if (InPool[X.Block]) {
      fireTrigger(X.Pos, X.Block, 2 * T); // registered twice
    }
  }
  return Out;
}

profile::ProfileSnapshot TranslationPolicy::finish(
    const std::vector<profile::BlockCounters> &SharedFinal,
    uint64_t BlockEvents, uint64_t InstsExecuted) const {
  profile::ProfileSnapshot S;
  S.Threshold = Opts.Threshold;
  S.Blocks.resize(P.numBlocks());
  for (size_t B = 0; B < P.numBlocks(); ++B)
    S.Blocks[B] = Frozen[B]
                      ? FrozenCounts[B]
                      : effectiveCounts(static_cast<BlockId>(B), SharedFinal);
  // Dead (retranslated-away) regions are not part of the final prediction.
  for (size_t RI = 0; RI < Regions.size(); ++RI)
    if (!Runtime[RI].Dead)
      S.Regions.push_back(Regions[RI]);
  S.ProfilingOps = ProfilingOps;
  S.BlockEvents = BlockEvents;
  S.InstsExecuted = InstsExecuted;
  S.Cycles = Account.Cycles;
  return S;
}

profile::ProfileSnapshot tpdbt::dbt::profilingAverage(
    const guest::Program &P, const cfg::Cfg &G, const DbtOptions &Base,
    const std::vector<profile::BlockCounters> &Final, uint64_t NumEvents,
    uint64_t TakenTotal, uint64_t TotalInsts) {
  DbtOptions Opts = Base;
  Opts.Threshold = 0;
  TranslationPolicy Policy(P, G, Opts);
  Policy.analyticAddProfiling(NumEvents, TakenTotal, TotalInsts);
  return Policy.finish(Final, NumEvents, TotalInsts);
}
