//===- core/Trace.cpp - Block-event trace record / replay ------------------===//

#include "core/Trace.h"

#include "core/TraceIndex.h"
#include "core/TraceSegments.h"
#include "support/Compression.h"
#include "support/ThreadPool.h"
#include "vm/HostTier.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

BlockTrace::BlockTrace(const BlockTrace &Other)
    : Events(Other.Events), Final(Other.Final), NumBlocks(Other.NumBlocks),
      TotalInsts(Other.TotalInsts), TakenEvents(Other.TakenEvents),
      Index(Other.sharedIndex()) {}

BlockTrace::BlockTrace(BlockTrace &&Other) noexcept
    : Events(std::move(Other.Events)), Final(std::move(Other.Final)),
      NumBlocks(Other.NumBlocks), TotalInsts(Other.TotalInsts),
      TakenEvents(Other.TakenEvents), Index(Other.sharedIndex()) {}

BlockTrace &BlockTrace::operator=(const BlockTrace &Other) {
  if (this == &Other)
    return *this;
  Events = Other.Events;
  Final = Other.Final;
  NumBlocks = Other.NumBlocks;
  TotalInsts = Other.TotalInsts;
  TakenEvents = Other.TakenEvents;
  std::lock_guard<std::mutex> Guard(IndexLock);
  Index = Other.sharedIndex();
  return *this;
}

BlockTrace &BlockTrace::operator=(BlockTrace &&Other) noexcept {
  if (this == &Other)
    return *this;
  Events = std::move(Other.Events);
  Final = std::move(Other.Final);
  NumBlocks = Other.NumBlocks;
  TotalInsts = Other.TotalInsts;
  TakenEvents = Other.TakenEvents;
  std::lock_guard<std::mutex> Guard(IndexLock);
  Index = Other.sharedIndex();
  return *this;
}

const TraceIndex &BlockTrace::index() const {
  std::lock_guard<std::mutex> Guard(IndexLock);
  if (!Index)
    Index = std::make_shared<TraceIndex>(TraceIndex::build(*this));
  return *Index;
}

bool BlockTrace::adoptIndex(std::shared_ptr<const TraceIndex> Idx) const {
  if (!Idx || !Idx->matches(*this))
    return false;
  std::lock_guard<std::mutex> Guard(IndexLock);
  if (!Index)
    Index = std::move(Idx);
  return true;
}

std::shared_ptr<const TraceIndex> BlockTrace::sharedIndex() const {
  std::lock_guard<std::mutex> Guard(IndexLock);
  return Index;
}

namespace {

/// HostTier sink writing straight into a BlockTrace: self-loop runs use
/// the bulk appendRun() path, chain batches append their pre-computed
/// events, and plain events append as before. Expanded in order, the
/// result is byte-identical to the per-event recording.
///
/// When a segment callback is armed, each delivery ends with one integer
/// compare against the next boundary; crossings hand the trace to the
/// callback, which returns the boundary to watch for next. Batched
/// deliveries (runs, chains) check once after the whole batch, so a
/// crossing can overshoot the boundary — the callback cuts segments by
/// its own budget arithmetic, not by the overshoot point.
struct RecordSink {
  BlockTrace &T;
  const BlockTrace::SegmentProgressFn *OnSegment = nullptr;
  uint64_t NextBoundary = 0; ///< 0 = segment callback disabled

  void boundaryCheck() {
    if (NextBoundary && T.numEvents() >= NextBoundary)
      NextBoundary = (*OnSegment)(T);
  }
  void onEvent(BlockId B, const vm::BlockResult &R) {
    TraceEvent E;
    E.Block = B;
    E.Branch = R.IsCondBranch ? (R.Taken ? 2 : 1) : 0;
    E.Insts = R.InstsExecuted;
    T.append(E);
    boundaryCheck();
  }
  void onRun(BlockId B, const vm::BlockResult &R, uint64_t Count) {
    TraceEvent E;
    E.Block = B;
    E.Branch = R.IsCondBranch ? (R.Taken ? 2 : 1) : 0;
    E.Insts = R.InstsExecuted;
    T.appendRun(E, Count);
    boundaryCheck();
  }
  void onChain(const vm::SbEvent *Events, size_t Count) {
    for (size_t I = 0; I < Count; ++I)
      T.append(TraceEvent{Events[I].Block, Events[I].Branch,
                          Events[I].Insts});
    boundaryCheck();
  }
};

} // namespace

BlockTrace BlockTrace::record(const Program &P, uint64_t MaxBlocks,
                              vm::HostTierStats *TierStats,
                              const SegmentProgressFn &OnSegment,
                              uint64_t SegmentBudget) {
  BlockTrace T;
  T.setNumBlocks(P.numBlocks());
  // Reserve the whole event budget up front (capped — reserved pages are
  // only faulted in when written, so overshooting is nearly free, while
  // letting the vector double its way to a multi-megabyte trace costs
  // more than the event stores themselves).
  T.reserveEvents(static_cast<size_t>(
      std::min<uint64_t>(MaxBlocks, uint64_t(1) << 24)));
  vm::Interpreter Interp(P);
  vm::Machine M;
  M.reset(P);
  RecordSink Sink{T, OnSegment ? &OnSegment : nullptr,
                  OnSegment ? SegmentBudget : 0};
  if (vm::HostTier::enabled()) {
    vm::HostTier Tier(Interp);
    Tier.run(M, MaxBlocks, Sink);
    if (TierStats)
      *TierStats += Tier.stats();
    return T;
  }
  Interp.run(M, MaxBlocks, [&](BlockId B, const vm::BlockResult &R) {
    Sink.onEvent(B, R);
  });
  return T;
}

std::string BlockTrace::serializeSegmented(uint64_t Budget) const {
  assert(Budget >= 1 && "segment budget must be positive");
  std::vector<TraceSegmentRecord> Segments;
  Segments.reserve(Events.size() / Budget + 1);
  uint64_t BaseInsts = 0, BaseTaken = 0;
  for (size_t At = 0; At < Events.size();) {
    const size_t N =
        static_cast<size_t>(std::min<uint64_t>(Budget, Events.size() - At));
    TraceSegmentRecord Rec;
    Rec.Events = static_cast<uint32_t>(N);
    Rec.BaseInsts = BaseInsts;
    Rec.BaseTaken = BaseTaken;
    Rec.Payload = compressBytes(encodeSegmentEvents(&Events[At], N));
    for (size_t I = At; I < At + N; ++I) {
      BaseInsts += Events[I].Insts;
      if (Events[I].Branch == 2)
        ++BaseTaken;
    }
    Segments.push_back(std::move(Rec));
    At += N;
  }
  return assembleSegmentedTrace(NumBlocks, Events.size(), TotalInsts, Budget,
                                Final, Segments);
}

bool BlockTrace::parse(const std::string &Bytes, BlockTrace &Out,
                       std::string *Error) {
  SegmentedTraceHeader H;
  if (!parseSegmentedHeader(Bytes, Bytes.size(), H, Error))
    return false;
  BlockTrace T;
  T.setNumBlocks(H.NumBlocks);
  T.reserveEvents(H.NumEvents);
  for (size_t I = 0; I < H.Directory.size(); ++I) {
    const SegmentedTraceHeader::Entry &Ent = H.Directory[I];
    // Decode straight onto the trace's own event vector, then fold the
    // fresh segment into the running counters.
    const size_t From = T.Events.size();
    if (!decodeSegment(H, I,
                       Bytes.substr(static_cast<size_t>(Ent.PayloadOffset),
                                    static_cast<size_t>(Ent.PayloadBytes)),
                       T.Events, Error))
      return false;
    for (size_t J = From; J < T.Events.size(); ++J)
      T.countEvent(T.Events[J]);
  }
  for (uint64_t B = 0; B < H.NumBlocks; ++B)
    if (T.Final[B].Use != H.Final[B].Use ||
        T.Final[B].Taken != H.Final[B].Taken) {
      if (Error)
        *Error = "trace counter table disagrees with events";
      return false;
    }
  Out = std::move(T);
  return true;
}

namespace {

vm::BlockResult resultOf(const TraceEvent &E) {
  vm::BlockResult R;
  R.IsCondBranch = E.Branch != 0;
  R.Taken = E.Branch == 2;
  R.InstsExecuted = E.Insts;
  return R;
}

constexpr uint32_t NoFreeze = ~0u;

/// Walks the optimized sub-stream — every occurrence of a frozen block
/// after its freeze position, in global order — through the policy's
/// region-context automaton. A bitmap over event positions marks the
/// sub-stream; while the automaton is inside a region the member events
/// are contiguous in the trace (region successor edges mirror the actual
/// CFG successors and every member is frozen), so runs are consumed
/// directly, and complete loop-region iterations collapse into closed
/// form via the taken-bit prefix sums.
void walkOptimized(const BlockTrace &Trace, const TraceIndex &Idx,
                   dbt::TranslationPolicy &Policy,
                   const std::vector<uint32_t> &FreezePos,
                   const std::vector<BlockId> &FrozenOrder) {
  const uint32_t E = static_cast<uint32_t>(Trace.numEvents());
  const size_t Words = (static_cast<size_t>(E) + 63) / 64;
  std::vector<uint64_t> Bits(Words, 0);
  // The walk consumes each block's occurrences strictly in rank order
  // (every post-freeze event of a frozen block is in the sub-stream), so
  // a per-block cursor tracks the next unconsumed rank with O(1) updates
  // instead of position binary searches.
  std::vector<uint32_t> Cursor(Trace.numBlocks(), 0);

  // Region membership decides which blocks need the walk at all. Regions
  // grow only through unfrozen blocks, so a block's node appearances are
  // fixed the round it freezes: a frozen block in no region executes
  // every occurrence off-trace, and one whose sole appearance is the
  // single node of a region it enters has a per-occurrence behavior
  // determined by its own branch outcome. Both collapse to closed forms
  // over the occurrence prefix sums (Policy.h analytic section) and stay
  // out of the bitmap; only multi-node region members are walked.
  const std::vector<region::Region> &AllRegions = Policy.regions();
  std::vector<uint8_t> NodeCount(Trace.numBlocks(), 0);
  std::vector<int32_t> EntryOf(Trace.numBlocks(), -1);
  for (size_t R = 0; R < AllRegions.size(); ++R) {
    for (const region::RegionNode &Node : AllRegions[R].Nodes)
      if (NodeCount[Node.Orig] < 2)
        ++NodeCount[Node.Orig];
    EntryOf[AllRegions[R].entryBlock()] = static_cast<int32_t>(R);
  }

  uint32_t First = E;
  for (BlockId B : FrozenOrder) {
    const uint32_t Cnt = Idx.occurrences(B);
    const uint32_t From = Idx.usesThrough(B, FreezePos[B]);
    Cursor[B] = From;
    if (From >= Cnt)
      continue;
    const uint64_t Insts =
        Idx.instsOfFirst(B, Cnt) - Idx.instsOfFirst(B, From);
    if (NodeCount[B] == 0) {
      Policy.analyticOffTraceBlock(Insts);
      continue;
    }
    const int32_t R = EntryOf[B];
    if (NodeCount[B] == 1 && R >= 0 && AllRegions[R].Nodes.size() == 1) {
      const uint32_t Taken =
          Idx.takenOfFirst(B, Cnt) - Idx.takenOfFirst(B, From);
      const bool LastTaken =
          Idx.takenOfFirst(B, Cnt) != Idx.takenOfFirst(B, Cnt - 1);
      Policy.analyticSingletonRegion(R, Taken, (Cnt - From) - Taken, Insts,
                                     LastTaken);
      continue;
    }
    First = std::min(First, Idx.position(B, From));
    for (uint32_t K = From; K < Cnt; ++K) {
      uint32_t Pos = Idx.position(B, K);
      Bits[Pos >> 6] |= 1ull << (Pos & 63);
    }
  }

  auto nextSet = [&](uint32_t From) -> uint32_t {
    if (From >= E)
      return E;
    size_t W = From >> 6;
    uint64_t Word = Bits[W] & (~0ull << (From & 63));
    while (!Word) {
      if (++W >= Words)
        return E;
      Word = Bits[W];
    }
    return static_cast<uint32_t>((W << 6) + std::countr_zero(Word));
  };
  auto isSet = [&](uint32_t Pos) {
    return (Bits[Pos >> 6] >> (Pos & 63)) & 1;
  };

  // Loop-iteration folding. When the automaton sits at a loop region's
  // head, the next events spell out one complete iteration; walking that
  // single iteration captures whichever path the loop is currently
  // taking (multi-node bodies and diamond arms included), and the number
  // of consecutive iterations repeating the same conditional outcomes is
  // readable from the taken-bit prefix sums. Those iterations are forced
  // — region successor edges mirror the CFG, so matching outcomes imply
  // a matching event sequence — and collapse into one closed-form
  // update. Returns the position after the folded run (== \p I when
  // nothing folds: the iteration exits the region, truncates, or the
  // path revisits a conditional block).
  const std::vector<region::Region> &Regions = Policy.regions();
  struct PathStep {
    BlockId B;
    bool Taken;
  };
  std::vector<PathStep> Constrained;
  std::vector<BlockId> PathBlocks;
  auto foldLoopRun = [&](uint32_t I) -> uint32_t {
    const region::Region &R =
        Regions[static_cast<size_t>(Policy.contextRegion())];
    if (R.Kind != region::RegionKind::Loop || Policy.contextNode() != 0)
      return I;
    Constrained.clear();
    PathBlocks.clear();
    uint32_t Pos = I;
    size_t NodeIdx = 0;
    for (size_t Steps = 0; Steps < R.Nodes.size(); ++Steps) {
      if (Pos >= E || !isSet(Pos))
        return I;
      const region::RegionNode &Node = R.Nodes[NodeIdx];
      const TraceEvent &Ev = Trace.event(Pos);
      if (Ev.Block != Node.Orig)
        return I;
      PathBlocks.push_back(Ev.Block);
      int32_t Succ = Node.TakenSucc;
      if (Node.HasCondBranch) {
        const bool Taken = Ev.Branch == 2;
        // A conditional block duplicated within one iteration would need
        // stride-aware run queries; leave those to the per-event path.
        for (const PathStep &S : Constrained)
          if (S.B == Ev.Block)
            return I;
        Constrained.push_back({Ev.Block, Taken});
        if (!Taken)
          Succ = Node.FallSucc;
      }
      if (Succ >= 0) {
        NodeIdx = static_cast<size_t>(Succ);
        ++Pos;
        continue;
      }
      if (Succ != region::BackEdgeSucc)
        return I; // this iteration leaves the region
      // Cycle closed: fold every iteration until an outcome deviates or
      // the trace ends (only complete in-trace iterations fold; a
      // truncated tail iteration falls back to per-event processing).
      const uint32_t Len = Pos - I + 1;
      uint32_t M = (E - I) / Len;
      for (const PathStep &S : Constrained)
        M = std::min(
            M, Idx.firstOutcomeChange(S.B, Cursor[S.B], S.Taken) -
                   Cursor[S.B]);
      if (M == 0)
        return I;
      // Each appearance of a block on the path consumes its next M
      // occurrence ranks, so the folded instructions are per-block prefix
      // differences.
      uint64_t Insts = 0;
      for (BlockId B : PathBlocks) {
        Insts += Idx.instsOfFirst(B, Cursor[B] + M) -
                 Idx.instsOfFirst(B, Cursor[B]);
        Cursor[B] += M;
      }
      Policy.analyticLoopIterations(M, Insts);
      return I + M * Len;
    }
    return I; // no back edge within the node budget
  };

  uint32_t I = First;
  while (I < E) {
    I = nextSet(I);
    if (I >= E)
      break;
    // One contiguous run: process events until the automaton leaves its
    // region (then skip ahead to the next optimized position).
    for (;;) {
      if (Policy.inRegionContext()) {
        const uint32_t Next = foldLoopRun(I);
        if (Next != I) {
          I = Next;
          if (I >= E)
            break;
          continue; // at the head of a deviating (or partial) iteration
        }
      }
      if (!isSet(I))
        break; // a profiling event interleaves; context is preserved
      const TraceEvent &Ev = Trace.event(I);
      ++Cursor[Ev.Block];
      Policy.analyticOptimizedEvent(Ev.Block, resultOf(Ev));
      ++I;
      if (!Policy.inRegionContext() || I >= E)
        break;
    }
  }
}

/// Evaluates one non-adaptive policy analytically: reconstructs the
/// freeze timeline from occurrence positions, accounts the profiling
/// phase in closed form, and walks only the optimized sub-stream.
profile::ProfileSnapshot evaluateIndexed(const BlockTrace &Trace,
                                         const TraceIndex &Idx,
                                         const Program &P, const cfg::Cfg &G,
                                         const dbt::DbtOptions &Opts) {
  assert(!Opts.Adaptive.Enabled &&
         "analytic evaluation requires a static freeze timeline");
  dbt::TranslationPolicy Policy(P, G, Opts);
  const size_t N = P.numBlocks();
  const uint32_t E = static_cast<uint32_t>(Trace.numEvents());
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();
  const uint64_t T = Opts.Threshold;

  std::vector<uint32_t> FreezePos(N, NoFreeze);
  std::vector<BlockId> FrozenOrder;

  if (T > 0) {
    // Threshold-crossing timeline: policy state only changes when some
    // block reaches its T-th occurrence (pool registration, possibly
    // firing the pool-size trigger) or its 2T-th (the registered-twice
    // trigger). All crossing positions are distinct events, so sorting
    // them reproduces the pump's processing order exactly.
    struct Crossing {
      uint32_t Pos;
      BlockId Block;
      bool Registration; ///< T-th occurrence; false = 2T-th
    };
    std::vector<Crossing> Timeline;
    for (size_t B = 0; B < N; ++B) {
      const uint64_t Use = Final[B].Use;
      if (Use < T)
        continue;
      const auto Id = static_cast<BlockId>(B);
      Timeline.push_back(
          {Idx.position(Id, static_cast<uint32_t>(T - 1)), Id, true});
      if (Use >= 2 * T)
        Timeline.push_back(
            {Idx.position(Id, static_cast<uint32_t>(2 * T - 1)), Id, false});
    }
    std::sort(Timeline.begin(), Timeline.end(),
              [](const Crossing &A, const Crossing &B) {
                return A.Pos < B.Pos;
              });

    std::vector<profile::BlockCounters> SharedAt(N);
    auto fireTrigger = [&](uint32_t Pos) {
      // Materialize every block's shared counters as of this event
      // (inclusive) — exactly the Shared vector the pump would pass.
      for (size_t B = 0; B < N; ++B)
        SharedAt[B] = Idx.countersThrough(static_cast<BlockId>(B), Pos);
      Policy.analyticTrigger(SharedAt);
      for (BlockId F : Policy.lastFrozen()) {
        FreezePos[F] = Pos;
        FrozenOrder.push_back(F);
      }
    };
    for (const Crossing &X : Timeline) {
      if (Policy.isFrozen(X.Block))
        continue; // froze at an earlier crossing: no further triggers
      if (X.Registration) {
        if (Policy.analyticRegister(X.Block))
          fireTrigger(X.Pos); // pool reached PoolLimit
      } else if (Policy.isInPool(X.Block)) {
        fireTrigger(X.Pos); // registered twice while still unoptimized
      }
    }
  }

  // Profiling phase in closed form: block b executes instrumented for its
  // first K_b occurrences — up to and including its freeze position, or
  // all of them when never frozen.
  uint64_t ProfEvents = 0, ProfTaken = 0, ProfInsts = 0;
  for (size_t B = 0; B < N; ++B) {
    const auto Id = static_cast<BlockId>(B);
    const uint32_t K = FreezePos[B] == NoFreeze
                           ? Idx.occurrences(Id)
                           : Idx.usesThrough(Id, FreezePos[B]);
    ProfEvents += K;
    ProfTaken += Idx.takenOfFirst(Id, K);
    ProfInsts += Idx.instsOfFirst(Id, K);
  }
  Policy.analyticAddProfiling(ProfEvents, ProfTaken, ProfInsts);

  if (!FrozenOrder.empty())
    walkOptimized(Trace, Idx, Policy, FreezePos, FrozenOrder);

  return Policy.finish(Final, E, Trace.totalInsts());
}

} // namespace

SweepResult tpdbt::core::replaySweepEvents(
    const BlockTrace &Trace, const Program &P,
    const std::vector<uint64_t> &Thresholds, const dbt::DbtOptions &Base) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  const uint64_t NumEvents = Trace.numEvents();
  const uint64_t TotalInsts = Trace.totalInsts();
  const uint64_t TakenTotal = Trace.takenEvents();
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();
  cfg::Cfg G(P);

  std::vector<std::unique_ptr<dbt::TranslationPolicy>> Policies;
  for (uint64_t T : Thresholds) {
    dbt::DbtOptions Opts = Base;
    Opts.Threshold = T;
    Policies.push_back(
        std::make_unique<dbt::TranslationPolicy>(P, G, Opts));
  }
  dbt::DbtOptions AvgOpts = Base;
  AvgOpts.Threshold = 0;
  dbt::TranslationPolicy AvgPolicy(P, G, AvgOpts);

  // The stream is fixed, so its end-of-run shared counters arm per-policy
  // settlement detection and serve directly as the final counters for
  // finish().
  for (auto &Policy : Policies)
    Policy->beginOracle(Final);
  AvgPolicy.beginOracle(Final);

  std::vector<dbt::TranslationPolicy *> Active;
  for (auto &Policy : Policies)
    Active.push_back(Policy.get());
  Active.push_back(&AvgPolicy);

  // A settled policy's remaining events no longer change translation
  // state. With nothing frozen every tail event is plain profiling and
  // folds into one closed-form update; otherwise the policy moves to the
  // walker list and receives the rest of the stream through the cheap
  // settled path.
  uint64_t PrefixInsts = 0, PrefixTaken = 0, Delivered = 0;
  std::vector<dbt::TranslationPolicy *> Walkers;
  auto retire = [&](dbt::TranslationPolicy *Policy) {
    if (!Policy->anyFrozen()) {
      Policy->fastForwardTail(NumEvents - Delivered,
                              TakenTotal - PrefixTaken,
                              TotalInsts - PrefixInsts);
      return;
    }
    Walkers.push_back(Policy);
  };

  // Policies with no reachable trigger at all (profiling-only, or every
  // final count below threshold) settle before the first event.
  for (size_t I = 0; I < Active.size();) {
    if (Active[I]->settled()) {
      retire(Active[I]);
      Active.erase(Active.begin() + I);
    } else {
      ++I;
    }
  }

  std::vector<profile::BlockCounters> Shared(P.numBlocks());
  for (uint64_t I = 0; I < NumEvents; ++I) {
    if (Active.empty() && Walkers.empty())
      break; // nobody left to feed; totals were folded at retirement
    const TraceEvent &E = Trace.event(I);
    vm::BlockResult R = resultOf(E);
    ++Delivered;

    // Walkers first: a policy that settles at this event joins the list
    // afterwards and starts walking at the next event.
    for (dbt::TranslationPolicy *W : Walkers)
      W->onBlockEventSettled(E.Block, R);
    if (Active.empty())
      continue; // shared counters no longer observed by anyone

    profile::BlockCounters &Cnt = Shared[E.Block];
    ++Cnt.Use;
    if (R.IsCondBranch && R.Taken)
      ++Cnt.Taken;
    PrefixInsts += E.Insts;
    if (E.Branch == 2)
      ++PrefixTaken;

    for (size_t PI = 0; PI < Active.size();) {
      Active[PI]->onBlockEvent(E.Block, R, Shared);
      if (Active[PI]->settled()) {
        retire(Active[PI]);
        Active.erase(Active.begin() + PI);
      } else {
        ++PI;
      }
    }
  }

  SweepResult Out;
  for (auto &Policy : Policies)
    Out.PerThreshold.push_back(
        Policy->finish(Final, NumEvents, TotalInsts));
  Out.Average = AvgPolicy.finish(Final, NumEvents, TotalInsts);
  return Out;
}

SweepResult tpdbt::core::replaySweep(const BlockTrace &Trace,
                                     const Program &P,
                                     const std::vector<uint64_t> &Thresholds,
                                     const dbt::DbtOptions &Base,
                                     unsigned Jobs) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  // Duplicate thresholds share one evaluation; Unique preserves
  // first-occurrence order, so without duplicates SlotOf is the identity.
  std::vector<uint64_t> Unique;
  std::vector<size_t> SlotOf(Thresholds.size());
  for (size_t I = 0; I < Thresholds.size(); ++I) {
    size_t J = 0;
    while (J < Unique.size() && Unique[J] != Thresholds[I])
      ++J;
    if (J == Unique.size())
      Unique.push_back(Thresholds[I]);
    SlotOf[I] = J;
  }

  SweepResult Shared;
  if (Base.Adaptive.Enabled) {
    // Adaptive re-optimization thaws frozen blocks, so no static freeze
    // timeline exists: pump the events.
    Shared = replaySweepEvents(Trace, P, Unique, Base);
  } else {
    cfg::Cfg G(P);
    // The average is a closed form of the stream totals: only threshold
    // units need the index.
    Shared.Average =
        dbt::profilingAverage(P, G, Base, Trace.finalCounts(),
                              Trace.numEvents(), Trace.takenEvents(),
                              Trace.totalInsts());
    Shared.PerThreshold.resize(Unique.size());
    if (!Unique.empty()) {
      const TraceIndex &Idx = Trace.index();
      // Per-threshold snapshots are independent units; dispatch them on
      // the worker pool alongside the per-benchmark parallelism. Results
      // are stored by index, so they are identical at any job count.
      parallelFor(Unique.size(), Jobs, [&](size_t I) {
        dbt::DbtOptions Opts = Base;
        Opts.Threshold = Unique[I];
        Shared.PerThreshold[I] = evaluateIndexed(Trace, Idx, P, G, Opts);
      });
    }
  }

  if (Unique.size() == Thresholds.size())
    return Shared;
  SweepResult Out;
  Out.Average = std::move(Shared.Average);
  Out.PerThreshold.reserve(Thresholds.size());
  for (size_t I = 0; I < Thresholds.size(); ++I)
    Out.PerThreshold.push_back(Shared.PerThreshold[SlotOf[I]]);
  return Out;
}
