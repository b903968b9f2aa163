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
#include <unordered_map>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

std::vector<BlockShape> tpdbt::core::blockShapes(const Program &P) {
  std::vector<BlockShape> Shapes(P.numBlocks());
  for (size_t B = 0; B < Shapes.size(); ++B) {
    const Block &Blk = P.block(static_cast<BlockId>(B));
    // The terminator counts as one instruction, as in
    // Program::staticInstCount() (a fused compare-and-branch counts the
    // compare it absorbs from the body).
    Shapes[B].Len = static_cast<uint32_t>(Blk.Insts.size() + 1);
    Shapes[B].Cond = Blk.Term.Kind == TermKind::Branch;
  }
  return Shapes;
}

BlockTrace::BlockTrace(const BlockTrace &Other)
    : Words(Other.Words), Shapes(Other.Shapes), Final(Other.Final),
      TotalInsts(Other.TotalInsts), TakenEvents(Other.TakenEvents),
      TailInsts(Other.TailInsts), Index(Other.sharedIndex()) {}

BlockTrace::BlockTrace(BlockTrace &&Other) noexcept
    : Words(std::move(Other.Words)), Shapes(std::move(Other.Shapes)),
      Final(std::move(Other.Final)), TotalInsts(Other.TotalInsts),
      TakenEvents(Other.TakenEvents), TailInsts(Other.TailInsts),
      Index(Other.sharedIndex()) {}

BlockTrace &BlockTrace::operator=(const BlockTrace &Other) {
  if (this == &Other)
    return *this;
  Words = Other.Words;
  Shapes = Other.Shapes;
  Final = Other.Final;
  TotalInsts = Other.TotalInsts;
  TakenEvents = Other.TakenEvents;
  TailInsts = Other.TailInsts;
  std::lock_guard<std::mutex> Guard(IndexLock);
  Index = Other.sharedIndex();
  return *this;
}

BlockTrace &BlockTrace::operator=(BlockTrace &&Other) noexcept {
  if (this == &Other)
    return *this;
  Words = std::move(Other.Words);
  Shapes = std::move(Other.Shapes);
  Final = std::move(Other.Final);
  TotalInsts = Other.TotalInsts;
  TakenEvents = Other.TakenEvents;
  TailInsts = Other.TailInsts;
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
  T.setShapes(blockShapes(P));
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
  Segments.reserve(Words.size() / Budget + 1);
  EventSums Base;
  for (size_t At = 0; At < Words.size();) {
    const size_t N =
        static_cast<size_t>(std::min<uint64_t>(Budget, Words.size() - At));
    TraceSegmentRecord Rec;
    Rec.Events = static_cast<uint32_t>(N);
    Rec.BaseInsts = Base.Insts;
    Rec.BaseTaken = Base.Taken;
    Rec.Payload = compressBytes(encodeSegmentEvents(&Words[At], N));
    Base += sumEvents(&Words[At], N, Shapes);
    Segments.push_back(std::move(Rec));
    At += N;
  }
  return assembleSegmentedTrace(segmentedHeaderOf(*this, Budget), Segments);
}

bool BlockTrace::decode(SegmentedTraceReader &Reader, BlockTrace &Out,
                        std::string *Error) {
  const SegmentedTraceHeader &H = Reader.header();
  BlockTrace T;
  T.setShapes(H.Shapes);
  // Bounded: the header check caps every segment's event count by what
  // its payload can inflate to.
  T.reserveEvents(H.NumEvents);
  if (!Reader.readAll(&T.Words, T.Final, Error))
    return false;
  // Every segment's sums matched the directory, whose first bases are
  // zero and whose last segment ends on the header totals, and the
  // partial tail was placed: the decoded stream's totals are the header's.
  T.TotalInsts = H.TotalInsts;
  T.TakenEvents = H.takenEvents();
  T.TailInsts = H.TailInsts;
  Out = std::move(T);
  return true;
}

bool BlockTrace::parse(const std::string &Bytes, BlockTrace &Out,
                       std::string *Error) {
  SegmentedTraceReader Reader;
  return SegmentedTraceReader::openBytes(Bytes, Reader, Error) &&
         decode(Reader, Out, Error);
}

namespace {

vm::BlockResult resultOf(const TraceEvent &E) {
  vm::BlockResult R;
  R.IsCondBranch = E.Branch != 0;
  R.Taken = E.Branch == 2;
  R.InstsExecuted = E.Insts;
  return R;
}

/// Walks the optimized sub-stream — every occurrence of a frozen block
/// after its freeze position, in global order — through the policy's
/// region-context automaton, one event at a time. A bitmap over event
/// positions marks the sub-stream, and the walk visits its set bits in
/// order.
void walkOptimized(const BlockTrace &Trace, const TraceIndex &Idx,
                   dbt::TranslationPolicy &Policy,
                   const std::vector<dbt::FrozenBlock> &Frozen) {
  const uint32_t E = static_cast<uint32_t>(Trace.numEvents());
  const size_t Words = (static_cast<size_t>(E) + 63) / 64;
  std::vector<uint64_t> Bits(Words, 0);

  // Region membership decides which blocks need the walk at all. Regions
  // grow only through unfrozen blocks, so a block's node appearances are
  // fixed the round it freezes: one whose sole appearance is the single
  // node of a region it enters has a per-occurrence behavior determined
  // by its own branch outcome. That collapses to a closed form over the
  // occurrence counts (Policy.h analytic section) and stays out of the
  // bitmap; every other frozen block is walked.
  const std::vector<region::Region> &AllRegions = Policy.regions();
  std::vector<uint8_t> NodeCount(Trace.numBlocks(), 0);
  std::vector<int32_t> EntryOf(Trace.numBlocks(), -1);
  for (size_t R = 0; R < AllRegions.size(); ++R) {
    for (const region::RegionNode &Node : AllRegions[R].Nodes)
      if (NodeCount[Node.Orig] < 2)
        ++NodeCount[Node.Orig];
    EntryOf[AllRegions[R].entryBlock()] = static_cast<int32_t>(R);
  }

  for (const dbt::FrozenBlock &F : Frozen) {
    const BlockId B = F.Block;
    const uint32_t Cnt = Idx.occurrences(B);
    const auto From = static_cast<uint32_t>(F.At.Use);
    if (From >= Cnt)
      continue;
    const int32_t R = EntryOf[B];
    if (NodeCount[B] == 1 && R >= 0 && AllRegions[R].Nodes.size() == 1) {
      const uint64_t Insts =
          Idx.instsOfFirst(B, Cnt) - Idx.instsOfFirst(B, From);
      const uint32_t Taken =
          Idx.takenOfFirst(B, Cnt) - Idx.takenOfFirst(B, From);
      const bool LastTaken =
          Idx.takenOfFirst(B, Cnt) != Idx.takenOfFirst(B, Cnt - 1);
      Policy.analyticSingletonRegion(R, Taken, (Cnt - From) - Taken, Insts,
                                     LastTaken);
      continue;
    }
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
  for (uint32_t I = nextSet(0); I < E; I = nextSet(I + 1)) {
    const TraceEvent &Ev = Trace.event(I);
    Policy.analyticOptimizedEvent(Ev.Block, resultOf(Ev));
  }
}

/// Evaluates one non-adaptive policy analytically: runs the policy's
/// freeze timeline on exact counters from the index, accounts the
/// profiling phase in closed form, and walks only the optimized
/// sub-stream.
profile::ProfileSnapshot evaluateIndexed(const BlockTrace &Trace,
                                         const TraceIndex &Idx,
                                         const Program &P, const cfg::Cfg &G,
                                         const dbt::DbtOptions &Opts) {
  dbt::TranslationPolicy Policy(P, G, Opts);
  const size_t N = P.numBlocks();
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();

  // Exact sources: a crossing is its use's event position, and a
  // trigger's counters are every block's shared counters through that
  // event (inclusive) — exactly the Shared vector the pump would pass.
  // Distinct crossings sit at distinct events, so the timeline's order is
  // the pump's processing order.
  const std::vector<dbt::FrozenBlock> Frozen = Policy.freezeTimeline(
      Final,
      [&](BlockId B, uint64_t J) {
        return static_cast<double>(
            Idx.position(B, static_cast<uint32_t>(J - 1)));
      },
      [&](double Pos, std::vector<profile::BlockCounters> &Out) {
        const auto At = static_cast<uint32_t>(Pos);
        for (size_t B = 0; B < N; ++B)
          Out[B] = Idx.countersThrough(static_cast<BlockId>(B), At);
      });

  // Profiling phase in closed form: block b executes instrumented for its
  // first K_b occurrences — its use count at the freeze, or all of them
  // when never frozen.
  std::vector<profile::BlockCounters> Pre = Final;
  for (const dbt::FrozenBlock &F : Frozen)
    Pre[F.Block] = F.At;
  uint64_t ProfEvents = 0, ProfTaken = 0, ProfInsts = 0;
  for (size_t B = 0; B < N; ++B) {
    ProfEvents += Pre[B].Use;
    ProfTaken += Pre[B].Taken;
    ProfInsts += Idx.instsOfFirst(static_cast<BlockId>(B),
                                  static_cast<uint32_t>(Pre[B].Use));
  }
  Policy.analyticAddProfiling(ProfEvents, ProfTaken, ProfInsts);

  if (!Frozen.empty())
    walkOptimized(Trace, Idx, Policy, Frozen);

  return Policy.finish(Final, Trace.numEvents(), Trace.totalInsts());
}

} // namespace

ThresholdSlots
tpdbt::core::dedupThresholds(const std::vector<uint64_t> &Thresholds) {
  ThresholdSlots Out;
  Out.SlotOf.resize(Thresholds.size());
  std::unordered_map<uint64_t, size_t> Seen;
  for (size_t I = 0; I < Thresholds.size(); ++I) {
    const auto [It, New] = Seen.try_emplace(Thresholds[I], Out.Unique.size());
    if (New)
      Out.Unique.push_back(Thresholds[I]);
    Out.SlotOf[I] = It->second;
  }
  return Out;
}

SweepResult tpdbt::core::replaySweepEvents(
    const BlockTrace &Trace, const Program &P,
    const std::vector<uint64_t> &Thresholds, const dbt::DbtOptions &Base) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  const uint64_t NumEvents = Trace.numEvents();
  const uint64_t TotalInsts = Trace.totalInsts();
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

  std::vector<profile::BlockCounters> Shared(P.numBlocks());
  for (uint64_t I = 0; I < NumEvents; ++I) {
    const TraceEvent &E = Trace.event(I);
    const vm::BlockResult R = resultOf(E);
    profile::BlockCounters &Cnt = Shared[E.Block];
    ++Cnt.Use;
    if (R.IsCondBranch && R.Taken)
      ++Cnt.Taken;
    for (auto &Policy : Policies)
      Policy->onBlockEvent(E.Block, R, Shared);
    AvgPolicy.onBlockEvent(E.Block, R, Shared);
  }

  SweepResult Out;
  for (auto &Policy : Policies)
    Out.PerThreshold.push_back(Policy->finish(Shared, NumEvents, TotalInsts));
  Out.Average = AvgPolicy.finish(Shared, NumEvents, TotalInsts);
  return Out;
}

SweepResult tpdbt::core::replaySweep(const BlockTrace &Trace,
                                     const Program &P,
                                     const std::vector<uint64_t> &Thresholds,
                                     const dbt::DbtOptions &Base,
                                     unsigned Jobs) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  const ThresholdSlots Slots = dedupThresholds(Thresholds);
  const std::vector<uint64_t> &Unique = Slots.Unique;

  cfg::Cfg G(P);
  // The average is a closed form of the stream totals in either mode (a
  // threshold-0 policy never freezes, so it never adapts): only threshold
  // units need the index or the pump.
  SweepResult Out;
  Out.Average =
      dbt::profilingAverage(P, G, Base, Trace.finalCounts(),
                            Trace.numEvents(), Trace.takenEvents(),
                            Trace.totalInsts());
  if (Base.Adaptive.Enabled) {
    // Adaptive re-optimization thaws frozen blocks, so no static freeze
    // timeline exists: pump the events.
    Out.PerThreshold =
        replaySweepEvents(Trace, P, Unique, Base).PerThreshold;
  } else {
    Out.PerThreshold.resize(Unique.size());
    if (!Unique.empty()) {
      const TraceIndex &Idx = Trace.index();
      // Per-threshold snapshots are independent units; dispatch them on
      // the worker pool alongside the per-benchmark parallelism. Results
      // are stored by index, so they are identical at any job count.
      parallelFor(Unique.size(), Jobs, [&](size_t I) {
        dbt::DbtOptions Opts = Base;
        Opts.Threshold = Unique[I];
        Out.PerThreshold[I] = evaluateIndexed(Trace, Idx, P, G, Opts);
      });
    }
  }

  Out.PerThreshold = Slots.fanOut(Out.PerThreshold.data());
  return Out;
}
