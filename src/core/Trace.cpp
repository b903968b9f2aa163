//===- core/Trace.cpp - Block-event trace record / replay ------------------===//

#include "core/Trace.h"

#include "core/TraceIndex.h"
#include "core/TraceSegments.h"
#include "support/Compression.h"
#include "support/ThreadPool.h"
#include "vm/HostTier.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <unordered_map>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

std::vector<BlockShape> tpdbt::core::blockShapes(const Program &P) {
  std::vector<BlockShape> Shapes(P.numBlocks());
  for (size_t B = 0; B < Shapes.size(); ++B) {
    const Block &Blk = P.block(static_cast<BlockId>(B));
    // The terminator counts as one instruction, as in
    // Program::staticInstCount().
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

/// Events per chunk of the replay's forward scans.
constexpr size_t ScanChunk = 1024;

/// Pass 1 of the exact replay: every block's counters at each crossing,
/// from one forward scan of the event words.
///
/// A crossing target of block B is a use count J in {T, 2T}, over the
/// sweep's thresholds, with J <= B's final use count: the only uses at
/// which a threshold's freeze timeline reads the stream. The scan records
/// the event position of B's J-th use and a copy of every block's shared
/// counters through that event. Its memory is O(blocks x crossings),
/// independent of the trace's length.
class CrossingTable {
public:
  CrossingTable(const BlockTrace &Trace, const std::vector<uint64_t> &Ts)
      : N(Trace.numBlocks()), Begin(N + 1) {
    const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();
    // Per block, its sorted distinct targets (2T of one threshold can be
    // T of another).
    for (size_t B = 0; B < N; ++B) {
      Begin[B] = Target.size();
      const uint64_t Use = Final[B].Use;
      for (uint64_t T : Ts) {
        if (T == 0 || Use < T)
          continue;
        Target.push_back(T);
        if (Use >= 2 * T)
          Target.push_back(2 * T);
      }
      std::sort(Target.begin() + Begin[B], Target.end());
      Target.erase(std::unique(Target.begin() + Begin[B], Target.end()),
                   Target.end());
    }
    Begin[N] = Target.size();
    PosOf.resize(Target.size());

    // Next[B] is the use count of B's next target (0 = none left).
    std::vector<uint32_t> Next(N, 0);
    std::vector<size_t> NextSlot(Begin.begin(), Begin.end() - 1);
    for (size_t B = 0; B < N; ++B)
      if (Begin[B] < Begin[B + 1])
        Next[B] = static_cast<uint32_t>(Target[Begin[B]]);
    const std::vector<EventWord> &Words = Trace.words();
    const size_t E = Words.size();
    Pos.reserve(Target.size());
    Snap.reserve(Target.size() * N);
    // A chunk at a time. Its words are first counted into four lanes of a
    // histogram indexed by event word (so a self-loop's repeats do not
    // chain through one counter); only a chunk in which some block reaches
    // its next target, a small share of them, is counted again, event by
    // event, to place the crossing. Cnt holds every block's counters at
    // the chunk's start.
    constexpr size_t Lanes = 4;
    const size_t Width = 2 * N;
    std::vector<uint32_t> Hist(Lanes * Width, 0);
    std::vector<Counts> Cnt(N), Upto(N);
    for (size_t From = 0; From < E; From += ScanChunk) {
      const size_t To = std::min(E, From + ScanChunk);
      size_t I = From;
      for (; I + Lanes <= To; I += Lanes)
        for (size_t L = 0; L < Lanes; ++L)
          ++Hist[L * Width + Words[I + L]];
      for (; I < To; ++I)
        ++Hist[Words[I]];
      bool Crosses = false;
      for (size_t B = 0; B < N; ++B) {
        Counts &U = Upto[B];
        U = {};
        for (size_t L = 0; L < Lanes; ++L) {
          U.Use += Hist[L * Width + 2 * B] + Hist[L * Width + 2 * B + 1];
          U.Taken += Hist[L * Width + 2 * B + 1];
        }
        Crosses |= Next[B] && U.Use >= Next[B];
      }
      for (size_t J = From; Crosses && J < To; ++J) {
        const EventWord W = Words[J];
        const BlockId B = eventBlock(W);
        Counts &C = Cnt[B];
        ++C.Use;
        C.Taken += eventTaken(W);
        if (C.Use != Next[B])
          continue;
        PosOf[NextSlot[B]] = static_cast<uint32_t>(Pos.size());
        Pos.push_back(J);
        Snap.insert(Snap.end(), Cnt.begin(), Cnt.end());
        Next[B] = ++NextSlot[B] < Begin[B + 1]
                      ? static_cast<uint32_t>(Target[NextSlot[B]])
                      : 0;
      }
      Cnt = Upto;
    }
  }

  /// Event position of \p B's \p J-th use (\p J one of its targets).
  uint64_t position(BlockId B, uint64_t J) const {
    const auto First = Target.begin() + Begin[B],
               End = Target.begin() + Begin[B + 1];
    const auto It = std::lower_bound(First, End, J);
    assert(It != End && *It == J && "not a crossing target");
    return Pos[PosOf[It - Target.begin()]];
  }

  /// Every block's shared counters through the crossing at \p At.
  void countersAt(uint64_t At, std::vector<profile::BlockCounters> &Out) const {
    const auto It = std::lower_bound(Pos.begin(), Pos.end(), At);
    assert(It != Pos.end() && *It == At && "not a crossing position");
    const Counts *Row = &Snap[static_cast<size_t>(It - Pos.begin()) * N];
    for (size_t B = 0; B < N; ++B)
      Out[B] = {Row[B].Use, Row[B].Taken};
  }

private:
  /// Counters are 32-bit: traces stay below 2^32 events.
  struct Counts {
    uint32_t Use = 0;
    uint32_t Taken = 0;
  };
  size_t N;
  /// Block B's targets are Target[Begin[B] .. Begin[B+1]), ascending;
  /// PosOf maps each to its crossing.
  std::vector<size_t> Begin;
  std::vector<uint64_t> Target;
  std::vector<uint32_t> PosOf;
  /// Per crossing, in stream order: its event position and a row of N
  /// counters in Snap.
  std::vector<uint64_t> Pos;
  std::vector<Counts> Snap;
};

/// Guest instructions of \p B's first \p K occurrences: K whole
/// executions, less the shortfall of a partial final event when the K
/// occurrences include it.
uint64_t instsOfFirst(const BlockTrace &Trace, BlockId B, uint64_t K) {
  const uint64_t Whole = K * Trace.shapes()[B].Len;
  if (Trace.tailInsts() && K == Trace.finalCounts()[B].Use &&
      eventBlock(Trace.words().back()) == B)
    return Whole - (Trace.shapes()[B].Len - Trace.tailInsts());
  return Whole;
}

/// One frozen block a policy walks event by event: every occurrence after
/// its freeze position.
struct Walker {
  BlockId Block;
  uint64_t After;
  size_t Policy;
};

/// Evaluates one non-adaptive policy up to its walk: runs its freeze
/// timeline on the table's exact counters, accounts the profiling phase
/// and every frozen block that forms a one-node region alone in closed
/// form, and appends the frozen blocks left to walk to \p Walk.
void evaluateTimeline(const BlockTrace &Trace, const CrossingTable &Table,
                      dbt::TranslationPolicy &Policy, size_t PolicyIdx,
                      std::vector<Walker> &Walk) {
  const size_t N = Trace.numBlocks();
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();

  // Exact sources: a crossing is its use's event position, and a
  // trigger's counters are every block's shared counters through that
  // event (inclusive) — exactly the Shared vector a live engine would
  // pass. Distinct crossings sit at distinct events, so the timeline's
  // order is the live engine's processing order.
  const std::vector<dbt::FrozenBlock> Frozen = Policy.freezeTimeline(
      Final,
      [&](BlockId B, uint64_t J) {
        return static_cast<double>(Table.position(B, J));
      },
      [&](double Pos, std::vector<profile::BlockCounters> &Out) {
        Table.countersAt(static_cast<uint64_t>(Pos), Out);
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
    ProfInsts += instsOfFirst(Trace, static_cast<BlockId>(B), Pre[B].Use);
  }
  Policy.analyticAddProfiling(ProfEvents, ProfTaken, ProfInsts);

  // Region membership decides which blocks need the walk at all. Regions
  // grow only through unfrozen blocks, so a block's node appearances are
  // fixed the round it freezes: one whose sole appearance is the single
  // node of a region it enters has a per-occurrence behavior determined
  // by its own branch outcome. That collapses to a closed form over the
  // occurrence counts (Policy.h analytic section); every other frozen
  // block is walked.
  const std::vector<region::Region> &AllRegions = Policy.regions();
  std::vector<uint8_t> NodeCount(N, 0);
  std::vector<int32_t> EntryOf(N, -1);
  for (size_t R = 0; R < AllRegions.size(); ++R) {
    for (const region::RegionNode &Node : AllRegions[R].Nodes)
      if (NodeCount[Node.Orig] < 2)
        ++NodeCount[Node.Orig];
    EntryOf[AllRegions[R].entryBlock()] = static_cast<int32_t>(R);
  }
  for (const dbt::FrozenBlock &F : Frozen) {
    const BlockId B = F.Block;
    const uint64_t Cnt = Final[B].Use, From = F.At.Use;
    if (From >= Cnt)
      continue;
    const int32_t R = EntryOf[B];
    if (NodeCount[B] == 1 && R >= 0 && AllRegions[R].Nodes.size() == 1) {
      const uint64_t Taken = Final[B].Taken - F.At.Taken;
      Policy.analyticSingletonRegion(
          R, Taken, (Cnt - From) - Taken,
          instsOfFirst(Trace, B, Cnt) - instsOfFirst(Trace, B, From));
      continue;
    }
    Walk.push_back({B, static_cast<uint64_t>(F.Pos), PolicyIdx});
  }
}

/// Pass 2 of the exact replay: one forward walk from the earliest freeze
/// hands each event at position p of block B to every policy that walks
/// B with p past its freeze position, so each policy sees its optimized
/// sub-stream in global order.
void walkOptimized(const BlockTrace &Trace, std::vector<Walker> &Walk,
                   std::vector<std::unique_ptr<dbt::TranslationPolicy>> &Pol) {
  if (Walk.empty())
    return;
  // Per block, its walkers by freeze position: those already past their
  // freeze are a prefix, which only grows.
  std::sort(Walk.begin(), Walk.end(), [](const Walker &A, const Walker &B) {
    return A.Block != B.Block ? A.Block < B.Block : A.After < B.After;
  });
  const size_t N = Trace.numBlocks();
  std::vector<size_t> Begin(N + 1, Walk.size()), Active(N);
  uint64_t Start = ~uint64_t(0);
  for (size_t K = Walk.size(); K-- > 0;) {
    Begin[Walk[K].Block] = K;
    Start = std::min(Start, Walk[K].After + 1);
  }
  for (size_t B = N; B-- > 0;)
    Begin[B] = std::min(Begin[B], Begin[B + 1]);
  std::copy(Begin.begin(), Begin.end() - 1, Active.begin());

  // A chunk at a time, the positions of walked blocks' events are first
  // gathered without a branch per event; only they are visited.
  std::vector<uint8_t> Walked(N, 0);
  for (const Walker &W : Walk)
    Walked[W.Block] = 1;
  std::vector<uint64_t> Hits(ScanChunk);
  const std::vector<EventWord> &Words = Trace.words();
  for (uint64_t From = Start; From < Words.size(); From += ScanChunk) {
    const uint64_t To = std::min<uint64_t>(Words.size(), From + ScanChunk);
    size_t H = 0;
    for (uint64_t I = From; I < To; ++I) {
      Hits[H] = I;
      H += Walked[eventBlock(Words[I])];
    }
    for (size_t X = 0; X < H; ++X) {
      const uint64_t I = Hits[X];
      const BlockId B = eventBlock(Words[I]);
      size_t &A = Active[B];
      while (A < Begin[B + 1] && Walk[A].After < I)
        ++A;
      const vm::BlockResult R = resultOf(Trace.event(I));
      for (size_t K = Begin[B]; K < A; ++K)
        Pol[Walk[K].Policy]->analyticOptimizedEvent(B, R);
    }
  }
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

SweepResult tpdbt::core::replaySweep(const BlockTrace &Trace,
                                     const Program &P,
                                     const std::vector<uint64_t> &Thresholds,
                                     const dbt::DbtOptions &Base,
                                     unsigned Jobs) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  if (Base.Adaptive.Enabled)
    throw std::invalid_argument(
        "exact replay does not support adaptive policies");
  const ThresholdSlots Slots = dedupThresholds(Thresholds);
  const std::vector<uint64_t> &Unique = Slots.Unique;

  cfg::Cfg G(P);
  // The average is a closed form of the stream totals: only threshold
  // units read the events.
  SweepResult Out;
  Out.Average =
      dbt::profilingAverage(P, G, Base, Trace.finalCounts(),
                            Trace.numEvents(), Trace.takenEvents(),
                            Trace.totalInsts());
  Out.PerThreshold.resize(Unique.size());
  if (!Unique.empty()) {
    const CrossingTable Table(Trace, Unique);
    // Per-threshold timelines are independent units; dispatch them on the
    // worker pool alongside the per-benchmark parallelism, then walk once
    // for all of them. Results are stored by index, so they are identical
    // at any job count.
    std::vector<std::unique_ptr<dbt::TranslationPolicy>> Policies(
        Unique.size());
    std::vector<std::vector<Walker>> Walks(Unique.size());
    parallelFor(Unique.size(), Jobs, [&](size_t I) {
      dbt::DbtOptions Opts = Base;
      Opts.Threshold = Unique[I];
      Policies[I] = std::make_unique<dbt::TranslationPolicy>(P, G, Opts);
      evaluateTimeline(Trace, Table, *Policies[I], I, Walks[I]);
    });
    std::vector<Walker> Walk;
    for (std::vector<Walker> &W : Walks)
      Walk.insert(Walk.end(), W.begin(), W.end());
    walkOptimized(Trace, Walk, Policies);
    for (size_t I = 0; I < Unique.size(); ++I)
      Out.PerThreshold[I] = Policies[I]->finish(
          Trace.finalCounts(), Trace.numEvents(), Trace.totalInsts());
  }

  Out.PerThreshold = Slots.fanOut(Out.PerThreshold.data());
  return Out;
}
