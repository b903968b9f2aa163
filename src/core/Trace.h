//===- core/Trace.h - Block-event trace record / replay ---------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records one execution's block-event stream and replays it through
/// translation policies without re-interpreting.
///
/// This is the standard decoupling in DBT/profiling research: collect the
/// trace once (expensive), then study arbitrarily many translator
/// configurations against it (cheap). replaySweep() derives snapshots
/// byte-identical to one live dbt::DbtEngine run per threshold for the
/// paper's two-phase policies (counters freeze at optimization and never
/// thaw). Tests assert that, and diff it against a plain event pump that
/// lives only in tests (tests/oracle/EventPump.h).
///
/// In memory an event is one 32-bit word, the block id and its branch
/// outcome: the instruction count and the branch kind are functions of
/// the block (its BlockShape), except for a final event a MemFault cut
/// short, whose count the trace keeps on the side.
///
/// On disk a trace is one TPDT v4 container (core/TraceSegments.h,
/// docs/CACHE_FORMAT.md): a header with the block shape table, the final
/// per-block use/taken counters (they bound the replay's crossing targets
/// and give the closed-form average without an O(events) pre-pass), and a
/// segment
/// directory, followed by one TPDZ-compressed frame per segment. Each
/// frame holds one varint per event: the block id delta-encoded against
/// the previous event's id (zigzag), shifted left once with the taken bit
/// in the low bit — typically one byte per event before compression.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACE_H
#define TPDBT_CORE_TRACE_H

#include "core/Runner.h"
#include "guest/Program.h"
#include "profile/Profile.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpdbt {
namespace vm {
struct HostTierStats;
} // namespace vm
namespace core {

class SegmentedTraceReader;
class TraceIndex;

/// One recorded block event, as BlockTrace::event() expands it.
struct TraceEvent {
  guest::BlockId Block = 0;
  /// 0 = no conditional branch, 1 = branch not taken, 2 = branch taken.
  uint8_t Branch = 0;
  uint32_t Insts = 0;
};

/// One stored event: the block id shifted left once, with the branch
/// outcome (1 = taken) in the low bit.
using EventWord = uint32_t;

inline EventWord packEvent(guest::BlockId B, bool Taken) {
  return static_cast<EventWord>(B) << 1 | (Taken ? 1u : 0u);
}
inline guest::BlockId eventBlock(EventWord W) { return W >> 1; }
inline bool eventTaken(EventWord W) { return W & 1; }

/// What every whole execution of one block looks like: the instructions
/// it executes (body plus terminator) and whether it ends in a
/// conditional branch. Only a run's final event can fall short: a
/// MemFault stops the run mid-block, before the terminator
/// (vm/Interpreter.h executeBlock).
struct BlockShape {
  uint32_t Len = 0;
  bool Cond = false;
  bool operator==(const BlockShape &) const = default;
};

/// \p P's shape table, one entry per block.
std::vector<BlockShape> blockShapes(const guest::Program &P);

/// What the profiling-only average (dbt::profilingAverage) reads of a
/// recorded execution: the final per-block counters and the stream
/// totals. TraceCache::totals() answers it without holding the events.
struct TraceTotals {
  std::vector<profile::BlockCounters> Final;
  uint64_t NumEvents = 0;
  uint64_t TakenEvents = 0;
  uint64_t TotalInsts = 0;
};

/// A recorded execution.
class BlockTrace {
public:
  BlockTrace() = default;
  BlockTrace(const BlockTrace &Other);
  BlockTrace(BlockTrace &&Other) noexcept;
  BlockTrace &operator=(const BlockTrace &Other);
  BlockTrace &operator=(BlockTrace &&Other) noexcept;

  /// Segment-boundary callback for record(): invoked with the trace so
  /// far whenever the event count reaches the current boundary; returns
  /// the next boundary to watch for (core/TracePipeline.h hands finished
  /// segments to its compressor stage from here). The callback
  /// must not retain references into the trace across calls — the event
  /// vector may reallocate as recording continues.
  using SegmentProgressFn = std::function<uint64_t(const BlockTrace &)>;

  /// Records a full execution of \p P (up to \p MaxBlocks events).
  /// Interpretation runs under the host translation tier (vm/HostTier.h)
  /// when HostTier::enabled(), else under the plain interpreter; either
  /// way the recorded bytes are identical — self-loop runs land through
  /// appendRun() instead of per-event append(). \p TierStats, when
  /// non-null, accumulates the tier's coverage counters. When
  /// \p SegmentBudget is nonzero, \p OnSegment fires at each boundary
  /// crossing (one integer compare per sink delivery otherwise) —
  /// boundary checks run after batched deliveries, so a crossing can
  /// overshoot by one run/chain batch.
  static BlockTrace record(const guest::Program &P, uint64_t MaxBlocks = ~0ull,
                           vm::HostTierStats *TierStats = nullptr,
                           const SegmentProgressFn &OnSegment = nullptr,
                           uint64_t SegmentBudget = 0);

  /// Serializes to the TPDT v4 container (core/TraceSegments.h) with
  /// \p Budget events per segment (>= 1; the last segment takes the
  /// remainder). The record pipeline (core/TracePipeline.h) writes the
  /// same bytes at its budget; this is the reference writer.
  std::string serializeSegmented(uint64_t Budget) const;
  /// Decodes every segment of \p Reader's TPDT v4 container into \p Out
  /// through SegmentedTraceReader::readAll(): in one pass over each
  /// segment's inflated bytes, the events land straight on the trace's
  /// event vector and fold into its counter table, and the segment sums
  /// and the header's counter table are checked against them. The result
  /// is event-identical to the serialized trace at any budget.
  /// TraceCache::get() decodes a disk entry this way, one frame read from
  /// the file at a time.
  static bool decode(SegmentedTraceReader &Reader, BlockTrace &Out,
                     std::string *Error);
  /// decode() over an in-memory container (a bytes-backed
  /// SegmentedTraceReader holding a copy of \p Bytes). Any version other
  /// than v4 — the retired monolithic v1/v2 and the two-varint v3
  /// included — fails as unsupported.
  static bool parse(const std::string &Bytes, BlockTrace &Out,
                    std::string *Error);

  size_t numEvents() const { return Words.size(); }
  size_t numBlocks() const { return Shapes.size(); }
  /// Event \p I, expanded from its word and its block's shape.
  TraceEvent event(size_t I) const {
    const EventWord W = Words[I];
    const guest::BlockId B = eventBlock(W);
    if (TailInsts && I + 1 == Words.size())
      return {B, 0, TailInsts};
    const BlockShape &S = Shapes[B];
    return {B, static_cast<uint8_t>(S.Cond ? 1 + eventTaken(W) : 0), S.Len};
  }
  /// The stored events, in stream order.
  const std::vector<EventWord> &words() const { return Words; }
  /// The per-block shape table every whole event expands through.
  const std::vector<BlockShape> &shapes() const { return Shapes; }
  /// The final event's instruction count when a fault cut it short of its
  /// block's length; 0 when the final event (if any) is whole.
  uint32_t tailInsts() const { return TailInsts; }
  uint64_t totalInsts() const { return TotalInsts; }
  /// Number of events that are taken conditional branches (an input of the
  /// closed-form profiling-only snapshot, dbt::profilingAverage).
  uint64_t takenEvents() const { return TakenEvents; }

  /// Final per-block use/taken counters, maintained incrementally by
  /// append(). These are the end-of-run shared counters the analytic replay
  /// needs up front (snapshot finals, crossing targets).
  const std::vector<profile::BlockCounters> &finalCounts() const {
    return Final;
  }
  /// The final counters and stream totals, copied out.
  TraceTotals totals() const {
    return {Final, numEvents(), TakenEvents, TotalInsts};
  }

  /// A positional index over this trace (core/TraceIndex.h), built on
  /// first use and cached for the trace's lifetime. Off the production
  /// path: neither recording, loading nor replaySweep() builds one; the
  /// traced mirror in bench/e2e and the index's own tests do. Thread-safe.
  const TraceIndex &index() const;

  /// The cached index, or null if none has been built yet.
  std::shared_ptr<const TraceIndex> sharedIndex() const;

  /// Appends one event (used by record() and tests). The shape table must
  /// be set; an event short of its block's length must be the last one.
  void append(const TraceEvent &E) {
    assert(!TailInsts && "a partial event ends the trace");
    const BlockShape &S = Shapes[E.Block];
    if (E.Insts != S.Len) {
      assert(E.Insts > 0 && E.Insts < S.Len && E.Branch == 0 &&
             "only a fault cuts an event short, before its terminator");
      TailInsts = E.Insts;
    } else {
      assert((E.Branch != 0) == S.Cond && "event disagrees with its shape");
    }
    Words.push_back(packEvent(E.Block, E.Branch == 2));
    TotalInsts += E.Insts;
    profile::BlockCounters &C = Final[E.Block];
    ++C.Use;
    if (E.Branch == 2) {
      ++TakenEvents;
      ++C.Taken;
    }
  }
  /// Appends \p N copies of one whole event — the run-length entry point
  /// for the host tier's batched self-loop iterations. Equivalent to
  /// calling append(E) N times (serialized bytes included), without the
  /// per-event counter maintenance.
  void appendRun(const TraceEvent &E, uint64_t N) {
    if (N == 0)
      return;
    assert(!TailInsts && E.Insts == Shapes[E.Block].Len &&
           "a run holds whole events only");
    // Explicit doubling + push_back loop: vector's fill-insert path
    // (insert(end, N, E) / resize(n, E)) measures ~2x slower here than
    // the inlined push_back fast path it bypasses.
    const size_t Need = Words.size() + N;
    if (Need > Words.capacity())
      Words.reserve(std::max(Need, Words.capacity() * 2));
    const EventWord W = packEvent(E.Block, E.Branch == 2);
    for (uint64_t I = 0; I < N; ++I)
      Words.push_back(W);
    TotalInsts += static_cast<uint64_t>(E.Insts) * N;
    Final[E.Block].Use += N;
    if (E.Branch == 2) {
      TakenEvents += N;
      Final[E.Block].Taken += N;
    }
  }
  /// Pre-sizes the event storage. record() and decode() use this to avoid
  /// the vector growth chain, which on multi-megabyte traces costs more
  /// than the event stores themselves (every doubling is a fresh
  /// allocation, a copy, and a page-fault pass over the new region;
  /// reserved-but-untouched pages are never faulted, so overshooting is
  /// nearly free).
  void reserveEvents(size_t N) { Words.reserve(N); }
  /// Sets the shape table (one entry per block) and sizes the counters.
  void setShapes(std::vector<BlockShape> S) {
    Shapes = std::move(S);
    Final.resize(Shapes.size());
  }

private:
  std::vector<EventWord> Words;
  std::vector<BlockShape> Shapes;
  std::vector<profile::BlockCounters> Final;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
  uint32_t TailInsts = 0;
  /// Lazily-built index (see index()). Mutable: the index is a cache of a
  /// pure function of the trace, not logical state.
  mutable std::mutex IndexLock;
  mutable std::shared_ptr<const TraceIndex> Index;
};

/// A sweep's thresholds with duplicates (a daemon client may send some)
/// folded, so equal requests share one evaluation: each distinct value
/// once, in first-occurrence order, and each request's slot among them.
/// Without duplicates Unique is the request list and SlotOf the identity.
struct ThresholdSlots {
  std::vector<uint64_t> Unique;
  std::vector<size_t> SlotOf;

  /// One result per request from one per slot (\p Slots holds
  /// Unique.size() of them). Each slot moves out at its last use; only a
  /// duplicated threshold's earlier uses copy.
  template <typename T> std::vector<T> fanOut(T *Slots) const {
    std::vector<size_t> LastUse(Unique.size());
    for (size_t I = 0; I < SlotOf.size(); ++I)
      LastUse[SlotOf[I]] = I;
    std::vector<T> Out;
    Out.reserve(SlotOf.size());
    for (size_t I = 0; I < SlotOf.size(); ++I) {
      T &Slot = Slots[SlotOf[I]];
      Out.push_back(I == LastUse[SlotOf[I]] ? std::move(Slot) : Slot);
    }
    return Out;
  }
};

/// Folds the duplicates out of \p Thresholds (see ThresholdSlots).
ThresholdSlots dedupThresholds(const std::vector<uint64_t> &Thresholds);

/// Derives the snapshot for one policy per threshold (plus the
/// profiling-only policy), byte-identical to one live dbt::DbtEngine run
/// per threshold over the same execution.
///
/// Policies are evaluated *analytically* in two forward passes over the
/// trace's event words; no index is built. Pass 1 records, for each
/// block's T-th and 2T-th use over the distinct thresholds, the event
/// position and every block's counters there (memory O(blocks x
/// crossings), whatever the trace length).
/// The policy's freeze timeline (dbt::TranslationPolicy::freezeTimeline,
/// registration at the T-th occurrence, the registered-twice trigger at
/// the 2T-th) runs on those exact counters, so region formation and cost
/// accounting run exactly as in a live engine. The profiling phase, and
/// the post-freeze stream of every block that forms a one-node region
/// alone, take closed forms over the counts. Pass 2 is one walk from the
/// earliest freeze that hands every later event of the other frozen
/// blocks to each policy that froze them. The sampled estimator
/// (sample/Estimator.h) drives the same timeline with estimated sources.
/// Duplicate thresholds share one evaluation, and the per-threshold
/// timelines are dispatched on up to \p Jobs worker threads (results are
/// identical at any job count).
///
/// The profiling-only Average is dbt::profilingAverage(), a closed form of
/// the trace's final counters and stream totals: an AVEP-only replay reads
/// no event.
///
/// Throws std::invalid_argument when \p Base is adaptive: frozen blocks
/// can thaw there, so no static freeze timeline exists. Adaptive policies
/// run only under dbt::DbtEngine.
SweepResult replaySweep(const BlockTrace &Trace, const guest::Program &P,
                        const std::vector<uint64_t> &Thresholds,
                        const dbt::DbtOptions &Base, unsigned Jobs = 1);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACE_H
