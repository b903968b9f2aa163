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
/// configurations against it (cheap). replaySweep() is the trace-driven
/// twin of core::runSweep and produces byte-identical snapshots — a
/// property test asserts that.
///
/// On disk a trace is one TPDT v3 container (core/TraceSegments.h,
/// docs/CACHE_FORMAT.md): a header with the stream totals, the final
/// per-block use/taken counters (they arm policy retirement and the
/// analytic index without an O(events) pre-pass), and a segment
/// directory, followed by one TPDZ-compressed frame per segment. Each
/// frame holds two varints per event: the block id delta-encoded against
/// the previous event's id (zigzag) with the branch outcome folded into
/// the low bits, and the executed instruction count — typically 2-3 bytes
/// per event before compression.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACE_H
#define TPDBT_CORE_TRACE_H

#include "core/Runner.h"
#include "guest/Program.h"
#include "profile/Profile.h"

#include <algorithm>
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

class TraceIndex;

/// One recorded block event.
struct TraceEvent {
  guest::BlockId Block = 0;
  /// 0 = no conditional branch, 1 = branch not taken, 2 = branch taken.
  uint8_t Branch = 0;
  uint32_t Insts = 0;
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
  /// segments to its compressor/indexer stage from here). The callback
  /// must not retain references into the trace across calls — the event
  /// vector may reallocate as recording continues.
  using SegmentProgressFn = std::function<uint64_t(const BlockTrace &)>;

  /// Records a full execution of \p P (up to \p MaxBlocks events).
  /// Interpretation runs under the host translation tier (vm/HostTier.h)
  /// unless TPDBT_HOST_TRANS=0; either way the recorded bytes are
  /// identical — self-loop runs land through appendRun() instead of
  /// per-event append(). \p TierStats, when non-null, accumulates the
  /// tier's coverage counters. When \p SegmentBudget is nonzero,
  /// \p OnSegment fires at each boundary crossing (one integer compare
  /// per sink delivery otherwise) — boundary checks run after batched
  /// deliveries, so a crossing can overshoot by one run/chain batch.
  static BlockTrace record(const guest::Program &P, uint64_t MaxBlocks = ~0ull,
                           vm::HostTierStats *TierStats = nullptr,
                           const SegmentProgressFn &OnSegment = nullptr,
                           uint64_t SegmentBudget = 0);

  /// Serializes to the TPDT v3 container (core/TraceSegments.h) with
  /// \p Budget events per segment (>= 1; the last segment takes the
  /// remainder). The record pipeline (core/TracePipeline.h) writes the
  /// same bytes at its budget; this is the reference writer.
  std::string serializeSegmented(uint64_t Budget) const;
  /// Parses a TPDT v3 container; the result is event-identical to the
  /// serialized trace at any budget. Each segment is inflated and decoded
  /// straight onto the trace's event vector and folded into its counters
  /// in one pass; the segment sums and the header's counter table are
  /// checked against the decoded events. Any other version — the retired
  /// monolithic v1/v2 included — fails as unsupported.
  static bool parse(const std::string &Bytes, BlockTrace &Out,
                    std::string *Error);

  size_t numEvents() const { return Events.size(); }
  size_t numBlocks() const { return NumBlocks; }
  const TraceEvent &event(size_t I) const { return Events[I]; }
  uint64_t totalInsts() const { return TotalInsts; }
  /// Number of events that are taken conditional branches (supports the
  /// closed-form policy fast-forward in replaySweep).
  uint64_t takenEvents() const { return TakenEvents; }

  /// Final per-block use/taken counters, maintained incrementally by
  /// append(). These are the end-of-run shared counters every replay needs
  /// up front (oracle arming, snapshot finals, index row sizes).
  const std::vector<profile::BlockCounters> &finalCounts() const {
    return Final;
  }

  /// The analytic replay index over this trace, built on first use (the
  /// first threshold replay) and cached for the trace's lifetime.
  /// Thread-safe.
  const TraceIndex &index() const;

  /// Installs a precomputed index (e.g. the one the record pipeline
  /// stitches from its segment parts).
  /// Rejected unless it matches this trace; returns whether it was
  /// adopted (an already-built index also counts as adopted).
  bool adoptIndex(std::shared_ptr<const TraceIndex> Idx) const;

  /// The cached index, or null if none has been built or adopted yet.
  std::shared_ptr<const TraceIndex> sharedIndex() const;

  /// Appends one event (used by record() and tests).
  void append(const TraceEvent &E) {
    Events.push_back(E);
    countEvent(E);
  }
  /// Appends \p N copies of one event — the run-length entry point for
  /// the host tier's batched self-loop iterations. Equivalent to calling
  /// append(E) N times (serialized bytes included), without the
  /// per-event counter maintenance.
  void appendRun(const TraceEvent &E, uint64_t N) {
    if (N == 0)
      return;
    // Explicit doubling + push_back loop: vector's fill-insert path
    // (insert(end, N, E) / resize(n, E)) measures ~2x slower here than
    // the inlined push_back fast path it bypasses.
    const size_t Need = Events.size() + N;
    if (Need > Events.capacity())
      Events.reserve(std::max(Need, Events.capacity() * 2));
    for (uint64_t I = 0; I < N; ++I)
      Events.push_back(E);
    TotalInsts += static_cast<uint64_t>(E.Insts) * N;
    if (Final.size() <= E.Block)
      Final.resize(E.Block + 1);
    Final[E.Block].Use += N;
    if (E.Branch == 2) {
      TakenEvents += N;
      Final[E.Block].Taken += N;
    }
  }
  /// Pre-sizes the event storage. record() and parse() use this to avoid
  /// the vector growth chain, which on multi-megabyte traces costs more
  /// than the event stores themselves (every doubling is a fresh
  /// allocation, a copy, and a page-fault pass over the new region;
  /// reserved-but-untouched pages are never faulted, so overshooting is
  /// nearly free).
  void reserveEvents(size_t N) { Events.reserve(N); }
  void setNumBlocks(size_t N) {
    NumBlocks = N;
    if (Final.size() < N)
      Final.resize(N);
  }

private:
  /// Folds one stored event into the running totals and final counters.
  void countEvent(const TraceEvent &E) {
    TotalInsts += E.Insts;
    if (Final.size() <= E.Block)
      Final.resize(E.Block + 1);
    ++Final[E.Block].Use;
    if (E.Branch == 2) {
      ++TakenEvents;
      ++Final[E.Block].Taken;
    }
  }

  std::vector<TraceEvent> Events;
  std::vector<profile::BlockCounters> Final;
  size_t NumBlocks = 0;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
  /// Lazily-built index (see index()). Mutable: the index is a cache of a
  /// pure function of the trace, not logical state.
  mutable std::mutex IndexLock;
  mutable std::shared_ptr<const TraceIndex> Index;
};

/// Trace-driven twin of runSweep(): derives the snapshot for one policy
/// per threshold (plus the profiling-only policy), byte-identical to a
/// live sweep of the same execution.
///
/// Non-adaptive policies are evaluated *analytically* from the trace's
/// TraceIndex: the freeze timeline is reconstructed from per-block
/// occurrence positions (registration at the T-th occurrence, the
/// registered-twice trigger at the 2T-th), frozen counters come from
/// prefix-sum differences, region formation and cost accounting run
/// exactly as in the pump on those counters, and only the optimized
/// sub-stream (events of frozen blocks after their freeze) is walked —
/// with repeating loop-region iterations folded into closed form.
/// Duplicate thresholds share one evaluation, and the per-threshold units
/// are dispatched on up to \p Jobs worker threads (results are identical
/// at any job count).
///
/// The profiling-only Average is dbt::profilingAverage(), a closed form of
/// the trace's final counters and stream totals, so the index is built
/// (on first use, see BlockTrace::index()) only when \p Thresholds is
/// non-empty: an AVEP-only replay never builds it.
///
/// Adaptive policies (frozen blocks can thaw, so no static freeze
/// timeline exists) fall back to replaySweepEvents().
SweepResult replaySweep(const BlockTrace &Trace, const guest::Program &P,
                        const std::vector<uint64_t> &Thresholds,
                        const dbt::DbtOptions &Base, unsigned Jobs = 1);

/// The event-pump replay: feeds every trace event through every policy,
/// with oracle-based retirement of settled policies (see
/// TranslationPolicy::beginOracle). Kept as the adaptive-mode path and as
/// the differential-testing oracle for the analytic path above.
SweepResult replaySweepEvents(const BlockTrace &Trace,
                              const guest::Program &P,
                              const std::vector<uint64_t> &Thresholds,
                              const dbt::DbtOptions &Base);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACE_H
