//===- core/TraceIndex.h - Analytic replay index over a trace ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A positional index over one recorded BlockTrace that turns the event
/// stream into O(1)/O(log) queries, so non-adaptive translation policies
/// can be evaluated *analytically* instead of by pumping every event
/// through every policy (see core::replaySweep).
///
/// The key observation (paper Section 3.1): a block's counters freeze the
/// moment its use count reaches the retranslation threshold T, and for a
/// fixed trace that moment is a pure function of the trace — the position
/// of the block's T-th occurrence. The index therefore stores:
///
///  - per-block occurrence positions in CSR layout (one flat uint32_t
///    event-position array plus per-block begin offsets), giving the
///    freeze event of block b under threshold T as occ[b][T-1];
///  - per-block taken-bit and instruction prefix sums, giving any block's
///    counters "as of event p" as two prefix differences, and the
///    instructions of any run of a block's occurrences (the loop fold's
///    accounting) the same way.
///
/// That is 16 bytes per event (a 4-byte position, a 4-byte taken prefix
/// and an 8-byte instruction prefix) plus two words per block. The final
/// counters the trace already carries size the CSR rows, so building the
/// index is one scatter pass over the events; it is built at most once
/// per trace (see BlockTrace::index()), only when a threshold replay
/// needs it, and lives in memory only. It is never persisted: rebuilding
/// it from a loaded trace is cheaper than reading, inflating, and parsing
/// a stored copy, and it spares the cache a second on-disk format to
/// validate.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACEINDEX_H
#define TPDBT_CORE_TRACEINDEX_H

#include "guest/Program.h"
#include "profile/Profile.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace core {

class BlockTrace;
struct TraceEvent;

/// Immutable positional index over one BlockTrace (see file comment).
/// Event positions are uint32_t; traces are capped well below 2^32 events
/// (the largest full-scale recording is ~10^8).
class TraceIndex {
public:
  /// Builds the index for \p Trace in one scatter pass over its events.
  static TraceIndex build(const BlockTrace &Trace);

  /// The per-segment index material the streamed pipeline builds while a
  /// segment is still in flight: the segment's events grouped by block
  /// (a segment-local CSR), with global positions and the per-occurrence
  /// outcome/instruction payload needed to stitch the per-block prefix
  /// rows without re-touching the event stream.
  struct SegmentPart {
    std::vector<uint32_t> SegBegin; ///< NumBlocks+1 CSR offsets
    std::vector<uint32_t> Pos;      ///< global positions, grouped by block
    std::vector<uint8_t> Taken;     ///< parallel taken-outcome bits
    std::vector<uint32_t> Insts;    ///< parallel instruction counts
  };

  /// Indexes one segment: \p N events starting at global position
  /// \p BasePos, over a program of \p NumBlocks blocks. Pure function of
  /// the slice — safe to run concurrently with recording of later events.
  static SegmentPart buildPart(const TraceEvent *Ev, size_t N,
                               size_t NumBlocks, uint64_t BasePos);

  /// Assembles the full index from per-segment parts (in stream order):
  /// per-block rows are concatenations of the parts' block rows with the
  /// prefix sums continued across segment boundaries. Reads only the
  /// parts, never the event stream. Produces the same queries as build();
  /// the pipeline's differential tests pin that.
  static TraceIndex stitch(const BlockTrace &Trace,
                           const std::vector<SegmentPart> &Parts);

  size_t numBlocks() const { return BlockBegin.size() - 1; }
  size_t numEvents() const { return OccPos.size(); }
  uint64_t totalInsts() const { return TotalInsts; }
  uint64_t takenEvents() const { return TakenEvents; }

  /// Number of occurrences of block \p B in the trace (its final use
  /// count).
  uint32_t occurrences(guest::BlockId B) const {
    return BlockBegin[B + 1] - BlockBegin[B];
  }

  /// Event position of the (0-based) \p K-th occurrence of \p B. Under
  /// threshold T, position(B, T-1) is the event where B registers in the
  /// candidate pool and position(B, 2T-1) its registered-twice trigger.
  uint32_t position(guest::BlockId B, uint32_t K) const {
    return OccPos[BlockBegin[B] + K];
  }

  /// Occurrences of \p B at positions <= \p Pos: the shared use counter
  /// right after the event at \p Pos executes. O(log occurrences).
  uint32_t usesThrough(guest::BlockId B, uint32_t Pos) const;

  /// The occurrence rank of \p B's event at position \p Pos (which must be
  /// an occurrence of \p B). O(log occurrences).
  uint32_t occurrenceAt(guest::BlockId B, uint32_t Pos) const;

  /// Taken-branch outcomes among the first \p K occurrences of \p B.
  uint32_t takenOfFirst(guest::BlockId B, uint32_t K) const {
    return TakenPre[prefBegin(B) + K];
  }

  /// Guest instructions executed by the first \p K occurrences of \p B.
  uint64_t instsOfFirst(guest::BlockId B, uint32_t K) const {
    return InstsPre[prefBegin(B) + K];
  }

  /// Shared counters of \p B as of (and including) the event at \p Pos —
  /// what the event pump's Shared[B] holds right after that event.
  profile::BlockCounters countersThrough(guest::BlockId B,
                                         uint32_t Pos) const {
    uint32_t K = usesThrough(B, Pos);
    return {K, takenOfFirst(B, K)};
  }

  /// First occurrence rank >= \p K of \p B whose taken outcome differs
  /// from \p Taken; occurrences(B) when the rest of the stream matches.
  /// O(log occurrences) via the taken-bit prefix sums — this is what makes
  /// single-node loop regions evaluable in closed form.
  uint32_t firstOutcomeChange(guest::BlockId B, uint32_t K,
                              bool Taken) const;

  /// True when the index plausibly describes \p Trace (dimension and
  /// total checks; guards BlockTrace::adoptIndex against a foreign index).
  bool matches(const BlockTrace &Trace) const;

private:
  /// An index with its CSR rows sized from \p Trace's final counters and
  /// its arrays zeroed; build() and stitch() fill it.
  static TraceIndex shaped(const BlockTrace &Trace);

  /// Start of block \p B's prefix-sum row. Each row holds occurrences+1
  /// entries (a leading zero), so rows are shifted by one slot per block.
  size_t prefBegin(guest::BlockId B) const {
    return static_cast<size_t>(BlockBegin[B]) + B;
  }

  /// CSR offsets: block B's occurrence positions are
  /// OccPos[BlockBegin[B] .. BlockBegin[B+1]).
  std::vector<uint32_t> BlockBegin;
  std::vector<uint32_t> OccPos;
  /// Per-block prefix sums over occurrence outcomes, rows addressed by
  /// prefBegin(); entry [row + k] covers the first k occurrences.
  std::vector<uint32_t> TakenPre;
  std::vector<uint64_t> InstsPre;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACEINDEX_H
