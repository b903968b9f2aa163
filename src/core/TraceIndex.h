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
///  - per-block rows of taken bits (bit k of a row is the outcome of the
///    block's k-th occurrence), with a 32-bit checkpoint per 64-bit word
///    holding the row's taken count before that word, giving any block's
///    counters "as of event p" as a checkpoint plus one popcount;
///  - per-block lengths (the trace's shape table), giving the
///    instructions of any run of a block's occurrences as a product —
///    every occurrence is whole except a partial final event, which the
///    index corrects for.
///
/// That is about 4.2 bytes per event (a 4-byte position, one bit, and a
/// 4-byte checkpoint per 64 events) plus, per block, one word and
/// checkpoint of row slack and three 4-byte offsets and lengths; with the
/// trace's own 4-byte event word, a replayed event holds about 8.2 bytes.
/// The final counters the trace already carries size the CSR and bit
/// rows, so building the index is one scatter pass over the events (each
/// event stores its position and ORs in its taken bit) and one popcount
/// pass over the bit rows. build() is the only way an
/// index is made, for a freshly recorded trace and a loaded one alike: at
/// most once per trace (see BlockTrace::index()), only when a threshold
/// replay needs it, and in memory only. It is never persisted: rebuilding
/// it from a loaded trace is cheaper than reading, inflating, and parsing
/// a stored copy, and it spares the cache a second on-disk format to
/// validate.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACEINDEX_H
#define TPDBT_CORE_TRACEINDEX_H

#include "guest/Program.h"
#include "profile/Profile.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace tpdbt {
namespace core {

class BlockTrace;

/// Immutable positional index over one BlockTrace (see file comment).
/// Event positions are uint32_t; traces are capped well below 2^32 events
/// (the largest full-scale recording is ~10^8).
class TraceIndex {
public:
  /// Builds the index for \p Trace in one scatter pass over its events.
  static TraceIndex build(const BlockTrace &Trace);

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

  /// Taken-branch outcomes among the first \p K occurrences of \p B
  /// (K <= occurrences(B)): the checkpoint before K's word plus the taken
  /// bits below K in it.
  uint32_t takenOfFirst(guest::BlockId B, uint32_t K) const {
    const size_t W = WordBegin[B] + K / 64;
    const uint64_t Below = (uint64_t(1) << (K % 64)) - 1;
    return Checkpoint[W] +
           static_cast<uint32_t>(std::popcount(TakenBits[W] & Below));
  }

  /// Guest instructions executed by the first \p K occurrences of \p B:
  /// K whole executions, less the shortfall of a partial final event when
  /// the K occurrences include it (it is its block's last occurrence).
  uint64_t instsOfFirst(guest::BlockId B, uint32_t K) const {
    const uint64_t Whole = static_cast<uint64_t>(K) * Len[B];
    return B == TailBlock && K == occurrences(B) ? Whole - TailShort : Whole;
  }

  /// Shared counters of \p B as of (and including) the event at \p Pos —
  /// what the event pump's Shared[B] holds right after that event.
  profile::BlockCounters countersThrough(guest::BlockId B,
                                         uint32_t Pos) const {
    uint32_t K = usesThrough(B, Pos);
    return {K, takenOfFirst(B, K)};
  }

private:
  /// An index with its CSR rows sized from \p Trace's final counters and
  /// its arrays zeroed; build() fills it.
  static TraceIndex shaped(const BlockTrace &Trace);

  /// CSR offsets: block B's occurrence positions are
  /// OccPos[BlockBegin[B] .. BlockBegin[B+1]).
  std::vector<uint32_t> BlockBegin;
  std::vector<uint32_t> OccPos;
  /// Word offsets of the taken-bit rows: block B's row is
  /// TakenBits[WordBegin[B] .. WordBegin[B+1]), occurrences/64 + 1 words
  /// (bit k%64 of word k/64 is occurrence k's outcome; bits past the
  /// last occurrence are zero), so a row always has a word for rank
  /// occurrences(B) itself.
  std::vector<uint32_t> WordBegin;
  std::vector<uint64_t> TakenBits;
  /// Per word: the row's taken count before that word.
  std::vector<uint32_t> Checkpoint;
  /// Per-block whole-event length.
  std::vector<uint32_t> Len;
  /// The block of a partial final event and the instructions it fell
  /// short by; TailBlock is guest::InvalidBlock when the trace has none.
  guest::BlockId TailBlock = guest::InvalidBlock;
  uint32_t TailShort = 0;
  uint64_t TotalInsts = 0;
  uint64_t TakenEvents = 0;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACEINDEX_H
