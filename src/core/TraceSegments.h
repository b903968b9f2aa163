//===- core/TraceSegments.h - Sharded TPDT v4 trace container ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TPDT v4 trace container — the one on-disk trace format: the event
/// stream cut into fixed-event-budget segments, each independently
/// delta-varint encoded and TPDZ-compressed, behind a header that carries
/// the per-block shape table (instruction count and branch kind), the
/// final counter table and a segment directory (event count, payload
/// size, and the global instruction/taken prefix-sum bases at each
/// segment start).
///
/// Segment independence is the point of the format: because every
/// segment's delta encoding restarts from block 0 and its TPDZ frame is
/// self-contained, a segment can be compressed the moment the recorder
/// crosses its boundary (core/TracePipeline.h overlaps that work with
/// recording) and decompressed without touching any earlier segment
/// (sampled replay decodes only the segments its plan draws, without
/// inflating the rest of the file).
///
/// SegmentedTraceReader is the one code that walks a container's
/// segments, whether it reads a file frame by frame or owns the whole
/// container in memory. Its readSegment() inflates one frame and decodes
/// it through decodeSegmentEvents(), the one pass over a segment's
/// inflated bytes: each event is decoded, range-checked, summed, and
/// optionally folded into a counter table and stored, in the same loop
/// (a run of repeated events, one zero-delta byte each, in one step).
/// Every consumer is a loop over that call: readAll() decodes every
/// segment (BlockTrace::decode() storing and folding, verifyAll() folding
/// only, holding no event buffer) and ends with the whole-container check
/// that the table folded from every segment equals the header's, and a
/// sampled draw (sample/SampledReplay.h) folds one segment into a table.
/// The exact byte layout lives in docs/CACHE_FORMAT.md; the retired
/// v1/v2/v3 entries are rejected like any corrupt file.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACESEGMENTS_H
#define TPDBT_CORE_TRACESEGMENTS_H

#include "core/Trace.h"

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tpdbt {
namespace core {

/// Default per-segment event budget: 64Ki events (256 KiB of decoded
/// event words, about 64 KiB of raw varints before compression) — big enough that per-segment
/// overheads (TPDZ header, delta restart, directory row) are noise, small
/// enough that dozens of segments are in flight even at bench scale.
constexpr uint64_t DefaultSegmentEvents = uint64_t(1) << 16;

/// Floor for the recording pipeline's budget: below this the per-segment
/// fixed costs (a NumBlocks+1 CSR row per segment, pool submits) dwarf
/// the work. Format readers accept any budget >= 1; only the writer-side
/// env knob clamps.
constexpr uint64_t MinSegmentEvents = 256;

/// The TPDBT_SEGMENT_EVENTS knob, read fresh on every call (tests flip
/// it mid-process): unset, unparsable, or 0 -> DefaultSegmentEvents,
/// otherwise the value clamped up to MinSegmentEvents. Never 0.
uint64_t segmentEventBudget();

/// Delta-varint encodes \p N events, one varint each: the zigzagged
/// block-id delta (the chain restarting from 0 at the slice start)
/// shifted left once, with the taken bit in the low bit.
std::string encodeSegmentEvents(const EventWord *W, size_t N);

/// Instruction and taken-branch sums over a run of events.
struct EventSums {
  uint64_t Insts = 0;
  uint64_t Taken = 0;
  EventSums &operator+=(const EventSums &O) {
    Insts += O.Insts;
    Taken += O.Taken;
    return *this;
  }
};

/// What decodeSegmentEvents() reports of the events it decoded.
struct SegmentDecode {
  /// Their sums, each event counted whole (its block's full length).
  EventSums Sums;
  /// The final event; 0 when none was expected.
  EventWord Last = 0;
};

/// Decodes one segment's raw (decompressed) payload of exactly
/// \p ExpectEvents events in one pass over its bytes. Each varint is
/// decoded (one byte for nearly every event), its block range-checked
/// against \p Shapes, its taken bit checked against the block's branch
/// kind and its sums added to \p Result; the event is then folded into
/// \p Table (sized to \p Shapes) and appended to \p Out, each when
/// non-null. Rejects truncation, a varint wider than 64 bits, a block
/// below 0 or at or above the shape table's size, a taken bit on a block
/// without a conditional branch, and trailing bytes, each with its own
/// \p Error. On failure \p Out is restored to its size on entry, while
/// \p Table may hold a partial fold. A run of equal zero-delta bytes
/// (0x00 or 0x01: the previous block again, as in a self-loop) is folded
/// whole: checked once, summed and counted as Run events, and stored as
/// Run copies, capped at the events still expected and the bytes left, so
/// results and errors are those of an event-at-a-time walk. The encoding
/// is unchanged.
bool decodeSegmentEvents(std::string_view Raw, uint64_t ExpectEvents,
                         const std::vector<BlockShape> &Shapes,
                         std::vector<EventWord> *Out,
                         std::vector<profile::BlockCounters> *Table,
                         SegmentDecode &Result, std::string *Error);

/// The sums of \p N events, each counted whole (its block's full
/// length): a caller whose run ends on a partial tail subtracts the
/// shortfall itself. The writers' directory bases come from here; a
/// decode takes its sums from decodeSegmentEvents()' own pass.
EventSums sumEvents(const EventWord *W, size_t N,
                    const std::vector<BlockShape> &Shapes);

/// A parsed TPDT v4 header: everything before the payload frames. Small
/// (O(blocks + segments)) — this is all a streaming reader ever holds of
/// the file besides one segment.
struct SegmentedTraceHeader {
  uint64_t NumBlocks = 0;
  uint64_t NumEvents = 0;
  /// The final event's instruction count when a fault cut it short of its
  /// block's length, TailBlock being that block; 0 when it is whole.
  uint32_t TailInsts = 0;
  guest::BlockId TailBlock = 0;
  uint64_t SegmentBudget = 0;
  /// Per-block shape table: whole-event length and branch kind.
  std::vector<BlockShape> Shapes;
  /// Final per-block use/taken counters (the counter table).
  std::vector<profile::BlockCounters> Final;
  /// Derived, not stored: every block's uses times its length, less the
  /// partial tail's shortfall.
  uint64_t TotalInsts = 0;
  struct Entry {
    uint32_t Events = 0;
    uint64_t PayloadBytes = 0;
    uint64_t BaseInsts = 0;
    uint64_t BaseTaken = 0;
    /// Absolute file offset of the segment's TPDZ frame (computed from
    /// the directory's payload sizes).
    uint64_t PayloadOffset = 0;
  };
  std::vector<Entry> Directory;
  /// File offset of the first payload byte.
  uint64_t PayloadStart = 0;

  /// Taken-branch event total, derived from the counter table.
  uint64_t takenEvents() const;
  /// The stream totals the header declares. Trusted only after a full
  /// decode checked them (SegmentedTraceReader::verifyAll()), except on
  /// the sampled path's train lookup (core/Experiment.cpp).
  TraceTotals totals() const;
};

/// The header fields of \p T serialized at \p Budget events per segment
/// (no directory: assembleSegmentedTrace() writes that from the
/// segments).
SegmentedTraceHeader segmentedHeaderOf(const BlockTrace &T, uint64_t Budget);

/// One finished segment, as the pipeline's consumer stage produces it:
/// the directory row plus the compressed payload.
struct TraceSegmentRecord {
  uint32_t Events = 0;
  /// Global prefix sums over events before this segment.
  uint64_t BaseInsts = 0;
  uint64_t BaseTaken = 0;
  /// TPDZ-compressed encodeSegmentEvents() output.
  std::string Payload;
};

/// Assembles the TPDT v4 container from \p H's header fields (block
/// count, event count, partial tail, budget, shape and counter tables;
/// its directory and derived totals are ignored) and the finished
/// segments, in stream order. BlockTrace::serializeSegmented and
/// TracePipeline both land here.
std::string assembleSegmentedTrace(const SegmentedTraceHeader &H,
                                   const std::vector<TraceSegmentRecord> &Segments);

/// Parses a v4 header from \p Bytes (a prefix of the file is enough once
/// it covers the header). \p FileSize anchors the payload-extent check:
/// the directory's payload sizes must tile [PayloadStart, FileSize)
/// exactly. No directory row may declare more events than its payload
/// can inflate to (support/Compression.h maxDecompressedSize(); every
/// event is at least one raw byte), so the event count a reader reserves
/// for is bounded by the file size. Fails on truncated input — callers
/// with a partial prefix retry with more bytes (see
/// SegmentedTraceReader::open).
bool parseSegmentedHeader(const std::string &Bytes, uint64_t FileSize,
                          SegmentedTraceHeader &Out, std::string *Error);

/// One decoded segment, reduced to per-block totals (sparse, ascending
/// block id). This is all a sampled sweep keeps of a segment
/// (sample::sampledSweep folds it in the decode pass, sample::Estimator
/// reads it), and what SegmentProfileMemo stores.
struct SegmentProfile {
  struct Entry {
    guest::BlockId Block = 0;
    uint64_t Use = 0;
    uint64_t Taken = 0;
  };
  std::vector<Entry> Entries;
};

/// The verified segment profiles of one trace-store entry, shared by every
/// reader TraceCache::openSegmented opens on it (the trust model and
/// invalidation rules live in core/TraceCache.h). Each profile is tagged
/// with what its decode was checked against: the header's block count and
/// segment budget, plus the segment's directory row. A lookup hits only
/// when the reader's freshly parsed header gives the same tag. Safe to
/// share across threads; concurrent stores of one segment write equal
/// values.
class SegmentProfileMemo {
public:
  /// Copies segment \p I's profile into \p Out when one is memoized under
  /// the tag \p H gives it; false otherwise.
  bool lookup(const SegmentedTraceHeader &H, size_t I,
              SegmentProfile &Out) const;
  /// Memoizes \p P, which the caller decoded and verified from segment
  /// \p I of a container with header \p H.
  void store(const SegmentedTraceHeader &H, size_t I,
             const SegmentProfile &P);
  /// Segments memoized so far.
  size_t size() const;

private:
  struct Tag {
    uint64_t NumBlocks = 0;
    uint64_t SegmentBudget = 0;
    uint32_t Events = 0;
    uint64_t PayloadBytes = 0;
    uint64_t BaseInsts = 0;
    uint64_t BaseTaken = 0;
    uint64_t PayloadOffset = 0;
    bool operator==(const Tag &) const = default;
  };
  struct Memoized {
    bool Filled = false;
    Tag Key;
    SegmentProfile Profile;
  };
  static Tag tagOf(const SegmentedTraceHeader &H, size_t I);

  mutable std::mutex Lock;
  std::vector<Memoized> Segments; ///< by segment index
};

/// Reads a TPDT v4 container one segment at a time. open() reads and
/// validates only a file's header, and each read then seeks to one
/// payload frame: peak memory is the header plus one segment's compressed
/// and inflated bytes, independent of trace length. openBytes() takes a
/// whole container the reader then owns, and its frames are views of it.
/// Either way readSegment() is the one per-segment decode (see the file
/// comment). Single-threaded.
class SegmentedTraceReader {
public:
  /// Opens \p Path and parses the header. False (with \p Error) when the
  /// file is missing, not a v4 container, or fails header validation.
  static bool open(const std::string &Path, SegmentedTraceReader &Out,
                   std::string *Error);
  /// Takes \p Bytes as the container and parses its header, with the
  /// same checks and errors as open().
  static bool openBytes(std::string Bytes, SegmentedTraceReader &Out,
                        std::string *Error);

  const SegmentedTraceHeader &header() const { return Header; }
  size_t numSegments() const { return Header.Directory.size(); }

  /// Reads segment \p I's frame, inflates it, and decodes it in one pass
  /// that appends its events to \p Out and folds them into \p Table
  /// (sized to the header's block count), each when non-null. The
  /// segment's sums must land on the next directory row's bases (for the
  /// last segment, on the header's totals, after checking that its final
  /// event is the header's partial tail, untaken, when there is one). On
  /// failure \p Out keeps its size on entry, while \p Table may hold a
  /// partial fold.
  bool readSegment(size_t I, std::vector<EventWord> *Out,
                   std::vector<profile::BlockCounters> *Table,
                   std::string *Error);

  /// Reads every segment in order through readSegment(), then checks that
  /// \p Table, the fold of them all, equals the header's counter table.
  /// With the per-segment sums this pins every total the header declares:
  /// events, instructions, taken branches and the table itself.
  bool readAll(std::vector<EventWord> *Out,
               std::vector<profile::BlockCounters> &Table,
               std::string *Error);

  /// readAll() with no event output: true exactly when
  /// BlockTrace::decode() accepts the container, but no event is ever
  /// stored, so the header's totals() are verified at O(segment) memory.
  bool verifyAll(std::string *Error);

  /// The entry's profile memo when TraceCache::openSegmented opened this
  /// reader; null otherwise.
  SegmentProfileMemo *memo() const { return Memo.get(); }
  void attachMemo(std::shared_ptr<SegmentProfileMemo> M) {
    Memo = std::move(M);
  }

private:
  /// Segment \p I's compressed frame: a view of Bytes, or of Compressed
  /// after reading it from File.
  bool frame(size_t I, std::string_view &Frame, std::string *Error);

  SegmentedTraceHeader Header;
  std::shared_ptr<SegmentProfileMemo> Memo;
  std::ifstream File;     ///< the container, when opened from a path
  std::string Bytes;      ///< the container, when opened from bytes
  std::string Compressed; ///< file frame scratch, reused across segments
  std::string Raw;        ///< inflate scratch, reused across segments
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACESEGMENTS_H
