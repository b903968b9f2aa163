//===- core/TraceCache.h - Keyed block-trace record store -------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Records each (benchmark, input) execution's BlockTrace at most once and
/// hands out shared references to it, backed by two layers:
///
///  - an in-memory layer of weak references, so concurrent sweeps over the
///    same input within one process share a single recording without the
///    cache pinning traces past their last user, and
///  - an on-disk layer of TPDT v4 trace containers (see
///    docs/CACHE_FORMAT.md) keyed by the *execution* fingerprint — the
///    workload spec, scale, and event budget; everything that shapes the
///    event stream and nothing that doesn't — so policy-only configuration
///    changes replay a warm trace instead of re-interpreting.
///
/// Only the trace is persisted, and get() builds no index: a miss and a
/// disk hit alike return the bare trace, whose event words the exact
/// replay (core::replaySweep) reads directly.
/// Every disk read goes through one private open: a file-backed
/// SegmentedTraceReader (core/TraceSegments.h) plus the shape-table check
/// below. A get() disk hit decodes the entry through it frame by frame
/// (BlockTrace::decode); a caller that needs only the profiling-only
/// average (the exact path's train input) asks totals() instead, which
/// verifies a warm entry one segment at a time and never builds the trace
/// at all; openSegmented() hands the reader to sampled replay. A miss
/// with the disk layer on records through the segment pipeline
/// (core/TracePipeline.h), which compresses segments behind the recording
/// and assembles the container; with the disk layer off, a miss is a
/// plain recording.
///
/// A corrupt, truncated, or retired-format (v1/v2/v3) disk entry is
/// counted and treated as a miss; the trace is then re-recorded and the
/// entry rewritten atomically under the same key (write-then-rename, like
/// the .prof snapshot cache). So is an entry whose shape table (each
/// block's length and branch kind, core/Trace.h BlockShape) disagrees
/// with the requested program: every event's instruction count and
/// branch kind are read from that table, so it is trusted only when it
/// equals core::blockShapes() of the program get(), totals() and
/// openSegmented() are asked about.
///
/// Sampled sweeps read a warm entry segment-at-a-time through
/// openSegmented(), and every entry it opens carries a third layer: a memo
/// of the entry's verified segment profiles (core/TraceSegments.h
/// SegmentProfileMemo). A segment is read, inflated, decoded, sum-checked
/// and aggregated the first time a sweep through this store draws it;
/// every later draw, from any seed or context sharing the store, copies
/// the profile out instead. The trust model matches the in-memory trace layer,
/// which also hands out whole traces verified once at load:
///
///  - the header is still re-read and re-validated on every open, and a
///    profile is served only while the freshly parsed header gives its
///    segment the tag it was verified under (block count, segment budget,
///    and the segment's directory row), so a re-layout (say, a different
///    TPDBT_SEGMENT_EVENTS recording under the same key) decodes afresh;
///  - a payload is verified at its first decode in the process only; a
///    later same-layout byte change by another process goes unseen.
///
/// A get() miss that rewrites an entry drops the entry's memo, and so
/// does an LRU eviction. Memory is O(blocks touched) per memoized segment
/// (24 B per block entry): the whole suite's ref traces at scale 0.05
/// hold 513 segments touching at most 83 blocks each, 0.6 MB of entries
/// if every segment is drawn.
///
/// The disk layer is size-bounded: when TPDBT_CACHE_MAX_BYTES is set, the
/// .trace entries are LRU-evicted after every store until they fit the
/// budget. Disk hits refresh an entry's recency (its mtime), so a
/// long-running sweep service keeps hot programs warm while cold
/// recordings age out. The .prof snapshot files sharing the directory
/// are never evicted — they are tiny and belong to the Experiment layer.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACECACHE_H
#define TPDBT_CORE_TRACECACHE_H

#include "core/Trace.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tpdbt {
namespace core {

class SegmentProfileMemo;
class SegmentedTraceReader;

/// The TPDBT_CACHE_MAX_BYTES knob, read fresh on every call (tests and
/// long-running daemons flip it mid-process): unset, unparsable, or 0
/// means unbounded; otherwise the trace store's disk budget in bytes.
uint64_t cacheMaxBytes();

/// Thread-safe two-layer store of recorded traces.
class TraceCache {
public:
  /// \p Dir is the on-disk layer's directory; empty disables it (the
  /// in-memory layer still dedupes recordings within the process).
  explicit TraceCache(std::string Dir) : Dir(std::move(Dir)) {}

  /// Returns the trace for \p Program's execution under the given key,
  /// recording it (up to \p MaxBlocks events) only when neither layer has
  /// it. A disk hit decodes the entry one frame at a time through the
  /// file-backed reader, with every check BlockTrace::decode() makes; a
  /// present entry it rejects is counted corrupt once and recorded over.
  /// \p ExecFp must cover everything that shapes the event stream.
  /// Concurrent calls with the same key record at most once per process.
  std::shared_ptr<const BlockTrace> get(const std::string &Name,
                                        const std::string &Input,
                                        uint64_t ExecFp,
                                        const guest::Program &Program,
                                        uint64_t MaxBlocks);

  /// The stream totals of the same execution get() would return, without
  /// holding its events: a memory-layer hit copies the held trace's; a
  /// disk hit streams the entry one segment at a time through
  /// SegmentedTraceReader::verifyAll() — every check get()'s decode
  /// makes, at O(segment) memory — and builds no BlockTrace. A missing
  /// entry, or a corrupt one (counted once), records through get()'s miss
  /// path, which rewrites the entry. Hits, misses and corrupt entries are
  /// counted as get() counts them. The exact path's train lookup uses
  /// this: it needs only the profiling-only average.
  TraceTotals totals(const std::string &Name, const std::string &Input,
                     uint64_t ExecFp, const guest::Program &Program,
                     uint64_t MaxBlocks);

  /// Counters for the bench banners. Hits are split by serving layer;
  /// every miss implies one interpretation (a record) whose wall clock is
  /// accumulated in RecordMicros.
  struct Counters {
    std::atomic<uint64_t> MemoryHits{0};
    std::atomic<uint64_t> DiskHits{0};
    std::atomic<uint64_t> Misses{0};
    /// Disk entries that failed to decompress or parse; each one
    /// downgrades its lookup to a miss.
    std::atomic<uint64_t> CorruptEntries{0};
    std::atomic<uint64_t> RecordMicros{0};
    /// Analytic replay indexes served from disk. Indexes are no longer
    /// persisted, so this stays 0. The three index counters are kept only
    /// for the traced mirror in bench/e2e and go with it.
    std::atomic<uint64_t> IndexHits{0};
    /// Indexes built from a trace (see noteIndexBuild); the build wall
    /// clock is accumulated in IndexMicros.
    std::atomic<uint64_t> IndexBuilds{0};
    std::atomic<uint64_t> IndexMicros{0};
    /// Misses recorded through the streamed segment pipeline
    /// (core/TracePipeline.h) and the segments they handed to its
    /// worker. Only disk-backed misses run the pipeline, so both stay 0
    /// when the disk layer is off.
    std::atomic<uint64_t> StreamedRecords{0};
    std::atomic<uint64_t> SegmentsPiped{0};
    /// Consumer wall clock overlapped with recording (segment encode +
    /// compress), vs. the non-overlapped tail: drain and container
    /// assembly after recording ends.
    std::atomic<uint64_t> PipelineMicros{0};
    std::atomic<uint64_t> FlushMicros{0};
    /// Host translation tier coverage of the recordings behind the
    /// misses, in the names bench/e2e reads: block events delivered from
    /// superblock chains and self-loop iterations delivered as run-length
    /// trace entries, which run compiled and so equal JitBlocks and
    /// JitLoopIters. HostFallbacks stays 0: guards exist only in compiled
    /// code, where a mismatch is a JitDeopts. The three are kept only for
    /// the traced mirror in bench/e2e (ROADMAP item 7) and go with it.
    std::atomic<uint64_t> HostChainedBlocks{0};
    std::atomic<uint64_t> HostFoldedIters{0};
    std::atomic<uint64_t> HostFallbacks{0};
    /// Jit tier coverage (see src/jit): units compiled to native code,
    /// chain block events and self-loop iterations executed natively,
    /// deopt exits (guard mismatch or fault in compiled code), whole-code-
    /// cache flushes, and compile+install wall time.
    std::atomic<uint64_t> JitUnits{0};
    std::atomic<uint64_t> JitBlocks{0};
    std::atomic<uint64_t> JitLoopIters{0};
    std::atomic<uint64_t> JitDeopts{0};
    std::atomic<uint64_t> JitFlushes{0};
    std::atomic<uint64_t> JitCompileMicros{0};
    /// LRU evictions from the size-bounded disk layer
    /// (TPDBT_CACHE_MAX_BYTES): entries removed and the trace bytes they
    /// freed.
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> EvictedBytes{0};
    /// Sampled-replay coverage (src/sample): entries opened as streaming
    /// TPDT v4 containers through openSegmented() (warm ones, and cold ones
    /// once their recording wrote them; no whole-file decode, no index),
    /// segments a sampled sweep's plan drew (each one
    /// decoded, or copied from the entry's profile memo when an earlier
    /// draw already decoded it), and segments the plan skipped — whose
    /// payload bytes this sweep never touched. The skipped counter is the
    /// out-of-core win the never-decompress regression test pins.
    std::atomic<uint64_t> SampleDiskOpens{0};
    std::atomic<uint64_t> SampleSegmentsDecoded{0};
    std::atomic<uint64_t> SampleSegmentsSkipped{0};

    uint64_t hits() const {
      return MemoryHits.load(std::memory_order_relaxed) +
             DiskHits.load(std::memory_order_relaxed);
    }
  };

  const Counters &stats() const { return Stats; }

  /// Accounts one index build (core/TraceIndex.h). Neither get() nor the
  /// exact replay builds one, so the production path never calls this;
  /// the traced mirror in bench/e2e does, under its own timer.
  void noteIndexBuild(uint64_t Micros) {
    Stats.IndexBuilds.fetch_add(1, std::memory_order_relaxed);
    Stats.IndexMicros.fetch_add(Micros, std::memory_order_relaxed);
  }

  /// Opens the disk entry for a key through the same file-backed reader
  /// and shape-table check as get() and totals(), without decoding a
  /// segment or touching the in-memory layer — the sampled-replay path,
  /// which decodes only the segments its plan draws. False when the disk
  /// layer is off, or the entry is missing, fails header validation, or
  /// carries a shape table other than \p Program's; callers fall back to
  /// get() or totals(), which count a present-but-rejected entry as
  /// corrupt once.
  /// Success refreshes the entry's LRU recency and attaches the entry's
  /// segment-profile memo to \p Reader (see the file comment).
  bool openSegmented(const std::string &Name, const std::string &Input,
                     uint64_t ExecFp, const guest::Program &Program,
                     SegmentedTraceReader &Reader, std::string *Error);

  /// Accounts one sampled sweep's segment split (see the Sample counters).
  void noteSampleReplay(uint64_t Decoded, uint64_t Skipped) {
    Stats.SampleSegmentsDecoded.fetch_add(Decoded, std::memory_order_relaxed);
    Stats.SampleSegmentsSkipped.fetch_add(Skipped, std::memory_order_relaxed);
  }

  /// The on-disk entry path for a key (exposed for tests).
  std::string entryPath(const std::string &Name, const std::string &Input,
                        uint64_t ExecFp) const;

  /// Segments memoized over every entry (exposed for tests).
  size_t memoizedSegments();

  /// Applies the TPDBT_CACHE_MAX_BYTES budget to the disk layer now:
  /// deletes least-recently-used .trace entries until the store fits.
  /// Only .trace files count toward the budget; a leftover .trace.idx
  /// sidecar from an older build is ignored like any other file. Called
  /// after every store; exposed so tests and the daemon's STATS path can
  /// force a pass.
  void enforceBudget();

private:
  struct Slot {
    std::mutex Lock;
    std::weak_ptr<const BlockTrace> Trace;
    /// The entry's segment-profile memo, created by the first
    /// openSegmented(); guarded by SlotsLock, not Lock, so a sweep never
    /// waits on a recording of the same key.
    std::shared_ptr<SegmentProfileMemo> Memo;
  };

  static std::string slotKey(const std::string &Name,
                             const std::string &Input, uint64_t ExecFp);
  /// The slot for \p Key, created on first use (address-stable).
  Slot &slot(const std::string &Key);
  /// The miss path shared by get() and totals(), under \p S's lock:
  /// records \p Program and, when the disk layer is on, writes the entry
  /// at \p Path through the segment pipeline.
  std::shared_ptr<const BlockTrace> recordMiss(Slot &S, const std::string &Key,
                                               const std::string &Path,
                                               const guest::Program &Program,
                                               uint64_t MaxBlocks);
  /// Drops the memo of the entry under \p Key (its file was rewritten or
  /// evicted). Readers already holding it keep using it; no later
  /// openSegmented() sees it.
  void dropMemo(const std::string &Key);

  /// The disk-hit path shared by get() and totals(): when the entry at
  /// \p Path exists, opens it (the shape table checked against
  /// \p Program's) and runs \p Decode over the reader. A success counts a
  /// disk hit and refreshes the entry's recency; a present entry that
  /// fails either step counts corrupt, once. False means a miss.
  bool readEntry(const std::string &Path, const guest::Program &Program,
                 const std::function<bool(SegmentedTraceReader &)> &Decode);
  /// Marks a disk entry as recently used (bumps its mtime) so LRU
  /// eviction sees hits, not just writes.
  static void touchEntry(const std::string &Path);

  std::string Dir;
  std::mutex SlotsLock; ///< guards the map structure and Slot::Memo
  std::map<std::string, Slot> Slots;
  std::mutex EvictLock; ///< serializes budget-enforcement scans
  Counters Stats;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACECACHE_H
