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
///  - an on-disk layer of TPDT v3 trace containers (see
///    docs/CACHE_FORMAT.md) keyed by the *execution* fingerprint — the
///    workload spec, scale, and event budget; everything that shapes the
///    event stream and nothing that doesn't — so policy-only configuration
///    changes replay a warm trace instead of re-interpreting.
///
/// Only the trace is persisted. A disk hit returns the parsed trace with
/// no analytic replay index attached (core/TraceIndex.h); the first
/// threshold replay builds it from the events, which is cheaper than
/// reading, inflating, and parsing a stored copy. A replay that asks only
/// for the profiling-only average (the train input) never builds one.
/// Every miss records through the segment pipeline (core/TracePipeline.h),
/// which writes the container and keeps the index it stitched in memory.
///
/// A corrupt, truncated, or retired-format (monolithic v1/v2) disk entry
/// is counted and treated as a miss; the trace is then re-recorded and the
/// entry rewritten atomically under the same key (write-then-rename, like
/// the .prof snapshot cache).
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
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tpdbt {
namespace core {

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
  /// it. \p ExecFp must cover everything that shapes the event stream.
  /// Concurrent calls with the same key record at most once per process.
  std::shared_ptr<const BlockTrace> get(const std::string &Name,
                                        const std::string &Input,
                                        uint64_t ExecFp,
                                        const guest::Program &Program,
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
    /// persisted, so this stays 0; kept for the banner and bench readers.
    std::atomic<uint64_t> IndexHits{0};
    /// Indexes built from a trace (see noteIndexBuild); the build wall
    /// clock is accumulated in IndexMicros.
    std::atomic<uint64_t> IndexBuilds{0};
    std::atomic<uint64_t> IndexMicros{0};
    /// Misses recorded through the streamed segment pipeline
    /// (core/TracePipeline.h; every miss since it is the only record
    /// path) and the segments they handed through the ring.
    std::atomic<uint64_t> StreamedRecords{0};
    std::atomic<uint64_t> SegmentsPiped{0};
    /// Consumer wall clock overlapped with recording (segment encode +
    /// compress + index parts), vs. the non-overlapped tail: drain,
    /// container assembly, and index stitch after recording ends.
    std::atomic<uint64_t> PipelineMicros{0};
    std::atomic<uint64_t> FlushMicros{0};
    /// Host translation tier coverage of the recordings behind the
    /// misses (see vm/HostTier.h): block events delivered from
    /// superblock chains, self-loop iterations folded into run-length
    /// trace entries (the closed-form subset was never executed at all),
    /// and superblock guard mismatches that fell back to plain dispatch.
    std::atomic<uint64_t> HostChainedBlocks{0};
    std::atomic<uint64_t> HostFoldedIters{0};
    std::atomic<uint64_t> HostClosedFormIters{0};
    std::atomic<uint64_t> HostFallbacks{0};
    /// Jit tier coverage (see src/jit): units compiled to native code,
    /// chain block events and self-loop iterations executed natively,
    /// deopt exits (guard mismatch or fault in compiled code — disjoint
    /// from HostFallbacks, which counts the pre-decoded tier only),
    /// whole-code-cache flushes, and compile+install wall time.
    std::atomic<uint64_t> JitUnits{0};
    std::atomic<uint64_t> JitBlocks{0};
    std::atomic<uint64_t> JitLoopIters{0};
    std::atomic<uint64_t> JitDeopts{0};
    std::atomic<uint64_t> JitFlushes{0};
    std::atomic<uint64_t> JitCompileMicros{0};
    /// Scheduled-backend coverage (TPDBT_JIT_SCHED, see
    /// jit::CompileStats): segments list-scheduled before lowering, ops
    /// emitted off their program-order slot, and exit-stub bodies shared
    /// instead of duplicated.
    std::atomic<uint64_t> JitSchedUnits{0};
    std::atomic<uint64_t> JitReorderedOps{0};
    std::atomic<uint64_t> JitStubsDeduped{0};
    /// LRU evictions from the size-bounded disk layer
    /// (TPDBT_CACHE_MAX_BYTES): entries removed and the trace bytes they
    /// freed.
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> EvictedBytes{0};
    /// Sampled-replay coverage (src/sample): warm entries opened as
    /// streaming TPDT v3 containers through openSegmented() (no whole-file
    /// parse, no index), segments actually decompressed for a sampled
    /// sweep, and segments the plan skipped — whose payload bytes were
    /// never inflated. The skipped counter is the out-of-core win the
    /// never-decompress regression test pins.
    std::atomic<uint64_t> SampleDiskOpens{0};
    std::atomic<uint64_t> SampleSegmentsDecoded{0};
    std::atomic<uint64_t> SampleSegmentsSkipped{0};

    uint64_t hits() const {
      return MemoryHits.load(std::memory_order_relaxed) +
             DiskHits.load(std::memory_order_relaxed);
    }
  };

  const Counters &stats() const { return Stats; }

  /// Accounts one analytic-index build performed by a caller outside
  /// get() (core/Experiment.cpp pre-builds indexes under their own timer
  /// so replay wall clock excludes them).
  void noteIndexBuild(uint64_t Micros) {
    Stats.IndexBuilds.fetch_add(1, std::memory_order_relaxed);
    Stats.IndexMicros.fetch_add(Micros, std::memory_order_relaxed);
  }

  /// Opens the disk entry for a key as a streaming TPDT v3 container
  /// (core/TraceSegments.h) without parsing events or touching the
  /// in-memory layer — the sampled-replay fast path, which decodes only
  /// the segments its plan draws. False when the disk layer is off or
  /// the entry is missing or fails header validation (callers fall back
  /// to get()). Success refreshes the entry's LRU recency.
  bool openSegmented(const std::string &Name, const std::string &Input,
                     uint64_t ExecFp, SegmentedTraceReader &Reader,
                     std::string *Error);

  /// Accounts one sampled sweep's segment split (see the Sample counters).
  void noteSampleReplay(uint64_t Decoded, uint64_t Skipped) {
    Stats.SampleSegmentsDecoded.fetch_add(Decoded, std::memory_order_relaxed);
    Stats.SampleSegmentsSkipped.fetch_add(Skipped, std::memory_order_relaxed);
  }

  /// The on-disk entry path for a key (exposed for tests).
  std::string entryPath(const std::string &Name, const std::string &Input,
                        uint64_t ExecFp) const;

  /// Applies the TPDBT_CACHE_MAX_BYTES budget to the disk layer now:
  /// deletes least-recently-used .trace entries until the store fits, and
  /// any stale .trace.idx sidecar an older build left behind. Called
  /// after every store; exposed so tests and the daemon's STATS path can
  /// force a pass.
  void enforceBudget();

private:
  struct Slot {
    std::mutex Lock;
    std::weak_ptr<const BlockTrace> Trace;
  };

  std::shared_ptr<const BlockTrace> loadDisk(const std::string &Path,
                                             const guest::Program &Program);
  /// Marks a disk entry as recently used (bumps its mtime) so LRU
  /// eviction sees hits, not just writes.
  static void touchEntry(const std::string &Path);

  std::string Dir;
  std::mutex SlotsLock; ///< guards the map structure only
  std::map<std::string, Slot> Slots;
  std::mutex EvictLock; ///< serializes budget-enforcement scans
  Counters Stats;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACECACHE_H
