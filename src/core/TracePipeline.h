//===- core/TracePipeline.h - Streamed record/compress ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Overlaps trace recording with segment compression. The recorder
/// crosses a segment boundary, copies the finished slice out of the live
/// event vector, and submits it as one task to a private one-worker
/// ThreadPool, which delta-varint encodes and TPDZ-compresses the segment
/// while the recorder interprets the next one:
///
///   record ──▶ ThreadPool{1} queue ──▶ encode + compress
///
/// One worker runs the tasks in submission (FIFO) order, so the running
/// prefix-sum bases it stamps on each segment follow the stream. A
/// counting semaphore caps the segments in flight: the recorder acquires
/// a slot before each submit and the task releases it on every path, a
/// throwing encode included, so the recorder blocks while the worker is
/// more than a few segments behind but is never stranded. Pipeline memory
/// stays O(slots * segment) instead of O(trace).
///
/// finish() waits for the pool and assembles the TPDT v4 container from
/// the finished segments, so a cold cache miss leaves the record path
/// having paid (ideally) only the recording wall clock, with compression
/// hidden behind it. The pipeline builds no analytic index: the trace's
/// first threshold replay builds one lazily (BlockTrace::index()), on a
/// cold miss exactly as on a disk hit.
///
/// The worker computes each segment's global prefix-sum bases from its
/// own running totals, not from the live trace's counters: by the time a
/// boundary callback runs, the recorder's batched deliveries may already
/// have pushed the live totals past the boundary.
///
/// A TracePipeline instance serves exactly one recording. TraceCache::get()
/// wires one to BlockTrace::record()'s segment callback on every miss it
/// writes to disk. One destroyed without finish() (an error unwind) lets
/// the pool's destructor drain the queued segments.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACEPIPELINE_H
#define TPDBT_CORE_TRACEPIPELINE_H

#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "support/ThreadPool.h"

#include <cstddef>
#include <cstdint>
#include <semaphore>
#include <string>
#include <vector>

namespace tpdbt {
namespace core {

class TracePipeline {
public:
  struct Result {
    /// The assembled TPDT v4 container.
    std::string FileBytes;
    uint64_t Segments = 0;
    /// Worker wall clock spent on segments (encode + compress) — work
    /// overlapped with recording.
    uint64_t WorkMicros = 0;
    /// finish() wall clock: tail submit, pool drain, and container
    /// assembly — the part that is NOT overlapped.
    uint64_t FlushMicros = 0;
  };

  /// \p Budget is the per-segment event count (>= 1); \p Shapes is the
  /// recorded program's shape table (core::blockShapes).
  TracePipeline(uint64_t Budget, std::vector<BlockShape> Shapes);

  TracePipeline(const TracePipeline &) = delete;
  TracePipeline &operator=(const TracePipeline &) = delete;

  /// BlockTrace::record() segment callback: submits every completed
  /// budget-sized slice to the worker and returns the next boundary.
  /// Blocks (backpressure) while MaxInFlight segments are queued or
  /// encoding, bounding in-flight memory.
  uint64_t onProgress(const BlockTrace &T);

  /// Submits the partial tail segment, waits for the worker, and
  /// assembles the container. Call once, after recording completes.
  /// Rethrows the first exception a segment's encode raised.
  Result finish(const BlockTrace &T);

  /// A few segments of slack decouples recording jitter from compression
  /// jitter; beyond that, backpressure caps in-flight memory.
  static constexpr ptrdiff_t MaxInFlight = 8;

private:
  /// Copies events [DoneThrough, End) out of the live vector and submits
  /// them as the next segment.
  void submit(const BlockTrace &T, uint64_t End);

  /// Worker side: encodes one segment and advances the running totals.
  void encode(const std::vector<EventWord> &Events);

  const uint64_t Budget;
  const std::vector<BlockShape> Shapes;

  /// Recorder side: events already submitted to the worker.
  uint64_t DoneThrough = 0;

  std::counting_semaphore<MaxInFlight> Slots{MaxInFlight};

  /// Worker-owned accumulation (read by finish() only after Pool.wait()).
  std::vector<TraceSegmentRecord> Segments;
  EventSums Run;
  uint64_t WorkMicros = 0;

  /// Declared last: its destructor drains the queue before the state
  /// above goes away.
  ThreadPool Pool{1};
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACEPIPELINE_H
