//===- core/TracePipeline.h - Streamed record/compress ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Overlaps trace recording with segment compression. The recorder
/// (producer) crosses a segment boundary, copies the finished slice out
/// of the live event vector, and hands it through a lock-free SPSC ring
/// (support/SpscRing.h) to a single consumer worker that delta-varint
/// encodes and TPDZ-compresses the segment while the recorder interprets
/// the next one:
///
///   record ──▶ SpscRing ──▶ encode + compress
///
/// finish() closes the ring, drains the consumer, and assembles the TPDT
/// v4 container from the finished segments, so a cold cache miss leaves
/// the record path having paid (ideally) only the recording wall clock,
/// with compression hidden behind it. The pipeline builds no analytic
/// index: the trace's first threshold replay builds one lazily
/// (BlockTrace::index()), on a cold miss exactly as on a disk hit.
///
/// The consumer computes each segment's global prefix-sum bases from its
/// own running totals, not from the live trace's counters: by the time a
/// boundary callback runs, the recorder's batched deliveries may already
/// have pushed the live totals past the boundary.
///
/// One producer, one consumer; a TracePipeline instance serves exactly
/// one recording. TraceCache::get() wires one to BlockTrace::record()'s
/// segment callback on every miss it writes to disk.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_TRACEPIPELINE_H
#define TPDBT_CORE_TRACEPIPELINE_H

#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "support/SpscRing.h"
#include "support/ThreadPool.h"

#include <cstdint>
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
    /// Consumer wall clock spent on segments (encode + compress) — work
    /// overlapped with recording.
    uint64_t WorkMicros = 0;
    /// finish() wall clock: tail handoff, consumer drain, and container
    /// assembly — the part that is NOT overlapped.
    uint64_t FlushMicros = 0;
  };

  /// \p Budget is the per-segment event count (>= 1); \p Shapes is the
  /// recorded program's shape table (core::blockShapes).
  TracePipeline(uint64_t Budget, std::vector<BlockShape> Shapes);

  /// Closes the ring and joins the consumer if finish() never ran.
  ~TracePipeline();

  TracePipeline(const TracePipeline &) = delete;
  TracePipeline &operator=(const TracePipeline &) = delete;

  /// BlockTrace::record() segment callback: pushes every completed
  /// budget-sized slice to the consumer and returns the next boundary.
  /// Blocks (ring backpressure) when the consumer is more than a few
  /// segments behind, bounding in-flight memory.
  uint64_t onProgress(const BlockTrace &T);

  /// Hands off the partial tail segment, drains the consumer, and
  /// assembles the container. Call exactly once, after recording
  /// completes.
  Result finish(const BlockTrace &T);

private:
  struct Work {
    std::vector<EventWord> Events;
  };

  void consumeLoop();

  const uint64_t Budget;
  const std::vector<BlockShape> Shapes;

  /// Producer side: events already handed to the consumer.
  uint64_t DoneThrough = 0;
  bool Finished = false;

  /// A few segments of slack decouples recording jitter from compression
  /// jitter; beyond that, backpressure caps in-flight memory.
  SpscRing<Work> Ring{8};

  /// Consumer-owned accumulation (read by finish() only after the drain).
  std::vector<TraceSegmentRecord> Segments;
  EventSums Run;
  uint64_t WorkMicros = 0;

  /// Declared last so the worker never outlives the state above.
  ThreadPool Pool{1};
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_TRACEPIPELINE_H
