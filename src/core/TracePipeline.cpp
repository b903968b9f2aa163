//===- core/TracePipeline.cpp - Streamed record/compress ------------------===//

#include "core/TracePipeline.h"

#include "support/Compression.h"

#include <cassert>
#include <chrono>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

uint64_t microsSince(std::chrono::steady_clock::time_point Start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

} // namespace

TracePipeline::TracePipeline(uint64_t Budget, std::vector<BlockShape> Shapes)
    : Budget(Budget), Shapes(std::move(Shapes)) {
  assert(Budget >= 1 && "segment budget must be positive");
}

void TracePipeline::encode(const std::vector<EventWord> &Events) {
  const auto Start = std::chrono::steady_clock::now();
  TraceSegmentRecord Rec;
  Rec.Events = static_cast<uint32_t>(Events.size());
  Rec.BaseInsts = Run.Insts;
  Rec.BaseTaken = Run.Taken;
  Rec.Payload =
      compressBytes(encodeSegmentEvents(Events.data(), Events.size()));
  // Whole-event sums: a partial tail can only end the last segment, whose
  // sums base no later row.
  Run += sumEvents(Events.data(), Events.size(), Shapes);
  Segments.push_back(std::move(Rec));
  WorkMicros += microsSince(Start);
}

void TracePipeline::submit(const BlockTrace &T, uint64_t End) {
  Slots.acquire();
  // Copy the slice out of the live vector: recording continues while the
  // worker reads, and the vector may reallocate under growth.
  const EventWord *Slice = T.words().data();
  std::vector<EventWord> Events(Slice + DoneThrough, Slice + End);
  DoneThrough = End;
  Pool.submit([this, Events = std::move(Events)] {
    struct Release {
      std::counting_semaphore<MaxInFlight> &Slots;
      ~Release() { Slots.release(); }
    } Guard{Slots};
    encode(Events);
  });
}

uint64_t TracePipeline::onProgress(const BlockTrace &T) {
  // Batched recorder deliveries can overshoot a boundary by a whole
  // run/chain batch, even past several boundaries at once — cut strictly
  // budget-sized segments regardless.
  while (T.numEvents() >= DoneThrough + Budget)
    submit(T, DoneThrough + Budget);
  return DoneThrough + Budget;
}

TracePipeline::Result TracePipeline::finish(const BlockTrace &T) {
  const auto Start = std::chrono::steady_clock::now();
  if (T.numEvents() > DoneThrough)
    submit(T, T.numEvents());
  Pool.wait(); // worker drained; its accumulation is now safe to read

  Result R;
  R.Segments = Segments.size();
  R.FileBytes = assembleSegmentedTrace(segmentedHeaderOf(T, Budget), Segments);
  R.WorkMicros = WorkMicros;
  R.FlushMicros = microsSince(Start);
  return R;
}
