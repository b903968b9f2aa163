//===- core/ProfWriter.h - Write-behind for .prof stores --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Takes .prof snapshot-file creation off a computing thread. An
/// ExperimentContext lent a ProfWriter formats a benchmark's snapshots as
/// before, then hands the whole set to submit() as one batch; a private
/// one-worker ThreadPool writes each batch's files (write-then-rename, in
/// order) while the caller moves on:
///
///   storeCached ──▶ ThreadPool{1} queue ──▶ writeTextFileAtomic × N+2
///
/// A counting semaphore caps the batches queued or being written, the
/// record pipeline's idiom (core/TracePipeline.h): submit() acquires a
/// slot and the task releases it on every path, so a caller blocks only
/// while the worker is MaxPending batches behind. Destruction drains the
/// queue, so every submitted file lands before the writer goes away.
///
/// The file names and bytes are exactly those an inline store writes; only
/// the moment a file appears moves. A reader that finds a file missing
/// recomputes it, as after any cache miss (docs/CACHE_FORMAT.md).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_PROFWRITER_H
#define TPDBT_CORE_PROFWRITER_H

#include "support/ThreadPool.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <semaphore>
#include <string>
#include <utility>
#include <vector>

namespace tpdbt {
namespace core {

class ProfWriter {
public:
  /// One benchmark's snapshot files: (path, contents) in write order.
  using Batch = std::vector<std::pair<std::string, std::string>>;

  /// Batches queued or being written beyond which submit() blocks. A
  /// batch is N+2 snapshots of 0.5-2 KB each: about 3 MB at most for the
  /// paper's threshold sweep, 40 MB for 64-threshold requests. The bound
  /// is twice the batches of a whole bench/e2e daemon-mixed round (~130),
  /// whose backlog peaked at 58-64 batches with file creation at ~0.6 ms
  /// a file. At 64, whether a round blocked on the writer depended on
  /// that cost, which drifts from run to run.
  static constexpr ptrdiff_t MaxPending = 256;

  struct Counters {
    std::atomic<uint64_t> Pending{0}; ///< gauge: batches not yet written
    std::atomic<uint64_t> Written{0}; ///< batches written
    std::atomic<uint64_t> Waits{0};   ///< submits that found no free slot
  };

  /// Queues \p Files for the worker; blocks while MaxPending batches are
  /// pending. Thread-safe.
  void submit(Batch Files);

  const Counters &stats() const { return Stats; }

  /// Test hook: when set, the worker calls this before writing each
  /// batch — tests hold the worker here. Set it before the first submit.
  std::function<void()> BeforeWrite;

private:
  Counters Stats;
  std::counting_semaphore<MaxPending> Slots{MaxPending};
  /// Declared last: its destructor drains the queue before the state above
  /// goes away.
  ThreadPool Pool{1};
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_PROFWRITER_H
