//===- bench/e2e/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the traced runs: each has a layer name, start, end, parent
/// span and request id. They are kept in memory while the run measures and
/// written once at the end, as Chrome trace-event JSON (chrome://tracing,
/// Perfetto) and as a per-layer self-time table. A span's self time is its
/// duration minus the part its child spans cover; children always run on
/// their parent's thread here, so that part is the sum of their durations.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_BENCH_E2E_SPANS_H
#define TPDBT_BENCH_E2E_SPANS_H

#include "E2e.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace tpdbt {
namespace e2e {

class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = top-level
    uint64_t Request = 0;
    unsigned Thread = 0;
    Clock::time_point Start, End;
  };

  /// Times one call on the current thread; nests under the innermost open
  /// scope of that thread.
  class Scope {
  public:
    Scope(Tracer &T, std::string Name, uint64_t Request);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &Owner;
    Span S;
  };

  /// Records an already-timed span (the daemon client reconstructs spans
  /// from frame timestamps); returns its id for use as a parent.
  uint64_t add(std::string Name, Clock::time_point Start,
               Clock::time_point End, uint64_t Parent, uint64_t Request,
               unsigned Thread);

  struct LayerTotals {
    uint64_t Count = 0;
    double TotalS = 0.0;
    double SelfS = 0.0;
  };
  /// Per span name: call count, summed duration and summed self time.
  std::map<std::string, LayerTotals> layers() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  bool writeChrome(const std::string &Path) const;

private:
  mutable std::mutex Lock;
  std::vector<Span> Spans;
  uint64_t NextId = 1;
  Clock::time_point Origin = Clock::now();
};

/// Prints the self-time table of \p T to stderr, shares of \p BusyS.
void printLayerTable(const Tracer &T, double BusyS, const std::string &Title);

} // namespace e2e
} // namespace tpdbt

#endif // TPDBT_BENCH_E2E_SPANS_H
