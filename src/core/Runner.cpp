//===- core/Runner.cpp - Multi-threshold sweep execution -------------------===//

#include "core/Runner.h"

#include "core/Trace.h"

#include <cassert>

using namespace tpdbt;
using namespace tpdbt::core;

SweepResult tpdbt::core::runSweep(const guest::Program &P,
                                  const std::vector<uint64_t> &Thresholds,
                                  const dbt::DbtOptions &Base,
                                  uint64_t MaxBlocks) {
#ifndef NDEBUG
  for (uint64_t T : Thresholds)
    assert(T > 0 && "sweep thresholds must be positive; the average run is "
                    "always produced");
#endif
  // Trace-first execution: interpret once into a block-event trace (the
  // single expensive pass), then derive every policy from the trace. One
  // interpretation loop serves every sweep size.
  return replaySweep(BlockTrace::record(P, MaxBlocks), P, Thresholds, Base);
}
