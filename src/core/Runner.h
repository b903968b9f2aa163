//===- core/Runner.h - Multi-threshold sweep execution ----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one guest program once and derives the profiles for *every*
/// retranslation threshold of a sweep from that one execution.
///
/// Guest execution is deterministic and independent of translation
/// decisions, so INIP(100), INIP(200), ..., INIP(4M) and AVEP can all be
/// derived from a single interpreted pass: runSweep records it as a
/// block-event trace and replays the trace through one TranslationPolicy
/// per threshold (see core/Trace.h and dbt/Policy.h). A property test
/// asserts the result is identical to a dedicated DbtEngine run per
/// threshold.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_RUNNER_H
#define TPDBT_CORE_RUNNER_H

#include "dbt/Policy.h"
#include "profile/Profile.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace core {

/// Result of a sweep over one (program, input).
struct SweepResult {
  /// Snapshot per requested threshold, in request order.
  std::vector<profile::ProfileSnapshot> PerThreshold;
  /// The profiling-only snapshot (AVEP for the reference input,
  /// INIP(train) for the training input).
  profile::ProfileSnapshot Average;
};

/// Runs \p P to completion (or \p MaxBlocks events) once and returns the
/// INIP snapshot for every threshold in \p Thresholds plus the
/// profiling-only snapshot. \p Base supplies pool/formation/cost settings;
/// its Threshold field is ignored. Equivalent to
/// replaySweep(BlockTrace::record(P, MaxBlocks), P, Thresholds, Base)
/// (see core/Trace.h), so it throws std::invalid_argument for an adaptive
/// \p Base; adaptive policies run only under dbt::DbtEngine.
SweepResult runSweep(const guest::Program &P,
                     const std::vector<uint64_t> &Thresholds,
                     const dbt::DbtOptions &Base, uint64_t MaxBlocks);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_RUNNER_H
