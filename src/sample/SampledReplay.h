//===- sample/SampledReplay.h - Stratified sampled sweep --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sampled-sweep driver: phase-cluster a trace's segments from their
/// decode-free directory statistics, draw a stratified sample under the
/// budget, decode *only* the drawn segments, and estimate the whole
/// threshold sweep (point estimates plus delete-a-group jackknife
/// replicates) through sample::Estimator.
///
/// Segments come from one core::SegmentedTraceReader, file- or
/// bytes-backed: per-segment statistics from its directory (no payload
/// touched), and each drawn segment folded straight into a per-block
/// table in its decode pass. A warm cache entry is read from its file,
/// so unsampled segments never leave it; a freshly recorded trace is
/// read from the container its cache entry holds (or, without a disk
/// layer, from the same bytes in memory), so cold and warm runs stratify
/// — and therefore sample — identically.
///
/// Determinism: the plan is a pure function of (segment stats, budget,
/// seed) computed before any threading; the point estimates and the
/// per-group replicate units are independent const calls dispatched by
/// index, so results are identical at any job count. Each jackknife view's
/// curves are built once and shared by every threshold (see
/// sample/Estimator.h).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SAMPLE_SAMPLEDREPLAY_H
#define TPDBT_SAMPLE_SAMPLEDREPLAY_H

#include "core/TraceSegments.h"
#include "sample/Estimator.h"
#include "sample/SampleConfig.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tpdbt {
namespace sample {

/// What the sampled sweep actually touched, for the stats banner and the
/// never-decompress regression test.
struct SampledSweepStats {
  uint64_t Segments = 0; ///< total segments in the trace
  /// Segments drawn (the sample); a disk source decodes each one or
  /// copies it from the trace store's segment-profile memo.
  uint64_t Decoded = 0;
  /// Event totals behind the same split — the sampled-fraction f that the
  /// finite-population correction in core/Figures scales intervals by.
  uint64_t TotalEvents = 0;
  uint64_t DecodedEvents = 0;
  uint32_t Strata = 0;
  uint32_t Groups = 0;

  double sampledFraction() const {
    return TotalEvents ? static_cast<double>(DecodedEvents) /
                             static_cast<double>(TotalEvents)
                       : 1.0;
  }
};

/// A sampled threshold sweep: the point estimates, the exact
/// profiling-only average, and the jackknife replicate estimates
/// (Replicates[g][t] excludes group g) core/Figures turns into
/// confidence intervals.
struct SampledSweep {
  std::vector<profile::ProfileSnapshot> PerThreshold;
  profile::ProfileSnapshot Average;
  /// [group][threshold index] — empty when fewer than two groups exist.
  std::vector<std::vector<profile::ProfileSnapshot>> Replicates;
  SampledSweepStats Stats;
};

/// Two-sided 95% Student-t quantile for \p Df degrees of freedom (exact
/// table through 30, the normal 1.96 beyond).
double tQuantile95(unsigned Df);

/// 95% half-width from delete-a-group jackknife replicates of one metric,
/// corrected for estimating a finite-population (this trace) quantity:
/// a replicate perturbs the estimate by one *group's* mass (proportional
/// to the sampled fraction f), while the true error comes from the
/// *unsampled* mass (proportional to 1 - f) — for the estimator's
/// prefix-sum statistics the variance ratio works out to (1 - f) / f^2,
/// so the raw jackknife SE is scaled by sqrt(1 - f) / f. The correction
/// also makes interval width shrink monotonically as the budget grows
/// and vanish at full budget. \p SampledFrac is
/// SampledSweepStats::sampledFraction(). Returns 0 with fewer than two
/// replicates. Sampling noise only: core/Figures adds the calibrated
/// model-bias guard on top (docs/ARCHITECTURE.md, "Approximate replay").
double jackknife95(const std::vector<double> &Replicates,
                   double SampledFrac);

/// What sampledSweep estimates from: every segment's directory
/// statistics, the drawn plan, and the drawn segments' per-block totals
/// (in Plan.Chosen order) — the inputs of sample::Estimator.
struct DrawnSample {
  std::vector<SegmentStats> Segments;
  SamplePlan Plan;
  std::vector<SegmentProfile> Decoded;
};

/// The draw half of sampledSweep: detect phases, plan the sample with
/// \p Seed, and decode the drawn segments (serially, through the reader's
/// segment-profile memo when it has one). Decode failures report through
/// \p Error.
bool drawSample(core::SegmentedTraceReader &Reader, const SampleConfig &Cfg,
                uint64_t Seed, DrawnSample &Out, std::string *Error);

/// Runs the sampled sweep over \p Reader's container: draw the sample
/// (drawSample), then estimate on up to \p Jobs threads: the point
/// estimates over the one full-sample view, then one unit per jackknife
/// group that builds the group's view and replicates every threshold
/// over it. When the reader came from core::TraceCache::openSegmented, a
/// draw first asks the entry's segment-profile memo: a profile verified
/// under the same header tag is copied out, and a miss decodes with every
/// check and then memoizes the result, so a trace store decodes each
/// drawn segment once however many seeds draw it. Any other reader
/// decodes on every draw. Non-finite budgets, zero-segment traces, and
/// decode failures report through \p Error. Thresholds are estimated as
/// given (duplicates share one unit); the average is exact (see
/// dbt::profilingAverage). \p G is \p P's CFG (callers hold one already).
bool sampledSweep(core::SegmentedTraceReader &Reader, const guest::Program &P,
                  const cfg::Cfg &G, const std::vector<uint64_t> &Thresholds,
                  const dbt::DbtOptions &Base, const SampleConfig &Cfg,
                  uint64_t Seed, unsigned Jobs, SampledSweep &Out,
                  std::string *Error);

} // namespace sample
} // namespace tpdbt

#endif // TPDBT_SAMPLE_SAMPLEDREPLAY_H
