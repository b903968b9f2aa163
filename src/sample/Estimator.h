//===- sample/Estimator.h - Sampled analytic replay -------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Estimates per-threshold INIP snapshots from a *sample* of a trace's
/// segments, mirroring the exact indexed replay (core/Trace.cpp
/// evaluateIndexed) at segment granularity.
///
/// The exact path needs only three trace queries: the position of a
/// block's T-th / 2T-th occurrence (the freeze timeline), every block's
/// cumulative counters at a position (the trigger's Shared vector), and
/// each block's pre-freeze occurrence prefix (closed-form profiling
/// accounting). The estimator answers the same queries from calibrated
/// piecewise-linear per-block cumulative-use curves:
///
///   cumUse_b(k) = [exact decoded use in sampled segments before k]
///               + alpha_b * sum_h rate_h(b) * unsampledEvents_h(before k)
///
/// where rate_h(b) is block b's mean use per event over stratum h's
/// sampled segments and alpha_b calibrates the imputed mass so the curve
/// ends exactly at the block's final counter (the TPDT v4 header's counter
/// table) — the sampled prefix plus the imputed remainder always sums to
/// the truth, so errors live only in *where* mass sits, never in totals.
/// Blocks invisible to the sample spread their mass uniformly over the
/// unsampled events. Taken counters get the same treatment; instruction
/// counts use the per-block instruction length (constant per block)
/// scaled so the trace total matches exactly.
///
/// Crossing positions are solved by binary search over segment boundaries
/// plus linear interpolation inside a segment; the trigger's Shared
/// vector is the rounded curve value at that position, with the crossing
/// block forced to exactly T (or 2T) and pool members clamped to at least
/// T. The real dbt::TranslationPolicy then runs its analytic entry points
/// unchanged — registration, trigger, region formation, freezing — so
/// region structures come from the production code path, not a model of
/// it. Everything downstream of a frozen block's counters (the fig08-16
/// metrics) is therefore exact *given* the estimated freeze-time
/// counters.
///
/// Cycle accounting is approximate in sampled mode: region-member events
/// after the freeze are charged the on-trace rate with no exit penalties
/// (figures 17/18 use the exact path; the sweep table's cycles column is
/// labelled estimated). Profiling-op accounting follows from the
/// estimated pre-freeze prefixes.
///
/// Confidence intervals come from delete-a-group jackknife *replicates*
/// (replicate()): the point estimate's freeze structure — which blocks
/// froze, at which estimated positions, inside or outside a region — is
/// held fixed, and only the freeze-time counters are re-estimated from
/// curves built with one jackknife group's segments imputed instead of
/// decoded. Conditioning on the realized structure keeps the replicates
/// smooth (a full re-estimation can flip discrete freeze/region decisions
/// and swamp the counter noise the interval is meant to measure); the
/// structural and model bias the jackknife therefore cannot see is
/// covered by the calibrated guard term core/Figures adds on top (see
/// docs/ARCHITECTURE.md "Approximate replay").
///
/// A view's curves depend only on which group it imputes, never on the
/// threshold, so they are built once per view (curves()) and passed to
/// every estimate() or replicate() of that view: a sweep over U
/// thresholds with G groups builds G + 1 curve sets, not (G + 1) * U.
/// All methods are const and safe to call concurrently, and a Curves
/// object may be shared between threads.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SAMPLE_ESTIMATOR_H
#define TPDBT_SAMPLE_ESTIMATOR_H

#include "core/TraceSegments.h"
#include "dbt/Policy.h"
#include "sample/Stratifier.h"

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace sample {

/// One decoded segment, reduced to per-block totals (defined in
/// core/TraceSegments.h). This is all the estimator keeps of a sampled
/// segment.
using core::SegmentProfile;

/// The point estimate's freeze structure plus the cycle decomposition
/// replicate() needs to re-derive a snapshot from re-estimated counters
/// without re-running the policy.
struct FreezeInfo {
  struct FrozenBlock {
    guest::BlockId Block = 0;
    /// Estimated event position of the trigger that froze this block.
    double Pos = 0.0;
    /// Exact counter value forced at the freeze (the crossing block's T
    /// or 2T); 0 = counters come from the curve.
    uint64_t Forced = 0;
    /// Whether the block landed inside a formed region (member rate) or
    /// outside (off-trace rate) — fixes the post-freeze cycle class.
    bool InRegion = false;
  };
  std::vector<FrozenBlock> Frozen;
  /// Point-estimate profiling/post-freeze totals, for replicate deltas.
  uint64_t ProfEvents = 0;
  uint64_t ProfTaken = 0;
  uint64_t ProfInsts = 0;
  uint64_t OffTraceInsts = 0;
  uint64_t MemberInsts = 0;
  profile::ProfileSnapshot Point;
};

/// Sampled analytic replay over one trace (see file comment).
class Estimator {
public:
  /// \p Decoded holds the profiles of the plan's chosen segments, in
  /// Plan.Chosen order.
  Estimator(const guest::Program &P, const cfg::Cfg &G,
            std::vector<SegmentStats> Segments,
            std::vector<profile::BlockCounters> Final, uint64_t NumEvents,
            uint64_t TotalInsts, uint64_t TakenTotal, SamplePlan Plan,
            std::vector<SegmentProfile> Decoded);

  /// One jackknife view's calibrated curves: the per-block per-stratum
  /// rates, the alpha calibration to the final counters and the uniform
  /// fallback, plus the curve queries (see the file comment). Built once
  /// per view by curves() and then shared, read-only, by every threshold
  /// that view serves. Tied to the Estimator that built it.
  class Curves {
    friend class Estimator;
    Curves(const Estimator &E, int ExcludeGroup);

    /// Estimated cumulative counter of block \p B at the segment-\p K
    /// boundary.
    double cum(size_t B, size_t K, bool Taken) const;
    /// The counter curve at event position \p Pos.
    double valueAt(size_t B, double Pos, bool Taken) const;
    /// Inverse of the use curve: the estimated position of block \p B's
    /// \p J-th occurrence.
    double crossingPos(size_t B, uint64_t J) const;

    const Estimator *E;
    /// The group this view imputes instead of decoding; -1 = the full
    /// sample.
    int ExcludeGroup;
    std::vector<uint8_t> InView;       ///< per segment
    std::vector<double> SampledEvents; ///< per stratum
    /// StratumUnsampled[h * (S + 1) + k]: events of stratum h's unsampled
    /// (in this view) segments before segment k.
    std::vector<double> StratumUnsampled;
    /// All unsampled events before segment k.
    std::vector<double> UnsampledBefore;
    std::vector<double> RateU, RateT;
    std::vector<double> AlphaU, AlphaT, FbU, FbT;
  };

  /// The curves of the view that imputes group \p ExcludeGroup's segments
  /// instead of decoding them; -1 builds the full-sample view the point
  /// estimates use.
  Curves curves(int ExcludeGroup) const;

  /// Estimated INIP snapshot for threshold \p Threshold (the point
  /// estimate) over \p Full, the full-sample view (curves(-1)). \p Info,
  /// when non-null, captures the realized freeze structure for
  /// replicate().
  profile::ProfileSnapshot estimate(const dbt::DbtOptions &Base,
                                    uint64_t Threshold, const Curves &Full,
                                    FreezeInfo *Info = nullptr) const;

  /// Jackknife replicate for \p View's excluded group: re-estimates the
  /// freeze-time counters from \p View's curves, holding \p Info's freeze
  /// structure fixed, and re-derives the snapshot's counter-dependent
  /// fields (Blocks, ProfilingOps, Cycles).
  profile::ProfileSnapshot replicate(const dbt::DbtOptions &Base,
                                     uint64_t Threshold,
                                     const FreezeInfo &Info,
                                     const Curves &View) const;

  /// The profiling-only snapshot (AVEP / INIP(train)). Exact: it depends
  /// only on the stream totals and the final counter table, all of which
  /// the TPDT v4 header carries — byte-identical to the full replay's
  /// Average.
  profile::ProfileSnapshot average(const dbt::DbtOptions &Base) const;

  uint32_t numGroups() const { return Plan.NumGroups; }
  const SamplePlan &plan() const { return Plan; }

private:
  const guest::Program &P;
  const cfg::Cfg &G;
  std::vector<SegmentStats> Segments;
  std::vector<profile::BlockCounters> Final;
  uint64_t NumEvents = 0;
  uint64_t TotalInsts = 0;
  uint64_t TakenTotal = 0;
  SamplePlan Plan;

  /// Event-count prefix over segments: EventsBefore[k] = events in
  /// segments [0, k).
  std::vector<double> EventsBefore;
  /// Per-block decoded totals per sampled segment, ascending segment id:
  /// SampledOf[b] lists (segment, use, taken).
  struct SampledSeg {
    uint32_t Seg = 0;
    uint64_t Use = 0;
    uint64_t Taken = 0;
  };
  std::vector<std::vector<SampledSeg>> SampledOf;
  /// Per-block guest instructions per occurrence, scaled so that
  /// sum_b Final.Use_b * EffLen_b == TotalInsts exactly.
  std::vector<double> EffLen;
};

} // namespace sample
} // namespace tpdbt

#endif // TPDBT_SAMPLE_ESTIMATOR_H
