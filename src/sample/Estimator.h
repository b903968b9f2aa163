//===- sample/Estimator.h - Sampled analytic replay -------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Estimates per-threshold INIP snapshots from a *sample* of a trace's
/// segments, mirroring the exact analytic replay (core/Trace.cpp
/// evaluateTimeline) at segment granularity.
///
/// The freeze timeline itself lives in the policy
/// (dbt::TranslationPolicy::freezeTimeline); an engine supplies only its
/// counter sources: the position of a block's T-th / 2T-th occurrence
/// and every block's cumulative counters at a position (the trigger's
/// Shared vector). The profiling accounting then needs each block's
/// pre-freeze occurrence prefix, which the timeline returns. The exact
/// replay answers those queries from its crossing table; the estimator
/// answers them from calibrated piecewise-linear per-block
/// cumulative-use curves:
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
/// vector is the rounded curve value at that position, which the
/// timeline clamps (the crossing block to exactly T or 2T, pool members
/// to at least T, taken <= use <= final). Registration, triggers, region
/// formation and freezing are the same code the exact replay runs, so
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
/// froze, at which estimated positions, into which regions — is
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
/// A curve set is a table of every block's cumulative use and taken
/// counters at every segment boundary (N * (S + 1) * 16 bytes), so each
/// query is a load or a binary search over one block's row, and a trigger
/// locates its position once for all N blocks. All methods are const and
/// safe to call concurrently, and a Curves object may be shared between
/// threads.
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
  /// Every block the point estimate froze, in freeze order, with its
  /// estimated trigger position and freeze-time counters. Each is a node
  /// of a formed region (see dbt/Policy.h, analytic section), so its
  /// post-freeze occurrences are charged the region-member rate.
  std::vector<dbt::FrozenBlock> Frozen;
  /// Point-estimate profiling/post-freeze totals, for replicate deltas.
  /// MemberInsts is the frozen blocks' post-freeze instructions.
  uint64_t ProfEvents = 0;
  uint64_t ProfTaken = 0;
  uint64_t ProfInsts = 0;
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

  /// One jackknife view's calibrated curves, tabulated: every block's
  /// estimated cumulative use and taken counters at every segment
  /// boundary (see the file comment), from which the curve queries
  /// interpolate. Built once per view by curves() and then shared,
  /// read-only, by every threshold that view serves. Tied to the
  /// Estimator that built it.
  class Curves {
  public:
    /// Estimated cumulative counter of block \p B at the segment-\p K
    /// boundary, K in [0, segments].
    double cum(size_t B, size_t K, bool Taken) const {
      return (Taken ? CumT : CumU)[B * Stride + K];
    }

  private:
    friend class Estimator;
    Curves(const Estimator &E, int ExcludeGroup);

    /// An event position as its segment and in-segment fraction: what
    /// every block's curve interpolates between boundaries at.
    struct At {
      size_t K = 0;
      double F = 0.0;
    };
    /// Locates \p Pos; needs at least one segment.
    At locate(double Pos) const;
    /// The counter curve of block \p B at a located position.
    double valueAt(size_t B, At A, bool Taken) const;
    /// Inverse of the use curve: the estimated position of block \p B's
    /// \p J-th occurrence.
    double crossingPos(size_t B, uint64_t J) const;

    const Estimator *E;
    /// The group this view imputes instead of decoding; -1 = the full
    /// sample.
    int ExcludeGroup;
    /// Row length: segments + 1 boundaries.
    size_t Stride;
    /// CumU/CumT[b * Stride + k] = cum(b, k, false / true).
    std::vector<double> CumU, CumT;
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
