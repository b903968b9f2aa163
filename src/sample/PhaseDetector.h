//===- sample/PhaseDetector.h - Segment phase clustering --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clusters a trace's segments into program phases by deterministic
/// leader clustering, the same greedy scheme analysis/Phases.h applies to
/// basic-block vectors. Phases become the strata of the sampled replay:
/// segments inside one phase behave alike, so a small sample per phase
/// estimates the phase mean tightly.
///
/// detectSegmentPhases() uses only the TPDT v4 directory aggregates
/// (event count, instructions/event, taken/event). These are exact for
/// every segment without decompressing any payload — the disk path's
/// whole point — and cold and warm runs read them from the same
/// container bytes, so they stratify identically.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SAMPLE_PHASEDETECTOR_H
#define TPDBT_SAMPLE_PHASEDETECTOR_H

#include <cstdint>
#include <vector>

namespace tpdbt {
namespace sample {

/// Exact per-segment aggregates, read from the TPDT v4 segment directory
/// (disk) or a single pass over the event slice (memory). Never requires
/// decoding a segment payload.
struct SegmentStats {
  uint64_t Events = 0;
  uint64_t Insts = 0;
  uint64_t Taken = 0;
};

/// Phase labels for a sequence of segments.
struct PhaseAssignment {
  /// Phase (stratum) of each segment, 0-based, dense.
  std::vector<uint32_t> StratumOf;
  uint32_t NumStrata = 0;
};

/// Deterministic leader clustering over arbitrary feature vectors with L1
/// distance: each item joins its nearest leader if that one lies within
/// \p Threshold, and opens a new phase otherwise (up to \p MaxPhases,
/// then it joins the nearest leader regardless).
PhaseAssignment leaderCluster(const std::vector<std::vector<double>> &Features,
                              unsigned MaxPhases, double Threshold);

/// Phases from directory aggregates (see file comment). Feature vector per
/// segment: relative length, instructions per event (scaled to [0, 1] by
/// the suite maximum), and taken-branch rate.
PhaseAssignment detectSegmentPhases(const std::vector<SegmentStats> &Segments,
                                    unsigned MaxPhases,
                                    double Threshold = 0.25);

} // namespace sample
} // namespace tpdbt

#endif // TPDBT_SAMPLE_PHASEDETECTOR_H
