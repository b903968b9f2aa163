//===- core/Figures.h - Per-figure series computation -----------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders that regenerate each figure of the paper's Section 4 as a
/// table (rows = retranslation thresholds, columns = series). One bench
/// binary per figure prints these; EXPERIMENTS.md records the comparison
/// against the paper. See DESIGN.md Section 4 for the experiment index.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_FIGURES_H
#define TPDBT_CORE_FIGURES_H

#include "core/Experiment.h"
#include "support/Table.h"

#include <string>
#include <vector>

namespace tpdbt {
namespace core {

/// Metric value for INIP(T) of \p Bench against its AVEP, read from the
/// benchmark's MetricTable (ExperimentContext::metrics). \p Threshold
/// must be one of config().Thresholds.
double metricInip(ExperimentContext &Ctx, const std::string &Bench,
                  uint64_t Threshold, MetricKind Kind);

/// Metric value for INIP(train) against AVEP. For the region metrics
/// (Sd.CP / Sd.LP / LP mismatch) the training profile has no regions;
/// this implements the paper's Section 2.3 future-work item by forming
/// regions offline on the training profile (analysis/OfflineRegions.h).
/// Read from the benchmark's MetricTable, which forms those regions once.
double metricTrain(ExperimentContext &Ctx, const std::string &Bench,
                   MetricKind Kind);

/// Figure 8 / 10 / 13 / 14 / 15: suite-average metric per threshold, with
/// INT and FP columns and a final "train" row (for region metrics the
/// train reference uses offline-formed regions — a paper future-work
/// extension).
Table figureAverages(ExperimentContext &Ctx, MetricKind Kind,
                     const std::string &Title);

/// Figure 9 / 11 / 12 / 16: per-benchmark metric per threshold.
Table figurePerBench(ExperimentContext &Ctx, MetricKind Kind,
                     const std::vector<std::string> &Benches,
                     const std::string &Title);

/// Figure 17: relative performance (cycles at T=1 divided by cycles at T,
/// geomean per group) for int, int-without-perlbmk and fp.
Table figurePerformance(ExperimentContext &Ctx);

/// Figure 18: profiling operations of INIP(T) normalized to the training
/// run (ratio of sums per group).
Table figureProfilingOps(ExperimentContext &Ctx);

/// One servable figure: the canonical name shared by the bench binary,
/// its CSV under tpdbt_results/, and the sweep daemon's REQUEST(figure)
/// message, plus the builder that produces its table.
struct FigureSpec {
  const char *Name;        ///< e.g. "fig08_sd_bp"
  const char *Description; ///< one-liner for --help / --list
  Table (*Build)(ExperimentContext &Ctx);
};

/// Every figure the bench binaries and the sweep daemon can build, in
/// paper order. This is the single source of truth for figure names:
/// bench/FigureBenchMain.h resolves each binary through it and
/// service/SweepService serves REQUEST(figure) from it, so the CLI and
/// daemon name sets cannot drift (satellite of ISSUE 7).
const std::vector<FigureSpec> &figureRegistry();

/// Registry lookup; nullptr when \p Name is unknown.
const FigureSpec *findFigure(const std::string &Name);

/// Per-threshold accuracy and modeled-performance metrics for one
/// benchmark at the context's configured thresholds — the entry point
/// behind the daemon's REQUEST(sweep), callable against any context
/// without per-process setup.
Table sweepTable(ExperimentContext &Ctx, const std::string &Bench);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_FIGURES_H
