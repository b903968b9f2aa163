//===- core/Figures.cpp - Per-figure series computation --------------------===//

#include "core/Figures.h"

#include "support/Format.h"
#include "support/Statistics.h"
#include "workloads/BenchSpec.h"

#include <cassert>
#include <cmath>
#include <cstdint>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

//===----------------------------------------------------------------------===//
// Sampled-mode confidence intervals
//
// Every interval is the finite-population-corrected jackknife width over
// the benchmark's delete-a-group replicates plus a calibrated guard for
// the model bias the jackknife cannot see (placement interpolation,
// frozen structure held fixed across replicates). Guards are calibrated
// at the 25% budget — (1 - f) / 0.75 rescales them to other budgets and
// sends them to zero at full budget. See docs/ARCHITECTURE.md,
// "Approximate replay".
//
// No cell computes a metric: point, neighbour and replicate values are
// all read from the benchmark's MetricTable, which the context fills once
// per benchmark when its profiles become ready (on warmUp's workers), from
// replicates whose jackknife curves the estimator built once per view.
//===----------------------------------------------------------------------===//

/// Guard at 25% budget for the probability metrics: relative share of the
/// point value plus an absolute floor on the [0,1] metric scale.
constexpr double MetricGuardRel = 0.10;
constexpr double MetricGuardAbs = 0.03;
/// Profiling-op totals track the estimated prefixes closely (~5% worst
/// case at quarter budget); cycles carry unmodeled exit penalties and
/// region-flip OptimizePerInst swings, hence the wide guard.
constexpr double OpsGuardRel = 0.05;
constexpr double CyclesGuardRel = 0.30;

double guardScale(double SampledFrac) { return (1.0 - SampledFrac) / 0.75; }

size_t thresholdIndex(ExperimentContext &Ctx, uint64_t Th) {
  const std::vector<uint64_t> &Ts = Ctx.config().Thresholds;
  for (size_t I = 0; I < Ts.size(); ++I)
    if (Ts[I] == Th)
      return I;
  assert(false && "threshold not part of the configured sweep");
  return 0;
}

/// 95% half-width of one benchmark's metric cell; 0 when not sampling.
double metricHalf(ExperimentContext &Ctx, const std::string &Bench,
                  uint64_t Th, MetricKind Kind, double Point) {
  const SampledProfiles *SP = Ctx.sampled(Bench);
  if (!SP || SP->Replicates.empty())
    return 0.0;
  const MetricTable &M = Ctx.metrics(Bench);
  const size_t Idx = thresholdIndex(Ctx, Th);
  std::vector<double> Vals;
  for (size_t Gr = 0; Gr < M.NumGroups; ++Gr)
    Vals.push_back(M.replicate(Kind, Gr, Idx));
  double Half = sample::jackknife95(Vals, SP->Stats.sampledFraction());
  const double Scale = guardScale(SP->Stats.sampledFraction());
  Half += (MetricGuardRel * std::fabs(Point) + MetricGuardAbs) * Scale;
  // Placement guard: estimated crossing positions can slide a discrete
  // classification flip (the mismatch metrics' cliffs) across one
  // threshold step, which the structure-fixed replicates cannot see. The
  // interval absorbs the larger adjacent-threshold jump of the estimated
  // series — large only where the series actually cliffs.
  double Jump = 0.0;
  if (Idx > 0)
    Jump = std::max(Jump, std::fabs(Point - M.point(Kind, Idx - 1)));
  if (Idx + 1 < M.NumThresholds)
    Jump = std::max(Jump, std::fabs(Point - M.point(Kind, Idx + 1)));
  Half += Jump * Scale;
  return Half;
}

/// Root-sum-square combine for a mean over independent per-benchmark
/// estimates: half(mean) = sqrt(sum h_b^2) / n.
double combineMeanHalves(const std::vector<double> &Halves) {
  double Sq = 0.0;
  for (double H : Halves)
    Sq += H * H;
  return Halves.empty() ? 0.0
                        : std::sqrt(Sq) / static_cast<double>(Halves.size());
}

/// Records a cell's relative width for the stats banner. The denominator
/// is floored so near-zero metric cells (whose absolute interval is tiny
/// but whose ratio diverges) don't dominate the reported maximum.
void noteCell(ExperimentContext &Ctx, double Value, double Half) {
  Ctx.noteHalfWidth(Half / std::max(std::fabs(Value), 0.05));
}

/// The smallest replicate count over \p Benches (group-level aggregate
/// metrics need every benchmark's replicate g), the mean sampled fraction
/// for the correction, and each benchmark's sampled profiles (in
/// \p Benches order, looked up once). Zero groups when any bench lacks
/// them.
struct GroupView {
  size_t Groups = 0;
  double Frac = 1.0;
  std::vector<const SampledProfiles *> Profiles;
};
GroupView groupView(ExperimentContext &Ctx,
                    const std::vector<std::string> &Benches) {
  GroupView V;
  if (Benches.empty() || !Ctx.sampling())
    return V;
  V.Groups = SIZE_MAX;
  double FracSum = 0.0;
  for (const std::string &B : Benches) {
    const SampledProfiles *SP = Ctx.sampled(B);
    if (!SP || SP->Replicates.size() < 2)
      return GroupView();
    V.Groups = std::min(V.Groups, SP->Replicates.size());
    FracSum += SP->Stats.sampledFraction();
    V.Profiles.push_back(SP);
  }
  V.Frac = FracSum / static_cast<double>(Benches.size());
  return V;
}

} // namespace

double tpdbt::core::metricInip(ExperimentContext &Ctx,
                               const std::string &Bench, uint64_t Threshold,
                               MetricKind Kind) {
  return Ctx.metrics(Bench).point(Kind, thresholdIndex(Ctx, Threshold));
}

double tpdbt::core::metricTrain(ExperimentContext &Ctx,
                                const std::string &Bench, MetricKind Kind) {
  // Region metrics need regions, which profiling-only runs lack; the
  // paper leaves Sd.CP(train)/Sd.LP(train) as future work (Section 2.3).
  // The table implements that extension: offline region formation on the
  // training profile with its own probabilities, hot-block threshold 2000
  // (the paper's representative INT threshold).
  return Ctx.metrics(Bench).train(Kind);
}

Table tpdbt::core::figureAverages(ExperimentContext &Ctx, MetricKind Kind,
                                  const std::string &Title) {
  std::vector<std::string> Int = workloads::intBenchmarkNames();
  std::vector<std::string> Fp = workloads::fpBenchmarkNames();

  const bool Sampled = Ctx.sampling();
  Table T(Title);
  // Sampled mode pairs every series with a ±95% CI companion column.
  T.setHeader(Sampled ? std::vector<std::string>{"threshold", "int",
                                                 "int_ci95", "fp", "fp_ci95"}
                      : std::vector<std::string>{"threshold", "int", "fp"});
  for (uint64_t Th : paperThresholds()) {
    T.addRow();
    T.addCell(thresholdLabel(Th));
    for (const auto *Group : {&Int, &Fp}) {
      std::vector<double> Vals;
      std::vector<double> Halves;
      for (const std::string &B : *Group) {
        Vals.push_back(metricInip(Ctx, B, Th, Kind));
        if (Sampled)
          Halves.push_back(metricHalf(Ctx, B, Th, Kind, Vals.back()));
      }
      const double Value = mean(Vals);
      T.addCell(Value);
      if (Sampled) {
        const double Half = combineMeanHalves(Halves);
        T.addCell(Half);
        noteCell(Ctx, Value, Half);
      }
    }
  }
  T.addRow();
  T.addCell("train");
  for (const auto *Group : {&Int, &Fp}) {
    std::vector<double> Vals;
    for (const std::string &B : *Group)
      Vals.push_back(metricTrain(Ctx, B, Kind));
    T.addCell(mean(Vals));
    if (Sampled)
      T.addCell(0.0); // train references are exact even when sampling
  }
  return T;
}

Table tpdbt::core::figurePerBench(ExperimentContext &Ctx, MetricKind Kind,
                                  const std::vector<std::string> &Benches,
                                  const std::string &Title) {
  const bool Sampled = Ctx.sampling();
  Table T(Title);
  std::vector<std::string> Header = {"threshold"};
  for (const std::string &B : Benches) {
    Header.push_back(B);
    if (Sampled)
      Header.push_back(B + "_ci95");
  }
  T.setHeader(Header);

  for (uint64_t Th : paperThresholds()) {
    T.addRow();
    T.addCell(thresholdLabel(Th));
    for (const std::string &B : Benches) {
      const double Value = metricInip(Ctx, B, Th, Kind);
      T.addCell(Value);
      if (Sampled) {
        const double Half = metricHalf(Ctx, B, Th, Kind, Value);
        T.addCell(Half);
        noteCell(Ctx, Value, Half);
      }
    }
  }
  T.addRow();
  T.addCell("train");
  for (const std::string &B : Benches) {
    T.addCell(metricTrain(Ctx, B, Kind));
    if (Sampled)
      T.addCell(0.0);
  }
  return T;
}

Table tpdbt::core::figurePerformance(ExperimentContext &Ctx) {
  std::vector<std::string> Int = workloads::intBenchmarkNames();
  std::vector<std::string> Fp = workloads::fpBenchmarkNames();
  std::vector<std::string> IntNoPerl;
  for (const std::string &B : Int)
    if (B != "perlbmk")
      IntNoPerl.push_back(B);

  const bool Sampled = Ctx.sampling();
  Table T("Figure 17: relative performance vs. threshold (base: T=1)");
  T.setHeader(Sampled
                  ? std::vector<std::string>{"threshold", "int", "int_ci95",
                                             "int_no_perl",
                                             "int_no_perl_ci95", "fp",
                                             "fp_ci95"}
                  : std::vector<std::string>{"threshold", "int",
                                             "int_no_perl", "fp"});
  for (uint64_t Th : performanceThresholds()) {
    T.addRow();
    T.addCell(thresholdLabel(Th));
    for (const auto *Group : {&Int, &IntNoPerl, &Fp}) {
      std::vector<double> Speedups;
      for (const std::string &B : *Group) {
        double BaseCycles =
            static_cast<double>(Ctx.inip(B, 1).Cycles);
        double Cycles = static_cast<double>(Ctx.inip(B, Th).Cycles);
        assert(Cycles > 0.0 && "cost model produced zero cycles");
        Speedups.push_back(BaseCycles / Cycles);
      }
      const double Value = geomean(Speedups);
      T.addCell(Value);
      if (Sampled) {
        // Group-level jackknife: replicate g's geomean uses every
        // benchmark's replicate g, so correlated base/threshold cycles
        // cancel inside the ratio as they do in the point estimate.
        const GroupView V = groupView(Ctx, *Group);
        const size_t BaseIdx = thresholdIndex(Ctx, 1);
        const size_t ThIdx = thresholdIndex(Ctx, Th);
        std::vector<double> RepVals;
        for (size_t Gr = 0; Gr < V.Groups; ++Gr) {
          std::vector<double> RepSpeedups;
          for (const SampledProfiles *SP : V.Profiles) {
            double RepBase =
                static_cast<double>(SP->Replicates[Gr][BaseIdx].Cycles);
            double RepCycles = std::max<double>(
                static_cast<double>(SP->Replicates[Gr][ThIdx].Cycles), 1.0);
            RepSpeedups.push_back(RepBase / RepCycles);
          }
          RepVals.push_back(geomean(RepSpeedups));
        }
        double Half = sample::jackknife95(RepVals, V.Frac);
        Half += CyclesGuardRel * std::fabs(Value) * guardScale(V.Frac);
        T.addCell(Half);
        noteCell(Ctx, Value, Half);
      }
    }
  }
  return T;
}

namespace {

Table buildFig08(ExperimentContext &C) {
  return figureAverages(
      C, MetricKind::SdBp,
      "Figure 8: Sd.BP(T) suite averages (vs. Sd.BP(train))");
}
Table buildFig09(ExperimentContext &C) {
  return figurePerBench(C, MetricKind::SdBp, workloads::intBenchmarkNames(),
                        "Figure 9: Sd.BP(T) per INT benchmark");
}
Table buildFig10(ExperimentContext &C) {
  return figureAverages(
      C, MetricKind::BpMismatch,
      "Figure 10: branch probability mismatch rates (suite averages)");
}
Table buildFig11(ExperimentContext &C) {
  return figurePerBench(C, MetricKind::BpMismatch,
                        workloads::intBenchmarkNames(),
                        "Figure 11: branch probability mismatch rates (INT)");
}
Table buildFig12(ExperimentContext &C) {
  return figurePerBench(C, MetricKind::BpMismatch,
                        workloads::fpBenchmarkNames(),
                        "Figure 12: branch probability mismatch rates (FP)");
}
Table buildFig13(ExperimentContext &C) {
  return figureAverages(C, MetricKind::SdCp,
                        "Figure 13: Sd.CP(T) suite averages");
}
Table buildFig14(ExperimentContext &C) {
  return figureAverages(C, MetricKind::SdLp,
                        "Figure 14: Sd.LP(T) suite averages");
}
Table buildFig15(ExperimentContext &C) {
  return figureAverages(
      C, MetricKind::LpMismatch,
      "Figure 15: loop-back probability mismatch rates (averages)");
}
Table buildFig16(ExperimentContext &C) {
  return figurePerBench(
      C, MetricKind::LpMismatch, workloads::intBenchmarkNames(),
      "Figure 16: loop-back probability mismatch rates (INT)");
}
Table buildFig17(ExperimentContext &C) { return figurePerformance(C); }
Table buildFig18(ExperimentContext &C) { return figureProfilingOps(C); }

} // namespace

const std::vector<FigureSpec> &tpdbt::core::figureRegistry() {
  static const std::vector<FigureSpec> Registry = {
      {"fig08_sd_bp", "Sd.BP(T) suite averages vs. Sd.BP(train)",
       buildFig08},
      {"fig09_sd_bp_int", "Sd.BP(T) per INT benchmark", buildFig09},
      {"fig10_bp_mismatch", "branch probability mismatch rates (averages)",
       buildFig10},
      {"fig11_bp_mismatch_int", "branch probability mismatch rates (INT)",
       buildFig11},
      {"fig12_bp_mismatch_fp", "branch probability mismatch rates (FP)",
       buildFig12},
      {"fig13_sd_cp", "Sd.CP(T) suite averages", buildFig13},
      {"fig14_sd_lp", "Sd.LP(T) suite averages", buildFig14},
      {"fig15_lp_mismatch", "loop-back probability mismatch rates (averages)",
       buildFig15},
      {"fig16_lp_mismatch_int", "loop-back probability mismatch rates (INT)",
       buildFig16},
      {"fig17_performance", "relative performance vs. threshold (base T=1)",
       buildFig17},
      {"fig18_profiling_ops",
       "profiling operations normalized to the training run", buildFig18},
  };
  return Registry;
}

const FigureSpec *tpdbt::core::findFigure(const std::string &Name) {
  for (const FigureSpec &F : figureRegistry())
    if (Name == F.Name)
      return &F;
  return nullptr;
}

Table tpdbt::core::sweepTable(ExperimentContext &Ctx,
                              const std::string &Bench) {
  const bool Sampled = Ctx.sampling();
  Table T(formatString("Sweep: %s (scale %.3f)", Bench.c_str(),
                       Ctx.config().Scale));
  const MetricKind Kinds[] = {MetricKind::SdBp, MetricKind::BpMismatch,
                              MetricKind::SdCp, MetricKind::SdLp,
                              MetricKind::LpMismatch};
  const char *KindNames[] = {"sd_bp", "bp_mismatch", "sd_cp", "sd_lp",
                             "lp_mismatch"};
  std::vector<std::string> Header = {"threshold"};
  for (const char *N : KindNames) {
    Header.push_back(N);
    if (Sampled)
      Header.push_back(std::string(N) + "_ci95");
  }
  Header.push_back("regions");
  Header.push_back("cycles");
  if (Sampled)
    Header.push_back("cycles_ci95");
  T.setHeader(Header);
  for (uint64_t Th : Ctx.config().Thresholds) {
    const profile::ProfileSnapshot &Inip = Ctx.inip(Bench, Th);
    T.addRow();
    T.addCell(thresholdLabel(Th));
    for (MetricKind Kind : Kinds) {
      const double Value = metricInip(Ctx, Bench, Th, Kind);
      T.addCell(Value);
      if (Sampled) {
        const double Half = metricHalf(Ctx, Bench, Th, Kind, Value);
        T.addCell(Half);
        noteCell(Ctx, Value, Half);
      }
    }
    T.addCell(static_cast<uint64_t>(Inip.Regions.size()));
    T.addCell(Inip.Cycles);
    if (Sampled) {
      const SampledProfiles *SP = Ctx.sampled(Bench);
      double Half = 0.0;
      if (SP && SP->Replicates.size() >= 2) {
        const size_t Idx = thresholdIndex(Ctx, Th);
        std::vector<double> Vals;
        for (const auto &Rep : SP->Replicates)
          Vals.push_back(static_cast<double>(Rep[Idx].Cycles));
        Half = sample::jackknife95(Vals, SP->Stats.sampledFraction());
        Half += CyclesGuardRel * static_cast<double>(Inip.Cycles) *
                guardScale(SP->Stats.sampledFraction());
        noteCell(Ctx, static_cast<double>(Inip.Cycles), Half);
      }
      T.addCell(Half, 0);
    }
  }
  return T;
}

Table tpdbt::core::figureProfilingOps(ExperimentContext &Ctx) {
  std::vector<std::string> Int = workloads::intBenchmarkNames();
  std::vector<std::string> Fp = workloads::fpBenchmarkNames();
  std::vector<std::string> All = Int;
  All.insert(All.end(), Fp.begin(), Fp.end());

  const bool Sampled = Ctx.sampling();
  Table T("Figure 18: profiling operations, normalized to the training run");
  T.setHeader(Sampled ? std::vector<std::string>{"threshold", "int",
                                                 "int_ci95", "fp", "fp_ci95",
                                                 "all", "all_ci95"}
                      : std::vector<std::string>{"threshold", "int", "fp",
                                                 "all"});
  for (uint64_t Th : paperThresholds()) {
    T.addRow();
    T.addCell(thresholdLabel(Th));
    for (const auto *Group : {&Int, &Fp, &All}) {
      double InipOps = 0.0;
      double TrainOps = 0.0;
      for (const std::string &B : *Group) {
        InipOps += static_cast<double>(Ctx.inip(B, Th).ProfilingOps);
        TrainOps += static_cast<double>(Ctx.train(B).ProfilingOps);
      }
      const double Value = TrainOps > 0.0 ? InipOps / TrainOps : 0.0;
      T.addCell(Value, 4);
      if (Sampled) {
        // Replicate g's ratio re-sums every benchmark's replicate ops
        // over the exact training total.
        const GroupView V = groupView(Ctx, *Group);
        const size_t ThIdx = thresholdIndex(Ctx, Th);
        std::vector<double> RepVals;
        for (size_t Gr = 0; Gr < V.Groups; ++Gr) {
          double RepOps = 0.0;
          for (const SampledProfiles *SP : V.Profiles)
            RepOps += static_cast<double>(
                SP->Replicates[Gr][ThIdx].ProfilingOps);
          RepVals.push_back(TrainOps > 0.0 ? RepOps / TrainOps : 0.0);
        }
        double Half = sample::jackknife95(RepVals, V.Frac);
        Half += OpsGuardRel * std::fabs(Value) * guardScale(V.Frac);
        T.addCell(Half, 4);
        noteCell(Ctx, Value, Half);
      }
    }
  }
  T.addRow();
  T.addCell("train");
  for (int I = 0; I < 3; ++I) {
    T.addCell(1.0, 4);
    if (Sampled)
      T.addCell(0.0, 4);
  }
  return T;
}
