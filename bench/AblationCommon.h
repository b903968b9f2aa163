//===- bench/AblationCommon.h - Shared ablation-bench helpers ---*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers for the design-choice ablation benches (DESIGN.md Section 6):
/// run a benchmark subset under a modified DbtOptions and report accuracy
/// and modeled performance per configuration.
///
/// Ablations sweep many policy configurations over the same inputs, so
/// they are trace-first: each benchmark is generated and recorded once per
/// process (or loaded from TPDBT_CACHE_DIR's .trace entries) and every
/// configuration replays the recording. Policy knobs never touch the
/// event stream, so a warm cache makes an ablation binary interpret
/// nothing at all.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_BENCH_ABLATIONCOMMON_H
#define TPDBT_BENCH_ABLATIONCOMMON_H

#include "analysis/Metrics.h"
#include "core/Experiment.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpdbt {
namespace bench {

/// The benchmark subset ablations run on (kept small for speed; three
/// branchy INT, one phase-heavy INT, two loopy FP).
inline std::vector<std::string> ablationBenchmarks() {
  return {"gzip", "perlbmk", "crafty", "mcf", "swim", "mgrid"};
}

/// The workload scale ablations run at: a quarter of TPDBT_SCALE.
inline double ablationScale() {
  double Scale = 0.25;
  if (const char *S = std::getenv("TPDBT_SCALE")) {
    double V = std::atof(S);
    if (V > 0)
      Scale *= V;
  }
  return Scale;
}

/// One ablation benchmark, generated and recorded exactly once per
/// process and replayed by every configuration.
struct AblationWorkload {
  workloads::GeneratedBenchmark Bench;
  std::unique_ptr<cfg::Cfg> Graph;
  std::shared_ptr<const core::BlockTrace> Trace;
};

namespace detail {

struct AblationRegistry {
  /// Shares .trace recordings with the figure binaries that run at this
  /// scale (a figure binary at TPDBT_SCALE=0.25 records what an ablation
  /// at TPDBT_SCALE=1 replays); "off" disables the disk layer as usual.
  core::TraceCache Cache{core::ExperimentConfig::fromEnv().CacheDir};
  std::mutex Lock; ///< guards the map structure only
  std::map<std::string, std::pair<std::once_flag, AblationWorkload>> Entries;
};

inline AblationRegistry &ablationRegistry() {
  static AblationRegistry R;
  return R;
}

} // namespace detail

/// Returns the process-wide workload for \p Name, generating and
/// recording it on first use. Thread-safe; concurrent first uses of
/// different benchmarks record in parallel.
inline const AblationWorkload &ablationWorkload(const std::string &Name) {
  detail::AblationRegistry &R = detail::ablationRegistry();
  std::pair<std::once_flag, AblationWorkload> *E;
  {
    std::lock_guard<std::mutex> Guard(R.Lock);
    E = &R.Entries[Name]; // std::map nodes are address-stable
  }
  std::call_once(E->first, [&] {
    AblationWorkload &W = E->second;
    workloads::BenchSpec Scaled =
        workloads::scaledSpec(*workloads::findSpec(Name), ablationScale());
    W.Bench = workloads::generateBenchmark(Scaled);
    W.Graph = std::make_unique<cfg::Cfg>(W.Bench.Ref);
    // Same key and event cap as the figure binaries' ExperimentContext.
    core::ExperimentConfig EC = core::ExperimentConfig::fromEnv();
    EC.Scale = ablationScale();
    W.Trace = R.Cache.get(Name, "ref", EC.traceFingerprint(Scaled),
                          W.Bench.Ref, Scaled.MaxBlockEvents);
  });
  return E->second;
}

/// One-line trace-cache report for the ablation banners, e.g.
/// "traces: 6 hit / 0 miss (0 corrupt), 0.0s recording".
inline std::string ablationStatsLine() {
  const core::TraceCache::Counters &S = detail::ablationRegistry().Cache.stats();
  return formatString(
      "traces: %llu hit / %llu miss (%llu corrupt), %.1fs recording",
      static_cast<unsigned long long>(S.hits()),
      static_cast<unsigned long long>(
          S.Misses.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          S.CorruptEntries.load(std::memory_order_relaxed)),
      static_cast<double>(S.RecordMicros.load(std::memory_order_relaxed)) /
          1e6);
}

/// Aggregate results of one configuration over the subset.
struct AblationResult {
  double SdBp = 0.0;
  double SdCp = 0.0;
  double SdLp = 0.0;
  double MeanSpeedupVsBase = 0.0; ///< cycles(base cfg) / cycles(this cfg)
  uint64_t Regions = 0;
  uint64_t SideExits = 0;
};

/// Replays the subset's recorded traces at threshold \p T under \p Opts
/// (scaled by TPDBT_SCALE * 0.25), one worker per benchmark up to
/// TPDBT_JOBS. Results are stored per benchmark index first and reduced
/// after the join, so they are byte-identical at any job count.
/// \p CyclesOut, when non-null, receives the per-benchmark cycles in
/// ablationBenchmarks() order for the speedup column.
inline AblationResult runAblation(const dbt::DbtOptions &Opts, uint64_t T,
                                  std::vector<uint64_t> *CyclesOut) {
  const std::vector<std::string> Names = ablationBenchmarks();
  std::vector<double> SdBps(Names.size()), SdCps(Names.size()),
      SdLps(Names.size());
  std::vector<uint64_t> Regions(Names.size()), Cycles(Names.size());
  parallelFor(
      Names.size(), core::ExperimentConfig::fromEnv().effectiveJobs(),
      [&](size_t I) {
        const AblationWorkload &W = ablationWorkload(Names[I]);
        dbt::DbtOptions RunOpts = Opts;
        core::SweepResult Sweep =
            core::replaySweep(*W.Trace, W.Bench.Ref, {T}, RunOpts);
        const profile::ProfileSnapshot &Inip = Sweep.PerThreshold[0];
        const profile::ProfileSnapshot &Avep = Sweep.Average;
        SdBps[I] = analysis::sdBranchProb(Inip, Avep, *W.Graph);
        SdCps[I] = analysis::sdCompletionProb(Inip, Avep, *W.Graph);
        SdLps[I] = analysis::sdLoopBackProb(Inip, Avep, *W.Graph);
        Regions[I] = Inip.Regions.size();
        Cycles[I] = Inip.Cycles;
      });

  AblationResult Out;
  for (size_t I = 0; I < Names.size(); ++I) {
    Out.Regions += Regions[I];
    if (CyclesOut)
      CyclesOut->push_back(Cycles[I]);
  }
  Out.SdBp = tpdbt::mean(SdBps);
  Out.SdCp = tpdbt::mean(SdCps);
  Out.SdLp = tpdbt::mean(SdLps);
  return Out;
}

} // namespace bench
} // namespace tpdbt

#endif // TPDBT_BENCH_ABLATIONCOMMON_H
