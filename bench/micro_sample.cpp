//===- bench/micro_sample.cpp - Sampled-replay microbenchmarks -*- C++ -*-===//
//
// google-benchmark timings of the approximate-replay path: a full exact
// warm sweep (replay every event at every threshold) against the
// stratified sampled estimation at a 25% segment budget off a TPDT v3
// container (the out-of-core path: directory + drawn segments only), and
// the multi-seed loop over one trace store that the segment-profile memo
// serves, and one seed of the whole sampled figure suite (warm-up plus
// the 11 figure builds).
// The committed BENCH_sample.json rows back the ">= 5x at 25% budget"
// acceptance line in docs/BENCHMARKS.md.
//
//===----------------------------------------------------------------------===//

#include "core/Experiment.h"
#include "core/Figures.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "core/TraceSegments.h"
#include "sample/SampledReplay.h"
#include "support/TextFile.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

using namespace tpdbt;

namespace {

/// One scale-0.2 workload, recorded once and serialized as a segmented
/// v3 container: both benchmarks below sweep the paper's thresholds over
/// the identical execution.
struct SampleSetup {
  workloads::GeneratedBenchmark B;
  core::BlockTrace Trace;
  std::string Path;

  SampleSetup() {
    B = workloads::generateBenchmark(
        workloads::scaledSpec(*workloads::findSpec("gzip"), 0.2));
    Trace = core::BlockTrace::record(B.Ref);
    Path = (std::filesystem::temp_directory_path() /
            "tpdbt_micro_sample.trace")
               .string();
    writeTextFile(Path, Trace.serializeSegmented(core::DefaultSegmentEvents));
  }

  static SampleSetup &instance() {
    static SampleSetup S;
    return S;
  }
};

// The trace-warm exact sweep as core/Experiment pays it when the .prof
// layer is cold: load the container (decompressing every segment), then
// replay every threshold from the event words. The sampled path below
// answers the same sweep off the same file while leaving the unsampled
// payload compressed on disk — that skipped decompression is the win
// being measured.
void BM_ExactWarmSweep(benchmark::State &State) {
  SampleSetup &S = SampleSetup::instance();
  for (auto _ : State) {
    core::SegmentedTraceReader Reader;
    core::BlockTrace Trace;
    std::string Error;
    if (!core::SegmentedTraceReader::open(S.Path, Reader, &Error) ||
        !core::BlockTrace::decode(Reader, Trace, &Error)) {
      State.SkipWithError(Error.c_str());
      return;
    }
    core::SweepResult R = core::replaySweep(
        Trace, S.B.Ref, core::paperThresholds(), dbt::DbtOptions(), 1);
    benchmark::DoNotOptimize(R.PerThreshold.data());
  }
}
BENCHMARK(BM_ExactWarmSweep)->Unit(benchmark::kMillisecond);

void BM_SampledSweep(benchmark::State &State) {
  SampleSetup &S = SampleSetup::instance();
  sample::SampleConfig Cfg;
  Cfg.Kind = sample::SampleConfig::Mode::Stratified;
  Cfg.BudgetFrac = 0.25;
  const cfg::Cfg G(S.B.Ref);
  double SampledFrac = 0.0;
  for (auto _ : State) {
    core::SegmentedTraceReader Reader;
    std::string Error;
    if (!core::SegmentedTraceReader::open(S.Path, Reader, &Error)) {
      State.SkipWithError(Error.c_str());
      return;
    }
    sample::SampledSweep Out;
    if (!sample::sampledSweep(Reader, S.B.Ref, G, core::paperThresholds(),
                              dbt::DbtOptions(), Cfg, Cfg.Seed, 1, Out,
                              &Error)) {
      State.SkipWithError(Error.c_str());
      return;
    }
    benchmark::DoNotOptimize(Out.PerThreshold.data());
    SampledFrac = Out.Stats.sampledFraction();
  }
  State.counters["sampled_frac"] = SampledFrac;
}
BENCHMARK(BM_SampledSweep)->Unit(benchmark::kMillisecond);

// The coverage-study loop core/Experiment runs: eight sample seeds over
// one trace store, each a fresh ExperimentContext sampling the same warm
// scale-0.2 entry (recorded once, untimed, into its own cache dir). Each
// iteration starts a new store, so it pays every distinct drawn segment's
// decode once and then reuses the store's segment-profile memo for the
// segments later seeds draw again.
void BM_SampledSweepSeeds(benchmark::State &State) {
  core::ExperimentConfig C;
  C.Scale = 0.2;
  C.Jobs = 1;
  C.CacheDir = (std::filesystem::temp_directory_path() /
                "tpdbt_micro_sample_seeds")
                   .string();
  C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  C.Sample.BudgetFrac = 0.25;
  std::filesystem::remove_all(C.CacheDir);
  {
    core::ExperimentContext Warm(C); // records gzip's traces
    (void)Warm.sampled("gzip");
  }
  uint64_t Draws = 0;
  for (auto _ : State) {
    auto Traces = std::make_shared<core::TraceCache>(C.CacheDir);
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      core::ExperimentConfig Seeded = C;
      Seeded.Sample.Seed = Seed;
      core::ExperimentContext Ctx(Seeded, Traces);
      const core::SampledProfiles *SP = Ctx.sampled("gzip");
      benchmark::DoNotOptimize(SP);
    }
    Draws = Traces->stats().SampleSegmentsDecoded.load();
    State.counters["memoized_segments"] =
        static_cast<double>(Traces->memoizedSegments());
  }
  State.counters["drawn_segments"] = static_cast<double>(Draws);
  std::filesystem::remove_all(C.CacheDir);
}
BENCHMARK(BM_SampledSweepSeeds)->Unit(benchmark::kMillisecond);

// One seed of the sampled figure suite, as the coverage-study loop pays
// it: a fresh stratified context warms all 26 programs over a warm trace
// store on two workers (the sampled sweeps and each benchmark's metric
// table), then builds the 11 registry figures. The scale-0.05 traces are
// recorded once, untimed, into their own cache dir; the store, and so its
// segment-profile memo, stays warm across iterations.
void BM_SampledFigures(benchmark::State &State) {
  core::ExperimentConfig C;
  C.Scale = 0.05;
  C.Jobs = 2;
  C.CacheDir = (std::filesystem::temp_directory_path() /
                "tpdbt_micro_sample_figures")
                   .string();
  std::filesystem::remove_all(C.CacheDir);
  std::vector<std::string> Names;
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite())
    Names.push_back(Spec.Name);
  {
    core::ExperimentContext Warm(C); // records every program's traces
    Warm.warmUp(Names);
  }
  C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  C.Sample.BudgetFrac = 0.25;
  auto Traces = std::make_shared<core::TraceCache>(C.CacheDir);
  for (auto _ : State) {
    core::ExperimentContext Ctx(C, Traces);
    Ctx.warmUp(Names);
    for (const core::FigureSpec &F : core::figureRegistry()) {
      Table T = F.Build(Ctx);
      benchmark::DoNotOptimize(T);
    }
  }
  std::filesystem::remove_all(C.CacheDir);
}
BENCHMARK(BM_SampledFigures)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
