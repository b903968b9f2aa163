//===- bench/FigureBenchMain.h - Shared figure-bench driver -----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared main() body for the per-figure bench binaries: builds the
/// experiment context from the environment (TPDBT_SCALE, TPDBT_CACHE_DIR),
/// prints the figure's series as a table, and drops a CSV under
/// tpdbt_results/ for EXPERIMENTS.md.
///
/// Figure binaries resolve their builder through core::figureRegistry(),
/// the same table the sweep daemon serves REQUEST(figure) from, so the
/// name printed by --list here is exactly the name tpdbt-sweep accepts.
/// handleBenchArgs() is the shared argv path for every bench binary
/// (figures, ablations, extensions): --help and --list are handled
/// uniformly and unknown arguments are an error instead of being
/// silently ignored.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_BENCH_FIGUREBENCHMAIN_H
#define TPDBT_BENCH_FIGUREBENCHMAIN_H

#include "core/Experiment.h"
#include "workloads/BenchSpec.h"
#include "core/Figures.h"
#include "support/Table.h"
#include "support/TextFile.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <string>

namespace tpdbt {
namespace bench {

/// Shared argv handling for the figure/ablation/extension binaries.
/// Returns -1 when the bench should proceed, otherwise the process exit
/// code (--help / --list exit 0; an unknown argument exits 2).
inline int handleBenchArgs(int argc, char **argv, const std::string &Name,
                           const std::string &Description) {
  for (int I = 1; I < argc; ++I) {
    const std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h") {
      std::printf(
          "usage: %s [--help] [--list]\n\n  %s\n\n"
          "Environment knobs:\n"
          "  TPDBT_SCALE            workload scale factor (default 1.0)\n"
          "  TPDBT_CACHE_DIR        snapshot/trace cache directory "
          "(default ./tpdbt_cache; 'off' disables)\n"
          "  TPDBT_CACHE_MAX_BYTES  trace-store size bound, LRU-evicted "
          "(unset/0 = unbounded)\n"
          "  TPDBT_JOBS             worker threads for per-benchmark "
          "sweeps\n"
          "  TPDBT_SEGMENT_EVENTS   events per trace segment "
          "(default 65536, min 256; unset/0 = default)\n"
          "  TPDBT_SAMPLE_MODE      'stratified' estimates the sweep from "
          "a segment sample with 95%% CIs (default off = exact)\n"
          "  TPDBT_SAMPLE_BUDGET    sampled fraction of segments in (0,1] "
          "(default 0.25)\n"
          "  TPDBT_SAMPLE_SEED      sampling seed (default 0x5eed)\n",
          Name.c_str(), Description.c_str());
      return 0;
    }
    if (Arg == "--list") {
      for (const core::FigureSpec &F : core::figureRegistry())
        std::printf("%-24s %s\n", F.Name, F.Description);
      return 0;
    }
    std::fprintf(stderr, "%s: unknown argument '%s' (try --help)\n",
                 Name.c_str(), Arg.c_str());
    return 2;
  }
  return -1;
}

/// Runs the registry figure named \p Name: prints its table, the sweep
/// stats banner, and drops tpdbt_results/<Name>.csv.
inline int runFigureBench(int argc, char **argv, const std::string &Name) {
  const core::FigureSpec *Spec = core::findFigure(Name);
  assert(Spec && "figure binary not present in core::figureRegistry()");
  if (int Code = handleBenchArgs(argc, argv, Name, Spec->Description);
      Code >= 0)
    return Code;

  core::ExperimentConfig Config = core::ExperimentConfig::fromEnv();
  std::printf("tpdbt figure bench: scale=%.3f cache=%s jobs=%u\n",
              Config.Scale,
              Config.CacheDir.empty() ? "off" : Config.CacheDir.c_str(),
              Config.effectiveJobs());
  core::ExperimentContext Ctx(std::move(Config));

  // Pay the one-time suite interpretation across TPDBT_JOBS workers.
  std::vector<std::string> All = workloads::intBenchmarkNames();
  for (const std::string &N : workloads::fpBenchmarkNames())
    All.push_back(N);
  auto WarmStart = std::chrono::steady_clock::now();
  Ctx.warmUp(All);
  auto WarmEnd = std::chrono::steady_clock::now();
  double WarmSecs =
      std::chrono::duration<double>(WarmEnd - WarmStart).count();

  auto Start = std::chrono::steady_clock::now();
  Table T = Spec->Build(Ctx);
  auto End = std::chrono::steady_clock::now();
  double Secs = std::chrono::duration<double>(End - Start).count();

  std::printf("%s", T.toText().c_str());
  std::printf("tpdbt sweeps: %s, warm-up wall %.1fs\n",
              Ctx.statsSummary().c_str(), WarmSecs);
  std::printf("(computed in %.1fs)\n", Secs);

  if (ensureDirectory("tpdbt_results"))
    writeTextFile("tpdbt_results/" + Name + ".csv", T.toCsv());
  return 0;
}

} // namespace bench
} // namespace tpdbt

#endif // TPDBT_BENCH_FIGUREBENCHMAIN_H
