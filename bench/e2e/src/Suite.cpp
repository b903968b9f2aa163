//===- bench/e2e/src/Suite.cpp - Figure-suite workloads --------------------===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
// The in-process workloads: the .prof-warm oracle, trace-cache set-up, one
// cold or trace-warm suite repetition, and one sampled repetition. A
// traced repetition replaces ExperimentContext's private sweep with a
// mirror of ExperimentContext::ensureProfiles built from the same public
// calls, so each layer can be timed from outside the library.
//
//===-----------------------------------------------------------------------===//

#include "E2e.h"
#include "Spans.h"

#include "cfg/Cfg.h"
#include "core/Experiment.h"
#include "core/Figures.h"
#include "core/Trace.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "support/ThreadPool.h"
#include "workloads/BenchSpec.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>

using namespace tpdbt;
using namespace tpdbt::e2e;
namespace fs = std::filesystem;

namespace {

using Metrics = std::map<std::string, double>;

/// suite-sampled: sample seeds per repetition, and the budget each uses.
constexpr uint64_t SampleSeeds = 32;
constexpr double SampleBudget = 0.25;

Json toJson(const Metrics &M) {
  Json J;
  for (const auto &[K, V] : M)
    J.add(K, V);
  return J;
}

core::ExperimentConfig suiteConfig(const Args &A) {
  core::ExperimentConfig C;
  C.Scale = A.num("scale");
  C.CacheDir = A.str("cache");
  C.Jobs = Jobs;
  return C;
}

/// Deletes every .prof snapshot in \p Dir; the trace store stays.
void dropProfiles(const std::string &Dir) {
  std::error_code EC;
  std::vector<fs::path> Doomed;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".prof")
      Doomed.push_back(E.path());
  for (const fs::path &P : Doomed)
    fs::remove(P, EC);
}

/// Builds every registry figure and renders it as CSV.
std::vector<std::string> buildFigures(core::ExperimentContext &Ctx,
                                      Tracer *Tr) {
  std::vector<std::string> Csv;
  for (const core::FigureSpec &F : core::figureRegistry()) {
    std::optional<Tracer::Scope> S;
    if (Tr)
      S.emplace(*Tr, "core.figures_build", 0);
    Csv.push_back(F.Build(Ctx).toCsv());
  }
  return Csv;
}

/// Failed golden comparisons of \p Csv (registry order) under \p Dir.
uint64_t compareFigures(const std::vector<std::string> &Csv,
                        const std::string &Dir) {
  uint64_t Failed = 0;
  const auto &Reg = core::figureRegistry();
  for (size_t I = 0; I < Reg.size(); ++I)
    if (!matchesGolden(Csv[I], Dir + "/" + Reg[I].Name + ".csv", Reg[I].Name))
      ++Failed;
  return Failed;
}

uint64_t load(const std::atomic<uint64_t> &A) {
  return A.load(std::memory_order_relaxed);
}

/// The per-layer counters the trace store owns, as named metrics.
void addTraceCounters(Metrics &M, const core::TraceCache::Counters &TC,
                      double BusyS, uint64_t EventsRecorded) {
  const double Chained = load(TC.HostChainedBlocks);
  const double Folded = load(TC.HostFoldedIters);
  const double JitExec = load(TC.JitBlocks) + load(TC.JitLoopIters);
  const double Decoded = load(TC.SampleSegmentsDecoded);
  const double Skipped = load(TC.SampleSegmentsSkipped);
  M["vm.record_frac"] = load(TC.RecordMicros) / 1e6 / BusyS;
  M["vm.host_chained_blocks"] = Chained;
  M["vm.host_folded_iters"] = Folded;
  M["vm.host_fallbacks"] = load(TC.HostFallbacks);
  M["vm.tier_coverage"] =
      EventsRecorded ? (Chained + Folded) / EventsRecorded : 0.0;
  M["jit.units"] = load(TC.JitUnits);
  M["jit.deopts"] = load(TC.JitDeopts);
  M["jit.deopt_ratio"] = JitExec > 0 ? load(TC.JitDeopts) / JitExec : 0.0;
  M["jit.compile_frac"] = load(TC.JitCompileMicros) / 1e6 / BusyS;
  M["core.pipeline_work_frac"] = load(TC.PipelineMicros) / 1e6 / BusyS;
  M["core.pipeline_flush_frac"] = load(TC.FlushMicros) / 1e6 / BusyS;
  M["core.segments_piped"] = load(TC.SegmentsPiped);
  M["core.trace_misses"] = load(TC.Misses);
  M["core.trace_disk_hits"] = load(TC.DiskHits);
  M["core.trace_mem_hits"] = load(TC.MemoryHits);
  M["core.index_hits"] = load(TC.IndexHits);
  M["core.index_builds"] = load(TC.IndexBuilds);
  M["sample.disk_opens"] = load(TC.SampleDiskOpens);
  M["sample.segments_decoded"] = Decoded;
  M["sample.segments_skipped"] = Skipped;
  M["sample.decoded_frac"] =
      Decoded + Skipped > 0 ? Decoded / (Decoded + Skipped) : 0.0;
}

/// Self-time shares of the traced layers, plus the harness totals.
void addLayerShares(Metrics &M, const Tracer &Tr,
                    const std::vector<std::string> &BusyRoots) {
  const auto Layers = Tr.layers();
  double Busy = 0.0, Unattributed = 0.0;
  for (const std::string &Root : BusyRoots) {
    auto It = Layers.find(Root);
    if (It == Layers.end())
      continue;
    Busy += It->second.TotalS;
    if (Root.rfind("harness.", 0) == 0)
      Unattributed += It->second.SelfS;
  }
  for (const auto &[Name, L] : Layers) {
    if (Name.rfind("harness.", 0) == 0)
      continue;
    if (Name == "core.replay")
      M["core.replay_calls"] = static_cast<double>(L.Count);
    M[Name + "_frac"] = L.SelfS / Busy;
  }
  M["harness.busy_s"] = Busy;
  M["harness.unattributed_frac"] = Unattributed / Busy;
}

void emit(const Json &J) { std::printf("%s\n", J.str().c_str()); }

/// ExperimentContext::ensureProfiles for one program, rebuilt from public
/// calls with a span around each. Writes the .prof snapshots at the paths
/// docs/CACHE_FORMAT.md documents, so a fresh context loads them. It copies
/// the library's fingerprint, .prof path and index rules, so it must follow
/// any change to them until the library exposes its own per-layer timers.
void mirrorProgram(Tracer &Tr, core::TraceCache &Traces,
                   const core::ExperimentConfig &C, const std::string &Name,
                   uint64_t Req, std::atomic<uint64_t> &EventsRecorded) {
  Tracer::Scope Task(Tr, "harness.program", Req);
  const workloads::BenchSpec *Spec = workloads::findSpec(Name);
  const workloads::GeneratedBenchmark B = [&] {
    Tracer::Scope S(Tr, "workloads.generate", Req);
    return workloads::generateBenchmark(
        C.Scale == 1.0 ? *Spec : workloads::scaledSpec(*Spec, C.Scale));
  }();
  {
    Tracer::Scope S(Tr, "cfg.build", Req);
    cfg::Cfg Graph(B.Ref);
  }
  const uint64_t SpecFp = workloads::specFingerprint(B.Spec);
  const uint64_t MaxBlocks = B.Spec.MaxBlockEvents;
  const uint64_t ExecFp = combineSeeds(
      combineSeeds(C.executionFingerprint(), SpecFp), MaxBlocks);

  auto Sweep = [&](const std::string &Input, const guest::Program &P,
                   const std::vector<uint64_t> &Thresholds,
                   std::shared_ptr<const core::BlockTrace> &T) {
    const bool Warm = fs::exists(Traces.entryPath(Name, Input, ExecFp));
    {
      Tracer::Scope S(Tr, Warm ? "core.trace_get_hit" : "core.trace_get_miss",
                      Req);
      T = Traces.get(Name, Input, ExecFp, P, MaxBlocks);
    }
    if (!Warm)
      EventsRecorded.fetch_add(T->numEvents());
    if (!C.Dbt.Adaptive.Enabled && !T->sharedIndex()) {
      Tracer::Scope S(Tr, "core.index", Req);
      const Clock::time_point I0 = Clock::now();
      T->index();
      Traces.noteIndexBuild(static_cast<uint64_t>(
          secondsBetween(I0, Clock::now()) * 1e6));
    }
    Tracer::Scope S(Tr, "core.replay", Req);
    return core::replaySweep(*T, P, Thresholds, C.Dbt, 1);
  };
  std::shared_ptr<const core::BlockTrace> RefTrace, TrainTrace;
  core::SweepResult Ref = Sweep("ref", B.Ref, C.Thresholds, RefTrace);
  core::SweepResult Train = Sweep("train", B.Train, {}, TrainTrace);

  Tracer::Scope S(Tr, "profile.store", Req);
  ensureDirectory(C.CacheDir);
  const uint64_t Fp = combineSeeds(C.fingerprint(), SpecFp);
  auto Store = [&](const char *Input, uint64_t T,
                   profile::ProfileSnapshot &Snap) {
    Snap.Benchmark = Name;
    Snap.Input = Input;
    writeTextFileAtomic(
        formatString("%s/%s.%s.T%llu.%016llx.prof", C.CacheDir.c_str(),
                     Name.c_str(), Input, static_cast<unsigned long long>(T),
                     static_cast<unsigned long long>(Fp)),
        profile::printSnapshot(Snap));
  };
  for (size_t I = 0; I < C.Thresholds.size(); ++I)
    Store("ref", C.Thresholds[I], Ref.PerThreshold[I]);
  Store("ref", 0, Ref.Average);
  Store("train", 0, Train.Average);
}

} // namespace

int tpdbt::e2e::runOracle(const Args &A) {
  // --cache is a copy of the committed tpdbt_cache/ (scale 1.0, default
  // knobs), so a miss could never rewrite the tracked files.
  const fs::path Root = A.str("root");
  const fs::path Cache = A.str("cache");
  auto CountFiles = [&] {
    uint64_t N = 0;
    for ([[maybe_unused]] const fs::directory_entry &E :
         fs::directory_iterator(Cache))
      ++N;
    return N;
  };
  const uint64_t Before = CountFiles();
  core::ExperimentConfig C;
  C.CacheDir = Cache.string();
  C.Jobs = Jobs;
  core::ExperimentContext Ctx(C);
  Ctx.warmUp(suiteNames());
  const std::vector<std::string> Csv = buildFigures(Ctx, nullptr);

  // fig08 is compared against the golden copy: the committed
  // tpdbt_results/fig08_sd_bp.csv is a scale-0.05 output (README.md).
  uint64_t Failed = 0;
  const auto &Reg = core::figureRegistry();
  for (size_t I = 0; I < Reg.size(); ++I) {
    const std::string Name = Reg[I].Name;
    const fs::path Golden =
        Name == "fig08_sd_bp"
            ? fs::path(A.str("golden")) / "prof-warm" / (Name + ".csv")
            : Root / "tpdbt_results" / (Name + ".csv");
    if (!matchesGolden(Csv[I], Golden.string(), "prof-warm " + Name))
      ++Failed;
  }
  const size_t Names = suiteNames().size();
  Failed += !expect(load(Ctx.stats().CacheHits) == Names &&
                        load(Ctx.stats().CacheMisses) == 0,
                    "committed .prof cache hits every program");
  Failed += !expect(CountFiles() == Before, "prof-warm run wrote no files");
  emit(Json()
           .add("ok", Failed == 0)
           .add("attempted", static_cast<uint64_t>(Reg.size() + 2))
           .add("failed", Failed));
  return 0;
}

int tpdbt::e2e::runRecord(const Args &A) {
  const core::ExperimentConfig C = suiteConfig(A);
  core::ExperimentContext Ctx(C);
  Ctx.warmUp(suiteNames(), C.Jobs);
  dropProfiles(C.CacheDir);
  const uint64_t Failed = !expect(load(Ctx.traceStats().Misses) ==
                                      2 * suiteNames().size(),
                                  "set-up records every trace");
  emit(Json()
           .add("ok", Failed == 0)
           .add("attempted", static_cast<uint64_t>(1))
           .add("failed", Failed)
           .add("trace_bytes", traceStoreBytes(C.CacheDir)));
  return 0;
}

int tpdbt::e2e::runSuite(const Args &A) {
  const core::ExperimentConfig C = suiteConfig(A);
  const bool Cold = A.str("mode") == "cold";
  const bool Traced = A.has("trace");
  const std::string Golden = A.str("golden");
  // The figure binaries' order. A seeded order would make peak RSS
  // bimodal: it depends on whether the two longest recordings overlap.
  const std::vector<std::string> Order = suiteNames();
  const uint64_t Programs = Order.size();
  if (!Cold)
    dropProfiles(C.CacheDir);
  else if (fs::exists(C.CacheDir) && !fs::is_empty(C.CacheDir)) {
    std::fprintf(stderr, "tpdbt-e2e: cold cache dir is not empty\n");
    return 1;
  }

  uint64_t Failed = 0;
  std::vector<double> LatMs(Programs);
  std::vector<std::string> Csv;
  Metrics Layers;
  Tracer Tr;
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point T0 = Clock::now();
  if (!Traced) {
    // ExperimentContext::warmUp(Order, Jobs), one program per call so each
    // program's latency is visible. A one-name warmUp runs inline, and any
    // thread count above 1 gives it the single replay job the whole-list
    // call uses per program.
    core::ExperimentContext Ctx(C);
    parallelFor(Programs, C.Jobs, [&](size_t I) {
      const Clock::time_point S = Clock::now();
      Ctx.warmUp({Order[I]}, 2);
      LatMs[I] = secondsBetween(S, Clock::now()) * 1e3;
    });
    Csv = buildFigures(Ctx, nullptr);
    const core::TraceCache::Counters &TC = Ctx.traceStats();
    Failed += !expect(load(Ctx.stats().CacheMisses) == Programs,
                      "no .prof snapshot was present");
    if (Cold)
      Failed += !expect(load(TC.DiskHits) == 0 &&
                            load(TC.Misses) == 2 * Programs,
                        "cold run records every trace");
    else
      Failed += !expect(load(TC.Misses) == 0 &&
                            load(TC.DiskHits) == 2 * Programs &&
                            load(TC.HostChainedBlocks) == 0 &&
                            load(TC.JitUnits) == 0,
                        "trace-warm run records nothing");
  } else {
    auto Traces = std::make_shared<core::TraceCache>(C.CacheDir);
    std::atomic<uint64_t> Events{0};
    parallelFor(Programs, C.Jobs, [&](size_t I) {
      const Clock::time_point S = Clock::now();
      mirrorProgram(Tr, *Traces, C, Order[I], I, Events);
      LatMs[I] = secondsBetween(S, Clock::now()) * 1e3;
    });
    core::ExperimentContext Fresh(C);
    {
      Tracer::Scope S(Tr, "profile.load", 0);
      Fresh.warmUp(Order, C.Jobs);
    }
    Csv = buildFigures(Fresh, &Tr);
    Failed += !expect(load(Fresh.stats().CacheHits) == Programs,
                      "a fresh context loads every mirrored .prof");
    const core::TraceCache::Counters &TC = Traces->stats();
    if (Cold)
      Failed += !expect(load(TC.DiskHits) == 0, "cold mirror hits no disk");
    else
      Failed += !expect(load(TC.Misses) == 0 && load(TC.JitUnits) == 0,
                        "trace-warm mirror records nothing");
    addLayerShares(Layers, Tr,
                   {"harness.program", "profile.load", "core.figures_build"});
    addTraceCounters(Layers, TC, Layers["harness.busy_s"], Events.load());
    Layers["core.prof_hits"] = load(Fresh.stats().CacheHits);
    Layers["core.prof_misses"] = load(Fresh.stats().CacheMisses);
    const uint64_t TraceBytes = Cold ? traceStoreBytes(C.CacheDir) : 0;
    Layers["core.trace_bytes"] = static_cast<double>(TraceBytes);
    Layers["core.bytes_per_event"] =
        Events.load() ? static_cast<double>(TraceBytes) / Events.load() : 0.0;
  }
  const double Wall = secondsBetween(T0, Clock::now());
  const double Cpu = processCpuSeconds() - Cpu0;
  Failed += compareFigures(Csv, Golden);

  Json J;
  J.add("ok", Failed == 0)
      .add("attempted", Programs + Csv.size())
      .add("failed", Failed)
      .add("wall_s", Wall)
      .add("cpu_s", Cpu)
      .add("peak_rss_mb", peakRssMb())
      .add("trace_bytes", traceStoreBytes(C.CacheDir))
      .add("lat_ms", LatMs);
  if (Traced) {
    J.add("layers", toJson(Layers));
    Tr.writeChrome(A.str("trace"));
    printLayerTable(Tr, Layers["harness.busy_s"],
                    Cold ? "suite-cold" : "suite-trace-warm");
  }
  emit(J);
  return 0;
}

namespace {

std::vector<std::vector<std::string>> parseCsv(const std::string &Text) {
  std::vector<std::vector<std::string>> Rows;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> Cells;
    std::istringstream L(Line);
    std::string Cell;
    while (std::getline(L, Cell, ','))
      Cells.push_back(Cell);
    Rows.push_back(std::move(Cells));
  }
  return Rows;
}

/// Checks that a sampled table has the exact table's rows and columns,
/// each value column followed by its _ci95 column, and counts the cells
/// whose interval covers the exact value.
bool checkSampled(const std::string &Sampled, const std::string &Exact,
                  uint64_t &Covered, uint64_t &Cells) {
  const auto S = parseCsv(Sampled), E = parseCsv(Exact);
  if (S.size() != E.size() || E.empty())
    return false;
  for (size_t R = 0; R < E.size(); ++R) {
    if (S[R].size() != 2 * E[R].size() - 1 || S[R][0] != E[R][0])
      return false;
    for (size_t Col = 1; Col < E[R].size(); ++Col) {
      const std::string &Point = S[R][2 * Col - 1];
      const std::string &Half = S[R][2 * Col];
      if (R == 0) {
        if (Point != E[0][Col] || Half != E[0][Col] + "_ci95")
          return false;
        continue;
      }
      const double Gap = std::fabs(std::atof(Point.c_str()) -
                                   std::atof(E[R][Col].c_str()));
      ++Cells;
      Covered += Gap <= std::atof(Half.c_str()) + 1e-9;
    }
  }
  return true;
}

} // namespace

int tpdbt::e2e::runSampled(const Args &A) {
  const core::ExperimentConfig Base = suiteConfig(A);
  const bool Traced = A.has("trace");
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const std::string Golden = A.str("golden");
  const std::vector<std::string> Names = suiteNames();
  const auto &Reg = core::figureRegistry();
  std::vector<std::string> Exact;
  for (const core::FigureSpec &F : Reg)
    Exact.push_back(readTextFile(Golden + "/" + F.Name + ".csv").value_or(""));

  uint64_t Failed = 0, Covered = 0, Cells = 0;
  std::vector<double> LatMs;
  std::vector<std::string> Hashes;
  // Every seed's context reads through one trace store, whose counters
  // then cover the whole repetition.
  auto Traces = std::make_shared<core::TraceCache>(Base.CacheDir);
  Tracer Tr;
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point T0 = Clock::now();
  for (uint64_t K = 0; K < SampleSeeds; ++K) {
    const Clock::time_point S = Clock::now();
    std::optional<Tracer::Scope> Task;
    if (Traced)
      Task.emplace(Tr, "harness.seed", K);
    core::ExperimentConfig C = Base;
    C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
    C.Sample.BudgetFrac = SampleBudget;
    C.Sample.Seed = splitMix64(combineSeeds(Seed, K));
    core::ExperimentContext Ctx(C, Traces);
    {
      std::optional<Tracer::Scope> W;
      if (Traced)
        W.emplace(Tr, "sample.warmup", K);
      Ctx.warmUp(Names, C.Jobs);
    }
    const std::vector<std::string> Csv =
        buildFigures(Ctx, Traced ? &Tr : nullptr);
    Task.reset();
    LatMs.push_back(secondsBetween(S, Clock::now()) * 1e3);
    std::string All;
    for (size_t I = 0; I < Csv.size(); ++I) {
      All += Csv[I];
      if (!checkSampled(Csv[I], Exact[I], Covered, Cells)) {
        std::fprintf(stderr, "tpdbt-e2e: sampled %s does not match the "
                             "shape of its exact golden\n", Reg[I].Name);
        ++Failed;
      }
    }
    Hashes.push_back(hashHex(All));
    Failed += !expect(load(Traces->stats().Misses) == 0 &&
                          load(Ctx.stats().CacheHits) == 0,
                      "sampled run neither records nor reads .prof");
  }
  const double Wall = secondsBetween(T0, Clock::now());
  const double Cpu = processCpuSeconds() - Cpu0;

  Json J;
  J.add("ok", Failed == 0)
      .add("attempted", SampleSeeds * Reg.size())
      .add("failed", Failed)
      .add("wall_s", Wall)
      .add("cpu_s", Cpu)
      .add("peak_rss_mb", peakRssMb())
      .add("trace_bytes", traceStoreBytes(Base.CacheDir))
      .add("lat_ms", LatMs)
      .add("hashes", Hashes);
  if (Traced) {
    Metrics Layers;
    addLayerShares(Layers, Tr, {"harness.seed"});
    addTraceCounters(Layers, Traces->stats(), Layers["harness.busy_s"], 0);
    Layers["sample.ci_coverage"] =
        Cells ? static_cast<double>(Covered) / Cells : 0.0;
    J.add("layers", toJson(Layers));
    Tr.writeChrome(A.str("trace"));
    printLayerTable(Tr, Layers["harness.busy_s"], "suite-sampled");
  }
  emit(J);
  return 0;
}
