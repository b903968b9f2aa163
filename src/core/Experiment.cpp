//===- core/Experiment.cpp - Cached experiment context ---------------------===//

#include "core/Experiment.h"

#include "analysis/Metrics.h"
#include "analysis/OfflineRegions.h"
#include "core/TraceSegments.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "support/ThreadPool.h"
#include "workloads/BenchSpec.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::workloads;

const std::vector<uint64_t> &tpdbt::core::paperThresholds() {
  static const std::vector<uint64_t> T = {100,   200,   500,    1000,
                                          2000,  5000,  10000,  20000,
                                          40000, 80000, 160000, 1000000,
                                          4000000};
  return T;
}

const std::vector<uint64_t> &tpdbt::core::performanceThresholds() {
  static const std::vector<uint64_t> T = [] {
    std::vector<uint64_t> All = {1, 50};
    for (uint64_t V : paperThresholds())
      All.push_back(V);
    return All;
  }();
  return T;
}

ExperimentConfig::ExperimentConfig() : Thresholds(performanceThresholds()) {}

ExperimentConfig ExperimentConfig::fromEnv() {
  ExperimentConfig C;
  if (const char *S = std::getenv("TPDBT_SCALE")) {
    double V = std::atof(S);
    if (V > 0.0)
      C.Scale = V;
  }
  if (const char *Dir = std::getenv("TPDBT_CACHE_DIR")) {
    if (std::strcmp(Dir, "off") == 0)
      C.CacheDir.clear();
    else
      C.CacheDir = Dir;
  }
  if (const char *Jobs = std::getenv("TPDBT_JOBS")) {
    int V = std::atoi(Jobs);
    if (V > 0)
      C.Jobs = static_cast<unsigned>(V);
  }
  C.Sample = sample::SampleConfig::fromEnv();
  return C;
}

unsigned ExperimentConfig::effectiveJobs() const {
  return Jobs ? Jobs : ThreadPool::defaultThreads();
}

uint64_t ExperimentConfig::executionFingerprint() const {
  uint64_t H = 0x7bd8u; // execution-layer salt; bump on trace changes
  uint64_t ScaleBits;
  static_assert(sizeof(double) == sizeof(uint64_t));
  std::memcpy(&ScaleBits, &Scale, 8);
  return combineSeeds(H, ScaleBits);
}

uint64_t
ExperimentConfig::traceFingerprint(const workloads::BenchSpec &Spec) const {
  return combineSeeds(
      combineSeeds(executionFingerprint(), specFingerprint(Spec)),
      Spec.MaxBlockEvents);
}

uint64_t ExperimentConfig::policyFingerprint() const {
  uint64_t H = 0x7bd9u; // policy-layer salt; bump on snapshot changes
  for (uint64_t T : Thresholds)
    H = combineSeeds(H, T);
  H = combineSeeds(H, Dbt.PoolLimit);
  uint64_t MinProbBits;
  std::memcpy(&MinProbBits, &Dbt.Formation.MinBranchProb, 8);
  H = combineSeeds(H, MinProbBits);
  H = combineSeeds(H, Dbt.Formation.MaxRegionBlocks);
  H = combineSeeds(H, Dbt.Formation.EnableDiamonds ? 1 : 0);
  H = combineSeeds(H, Dbt.Formation.AllowDuplication ? 1 : 0);
  H = combineSeeds(H, Dbt.Cost.ColdPerInst);
  H = combineSeeds(H, Dbt.Cost.ProfilePerBlock);
  H = combineSeeds(H, Dbt.Cost.OptPerInst);
  H = combineSeeds(H, Dbt.Cost.OptOffTracePerInst);
  H = combineSeeds(H, Dbt.Cost.SideExitPenalty);
  H = combineSeeds(H, Dbt.Cost.LoopExitPenalty);
  H = combineSeeds(H, Dbt.Cost.OptimizePerInst);
  H = combineSeeds(H, Dbt.Adaptive.Enabled ? 1 : 0);
  H = combineSeeds(H, Dbt.Adaptive.MinEntries);
  uint64_t MinCompletionBits;
  std::memcpy(&MinCompletionBits, &Dbt.Adaptive.MinCompletion, 8);
  H = combineSeeds(H, MinCompletionBits);
  H = combineSeeds(H, Dbt.Adaptive.MonitorLoops ? 1 : 0);
  H = combineSeeds(H,
                   static_cast<uint64_t>(Dbt.Adaptive.MaxRetranslations));
  return H;
}

uint64_t ExperimentConfig::fingerprint() const {
  // Jobs is deliberately excluded: the job count never changes results,
  // so caches stay valid across TPDBT_JOBS settings.
  return combineSeeds(executionFingerprint(), policyFingerprint());
}

namespace {

/// INIP(train): the profiling-only average of the training input, a
/// closed form of its stream totals \p T. The training program is the
/// reference one with another memory image, so \p G, the reference CFG,
/// is its CFG too.
profile::ProfileSnapshot trainAverage(const std::string &Name,
                                      const GeneratedBenchmark &B,
                                      const cfg::Cfg &G,
                                      const dbt::DbtOptions &Dbt,
                                      const TraceTotals &T) {
  profile::ProfileSnapshot S =
      dbt::profilingAverage(B.Train, G, Dbt, T.Final, T.NumEvents,
                            T.TakenEvents, T.TotalInsts);
  S.Benchmark = Name;
  S.Input = "train";
  return S;
}

/// \p C, refused when its policy is adaptive: every INIP snapshot is an
/// exact or sampled replay of the two-phase policy, and neither models a
/// frozen block thawing.
ExperimentConfig twoPhase(ExperimentConfig C) {
  if (C.Dbt.Adaptive.Enabled)
    throw std::invalid_argument(
        "experiment contexts do not support adaptive policies");
  return C;
}

} // namespace

ExperimentContext::ExperimentContext(ExperimentConfig Config)
    : Config(twoPhase(std::move(Config))),
      Traces(std::make_shared<TraceCache>(this->Config.CacheDir)) {}

ExperimentContext::ExperimentContext(ExperimentConfig Config,
                                     std::shared_ptr<TraceCache> Shared,
                                     ProfWriter *Writer)
    : Config(twoPhase(std::move(Config))), Traces(std::move(Shared)),
      Writer(Writer) {
  assert(Traces && "shared trace cache must not be null");
}

ExperimentContext::BenchData &
ExperimentContext::data(const std::string &Name) {
  BenchData *D;
  {
    std::lock_guard<std::mutex> Guard(DataLock);
    D = &Data[Name];
  }
  std::lock_guard<std::mutex> Guard(D->Lock);
  if (!D->Bench) {
    const BenchSpec *Spec = findSpec(Name);
    assert(Spec && "unknown benchmark name");
    BenchSpec Scaled =
        Config.Scale == 1.0 ? *Spec : scaledSpec(*Spec, Config.Scale);
    D->Bench = std::make_unique<GeneratedBenchmark>(generateBenchmark(Scaled));
    D->Graph = std::make_unique<cfg::Cfg>(D->Bench->Ref);
  }
  return *D;
}

const GeneratedBenchmark &
ExperimentContext::benchmark(const std::string &Name) {
  return *data(Name).Bench;
}

const cfg::Cfg &ExperimentContext::graph(const std::string &Name) {
  return *data(Name).Graph;
}

std::string ExperimentContext::cachePath(const std::string &Name,
                                         uint64_t SpecFp,
                                         const std::string &Input,
                                         uint64_t Threshold) const {
  uint64_t Fp = combineSeeds(Config.fingerprint(), SpecFp);
  return formatString("%s/%s.%s.T%llu.%016llx.prof", Config.CacheDir.c_str(),
                      Name.c_str(), Input.c_str(),
                      static_cast<unsigned long long>(Threshold),
                      static_cast<unsigned long long>(Fp));
}

bool ExperimentContext::loadCached(const std::string &Name, BenchData &D) {
  if (Config.CacheDir.empty())
    return false;
  uint64_t SpecFp = specFingerprint(D.Bench->Spec);
  auto LoadOne = [&](const std::string &Input, uint64_t T,
                     profile::ProfileSnapshot &Out) {
    auto Text = readTextFile(cachePath(Name, SpecFp, Input, T));
    if (!Text)
      return false;
    if (!profile::parseSnapshot(*Text, Out, nullptr)) {
      // Torn or corrupt entry: count it and recompute instead of failing.
      Stats.CorruptEntries.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  };
  auto LoadAll = [&] {
    for (uint64_t T : Config.Thresholds) {
      profile::ProfileSnapshot S;
      if (!LoadOne("ref", T, S))
        return false;
      D.Inips[T] = std::move(S);
    }
    if (!LoadOne("ref", 0, D.Avep))
      return false;
    if (!LoadOne("train", 0, D.Train))
      return false;
    return true;
  };
  if (LoadAll())
    return true;
  // Leave no partially-loaded state behind for the recomputation path.
  D.Inips.clear();
  D.Avep = profile::ProfileSnapshot();
  D.Train = profile::ProfileSnapshot();
  return false;
}

void ExperimentContext::storeCached(const std::string &Name,
                                    const BenchData &D) const {
  if (Config.CacheDir.empty())
    return;
  if (!ensureDirectory(Config.CacheDir))
    return;
  uint64_t SpecFp = specFingerprint(D.Bench->Spec);
  // Formatting stays on this thread either way; with a writer, creating
  // the files does not.
  ProfWriter::Batch Files;
  auto Store = [&](const std::string &Input, uint64_t T,
                   const profile::ProfileSnapshot &S) {
    std::string Path = cachePath(Name, SpecFp, Input, T);
    if (Writer)
      Files.emplace_back(std::move(Path), profile::printSnapshot(S));
    else
      writeTextFileAtomic(Path, profile::printSnapshot(S));
  };
  for (const auto &[T, S] : D.Inips)
    Store("ref", T, S);
  Store("ref", 0, D.Avep);
  Store("train", 0, D.Train);
  if (Writer)
    Writer->submit(std::move(Files));
}

void ExperimentContext::ensureProfiles(const std::string &Name,
                                       BenchData &D, unsigned ReplayJobs) {
  if (D.ProfilesReady.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Guard(D.Lock);
  if (D.ProfilesReady.load(std::memory_order_relaxed))
    return; // another worker finished while we waited on the lock
  if (sampling()) {
    ensureEstimates(Name, D, ReplayJobs);
  } else if (loadCached(Name, D)) {
    Stats.CacheHits.fetch_add(1, std::memory_order_relaxed);
  } else {
    Stats.CacheMisses.fetch_add(1, std::memory_order_relaxed);
    replayProfiles(Name, D, ReplayJobs);
    storeCached(Name, D);
  }
  fillMetrics(D);
  D.ProfilesReady.store(true, std::memory_order_release);
}

void ExperimentContext::replayProfiles(const std::string &Name,
                                       BenchData &D, unsigned ReplayJobs) {
  const GeneratedBenchmark &B = *D.Bench;
  const uint64_t MaxBlocks = B.Spec.MaxBlockEvents;
  // Trace-first: fetch (or record once) the execution's event stream, then
  // derive every profile by replay.
  const uint64_t ExecFp = Config.traceFingerprint(B.Spec);

  {
    std::shared_ptr<const BlockTrace> RefTrace =
        Traces->get(Name, "ref", ExecFp, B.Ref, MaxBlocks);
    auto T0 = std::chrono::steady_clock::now();
    SweepResult RefSweep =
        replaySweep(*RefTrace, B.Ref, Config.Thresholds, Config.Dbt,
                    ReplayJobs);
    auto T1 = std::chrono::steady_clock::now();
    Stats.ReplayMicros.fetch_add(
        std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
            .count(),
        std::memory_order_relaxed);
    for (size_t I = 0; I < Config.Thresholds.size(); ++I) {
      profile::ProfileSnapshot &S = RefSweep.PerThreshold[I];
      S.Benchmark = Name;
      S.Input = "ref";
      D.Inips[Config.Thresholds[I]] = std::move(S);
    }
    RefSweep.Average.Benchmark = Name;
    RefSweep.Average.Input = "ref";
    D.Avep = std::move(RefSweep.Average);
  } // the ref trace is released before the train lookup

  // Training input: only the profiling-only average is needed, in either
  // mode. A warm entry is verified segment by segment and never held as a
  // trace.
  D.Train = trainAverage(
      Name, B, *D.Graph, Config.Dbt,
      Traces->totals(Name, "train", ExecFp, B.Train, MaxBlocks));
  Stats.SweepsRun.fetch_add(2, std::memory_order_relaxed);
}

void ExperimentContext::fillMetrics(BenchData &D) const {
  const std::vector<uint64_t> &Ts = Config.Thresholds;
  const cfg::Cfg &G = *D.Graph;
  MetricTable &M = D.Metrics;
  M.NumThresholds = Ts.size();
  M.NumGroups = D.Sampled ? D.Sampled->Replicates.size() : 0;
  M.Points.resize(NumMetricKinds * M.NumThresholds);
  M.Replicates.resize(NumMetricKinds * M.NumGroups * M.NumThresholds);
  // One metric pass per snapshot; its kinds land \p KindStride cells
  // apart from \p Cell.
  auto Store = [&](double *Cell, size_t KindStride,
                   const profile::ProfileSnapshot &Pred) {
    const analysis::AccuracyMetrics A =
        analysis::accuracyMetrics(Pred, D.Avep, G);
    const double Values[NumMetricKinds] = {A.SdBp, A.BpMismatch, A.SdCp,
                                           A.SdLp, A.LpMismatch}; // by kind
    for (size_t K = 0; K < NumMetricKinds; ++K)
      Cell[K * KindStride] = Values[K];
  };
  for (size_t T = 0; T < M.NumThresholds; ++T)
    Store(&M.Points[T], M.NumThresholds, D.Inips.at(Ts[T]));
  for (size_t Gr = 0; Gr < M.NumGroups; ++Gr)
    for (size_t T = 0; T < M.NumThresholds; ++T)
      Store(&M.Replicates[Gr * M.NumThresholds + T],
            M.NumGroups * M.NumThresholds, D.Sampled->Replicates[Gr][T]);
  // Region metrics of the training profile need regions, which
  // profiling-only runs lack: form them offline once (see metricTrain).
  // Forming regions leaves the block counters, all the branch metrics
  // read, as they are.
  Store(M.Train.data(), 1,
        analysis::withOfflineRegions(D.Train, G, Config.Dbt.Formation,
                                     /*MinUse=*/2000));
}

bool ExperimentContext::sampling() const { return Config.Sample.enabled(); }

void ExperimentContext::ensureEstimates(const std::string &Name,
                                        BenchData &D, unsigned ReplayJobs) {
  const GeneratedBenchmark &B = *D.Bench;
  const uint64_t MaxBlocks = B.Spec.MaxBlockEvents;
  const uint64_t ExecFp = Config.traceFingerprint(B.Spec);
  // Per-benchmark seed: figure suites stay deterministic while different
  // benchmarks draw independent samples.
  const uint64_t BenchSeed =
      combineSeeds(Config.Sample.Seed, specFingerprint(B.Spec));

  // Reference input: estimate the whole threshold sweep from a stratified
  // segment sample of the TPDT v4 container. Disk-first — a warm entry
  // streams its directory and only the drawn segments, so the unsampled
  // payload is never decompressed (the out-of-core win). A cold (or
  // corrupt) entry records through the shared cache, which writes the
  // entry that is then re-opened; without a disk layer (or when the
  // entry is gone again, say evicted) the recording is serialized at the
  // writer's segment budget and read from memory. Cold, warm and diskless
  // runs read the same container bytes and draw the identical sample.
  sample::SampledSweep Sweep;
  std::string Error;
  auto sweepRef = [&](SegmentedTraceReader &Reader) {
    return sample::sampledSweep(Reader, B.Ref, *D.Graph, Config.Thresholds,
                                Config.Dbt, Config.Sample, BenchSeed,
                                ReplayJobs, Sweep, &Error);
  };
  auto sweepEntry = [&] {
    SegmentedTraceReader Reader;
    return Traces->openSegmented(Name, "ref", ExecFp, B.Ref, Reader,
                                 nullptr) &&
           sweepRef(Reader);
  };
  bool Ok = sweepEntry();
  if (!Ok) {
    std::shared_ptr<const BlockTrace> Trace =
        Traces->get(Name, "ref", ExecFp, B.Ref, MaxBlocks);
    Ok = sweepEntry();
    if (!Ok) {
      SegmentedTraceReader Reader;
      Ok = SegmentedTraceReader::openBytes(
               Trace->serializeSegmented(segmentEventBudget()), Reader,
               &Error) &&
           sweepRef(Reader);
    }
  }
  assert(Ok && "sampled sweep cannot fail on a recorded trace");
  (void)Ok;
  Traces->noteSampleReplay(Sweep.Stats.Decoded,
                           Sweep.Stats.Segments - Sweep.Stats.Decoded);

  for (size_t I = 0; I < Config.Thresholds.size(); ++I) {
    profile::ProfileSnapshot &S = Sweep.PerThreshold[I];
    S.Benchmark = Name;
    S.Input = "ref";
    D.Inips[Config.Thresholds[I]] = std::move(S);
  }
  Sweep.Average.Benchmark = Name;
  Sweep.Average.Input = "ref";
  D.Avep = std::move(Sweep.Average);
  D.Sampled = std::make_unique<SampledProfiles>();
  D.Sampled->Replicates = std::move(Sweep.Replicates);
  D.Sampled->Stats = Sweep.Stats;

  // Training input: only the profiling-only average is needed, exact from
  // stream totals. Here, and only here, a warm v4 entry answers from its
  // header's counter table without decoding a segment: the table passed
  // parseSegmentedHeader()'s sum checks but not the event fold, and
  // verifying it (TraceCache::totals) would decode the whole train trace
  // again for every sample seed. A cold entry records through totals().
  {
    SegmentedTraceReader Reader;
    if (Traces->openSegmented(Name, "train", ExecFp, B.Train, Reader,
                              nullptr)) {
      D.Train = trainAverage(Name, B, *D.Graph, Config.Dbt,
                             Reader.header().totals());
      Traces->noteSampleReplay(0, Reader.numSegments());
    } else {
      D.Train = trainAverage(
          Name, B, *D.Graph, Config.Dbt,
          Traces->totals(Name, "train", ExecFp, B.Train, MaxBlocks));
    }
  }

  Stats.SweepsRun.fetch_add(2, std::memory_order_relaxed);
  Stats.SampleStrata.fetch_add(D.Sampled->Stats.Strata,
                               std::memory_order_relaxed);
}

const MetricTable &ExperimentContext::metrics(const std::string &Name) {
  BenchData &D = data(Name);
  ensureProfiles(Name, D, Config.effectiveJobs());
  return D.Metrics;
}

const SampledProfiles *ExperimentContext::sampled(const std::string &Name) {
  if (!sampling())
    return nullptr;
  BenchData &D = data(Name);
  ensureProfiles(Name, D, Config.effectiveJobs());
  return D.Sampled.get();
}

void ExperimentContext::noteHalfWidth(double RelativeHalf) {
  if (!(RelativeHalf > 0.0))
    return;
  uint64_t Bits;
  std::memcpy(&Bits, &RelativeHalf, 8);
  uint64_t Cur = Stats.MaxHalfWidthBits.load(std::memory_order_relaxed);
  for (;;) {
    double CurVal;
    std::memcpy(&CurVal, &Cur, 8);
    if (RelativeHalf <= CurVal)
      return;
    if (Stats.MaxHalfWidthBits.compare_exchange_weak(
            Cur, Bits, std::memory_order_relaxed))
      return;
  }
}

double ExperimentContext::maxHalfWidth() const {
  uint64_t Bits = Stats.MaxHalfWidthBits.load(std::memory_order_relaxed);
  double V;
  std::memcpy(&V, &Bits, 8);
  return V;
}

const profile::ProfileSnapshot &
ExperimentContext::inip(const std::string &Name, uint64_t Threshold) {
  BenchData &D = data(Name);
  ensureProfiles(Name, D, Config.effectiveJobs());
  auto It = D.Inips.find(Threshold);
  assert(It != D.Inips.end() &&
         "threshold not part of the configured sweep");
  return It->second;
}

const profile::ProfileSnapshot &
ExperimentContext::avep(const std::string &Name) {
  BenchData &D = data(Name);
  ensureProfiles(Name, D, Config.effectiveJobs());
  return D.Avep;
}

const profile::ProfileSnapshot &
ExperimentContext::train(const std::string &Name) {
  BenchData &D = data(Name);
  ensureProfiles(Name, D, Config.effectiveJobs());
  return D.Train;
}

void ExperimentContext::warmUp(const std::vector<std::string> &Names,
                               unsigned Threads) {
  if (Threads == 0)
    Threads = Config.effectiveJobs();
  // With one worker per benchmark the per-threshold parallelism inside
  // replaySweep would only oversubscribe; hand it the workers instead
  // when the warm-up itself is serial.
  const unsigned ReplayJobs = Threads > 1 ? 1 : Config.effectiveJobs();
  parallelFor(Names.size(), Threads, [&](size_t I) {
    BenchData &D = data(Names[I]);
    ensureProfiles(Names[I], D, ReplayJobs);
  });
}

std::string ExperimentContext::statsSummary() const {
  const TraceCache::Counters &TC = Traces->stats();
  std::string Out = formatString(
      "jobs=%u prof %llu hit / %llu miss (%llu corrupt), trace %llu hit / "
      "%llu miss (%llu corrupt), %llu sweeps, %.1fs recording, "
      "%.1fs replaying, "
      "jit %llu units / %llu blk / %llu iter / %llu deopt / %llu flush "
      "(%.2fs compile), "
      "stream %llu rec / %llu seg (%.1fs work, %.1fs flush), "
      "evict %llu (%.1f MB)",
      Config.effectiveJobs(),
      static_cast<unsigned long long>(
          Stats.CacheHits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          Stats.CacheMisses.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          Stats.CorruptEntries.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(TC.hits()),
      static_cast<unsigned long long>(
          TC.Misses.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.CorruptEntries.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          Stats.SweepsRun.load(std::memory_order_relaxed)),
      static_cast<double>(
          TC.RecordMicros.load(std::memory_order_relaxed)) /
          1e6,
      static_cast<double>(
          Stats.ReplayMicros.load(std::memory_order_relaxed)) /
          1e6,
      static_cast<unsigned long long>(
          TC.JitUnits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.JitBlocks.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.JitLoopIters.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.JitDeopts.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.JitFlushes.load(std::memory_order_relaxed)),
      static_cast<double>(
          TC.JitCompileMicros.load(std::memory_order_relaxed)) /
          1e6,
      static_cast<unsigned long long>(
          TC.StreamedRecords.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          TC.SegmentsPiped.load(std::memory_order_relaxed)),
      static_cast<double>(
          TC.PipelineMicros.load(std::memory_order_relaxed)) /
          1e6,
      static_cast<double>(
          TC.FlushMicros.load(std::memory_order_relaxed)) /
          1e6,
      static_cast<unsigned long long>(
          TC.Evictions.load(std::memory_order_relaxed)),
      static_cast<double>(
          TC.EvictedBytes.load(std::memory_order_relaxed)) /
          (1024.0 * 1024.0));
  // Appended only in sampled mode so exact-mode banners stay
  // byte-identical to builds without the feature.
  if (sampling()) {
    const uint64_t Dec =
        TC.SampleSegmentsDecoded.load(std::memory_order_relaxed);
    const uint64_t Skip =
        TC.SampleSegmentsSkipped.load(std::memory_order_relaxed);
    Out += formatString(
        ", sample %llu strata, %llu/%llu seg decoded (budget %.0f%%), "
        "max ci ±%.2f%%",
        static_cast<unsigned long long>(
            Stats.SampleStrata.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(Dec),
        static_cast<unsigned long long>(Dec + Skip),
        Config.Sample.BudgetFrac * 100.0, maxHalfWidth() * 100.0);
  }
  return Out;
}
