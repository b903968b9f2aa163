//===- core/Experiment.h - Cached experiment context ------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment driver shared by the bench harnesses and examples.
///
/// An ExperimentContext lazily generates each benchmark, runs its
/// reference-input sweep (INIP for every threshold + AVEP) and its
/// training-input profiling run (INIP(train)), and memoizes everything on
/// disk so the eleven figure binaries pay the interpretation cost once.
/// Once a benchmark's profiles are ready it also computes every figure
/// metric of that benchmark once (MetricTable), so figure builds only
/// read them.
///
/// The context is thread-safe: accessors may be called from any number of
/// threads, a per-benchmark guard ensures each sweep is interpreted at
/// most once per process, and cache snapshots are written atomically
/// (write-then-rename) so concurrent processes sharing TPDBT_CACHE_DIR
/// never observe torn files (see docs/CACHE_FORMAT.md). A corrupt or torn
/// cache entry falls back to recomputation instead of failing.
///
/// Environment knobs (read by ExperimentConfig::fromEnv):
///   TPDBT_SCALE      workload scale factor (default 1.0; e.g. 0.05 for a
///                    quick smoke run — figure shapes degrade below ~0.2)
///   TPDBT_CACHE_DIR  snapshot cache directory (default ./tpdbt_cache;
///                    set to "off" to disable caching)
///   TPDBT_JOBS       worker threads for per-benchmark sweeps (default:
///                    hardware concurrency; 1 restores the serial path)
///   TPDBT_SAMPLE_MODE    "stratified" switches INIP estimation to the
///                        sampled replay (src/sample): only a stratified
///                        sample of each trace's segments is decoded and
///                        every figure metric gains a 95% confidence
///                        interval. Default "off" = the exact path,
///                        byte-identical to a build without the feature.
///   TPDBT_SAMPLE_BUDGET  sampled fraction of segments in (0, 1]
///                        (default 0.25)
///   TPDBT_SAMPLE_SEED    sampling seed (default 0x5eed); results are a
///                        deterministic function of (trace, budget, seed)
///                        at any job count
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_CORE_EXPERIMENT_H
#define TPDBT_CORE_EXPERIMENT_H

#include "cfg/Cfg.h"
#include "core/ProfWriter.h"
#include "core/Runner.h"
#include "core/TraceCache.h"
#include "profile/Profile.h"
#include "sample/SampledReplay.h"
#include "workloads/Generator.h"

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpdbt {
namespace core {

/// The paper's retranslation-threshold sweep (Section 4): 100, 200, 500,
/// 1k, 2k, 5k, 10k, 20k, 40k, 80k, 160k, 1M, 4M.
const std::vector<uint64_t> &paperThresholds();

/// Figure 17 additionally measures T = 1 (the base) and T = 50.
const std::vector<uint64_t> &performanceThresholds();

/// Sweep configuration.
struct ExperimentConfig {
  double Scale = 1.0;
  /// Thresholds to simulate; defaults to performanceThresholds() so a
  /// single pass serves every figure.
  std::vector<uint64_t> Thresholds;
  dbt::DbtOptions Dbt;
  std::string CacheDir = "tpdbt_cache";
  /// Worker threads for parallel sweeps; 0 = hardware concurrency,
  /// 1 = serial. Never part of the cache fingerprint — results are
  /// identical at any job count.
  unsigned Jobs = 0;
  /// Approximate-replay configuration (TPDBT_SAMPLE_*). Deliberately
  /// excluded from every fingerprint: sampled runs never read or write
  /// .prof snapshots (estimates must not masquerade as exact results),
  /// and the .trace entries they share with exact runs are
  /// sample-agnostic.
  sample::SampleConfig Sample;

  ExperimentConfig();

  /// Applies TPDBT_SCALE / TPDBT_CACHE_DIR / TPDBT_JOBS.
  static ExperimentConfig fromEnv();

  /// The job count actually used (resolves Jobs == 0).
  unsigned effectiveJobs() const;

  /// Stable fingerprint of everything that affects results; part of the
  /// .prof cache key. Always combine(executionFingerprint(),
  /// policyFingerprint()).
  uint64_t fingerprint() const;

  /// Fingerprint of the configuration that shapes the *event stream* of a
  /// benchmark execution (currently the workload scale; traceFingerprint
  /// combines it with the spec fingerprint and event budget). Keys the
  /// .trace cache: configurations differing only in policy knobs share
  /// recordings.
  uint64_t executionFingerprint() const;

  /// The .trace cache key of an execution of \p Spec (either input):
  /// exactly what shapes its event stream — executionFingerprint(), the
  /// spec, and the spec's event budget — so re-running with different
  /// thresholds or cost knobs hits the trace layer and never
  /// re-interprets.
  uint64_t traceFingerprint(const workloads::BenchSpec &Spec) const;

  /// Fingerprint of the configuration consumed during replay only:
  /// thresholds, pool limit, region formation, cost model, and adaptive
  /// re-optimization. Changing any of these invalidates .prof entries but
  /// not .trace entries.
  uint64_t policyFingerprint() const;
};

/// Counters the context threads through its cache and sweep machinery so
/// the figure binaries can report where their wall clock went. All fields
/// are updated atomically and may be read while workers are running.
struct ExperimentStats {
  /// Benchmarks whose full profile set was loaded from the disk cache.
  std::atomic<uint64_t> CacheHits{0};
  /// Benchmarks that had to be interpreted (no usable cache entry).
  std::atomic<uint64_t> CacheMisses{0};
  /// Cache files that existed but failed to parse (torn/corrupt/stale
  /// format); each one downgrades its benchmark to a miss.
  std::atomic<uint64_t> CorruptEntries{0};
  /// Sweeps computed (two per missed benchmark: ref + train).
  std::atomic<uint64_t> SweepsRun{0};
  /// Wall-clock microseconds spent replaying traces through policies; the
  /// recording share is tracked by the trace cache (see
  /// ExperimentContext::traceStats).
  std::atomic<uint64_t> ReplayMicros{0};
  /// Sampled-mode totals: strata summed over estimated benchmarks, and
  /// the widest 95% half-width (relative to its point value) any figure
  /// cell reported through noteHalfWidth() — double bits in an atomic so
  /// the max updates locklessly.
  std::atomic<uint64_t> SampleStrata{0};
  std::atomic<uint64_t> MaxHalfWidthBits{0};
};

/// What a sampled benchmark carries beyond its point-estimate snapshots:
/// the jackknife replicates ([group][threshold index], in
/// ExperimentConfig::Thresholds order) core/Figures turns into confidence
/// intervals, and the segment-split stats (whose sampledFraction() feeds
/// the finite-population correction).
struct SampledProfiles {
  std::vector<std::vector<profile::ProfileSnapshot>> Replicates;
  sample::SampledSweepStats Stats;
};

/// The accuracy metrics a figure can plot (core/Figures).
enum class MetricKind : uint8_t {
  SdBp,       ///< Sd.BP (Section 2.1)
  BpMismatch, ///< range-based branch mismatch (Section 4.1)
  SdCp,       ///< Sd.CP (Section 2.2)
  SdLp,       ///< Sd.LP (Section 2.3)
  LpMismatch, ///< trip-count-class mismatch (Section 4.3)
};
constexpr size_t NumMetricKinds = 5;

/// Every figure metric of one benchmark against its AVEP, computed once
/// when the benchmark's profiles become ready (so on warmUp's workers):
/// for each MetricKind, the point value at each configured threshold,
/// each jackknife replicate's value when sampling, and the INIP(train)
/// value (region kinds over regions formed offline on the training
/// profile — see core::metricTrain). Threshold indices follow
/// ExperimentConfig::Thresholds.
struct MetricTable {
  size_t NumThresholds = 0;
  /// Jackknife groups (SampledProfiles::Replicates.size()); 0 when exact.
  size_t NumGroups = 0;
  /// [kind][threshold index]
  std::vector<double> Points;
  /// [kind][group][threshold index]; empty when exact.
  std::vector<double> Replicates;
  /// [kind]
  std::array<double, NumMetricKinds> Train{};

  double point(MetricKind K, size_t Th) const {
    return Points[static_cast<size_t>(K) * NumThresholds + Th];
  }
  double replicate(MetricKind K, size_t Group, size_t Th) const {
    return Replicates[(static_cast<size_t>(K) * NumGroups + Group) *
                          NumThresholds +
                      Th];
  }
  double train(MetricKind K) const { return Train[static_cast<size_t>(K)]; }
};

/// Lazily-computed, disk-cached profiles for the whole suite.
class ExperimentContext {
public:
  /// Throws std::invalid_argument when \p Config's policy is adaptive:
  /// the exact and the sampled replay serve two-phase policies only
  /// (adaptive ones run under dbt::DbtEngine).
  explicit ExperimentContext(ExperimentConfig Config);

  /// Like above, but recording into \p Shared instead of a private
  /// TraceCache. The sweep daemon hands every per-configuration context
  /// the same process-wide cache, so clients asking about the same
  /// program at different policy knobs share one in-memory recording
  /// (not just the disk layer). \p Shared must not be null. With a
  /// \p Writer, .prof stores are handed to it instead of written inline
  /// (see core/ProfWriter.h); it must outlive the context.
  ExperimentContext(ExperimentConfig Config,
                    std::shared_ptr<TraceCache> Shared,
                    ProfWriter *Writer = nullptr);

  const ExperimentConfig &config() const { return Config; }

  /// The generated benchmark (program + both inputs).
  const workloads::GeneratedBenchmark &benchmark(const std::string &Name);

  /// The benchmark's CFG.
  const cfg::Cfg &graph(const std::string &Name);

  /// INIP(T) with the reference input. \p Threshold must be one of
  /// config().Thresholds.
  const profile::ProfileSnapshot &inip(const std::string &Name,
                                       uint64_t Threshold);

  /// AVEP: profiling-only run with the reference input.
  const profile::ProfileSnapshot &avep(const std::string &Name);

  /// INIP(train): profiling-only run with the training input.
  const profile::ProfileSnapshot &train(const std::string &Name);

  /// Whether INIP snapshots are sampled estimates rather than exact
  /// replays: true when TPDBT_SAMPLE_MODE is on.
  bool sampling() const;

  /// The benchmark's replicates and sample stats; null when sampling()
  /// is false. AVEP and INIP(train) are exact even in sampled mode (they
  /// only need stream totals), so only the INIP(T) cells carry intervals.
  const SampledProfiles *sampled(const std::string &Name);

  /// The benchmark's figure metrics (see MetricTable).
  const MetricTable &metrics(const std::string &Name);

  /// Records one figure cell's relative 95% half-width for the stats
  /// banner (lock-free running max).
  void noteHalfWidth(double RelativeHalf);

  /// The widest relative half-width recorded so far (0 when none).
  double maxHalfWidth() const;

  /// Computes (or loads) the profiles for every named benchmark using up
  /// to \p Threads worker threads. Results are identical to the lazy
  /// single-threaded path — each benchmark's sweep is independent and
  /// deterministic; this only shortens the wall clock of the first figure
  /// binary. Pass 0 to use config().effectiveJobs().
  void warmUp(const std::vector<std::string> &Names, unsigned Threads = 0);

  /// Cache and sweep counters accumulated so far.
  const ExperimentStats &stats() const { return Stats; }

  /// Trace-cache counters (hits, misses, recording time). With a shared
  /// cache these aggregate over every context attached to it.
  const TraceCache::Counters &traceStats() const { return Traces->stats(); }

  /// One-line human-readable rendering of stats() for the bench banners,
  /// e.g. for a cold suite "jobs=2 prof 0 hit / 26 miss (0 corrupt), trace
  /// 0 hit / 52 miss (0 corrupt), 52 sweeps, 0.4s recording, 0.3s
  /// replaying, host ...". The trace cache's index counters are left out:
  /// the exact replay builds no index, and none is stored.
  std::string statsSummary() const;

private:
  struct BenchData {
    std::unique_ptr<workloads::GeneratedBenchmark> Bench;
    std::unique_ptr<cfg::Cfg> Graph;
    std::map<uint64_t, profile::ProfileSnapshot> Inips;
    profile::ProfileSnapshot Avep;
    profile::ProfileSnapshot Train;
    /// Jackknife replicates + sample stats; set only in sampled mode.
    std::unique_ptr<SampledProfiles> Sampled;
    MetricTable Metrics;
    /// Per-benchmark guard: generation and the sweep run under this lock,
    /// so two workers never interpret the same benchmark twice.
    std::mutex Lock;
    /// Set (with release order) once Inips/Avep/Train and Metrics are
    /// final; readers that observe it true may touch them without the
    /// lock.
    std::atomic<bool> ProfilesReady{false};
  };

  BenchData &data(const std::string &Name);
  /// Makes the benchmark's profiles and metric table ready: from the
  /// .prof cache, an exact replay, or (sampling) an estimate, then
  /// fillMetrics. \p ReplayJobs is the worker count handed to the
  /// per-threshold analytic replay; warmUp passes 1 when it is already
  /// running one worker per benchmark (results are identical either way).
  void ensureProfiles(const std::string &Name, BenchData &D,
                      unsigned ReplayJobs);
  /// The exact-mode miss path of ensureProfiles (caller holds D.Lock):
  /// fetch or record the traces, replay the ref sweep, and derive
  /// INIP(train) from the train stream's totals.
  void replayProfiles(const std::string &Name, BenchData &D,
                      unsigned ReplayJobs);
  /// Computes D.Metrics from D's final profiles (caller holds D.Lock).
  void fillMetrics(BenchData &D) const;
  /// The sampled-mode body of ensureProfiles (caller holds D.Lock):
  /// estimates the INIP sweep from a stratified segment sample — cache
  /// entries (warm, or just written by a cold recording) through
  /// TraceCache::openSegmented, so unsampled segments are never
  /// decompressed — and computes AVEP / INIP(train)
  /// exactly from stream totals. Never touches the .prof cache.
  void ensureEstimates(const std::string &Name, BenchData &D,
                       unsigned ReplayJobs);
  std::string cachePath(const std::string &Name, uint64_t SpecFp,
                        const std::string &Input, uint64_t Threshold) const;
  bool loadCached(const std::string &Name, BenchData &D);
  void storeCached(const std::string &Name, const BenchData &D) const;

  ExperimentConfig Config;
  /// Guards the Data map structure only; per-entry state is guarded by
  /// BenchData::Lock (std::map nodes are address-stable, so holding a
  /// BenchData& across an insertion of another key is safe).
  std::mutex DataLock;
  std::map<std::string, BenchData> Data;
  ExperimentStats Stats;
  /// Recorded block traces, shared across inputs and (via disk)
  /// processes; never null. Either privately owned or, under the sweep
  /// daemon, one process-wide store shared by every context.
  std::shared_ptr<TraceCache> Traces;
  /// Write-behind for .prof stores (the sweep daemon's); null writes them
  /// inline on the computing thread.
  ProfWriter *Writer = nullptr;
};

} // namespace core
} // namespace tpdbt

#endif // TPDBT_CORE_EXPERIMENT_H
