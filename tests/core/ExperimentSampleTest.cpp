//===- tests/core/ExperimentSampleTest.cpp - Sampled-mode context -*- C++ -*-===//

#include "core/Experiment.h"
#include "core/TraceCache.h"
#include "core/TraceSegments.h"
#include "support/TextFile.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

ExperimentConfig sampledConfig(const std::string &CacheDir = "") {
  ExperimentConfig C;
  C.Scale = 0.01;
  C.Thresholds = {100, 2000};
  C.CacheDir = CacheDir;
  C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  C.Sample.BudgetFrac = 0.25;
  return C;
}

ExperimentConfig exactConfig(const std::string &CacheDir = "") {
  ExperimentConfig C = sampledConfig(CacheDir);
  C.Sample = sample::SampleConfig();
  return C;
}

std::string tempDir(const char *Name) {
  std::string Dir =
      (std::filesystem::temp_directory_path() / Name).string();
  std::filesystem::remove_all(Dir);
  return Dir;
}

ExperimentConfig seededConfig(const std::string &CacheDir, uint64_t Seed) {
  ExperimentConfig C = sampledConfig(CacheDir);
  C.Sample.Seed = Seed;
  return C;
}

/// Everything a sampled run of \p Name produced, as text: the INIP point
/// estimates, every jackknife replicate, and the exact AVEP.
std::string sampledText(ExperimentContext &Ctx, const std::string &Name) {
  std::string Out;
  for (uint64_t T : Ctx.config().Thresholds)
    Out += profile::printSnapshot(Ctx.inip(Name, T));
  const SampledProfiles *SP = Ctx.sampled(Name);
  EXPECT_NE(SP, nullptr);
  if (SP)
    for (const auto &Rep : SP->Replicates)
      for (const profile::ProfileSnapshot &S : Rep)
        Out += profile::printSnapshot(S);
  return Out + profile::printSnapshot(Ctx.avep(Name));
}

/// One sampled run of gzip under \p Seed through the trace store
/// \p Traces (a fresh private store when null).
std::string sampleGzip(const std::string &Dir, uint64_t Seed,
                       std::shared_ptr<TraceCache> Traces = nullptr) {
  if (!Traces)
    Traces = std::make_shared<TraceCache>(Dir);
  ExperimentContext Ctx(seededConfig(Dir, Seed), Traces);
  return sampledText(Ctx, "gzip");
}

/// A trace directory holding gzip's recordings, sliced into 1024-event
/// segments so the tiny-scale ref trace spans enough segments to sample.
/// Removed, and the segment knob reset, with the test.
struct WarmGzipDir {
  std::string Dir;

  explicit WarmGzipDir(const char *Name) : Dir(tempDir(Name)) {
    setenv("TPDBT_SEGMENT_EVENTS", "1024", 1);
    ExperimentContext Warm(exactConfig(Dir));
    (void)Warm.inip("gzip", 100);
  }
  ~WarmGzipDir() {
    unsetenv("TPDBT_SEGMENT_EVENTS");
    std::filesystem::remove_all(Dir);
  }

  /// The ref entry's file and execution fingerprint.
  std::string refEntry(uint64_t *ExecFp = nullptr) const {
    for (const auto &E : std::filesystem::directory_iterator(Dir)) {
      const std::string File = E.path().filename().string();
      if (File.rfind("gzip.ref.", 0) == 0 && E.path().extension() == ".trace") {
        if (ExecFp)
          *ExecFp = std::strtoull(File.c_str() + 9, nullptr, 16);
        return E.path().string();
      }
    }
    ADD_FAILURE() << "no gzip ref entry in " << Dir;
    return "";
  }
};

} // namespace

TEST(ExperimentSampleTest, SampledModePopulatesReplicates) {
  // Tiny-scale traces fit in one default-size segment; slice finer so the
  // sample spans enough segments to form jackknife groups.
  setenv("TPDBT_SEGMENT_EVENTS", "1024", 1);
  ExperimentContext Ctx(sampledConfig());
  EXPECT_TRUE(Ctx.sampling());

  const SampledProfiles *SP = Ctx.sampled("gzip");
  ASSERT_NE(SP, nullptr);
  EXPECT_GE(SP->Stats.Strata, 1u);
  EXPECT_GT(SP->Stats.Segments, 0u);
  EXPECT_LE(SP->Stats.Decoded, SP->Stats.Segments);
  ASSERT_GE(SP->Replicates.size(), 2u);
  for (const auto &Rep : SP->Replicates)
    EXPECT_EQ(Rep.size(), Ctx.config().Thresholds.size());

  // AVEP and INIP(train) stay exact even in sampled mode: they depend
  // only on stream totals, which the estimator carries exactly.
  ExperimentContext Exact(exactConfig());
  EXPECT_EQ(profile::printSnapshot(Ctx.avep("gzip")),
            profile::printSnapshot(Exact.avep("gzip")));
  EXPECT_EQ(profile::printSnapshot(Ctx.train("gzip")),
            profile::printSnapshot(Exact.train("gzip")));
  unsetenv("TPDBT_SEGMENT_EVENTS");
}

TEST(ExperimentSampleTest, OffModeIsExactPath) {
  ExperimentConfig C = exactConfig();
  ExperimentContext Ctx(C);
  EXPECT_FALSE(Ctx.sampling());
  EXPECT_EQ(Ctx.sampled("gzip"), nullptr);
  // Off mode never consults the sampling machinery at all.
  EXPECT_EQ(Ctx.traceStats().SampleDiskOpens.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsDecoded.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsSkipped.load(), 0u);
}

TEST(ExperimentSampleTest, AdaptivePoliciesStayExact) {
  ExperimentConfig C = sampledConfig();
  C.Dbt.Adaptive.Enabled = true;
  ExperimentContext Ctx(C);
  EXPECT_FALSE(Ctx.sampling());
  EXPECT_EQ(Ctx.sampled("gzip"), nullptr);
}

// Acceptance: sampled runs never read or write the .prof layer, and the
// unsampled share of a warm trace entry is never decompressed — the disk
// source reads the directory plus only the drawn segments.
TEST(ExperimentSampleTest, WarmCacheNeverDecompressesUnsampled) {
  std::string Dir = tempDir("tpdbt_sample_nodecomp_test");

  // Warm the trace layer with an exact run, then drop the .prof layer so
  // any snapshot access in the sampled run would be observable.
  ExperimentContext Warm(exactConfig(Dir));
  (void)Warm.inip("gzip", 100);
  size_t ProfBefore = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".prof") {
      std::filesystem::remove(E.path());
      ++ProfBefore;
    }
  ASSERT_GT(ProfBefore, 0u);

  ExperimentContext Ctx(sampledConfig(Dir));
  const SampledProfiles *SP = Ctx.sampled("gzip");
  ASSERT_NE(SP, nullptr);

  // Both inputs were answered from the segmented container.
  EXPECT_EQ(Ctx.traceStats().SampleDiskOpens.load(), 2u);
  // The full-decode path was never taken: no disk hits, no re-records.
  EXPECT_EQ(Ctx.traceStats().DiskHits.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().Misses.load(), 0u);
  // Decoded exactly the ref plan; everything else (including the whole
  // training trace, answered from its header) was skipped.
  EXPECT_EQ(Ctx.traceStats().SampleSegmentsDecoded.load(),
            SP->Stats.Decoded);
  EXPECT_GT(Ctx.traceStats().SampleSegmentsSkipped.load(),
            SP->Stats.Segments - SP->Stats.Decoded);
  // Sampled runs bypass the .prof cache in both directions: nothing was
  // loaded, nothing was written back.
  EXPECT_EQ(Ctx.stats().CacheHits.load(), 0u);
  EXPECT_EQ(Ctx.stats().CacheMisses.load(), 0u);
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    EXPECT_NE(E.path().extension(), ".prof") << E.path();
  std::filesystem::remove_all(Dir);
}

// Diskless (no cache dir: a bytes-backed reader over the recording's
// container) and warm (the TPDT v4 entry on disk) sampled runs must draw
// the identical sample and produce identical estimates.
TEST(ExperimentSampleTest, ColdAndWarmEstimatesAgree) {
  std::string Dir = tempDir("tpdbt_sample_coldwarm_test");

  ExperimentContext Warm(exactConfig(Dir));
  (void)Warm.inip("art", 100); // record the traces

  ExperimentContext Disk(sampledConfig(Dir));
  ExperimentContext Cold(sampledConfig(""));
  for (uint64_t T : Disk.config().Thresholds)
    EXPECT_EQ(profile::printSnapshot(Disk.inip("art", T)),
              profile::printSnapshot(Cold.inip("art", T)))
        << "T=" << T;
  EXPECT_EQ(Disk.traceStats().SampleDiskOpens.load(), 2u);
  EXPECT_EQ(Cold.traceStats().SampleDiskOpens.load(), 0u);
  std::filesystem::remove_all(Dir);
}

// A cold disk-backed sampled run records the ref trace, re-opens the
// entry it just wrote and samples it: its snapshots and replicates match
// the warm run over that entry and the diskless run over the same bytes.
TEST(ExperimentSampleTest, ColdWarmAndDisklessRunsAgree) {
  setenv("TPDBT_SEGMENT_EVENTS", "1024", 1);
  const std::string Dir = tempDir("tpdbt_sample_cold_disk_test");

  ExperimentContext Cold(sampledConfig(Dir));
  const std::string ColdText = sampledText(Cold, "gzip");
  EXPECT_EQ(Cold.traceStats().Misses.load(), 2u);
  EXPECT_EQ(Cold.traceStats().CorruptEntries.load(), 0u);
  // The ref entry was opened once, after its recording wrote it.
  EXPECT_EQ(Cold.traceStats().SampleDiskOpens.load(), 1u);

  ExperimentContext Warm(sampledConfig(Dir));
  EXPECT_EQ(sampledText(Warm, "gzip"), ColdText);
  EXPECT_EQ(Warm.traceStats().Misses.load(), 0u);
  EXPECT_EQ(Warm.traceStats().SampleDiskOpens.load(), 2u);

  ExperimentContext Diskless(sampledConfig(""));
  EXPECT_EQ(sampledText(Diskless, "gzip"), ColdText);
  EXPECT_EQ(Diskless.traceStats().SampleDiskOpens.load(), 0u);

  const SampledProfiles *SP = Cold.sampled("gzip");
  ASSERT_NE(SP, nullptr);
  EXPECT_GE(SP->Replicates.size(), 2u);
  unsetenv("TPDBT_SEGMENT_EVENTS");
  std::filesystem::remove_all(Dir);
}

// The determinism acceptance criterion at the context level: sampled
// snapshots are byte-identical at any TPDBT_JOBS.
TEST(ExperimentSampleTest, SampledSnapshotsIdenticalAcrossJobs) {
  ExperimentConfig Serial = sampledConfig();
  Serial.Jobs = 1;
  ExperimentContext SerialCtx(Serial);
  SerialCtx.warmUp({"gzip", "swim"});

  ExperimentConfig Parallel = sampledConfig();
  Parallel.Jobs = 8;
  ExperimentContext ParallelCtx(Parallel);
  ParallelCtx.warmUp({"gzip", "swim"});

  for (const std::string &N : {std::string("gzip"), std::string("swim")}) {
    for (uint64_t T : Serial.Thresholds)
      EXPECT_EQ(profile::printSnapshot(SerialCtx.inip(N, T)),
                profile::printSnapshot(ParallelCtx.inip(N, T)))
          << N << " T=" << T;
    const SampledProfiles *A = SerialCtx.sampled(N);
    const SampledProfiles *B = ParallelCtx.sampled(N);
    ASSERT_NE(A, nullptr);
    ASSERT_NE(B, nullptr);
    ASSERT_EQ(A->Replicates.size(), B->Replicates.size());
    for (size_t G = 0; G < A->Replicates.size(); ++G)
      for (size_t T = 0; T < A->Replicates[G].size(); ++T)
        EXPECT_EQ(profile::printSnapshot(A->Replicates[G][T]),
                  profile::printSnapshot(B->Replicates[G][T]));
  }
}

TEST(ExperimentSampleTest, StatsSummaryMentionsSample) {
  ExperimentContext Ctx(sampledConfig());
  (void)Ctx.inip("gzip", 100);
  std::string S = Ctx.statsSummary();
  EXPECT_NE(S.find("sample"), std::string::npos) << S;
  EXPECT_NE(S.find("seg decoded"), std::string::npos) << S;
}

TEST(ExperimentSampleTest, FromEnvParsesSampleKnobs) {
  setenv("TPDBT_SAMPLE_MODE", "stratified", 1);
  setenv("TPDBT_SAMPLE_BUDGET", "0.5", 1);
  setenv("TPDBT_SAMPLE_SEED", "0x123", 1);
  ExperimentConfig C = ExperimentConfig::fromEnv();
  EXPECT_TRUE(C.Sample.enabled());
  EXPECT_DOUBLE_EQ(C.Sample.BudgetFrac, 0.5);
  EXPECT_EQ(C.Sample.Seed, 0x123u);
  // Sampling must never shift the .prof cache keys: exact artifacts stay
  // byte-identical whether the knobs are set or not.
  ExperimentConfig Off = C;
  Off.Sample = sample::SampleConfig();
  EXPECT_EQ(C.fingerprint(), Off.fingerprint());
  EXPECT_EQ(C.executionFingerprint(), Off.executionFingerprint());
  EXPECT_EQ(C.policyFingerprint(), Off.policyFingerprint());
  unsetenv("TPDBT_SAMPLE_MODE");
  unsetenv("TPDBT_SAMPLE_BUDGET");
  unsetenv("TPDBT_SAMPLE_SEED");
  EXPECT_FALSE(ExperimentConfig::fromEnv().Sample.enabled());
}

// The segment-profile memo: seeds A, B, A through one trace store give
// exactly what contexts with their own fresh stores give, the second A
// adds no memo entry, and the counters still count plan draws.
TEST(ExperimentSampleTest, MemoReusesSegmentsAcrossSeeds) {
  WarmGzipDir W("tpdbt_sample_memo_seeds_test");
  const std::string FreshA = sampleGzip(W.Dir, 11);
  const std::string FreshB = sampleGzip(W.Dir, 12);
  ASSERT_NE(FreshA, FreshB);

  auto Shared = std::make_shared<TraceCache>(W.Dir);
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), FreshA);
  const size_t AfterA = Shared->memoizedSegments();
  EXPECT_GT(AfterA, 0u);
  EXPECT_EQ(Shared->stats().SampleSegmentsDecoded.load(), AfterA);
  EXPECT_EQ(sampleGzip(W.Dir, 12, Shared), FreshB);
  const size_t AfterB = Shared->memoizedSegments();
  EXPECT_GE(AfterB, AfterA);

  // The second A is served from the memo entirely: with the ref entry's
  // payload bytes zeroed (its header intact, so it still opens) it reads
  // no payload, so nothing notices. A store decodes each payload only at
  // its first draw (see core/TraceCache.h).
  const std::string Path = W.refEntry();
  SegmentedTraceReader Reader;
  ASSERT_TRUE(SegmentedTraceReader::open(Path, Reader, nullptr));
  const uint64_t PayloadStart = Reader.header().PayloadStart;
  std::string Bytes = *readTextFile(Path);
  std::fill(Bytes.begin() + static_cast<std::ptrdiff_t>(PayloadStart),
            Bytes.end(), '\0');
  ASSERT_TRUE(writeTextFile(Path, Bytes));

  const uint64_t DrawsBefore = Shared->stats().SampleSegmentsDecoded.load();
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), FreshA);
  EXPECT_EQ(Shared->memoizedSegments(), AfterB);
  EXPECT_EQ(Shared->stats().SampleSegmentsDecoded.load() - DrawsBefore,
            AfterA);
  EXPECT_EQ(Shared->stats().CorruptEntries.load(), 0u);
  EXPECT_EQ(Shared->stats().Misses.load(), 0u);
}

// A re-layout under the same key (the budget is not part of the trace
// key, so a TPDBT_SEGMENT_EVENTS=4096 run over a 1024-event warm dir
// rewrites nothing but reads a different cut) must not serve profiles
// verified under the old layout.
TEST(ExperimentSampleTest, MemoIgnoresReLaidOutEntry) {
  WarmGzipDir W("tpdbt_sample_memo_relayout_test");
  auto Shared = std::make_shared<TraceCache>(W.Dir);
  (void)sampleGzip(W.Dir, 11, Shared);
  ASSERT_GT(Shared->memoizedSegments(), 0u);

  // Re-record the same trace at 4096 events per segment into the entry
  // (a sampled run on a missing entry records it through get()).
  std::filesystem::remove(W.refEntry());
  setenv("TPDBT_SEGMENT_EVENTS", "4096", 1);
  (void)sampleGzip(W.Dir, 11);
  SegmentedTraceReader Reader;
  ASSERT_TRUE(SegmentedTraceReader::open(W.refEntry(), Reader, nullptr));
  ASSERT_EQ(Reader.header().SegmentBudget, 4096u);
  ASSERT_GT(Reader.numSegments(), 1u);

  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), sampleGzip(W.Dir, 11));
  EXPECT_EQ(Shared->stats().Misses.load(), 0u);
}

// An LRU eviction drops the evicted entry's memo.
TEST(ExperimentSampleTest, MemoDroppedOnEviction) {
  WarmGzipDir W("tpdbt_sample_memo_evict_test");
  const std::string Fresh = sampleGzip(W.Dir, 11);
  auto Shared = std::make_shared<TraceCache>(W.Dir);
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), Fresh);
  ASSERT_GT(Shared->memoizedSegments(), 0u);

  setenv("TPDBT_CACHE_MAX_BYTES", "1", 1);
  Shared->enforceBudget();
  unsetenv("TPDBT_CACHE_MAX_BYTES");
  EXPECT_GT(Shared->stats().Evictions.load(), 0u);
  EXPECT_EQ(Shared->memoizedSegments(), 0u);

  // The next run re-records both inputs (cold and warm runs draw the
  // same sample).
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), Fresh);
  EXPECT_EQ(Shared->stats().Misses.load(), 2u);
}

// A truncated entry fails openSegmented even with its memo full; the run
// falls back to get(), which counts it corrupt and re-records it, as
// without a memo, and then samples the rewritten entry.
TEST(ExperimentSampleTest, MemoDoesNotMaskTruncatedEntry) {
  WarmGzipDir W("tpdbt_sample_memo_truncate_test");
  const std::string Fresh = sampleGzip(W.Dir, 11);
  auto Shared = std::make_shared<TraceCache>(W.Dir);
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), Fresh);
  const size_t Memoized = Shared->memoizedSegments();
  ASSERT_GT(Memoized, 0u);

  uint64_t ExecFp = 0;
  const std::string Path = W.refEntry(&ExecFp);
  std::filesystem::resize_file(Path, std::filesystem::file_size(Path) / 2);
  SegmentedTraceReader Reader;
  std::string Error;
  const auto Gzip = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.01));
  EXPECT_FALSE(
      Shared->openSegmented("gzip", "ref", ExecFp, Gzip.Ref, Reader, &Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), Fresh);
  EXPECT_EQ(Shared->stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Shared->stats().Misses.load(), 1u);
  // The rewrite dropped the memo; the run re-opened the rewritten entry
  // and memoized the same draws afresh, which the next run reuses.
  EXPECT_EQ(Shared->memoizedSegments(), Memoized);
  const uint64_t Opens = Shared->stats().SampleDiskOpens.load();
  EXPECT_EQ(sampleGzip(W.Dir, 11, Shared), Fresh);
  EXPECT_EQ(Shared->memoizedSegments(), Memoized);
  EXPECT_EQ(Shared->stats().SampleDiskOpens.load(), Opens + 2);
  EXPECT_EQ(Shared->stats().Misses.load(), 1u);
}

// Two threads sampling one entry with different seeds through one store
// race to fill the same memo; each must still get its serial result.
TEST(ExperimentSampleTest, MemoConcurrentSeedsMatchSerial) {
  WarmGzipDir W("tpdbt_sample_memo_threads_test");
  const uint64_t Seeds[] = {11, 12, 13, 14};
  std::string Serial[4], Racing[4];
  for (size_t I = 0; I < 4; ++I)
    Serial[I] = sampleGzip(W.Dir, Seeds[I]);

  auto Shared = std::make_shared<TraceCache>(W.Dir);
  std::thread T1([&] {
    Racing[0] = sampleGzip(W.Dir, Seeds[0], Shared);
    Racing[2] = sampleGzip(W.Dir, Seeds[2], Shared);
  });
  std::thread T2([&] {
    Racing[1] = sampleGzip(W.Dir, Seeds[1], Shared);
    Racing[3] = sampleGzip(W.Dir, Seeds[3], Shared);
  });
  T1.join();
  T2.join();
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Racing[I], Serial[I]) << "seed " << Seeds[I];
  EXPECT_EQ(Shared->stats().Misses.load(), 0u);
}
