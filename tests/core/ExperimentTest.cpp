//===- tests/core/ExperimentTest.cpp - Experiment context tests -*- C++ -*-===//

#include "core/Experiment.h"

#include "core/TraceSegments.h"
#include "oracle/EventPump.h"
#include "support/TextFile.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

ExperimentConfig tinyConfig(const std::string &CacheDir = "") {
  ExperimentConfig C;
  C.Scale = 0.01;
  C.Thresholds = {100, 2000};
  C.CacheDir = CacheDir;
  return C;
}

} // namespace

TEST(ThresholdListTest, MatchesPaper) {
  const auto &T = paperThresholds();
  ASSERT_EQ(T.size(), 13u);
  EXPECT_EQ(T.front(), 100u);
  EXPECT_EQ(T.back(), 4000000u);
  const auto &P = performanceThresholds();
  EXPECT_EQ(P.size(), 15u);
  EXPECT_EQ(P[0], 1u);
  EXPECT_EQ(P[1], 50u);
}

TEST(ExperimentContextTest, ProducesAllProfiles) {
  ExperimentContext Ctx(tinyConfig());
  const auto &Inip = Ctx.inip("eon", 100);
  EXPECT_EQ(Inip.Threshold, 100u);
  EXPECT_EQ(Inip.Benchmark, "eon");
  EXPECT_EQ(Inip.Input, "ref");

  const auto &Avep = Ctx.avep("eon");
  EXPECT_TRUE(Avep.isAverage());
  EXPECT_EQ(Avep.Input, "ref");

  const auto &Train = Ctx.train("eon");
  EXPECT_TRUE(Train.isAverage());
  EXPECT_EQ(Train.Input, "train");
  EXPECT_LT(Train.BlockEvents, Avep.BlockEvents);
}

TEST(ExperimentContextTest, GraphMatchesProgram) {
  ExperimentContext Ctx(tinyConfig());
  const auto &B = Ctx.benchmark("swim");
  EXPECT_EQ(Ctx.graph("swim").numBlocks(), B.Ref.numBlocks());
}

TEST(ExperimentContextTest, CacheRoundTrip) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_experiment_cache_test")
                        .string();
  std::filesystem::remove_all(Dir);

  ExperimentContext Ctx1(tinyConfig(Dir));
  auto FirstOps = Ctx1.inip("art", 2000).ProfilingOps;
  EXPECT_TRUE(std::filesystem::exists(Dir));
  size_t ProfFiles = 0, TraceFiles = 0, IndexFiles = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() == ".prof")
      ++ProfFiles;
    else if (E.path().extension() == ".trace")
      ++TraceFiles;
    else if (E.path().extension() == ".idx")
      ++IndexFiles;
    else
      ADD_FAILURE() << "unexpected cache file " << E.path();
  }
  // 2 thresholds + AVEP + train for one benchmark.
  EXPECT_EQ(ProfFiles, 4u);
  // One recorded trace per input; the analytic index is never persisted.
  EXPECT_EQ(TraceFiles, 2u);
  EXPECT_EQ(IndexFiles, 0u);

  // A fresh context must load identical data from the cache.
  ExperimentContext Ctx2(tinyConfig(Dir));
  EXPECT_EQ(Ctx2.inip("art", 2000).ProfilingOps, FirstOps);
  EXPECT_EQ(profile::printSnapshot(Ctx2.avep("art")),
            profile::printSnapshot(Ctx1.avep("art")));
  std::filesystem::remove_all(Dir);
}

TEST(ExperimentConfigTest, FingerprintSensitivity) {
  ExperimentConfig A = tinyConfig();
  ExperimentConfig B = tinyConfig();
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  B.Scale = 0.02;
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  ExperimentConfig C = tinyConfig();
  C.Dbt.Formation.MinBranchProb = 0.8;
  EXPECT_NE(A.fingerprint(), C.fingerprint());
  ExperimentConfig D = tinyConfig();
  D.Thresholds.push_back(777);
  EXPECT_NE(A.fingerprint(), D.fingerprint());
  // Adaptive options change replay results, so they must be in the key.
  ExperimentConfig E = tinyConfig();
  E.Dbt.Adaptive.Enabled = true;
  EXPECT_NE(A.fingerprint(), E.fingerprint());
}

// The execution/policy fingerprint split that keys the trace cache:
// policy-only knobs must leave the execution fingerprint (and with it
// every recorded trace) valid, while scale changes invalidate it.
TEST(ExperimentConfigTest, ExecutionFingerprintIgnoresPolicyKnobs) {
  ExperimentConfig A = tinyConfig();
  ExperimentConfig B = tinyConfig();
  B.Dbt.PoolLimit = 16;
  B.Thresholds = {1, 50, 100};
  B.Dbt.Cost.ColdPerInst += 3;
  B.Dbt.Adaptive.Enabled = true;
  EXPECT_EQ(A.executionFingerprint(), B.executionFingerprint());
  EXPECT_NE(A.policyFingerprint(), B.policyFingerprint());
  EXPECT_NE(A.fingerprint(), B.fingerprint());

  ExperimentConfig C = tinyConfig();
  C.Scale = 0.02;
  EXPECT_NE(A.executionFingerprint(), C.executionFingerprint());
  EXPECT_EQ(A.policyFingerprint(), C.policyFingerprint());
}

TEST(ExperimentContextTest, WarmUpMatchesLazyPath) {
  // Parallel warm-up must produce snapshots identical to the lazy
  // single-threaded computation.
  ExperimentConfig C = tinyConfig();
  ExperimentContext Lazy(C);
  std::string LazyText =
      profile::printSnapshot(Lazy.inip("gzip", 2000)) +
      profile::printSnapshot(Lazy.train("swim"));

  ExperimentContext Warm(C);
  Warm.warmUp({"gzip", "swim", "eon"}, /*Threads=*/3);
  std::string WarmText =
      profile::printSnapshot(Warm.inip("gzip", 2000)) +
      profile::printSnapshot(Warm.train("swim"));
  EXPECT_EQ(WarmText, LazyText);
}

TEST(ExperimentConfigTest, FromEnvParsesKnobs) {
  setenv("TPDBT_SCALE", "0.5", 1);
  setenv("TPDBT_CACHE_DIR", "off", 1);
  setenv("TPDBT_JOBS", "3", 1);
  ExperimentConfig C = ExperimentConfig::fromEnv();
  EXPECT_DOUBLE_EQ(C.Scale, 0.5);
  EXPECT_TRUE(C.CacheDir.empty());
  EXPECT_EQ(C.Jobs, 3u);
  EXPECT_EQ(C.effectiveJobs(), 3u);
  setenv("TPDBT_CACHE_DIR", "/tmp/somewhere", 1);
  EXPECT_EQ(ExperimentConfig::fromEnv().CacheDir, "/tmp/somewhere");
  // Zero or garbage falls back to the hardware default.
  setenv("TPDBT_JOBS", "0", 1);
  EXPECT_EQ(ExperimentConfig::fromEnv().Jobs, 0u);
  EXPECT_GE(ExperimentConfig::fromEnv().effectiveJobs(), 1u);
  unsetenv("TPDBT_SCALE");
  unsetenv("TPDBT_CACHE_DIR");
  unsetenv("TPDBT_JOBS");
}

TEST(ExperimentConfigTest, JobsDoNotAffectFingerprint) {
  ExperimentConfig A = tinyConfig();
  ExperimentConfig B = tinyConfig();
  B.Jobs = 8;
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

// The headline determinism guarantee: a serial context (TPDBT_JOBS=1) and
// a heavily parallel one (TPDBT_JOBS=8) must produce byte-identical
// ProfileSnapshots for every benchmark and profile kind.
TEST(ExperimentContextTest, JobsProduceByteIdenticalSnapshots) {
  const std::vector<std::string> Names = {"gzip", "swim", "eon", "mcf"};

  ExperimentConfig Serial = tinyConfig();
  Serial.Jobs = 1;
  ExperimentContext SerialCtx(Serial);
  SerialCtx.warmUp(Names);

  ExperimentConfig Parallel = tinyConfig();
  Parallel.Jobs = 8;
  ExperimentContext ParallelCtx(Parallel);
  ParallelCtx.warmUp(Names);

  for (const std::string &N : Names) {
    for (uint64_t T : Serial.Thresholds)
      EXPECT_EQ(profile::printSnapshot(SerialCtx.inip(N, T)),
                profile::printSnapshot(ParallelCtx.inip(N, T)))
          << N << " T=" << T;
    EXPECT_EQ(profile::printSnapshot(SerialCtx.avep(N)),
              profile::printSnapshot(ParallelCtx.avep(N)))
        << N;
    EXPECT_EQ(profile::printSnapshot(SerialCtx.train(N)),
              profile::printSnapshot(ParallelCtx.train(N)))
        << N;
  }
}

// Per-key guard: many threads racing on the same benchmark must trigger
// exactly one interpretation (two sweeps: ref + train).
TEST(ExperimentContextTest, ConcurrentAccessorsInterpretOnce) {
  ExperimentContext Ctx(tinyConfig());
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> OpsSum{0};
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&Ctx, &OpsSum] {
      OpsSum.fetch_add(Ctx.inip("art", 100).ProfilingOps);
      OpsSum.fetch_add(Ctx.train("art").ProfilingOps);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ctx.stats().SweepsRun.load(), 2u);
  EXPECT_EQ(Ctx.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(Ctx.stats().CacheHits.load(), 0u);
  EXPECT_GT(OpsSum.load(), 0u);
}

// Concurrent cache writers landing on the same key (two processes are
// modeled by two contexts sharing a cache dir): both must finish, agree,
// and leave only well-formed snapshot files behind.
TEST(ExperimentContextTest, ConcurrentWritersSameCacheKey) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_concurrent_writers_test")
                        .string();
  std::filesystem::remove_all(Dir);

  ExperimentContext A(tinyConfig(Dir));
  ExperimentContext B(tinyConfig(Dir));
  std::thread TA([&A] { A.warmUp({"art", "gzip"}, 2); });
  std::thread TB([&B] { B.warmUp({"art", "gzip"}, 2); });
  TA.join();
  TB.join();

  EXPECT_EQ(profile::printSnapshot(A.inip("art", 100)),
            profile::printSnapshot(B.inip("art", 100)));

  // Every file in the cache dir parses cleanly and no temporaries leak.
  size_t ProfFiles = 0, TraceFiles = 0, IndexFiles = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Path = E.path().string();
    auto Text = readTextFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    if (E.path().extension() == ".trace") {
      std::string Err;
      core::BlockTrace T;
      EXPECT_TRUE(core::BlockTrace::parse(*Text, T, &Err)) << Path << ": "
                                                           << Err;
      ++TraceFiles;
      continue;
    }
    if (E.path().extension() == ".idx") {
      ++IndexFiles;
      continue;
    }
    ASSERT_EQ(E.path().extension(), ".prof") << Path;
    profile::ProfileSnapshot S;
    std::string Err;
    EXPECT_TRUE(profile::parseSnapshot(*Text, S, &Err)) << Path << ": " << Err;
    ++ProfFiles;
  }
  // 2 thresholds + AVEP + train, for two benchmarks.
  EXPECT_EQ(ProfFiles, 8u);
  // One trace per (benchmark, input), and no index sidecar.
  EXPECT_EQ(TraceFiles, 4u);
  EXPECT_EQ(IndexFiles, 0u);
  std::filesystem::remove_all(Dir);
}

// Tentpole acceptance: the interpreting path (cache off), the cold
// record-then-replay path, and the trace-cache-hit path must all produce
// byte-identical profile snapshots.
TEST(ExperimentContextTest, TraceReplayMatchesInterpretedProfiles) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_trace_replay_test")
                        .string();
  std::filesystem::remove_all(Dir);

  auto snapshotText = [](ExperimentContext &Ctx) {
    return profile::printSnapshot(Ctx.inip("art", 100)) +
           profile::printSnapshot(Ctx.inip("art", 2000)) +
           profile::printSnapshot(Ctx.avep("art")) +
           profile::printSnapshot(Ctx.train("art"));
  };

  ExperimentContext Cold(tinyConfig(Dir));
  std::string Expected = snapshotText(Cold);
  EXPECT_EQ(Cold.traceStats().Misses.load(), 2u); // ref + train recorded

  // Caching disabled entirely: a pure in-process run must agree.
  ExperimentContext Off(tinyConfig(""));
  EXPECT_EQ(snapshotText(Off), Expected);

  // Drop the .prof layer but keep the .trace layer: profiles must be
  // rebuilt by replay alone, with zero re-interpretations.
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".prof")
      std::filesystem::remove(E.path());
  ExperimentContext Replayed(tinyConfig(Dir));
  EXPECT_EQ(snapshotText(Replayed), Expected);
  EXPECT_EQ(Replayed.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(Replayed.traceStats().DiskHits.load(), 2u);
  EXPECT_EQ(Replayed.traceStats().Misses.load(), 0u);
  std::filesystem::remove_all(Dir);
}

// Tentpole acceptance: changing a policy-only knob against a warm cache
// must trigger zero re-interpretations — the recorded traces are replayed
// under the new policy.
TEST(ExperimentContextTest, PolicyKnobChangeReplaysWarmTrace) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_policy_knob_test")
                        .string();
  std::filesystem::remove_all(Dir);

  ExperimentContext Warm(tinyConfig(Dir));
  (void)Warm.inip("art", 100);
  EXPECT_EQ(Warm.traceStats().Misses.load(), 2u);

  ExperimentConfig Tweaked = tinyConfig(Dir);
  Tweaked.Dbt.PoolLimit = 16;
  ExperimentContext Ctx(Tweaked);
  (void)Ctx.inip("art", 100);
  // The .prof key changed, so profiles were recomputed...
  EXPECT_EQ(Ctx.stats().CacheMisses.load(), 1u);
  EXPECT_EQ(Ctx.stats().CacheHits.load(), 0u);
  // ...but purely by replaying the recorded traces.
  EXPECT_EQ(Ctx.traceStats().DiskHits.load(), 2u);
  EXPECT_EQ(Ctx.traceStats().Misses.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().RecordMicros.load(), 0u);
  std::filesystem::remove_all(Dir);
}

// A truncated or corrupt .trace entry must fall back to re-recording and
// repair the cache, never crash or poison results.
TEST(ExperimentContextTest, CorruptTraceEntryFallsBackToRecord) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_corrupt_trace_test")
                        .string();
  std::filesystem::remove_all(Dir);

  ExperimentContext Warm(tinyConfig(Dir));
  std::string Expected = profile::printSnapshot(Warm.inip("art", 2000));

  // Truncate every trace and drop the .prof layer so the next context
  // must go through the trace path.
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() == ".prof") {
      std::filesystem::remove(E.path());
      continue;
    }
    auto Bytes = readTextFile(E.path().string());
    ASSERT_TRUE(Bytes.has_value());
    ASSERT_TRUE(writeTextFile(E.path().string(),
                              Bytes->substr(0, Bytes->size() / 2)));
  }

  ExperimentContext Cold(tinyConfig(Dir));
  EXPECT_EQ(profile::printSnapshot(Cold.inip("art", 2000)), Expected);
  EXPECT_EQ(Cold.traceStats().CorruptEntries.load(), 2u);
  EXPECT_EQ(Cold.traceStats().Misses.load(), 2u);

  // The re-recording must have repaired the trace layer: every entry
  // parses again.
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() != ".trace")
      continue;
    auto Bytes = readTextFile(E.path().string());
    ASSERT_TRUE(Bytes.has_value());
    std::string Err;
    core::BlockTrace T;
    EXPECT_TRUE(core::BlockTrace::parse(*Bytes, T, &Err)) << Err;
  }
  std::filesystem::remove_all(Dir);
}

// The exact path's train lookup streams a warm entry's segments through
// TraceCache::totals() and never holds the trace. It must give the
// snapshot the event pump gives over the recorded train trace, as two
// disk hits per program and no record.
TEST(ExperimentContextTest, TrainFromVerifiedTotalsMatchesEventPump) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_train_totals_test")
                        .string();
  std::filesystem::remove_all(Dir);
  ExperimentConfig C = tinyConfig(Dir);
  ExperimentContext Warm(C);
  const workloads::GeneratedBenchmark &B = Warm.benchmark("art");
  SweepResult Pumped = replaySweepEvents(
      BlockTrace::record(B.Train, B.Spec.MaxBlockEvents), B.Train, {}, C.Dbt);
  Pumped.Average.Benchmark = "art";
  Pumped.Average.Input = "train";
  const std::string Expected = profile::printSnapshot(Pumped.Average);
  EXPECT_EQ(profile::printSnapshot(Warm.train("art")), Expected);

  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".prof")
      std::filesystem::remove(E.path());
  ExperimentContext Ctx(C);
  EXPECT_EQ(profile::printSnapshot(Ctx.train("art")), Expected);
  EXPECT_EQ(Ctx.traceStats().DiskHits.load(), 2u);
  EXPECT_EQ(Ctx.traceStats().Misses.load(), 0u);
  EXPECT_EQ(Ctx.traceStats().CorruptEntries.load(), 0u);
  std::filesystem::remove_all(Dir);
}

// A train entry whose header is self-consistent but whose counter table
// moved one use between two blocks: only decoding every segment can tell.
// The streamed check must count it corrupt once, re-record it, and give
// the same snapshot.
TEST(ExperimentContextTest, TamperedTrainCounterTableIsReRecorded) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_tampered_train_test")
                        .string();
  std::filesystem::remove_all(Dir);
  ExperimentContext Warm(tinyConfig(Dir));
  const std::string Expected = profile::printSnapshot(Warm.train("art"));

  std::string TrainPath;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    if (E.path().extension() == ".prof")
      std::filesystem::remove(E.path());
    else if (E.path().filename().string().find(".train.") !=
             std::string::npos)
      TrainPath = E.path().string();
  }
  ASSERT_FALSE(TrainPath.empty());
  auto Good = readTextFile(TrainPath);
  ASSERT_TRUE(Good.has_value());
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(*Good, Good->size(), H, nullptr));
  std::vector<TraceSegmentRecord> Segments;
  for (const SegmentedTraceHeader::Entry &Ent : H.Directory) {
    TraceSegmentRecord Rec;
    Rec.Events = Ent.Events;
    Rec.BaseInsts = Ent.BaseInsts;
    Rec.BaseTaken = Ent.BaseTaken;
    Rec.Payload = Good->substr(Ent.PayloadOffset, Ent.PayloadBytes);
    Segments.push_back(std::move(Rec));
  }
  // The receiving block has the same length, so the derived instruction
  // total is intact too.
  SegmentedTraceHeader Nudge = H;
  std::vector<profile::BlockCounters> &Final = Nudge.Final;
  size_t From = 0, To = 0;
  for (; From < Final.size(); ++From) {
    if (Final[From].Use <= Final[From].Taken)
      continue;
    for (To = 0; To < Final.size(); ++To)
      if (To != From && H.Shapes[To].Len == H.Shapes[From].Len)
        break;
    if (To < Final.size())
      break;
  }
  ASSERT_LT(From, Final.size());
  --Final[From].Use;
  ++Final[To].Use;
  const std::string Tampered = assembleSegmentedTrace(Nudge, Segments);
  SegmentedTraceHeader Check;
  ASSERT_TRUE(parseSegmentedHeader(Tampered, Tampered.size(), Check, nullptr));
  ASSERT_TRUE(writeTextFile(TrainPath, Tampered));

  ExperimentContext Ctx(tinyConfig(Dir));
  EXPECT_EQ(profile::printSnapshot(Ctx.train("art")), Expected);
  EXPECT_EQ(Ctx.traceStats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Ctx.traceStats().Misses.load(), 1u);
  EXPECT_EQ(Ctx.traceStats().DiskHits.load(), 1u); // the ref entry
  auto Repaired = readTextFile(TrainPath);
  ASSERT_TRUE(Repaired.has_value());
  EXPECT_EQ(*Repaired, *Good);
  std::filesystem::remove_all(Dir);
}

// A torn or corrupt cache entry must be recomputed, not crash or poison
// the results.
TEST(ExperimentContextTest, CorruptCacheEntryFallsBackToRecompute) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "tpdbt_corrupt_cache_test")
                        .string();
  std::filesystem::remove_all(Dir);

  ExperimentContext Warm(tinyConfig(Dir));
  std::string Expected = profile::printSnapshot(Warm.inip("art", 2000));

  // Corrupt every cached file as a torn-write stand-in.
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    ASSERT_TRUE(writeTextFile(E.path().string(), "tpdbt-profile v1 torn"));

  ExperimentContext Cold(tinyConfig(Dir));
  EXPECT_EQ(profile::printSnapshot(Cold.inip("art", 2000)), Expected);
  EXPECT_GE(Cold.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cold.stats().CacheMisses.load(), 1u);

  // The recomputation must have repaired the cache for the next context.
  ExperimentContext Repaired(tinyConfig(Dir));
  EXPECT_EQ(profile::printSnapshot(Repaired.inip("art", 2000)), Expected);
  EXPECT_EQ(Repaired.stats().CacheHits.load(), 1u);
  std::filesystem::remove_all(Dir);
}
