//===- tests/sample/SampledReplayTest.cpp - Sampled sweep tests -*- C++ -*-===//

#include "sample/SampledReplay.h"

#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::sample;
using core::BlockTrace;
using core::SweepResult;

namespace {

workloads::GeneratedBenchmark bench(const char *Name, double Scale) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), Scale));
}

SampleConfig stratified(double Budget) {
  SampleConfig C;
  C.Kind = SampleConfig::Mode::Stratified;
  C.BudgetFrac = Budget;
  return C;
}

/// Finite-population-corrected jackknife half-width over one metric of
/// the replicates — the same estimator core/Figures uses.
double halfWidth(const SampledSweep &S, size_t T,
                 double (*Metric)(const profile::ProfileSnapshot &)) {
  std::vector<double> Vals;
  for (const auto &Rep : S.Replicates)
    Vals.push_back(Metric(Rep[T]));
  return jackknife95(Vals, S.Stats.sampledFraction());
}

/// A bytes-backed reader over \p T's container at \p Budget events per
/// segment: what a diskless sampled run reads.
core::SegmentedTraceReader readerOf(const BlockTrace &T, uint64_t Budget) {
  core::SegmentedTraceReader R;
  std::string Error;
  EXPECT_TRUE(core::SegmentedTraceReader::openBytes(T.serializeSegmented(Budget),
                                                    R, &Error))
      << Error;
  return R;
}

double profilingOps(const profile::ProfileSnapshot &S) {
  return static_cast<double>(S.ProfilingOps);
}

} // namespace

TEST(SampledReplayTest, AverageIsExact) {
  auto B = bench("gzip", 0.02);
  BlockTrace T = BlockTrace::record(B.Ref, 300000);
  ASSERT_GT(T.numEvents(), 5000u);
  SweepResult Exact = replaySweep(T, B.Ref, {50, 500}, dbt::DbtOptions());

  core::SegmentedTraceReader Reader = readerOf(T, 512);
  SampledSweep S;
  std::string Error;
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, {50, 500}, dbt::DbtOptions(),
                           stratified(0.25), 0x5eed, 1, S, &Error))
      << Error;
  // The profiling-only average depends only on stream totals and the
  // final counter table — the sampled path reproduces it byte for byte.
  EXPECT_EQ(profile::printSnapshot(S.Average),
            profile::printSnapshot(Exact.Average));
}

TEST(SampledReplayTest, EstimatesCoverExactValues) {
  auto B = bench("gzip", 0.05);
  BlockTrace T = BlockTrace::record(B.Ref, 2000000);
  ASSERT_GT(T.numEvents(), 50000u);
  const std::vector<uint64_t> Thresholds = {10, 50, 200, 1000};
  SweepResult Exact = replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions());

  core::SegmentedTraceReader Reader = readerOf(T, 1024);
  SampledSweep S;
  std::string Error;
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, Thresholds, dbt::DbtOptions(),
                           stratified(0.25), 0x5eed, 1, S, &Error))
      << Error;
  ASSERT_EQ(S.PerThreshold.size(), Thresholds.size());
  EXPECT_LT(S.Stats.Decoded, S.Stats.Segments);
  EXPECT_GE(S.Replicates.size(), 2u);

  for (size_t I = 0; I < Thresholds.size(); ++I) {
    const double ExactOps =
        static_cast<double>(Exact.PerThreshold[I].ProfilingOps);
    const double Est =
        static_cast<double>(S.PerThreshold[I].ProfilingOps);
    const double Half = halfWidth(S, I, profilingOps);
    // CI coverage with the same model-bias guard core/Figures stacks on
    // the jackknife width: placement bias the jackknife cannot see is
    // bounded by ~5% of the value at quarter budget, scaled by the
    // unsampled fraction (docs/ARCHITECTURE.md, "Approximate replay").
    const double Guard =
        0.05 * (1.0 - S.Stats.sampledFraction()) / 0.75;
    const double Slack = Guard * ExactOps + 1.0;
    EXPECT_LE(std::fabs(Est - ExactOps), Half + Slack)
        << "T=" << Thresholds[I] << " exact=" << ExactOps
        << " est=" << Est << " half=" << Half;
  }
}

TEST(SampledReplayTest, DeterministicAcrossJobCounts) {
  auto B = bench("vpr", 0.02);
  BlockTrace T = BlockTrace::record(B.Ref, 300000);
  const std::vector<uint64_t> Thresholds = {10, 100, 1000};

  auto run = [&](unsigned Jobs) {
    core::SegmentedTraceReader Reader = readerOf(T, 512);
    SampledSweep S;
    std::string Error;
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, Thresholds, dbt::DbtOptions(),
                             stratified(0.3), 0x1234, Jobs, S, &Error))
        << Error;
    return S;
  };
  SampledSweep A = run(1), C = run(8);
  ASSERT_EQ(A.PerThreshold.size(), C.PerThreshold.size());
  for (size_t I = 0; I < A.PerThreshold.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(A.PerThreshold[I]),
              profile::printSnapshot(C.PerThreshold[I]));
  ASSERT_EQ(A.Replicates.size(), C.Replicates.size());
  for (size_t G = 0; G < A.Replicates.size(); ++G)
    for (size_t I = 0; I < A.Replicates[G].size(); ++I)
      EXPECT_EQ(profile::printSnapshot(A.Replicates[G][I]),
                profile::printSnapshot(C.Replicates[G][I]));
}

// sampledSweep builds each jackknife view's curves once and shares them
// across thresholds. The oracle below builds a fresh view for every
// (threshold, group) unit over the same draw; points and replicates must
// match it, and each other at Jobs 1 and 4, byte for byte.
TEST(SampledReplayTest, SharedViewsMatchPerUnitViews) {
  auto B = bench("vpr", 0.02);
  BlockTrace T = BlockTrace::record(B.Ref, 300000);
  const std::vector<uint64_t> Thresholds = {10, 100, 100, 1000, 5000};
  const SampleConfig Cfg = stratified(0.3);
  const uint64_t Seed = 0x1234;
  const dbt::DbtOptions Base;

  auto run = [&](unsigned Jobs) {
    core::SegmentedTraceReader Reader = readerOf(T, 512);
    SampledSweep S;
    std::string Error;
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, Thresholds, Base, Cfg, Seed,
                             Jobs, S, &Error))
        << Error;
    return S;
  };
  const SampledSweep Serial = run(1), Parallel = run(4);

  core::SegmentedTraceReader Reader = readerOf(T, 512);
  DrawnSample Drawn;
  std::string Error;
  ASSERT_TRUE(drawSample(Reader, Cfg, Seed, Drawn, &Error)) << Error;
  const core::SegmentedTraceHeader &H = Reader.header();
  const cfg::Cfg G(B.Ref);
  const Estimator Est(B.Ref, G, Drawn.Segments, H.Final, H.NumEvents,
                      H.TotalInsts, H.takenEvents(), Drawn.Plan,
                      Drawn.Decoded);
  ASSERT_GE(Est.numGroups(), 2u);

  for (const SampledSweep *S : {&Serial, &Parallel}) {
    ASSERT_EQ(S->PerThreshold.size(), Thresholds.size());
    ASSERT_EQ(S->Replicates.size(), Est.numGroups());
  }
  for (size_t I = 0; I < Thresholds.size(); ++I) {
    FreezeInfo Info;
    const std::string Point = profile::printSnapshot(
        Est.estimate(Base, Thresholds[I], Est.curves(-1), &Info));
    EXPECT_EQ(profile::printSnapshot(Serial.PerThreshold[I]), Point);
    EXPECT_EQ(profile::printSnapshot(Parallel.PerThreshold[I]), Point);
    for (uint32_t Gr = 0; Gr < Est.numGroups(); ++Gr) {
      const std::string Rep = profile::printSnapshot(Est.replicate(
          Base, Thresholds[I], Info, Est.curves(static_cast<int>(Gr))));
      EXPECT_EQ(profile::printSnapshot(Serial.Replicates[Gr][I]), Rep)
          << "T=" << Thresholds[I] << " group " << Gr;
      EXPECT_EQ(profile::printSnapshot(Parallel.Replicates[Gr][I]), Rep)
          << "T=" << Thresholds[I] << " group " << Gr;
    }
  }
}

TEST(SampledReplayTest, WiderBudgetNarrowsIntervals) {
  auto B = bench("art", 0.05);
  BlockTrace T = BlockTrace::record(B.Ref, 2000000);
  ASSERT_GT(T.numEvents(), 50000u);
  const std::vector<uint64_t> Thresholds = {10, 50, 200, 1000};

  auto widthAt = [&](double Budget) {
    core::SegmentedTraceReader Reader = readerOf(T, 1024);
    SampledSweep S;
    std::string Error;
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, Thresholds, dbt::DbtOptions(),
                             stratified(Budget), 0x5eed, 1, S, &Error))
        << Error;
    double Sum = 0.0;
    for (size_t I = 0; I < Thresholds.size(); ++I)
      Sum += halfWidth(S, I, profilingOps);
    return Sum;
  };
  // Summed over thresholds to damp per-cell noise; a 4x budget should
  // never widen the aggregate interval.
  EXPECT_LE(widthAt(0.4), widthAt(0.1) * 1.05);
}

TEST(SampledReplayTest, DiskAndMemorySourcesAgree) {
  auto B = bench("swim", 0.02);
  BlockTrace T = BlockTrace::record(B.Ref, 300000);
  ASSERT_GT(T.numEvents(), 5000u);
  const uint64_t Budget = 512;
  const std::vector<uint64_t> Thresholds = {20, 200};

  core::SegmentedTraceReader Mem = readerOf(T, Budget);
  SampledSweep A;
  std::string Error;
  ASSERT_TRUE(sampledSweep(Mem, B.Ref, Thresholds, dbt::DbtOptions(),
                           stratified(0.25), 0x77, 1, A, &Error))
      << Error;

  const std::string Path = (std::filesystem::temp_directory_path() /
                            ("tpdbt_sample_disk_" +
                             std::to_string(getpid()) + ".trace"))
                               .string();
  {
    std::ofstream Out(Path, std::ios::binary);
    const std::string Bytes = T.serializeSegmented(Budget);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  core::SegmentedTraceReader Disk;
  ASSERT_TRUE(core::SegmentedTraceReader::open(Path, Disk, &Error))
      << Error;
  SampledSweep C;
  ASSERT_TRUE(sampledSweep(Disk, B.Ref, Thresholds, dbt::DbtOptions(),
                           stratified(0.25), 0x77, 1, C, &Error))
      << Error;

  // Every segment folds to the same per-block profile from either reader.
  ASSERT_EQ(Mem.numSegments(), Disk.numSegments());
  for (size_t I = 0; I < Mem.numSegments(); ++I) {
    std::vector<profile::BlockCounters> FromMem(T.numBlocks()),
        FromDisk(T.numBlocks());
    ASSERT_TRUE(Mem.readSegment(I, nullptr, &FromMem, &Error)) << Error;
    ASSERT_TRUE(Disk.readSegment(I, nullptr, &FromDisk, &Error)) << Error;
    for (size_t Blk = 0; Blk < FromMem.size(); ++Blk) {
      ASSERT_EQ(FromMem[Blk].Use, FromDisk[Blk].Use) << I << "/" << Blk;
      ASSERT_EQ(FromMem[Blk].Taken, FromDisk[Blk].Taken) << I << "/" << Blk;
    }
  }
  std::filesystem::remove(Path);

  // Same budget, same seed: the bytes-backed (diskless) and file-backed
  // (warm) readers see identical segment statistics, draw the same
  // sample, and estimate byte-identical snapshots and replicates.
  EXPECT_EQ(A.Stats.Segments, C.Stats.Segments);
  EXPECT_EQ(A.Stats.Decoded, C.Stats.Decoded);
  EXPECT_EQ(A.Stats.DecodedEvents, C.Stats.DecodedEvents);
  EXPECT_EQ(A.Stats.Strata, C.Stats.Strata);
  EXPECT_EQ(A.Stats.Groups, C.Stats.Groups);
  for (size_t I = 0; I < Thresholds.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(A.PerThreshold[I]),
              profile::printSnapshot(C.PerThreshold[I]));
  EXPECT_EQ(profile::printSnapshot(A.Average),
            profile::printSnapshot(C.Average));
  ASSERT_EQ(A.Replicates.size(), C.Replicates.size());
  for (size_t G = 0; G < A.Replicates.size(); ++G)
    for (size_t I = 0; I < Thresholds.size(); ++I)
      EXPECT_EQ(profile::printSnapshot(A.Replicates[G][I]),
                profile::printSnapshot(C.Replicates[G][I]));
}

TEST(SampledReplayTest, RejectsAdaptivePolicies) {
  auto B = bench("gzip", 0.01);
  BlockTrace T = BlockTrace::record(B.Ref, 50000);
  core::SegmentedTraceReader Reader = readerOf(T, 512);
  dbt::DbtOptions Opts;
  Opts.Adaptive.Enabled = true;
  SampledSweep S;
  std::string Error;
  EXPECT_FALSE(sampledSweep(Reader, B.Ref, {100}, Opts, stratified(0.25),
                            0x5eed, 1, S, &Error));
  EXPECT_NE(Error.find("adaptive"), std::string::npos);
}

TEST(SampledReplayTest, ZeroEventTrace) {
  auto B = bench("gzip", 0.01);
  BlockTrace T;
  T.setShapes(core::blockShapes(B.Ref));
  core::SegmentedTraceReader Reader = readerOf(T, 512);
  SampledSweep S;
  std::string Error;
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, {100}, dbt::DbtOptions(),
                           stratified(0.25), 0x5eed, 1, S, &Error))
      << Error;
  EXPECT_EQ(S.Stats.Segments, 0u);
  EXPECT_EQ(S.PerThreshold[0].ProfilingOps, 0u);
}
