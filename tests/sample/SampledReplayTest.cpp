//===- tests/sample/SampledReplayTest.cpp - Sampled sweep tests -*- C++ -*-===//

#include "sample/SampledReplay.h"

#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
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
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), {50, 500},
                           dbt::DbtOptions(), stratified(0.25), 0x5eed, 1, S,
                           &Error))
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
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), Thresholds,
                           dbt::DbtOptions(), stratified(0.25), 0x5eed, 1, S,
                           &Error))
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
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), Thresholds,
                             dbt::DbtOptions(), stratified(0.3), 0x1234, Jobs,
                             S, &Error))
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
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), Thresholds, Base,
                             Cfg, Seed, Jobs, S, &Error))
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

namespace {

/// The curve of one view, computed per query the way the estimator once
/// did on every call: the in-view sampled mass before boundary K, summed
/// over the block's decoded segments in ascending order, plus the
/// alpha-calibrated stratum-rate imputation and the uniform fallback.
/// Built from drawSample's public output only.
class CurveOracle {
public:
  CurveOracle(const DrawnSample &D,
              const std::vector<profile::BlockCounters> &Final,
              int ExcludeGroup)
      : D(D) {
    const size_t N = Final.size();
    const size_t S = D.Segments.size();
    const size_t H = D.Plan.NumStrata;
    InView.assign(S, 0);
    std::vector<double> SampledEvents(H, 0.0);
    StratumUnsampled.assign(H * (S + 1), 0.0);
    UnsampledBefore.assign(S + 1, 0.0);
    for (size_t K = 0; K < S; ++K) {
      const size_t Ph = D.Plan.StratumOf[K];
      const bool Sampled =
          D.Plan.IsChosen[K] &&
          (ExcludeGroup < 0 || D.Plan.GroupOf[K] != ExcludeGroup);
      InView[K] = Sampled;
      const double Ev = static_cast<double>(D.Segments[K].Events);
      for (size_t Ph2 = 0; Ph2 < H; ++Ph2)
        StratumUnsampled[Ph2 * (S + 1) + K + 1] =
            StratumUnsampled[Ph2 * (S + 1) + K];
      UnsampledBefore[K + 1] = UnsampledBefore[K];
      if (Sampled) {
        SampledEvents[Ph] += Ev;
      } else {
        StratumUnsampled[Ph * (S + 1) + K + 1] += Ev;
        UnsampledBefore[K + 1] += Ev;
      }
    }
    // Per block: (segment, use, taken) of each decoded segment, in
    // Plan.Chosen (ascending) order.
    Own.resize(N);
    for (size_t C = 0; C < D.Decoded.size(); ++C)
      for (const core::SegmentProfile::Entry &E : D.Decoded[C].Entries)
        Own[E.Block].push_back({D.Plan.Chosen[C], E.Use, E.Taken});
    RateU.assign(N * H, 0.0);
    RateT.assign(N * H, 0.0);
    AlphaU.assign(N, 0.0);
    AlphaT.assign(N, 0.0);
    FbU.assign(N, 0.0);
    FbT.assign(N, 0.0);
    const double TotalUnsampled = S ? UnsampledBefore[S] : 0.0;
    for (size_t B = 0; B < N; ++B) {
      double SeenU = 0.0, SeenT = 0.0;
      for (const Seg &Sg : Own[B]) {
        if (!InView[Sg.Id])
          continue;
        const size_t Ph = D.Plan.StratumOf[Sg.Id];
        RateU[B * H + Ph] += static_cast<double>(Sg.Use);
        RateT[B * H + Ph] += static_cast<double>(Sg.Taken);
        SeenU += static_cast<double>(Sg.Use);
        SeenT += static_cast<double>(Sg.Taken);
      }
      double RawU = 0.0, RawT = 0.0;
      for (size_t Ph = 0; Ph < H; ++Ph) {
        if (SampledEvents[Ph] > 0.0) {
          RateU[B * H + Ph] /= SampledEvents[Ph];
          RateT[B * H + Ph] /= SampledEvents[Ph];
        }
        const double Un = StratumUnsampled[Ph * (S + 1) + S];
        RawU += RateU[B * H + Ph] * Un;
        RawT += RateT[B * H + Ph] * Un;
      }
      const double RemU = static_cast<double>(Final[B].Use) - SeenU;
      const double RemT = static_cast<double>(Final[B].Taken) - SeenT;
      if (RawU > 1e-12)
        AlphaU[B] = RemU / RawU;
      else if (TotalUnsampled > 0.0)
        FbU[B] = RemU / TotalUnsampled;
      if (RawT > 1e-12)
        AlphaT[B] = RemT / RawT;
      else if (TotalUnsampled > 0.0)
        FbT[B] = RemT / TotalUnsampled;
    }
  }

  double cum(size_t B, size_t K, bool Taken) const {
    const size_t S = D.Segments.size();
    const size_t H = D.Plan.NumStrata;
    double C = 0.0;
    for (const Seg &Sg : Own[B])
      if (Sg.Id < K && InView[Sg.Id])
        C += static_cast<double>(Taken ? Sg.Taken : Sg.Use);
    const std::vector<double> &Rate = Taken ? RateT : RateU;
    double Raw = 0.0;
    for (size_t Ph = 0; Ph < H; ++Ph)
      Raw += Rate[B * H + Ph] * StratumUnsampled[Ph * (S + 1) + K];
    return C + (Taken ? AlphaT : AlphaU)[B] * Raw +
           (Taken ? FbT : FbU)[B] * UnsampledBefore[K];
  }

private:
  struct Seg {
    uint32_t Id;
    uint64_t Use, Taken;
  };
  const DrawnSample &D;
  std::vector<uint8_t> InView;
  std::vector<double> StratumUnsampled, UnsampledBefore;
  std::vector<std::vector<Seg>> Own;
  std::vector<double> RateU, RateT, AlphaU, AlphaT, FbU, FbT;
};

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

} // namespace

// Every cell of every view's curve table — full sample and each group,
// every block, every segment boundary, use and taken — must be the very
// double the per-query oracle computes, over several seeds and budgets
// and a single-stratum plan.
TEST(SampledReplayTest, CurveTablesMatchPerQueryCurves) {
  auto B = bench("vpr", 0.02);
  BlockTrace T = BlockTrace::record(B.Ref, 60000);
  const cfg::Cfg G(B.Ref);
  struct Case {
    double Budget;
    unsigned MaxPhases;
  };
  const Case Cases[] = {{0.10, 8}, {0.25, 8}, {1.0, 8}, {0.25, 1}};
  size_t Cells = 0;
  for (const Case &Cs : Cases)
    for (uint64_t Seed : {uint64_t(1), uint64_t(7), uint64_t(0x5eed)}) {
      SampleConfig Cfg = stratified(Cs.Budget);
      Cfg.MaxPhases = Cs.MaxPhases;
      core::SegmentedTraceReader Reader = readerOf(T, 512);
      DrawnSample Drawn;
      std::string Error;
      ASSERT_TRUE(drawSample(Reader, Cfg, Seed, Drawn, &Error)) << Error;
      if (Cs.MaxPhases == 1) {
        ASSERT_EQ(Drawn.Plan.NumStrata, 1u);
      }
      const core::SegmentedTraceHeader &H = Reader.header();
      const Estimator Est(B.Ref, G, Drawn.Segments, H.Final, H.NumEvents,
                          H.TotalInsts, H.takenEvents(), Drawn.Plan,
                          Drawn.Decoded);
      const size_t S = Drawn.Segments.size();
      ASSERT_GT(S, 2u);
      for (int View = -1; View < static_cast<int>(Est.numGroups()); ++View) {
        const Estimator::Curves Table = Est.curves(View);
        const CurveOracle Oracle(Drawn, H.Final, View);
        for (size_t Blk = 0; Blk < H.NumBlocks; ++Blk)
          for (size_t K = 0; K <= S; ++K)
            for (bool Taken : {false, true}) {
              ASSERT_EQ(bitsOf(Table.cum(Blk, K, Taken)),
                        bitsOf(Oracle.cum(Blk, K, Taken)))
                  << "budget " << Cs.Budget << " phases " << Cs.MaxPhases
                  << " seed " << Seed << " view " << View << " block "
                  << Blk << " boundary " << K << " taken " << Taken;
              ++Cells;
            }
      }
    }
  EXPECT_GT(Cells, 0u);
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
    EXPECT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), Thresholds,
                             dbt::DbtOptions(), stratified(Budget), 0x5eed, 1,
                             S, &Error))
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
  ASSERT_TRUE(sampledSweep(Mem, B.Ref, cfg::Cfg(B.Ref), Thresholds,
                           dbt::DbtOptions(), stratified(0.25), 0x77, 1, A,
                           &Error))
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
  ASSERT_TRUE(sampledSweep(Disk, B.Ref, cfg::Cfg(B.Ref), Thresholds,
                           dbt::DbtOptions(), stratified(0.25), 0x77, 1, C,
                           &Error))
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
  EXPECT_FALSE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), {100}, Opts,
                            stratified(0.25), 0x5eed, 1, S, &Error));
  EXPECT_NE(Error.find("adaptive"), std::string::npos);
}

TEST(SampledReplayTest, ZeroEventTrace) {
  auto B = bench("gzip", 0.01);
  BlockTrace T;
  T.setShapes(core::blockShapes(B.Ref));
  core::SegmentedTraceReader Reader = readerOf(T, 512);
  SampledSweep S;
  std::string Error;
  ASSERT_TRUE(sampledSweep(Reader, B.Ref, cfg::Cfg(B.Ref), {100},
                           dbt::DbtOptions(), stratified(0.25), 0x5eed, 1, S,
                           &Error))
      << Error;
  EXPECT_EQ(S.Stats.Segments, 0u);
  EXPECT_EQ(S.PerThreshold[0].ProfilingOps, 0u);
}
