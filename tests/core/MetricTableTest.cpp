//===- tests/core/MetricTableTest.cpp - Per-benchmark metric table -*- C++ -*-===//
//
// Every MetricTable cell must be bit-identical to the analysis:: call on
// the snapshot it summarizes: the table only moves where the figure
// metrics are computed, never what they are.
//
//===----------------------------------------------------------------------===//

#include "analysis/Metrics.h"
#include "analysis/OfflineRegions.h"
#include "core/Figures.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

using MetricFn = double (*)(const profile::ProfileSnapshot &,
                            const profile::ProfileSnapshot &,
                            const cfg::Cfg &);

struct KindCase {
  MetricKind Kind;
  MetricFn Fn;
  /// Region metrics score INIP(train) over offline-formed regions.
  bool Region;
};

const KindCase Kinds[] = {
    {MetricKind::SdBp, analysis::sdBranchProb, false},
    {MetricKind::BpMismatch, analysis::bpMismatchRate, false},
    {MetricKind::SdCp, analysis::sdCompletionProb, true},
    {MetricKind::SdLp, analysis::sdLoopBackProb, true},
    {MetricKind::LpMismatch, analysis::lpMismatchRate, true},
};

uint64_t bits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof B);
  return B;
}

ExperimentConfig smallConfig() {
  ExperimentConfig C; // every performance threshold
  C.Scale = 0.01;
  C.CacheDir.clear();
  C.Jobs = 2;
  return C;
}

/// Checks every point, replicate and train cell of \p Name's table
/// against the direct metric call, bit for bit.
void expectTableIsDirect(ExperimentContext &Ctx, const std::string &Name) {
  const MetricTable &M = Ctx.metrics(Name);
  const std::vector<uint64_t> &Ts = Ctx.config().Thresholds;
  ASSERT_EQ(M.NumThresholds, Ts.size());
  const profile::ProfileSnapshot &Avep = Ctx.avep(Name);
  const profile::ProfileSnapshot &Train = Ctx.train(Name);
  const cfg::Cfg &G = Ctx.graph(Name);
  const profile::ProfileSnapshot TrainRegions = analysis::withOfflineRegions(
      Train, G, Ctx.config().Dbt.Formation, /*MinUse=*/2000);
  const SampledProfiles *SP = Ctx.sampled(Name);
  ASSERT_EQ(M.NumGroups, SP ? SP->Replicates.size() : 0u);

  for (const KindCase &K : Kinds) {
    for (size_t T = 0; T < Ts.size(); ++T) {
      EXPECT_EQ(bits(M.point(K.Kind, T)),
                bits(K.Fn(Ctx.inip(Name, Ts[T]), Avep, G)))
          << Name << " kind " << int(K.Kind) << " T=" << Ts[T];
      EXPECT_EQ(bits(metricInip(Ctx, Name, Ts[T], K.Kind)),
                bits(M.point(K.Kind, T)));
    }
    for (size_t Gr = 0; Gr < M.NumGroups; ++Gr)
      for (size_t T = 0; T < Ts.size(); ++T)
        EXPECT_EQ(bits(M.replicate(K.Kind, Gr, T)),
                  bits(K.Fn(SP->Replicates[Gr][T], Avep, G)))
            << Name << " kind " << int(K.Kind) << " group " << Gr
            << " T=" << Ts[T];
    EXPECT_EQ(bits(M.train(K.Kind)),
              bits(K.Fn(K.Region ? TrainRegions : Train, Avep, G)))
        << Name << " kind " << int(K.Kind);
    EXPECT_EQ(bits(metricTrain(Ctx, Name, K.Kind)), bits(M.train(K.Kind)));
  }
}

} // namespace

TEST(MetricTableTest, ExactCellsMatchDirectMetrics) {
  ExperimentContext Ctx(smallConfig());
  ASSERT_FALSE(Ctx.sampling());
  Ctx.warmUp({"gzip", "swim"});
  for (const char *Name : {"gzip", "swim"}) {
    expectTableIsDirect(Ctx, Name);
    EXPECT_TRUE(Ctx.metrics(Name).Replicates.empty());
  }
}

TEST(MetricTableTest, SampledCellsMatchDirectMetrics) {
  // Tiny-scale traces fit in one default-size segment; slice finer so the
  // sample spans enough segments to form jackknife groups.
  setenv("TPDBT_SEGMENT_EVENTS", "1024", 1);
  ExperimentConfig C = smallConfig();
  C.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  C.Sample.BudgetFrac = 0.25;
  ExperimentContext Ctx(C);
  ASSERT_TRUE(Ctx.sampling());
  Ctx.warmUp({"gzip", "swim"});
  for (const char *Name : {"gzip", "swim"}) {
    EXPECT_GE(Ctx.metrics(Name).NumGroups, 2u) << Name;
    expectTableIsDirect(Ctx, Name);
  }
  unsetenv("TPDBT_SEGMENT_EVENTS");
}
