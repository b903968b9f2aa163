//===- tests/core/MetricTableTest.cpp - Per-benchmark metric table -*- C++ -*-===//
//
// The metric pass (analysis::accuracyMetrics) against an independent
// oracle: the five per-metric loops, one walk per metric, kept here. Every
// MetricTable cell, and the pass on every snapshot of the suite, must
// equal the oracle bit for bit: the pass only shares work between the
// metrics, never changes what they are.
//
//===----------------------------------------------------------------------===//

#include "analysis/Metrics.h"
#include "analysis/OfflineRegions.h"
#include "analysis/RegionProb.h"
#include "core/Figures.h"
#include "support/Statistics.h"
#include "workloads/BenchSpec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

using namespace tpdbt;
using namespace tpdbt::core;
using profile::ProfileSnapshot;
using region::Region;
using region::RegionKind;

namespace {
namespace oracle {

/// Visits every block that ends in a two-target conditional branch and
/// executed in both snapshots, passing (PredProb, AvepProb, AvepWeight).
template <typename FnT>
void forEachComparableBranch(const ProfileSnapshot &Pred,
                             const ProfileSnapshot &Avep, const cfg::Cfg &G,
                             FnT &&Fn) {
  for (size_t B = 0; B < Pred.Blocks.size(); ++B) {
    if (!G.hasCondBranch(static_cast<guest::BlockId>(B)))
      continue;
    const uint64_t PredUse = Pred.Blocks[B].Use;
    const uint64_t AvepUse = Avep.Blocks[B].Use;
    if (PredUse == 0 || AvepUse == 0)
      continue;
    Fn(Pred.Blocks[B].takenProb(), Avep.Blocks[B].takenProb(),
       static_cast<double>(AvepUse));
  }
}

std::vector<double> takenProbs(const ProfileSnapshot &S) {
  std::vector<double> P(S.Blocks.size(), 0.0);
  for (size_t B = 0; B < S.Blocks.size(); ++B)
    P[B] = S.Blocks[B].takenProb();
  return P;
}

/// Visits every region of kind \p Kind with (probability under INIP
/// probabilities, under AVEP probabilities, AVEP entry weight).
template <typename FnT>
void forEachRegionProb(const ProfileSnapshot &Inip,
                       const ProfileSnapshot &Avep, RegionKind Kind,
                       FnT &&Fn) {
  const std::vector<double> PT = takenProbs(Inip);
  const std::vector<double> PM = takenProbs(Avep);
  for (const Region &R : Inip.Regions) {
    if (R.Kind != Kind)
      continue;
    const double W = static_cast<double>(Avep.Blocks[R.entryBlock()].Use);
    if (Kind == RegionKind::NonLoop)
      Fn(analysis::completionProb(R, PT), analysis::completionProb(R, PM), W);
    else
      Fn(analysis::loopBackProb(R, PT), analysis::loopBackProb(R, PM), W);
  }
}

double sdBranchProb(const ProfileSnapshot &Pred, const ProfileSnapshot &Avep,
                    const cfg::Cfg &G) {
  WeightedDeviation Dev;
  forEachComparableBranch(Pred, Avep, G, [&](double BT, double BM, double W) {
    Dev.add(BT, BM, W);
  });
  return Dev.deviation();
}

double bpMismatchRate(const ProfileSnapshot &Pred,
                      const ProfileSnapshot &Avep, const cfg::Cfg &G) {
  WeightedMismatch Mis;
  forEachComparableBranch(Pred, Avep, G, [&](double BT, double BM, double W) {
    Mis.add(analysis::classifyBp(BT) != analysis::classifyBp(BM), W);
  });
  return Mis.rate();
}

double sdCompletionProb(const ProfileSnapshot &Inip,
                        const ProfileSnapshot &Avep, const cfg::Cfg &) {
  WeightedDeviation Dev;
  forEachRegionProb(Inip, Avep, RegionKind::NonLoop,
                    [&](double CT, double CM, double W) { Dev.add(CT, CM, W); });
  return Dev.deviation();
}

double sdLoopBackProb(const ProfileSnapshot &Inip,
                      const ProfileSnapshot &Avep, const cfg::Cfg &) {
  WeightedDeviation Dev;
  forEachRegionProb(Inip, Avep, RegionKind::Loop,
                    [&](double LT, double LM, double W) { Dev.add(LT, LM, W); });
  return Dev.deviation();
}

double lpMismatchRate(const ProfileSnapshot &Inip,
                      const ProfileSnapshot &Avep, const cfg::Cfg &) {
  WeightedMismatch Mis;
  forEachRegionProb(Inip, Avep, RegionKind::Loop,
                    [&](double LT, double LM, double W) {
                      Mis.add(analysis::classifyTrip(LT) !=
                                  analysis::classifyTrip(LM),
                              W);
                    });
  return Mis.rate();
}

} // namespace oracle

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
    {MetricKind::SdBp, oracle::sdBranchProb, false},
    {MetricKind::BpMismatch, oracle::bpMismatchRate, false},
    {MetricKind::SdCp, oracle::sdCompletionProb, true},
    {MetricKind::SdLp, oracle::sdLoopBackProb, true},
    {MetricKind::LpMismatch, oracle::lpMismatchRate, true},
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
/// against the oracle, bit for bit.
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

// The pass itself, field by field, against the oracle on every threshold
// snapshot of every program (and on AVEP against itself), plus the
// single-metric wrappers over it.
TEST(MetricTableTest, PassMatchesPerMetricLoopsOnTheSuite) {
  ExperimentContext Ctx(smallConfig());
  std::vector<std::string> Names;
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite())
    Names.push_back(Spec.Name);
  ASSERT_EQ(Names.size(), 26u);
  Ctx.warmUp(Names);
  size_t Snapshots = 0;
  for (const std::string &Name : Names) {
    const ProfileSnapshot &Avep = Ctx.avep(Name);
    const cfg::Cfg &G = Ctx.graph(Name);
    std::vector<const ProfileSnapshot *> Preds = {&Avep};
    for (uint64_t T : Ctx.config().Thresholds)
      Preds.push_back(&Ctx.inip(Name, T));
    for (const ProfileSnapshot *Pred : Preds) {
      const analysis::AccuracyMetrics A =
          analysis::accuracyMetrics(*Pred, Avep, G);
      const double Pass[] = {A.SdBp, A.BpMismatch, A.SdCp, A.SdLp,
                             A.LpMismatch};
      const double Wrapper[] = {analysis::sdBranchProb(*Pred, Avep, G),
                                analysis::bpMismatchRate(*Pred, Avep, G),
                                analysis::sdCompletionProb(*Pred, Avep, G),
                                analysis::sdLoopBackProb(*Pred, Avep, G),
                                analysis::lpMismatchRate(*Pred, Avep, G)};
      for (const KindCase &K : Kinds) {
        const size_t I = static_cast<size_t>(K.Kind);
        const uint64_t Want = bits(K.Fn(*Pred, Avep, G));
        EXPECT_EQ(bits(Pass[I]), Want)
            << Name << " snapshot " << Snapshots << " kind " << I;
        EXPECT_EQ(bits(Wrapper[I]), Want)
            << Name << " snapshot " << Snapshots << " kind " << I;
      }
      ++Snapshots;
    }
  }
  EXPECT_EQ(Snapshots, 26u * (1 + Ctx.config().Thresholds.size()));
}
