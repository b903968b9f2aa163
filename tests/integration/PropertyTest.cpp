//===- tests/integration/PropertyTest.cpp - Parameterized sweeps -*- C++ -*-===//
//
// Property-style TEST_P sweeps over the whole benchmark suite and the
// threshold axis: structural invariants that must hold for every
// benchmark and every configuration, not just the hand-picked cases of
// the unit tests.
//
//===----------------------------------------------------------------------===//

#include "analysis/Metrics.h"
#include "analysis/Navep.h"
#include "core/Runner.h"
#include "dbt/DbtEngine.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <map>

using namespace tpdbt;
using namespace tpdbt::workloads;

namespace {

std::vector<std::string> allBenchmarkNames() {
  std::vector<std::string> Names;
  for (const BenchSpec &S : spec2000Suite())
    Names.push_back(S.Name);
  return Names;
}

/// One scaled-down sweep per benchmark, shared by every property.
struct BenchData {
  GeneratedBenchmark B;
  std::unique_ptr<cfg::Cfg> G;
  core::SweepResult Sweep;
};

const BenchData &dataFor(const std::string &Name) {
  static std::map<std::string, BenchData> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  BenchData D;
  D.B = generateBenchmark(scaledSpec(*findSpec(Name), 0.02));
  D.G = std::make_unique<cfg::Cfg>(D.B.Ref);
  D.Sweep = core::runSweep(D.B.Ref, {100, 2000, 40000}, dbt::DbtOptions(),
                           ~0ull);
  return Cache.emplace(Name, std::move(D)).first->second;
}

} // namespace

class SuitePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuitePropertyTest, ProgramVerifiesAndHalts) {
  const BenchData &D = dataFor(GetParam());
  std::vector<std::string> Errors;
  EXPECT_TRUE(guest::verifyProgram(D.B.Ref, &Errors));
  EXPECT_TRUE(guest::verifyProgram(D.B.Train, &Errors));
  EXPECT_TRUE(Errors.empty());

  vm::Interpreter I(D.B.Ref);
  vm::Machine M;
  M.reset(D.B.Ref);
  EXPECT_EQ(I.run(M, D.B.Spec.MaxBlockEvents).Reason,
            vm::StopReason::Halted);
}

TEST_P(SuitePropertyTest, AvepCountersConserveFlow) {
  // Flow conservation: each block's use count equals the traversals of
  // its incoming edges (plus one for the program entry). Edge traversals
  // derive from the predecessors' use/taken counters.
  const BenchData &D = dataFor(GetParam());
  const auto &Avep = D.Sweep.Average;
  const cfg::Cfg &G = *D.G;

  for (guest::BlockId B = 0; B < G.numBlocks(); ++B) {
    if (!G.isReachable(B))
      continue;
    uint64_t Inflow = B == G.entry() ? 1 : 0;
    for (guest::BlockId Pred : G.predecessors(B)) {
      const auto &C = Avep.Blocks[Pred];
      if (!G.hasCondBranch(Pred)) {
        Inflow += C.Use;
      } else if (G.takenTarget(Pred) == B) {
        Inflow += C.Taken;
      } else {
        Inflow += C.Use - C.Taken;
      }
    }
    EXPECT_EQ(Avep.Blocks[B].Use, Inflow) << GetParam() << " block " << B;
  }
}

TEST_P(SuitePropertyTest, TakenNeverExceedsUse) {
  const BenchData &D = dataFor(GetParam());
  for (const auto &Snap : D.Sweep.PerThreshold)
    for (const auto &C : Snap.Blocks)
      EXPECT_LE(C.Taken, C.Use);
  for (const auto &C : D.Sweep.Average.Blocks)
    EXPECT_LE(C.Taken, C.Use);
}

TEST_P(SuitePropertyTest, InipInvariantsAtEveryThreshold) {
  const BenchData &D = dataFor(GetParam());
  const std::vector<uint64_t> Thresholds = {100, 2000, 40000};
  for (size_t TI = 0; TI < Thresholds.size(); ++TI) {
    uint64_t T = Thresholds[TI];
    const auto &Inip = D.Sweep.PerThreshold[TI];
    const auto &Avep = D.Sweep.Average;

    std::vector<bool> InRegion(Inip.Blocks.size(), false);
    for (const auto &R : Inip.Regions) {
      std::string Err;
      EXPECT_TRUE(R.verify(&Err)) << Err;
      for (const auto &N : R.Nodes) {
        InRegion[N.Orig] = true;
        // Region members froze warm-or-hot: use in [T/2, 2T].
        EXPECT_GE(Inip.Blocks[N.Orig].Use, T / 2)
            << GetParam() << " T=" << T;
        EXPECT_LE(Inip.Blocks[N.Orig].Use, 2 * T);
      }
      // Entries are candidates: [T, 2T] exactly (paper Section 2).
      EXPECT_GE(Inip.Blocks[R.entryBlock()].Use, T);
    }
    // Blocks outside every region carry end-of-run counts: identical to
    // AVEP (paper Section 2).
    for (size_t B = 0; B < Inip.Blocks.size(); ++B) {
      if (InRegion[B])
        continue;
      EXPECT_EQ(Inip.Blocks[B].Use, Avep.Blocks[B].Use)
          << GetParam() << " T=" << T << " block " << B;
      EXPECT_EQ(Inip.Blocks[B].Taken, Avep.Blocks[B].Taken);
    }
    // Profiling ops shrink monotonically with smaller thresholds.
    if (TI > 0) {
      EXPECT_LE(D.Sweep.PerThreshold[TI - 1].ProfilingOps,
                Inip.ProfilingOps);
    }
    EXPECT_LE(Inip.ProfilingOps, Avep.ProfilingOps);
  }
}

TEST_P(SuitePropertyTest, MetricsAreProbabilityLike) {
  const BenchData &D = dataFor(GetParam());
  const auto &Avep = D.Sweep.Average;
  for (const auto &Inip : D.Sweep.PerThreshold) {
    for (double V :
         {analysis::sdBranchProb(Inip, Avep, *D.G),
          analysis::bpMismatchRate(Inip, Avep, *D.G),
          analysis::sdCompletionProb(Inip, Avep, *D.G),
          analysis::sdLoopBackProb(Inip, Avep, *D.G),
          analysis::lpMismatchRate(Inip, Avep, *D.G)}) {
      EXPECT_GE(V, 0.0);
      EXPECT_LE(V, 1.0);
    }
  }
  // Self-comparison is exactly zero.
  EXPECT_EQ(analysis::sdBranchProb(Avep, Avep, *D.G), 0.0);
  EXPECT_EQ(analysis::bpMismatchRate(Avep, Avep, *D.G), 0.0);
}

TEST_P(SuitePropertyTest, NavepConservesAndMatchesBlockLevelSd) {
  const BenchData &D = dataFor(GetParam());
  const auto &Inip = D.Sweep.PerThreshold[1]; // T = 2000
  const auto &Avep = D.Sweep.Average;
  analysis::Navep N = analysis::buildNavep(Inip, Avep, *D.G);

  // Frequency conservation within 5% for warm blocks.
  for (guest::BlockId B = 0; B < D.G->numBlocks(); ++B) {
    double Expected = static_cast<double>(Avep.Blocks[B].Use);
    if (Expected < 5000)
      continue;
    EXPECT_NEAR(N.totalFreq(B) / Expected, 1.0, 0.05)
        << GetParam() << " block " << B;
  }
  // Section 3.1 collapse property: copy-weighted Sd.BP equals the
  // block-level Sd.BP up to the solve's conservation error.
  double Direct = analysis::sdBranchProb(Inip, Avep, *D.G);
  double ViaNavep = analysis::sdBranchProbNavep(Inip, Avep, *D.G, N);
  EXPECT_NEAR(ViaNavep, Direct, 0.02) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuitePropertyTest,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const auto &Info) { return Info.param; });

// --- Engine/sweep equivalence across thresholds --------------------------

class ThresholdEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ThresholdEquivalenceTest, SweepMatchesEngine) {
  // One policy driven alongside others must behave exactly like a
  // dedicated engine run at the same threshold.
  const BenchData &D = dataFor("twolf");
  uint64_t T = GetParam();
  core::SweepResult Sweep =
      core::runSweep(D.B.Ref, {T, 777}, dbt::DbtOptions(), ~0ull);
  dbt::DbtOptions Opts;
  Opts.Threshold = T;
  dbt::DbtEngine Engine(D.B.Ref, Opts);
  EXPECT_EQ(profile::printSnapshot(Sweep.PerThreshold[0]),
            profile::printSnapshot(Engine.run(~0ull)));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdEquivalenceTest,
                         ::testing::Values(1, 50, 100, 500, 2000, 10000,
                                           100000));
