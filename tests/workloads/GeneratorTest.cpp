//===- tests/workloads/GeneratorTest.cpp - Generator tests ------*- C++ -*-===//

#include "workloads/Generator.h"

#include "cfg/Cfg.h"
#include "dbt/DbtEngine.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::workloads;

namespace {

GeneratedBenchmark smallBench(const char *Name, double Scale = 0.01) {
  const BenchSpec *Spec = findSpec(Name);
  EXPECT_NE(Spec, nullptr);
  return generateBenchmark(scaledSpec(*Spec, Scale));
}

} // namespace

TEST(GeneratorTest, ProgramsVerify) {
  for (const BenchSpec &Spec : spec2000Suite()) {
    GeneratedBenchmark B = generateBenchmark(scaledSpec(Spec, 0.01));
    std::vector<std::string> Errors;
    EXPECT_TRUE(guest::verifyProgram(B.Ref, &Errors)) << Spec.Name;
    EXPECT_TRUE(guest::verifyProgram(B.Train, &Errors)) << Spec.Name;
    EXPECT_TRUE(Errors.empty());
  }
}

TEST(GeneratorTest, RefAndTrainShareCode) {
  GeneratedBenchmark B = smallBench("gzip");
  // Identical blocks, different initial memory: the study requires the
  // training run to cover the same static code.
  ASSERT_EQ(B.Ref.numBlocks(), B.Train.numBlocks());
  EXPECT_EQ(B.Ref.Entry, B.Train.Entry);
  EXPECT_EQ(guest::disassemble(B.Ref), guest::disassemble(B.Train));
  EXPECT_NE(B.Ref.InitialMem, B.Train.InitialMem);
}

TEST(GeneratorTest, Deterministic) {
  GeneratedBenchmark A = smallBench("mcf");
  GeneratedBenchmark B = smallBench("mcf");
  EXPECT_EQ(guest::disassemble(A.Ref), guest::disassemble(B.Ref));
  EXPECT_EQ(A.Ref.InitialMem, B.Ref.InitialMem);
  EXPECT_EQ(A.Train.InitialMem, B.Train.InitialMem);
}

TEST(GeneratorTest, DifferentBenchmarksDiffer) {
  GeneratedBenchmark A = smallBench("swim");
  GeneratedBenchmark B = smallBench("applu");
  EXPECT_NE(guest::disassemble(A.Ref), guest::disassemble(B.Ref));
}

TEST(GeneratorTest, RunsToCompletion) {
  GeneratedBenchmark B = smallBench("equake");
  vm::Machine M;
  M.reset(B.Ref);
  vm::Interpreter I(B.Ref);
  vm::RunOutcome Out = I.run(M, 100000000);
  EXPECT_EQ(Out.Reason, vm::StopReason::Halted);
  EXPECT_GT(Out.BlocksExecuted, 1000u);
}

TEST(GeneratorTest, TrainRunIsShorter) {
  GeneratedBenchmark B = smallBench("vortex");
  vm::Interpreter IR(B.Ref), IT(B.Train);
  vm::Machine MR, MT;
  MR.reset(B.Ref);
  MT.reset(B.Train);
  uint64_t RefBlocks = IR.run(MR, 100000000).BlocksExecuted;
  uint64_t TrainBlocks = IT.run(MT, 100000000).BlocksExecuted;
  EXPECT_LT(TrainBlocks, RefBlocks);
}

TEST(GeneratorTest, ProgramHasLoopsAndBranches) {
  GeneratedBenchmark B = smallBench("gcc");
  cfg::Cfg G(B.Ref);
  cfg::DominatorTree DT(G);
  auto Loops = cfg::findNaturalLoops(G, DT);
  // The outer driver loop plus the loop kernels.
  EXPECT_GT(Loops.size(), 3u);
  size_t CondBranches = 0;
  for (guest::BlockId Blk = 0; Blk < G.numBlocks(); ++Blk)
    CondBranches += G.hasCondBranch(Blk);
  EXPECT_GT(CondBranches, 10u);
}

TEST(GeneratorTest, BranchProbabilitiesFollowThetas) {
  // Property: with a stable benchmark (no phases beyond init), the
  // measured AVEP branch probabilities of hot decision blocks must be
  // strictly inside (0, 1) for two-sided sites and the suite must exhibit
  // a spread of probabilities (not all saturated).
  GeneratedBenchmark B = smallBench("swim", 0.05);
  dbt::DbtOptions Opts;
  dbt::DbtEngine Engine(B.Ref, Opts);
  profile::ProfileSnapshot Avep = Engine.run(100000000);

  cfg::Cfg G(B.Ref);
  size_t Intermediate = 0;
  size_t Hot = 0;
  for (guest::BlockId Blk = 0; Blk < G.numBlocks(); ++Blk) {
    if (!G.hasCondBranch(Blk) || Avep.Blocks[Blk].Use < 200)
      continue;
    ++Hot;
    double Prob = Avep.takenProb(Blk);
    if (Prob > 0.02 && Prob < 0.98)
      ++Intermediate;
  }
  EXPECT_GT(Hot, 5u);
  EXPECT_GT(Intermediate, 3u);
}

TEST(GeneratorTest, PhaseBenchmarkChangesBehaviour) {
  // Run gzip (strong init phase) and compare the early profile against
  // the full-run profile: at least one hot branch must move by >= 0.2.
  const BenchSpec *Spec = findSpec("gzip");
  GeneratedBenchmark B = generateBenchmark(scaledSpec(*Spec, 0.25));

  dbt::DbtOptions Opts;
  // ~115 driver iterations: inside the scaled init phase (break at 200).
  dbt::DbtEngine Early(B.Ref, Opts);
  profile::ProfileSnapshot EarlySnap = Early.run(/*MaxBlocks=*/20000);
  dbt::DbtEngine Full(B.Ref, Opts);
  profile::ProfileSnapshot FullSnap = Full.run(100000000);

  cfg::Cfg G(B.Ref);
  double MaxShift = 0;
  for (guest::BlockId Blk = 0; Blk < G.numBlocks(); ++Blk) {
    if (!G.hasCondBranch(Blk))
      continue;
    if (EarlySnap.Blocks[Blk].Use < 50 || FullSnap.Blocks[Blk].Use < 1000)
      continue;
    MaxShift = std::max(MaxShift, std::abs(EarlySnap.takenProb(Blk) -
                                           FullSnap.takenProb(Blk)));
  }
  EXPECT_GT(MaxShift, 0.2);
}

TEST(GeneratorTest, McfLoopsFlipTripClasses) {
  // mcf's loop-local phases: a hot loop's early trip behaviour must
  // differ from its late behaviour (the Figure 16 mechanism).
  const BenchSpec *Spec = findSpec("mcf");
  GeneratedBenchmark B = generateBenchmark(scaledSpec(*Spec, 0.2));

  dbt::DbtOptions Opts;
  dbt::DbtEngine Early(B.Ref, Opts);
  // Early window: ~20 driver iterations, inside the scaled per-loop
  // phase-0 window (LoopBreak1 = 21 entries at this scale).
  profile::ProfileSnapshot EarlySnap = Early.run(3000);
  dbt::DbtEngine Full(B.Ref, Opts);
  profile::ProfileSnapshot FullSnap = Full.run(500000000);

  cfg::Cfg G(B.Ref);
  double MaxShift = 0;
  for (guest::BlockId Blk = 0; Blk < G.numBlocks(); ++Blk) {
    if (!G.hasCondBranch(Blk))
      continue;
    // Loop back-branches: taken target == own block id (self loops).
    if (G.takenTarget(Blk) != Blk)
      continue;
    if (EarlySnap.Blocks[Blk].Use < 100 || FullSnap.Blocks[Blk].Use < 1000)
      continue;
    MaxShift = std::max(MaxShift, std::abs(EarlySnap.takenProb(Blk) -
                                           FullSnap.takenProb(Blk)));
  }
  EXPECT_GT(MaxShift, 0.05);
}
