//===- tests/dbt/PolicyTest.cpp - Translation-policy unit tests -*- C++ -*-===//

#include "dbt/Policy.h"

#include "core/Trace.h"
#include "dbt/DbtEngine.h"
#include "guest/ProgramBuilder.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace tpdbt;
using namespace tpdbt::guest;
using namespace tpdbt::dbt;
using namespace tpdbt::region;

namespace {

/// Balanced diamond in a counted loop: head -> d -> {a,b} -> m -> head.
Program makeDiamondLoop(int64_t Iters) {
  ProgramBuilder PB("dloop");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId D = PB.createBlock();
  BlockId A = PB.createBlock();
  BlockId B = PB.createBlock();
  BlockId M = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.movI(5, 12345);
  PB.jump(Head);
  PB.switchTo(Head);
  // xorshift for a ~50/50 branch
  PB.shlI(4, 5, 13);
  PB.xorR(5, 5, 4);
  PB.shrI(4, 5, 7);
  PB.xorR(5, 5, 4);
  PB.jump(D);
  PB.switchTo(D);
  PB.andI(4, 5, 1);
  PB.branchImm(CondKind::EqI, 4, 0, A, B);
  PB.switchTo(A);
  PB.nop();
  PB.jump(M);
  PB.switchTo(B);
  PB.nop();
  PB.jump(M);
  PB.switchTo(M);
  PB.addI(1, 1, 1);
  PB.branchImm(CondKind::LtI, 1, Iters, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

} // namespace

TEST(PolicyTest, WarmMembersAreAbsorbedAndFrozen) {
  // The diamond arms run at ~half the seed's rate; with warm-member
  // growth they must still end up inside a region, frozen in [T/2, 2T].
  Program P = makeDiamondLoop(100000);
  const uint64_t T = 1000;
  DbtOptions Opts;
  Opts.Threshold = T;
  DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot S = Engine.run(~0ull);

  const BlockId A = 3, B = 4;
  bool ArmInRegion = false;
  for (const Region &R : S.Regions)
    ArmInRegion |= R.containsBlock(A) || R.containsBlock(B);
  ASSERT_TRUE(ArmInRegion) << "diamond arm not absorbed into any region";
  for (BlockId Arm : {A, B}) {
    if (S.Blocks[Arm].Use == 0)
      continue;
    bool InSomeRegion = false;
    for (const Region &R : S.Regions)
      InSomeRegion |= R.containsBlock(Arm);
    if (!InSomeRegion)
      continue;
    EXPECT_GE(S.Blocks[Arm].Use, T / 2);
    EXPECT_LE(S.Blocks[Arm].Use, 2 * T);
  }
}

TEST(PolicyTest, DiamondAbsorbedIntoOneRegion) {
  // With a good profile the balanced diamond becomes a Figure 6-style
  // DAG region: some region node has two intra-region successors.
  Program P = makeDiamondLoop(100000);
  DbtOptions Opts;
  Opts.Threshold = 1000;
  DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot S = Engine.run(~0ull);

  bool FoundDiamond = false;
  for (const Region &R : S.Regions) {
    std::vector<int> In(R.Nodes.size(), 0);
    for (const RegionNode &N : R.Nodes) {
      if (N.TakenSucc >= 0)
        ++In[N.TakenSucc];
      if (N.HasCondBranch && N.FallSucc >= 0)
        ++In[N.FallSucc];
    }
    for (int C : In)
      FoundDiamond |= C > 1;
  }
  EXPECT_TRUE(FoundDiamond);
}

TEST(PolicyTest, ColdProgramNeverOptimizes) {
  Program P = makeDiamondLoop(50); // far below any threshold
  DbtOptions Opts;
  Opts.Threshold = 1000;
  DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot S = Engine.run(~0ull);
  EXPECT_TRUE(S.Regions.empty());
  EXPECT_EQ(Engine.cost().OptInsts, 0u);
  EXPECT_GT(Engine.cost().ColdInsts, 0u);
}

TEST(PolicyTest, CostCyclesDecomposeConsistently) {
  Program P = makeDiamondLoop(50000);
  DbtOptions Opts;
  Opts.Threshold = 500;
  DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot S = Engine.run(~0ull);
  const CostAccount &C = Engine.cost();

  // Every executed instruction was charged in exactly one category.
  EXPECT_EQ(C.ColdInsts + C.OptInsts + C.OffTraceInsts, S.InstsExecuted);
  // Reconstruct the cycle total from the account.
  const CostParams &Params = Opts.Cost;
  uint64_t ColdBlocks = 0;
  // Profiling overhead is charged per cold block event; infer it.
  uint64_t Expected = C.ColdInsts * Params.ColdPerInst +
                      C.OptInsts * Params.OptPerInst +
                      C.OffTraceInsts * Params.OptOffTracePerInst +
                      C.SideExits * Params.SideExitPenalty +
                      C.LoopExits * Params.LoopExitPenalty +
                      C.OptimizeCycles;
  uint64_t Remainder = S.Cycles - Expected;
  EXPECT_EQ(Remainder % Params.ProfilePerBlock, 0u);
  ColdBlocks = Remainder / Params.ProfilePerBlock;
  EXPECT_LE(ColdBlocks, S.BlockEvents);
  EXPECT_GT(ColdBlocks, 0u);
}

TEST(PolicyTest, SnapshotCyclesMatchAccount) {
  Program P = makeDiamondLoop(20000);
  DbtOptions Opts;
  Opts.Threshold = 200;
  DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot S = Engine.run(~0ull);
  EXPECT_EQ(S.Cycles, Engine.cost().Cycles);
}

TEST(PolicyTest, RegionRuntimeObservationsAccumulate) {
  Program P = makeDiamondLoop(100000);
  cfg::Cfg G(P);
  DbtOptions Opts;
  Opts.Threshold = 500;
  TranslationPolicy Policy(P, G, Opts);

  std::vector<profile::BlockCounters> Shared(P.numBlocks());
  vm::Interpreter I(P);
  vm::Machine M;
  M.reset(P);
  BlockId Cur = P.Entry;
  while (true) {
    vm::BlockResult R = I.executeBlock(Cur, M);
    auto &C = Shared[Cur];
    ++C.Use;
    if (R.IsCondBranch && R.Taken)
      ++C.Taken;
    Policy.onBlockEvent(Cur, R, Shared);
    if (R.Reason != vm::StopReason::Running)
      break;
    Cur = R.Next;
  }
  ASSERT_FALSE(Policy.regions().empty());
  // The hot loop forms one region that is entered once and then iterates
  // via its back edge: entries stay tiny, back-edge traversals dominate.
  uint64_t TotalEntries = 0, TotalBackEdges = 0;
  for (const auto &RT : Policy.regionRuntime()) {
    TotalEntries += RT.Entries;
    TotalBackEdges += RT.BackEdges;
  }
  EXPECT_GE(TotalEntries, 1u);
  EXPECT_GT(TotalBackEdges, 10000u);
}

TEST(PolicyTest, EveryFrozenBlockIsARegionNode) {
  // With adaptive mode off a round freezes exactly the nodes of the
  // regions it forms, and no region is ever removed, so a frozen block is
  // always some region's node. The analytic replay walks every frozen
  // block as a region member and the sampled estimator charges every one
  // the member rate; both rely on this. Checked after every optimization
  // round of a pumped replay, as replaySweepEvents drives it.
  const std::vector<uint64_t> Thresholds = {1, 100, 2000};
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite()) {
    auto B = workloads::generateBenchmark(workloads::scaledSpec(Spec, 0.01));
    const core::BlockTrace T = core::BlockTrace::record(B.Ref);
    cfg::Cfg G(B.Ref);
    for (bool Duplicate : {true, false}) {
      std::vector<std::unique_ptr<TranslationPolicy>> Policies;
      for (uint64_t Th : Thresholds) {
        DbtOptions Opts;
        Opts.Threshold = Th;
        Opts.Formation.AllowDuplication = Duplicate;
        ASSERT_FALSE(Opts.Adaptive.Enabled);
        Policies.push_back(
            std::make_unique<TranslationPolicy>(B.Ref, G, Opts));
      }
      std::vector<size_t> Rounds(Policies.size(), 0);
      auto expectFrozenAreNodes = [&](size_t I) {
        const TranslationPolicy &Policy = *Policies[I];
        std::vector<bool> IsNode(B.Ref.numBlocks(), false);
        for (const region::Region &R : Policy.regions())
          for (const region::RegionNode &Node : R.Nodes)
            IsNode[Node.Orig] = true;
        for (size_t Bl = 0; Bl < B.Ref.numBlocks(); ++Bl)
          EXPECT_TRUE(!Policy.isFrozen(static_cast<BlockId>(Bl)) ||
                      IsNode[Bl])
              << Spec.Name << " T=" << Thresholds[I]
              << " duplication=" << Duplicate << " block " << Bl;
      };

      std::vector<profile::BlockCounters> Shared(B.Ref.numBlocks());
      for (size_t E = 0; E < T.numEvents(); ++E) {
        const core::TraceEvent Ev = T.event(E);
        vm::BlockResult R;
        R.IsCondBranch = Ev.Branch != 0;
        R.Taken = Ev.Branch == 2;
        R.InstsExecuted = Ev.Insts;
        ++Shared[Ev.Block].Use;
        if (R.Taken)
          ++Shared[Ev.Block].Taken;
        for (size_t I = 0; I < Policies.size(); ++I) {
          Policies[I]->onBlockEvent(Ev.Block, R, Shared);
          if (Policies[I]->optimizationRounds() != Rounds[I]) {
            Rounds[I] = Policies[I]->optimizationRounds();
            expectFrozenAreNodes(I);
          }
        }
      }
      for (size_t I = 0; I < Policies.size(); ++I) {
        EXPECT_GT(Rounds[I], 0u)
            << Spec.Name << " T=" << Thresholds[I] << " never optimized";
        expectFrozenAreNodes(I);
      }
    }
  }
}

TEST(PolicyTest, FreezeTimelineOrdersTiesAndClampsCounters) {
  // The analytic timeline over a scripted source with tied crossing
  // positions and counters that break every clamp. Blocks of the diamond
  // loop: 0 entry, 1 head, 2 d, 3 a, 4 b, 5 m, 6 exit.
  Program P = makeDiamondLoop(100);
  cfg::Cfg G(P);
  const uint64_t T = 10;
  DbtOptions Opts;
  Opts.Threshold = T;
  TranslationPolicy Policy(P, G, Opts);

  std::vector<profile::BlockCounters> Final(P.numBlocks());
  Final[0] = {1, 0};
  Final[1] = {100, 0};
  Final[2] = {100, 50};
  Final[3] = {100, 0};
  Final[4] = {100, 0};
  Final[5] = {12, 4}; // crosses T only
  // {T-th, 2T-th} use positions. m registers first. The head's two
  // crossings tie, so it registers and then fires at 3. d is absorbed
  // into the head's region at 3 as a warm block, so its own crossings at
  // 8 and 9 are skipped. a and b tie at both crossings: a goes first, so
  // a's 2T-th use fires at 6 and b freezes as a pool member.
  const std::map<BlockId, std::pair<double, double>> Crossings = {
      {1, {3.0, 3.0}}, {2, {8.0, 9.0}}, {3, {4.0, 6.0}},
      {4, {4.0, 6.0}}, {5, {1.0, -1.0}}};
  std::vector<double> Triggers;
  auto CrossingPos = [&](BlockId B, uint64_t J) {
    EXPECT_TRUE(J == T || J == 2 * T) << "block " << B << " J=" << J;
    EXPECT_LE(J, Final[B].Use) << "block " << B;
    const auto &[Reg, Trig] = Crossings.at(B);
    return J == T ? Reg : Trig;
  };
  auto CountersAt = [&](double Pos,
                        std::vector<profile::BlockCounters> &Out) {
    Triggers.push_back(Pos);
    std::fill(Out.begin(), Out.end(), profile::BlockCounters());
    if (Pos == 3.0) {
      Out[1] = {13, 0};  // the crossing block: forced to 2T
      Out[5] = {50, 30}; // a pool member past its final counters
      Out[2] = {6, 9};   // warm (>= T/2), more taken than uses
    } else {
      Out[3] = {25, 0}; // the crossing block: forced to 2T
      Out[4] = {3, 0};  // a pool member below T: raised to T
    }
  };

  const std::vector<FrozenBlock> Frozen =
      Policy.freezeTimeline(Final, CrossingPos, CountersAt);
  EXPECT_EQ(Triggers, (std::vector<double>{3.0, 6.0}));
  const std::vector<FrozenBlock> Want = {
      {5, 3.0, {12, 4}, false}, // use <= Final, taken <= Final
      {1, 3.0, {20, 0}, true},
      {2, 3.0, {6, 6}, false}, // taken <= use; not pooled, so not >= T
      {3, 6.0, {20, 0}, true},
      {4, 6.0, {10, 0}, false}};
  ASSERT_EQ(Frozen.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I) {
    EXPECT_EQ(Frozen[I].Block, Want[I].Block) << "freeze " << I;
    EXPECT_EQ(Frozen[I].Pos, Want[I].Pos) << "freeze " << I;
    EXPECT_EQ(Frozen[I].At.Use, Want[I].At.Use) << "freeze " << I;
    EXPECT_EQ(Frozen[I].At.Taken, Want[I].At.Taken) << "freeze " << I;
    EXPECT_EQ(Frozen[I].Crossing, Want[I].Crossing) << "freeze " << I;
    EXPECT_TRUE(Policy.isFrozen(Want[I].Block));
  }
  EXPECT_FALSE(Policy.isFrozen(0));
  EXPECT_EQ(Policy.optimizationRounds(), 2u);
}
