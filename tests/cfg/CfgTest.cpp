//===- tests/cfg/CfgTest.cpp - CFG / dominators / loops tests ---*- C++ -*-===//

#include "cfg/Cfg.h"

#include "guest/ProgramBuilder.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tpdbt;
using namespace tpdbt::cfg;
using namespace tpdbt::guest;

namespace {

/// Diamond: 0 -> {1,2} -> 3 -> halt.
Program makeDiamond() {
  ProgramBuilder PB("diamond");
  BlockId A = PB.createBlock();
  BlockId B = PB.createBlock();
  BlockId C = PB.createBlock();
  BlockId D = PB.createBlock();
  PB.setEntry(A);
  PB.switchTo(A);
  PB.branchImm(CondKind::LtI, 1, 5, B, C);
  PB.switchTo(B);
  PB.jump(D);
  PB.switchTo(C);
  PB.jump(D);
  PB.switchTo(D);
  PB.halt();
  return PB.build();
}

/// Nested loops: 0 -> 1(outer head) -> 2(inner, self loop) -> 3(latch ->
/// 1) -> 4 exit. Plus an unreachable block 5.
Program makeNestedLoops() {
  ProgramBuilder PB("nest");
  BlockId Entry = PB.createBlock();
  BlockId OuterHead = PB.createBlock();
  BlockId Inner = PB.createBlock();
  BlockId Latch = PB.createBlock();
  BlockId Exit = PB.createBlock();
  BlockId Dead = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.jump(OuterHead);
  PB.switchTo(OuterHead);
  PB.jump(Inner);
  PB.switchTo(Inner);
  PB.branchImm(CondKind::LtI, 1, 3, Inner, Latch); // self loop
  PB.switchTo(Latch);
  PB.branchImm(CondKind::LtI, 2, 3, OuterHead, Exit); // outer back edge
  PB.switchTo(Exit);
  PB.halt();
  PB.switchTo(Dead);
  PB.halt();
  return PB.build();
}

} // namespace

TEST(CfgTest, DiamondEdges) {
  Program P = makeDiamond();
  Cfg G(P);
  EXPECT_EQ(G.entry(), 0u);
  ASSERT_EQ(G.successors(0).size(), 2u);
  EXPECT_EQ(G.successors(0)[0], 1u); // taken edge first
  EXPECT_EQ(G.successors(0)[1], 2u);
  EXPECT_TRUE(G.hasCondBranch(0));
  EXPECT_EQ(G.takenTarget(0), 1u);
  EXPECT_EQ(G.fallthroughTarget(0), 2u);
  EXPECT_FALSE(G.hasCondBranch(1));
  EXPECT_TRUE(G.successors(3).empty());

  ASSERT_EQ(G.predecessors(3).size(), 2u);
  EXPECT_EQ(G.predecessors(0).size(), 0u);
}

TEST(CfgTest, SameTargetBranchIsNotCond) {
  ProgramBuilder PB("same");
  BlockId A = PB.createBlock();
  BlockId B = PB.createBlock();
  PB.setEntry(A);
  PB.switchTo(A);
  PB.branchImm(CondKind::LtI, 1, 5, B, B);
  PB.switchTo(B);
  PB.halt();
  Program P = PB.build();
  Cfg G(P);
  EXPECT_FALSE(G.hasCondBranch(A));
  EXPECT_EQ(G.successors(A).size(), 1u);
}

TEST(CfgTest, RpoVisitsReachableOnceEntryFirst) {
  Program P = makeNestedLoops();
  Cfg G(P);
  const auto &Rpo = G.rpo();
  EXPECT_EQ(Rpo.size(), 5u); // Dead excluded
  EXPECT_EQ(Rpo[0], G.entry());
  EXPECT_FALSE(G.isReachable(5));
  EXPECT_TRUE(G.isReachable(4));
  // RPO property: every block appears exactly once.
  auto Sorted = Rpo;
  std::sort(Sorted.begin(), Sorted.end());
  EXPECT_TRUE(std::adjacent_find(Sorted.begin(), Sorted.end()) ==
              Sorted.end());
}

TEST(DominatorTest, DiamondDominators) {
  Program P = makeDiamond();
  Cfg G(P);
  DominatorTree DT(G);
  EXPECT_EQ(DT.idom(0), 0u);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(3), 0u); // join dominated by the branch, not an arm
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(2, 2));
}

TEST(DominatorTest, LoopDominators) {
  Program P = makeNestedLoops();
  Cfg G(P);
  DominatorTree DT(G);
  EXPECT_TRUE(DT.dominates(1, 2)); // outer head dominates inner
  EXPECT_TRUE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(1, 4));
  EXPECT_FALSE(DT.dominates(2, 1));
  EXPECT_FALSE(DT.dominates(5, 4)); // unreachable dominates nothing
}

TEST(NaturalLoopTest, FindsBothLoops) {
  Program P = makeNestedLoops();
  Cfg G(P);
  DominatorTree DT(G);
  auto Loops = findNaturalLoops(G, DT);
  ASSERT_EQ(Loops.size(), 2u);

  // Header order: outer head (1), inner (2).
  EXPECT_EQ(Loops[0].Header, 1u);
  EXPECT_EQ(Loops[1].Header, 2u);

  // Inner loop: just the self-looping block.
  EXPECT_EQ(Loops[1].Body, (std::vector<BlockId>{2}));
  EXPECT_EQ(Loops[1].BackTails, (std::vector<BlockId>{2}));

  // Outer loop: head, inner, latch.
  EXPECT_EQ(Loops[0].Body, (std::vector<BlockId>{1, 2, 3}));
  EXPECT_TRUE(Loops[0].contains(3));
  EXPECT_FALSE(Loops[0].contains(4));
}

TEST(NaturalLoopTest, AcyclicHasNoLoops) {
  Program P = makeDiamond();
  Cfg G(P);
  DominatorTree DT(G);
  EXPECT_TRUE(findNaturalLoops(G, DT).empty());
}

TEST(NaturalLoopTest, MergesSharedHeader) {
  // Two back edges to the same header from different latches.
  ProgramBuilder PB("shared");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId L1 = PB.createBlock();
  BlockId L2 = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.branchImm(CondKind::LtI, 1, 5, L1, L2);
  PB.switchTo(L1);
  PB.branchImm(CondKind::LtI, 2, 5, Head, Exit);
  PB.switchTo(L2);
  PB.jump(Head);
  PB.switchTo(Exit);
  PB.halt();
  Program P = PB.build();
  Cfg G(P);
  DominatorTree DT(G);
  auto Loops = findNaturalLoops(G, DT);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0].Header, Head);
  EXPECT_EQ(Loops[0].BackTails.size(), 2u);
  EXPECT_TRUE(Loops[0].contains(L1));
  EXPECT_TRUE(Loops[0].contains(L2));
}

TEST(CfgTest, LoopHeadersMatchNaturalLoops) {
  // The constructor's precomputed loop headers are exactly the headers
  // findNaturalLoops reports, on every suite program.
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite()) {
    auto B = workloads::generateBenchmark(workloads::scaledSpec(Spec, 0.01));
    for (const Program *P : {&B.Ref, &B.Train}) {
      Cfg G(*P);
      DominatorTree DT(G);
      std::vector<bool> Want(G.numBlocks(), false);
      size_t Headers = 0;
      for (const NaturalLoop &L : findNaturalLoops(G, DT)) {
        Want[L.Header] = true;
        ++Headers;
      }
      EXPECT_GT(Headers, 0u) << Spec.Name;
      for (BlockId Blk = 0; Blk < G.numBlocks(); ++Blk)
        EXPECT_EQ(G.isLoopHeader(Blk), Want[Blk])
            << Spec.Name << " block " << Blk;
    }
  }
}
