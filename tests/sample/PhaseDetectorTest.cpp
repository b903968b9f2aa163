//===- tests/sample/PhaseDetectorTest.cpp - Phase clustering ----*- C++ -*-===//

#include "sample/PhaseDetector.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::sample;

TEST(PhaseDetectorTest, SeparatesDistinctBehaviors) {
  // Two alternating behaviors: branchy short blocks vs straight-line long
  // blocks. The aggregate features separate them cleanly.
  std::vector<SegmentStats> Segs;
  for (int I = 0; I < 16; ++I) {
    SegmentStats S;
    S.Events = 1000;
    if (I % 2) {
      S.Insts = 3000;
      S.Taken = 900;
    } else {
      S.Insts = 20000;
      S.Taken = 50;
    }
    Segs.push_back(S);
  }
  PhaseAssignment P = detectSegmentPhases(Segs, 8);
  EXPECT_EQ(P.NumStrata, 2u);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P.StratumOf[I], P.StratumOf[I % 2]) << I;
  EXPECT_NE(P.StratumOf[0], P.StratumOf[1]);
}

TEST(PhaseDetectorTest, UniformTraceIsOnePhase) {
  std::vector<SegmentStats> Segs(12);
  for (auto &S : Segs) {
    S.Events = 500;
    S.Insts = 4000;
    S.Taken = 210;
  }
  PhaseAssignment P = detectSegmentPhases(Segs, 8);
  EXPECT_EQ(P.NumStrata, 1u);
}

TEST(PhaseDetectorTest, MaxPhasesCapsClusterCount) {
  // Every segment is distinct; with MaxPhases=3 the tail joins nearest.
  std::vector<SegmentStats> Segs(10);
  for (size_t I = 0; I < 10; ++I) {
    Segs[I].Events = 1000;
    Segs[I].Insts = 1000 * (I + 1) * 3;
    Segs[I].Taken = 100 * I;
  }
  PhaseAssignment P = detectSegmentPhases(Segs, 3);
  EXPECT_LE(P.NumStrata, 3u);
  for (uint32_t S : P.StratumOf)
    EXPECT_LT(S, P.NumStrata);
}

TEST(PhaseDetectorTest, DeterministicAssignment) {
  std::vector<SegmentStats> Segs(20);
  for (size_t I = 0; I < 20; ++I) {
    Segs[I].Events = 300 + (I * 37) % 200;
    Segs[I].Insts = Segs[I].Events * (3 + I % 4);
    Segs[I].Taken = (I * 53) % Segs[I].Events;
  }
  PhaseAssignment A = detectSegmentPhases(Segs, 8);
  PhaseAssignment B = detectSegmentPhases(Segs, 8);
  EXPECT_EQ(A.StratumOf, B.StratumOf);
  EXPECT_EQ(A.NumStrata, B.NumStrata);
}

TEST(PhaseDetectorTest, EmptyInput) {
  PhaseAssignment P = detectSegmentPhases({}, 8);
  EXPECT_EQ(P.NumStrata, 1u);
  EXPECT_TRUE(P.StratumOf.empty());
}
