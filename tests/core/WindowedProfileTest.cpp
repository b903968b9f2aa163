//===- tests/core/WindowedProfileTest.cpp - Windowed profiles --*- C++ -*-===//

#include "core/WindowedProfile.h"

#include "dbt/DbtEngine.h"
#include "guest/ProgramBuilder.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

namespace {

/// Branch taken only during the first half of the run.
Program makeHalfFlip() {
  ProgramBuilder PB("halfflip");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(1, 1, 1);
  PB.movI(2, 5000);
  PB.nop();
  PB.branchImm(CondKind::LtI, 1, 10000, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

/// Windows of \p P's full execution from the trace overload.
WindowedProfile windowsOf(const Program &P, size_t NumWindows,
                          uint64_t MaxBlocks = ~0ull) {
  return collectWindowedProfile(P, NumWindows,
                                BlockTrace::record(P, MaxBlocks));
}

/// Independent oracle: executes \p P twice through the interpreter's
/// event callback — once to size the windows, once to fill them.
WindowedProfile executeTwice(const Program &P, size_t NumWindows) {
  vm::Interpreter Interp(P);
  vm::Machine M;
  M.reset(P);
  WindowedProfile Out;
  Out.TotalBlockEvents = Interp.run(M, ~0ull).BlocksExecuted;
  Out.Windows.assign(NumWindows,
                     std::vector<profile::BlockCounters>(P.numBlocks()));
  const uint64_t WindowLen = Out.TotalBlockEvents / NumWindows + 1;
  M.reset(P);
  uint64_t Event = 0;
  Interp.run(M, ~0ull, [&](BlockId B, const vm::BlockResult &R) {
    const size_t W = std::min<size_t>(Event++ / WindowLen, NumWindows - 1);
    ++Out.Windows[W][B].Use;
    if (R.IsCondBranch && R.Taken)
      ++Out.Windows[W][B].Taken;
  });
  return Out;
}

} // namespace

TEST(WindowedProfileTest, WindowsSumToFullProfile) {
  Program P = makeHalfFlip();
  WindowedProfile WP = windowsOf(P, 4);
  EXPECT_EQ(WP.numWindows(), 4u);

  dbt::DbtOptions Opts;
  dbt::DbtEngine Engine(P, Opts);
  profile::ProfileSnapshot Avep = Engine.run(100000000);

  for (BlockId B = 0; B < P.numBlocks(); ++B) {
    uint64_t Use = 0, Taken = 0;
    for (const auto &W : WP.Windows) {
      Use += W[B].Use;
      Taken += W[B].Taken;
    }
    EXPECT_EQ(Use, Avep.Blocks[B].Use) << "block " << B;
    EXPECT_EQ(Taken, Avep.Blocks[B].Taken) << "block " << B;
  }
  EXPECT_EQ(WP.TotalBlockEvents, Avep.BlockEvents);
}

TEST(WindowedProfileTest, CapturesTemporalShift) {
  // A branch whose outcome depends on the iteration number: early
  // windows see a different probability than late ones.
  ProgramBuilder PB("shift");
  BlockId Entry = PB.createBlock();
  BlockId Head = PB.createBlock();
  BlockId A = PB.createBlock();
  BlockId Tail = PB.createBlock();
  BlockId Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.branchImm(CondKind::LtI, 1, 5000, A, Tail); // true early, false late
  PB.switchTo(A);
  PB.nop();
  PB.jump(Tail);
  PB.switchTo(Tail);
  PB.addI(1, 1, 1);
  PB.branchImm(CondKind::LtI, 1, 10000, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  Program P = PB.build();

  WindowedProfile WP = windowsOf(P, 8);
  EXPECT_GT(WP.takenProb(0, Head), 0.9);
  EXPECT_LT(WP.takenProb(7, Head), 0.1);
}

TEST(WindowedProfileTest, SingleWindowEqualsWholeRun) {
  Program P = makeHalfFlip();
  WindowedProfile WP = windowsOf(P, 1);
  EXPECT_EQ(WP.numWindows(), 1u);
  EXPECT_GT(WP.Windows[0][1].Use, 9000u);
}

TEST(WindowedProfileTest, RespectsMaxBlocks) {
  Program P = makeHalfFlip();
  WindowedProfile WP = windowsOf(P, 2, /*MaxBlocks=*/100);
  EXPECT_EQ(WP.TotalBlockEvents, 100u);
}

// The trace-derived windows must reproduce an execute-twice fill exactly
// — same sizing rule, same fill — for any window count, including ones
// that do not divide the event count.
TEST(WindowedProfileTest, TraceDerivedWindowsMatchExecuteTwice) {
  Program P = makeHalfFlip();
  BlockTrace Trace = BlockTrace::record(P);
  for (size_t NumWindows : {1u, 3u, 7u, 16u}) {
    WindowedProfile Exec = executeTwice(P, NumWindows);
    WindowedProfile FromTrace = collectWindowedProfile(P, NumWindows, Trace);
    ASSERT_EQ(FromTrace.numWindows(), Exec.numWindows()) << NumWindows;
    EXPECT_EQ(FromTrace.TotalBlockEvents, Exec.TotalBlockEvents);
    for (size_t W = 0; W < Exec.numWindows(); ++W)
      for (BlockId B = 0; B < P.numBlocks(); ++B) {
        EXPECT_EQ(FromTrace.Windows[W][B].Use, Exec.Windows[W][B].Use)
            << "window " << W << " block " << B << " n=" << NumWindows;
        EXPECT_EQ(FromTrace.Windows[W][B].Taken, Exec.Windows[W][B].Taken)
            << "window " << W << " block " << B << " n=" << NumWindows;
      }
  }
}

// A program that halts immediately: zero block events after the entry
// block executes. Every window exists, nearly all empty, no division by
// the (zero-ish) total blows up.
TEST(WindowedProfileTest, TinyTraceFewerEventsThanWindows) {
  ProgramBuilder PB("tiny");
  BlockId Entry = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.halt();
  Program P = PB.build();

  WindowedProfile Exec = executeTwice(P, 8);
  EXPECT_EQ(Exec.numWindows(), 8u);
  EXPECT_EQ(Exec.TotalBlockEvents, 1u);

  BlockTrace Trace = BlockTrace::record(P);
  WindowedProfile FromTrace = collectWindowedProfile(P, 8, Trace);
  EXPECT_EQ(FromTrace.TotalBlockEvents, 1u);
  uint64_t Use = 0;
  for (const auto &W : FromTrace.Windows)
    Use += W[Entry].Use;
  EXPECT_EQ(Use, 1u);
  // The single event lands in the first window under the shared sizing
  // rule.
  EXPECT_EQ(FromTrace.Windows[0][Entry].Use, Exec.Windows[0][Entry].Use);
}

// An empty trace (no events recorded) produces sized-but-empty windows.
TEST(WindowedProfileTest, EmptyTraceYieldsEmptyWindows) {
  Program P = makeHalfFlip();
  BlockTrace Empty;
  WindowedProfile WP = collectWindowedProfile(P, 4, Empty);
  EXPECT_EQ(WP.numWindows(), 4u);
  EXPECT_EQ(WP.TotalBlockEvents, 0u);
  for (const auto &W : WP.Windows)
    for (const auto &C : W) {
      EXPECT_EQ(C.Use, 0u);
      EXPECT_EQ(C.Taken, 0u);
    }
}

// Window boundaries vs. the trace-segment budget: windowing a trace that
// was serialized segmented and re-parsed must not depend on where the
// segment cuts fell.
TEST(WindowedProfileTest, WindowsUnaffectedBySegmentBoundaries) {
  Program P = makeHalfFlip();
  BlockTrace Trace = BlockTrace::record(P);
  WindowedProfile Direct = collectWindowedProfile(P, 5, Trace);

  for (uint64_t Budget : {64ull, 1000ull, 1ull << 16}) {
    BlockTrace Reparsed;
    std::string Err;
    ASSERT_TRUE(
        BlockTrace::parse(Trace.serializeSegmented(Budget), Reparsed, &Err))
        << Err;
    WindowedProfile WP = collectWindowedProfile(P, 5, Reparsed);
    ASSERT_EQ(WP.TotalBlockEvents, Direct.TotalBlockEvents) << Budget;
    for (size_t W = 0; W < WP.numWindows(); ++W)
      for (BlockId B = 0; B < P.numBlocks(); ++B)
        EXPECT_EQ(WP.Windows[W][B].Use, Direct.Windows[W][B].Use)
            << "budget " << Budget;
  }
}
