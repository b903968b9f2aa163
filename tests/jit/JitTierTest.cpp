//===- tests/jit/JitTierTest.cpp - Jit tier integration tests ---*- C++ -*-===//
//
// Differential tests of the jit tier wired into HostTier: with the heat
// threshold forced low, chains and self-loops run as compiled x86-64 code
// and must still produce the same event stream, outcome, and machine
// state as the plain interpreter — through mid-chain deopts, cache
// flushes under pressure, demote/re-promote phase changes, and recorded
// trace bytes.
//
//===----------------------------------------------------------------------===//

#include "vm/HostTier.h"

#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "guest/Assembler.h"
#include "guest/ProgramBuilder.h"
#include "jit/CodeBuffer.h"
#include "support/Rng.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

using namespace tpdbt;
using namespace tpdbt::vm;

namespace {

struct CapturedEvent {
  guest::BlockId Block;
  uint8_t Branch;
  uint32_t Insts;

  bool operator==(const CapturedEvent &O) const {
    return Block == O.Block && Branch == O.Branch && Insts == O.Insts;
  }
};

uint8_t branchCode(const BlockResult &R) {
  return R.IsCondBranch ? (R.Taken ? 2 : 1) : 0;
}

/// Same differential harness as HostTierTest: run plain and tiered with
/// one budget, require identical events, outcome, and machine state, and
/// hand back the tier stats so callers can assert the jit tier engaged.
HostTierStats expectTierMatchesPlain(const guest::Program &P,
                                     uint64_t MaxBlocks, const char *Label) {
  Interpreter I(P);

  Machine PlainM;
  PlainM.reset(P);
  std::vector<CapturedEvent> PlainEvents;
  RunOutcome PlainOut =
      I.run(PlainM, MaxBlocks, [&](guest::BlockId B, const BlockResult &R) {
        PlainEvents.push_back({B, branchCode(R), R.InstsExecuted});
      });

  Machine TierM;
  TierM.reset(P);
  std::vector<CapturedEvent> TierEvents;
  auto Cb = [&](guest::BlockId B, const BlockResult &R) {
    TierEvents.push_back({B, branchCode(R), R.InstsExecuted});
  };
  HostTier Tier(I);
  RunOutcome TierOut = Tier.run(TierM, MaxBlocks, HostTier::expanding(Cb));

  EXPECT_EQ(TierOut.Reason, PlainOut.Reason) << Label;
  EXPECT_EQ(TierOut.BlocksExecuted, PlainOut.BlocksExecuted) << Label;
  EXPECT_EQ(TierOut.InstsExecuted, PlainOut.InstsExecuted) << Label;
  EXPECT_EQ(TierOut.LastBlock, PlainOut.LastBlock) << Label;
  EXPECT_EQ(TierEvents, PlainEvents) << Label;
  EXPECT_EQ(TierM.Regs, PlainM.Regs) << Label;
  EXPECT_EQ(TierM.Mem, PlainM.Mem) << Label;
  return Tier.stats();
}

/// The HostTierTest chain shape: a four-block chain re-entered \p Iters
/// times whose load faults once the outer counter reaches MemWords.
guest::Program makeChainProgram(int64_t Iters, uint64_t MemWords) {
  guest::ProgramBuilder PB("chain");
  auto Entry = PB.createBlock("entry");
  auto Head = PB.createBlock("head");
  auto A = PB.createBlock("a");
  auto B = PB.createBlock("b");
  auto Latch = PB.createBlock("latch");
  auto Exit = PB.createBlock("exit");
  PB.setMemWords(MemWords);
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(2, 0, 7);
  PB.jump(A);
  PB.switchTo(A);
  PB.xorI(3, 2, 0x33);
  PB.jump(B);
  PB.switchTo(B);
  PB.mov(1, 0);
  PB.load(4, 1, 0); // faults once r0 reaches MemWords
  PB.jump(Latch);
  PB.switchTo(Latch);
  PB.addI(0, 0, 1);
  PB.branchImm(guest::CondKind::LtI, 0, Iters, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

/// A permanent phase flip with an exactly countable miss window. Phase A
/// (64 outer iterations) loops head -> a -> head, so the promoted chain
/// predicts head -> a. Phase B permanently flips head to d, whose only
/// continuation is a self-loop — d can never head a chain of its own
/// (its walk stops at the self-loop), so every phase-B arrival at head
/// re-runs the stale chain and deviates until DemoteStreak misses demote
/// it. Fresh profiling (fed by the deviating executions) then re-promotes
/// head -> d -> e, which never misses again: the whole demote ->
/// re-profile -> re-promote sequence produces exactly DemoteStreak
/// deviating executions, each counted once.
guest::Program makePhaseFlipProgram() {
  guest::ProgramBuilder PB("phaseflip");
  auto Entry = PB.createBlock("entry");
  auto Head = PB.createBlock("head");
  auto A = PB.createBlock("a");
  auto D = PB.createBlock("d");
  auto E = PB.createBlock("e");
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(0, 0, 1);
  PB.branchImm(guest::CondKind::LtI, 0, 64, A, D);
  PB.switchTo(A);
  PB.nop();
  PB.jump(Head);
  PB.switchTo(D);
  PB.movI(3, 0);
  PB.jump(E);
  PB.switchTo(E); // counted self-loop: 5 iterations per visit
  PB.addI(3, 3, 1);
  PB.xorR(4, 4, 3);
  PB.branchImm(guest::CondKind::LtI, 3, 5, E, Head);
  return PB.build();
}

} // namespace

TEST(JitTierTest, ChainRunsCompiledAndMatchesPlain) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  guest::Program P = makeChainProgram(200, 256);
  HostTierStats St = expectTierMatchesPlain(P, ~0ull, "jit chain");
  EXPECT_GT(St.JitUnits, 0u);
  EXPECT_GT(St.JitBlocks, 0u);
  EXPECT_EQ(St.JitFlushes, 0u);
}

TEST(JitTierTest, KillSwitchRecordsWithPlainInterpreter) {
  // TPDBT_TIER=plain turns the whole tier off: the record runs the plain
  // interpreter (no unit compiles, no tier counter moves) and still
  // serializes to the bytes the jit records.
  guest::Program P = makeChainProgram(200, 256);
  HostTierStats Jit;
  const std::string JitBytes =
      core::BlockTrace::record(P, ~0ull, &Jit).serializeSegmented(
          core::DefaultSegmentEvents);
  ScopedEnv Off("TPDBT_TIER", "plain");
  EXPECT_FALSE(HostTier::enabled());
  HostTierStats St;
  EXPECT_EQ(core::BlockTrace::record(P, ~0ull, &St).serializeSegmented(
                core::DefaultSegmentEvents),
            JitBytes);
  EXPECT_EQ(St.Superblocks, 0u);
  EXPECT_EQ(St.JitUnits, 0u);
  EXPECT_EQ(St.JitBlocks, 0u);
}

TEST(JitTierTest, MidChainFaultDeoptsWithExactState) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  // The load faults at outer iteration 64, long after the chain was
  // compiled: the fault must leave compiled code through the deopt stub
  // with registers, memory, and the partial-segment event identical to
  // plain interpretation.
  guest::Program P = makeChainProgram(200, 64);
  HostTierStats St = expectTierMatchesPlain(P, ~0ull, "jit mid-chain fault");
  EXPECT_GT(St.JitBlocks, 0u);
  EXPECT_GT(St.JitDeopts, 0u);
}

TEST(JitTierTest, BlockBudgetCutsJitChainMidway) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  guest::Program P = makeChainProgram(200, 256);
  // Budgets landing at every offset inside the hot chained sequence: the
  // compiled chain must stop after exactly the budgeted number of
  // segments, with no deviating event.
  for (uint64_t MaxBlocks : {81ull, 82ull, 83ull, 84ull, 150ull}) {
    HostTierStats St = expectTierMatchesPlain(
        P, MaxBlocks, ("jit budget " + std::to_string(MaxBlocks)).c_str());
    EXPECT_GT(St.JitBlocks, 0u) << MaxBlocks;
  }
}

TEST(JitTierTest, SelfLoopRunsCompiledThroughReentryAndFault) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  // A load/store self-loop re-entered with a growing register bound: from
  // the second visit on it runs compiled; on visit 14 the bound crosses
  // the memory size and the store faults mid-iteration, which must leave
  // the compiled loop through the deopt stub with exact partial effects.
  guest::ProgramBuilder PB("jitloop");
  auto Entry = PB.createBlock("entry");
  auto Loop = PB.createBlock("loop");
  auto Rearm = PB.createBlock("rearm");
  PB.setMemWords(4096);
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(5, 1);
  PB.mulI(6, 5, 300);
  PB.movI(0, 0);
  PB.jump(Loop);
  PB.switchTo(Loop);
  PB.load(2, 0, 0);
  PB.xorI(2, 2, 7);
  PB.store(2, 0, 0);
  PB.addI(0, 0, 1);
  PB.branch(guest::CondKind::Lt, 0, 6, Loop, Rearm);
  PB.switchTo(Rearm);
  PB.addI(5, 5, 1);
  PB.mulI(6, 5, 300);
  PB.movI(0, 0);
  PB.jump(Loop);
  guest::Program P = PB.build();

  HostTierStats St = expectTierMatchesPlain(P, ~0ull, "jit loop fault");
  EXPECT_GT(St.JitLoopIters, 0u);
  EXPECT_GT(St.JitDeopts, 0u); // the faulting iteration deopted
  for (uint64_t MaxBlocks : {500ull, 4000ull, 20000ull}) {
    expectTierMatchesPlain(
        P, MaxBlocks,
        ("jit loop budget " + std::to_string(MaxBlocks)).c_str());
  }
}

TEST(JitTierTest, LongFirstArrivalSwitchesToNativeMidLoop) {
  // One arrival at a self-loop that spins 10,000 times: the loop compiles
  // once its cold iterations reach the default heat, and the rest of the
  // same arrival runs natively — at most DefaultJitHeat + 1 of its
  // executions (the cold ones plus the exit) are not native stays. The
  // recorded bytes match the plain interpreter's.
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", nullptr);
  constexpr int64_t Iters = 10000;
  guest::ProgramBuilder PB("longloop");
  auto Entry = PB.createBlock("entry");
  auto Loop = PB.createBlock("loop");
  auto Exit = PB.createBlock("exit");
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Loop);
  PB.switchTo(Loop);
  PB.addI(1, 1, 1);
  PB.xorI(2, 2, 0x5a);
  PB.branchImm(guest::CondKind::LtI, 1, Iters, Loop, Exit);
  PB.switchTo(Exit);
  PB.halt();
  guest::Program P = PB.build();

  HostTierStats St;
  const core::BlockTrace T = core::BlockTrace::record(P, ~0ull, &St);
  ASSERT_EQ(T.numEvents(), uint64_t(Iters) + 2);
  EXPECT_EQ(St.JitUnits, 1u);
  EXPECT_GE(St.JitLoopIters, uint64_t(Iters) - (HostTier::DefaultJitHeat + 1));
  ScopedEnv Off("TPDBT_TIER", "plain");
  EXPECT_EQ(
      T.serializeSegmented(core::DefaultSegmentEvents),
      core::BlockTrace::record(P).serializeSegmented(core::DefaultSegmentEvents));
}

TEST(JitTierTest, DemoteRepromoteCountsEachMissOnce) {
  // The deopt-accounting regression: across a full demote -> re-profile
  // -> re-promote sequence every deviating execution is counted once, and
  // the total is exactly DemoteStreak — a double-count (or a chain that
  // keeps missing without demoting) would inflate it. The chain compiles
  // within phase A at the default heat as well as forced hot, so both
  // see every phase-B miss in compiled code.
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  guest::Program P = makePhaseFlipProgram();
  for (const char *Heat : {"1", "16"}) {
    ScopedEnv H("TPDBT_JIT_HEAT", Heat);
    HostTierStats St = expectTierMatchesPlain(P, 6000, Heat);
    EXPECT_EQ(St.JitDeopts, HostTier::DemoteStreak) << Heat;
    EXPECT_GE(St.Superblocks, 2u) << Heat; // the head was promoted twice
  }
  {
    // A heat the run never reaches: the chain stays cold, event by event,
    // so nothing deviates from a guard and nothing demotes.
    ScopedEnv Heat("TPDBT_JIT_HEAT", "1000000");
    HostTierStats St = expectTierMatchesPlain(P, 6000, "flip, jit cold");
    EXPECT_EQ(St.JitDeopts, 0u);
    EXPECT_EQ(St.JitUnits, 0u);
  }
}

TEST(JitTierTest, CacheFlushUnderPressureStaysCorrect) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  ScopedEnv Cache("TPDBT_JIT_CACHE_BYTES", "4096");
  // A 64-block jump ring promotes into four 16-segment chains whose
  // compiled bodies cannot all fit in a 4 KiB cache: installs must flush
  // the whole cache and recompile from re-accumulated heat, with no
  // effect on the event stream.
  guest::ProgramBuilder PB("ring");
  auto Entry = PB.createBlock("entry");
  guest::BlockId Ring[64];
  for (int K = 0; K < 64; ++K)
    Ring[K] = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Ring[0]);
  for (int K = 0; K < 64; ++K) {
    PB.switchTo(Ring[K]);
    PB.addI(1, 1, K + 1);
    PB.xorI(2, 1, 0x5a5a + K);
    PB.addI(3, 2, 13);
    PB.xorI(1, 3, K);
    if (K < 63) {
      PB.jump(Ring[K + 1]);
    } else {
      PB.addI(0, 0, 1);
      PB.branchImm(guest::CondKind::LtI, 0, 400, Ring[0], Entry);
    }
  }
  // Close the shape: re-entering Entry after 400 laps halts via budget.
  guest::Program P = PB.build();

  HostTierStats St = expectTierMatchesPlain(P, 40000, "cache pressure");
  EXPECT_GT(St.JitBlocks, 0u);
  EXPECT_GT(St.JitFlushes, 0u);
}

TEST(JitTierTest, RecordedTraceBytesMatchPlainWithJitHot) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  // The acceptance property: with every hot chain and loop running as
  // machine code, BlockTrace::record must still serialize to exactly the
  // bytes of a trace built from the plain interpreter — the invariant
  // that keeps the committed cache entries and fingerprints stable. The
  // same record with TPDBT_TIER=plain flipped in-process must agree too.
  for (const char *Name : {"gzip", "swim", "mcf"}) {
    auto B = workloads::generateBenchmark(
        workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
    core::BlockTrace Plain;
    Plain.setShapes(core::blockShapes(B.Ref));
    Interpreter I(B.Ref);
    Machine M;
    M.reset(B.Ref);
    I.run(M, ~0ull, [&](guest::BlockId Blk, const BlockResult &R) {
      Plain.append({Blk, branchCode(R), R.InstsExecuted});
    });
    const std::string JitBytes =
        core::BlockTrace::record(B.Ref).serializeSegmented(
            core::DefaultSegmentEvents);
    EXPECT_EQ(JitBytes, Plain.serializeSegmented(core::DefaultSegmentEvents))
        << Name;
    ScopedEnv Tier("TPDBT_TIER", "plain");
    EXPECT_EQ(core::BlockTrace::record(B.Ref).serializeSegmented(
                  core::DefaultSegmentEvents),
              JitBytes)
        << Name << " (TPDBT_TIER=plain)";
  }
}

TEST(JitTierTest, RandomizedDifferentialWithJitHot) {
  if (!HostTier::enabled())
    GTEST_SKIP() << "jit tier unavailable";
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  // Seeded budget sweep over every generated suite benchmark with the
  // jit tier maximally eager: truncation lands mid-chain, mid-loop, and
  // cold, and every run must match the plain interpreter event-for-event.
  Rng R(0x1e57a9);
  uint64_t JitBlocks = 0, JitIters = 0;
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite()) {
    const char *Name = Spec.Name.c_str();
    auto B = workloads::generateBenchmark(workloads::scaledSpec(Spec, 0.01));
    HostTierStats Full = expectTierMatchesPlain(B.Ref, ~0ull, Name);
    JitBlocks += Full.JitBlocks;
    JitIters += Full.JitLoopIters;
    for (int Round = 0; Round < 3; ++Round) {
      uint64_t MaxBlocks = 1 + R.nextBelow(40000);
      expectTierMatchesPlain(
          B.Ref, MaxBlocks,
          (std::string(Name) + " budget " + std::to_string(MaxBlocks))
              .c_str());
    }
  }
  // Across the suite the jit tier must actually have carried load.
  EXPECT_GT(JitBlocks + JitIters, 0u);
}

TEST(JitTierTest, CompareFeedingBranchLatchMatchesAcrossTiers) {
  // Both latches end in a compare whose result register is then tested
  // against zero: the inner self-loop branches while it is nonzero, the
  // outer chain member while it is zero. The compare is an ordinary body
  // op, so each event counts it and the branch as two instructions, and
  // its register write is visible every iteration: r5 sums r3 at the top
  // of each inner iteration, starting from r3 = 77.
  guest::Program P;
  std::string Error;
  ASSERT_TRUE(guest::assembleProgram(R"(
    .program cmpbranch
    entry:
        movi  r2, 40
        movi  r3, 77
        movi  r7, 64
    outer:
        movi  r1, 0
        jmp   inner
    inner:
        add   r5, r5, r3
        addi  r1, r1, 1
        cmplt r3, r1, r2
        bnei  r3, 0, inner, next
    next:
        addi  r6, r6, 1
        cmplt r4, r6, r7
        beqi  r4, 0, done, outer
    done:
        halt
  )",
                                     P, &Error))
      << Error;
  const guest::BlockId Inner = 2, Next = 3;

  Interpreter I(P);
  Machine M;
  M.reset(P);
  std::vector<CapturedEvent> Events;
  const RunOutcome Out =
      I.run(M, ~0ull, [&](guest::BlockId B, const BlockResult &R) {
        Events.push_back({B, branchCode(R), R.InstsExecuted});
      });
  ASSERT_EQ(Out.Reason, StopReason::Halted);
  EXPECT_EQ(M.Regs[3], 0);            // the last inner compare
  EXPECT_EQ(M.Regs[4], 0);            // the last outer compare
  EXPECT_EQ(M.Regs[5], 77 + 64 * 39); // every compare write summed
  size_t InnerEvents = 0;
  for (const CapturedEvent &E : Events) {
    if (E.Block == Inner) {
      ++InnerEvents;
      EXPECT_EQ(E.Insts, 4u); // add, addi, cmplt + bnei
    }
    if (E.Block == Next) {
      EXPECT_EQ(E.Insts, 3u); // addi, cmplt + beqi
    }
  }
  EXPECT_EQ(InnerEvents, 64u * 40u);

  {
    // Never hot: the whole run stays in the tier's cold interpreter.
    ScopedEnv Heat("TPDBT_JIT_HEAT", "1000000");
    const HostTierStats St = expectTierMatchesPlain(P, ~0ull, "cold");
    EXPECT_EQ(St.JitUnits, 0u);
  }
  ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
  const HostTierStats St = expectTierMatchesPlain(P, ~0ull, "jit");
  if (HostTier::enabled()) {
    EXPECT_GT(St.JitLoopIters, 0u);
    EXPECT_GT(St.JitBlocks, 0u);
  }
  for (uint64_t MaxBlocks : {3ull, 45ull, 1000ull})
    expectTierMatchesPlain(
        P, MaxBlocks, ("jit budget " + std::to_string(MaxBlocks)).c_str());
}

TEST(TierKnobTest, EnvParse) {
  // One switch, read on every call. Unset, empty, and unknown values —
  // the retired "predecoded" among them — all leave the tier on, matching
  // the old "anything but 0"; only "plain" turns it off.
  const std::pair<const char *, bool> Cases[] = {
      {nullptr, true}, {"plain", false}, {"predecoded", true},
      {"jit", true},   {"", true},       {"0", true},
      {"PLAIN", true}, {"plainx", true},
  };
  for (const auto &[Value, Want] : Cases) {
    ScopedEnv E("TPDBT_TIER", Value);
    const std::string Label = Value ? Value : "(unset)";
    EXPECT_EQ(HostTier::enabled(), Want && jit::CodeBuffer::supported())
        << Label;
  }
}
