//===- tests/vm/HostTierTest.cpp - Host translation tier tests --*- C++ -*-===//
//
// Differential tests of the host translation tier against the plain
// interpreter: same event stream, same RunOutcome, same machine state —
// including runs that fault or exhaust their block budget in the middle
// of a chained sequence — and byte-identical recorded traces.
//
//===----------------------------------------------------------------------===//

#include "vm/HostTier.h"

#include "core/Runner.h"
#include "core/Trace.h"
#include "core/TraceSegments.h"
#include "guest/ProgramBuilder.h"
#include "jit/CodeBuffer.h"
#include "oracle/EventPump.h"
#include "support/Rng.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

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

/// Runs \p P under the plain interpreter and under the host tier with the
/// same budget and asserts both produce the same events, outcome, and
/// final machine state. Returns the tier's coverage stats so callers can
/// assert the interesting tiers actually engaged.
HostTierStats expectTierMatchesPlain(const guest::Program &P,
                                     uint64_t MaxBlocks,
                                     const char *Label) {
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

/// A four-block chain (head, two straight-line members, a conditional
/// latch) re-entered \p Iters times. Block B loads from address r1 = r0
/// (the outer counter), so shrinking memory below Iters plants a MemFault
/// in the middle of the chain once it is hot. No block branches to
/// itself, so every member can join a chain.
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

} // namespace

TEST(HostTierTest, ChainPromotesAndMatchesPlain) {
  // Enough iterations to clear PromoteHeat with room to spare, memory
  // large enough that nothing faults.
  guest::Program P = makeChainProgram(200, 256);
  HostTierStats St = expectTierMatchesPlain(P, ~0ull, "clean chain");
  EXPECT_GT(St.Superblocks, 0u);
  if (jit::CodeBuffer::supported()) {
    EXPECT_GT(St.JitBlocks, 0u);
  }
}

TEST(HostTierTest, MemFaultMidChainMatchesPlain) {
  // The load in block B faults at outer iteration 64 — long after the
  // chain went hot — so the fault lands in the middle of a chained
  // sequence. The tier must deliver the matched prefix, then the faulting
  // block event, with machine state identical to the plain interpreter.
  guest::Program P = makeChainProgram(200, 64);
  HostTierStats St = expectTierMatchesPlain(P, ~0ull, "mid-chain fault");
  if (jit::CodeBuffer::supported()) {
    EXPECT_GT(St.JitBlocks, 0u);
    EXPECT_GT(St.JitDeopts, 0u); // the fault left compiled code
  }
}

TEST(HostTierTest, BlockLimitMidChainMatchesPlain) {
  guest::Program P = makeChainProgram(200, 256);
  // Budgets chosen to land at every offset within the four-block chained
  // sequence once the head runs compiled (at the default jit heat that is
  // from event 94 on: promotion after 8 iterations, compilation 16
  // arrivals later).
  for (uint64_t MaxBlocks : {101ull, 102ull, 103ull, 104ull, 150ull}) {
    HostTierStats St = expectTierMatchesPlain(
        P, MaxBlocks,
        ("budget " + std::to_string(MaxBlocks)).c_str());
    if (jit::CodeBuffer::supported()) {
      EXPECT_GT(St.JitBlocks, 0u) << MaxBlocks;
    }
  }
}

TEST(HostTierTest, BlockLimitInsideSelfLoopMatchesPlain) {
  // A counted self-loop, entered four times by an outer loop, with the
  // budget expiring mid-run: the batched iterations must stop exactly at
  // the budget and leave the registers as if the loop had been stepped
  // one iteration at a time. The first iterations of the first entry run
  // interpreted and heat the loop; when the jit is available the rest
  // run compiled, so every budget past the heat expires inside native
  // code.
  guest::ProgramBuilder PB("loop");
  auto Entry = PB.createBlock();
  auto Outer = PB.createBlock();
  auto Head = PB.createBlock();
  auto Latch = PB.createBlock();
  auto Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(3, 0);
  PB.jump(Outer);
  PB.switchTo(Outer);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(1, 1, 1);
  PB.xorI(2, 1, 0x5a5a);
  PB.branchImm(guest::CondKind::LtI, 1, 1 << 14, Head, Latch);
  PB.switchTo(Latch);
  PB.addI(3, 3, 1);
  PB.branchImm(guest::CondKind::LtI, 3, 4, Outer, Exit);
  PB.switchTo(Exit);
  PB.halt();
  guest::Program P = PB.build();
  // 65537 lands inside the fourth entry (each entry is 16386 events).
  for (uint64_t MaxBlocks : {1ull, 2ull, 3ull, 1000ull, 65537ull}) {
    HostTierStats St = expectTierMatchesPlain(
        P, MaxBlocks,
        ("loop budget " + std::to_string(MaxBlocks)).c_str());
    if (MaxBlocks > 3 && jit::CodeBuffer::supported()) {
      EXPECT_GT(St.JitLoopIters, 0u) << MaxBlocks;
    }
  }
}

TEST(HostTierTest, RecordedTraceBytesMatchPlainPump) {
  // The recorded artifact itself: BlockTrace::record (which routes
  // through the tier unless TPDBT_TIER=plain) must serialize to exactly
  // the bytes of a trace built one event at a time from the plain
  // interpreter. This is the property that keeps the committed
  // tpdbt_cache entries and their fingerprints stable.
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
    core::BlockTrace Recorded = core::BlockTrace::record(B.Ref);
    EXPECT_EQ(Recorded.serializeSegmented(core::DefaultSegmentEvents),
              Plain.serializeSegmented(core::DefaultSegmentEvents))
        << Name;
  }
}

TEST(HostTierTest, RandomizedDifferentialAgainstPlain) {
  // Seeded sweep over generated benchmarks and randomized budgets:
  // truncation points land anywhere (mid-chain, mid-fold, cold), and the
  // tier must match the plain interpreter event-for-event every time.
  Rng R(0x5b10c7);
  const char *Names[] = {"gzip", "mcf", "vpr", "art", "lucas"};
  for (const char *Name : Names) {
    auto B = workloads::generateBenchmark(
        workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
    expectTierMatchesPlain(B.Ref, ~0ull, Name);
    for (int Round = 0; Round < 3; ++Round) {
      uint64_t MaxBlocks = 1 + R.nextBelow(40000);
      expectTierMatchesPlain(
          B.Ref, MaxBlocks,
          (std::string(Name) + " budget " + std::to_string(MaxBlocks))
              .c_str());
    }
  }
}

TEST(HostTierTest, RandomizedSweepSnapshotsMatchPlainReplay) {
  // The .prof-level property: a live sweep (tier-backed when enabled)
  // must produce byte-identical snapshots to the event-pump replay of a
  // plainly recorded trace — so warm snapshot caches recorded before the
  // tier existed keep hitting.
  Rng R(0x77e21b);
  for (const char *Name : {"gzip", "art"}) {
    auto B = workloads::generateBenchmark(
        workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
    core::BlockTrace Plain;
    Plain.setShapes(core::blockShapes(B.Ref));
    Interpreter I(B.Ref);
    Machine M;
    M.reset(B.Ref);
    I.run(M, ~0ull, [&](guest::BlockId Blk, const BlockResult &Res) {
      Plain.append({Blk, branchCode(Res), Res.InstsExecuted});
    });
    std::vector<uint64_t> Thresholds;
    for (int K = 0; K < 3; ++K)
      Thresholds.push_back(1 + R.nextBelow(2000));
    core::SweepResult Live =
        core::runSweep(B.Ref, Thresholds, dbt::DbtOptions(), ~0ull);
    core::SweepResult Replayed = core::replaySweepEvents(
        Plain, B.Ref, Thresholds, dbt::DbtOptions());
    for (size_t K = 0; K < Thresholds.size(); ++K)
      EXPECT_EQ(profile::printSnapshot(Live.PerThreshold[K]),
                profile::printSnapshot(Replayed.PerThreshold[K]))
          << Name << " T=" << Thresholds[K];
    EXPECT_EQ(profile::printSnapshot(Live.Average),
              profile::printSnapshot(Replayed.Average))
        << Name;
  }
}
