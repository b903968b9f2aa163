//===- tests/core/TraceTest.cpp - Trace record/replay tests -----*- C++ -*-===//

#include "core/Trace.h"

#include "core/Experiment.h"
#include "core/TraceCache.h"
#include "core/TraceIndex.h"
#include "core/TraceSegments.h"
#include "dbt/DbtEngine.h"
#include "guest/ProgramBuilder.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include "ScopedEnv.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

/// One live interpreted run of \p P under \p Base at threshold \p T.
profile::ProfileSnapshot liveRun(const guest::Program &P, uint64_t T,
                                 dbt::DbtOptions Base) {
  Base.Threshold = T;
  return dbt::DbtEngine(P, Base).run(~0ull);
}

/// Asserts that the indexed analytic sweep and the event-pump oracle
/// produce byte-identical snapshots for every requested threshold.
void expectIndexedMatchesPump(const BlockTrace &T, const guest::Program &P,
                              const std::vector<uint64_t> &Thresholds,
                              const dbt::DbtOptions &Opts,
                              const char *Label) {
  SweepResult Pumped = replaySweepEvents(T, P, Thresholds, Opts);
  SweepResult Indexed = replaySweep(T, P, Thresholds, Opts);
  ASSERT_EQ(Indexed.PerThreshold.size(), Thresholds.size()) << Label;
  for (size_t I = 0; I < Thresholds.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(Indexed.PerThreshold[I]),
              profile::printSnapshot(Pumped.PerThreshold[I]))
        << Label << " T=" << Thresholds[I];
  EXPECT_EQ(profile::printSnapshot(Indexed.Average),
            profile::printSnapshot(Pumped.Average))
      << Label;
}

/// Appends \p Outcomes to \p PB's memory image and returns the address
/// of the first one: a branch-outcome script a block walks with a pointer
/// register.
int64_t appendScript(guest::ProgramBuilder &PB,
                     const std::vector<int64_t> &Outcomes) {
  int64_t Base = -1;
  for (int64_t V : Outcomes) {
    const int64_t At = static_cast<int64_t>(PB.appendMemWord(V));
    if (Base < 0)
      Base = At;
  }
  return Base;
}

/// Emits "load the next scripted outcome through pointer register \p Ptr
/// and branch on it (nonzero = taken)".
void scriptedBranch(guest::ProgramBuilder &PB, uint8_t Ptr,
                    guest::BlockId Taken, guest::BlockId Fall) {
  PB.load(9, Ptr, 0);
  PB.addI(Ptr, Ptr, 1);
  PB.branchImm(guest::CondKind::NeI, 9, 0, Taken, Fall);
}

/// A loop whose iteration is H -> D -> {A | B} -> M -> H, where D is a
/// balanced diamond and the arms and M are unconditional. Every
/// conditional outcome is scripted. The cycle has two static entries
/// (a never-taken Entry -> A edge besides S -> H), so it has no natural
/// loop header and region growth from S may run into it. At T=2 the
/// first optimization round forms the loop region at H and a second
/// region at S that duplicates H, D, A, B and M. After that the loop
/// runs in long same-outcome stretches, which the analytic replay folds.
guest::Program makeDuplicatedDiamondLoop() {
  using namespace guest;
  ProgramBuilder PB("duploop");
  BlockId Entry = PB.createBlock("entry");
  BlockId S = PB.createBlock("s");
  BlockId H = PB.createBlock("h");
  BlockId D = PB.createBlock("d");
  BlockId A = PB.createBlock("a");
  BlockId B = PB.createBlock("b");
  BlockId M = PB.createBlock("m");
  BlockId Exit = PB.createBlock("exit");

  // H: taken, taken, not taken, then long taken runs with one exit each.
  // D: A, B, then alternating runs. S: taken (back into H) until the
  // final not-taken ends the program.
  std::vector<int64_t> HOut = {1, 1, 0}, DOut = {1, 0}, SOut = {1, 1};
  for (int Run = 0; Run < 12; ++Run) {
    HOut.insert(HOut.end(), 150 + 37 * Run, 1);
    HOut.push_back(0);
    SOut.push_back(1);
  }
  SOut.back() = 0;
  for (int Run = 0; DOut.size() < HOut.size(); ++Run)
    DOut.insert(DOut.end(), 20 + 13 * (Run % 5), Run % 2 == 0 ? 1 : 0);
  const int64_t HBase = appendScript(PB, HOut);
  const int64_t DBase = appendScript(PB, DOut);
  const int64_t SBase = appendScript(PB, SOut);

  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, HBase);
  PB.movI(2, DBase);
  PB.movI(3, SBase);
  PB.movI(4, 0);
  PB.branchImm(CondKind::EqI, 4, 1, A, S); // never taken
  PB.switchTo(S);
  scriptedBranch(PB, 3, H, Exit);
  PB.switchTo(H);
  scriptedBranch(PB, 1, D, S);
  PB.switchTo(D);
  scriptedBranch(PB, 2, A, B);
  PB.switchTo(A);
  PB.addI(5, 5, 1);
  PB.jump(M);
  PB.switchTo(B);
  PB.addI(6, 6, 1);
  PB.addI(6, 6, 2);
  PB.addI(6, 6, 3);
  PB.jump(M);
  PB.switchTo(M);
  PB.addI(7, 7, 1);
  PB.addI(7, 7, 1);
  PB.jump(H);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

/// A hot loop head -> [a ->] b -> latch (head's conditional branch skips
/// a from the 33rd iteration on) whose block b loads from the address of
/// its iteration count: once the count reaches \p MemWords the load
/// faults one instruction into b's three, so the run ends on a partial
/// event.
guest::Program makeFaultingLoop(int64_t Iters, uint64_t MemWords) {
  using namespace guest;
  ProgramBuilder PB("faulting");
  BlockId Entry = PB.createBlock("entry");
  BlockId Head = PB.createBlock("head");
  BlockId A = PB.createBlock("a");
  BlockId B = PB.createBlock("b");
  BlockId Latch = PB.createBlock("latch");
  BlockId Exit = PB.createBlock("exit");
  PB.setMemWords(MemWords);
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(0, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(2, 0, 7);
  PB.branchImm(CondKind::LtI, 2, 40, A, B);
  PB.switchTo(A);
  PB.xorI(3, 2, 0x33);
  PB.jump(B);
  PB.switchTo(B);
  PB.mov(1, 0);
  PB.load(4, 1, 0); // faults once r0 reaches MemWords
  PB.jump(Latch);
  PB.switchTo(Latch);
  PB.addI(0, 0, 1);
  PB.branchImm(CondKind::LtI, 0, Iters, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

} // namespace

TEST(TraceTest, RecordCapturesFullExecution) {
  auto B = smallBench("vortex");
  BlockTrace T = BlockTrace::record(B.Ref);
  EXPECT_EQ(T.numBlocks(), B.Ref.numBlocks());
  EXPECT_GT(T.numEvents(), 1000u);
  EXPECT_GT(T.totalInsts(), T.numEvents()); // >= 1 inst per block
  // First event is the entry block.
  EXPECT_EQ(T.event(0).Block, B.Ref.Entry);
}

TEST(TraceTest, SerializeParseRoundTrip) {
  auto B = smallBench("art");
  BlockTrace T = BlockTrace::record(B.Ref);
  std::string Bytes = T.serializeSegmented(DefaultSegmentEvents);
  // Compact encoding: a handful of bytes per event.
  EXPECT_LT(Bytes.size(), T.numEvents() * 4 + 64);

  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error)) << Error;
  ASSERT_EQ(Q.numEvents(), T.numEvents());
  EXPECT_EQ(Q.numBlocks(), T.numBlocks());
  EXPECT_EQ(Q.totalInsts(), T.totalInsts());
  for (size_t I = 0; I < T.numEvents(); I += 97) {
    EXPECT_EQ(Q.event(I).Block, T.event(I).Block);
    EXPECT_EQ(Q.event(I).Branch, T.event(I).Branch);
    EXPECT_EQ(Q.event(I).Insts, T.event(I).Insts);
  }
  // Canonical: re-serializing parses back to identical bytes.
  EXPECT_EQ(Q.serializeSegmented(DefaultSegmentEvents), Bytes);
}

TEST(TraceTest, ParseRejectsCorruption) {
  auto B = smallBench("eon");
  std::string Bytes =
      BlockTrace::record(B.Ref, 500).serializeSegmented(DefaultSegmentEvents);
  BlockTrace Q;
  EXPECT_FALSE(BlockTrace::parse("garbage", Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() - 3), Q, nullptr));
  std::string Extra = Bytes + "x";
  EXPECT_FALSE(BlockTrace::parse(Extra, Q, nullptr));
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(BlockTrace::parse(BadMagic, Q, nullptr));
  std::string BadVersion = Bytes;
  BadVersion[4] = 9;
  EXPECT_FALSE(BlockTrace::parse(BadVersion, Q, nullptr));
}

TEST(TraceTest, ReplayMatchesLiveSweepExactly) {
  // The headline property: trace-driven replay produces byte-identical
  // snapshots to one live interpreted DbtEngine run per threshold (and a
  // threshold-0 run for the average).
  for (const char *Name : {"gzip", "swim"}) {
    auto B = smallBench(Name);
    std::vector<uint64_t> Thresholds = {1, 100, 2000};
    SweepResult Live;
    for (uint64_t T : Thresholds)
      Live.PerThreshold.push_back(liveRun(B.Ref, T, dbt::DbtOptions()));
    Live.Average = liveRun(B.Ref, 0, dbt::DbtOptions());
    BlockTrace T = BlockTrace::record(B.Ref);
    SweepResult Replayed =
        replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions());

    for (size_t I = 0; I < Thresholds.size(); ++I)
      EXPECT_EQ(profile::printSnapshot(Replayed.PerThreshold[I]),
                profile::printSnapshot(Live.PerThreshold[I]))
          << Name << " T=" << Thresholds[I];
    EXPECT_EQ(profile::printSnapshot(Replayed.Average),
              profile::printSnapshot(Live.Average))
        << Name;
  }
}

TEST(TraceTest, ReplayAfterSerializationStillMatches) {
  auto B = smallBench("lucas");
  BlockTrace T = BlockTrace::record(B.Ref);
  BlockTrace Q;
  ASSERT_TRUE(BlockTrace::parse(T.serializeSegmented(DefaultSegmentEvents),
                                Q, nullptr));
  SweepResult A = replaySweep(T, B.Ref, {500}, dbt::DbtOptions());
  SweepResult C = replaySweep(Q, B.Ref, {500}, dbt::DbtOptions());
  EXPECT_EQ(profile::printSnapshot(A.PerThreshold[0]),
            profile::printSnapshot(C.PerThreshold[0]));
}

TEST(TraceTest, MaxBlocksTruncatesRecording) {
  auto B = smallBench("mesa");
  BlockTrace T = BlockTrace::record(B.Ref, 123);
  EXPECT_EQ(T.numEvents(), 123u);
}

TEST(TraceTest, IndexedReplayMatchesEventPumpRandomized) {
  // Differential test for the analytic evaluator: randomized threshold
  // sets (duplicates included), pool limits and region-formation options
  // must reproduce the event pump byte-for-byte.
  Rng R(0x1d9f2c);
  for (const char *Name :
       {"gzip", "art", "eon", "gcc", "mcf", "twolf", "mgrid", "equake"}) {
    auto B = smallBench(Name);
    BlockTrace T = BlockTrace::record(B.Ref);
    for (int Round = 0; Round < 3; ++Round) {
      std::vector<uint64_t> Thresholds;
      size_t Count = 2 + R.nextBelow(5);
      for (size_t I = 0; I < Count; ++I)
        Thresholds.push_back(1 + R.nextBelow(3000));
      if (Count >= 3)
        Thresholds.push_back(Thresholds[R.nextBelow(Count)]); // duplicate
      dbt::DbtOptions Opts;
      Opts.PoolLimit = 1 + R.nextBelow(16);
      region::FormationOptions &F = Opts.Formation;
      F.MinBranchProb = 0.5 + 0.45 * R.nextDouble();
      F.MaxRegionBlocks = 1 + R.nextBelow(32);
      F.EnableDiamonds = R.nextBool(0.5);
      F.AllowDuplication = R.nextBool(0.5);
      expectIndexedMatchesPump(T, B.Ref, Thresholds, Opts, Name);
    }
  }
}

TEST(TraceTest, IndexedReplayMatchesEventPumpTruncated) {
  // Truncated recordings end mid-execution (often mid-loop), exercising
  // the analytic walker's tail handling.
  auto B = smallBench("swim");
  for (uint64_t MaxBlocks : {77ull, 1000ull, 5001ull}) {
    BlockTrace T = BlockTrace::record(B.Ref, MaxBlocks);
    expectIndexedMatchesPump(T, B.Ref, {1, 10, 200, 100000},
                             dbt::DbtOptions(), "swim");
  }
}

TEST(TraceTest, IndexedReplayMatchesEventPumpAcrossJobCounts) {
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref);
  std::vector<uint64_t> Thresholds = {1, 100, 100, 2000};
  SweepResult Pumped = replaySweepEvents(T, B.Ref, Thresholds,
                                         dbt::DbtOptions());
  for (unsigned Jobs : {1u, 4u}) {
    SweepResult Indexed =
        replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions(), Jobs);
    for (size_t I = 0; I < Thresholds.size(); ++I)
      EXPECT_EQ(profile::printSnapshot(Indexed.PerThreshold[I]),
                profile::printSnapshot(Pumped.PerThreshold[I]))
          << "jobs=" << Jobs << " T=" << Thresholds[I];
    EXPECT_EQ(profile::printSnapshot(Indexed.Average),
              profile::printSnapshot(Pumped.Average))
        << "jobs=" << Jobs;
  }
}

TEST(TraceTest, AdaptiveSweepFallsBackToEventPump) {
  // Adaptive mode has no static freeze timeline; replaySweep must route
  // through the event pump and still dedupe repeated thresholds.
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref);
  dbt::DbtOptions Opts;
  Opts.Adaptive.Enabled = true;
  Opts.Adaptive.MinEntries = 32;
  std::vector<uint64_t> Thresholds = {100, 500, 100};
  SweepResult Pumped = replaySweepEvents(T, B.Ref, Thresholds, Opts);
  SweepResult Replayed = replaySweep(T, B.Ref, Thresholds, Opts);
  for (size_t I = 0; I < Thresholds.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(Replayed.PerThreshold[I]),
              profile::printSnapshot(Pumped.PerThreshold[I]))
        << "T=" << Thresholds[I];
  EXPECT_EQ(profile::printSnapshot(Replayed.Average),
            profile::printSnapshot(Pumped.Average));
}

TEST(TraceTest, AdaptiveReplayMatchesLiveEngine) {
  // The adaptive production path (replaySweep pumps the thresholds and
  // takes the average in closed form) against one live adaptive engine
  // per threshold, on programs whose regions really thaw.
  dbt::DbtOptions Opts;
  Opts.Adaptive.Enabled = true;
  Opts.Adaptive.MinEntries = 32;
  const std::vector<uint64_t> Thresholds = {50, 500, 5000};
  uint64_t Retranslations = 0;
  for (const char *Name : {"gzip", "gcc", "mcf"}) {
    auto B = smallBench(Name);
    SweepResult Replayed =
        replaySweep(BlockTrace::record(B.Ref), B.Ref, Thresholds, Opts);
    ASSERT_EQ(Replayed.PerThreshold.size(), Thresholds.size()) << Name;
    for (size_t I = 0; I < Thresholds.size(); ++I) {
      dbt::DbtOptions LiveOpts = Opts;
      LiveOpts.Threshold = Thresholds[I];
      dbt::DbtEngine Live(B.Ref, LiveOpts);
      EXPECT_EQ(profile::printSnapshot(Replayed.PerThreshold[I]),
                profile::printSnapshot(Live.run(~0ull)))
          << Name << " T=" << Thresholds[I];
      Retranslations += Live.retranslations();
    }
    EXPECT_EQ(profile::printSnapshot(Replayed.Average),
              profile::printSnapshot(liveRun(B.Ref, 0, Opts)))
        << Name;
  }
  EXPECT_GT(Retranslations, 0u) << "no region thawed: adaptive path untested";
}

TEST(TraceTest, DuplicateThresholdsShareOneEvaluation) {
  auto B = smallBench("lucas");
  BlockTrace T = BlockTrace::record(B.Ref);
  SweepResult Deduped =
      replaySweep(T, B.Ref, {500, 500, 500}, dbt::DbtOptions());
  SweepResult Single = replaySweep(T, B.Ref, {500}, dbt::DbtOptions());
  ASSERT_EQ(Deduped.PerThreshold.size(), 3u);
  for (const auto &S : Deduped.PerThreshold)
    EXPECT_EQ(profile::printSnapshot(S),
              profile::printSnapshot(Single.PerThreshold[0]));
}

TEST(TraceTest, ParseRejectsCounterTableMismatch) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 500);
  const std::string Good = T.serializeSegmented(DefaultSegmentEvents);
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Good, Good.size(), H, nullptr));

  // Re-assemble the same segments under a nudged counter table: one use
  // moves from a block with a spare untaken use to another block, so the
  // table still sums to the event count (and the taken total is intact)
  // but disagrees with the decoded events.
  std::vector<TraceSegmentRecord> Segments;
  for (const SegmentedTraceHeader::Entry &Ent : H.Directory) {
    TraceSegmentRecord Rec;
    Rec.Events = Ent.Events;
    Rec.BaseInsts = Ent.BaseInsts;
    Rec.BaseTaken = Ent.BaseTaken;
    Rec.Payload = Good.substr(Ent.PayloadOffset, Ent.PayloadBytes);
    Segments.push_back(std::move(Rec));
  }
  // The receiving block has the same length, so the derived instruction
  // total is intact too.
  SegmentedTraceHeader Nudge = H;
  std::vector<profile::BlockCounters> &Final = Nudge.Final;
  size_t From = 0, To = 0;
  for (; From < Final.size(); ++From) {
    if (Final[From].Use <= Final[From].Taken)
      continue;
    for (To = 0; To < Final.size(); ++To)
      if (To != From && H.Shapes[To].Len == H.Shapes[From].Len)
        break;
    if (To < Final.size())
      break;
  }
  ASSERT_LT(From, Final.size());
  --Final[From].Use;
  ++Final[To].Use;
  const std::string Bytes = assembleSegmentedTrace(Nudge, Segments);

  SegmentedTraceHeader Nudged;
  std::string Error;
  ASSERT_TRUE(parseSegmentedHeader(Bytes, Bytes.size(), Nudged, &Error))
      << Error;
  BlockTrace Q;
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "trace counter table disagrees with events");
}

TEST(TraceTest, AvepOnlyReplayBuildsNoIndex) {
  // The profiling-only average is a closed form of the stream totals: a
  // replay with no thresholds must answer it without building the index,
  // and byte-identically to the event pump.
  for (const workloads::BenchSpec &Spec : workloads::spec2000Suite()) {
    auto B = workloads::generateBenchmark(workloads::scaledSpec(Spec, 0.01));
    BlockTrace Parsed;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(
        BlockTrace::record(B.Ref).serializeSegmented(DefaultSegmentEvents),
        Parsed, &Error))
        << Spec.Name << ": " << Error;
    dbt::DbtOptions Opts;
    SweepResult Replayed = replaySweep(Parsed, B.Ref, {}, Opts);
    EXPECT_EQ(Parsed.sharedIndex(), nullptr) << Spec.Name;
    EXPECT_TRUE(Replayed.PerThreshold.empty()) << Spec.Name;
    SweepResult Pumped = replaySweepEvents(Parsed, B.Ref, {}, Opts);
    EXPECT_EQ(profile::printSnapshot(Replayed.Average),
              profile::printSnapshot(Pumped.Average))
        << Spec.Name;
  }
}

TEST(TraceTest, FoldedLoopWithDuplicatedBlockMatchesEventPump) {
  // The analytic walk over a multi-node loop region must match the pump
  // when one of the loop's blocks is duplicated into a second region and
  // the diamond arms differ in size.
  const guest::Program P = makeDuplicatedDiamondLoop();
  BlockTrace T = BlockTrace::record(P);
  ASSERT_GT(T.numEvents(), 5000u);
  dbt::DbtOptions Opts;
  ASSERT_TRUE(Opts.Formation.AllowDuplication);
  const std::vector<uint64_t> Thresholds = {1, 2, 3, 8, 100};
  expectIndexedMatchesPump(T, P, Thresholds, Opts, "duploop");

  // At T=2 the folded loop region exists: a loop at H (block 2) whose
  // path holds the diamond at D (3) and the unconditional M (6), with M
  // duplicated into the region seeded at S (1).
  const guest::BlockId S = 1, H = 2, D = 3, M = 6;
  SweepResult R = replaySweep(T, P, {2}, Opts);
  const std::vector<region::Region> &Regions = R.PerThreshold[0].Regions;
  const region::Region *Loop = nullptr;
  size_t RegionsWithM = 0;
  for (const region::Region &Reg : Regions) {
    RegionsWithM += Reg.containsBlock(M);
    if (Reg.entryBlock() == H && Reg.Kind == region::RegionKind::Loop)
      Loop = &Reg;
  }
  ASSERT_NE(Loop, nullptr) << "no loop region at H";
  EXPECT_TRUE(Loop->containsBlock(M));
  const auto DiamondAt = std::find_if(
      Loop->Nodes.begin(), Loop->Nodes.end(),
      [&](const region::RegionNode &N) {
        return N.Orig == D && N.HasCondBranch && N.TakenSucc >= 0 &&
               N.FallSucc >= 0;
      });
  EXPECT_NE(DiamondAt, Loop->Nodes.end()) << "no diamond in the loop";
  EXPECT_EQ(RegionsWithM, 2u) << "M is not duplicated";
  bool SeededAtS = false;
  for (const region::Region &Reg : Regions)
    SeededAtS |= Reg.entryBlock() == S && Reg.containsBlock(H);
  EXPECT_TRUE(SeededAtS);
}

TEST(TraceTest, PartialFinalEventRoundTripsAndReplaysUnderEveryTier) {
  // A MemFault stops the run one instruction into block b: the only event
  // short of its block's length, kept in the trace's tail field. Every
  // tier records the same trace, every segment budget round-trips it, the
  // index accounts the tail, and both replays match the live engine.
  const guest::Program P = makeFaultingLoop(200, 96);
  const guest::BlockId FaultBlock = 3;
  vm::Interpreter Interp(P);
  vm::Machine M;
  M.reset(P);
  const vm::RunOutcome Plain = Interp.run(
      M, ~0ull, [](guest::BlockId, const vm::BlockResult &) {});
  ASSERT_EQ(Plain.Reason, vm::StopReason::MemFault);

  const std::vector<uint64_t> Thresholds = {1, 2, 5, 16, 50, 500};
  std::string Canonical;
  for (const char *Tier : {"plain", "predecoded", "jit"}) {
    ScopedEnv TierKnob("TPDBT_TIER", Tier);
    ScopedEnv Heat("TPDBT_JIT_HEAT", "1");
    const BlockTrace T = BlockTrace::record(P);
    ASSERT_EQ(T.numEvents(), Plain.BlocksExecuted) << Tier;
    EXPECT_EQ(T.totalInsts(), Plain.InstsExecuted) << Tier;
    const TraceEvent Last = T.event(T.numEvents() - 1);
    EXPECT_EQ(Last.Block, FaultBlock) << Tier;
    EXPECT_EQ(Last.Branch, 0) << Tier;
    EXPECT_EQ(Last.Insts, 2u) << Tier; // the mov, then the faulting load
    EXPECT_EQ(T.tailInsts(), 2u) << Tier;

    const std::string Bytes = T.serializeSegmented(DefaultSegmentEvents);
    if (Canonical.empty())
      Canonical = Bytes;
    EXPECT_EQ(Bytes, Canonical) << Tier;
    for (uint64_t Budget : {uint64_t(1), uint64_t(256), DefaultSegmentEvents}) {
      BlockTrace Q;
      std::string Error;
      ASSERT_TRUE(BlockTrace::parse(T.serializeSegmented(Budget), Q, &Error))
          << Tier << " budget " << Budget << ": " << Error;
      ASSERT_EQ(Q.numEvents(), T.numEvents());
      EXPECT_EQ(Q.totalInsts(), Plain.InstsExecuted);
      EXPECT_EQ(Q.tailInsts(), T.tailInsts());
      for (size_t I = 0; I < T.numEvents(); ++I) {
        ASSERT_EQ(Q.event(I).Block, T.event(I).Block) << I;
        ASSERT_EQ(Q.event(I).Branch, T.event(I).Branch) << I;
        ASSERT_EQ(Q.event(I).Insts, T.event(I).Insts) << I;
      }
      EXPECT_EQ(Q.serializeSegmented(DefaultSegmentEvents), Canonical);
    }

    // The tail block's instruction prefix: whole executions, then the
    // partial one when the prefix reaches it.
    const TraceIndex &Idx = T.index();
    const uint32_t Occ = Idx.occurrences(FaultBlock);
    ASSERT_GT(Occ, 1u);
    EXPECT_EQ(Idx.instsOfFirst(FaultBlock, Occ - 1), uint64_t(Occ - 1) * 3);
    EXPECT_EQ(Idx.instsOfFirst(FaultBlock, Occ), uint64_t(Occ - 1) * 3 + 2);
    uint64_t Sum = 0;
    for (guest::BlockId B = 0; B < P.numBlocks(); ++B)
      Sum += Idx.instsOfFirst(B, Idx.occurrences(B));
    EXPECT_EQ(Sum, Plain.InstsExecuted);

    const SweepResult Indexed = replaySweep(T, P, Thresholds, {});
    const SweepResult Pumped = replaySweepEvents(T, P, Thresholds, {});
    for (size_t I = 0; I < Thresholds.size(); ++I) {
      const std::string Live =
          profile::printSnapshot(liveRun(P, Thresholds[I], {}));
      EXPECT_EQ(profile::printSnapshot(Indexed.PerThreshold[I]), Live)
          << Tier << " T=" << Thresholds[I];
      EXPECT_EQ(profile::printSnapshot(Pumped.PerThreshold[I]), Live)
          << Tier << " T=" << Thresholds[I];
    }
    const std::string LiveAvg = profile::printSnapshot(liveRun(P, 0, {}));
    EXPECT_EQ(profile::printSnapshot(Indexed.Average), LiveAvg) << Tier;
    EXPECT_EQ(profile::printSnapshot(Pumped.Average), LiveAvg) << Tier;
  }
}

// The independent oracle for the analytic replay at any scale, disabled
// in tier-1 because it pumps every event of all 26 ref traces (a
// paper-scale run replays ~650M events). Run it on a cache a figure
// suite just filled, e.g. after the cold scale-1 suite:
//   TPDBT_SCALE=1 TPDBT_CACHE_DIR=<dir> core_test
//     --gtest_also_run_disabled_tests
//     --gtest_filter=TraceTest.DISABLED_EventPumpReproducesSuiteSnapshots
// Every INIP(T) and AVEP snapshot the context serves (from its .prof
// files, or an analytic replay when they are missing) must print
// byte-identical to the plain event pump over the same ref trace.
TEST(TraceTest, DISABLED_EventPumpReproducesSuiteSnapshots) {
  const ExperimentConfig Config = ExperimentConfig::fromEnv();
  ExperimentContext Ctx(Config);
  TraceCache Traces(Config.CacheDir);
  const std::vector<uint64_t> &Thresholds = performanceThresholds();
  const std::vector<workloads::BenchSpec> &Suite = workloads::spec2000Suite();
  std::vector<std::vector<std::string>> Pumped(Suite.size()),
      Served(Suite.size());
  parallelFor(Suite.size(), Config.effectiveJobs(), [&](size_t I) {
    const std::string &Name = Suite[I].Name;
    const workloads::GeneratedBenchmark &B = Ctx.benchmark(Name);
    for (uint64_t T : Thresholds)
      Served[I].push_back(profile::printSnapshot(Ctx.inip(Name, T)));
    Served[I].push_back(profile::printSnapshot(Ctx.avep(Name)));
    SweepResult Pump = replaySweepEvents(
        *Traces.get(Name, "ref", Config.traceFingerprint(B.Spec), B.Ref,
                    B.Spec.MaxBlockEvents),
        B.Ref, Thresholds, Config.Dbt);
    Pump.PerThreshold.push_back(std::move(Pump.Average));
    for (profile::ProfileSnapshot &S : Pump.PerThreshold) {
      S.Benchmark = Name; // the context labels what it serves
      S.Input = "ref";
      Pumped[I].push_back(profile::printSnapshot(S));
    }
  });
  for (size_t I = 0; I < Suite.size(); ++I) {
    ASSERT_EQ(Pumped[I].size(), Thresholds.size() + 1) << Suite[I].Name;
    for (size_t K = 0; K < Thresholds.size(); ++K)
      EXPECT_EQ(Served[I][K], Pumped[I][K])
          << Suite[I].Name << " T=" << Thresholds[K];
    EXPECT_EQ(Served[I].back(), Pumped[I].back()) << Suite[I].Name << " AVEP";
  }
}
