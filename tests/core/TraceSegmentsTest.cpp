//===- tests/core/TraceSegmentsTest.cpp - Segmented trace tests -*- C++ -*-===//

#include "core/TraceSegments.h"

#include "core/TraceCache.h"
#include "core/TracePipeline.h"
#include "oracle/EventPump.h"
#include "support/Compression.h"
#include "support/Rng.h"
#include "support/TextFile.h"
#include "support/Varint.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

std::string tempDir(const char *Tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tpdbt_") + Tag + "_" + std::to_string(getpid())))
      .string();
}

void expectSameEvents(const BlockTrace &A, const BlockTrace &B,
                      const char *Label) {
  ASSERT_EQ(A.numEvents(), B.numEvents()) << Label;
  ASSERT_EQ(A.numBlocks(), B.numBlocks()) << Label;
  EXPECT_EQ(A.totalInsts(), B.totalInsts()) << Label;
  EXPECT_EQ(A.takenEvents(), B.takenEvents()) << Label;
  for (size_t I = 0; I < A.numEvents(); ++I) {
    ASSERT_EQ(A.event(I).Block, B.event(I).Block) << Label << " @" << I;
    ASSERT_EQ(A.event(I).Branch, B.event(I).Branch) << Label << " @" << I;
    ASSERT_EQ(A.event(I).Insts, B.event(I).Insts) << Label << " @" << I;
  }
}

void expectSameSweep(const SweepResult &A, const SweepResult &B,
                     size_t Thresholds, const char *Label) {
  ASSERT_EQ(A.PerThreshold.size(), Thresholds) << Label;
  ASSERT_EQ(B.PerThreshold.size(), Thresholds) << Label;
  for (size_t I = 0; I < Thresholds; ++I)
    EXPECT_EQ(profile::printSnapshot(A.PerThreshold[I]),
              profile::printSnapshot(B.PerThreshold[I]))
        << Label << " #" << I;
  EXPECT_EQ(profile::printSnapshot(A.Average),
            profile::printSnapshot(B.Average))
      << Label;
}

/// The retired monolithic encodings of one 3-event, 2-block trace —
/// block 0 (no branch, 5 insts), block 1 (taken, 3 insts), block 0 (not
/// taken, 2 insts): "TPDT", a version byte, block and event counts, the
/// final counter table (v2 only), then the per-event varint pairs.
void packEvent(std::string &Out, int64_t Delta, uint8_t Branch,
               uint64_t Insts) {
  putVarint(Out, (zigzagEncode(Delta) << 2) | Branch);
  putVarint(Out, Insts);
}

std::string v1Fixture() {
  std::string V1("TPDT", 4);
  V1.push_back(1);
  putVarint(V1, 2); // blocks
  putVarint(V1, 3); // events
  packEvent(V1, 0, 0, 5);
  packEvent(V1, 1, 2, 3);
  packEvent(V1, -1, 1, 2);
  return V1;
}

std::string v2Fixture() {
  std::string V2("TPDT", 4);
  V2.push_back(2);
  putVarint(V2, 2); // blocks
  putVarint(V2, 3); // events
  putVarint(V2, 2); // block 0: use
  putVarint(V2, 0); //          taken
  putVarint(V2, 1); // block 1: use
  putVarint(V2, 1); //          taken
  packEvent(V2, 0, 0, 5);
  packEvent(V2, 1, 2, 3);
  packEvent(V2, -1, 1, 2);
  return V2;
}

/// The same retired v2 layout for a whole recording, as the monolithic
/// writer framed it on disk: one TPDZ frame around the stream.
std::string packedV2(const BlockTrace &T) {
  std::string Out("TPDT", 4);
  Out.push_back(2);
  putVarint(Out, T.numBlocks());
  putVarint(Out, T.numEvents());
  for (const profile::BlockCounters &C : T.finalCounts()) {
    putVarint(Out, C.Use);
    putVarint(Out, C.Taken);
  }
  int64_t Prev = 0;
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    packEvent(Out, static_cast<int64_t>(E.Block) - Prev, E.Branch, E.Insts);
    Prev = static_cast<int64_t>(E.Block);
  }
  return compressBytes(Out);
}

} // namespace

TEST(TraceSegmentsTest, BudgetKnobParsesAndClamps) {
  unsetenv("TPDBT_SEGMENT_EVENTS");
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
  setenv("TPDBT_SEGMENT_EVENTS", "0", 1);
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents); // 0 reads as unset
  setenv("TPDBT_SEGMENT_EVENTS", "1", 1);
  EXPECT_EQ(segmentEventBudget(), MinSegmentEvents); // clamped up
  setenv("TPDBT_SEGMENT_EVENTS", "4096", 1);
  EXPECT_EQ(segmentEventBudget(), 4096u);
  setenv("TPDBT_SEGMENT_EVENTS", "garbage", 1);
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
  setenv("TPDBT_SEGMENT_EVENTS", "12x", 1);
  EXPECT_EQ(segmentEventBudget(), DefaultSegmentEvents);
  unsetenv("TPDBT_SEGMENT_EVENTS");
}

TEST(TraceSegmentsTest, SegmentEncodeDecodeRoundTrip) {
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  ASSERT_GT(T.numEvents(), 100u);
  // Slice out of the middle: the delta chain must restart cleanly.
  const size_t At = 37, N = 101;
  const EventWord *Slice = T.words().data() + At;
  std::string Raw = encodeSegmentEvents(Slice, N);
  std::vector<EventWord> Out;
  std::vector<profile::BlockCounters> Table(T.numBlocks());
  SegmentDecode D;
  std::string Error;
  ASSERT_TRUE(decodeSegmentEvents(Raw, N, T.shapes(), &Out, &Table, D,
                                  &Error))
      << Error;
  ASSERT_EQ(Out.size(), N);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Out[I], Slice[I]);
  // The pass's own sums, last event and fold agree with the events.
  const EventSums Want = sumEvents(Slice, N, T.shapes());
  EXPECT_EQ(D.Sums.Insts, Want.Insts);
  EXPECT_EQ(D.Sums.Taken, Want.Taken);
  EXPECT_EQ(D.Last, Slice[N - 1]);
  std::vector<profile::BlockCounters> WantTable(T.numBlocks());
  for (size_t I = 0; I < N; ++I) {
    ++WantTable[eventBlock(Slice[I])].Use;
    WantTable[eventBlock(Slice[I])].Taken += eventTaken(Slice[I]);
  }
  for (size_t Bl = 0; Bl < T.numBlocks(); ++Bl) {
    EXPECT_EQ(Table[Bl].Use, WantTable[Bl].Use) << "block " << Bl;
    EXPECT_EQ(Table[Bl].Taken, WantTable[Bl].Taken) << "block " << Bl;
  }
  // Neither output is needed for the sums.
  SegmentDecode Bare;
  ASSERT_TRUE(decodeSegmentEvents(Raw, N, T.shapes(), nullptr, nullptr, Bare,
                                  &Error))
      << Error;
  EXPECT_EQ(Bare.Sums.Insts, Want.Insts);
  EXPECT_EQ(Bare.Last, D.Last);
  // Wrong expectations are rejected.
  Out.clear();
  EXPECT_FALSE(
      decodeSegmentEvents(Raw, N + 1, T.shapes(), &Out, nullptr, D, nullptr));
  Out.clear();
  EXPECT_FALSE(
      decodeSegmentEvents(Raw, N - 1, T.shapes(), &Out, nullptr, D, nullptr));
  // A taken bit on a block without a conditional branch is rejected.
  size_t Plain = 0;
  while (T.shapes()[eventBlock(Slice[Plain])].Cond)
    ++Plain;
  ASSERT_LT(Plain, N);
  std::vector<EventWord> Bad(Slice, Slice + N);
  Bad[Plain] |= 1;
  Out.clear();
  EXPECT_FALSE(decodeSegmentEvents(encodeSegmentEvents(Bad.data(), N), N,
                                   T.shapes(), &Out, nullptr, D, &Error));
  EXPECT_EQ(Error, "taken bit on a block without a conditional branch");
}

TEST(TraceSegmentsTest, DecoderRejectsEachMalformedEvent) {
  // Hand-built raw payloads over a 300-block shape table, so block ids
  // at and past the table need multi-byte varints. Each rejection names
  // its own cause, and a failed decode leaves the output as it found it.
  const std::vector<BlockShape> Shapes(300, BlockShape{3, true});
  auto Event = [](int64_t Delta, bool Taken) {
    std::string Out;
    putVarint(Out, zigzagEncode(Delta) << 1 | (Taken ? 1 : 0));
    return Out;
  };
  auto Rejects = [&](const std::string &Raw, uint64_t Events,
                     const char *Want) {
    std::vector<EventWord> Out(7, 0);
    std::vector<profile::BlockCounters> Table(Shapes.size());
    SegmentDecode D;
    std::string Error;
    EXPECT_FALSE(
        decodeSegmentEvents(Raw, Events, Shapes, &Out, &Table, D, &Error))
        << Want;
    EXPECT_EQ(Error, Want);
    EXPECT_EQ(Out.size(), 7u) << Want;
  };
  // The stream ends inside a varint's continuation bytes.
  Rejects(Event(5, false) + Event(200, true).substr(0, 1), 2,
          "truncated segment event");
  // Fewer bytes than the events the directory promises.
  Rejects(Event(5, false), 2, "truncated segment event");
  // Eleven bytes: ten continuation bytes carry the value past 64 bits.
  Rejects(std::string(10, '\x80') + '\x00', 1,
          "segment event varint wider than 64 bits");
  // A whole event more than the directory row declares.
  Rejects(Event(5, false) + Event(1, false), 1,
          "trailing bytes after segment events");
  // The delta chain restarts at block 0, so a first delta of -1 and a
  // later one past the chain's start both leave the table below.
  Rejects(Event(-1, false), 1, "block delta below block 0");
  Rejects(Event(70, false) + Event(-71, true), 2, "block delta below block 0");
  // Block ids at and past the table's size.
  Rejects(Event(300, false), 1, "block id out of range");
  Rejects(Event(299, false) + Event(1, false), 2, "block id out of range");
  Rejects(Event(int64_t(1) << 40, false), 1, "block id out of range");
}

namespace {

/// An event-at-a-time decoder with decodeSegmentEvents()'s contract and
/// errors: one varint, one check, one sum and one fold per event, with no
/// run fold. The decode-run test checks the library against it.
bool referenceDecode(std::string_view Raw, uint64_t ExpectEvents,
                     const std::vector<BlockShape> &Shapes,
                     std::vector<EventWord> *Out,
                     std::vector<profile::BlockCounters> *Table,
                     SegmentDecode &Result, std::string *Error) {
  const size_t From = Out ? Out->size() : 0;
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    if (Out)
      Out->resize(From);
    return false;
  };
  if (ExpectEvents > Raw.size())
    return Fail("truncated segment event");
  const auto *Bytes = reinterpret_cast<const uint8_t *>(Raw.data());
  const auto NumBlocks = static_cast<int64_t>(Shapes.size());
  SegmentDecode D;
  size_t Pos = 0;
  int64_t Block = 0;
  for (uint64_t I = 0; I < ExpectEvents; ++I) {
    if (Pos == Raw.size())
      return Fail("truncated segment event");
    uint64_t Packed = Bytes[Pos++];
    if (Packed >= 0x80) {
      Packed &= 0x7f;
      for (unsigned Shift = 7;; Shift += 7) {
        if (Shift > 63)
          return Fail("segment event varint wider than 64 bits");
        if (Pos == Raw.size())
          return Fail("truncated segment event");
        const uint8_t Byte = Bytes[Pos++];
        Packed |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
        if (!(Byte & 0x80))
          break;
      }
    }
    Block += zigzagDecode(Packed >> 1);
    if (Block < 0)
      return Fail("block delta below block 0");
    if (Block >= NumBlocks)
      return Fail("block id out of range");
    const bool Taken = Packed & 1;
    if (Taken && !Shapes[Block].Cond)
      return Fail("taken bit on a block without a conditional branch");
    D.Sums.Insts += Shapes[Block].Len;
    D.Sums.Taken += Taken;
    D.Last = core::packEvent(static_cast<guest::BlockId>(Block), Taken);
    if (Table) {
      ++(*Table)[Block].Use;
      (*Table)[Block].Taken += Taken;
    }
    if (Out)
      Out->push_back(D.Last);
  }
  if (Pos != Raw.size())
    return Fail("trailing bytes after segment events");
  Result = D;
  return true;
}

} // namespace

TEST(TraceSegmentsTest, DecodeRunsMatchEventAtATimeDecode) {
  // Block 0 and 2 end in conditional branches, block 1 does not, so runs
  // of 0x01 (taken, zero delta) are legal on 0 and 2 and rejected on 1.
  const std::vector<BlockShape> Shapes = {
      BlockShape{4, true}, BlockShape{7, false}, BlockShape{2, true}};
  auto Event = [](int64_t Delta, bool Taken) {
    std::string Out;
    putVarint(Out, zigzagEncode(Delta) << 1 | (Taken ? 1 : 0));
    return Out;
  };
  auto Run = [](char Byte, size_t N) { return std::string(N, Byte); };
  size_t Accepted = 0, Rejected = 0;
  auto agree = [&](const std::string &Raw, uint64_t Expect,
                   const std::string &Label) {
    for (bool WithOut : {false, true}) {
      const std::vector<EventWord> Prefix = {core::packEvent(1, false), 9};
      std::vector<EventWord> GotOut = Prefix, WantOut = Prefix;
      std::vector<profile::BlockCounters> GotTable(Shapes.size()),
          WantTable(Shapes.size());
      SegmentDecode Got, Want;
      Got.Last = Want.Last = 0x55; // untouched on failure
      std::string GotError = "none", WantError = "none";
      const bool GotOk =
          decodeSegmentEvents(Raw, Expect, Shapes, WithOut ? &GotOut : nullptr,
                              &GotTable, Got, &GotError);
      const bool WantOk =
          referenceDecode(Raw, Expect, Shapes, WithOut ? &WantOut : nullptr,
                          &WantTable, Want, &WantError);
      ASSERT_EQ(GotOk, WantOk) << Label;
      ASSERT_EQ(GotError, WantError) << Label;
      ASSERT_EQ(GotOut, WantOut) << Label;
      for (size_t B = 0; B < Shapes.size(); ++B) {
        ASSERT_EQ(GotTable[B].Use, WantTable[B].Use) << Label << " " << B;
        ASSERT_EQ(GotTable[B].Taken, WantTable[B].Taken) << Label << " " << B;
      }
      ASSERT_EQ(Got.Sums.Insts, Want.Sums.Insts) << Label;
      ASSERT_EQ(Got.Sums.Taken, Want.Sums.Taken) << Label;
      ASSERT_EQ(Got.Last, Want.Last) << Label;
      Accepted += GotOk;
      Rejected += !GotOk;
    }
  };
  // Every case at its exact event count and at counts around it.
  auto agreeAround = [&](const std::string &Raw, uint64_t Exact,
                         const std::string &Label) {
    for (uint64_t Expect :
         {Exact, Exact - 1, Exact + 1, Exact / 2, uint64_t(1)})
      agree(Raw, Expect, Label + " expect " + std::to_string(Expect));
  };

  // A run at event 0 repeats block 0, where every delta chain starts.
  agreeAround(Run('\x00', 5) + Event(1, false) + Event(-1, true), 7,
              "run at event 0");
  agreeAround(Run('\x01', 9), 9, "taken run at event 0");
  // A run the directory row cuts short: the rest are trailing bytes.
  agree(Event(2, true) + Run('\x00', 40), 20, "run past the expected count");
  agree(Event(2, false) + Run('\x01', 40), 41, "taken run at the count");
  // The bytes end inside a run (the up-front size check cannot see it
  // when a multi-byte varint precedes the run).
  agree(Event(2, false) + Event(200, true).substr(0, 1) + Run('\x00', 3), 5,
        "truncated varint before a run");
  agree(Event(2, false) + Run('\x00', 6), 8, "truncated mid-run");
  // A taken run on the block without a conditional branch.
  agreeAround(Event(1, false) + Run('\x00', 4) + Run('\x01', 4), 9,
              "taken run on block 1");
  agreeAround(Event(1, true) + Run('\x01', 3), 4, "taken first on block 1");
  // Adjacent 0x00 and 0x01 runs, and a run on a block left out of range.
  agreeAround(Event(2, false) + Run('\x00', 17) + Run('\x01', 23) +
                  Run('\x00', 2) + Event(-2, true) + Run('\x01', 11),
              56, "adjacent runs");
  agreeAround(Event(3, false) + Run('\x00', 12), 13, "run out of range");
  // Runs around the 8-byte steps the scan takes, ending at and short of
  // the segment's last event.
  for (size_t N : {7, 8, 9, 15, 16, 17}) {
    agreeAround(Event(2, true) + Run('\x01', N) + Event(-2, false) +
                    Run('\x00', N),
                2 * N + 2, "runs of " + std::to_string(N));
    agreeAround(Event(2, false) + Run('\x00', N), N + 1,
                "final run of " + std::to_string(N));
  }
  // A run longer than 64Ki events, with an unaligned start.
  agreeAround(Event(2, true) + Event(-2, false) + Event(0, false) +
                  Run('\x01', 70001) + Event(2, false) + Run('\x00', 65537),
              135541, "runs past 64Ki");
  // Random run-heavy streams over the three blocks, at random counts.
  Rng R(0x2a);
  for (int Trial = 0; Trial < 400; ++Trial) {
    std::string Raw;
    int64_t Block = 0;
    uint64_t Events = 0;
    while (Raw.size() < 200) {
      const int64_t Next =
          R.nextBelow(4) == 0 ? static_cast<int64_t>(R.nextBelow(4)) : Block;
      const bool Taken = R.nextBelow(2);
      const size_t N = 1 + R.nextBelow(R.nextBelow(2) ? 3 : 30);
      Raw += Event(Next - Block, Taken);
      Raw += Run(Taken ? '\x01' : '\x00', N - 1);
      Block = Next;
      Events += N;
    }
    agree(Raw, Events - 3 + R.nextBelow(7),
          "random stream " + std::to_string(Trial));
  }
  // Both outcomes occur.
  EXPECT_GT(Accepted, 0u);
  EXPECT_GT(Rejected, 0u);
}

TEST(TraceSegmentsTest, WideBlockDeltasRoundTrip) {
  // Real traces take one byte per event; a 300-block table with deltas
  // of 64 and more in both directions drives every event through the
  // multi-byte path of the decode loop.
  std::vector<BlockShape> Shapes(300);
  for (size_t Bl = 0; Bl < Shapes.size(); ++Bl)
    Shapes[Bl] = BlockShape{static_cast<uint32_t>(1 + Bl % 7), Bl % 3 != 0};
  std::vector<EventWord> Words;
  Rng R(0x300b);
  int64_t Block = 0;
  for (int I = 0; I < 2000; ++I) {
    int64_t Next = Block;
    while (std::abs(Next - Block) < 64)
      Next = static_cast<int64_t>(R.nextBelow(Shapes.size()));
    Block = Next;
    const bool Taken = Shapes[Block].Cond && R.nextBelow(2);
    Words.push_back(packEvent(static_cast<guest::BlockId>(Block), Taken));
  }
  const std::string Raw = encodeSegmentEvents(Words.data(), Words.size());
  ASSERT_GT(Raw.size(), Words.size() * 3 / 2) << "mostly multi-byte events";
  std::vector<EventWord> Out;
  std::vector<profile::BlockCounters> Table(Shapes.size());
  SegmentDecode D;
  std::string Error;
  ASSERT_TRUE(decodeSegmentEvents(Raw, Words.size(), Shapes, &Out, &Table, D,
                                  &Error))
      << Error;
  EXPECT_EQ(Out, Words);
  const EventSums Want = sumEvents(Words.data(), Words.size(), Shapes);
  EXPECT_EQ(D.Sums.Insts, Want.Insts);
  EXPECT_EQ(D.Sums.Taken, Want.Taken);
  EXPECT_EQ(D.Last, Words.back());
  uint64_t Uses = 0, Taken = 0;
  for (const profile::BlockCounters &C : Table) {
    Uses += C.Use;
    Taken += C.Taken;
  }
  EXPECT_EQ(Uses, Words.size());
  EXPECT_EQ(Taken, Want.Taken);
}

TEST(TraceSegmentsTest, SegmentedRoundTripAtManyBudgets) {
  auto B = smallBench("art");
  BlockTrace T = BlockTrace::record(B.Ref, 3000);
  const uint64_t E = T.numEvents();
  ASSERT_GT(E, 100u);
  const std::string Canonical = T.serializeSegmented(DefaultSegmentEvents);
  const uint64_t Budgets[] = {1,     2,     3,     7,    100,
                              1000,  E,     E + 10, 1u << 20};
  for (uint64_t Budget : Budgets) {
    std::string Bytes = T.serializeSegmented(Budget);
    BlockTrace Q;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error))
        << "budget " << Budget << ": " << Error;
    expectSameEvents(T, Q, "segmented round trip");
    // The reparsed trace re-serializes to the canonical bytes at any
    // budget: the segmentation is pure container framing, invisible to
    // the events.
    EXPECT_EQ(Q.serializeSegmented(Budget), Bytes) << "budget " << Budget;
    EXPECT_EQ(Q.serializeSegmented(DefaultSegmentEvents), Canonical)
        << "budget " << Budget;
  }
}

TEST(TraceSegmentsTest, SegmentedRoundTripRandomizedBudgets) {
  auto B = smallBench("vpr");
  BlockTrace T = BlockTrace::record(B.Ref, 5000);
  const std::string Canonical = T.serializeSegmented(DefaultSegmentEvents);
  Rng R(0x5e6);
  for (int Trial = 0; Trial < 16; ++Trial) {
    const uint64_t Budget =
        1 + R.nextBelow(T.numEvents() + T.numEvents() / 4);
    std::string Bytes = T.serializeSegmented(Budget);
    BlockTrace Q;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error))
        << "budget " << Budget << ": " << Error;
    EXPECT_EQ(Q.serializeSegmented(DefaultSegmentEvents), Canonical)
        << "budget " << Budget;
  }
}

TEST(TraceSegmentsTest, EmptyTraceSegmentsRoundTrip) {
  BlockTrace T;
  T.setShapes(std::vector<BlockShape>(4, BlockShape{1, false}));
  std::string Bytes = T.serializeSegmented(100);
  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, &Error)) << Error;
  EXPECT_EQ(Q.numEvents(), 0u);
  EXPECT_EQ(Q.numBlocks(), 4u);
}

TEST(TraceSegmentsTest, ParseRejectsCorruptContainers) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 1500);
  std::string Bytes = T.serializeSegmented(128);
  BlockTrace Q;

  // Baseline parses.
  ASSERT_TRUE(BlockTrace::parse(Bytes, Q, nullptr));

  // Unknown version bytes, the retired two-varint v3 included.
  for (char Version : {3, 5}) {
    std::string BadVersion = Bytes;
    BadVersion[4] = Version;
    std::string Error;
    EXPECT_FALSE(BlockTrace::parse(BadVersion, Q, &Error));
    EXPECT_EQ(Error, "unsupported trace version");
  }

  // Truncations at every region: header, directory, payload.
  EXPECT_FALSE(BlockTrace::parse(Bytes.substr(0, 7), Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() / 2), Q, nullptr));
  EXPECT_FALSE(
      BlockTrace::parse(Bytes.substr(0, Bytes.size() - 1), Q, nullptr));

  // Trailing bytes: the directory's payload sizes must tile the file.
  EXPECT_FALSE(BlockTrace::parse(Bytes + "x", Q, nullptr));

  // A corrupt payload frame: flipping the first payload's TPDZ magic
  // guarantees the inner decompression rejects it.
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  std::string Flipped = Bytes;
  Flipped[H.PayloadStart] ^= 0x5a;
  EXPECT_FALSE(BlockTrace::parse(Flipped, Q, nullptr));
}

TEST(TraceSegmentsTest, HeaderValidatesDirectoryAndTotals) {
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 1000);
  std::string Bytes = T.serializeSegmented(256);
  SegmentedTraceHeader H;
  std::string Error;
  ASSERT_TRUE(parseSegmentedHeader(Bytes, Bytes.size(), H, &Error)) << Error;
  EXPECT_EQ(H.NumEvents, T.numEvents());
  EXPECT_EQ(H.TotalInsts, T.totalInsts());
  EXPECT_EQ(H.takenEvents(), T.takenEvents());
  EXPECT_EQ(H.SegmentBudget, 256u);
  uint64_t SumEvents = 0;
  for (const SegmentedTraceHeader::Entry &Ent : H.Directory) {
    EXPECT_GE(Ent.Events, 1u);
    EXPECT_LE(Ent.Events, 256u);
    SumEvents += Ent.Events;
  }
  EXPECT_EQ(SumEvents, H.NumEvents);
  // A wrong file size must be rejected (payloads no longer tile it).
  SegmentedTraceHeader H2;
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 1, H2, nullptr));
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() - 1, H2, nullptr));
}

TEST(TraceSegmentsTest, RejectsVersion1And2Fixtures) {
  // The retired monolithic formats, hand-built: 3 events over 2 blocks.
  // Both parse as unsupported — no other reader accepts them.
  BlockTrace T;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(v1Fixture(), T, &Error));
  EXPECT_EQ(Error, "unsupported trace version");
  EXPECT_FALSE(BlockTrace::parse(v2Fixture(), T, &Error));
  EXPECT_EQ(Error, "unsupported trace version");
}

TEST(TraceSegmentsTest, StreamedCacheMatchesMonolithicEverywhere) {
  const std::string Dir = tempDir("stream_differential");
  std::filesystem::remove_all(Dir);
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;

  // Reference: a direct in-process recording (no pipeline involved).
  unsetenv("TPDBT_SEGMENT_EVENTS");
  BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);

  setenv("TPDBT_SEGMENT_EVENTS", "300", 1);
  {
    TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 0x77, B.Ref, MaxBlocks);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(Cache.stats().StreamedRecords.load(), 1u);
    EXPECT_GT(Cache.stats().SegmentsPiped.load(), 1u);
    expectSameEvents(Direct, *T, "streamed record");
    // The pipeline builds no index: the miss comes back bare.
    EXPECT_EQ(T->sharedIndex(), nullptr);
    EXPECT_FALSE(
        std::filesystem::exists(Cache.entryPath("mcf", "ref", 0x77) + ".idx"));

    // The disk entry is byte-identical to the reference segmented
    // serialization at the same budget.
    auto OnDisk = readTextFile(Cache.entryPath("mcf", "ref", 0x77));
    ASSERT_TRUE(OnDisk.has_value());
    EXPECT_EQ(*OnDisk, Direct.serializeSegmented(300));

    // Analytic replay over the lazily built index matches the event pump.
    dbt::DbtOptions Opts;
    const std::vector<uint64_t> Thresholds = {50, 500, 5000};
    expectSameSweep(replaySweep(*T, B.Ref, Thresholds, Opts),
                    replaySweepEvents(Direct, B.Ref, Thresholds, Opts),
                    Thresholds.size(), "streamed analytic");
  }
  {
    // A fresh cache hits the disk entry bare; analytic replay rebuilds
    // the index from the loaded events.
    TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 0x77, B.Ref, MaxBlocks);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(Cache.stats().DiskHits.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    EXPECT_EQ(Cache.stats().IndexBuilds.load(), 0u);
    expectSameEvents(Direct, *T, "segmented disk hit");
    EXPECT_EQ(T->sharedIndex(), nullptr);
    dbt::DbtOptions Opts;
    const std::vector<uint64_t> Thresholds = {50, 500, 5000};
    expectSameSweep(replaySweep(*T, B.Ref, Thresholds, Opts),
                    replaySweepEvents(Direct, B.Ref, Thresholds, Opts),
                    Thresholds.size(), "disk-hit analytic");
  }

  unsetenv("TPDBT_SEGMENT_EVENTS");
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, DisklessMissSkipsPipeline) {
  // With no disk layer nothing wants the container, so a miss is a plain
  // recording: no pipeline, no segments, no index.
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;
  BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);

  setenv("TPDBT_SEGMENT_EVENTS", "300", 1);
  TraceCache Cache("");
  auto T = Cache.get("mcf", "ref", 0x78, B.Ref, MaxBlocks);
  unsetenv("TPDBT_SEGMENT_EVENTS");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(Cache.stats().StreamedRecords.load(), 0u);
  EXPECT_EQ(Cache.stats().SegmentsPiped.load(), 0u);
  EXPECT_EQ(T->sharedIndex(), nullptr);
  expectSameEvents(Direct, *T, "diskless record");

  dbt::DbtOptions Opts;
  const std::vector<uint64_t> Thresholds = {50, 500, 5000};
  expectSameSweep(replaySweep(*T, B.Ref, Thresholds, Opts),
                  replaySweepEvents(Direct, B.Ref, Thresholds, Opts),
                  Thresholds.size(), "diskless analytic");
}

TEST(TraceSegmentsTest, PipelineUnderBackpressureWritesReferenceBytes) {
  // One onProgress call over a whole recording submits every full
  // segment at once, far more than MaxInFlight: the recorder must block
  // on the slots, resume as the worker frees them, and still assemble
  // the reference serialization byte for byte.
  auto B = smallBench("mcf");
  const uint64_t Budget = 256;
  BlockTrace Direct = BlockTrace::record(B.Ref, 40000);
  ASSERT_GE(Direct.numEvents(), 20000u);
  ASSERT_GT(Direct.numEvents() / Budget,
            8 * static_cast<uint64_t>(TracePipeline::MaxInFlight));

  TracePipeline Pipe(Budget, blockShapes(B.Ref));
  EXPECT_EQ(Pipe.onProgress(Direct),
            (Direct.numEvents() / Budget + 1) * Budget);
  TracePipeline::Result R = Pipe.finish(Direct);
  EXPECT_EQ(R.Segments, (Direct.numEvents() + Budget - 1) / Budget);
  EXPECT_EQ(R.FileBytes, Direct.serializeSegmented(Budget));
}

TEST(TraceSegmentsTest, AbandonedPipelineReturnsFromDestruction) {
  // An error unwind destroys the pipeline without finish(), with
  // segments still queued: the destructor must drain them and return,
  // neither hanging on a slot nor leaking a copied segment.
  auto B = smallBench("mcf");
  BlockTrace Direct = BlockTrace::record(B.Ref, 40000);
  ASSERT_GE(Direct.numEvents() / 256, 16u);
  for (int Round = 0; Round < 4; ++Round) {
    TracePipeline Pipe(256, blockShapes(B.Ref));
    Pipe.onProgress(Direct);
  }
}

TEST(TraceSegmentsTest, StaleMonolithicEntryIsReRecorded) {
  // A TPDZ(TPDT v2) entry a retired writer left under a live key: the
  // same recording, only in the old format. It must read as corrupt, be
  // re-recorded, and be overwritten in place with the v4 container.
  const std::string Dir = tempDir("stale_v2");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  unsetenv("TPDBT_SEGMENT_EVENTS");
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;
  BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);

  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("mcf", "ref", 0x79);
  ASSERT_TRUE(writeTextFile(Path, packedV2(Direct)));
  auto T = Cache.get("mcf", "ref", 0x79, B.Ref, MaxBlocks);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(Cache.stats().DiskHits.load(), 0u);
  expectSameEvents(Direct, *T, "re-recorded stale entry");
  auto OnDisk = readTextFile(Path);
  ASSERT_TRUE(OnDisk.has_value());
  EXPECT_EQ(*OnDisk, Direct.serializeSegmented(DefaultSegmentEvents));
  std::filesystem::remove_all(Dir);
}

namespace {

/// The segments of a parsed container, ready to re-assemble under a
/// tampered header.
std::vector<TraceSegmentRecord> segmentsOf(const std::string &Bytes,
                                           const SegmentedTraceHeader &H) {
  std::vector<TraceSegmentRecord> Segments;
  for (const SegmentedTraceHeader::Entry &Ent : H.Directory) {
    TraceSegmentRecord Rec;
    Rec.Events = Ent.Events;
    Rec.BaseInsts = Ent.BaseInsts;
    Rec.BaseTaken = Ent.BaseTaken;
    Rec.Payload = Bytes.substr(Ent.PayloadOffset, Ent.PayloadBytes);
    Segments.push_back(std::move(Rec));
  }
  return Segments;
}

} // namespace

TEST(TraceSegmentsTest, Version3EntryIsReRecordedInPlace) {
  // A v4 entry whose version byte reads 3: the retired two-varint layout
  // is unsupported, so the entry counts corrupt once and is overwritten
  // with the fresh v4 recording.
  const std::string Dir = tempDir("stale_v3");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;
  const std::string Fresh = BlockTrace::record(B.Ref, MaxBlocks)
                                .serializeSegmented(segmentEventBudget());
  std::string Stale = Fresh;
  Stale[4] = 3;
  BlockTrace Q;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(Stale, Q, &Error));
  EXPECT_EQ(Error, "unsupported trace version");

  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("mcf", "ref", 0x7d);
  ASSERT_TRUE(writeTextFile(Path, Stale));
  ASSERT_NE(Cache.get("mcf", "ref", 0x7d, B.Ref, MaxBlocks), nullptr);
  EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(Cache.stats().DiskHits.load(), 0u);
  EXPECT_EQ(readTextFile(Path).value_or(""), Fresh);
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, ShapeTableMustMatchTheProgram) {
  // A self-consistent container whose shape table disagrees with the
  // requested program (one never-taken block's branch kind flipped): it
  // parses, but every event's expansion would come from the wrong table,
  // so get(), totals() and openSegmented() all reject it, the lookups
  // count it corrupt once and the rewrite equals a fresh recording.
  const std::string Dir = tempDir("shape_mismatch");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("mcf");
  const uint64_t MaxBlocks = 20000;
  const std::string Fresh = BlockTrace::record(B.Ref, MaxBlocks)
                                .serializeSegmented(segmentEventBudget());
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Fresh, Fresh.size(), H, nullptr));
  size_t Flip = 0;
  while (Flip < H.Final.size() && H.Final[Flip].Taken != 0)
    ++Flip;
  ASSERT_LT(Flip, H.Final.size());
  H.Shapes[Flip].Cond = !H.Shapes[Flip].Cond;
  const std::string Foreign = assembleSegmentedTrace(H, segmentsOf(Fresh, H));
  BlockTrace Q;
  std::string Error;
  ASSERT_TRUE(BlockTrace::parse(Foreign, Q, &Error)) << Error;
  EXPECT_NE(Q.shapes(), blockShapes(B.Ref));

  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("mcf", "ref", 0x7e);
  ASSERT_TRUE(writeTextFile(Path, Foreign));
  SegmentedTraceReader R;
  EXPECT_FALSE(Cache.openSegmented("mcf", "ref", 0x7e, B.Ref, R, &Error));
  EXPECT_EQ(Error, "trace shape table disagrees with the program");
  ASSERT_NE(Cache.get("mcf", "ref", 0x7e, B.Ref, MaxBlocks), nullptr);
  EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(Cache.stats().DiskHits.load(), 0u);
  EXPECT_EQ(readTextFile(Path).value_or(""), Fresh);
  // The rewritten entry opens for the program it was recorded from.
  EXPECT_TRUE(Cache.openSegmented("mcf", "ref", 0x7e, B.Ref, R, &Error))
      << Error;

  ASSERT_TRUE(writeTextFile(Path, Foreign));
  TraceCache Streamed(Dir);
  Streamed.totals("mcf", "ref", 0x7e, B.Ref, MaxBlocks);
  EXPECT_EQ(Streamed.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Streamed.stats().Misses.load(), 1u);
  EXPECT_EQ(readTextFile(Path).value_or(""), Fresh);
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, PartialTailRoundTripsAndIsChecked) {
  // Two blocks: 0 is two instructions ending in a conditional branch, 1
  // is three straight-line ones. The run ends on a fault one instruction
  // into block 0, so the final event is partial and untaken.
  BlockTrace T;
  T.setShapes({BlockShape{2, true}, BlockShape{3, false}});
  T.append({0, 2, 2});
  T.append({1, 0, 3});
  T.append({0, 1, 2});
  T.append({0, 0, 1});
  EXPECT_EQ(T.tailInsts(), 1u);
  EXPECT_EQ(T.totalInsts(), 8u);
  for (uint64_t Budget : {1, 2, 3, 4}) {
    BlockTrace Q;
    std::string Error;
    ASSERT_TRUE(BlockTrace::parse(T.serializeSegmented(Budget), Q, &Error))
        << Budget << ": " << Error;
    expectSameEvents(T, Q, "partial tail");
    EXPECT_EQ(Q.tailInsts(), 1u);
  }

  const std::string Good = T.serializeSegmented(4);
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Good, Good.size(), H, nullptr));
  EXPECT_EQ(H.TotalInsts, 8u);
  EXPECT_EQ(H.TailBlock, 0u);
  BlockTrace Q;
  std::string Error;

  // A taken bit on the tail: the counter table is adjusted to match, so
  // only the tail rule catches it.
  std::vector<EventWord> Words = T.words();
  Words.back() |= 1;
  std::vector<TraceSegmentRecord> Segments(1);
  Segments[0].Events = 4;
  Segments[0].Payload = compressBytes(encodeSegmentEvents(Words.data(), 4));
  SegmentedTraceHeader Taken = H;
  ++Taken.Final[0].Taken;
  std::string Bytes = assembleSegmentedTrace(Taken, Segments);
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "taken bit on the partial tail");

  // A header naming a tail block other than the final event's.
  SegmentedTraceHeader Elsewhere = H;
  Elsewhere.TailBlock = 1;
  Bytes = assembleSegmentedTrace(Elsewhere, segmentsOf(Good, H));
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "partial tail disagrees with the final event");

  // A tail as long as its block is a whole event, not a partial one.
  SegmentedTraceHeader Whole = H;
  Whole.TailInsts = 2;
  Bytes = assembleSegmentedTrace(Whole, segmentsOf(Good, H));
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "partial tail as long as its block");
}

TEST(TraceSegmentsTest, SegmentSumsMustMeetDirectoryBases) {
  // A directory row whose bases are off by one instruction: the header
  // alone cannot tell, but decoding either neighbouring segment does —
  // through parse() and through the streaming reader alike.
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  const uint64_t Budget = 256;
  std::vector<TraceSegmentRecord> Segments;
  EventSums Base;
  for (size_t At = 0; At < T.numEvents(); At += Budget) {
    const size_t N = std::min<size_t>(Budget, T.numEvents() - At);
    TraceSegmentRecord Rec;
    Rec.Events = static_cast<uint32_t>(N);
    Rec.BaseInsts = Base.Insts + (Segments.size() == 1 ? 1 : 0);
    Rec.BaseTaken = Base.Taken;
    Rec.Payload =
        compressBytes(encodeSegmentEvents(T.words().data() + At, N));
    Base += sumEvents(T.words().data() + At, N, T.shapes());
    Segments.push_back(std::move(Rec));
  }
  ASSERT_GT(Segments.size(), 2u);
  const std::string Bytes =
      assembleSegmentedTrace(segmentedHeaderOf(T, Budget), Segments);
  BlockTrace Q;
  std::string Error;
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));
  EXPECT_EQ(Error, "segment events disagree with directory bases");

  const std::string Dir = tempDir("bad_bases");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  const std::string Path = Dir + "/t.trace";
  ASSERT_TRUE(writeTextFile(Path, Bytes));
  SegmentedTraceReader R;
  ASSERT_TRUE(SegmentedTraceReader::open(Path, R, &Error)) << Error;
  std::vector<EventWord> Events;
  EXPECT_FALSE(R.readSegment(0, &Events, nullptr, &Error));
  EXPECT_EQ(Error, "segment events disagree with directory bases");
  EXPECT_FALSE(R.readSegment(1, &Events, nullptr, &Error));
  EXPECT_TRUE(R.readSegment(2, &Events, nullptr, &Error)) << Error;
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, ReaderRejectsTruncatedAndForeignFiles) {
  const std::string Dir = tempDir("reader_reject");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("eon");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  std::string Bytes = T.serializeSegmented(256);

  SegmentedTraceReader R;
  std::string Error;
  EXPECT_FALSE(
      SegmentedTraceReader::open(Dir + "/missing.trace", R, &Error));

  const std::string Truncated = Dir + "/truncated.trace";
  ASSERT_TRUE(
      writeTextFile(Truncated, Bytes.substr(0, Bytes.size() - 5)));
  EXPECT_FALSE(SegmentedTraceReader::open(Truncated, R, &Error));

  const std::string Foreign = Dir + "/foreign.trace";
  ASSERT_TRUE(writeTextFile(Foreign, compressBytes(v2Fixture())));
  EXPECT_FALSE(SegmentedTraceReader::open(Foreign, R, &Error));

  // An intact file opens, and a payload flipped after open() fails at
  // readSegment, not silently.
  const std::string Good = Dir + "/good.trace";
  ASSERT_TRUE(writeTextFile(Good, Bytes));
  ASSERT_TRUE(SegmentedTraceReader::open(Good, R, &Error)) << Error;
  std::vector<EventWord> Events;
  ASSERT_TRUE(R.readSegment(0, &Events, nullptr, &Error)) << Error;
  EXPECT_EQ(Events.size(), R.header().Directory[0].Events);

  // Flipping the first payload's TPDZ magic byte: the header (untouched)
  // still opens, but reading that segment fails cleanly.
  std::string Flipped = Bytes;
  Flipped[R.header().Directory[0].PayloadOffset] ^= 0x3c;
  ASSERT_TRUE(writeTextFile(Good, Flipped));
  SegmentedTraceReader R2;
  ASSERT_TRUE(SegmentedTraceReader::open(Good, R2, &Error)) << Error;
  EXPECT_FALSE(R2.readSegment(0, &Events, nullptr, &Error));
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, HeaderRejectsHostileDirectoryEntries) {
  // Hand-built v4 containers exercising the parser's per-entry bounds:
  // none of these may size an allocation from the attacker's field, and
  // all must fail cleanly rather than truncate through a uint32 cast.
  // Each block takes one shape varint (length 3, no branch) here.
  auto header = [](uint64_t Blocks, uint64_t Events, uint64_t Budget,
                   uint64_t Segments) {
    std::string Out("TPDT", 4);
    Out.push_back(4); // segmented version
    putVarint(Out, Blocks);
    putVarint(Out, Events);
    putVarint(Out, 0); // whole final event
    putVarint(Out, Budget);
    putVarint(Out, Segments);
    return Out;
  };
  auto shapes = [](std::string &Out, uint64_t Blocks) {
    for (uint64_t B = 0; B < Blocks; ++B)
      putVarint(Out, 3 << 1);
  };
  auto counters = [](std::string &Out, uint64_t Use, uint64_t Taken) {
    putVarint(Out, Use);
    putVarint(Out, Taken);
  };
  SegmentedTraceHeader H;

  // Segment count far beyond what the file could hold: rejected before
  // the directory vector is sized.
  {
    std::string Bytes = header(1, 4, 256, uint64_t(1) << 40);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // Block count beyond the file size.
  {
    std::string Bytes = header(uint64_t(1) << 40, 4, 256, 1);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // Zero segment budget.
  {
    std::string Bytes = header(1, 4, 0, 1);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // A zero-length block: every block executes at least its terminator.
  {
    std::string Bytes = header(1, 4, 256, 1);
    putVarint(Bytes, 0 << 1 | 1);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
    EXPECT_EQ(Error, "block length outside the shape table's range");
  }
  // A counter-table entry claiming more uses than the trace has events
  // (would otherwise rely on the final sum check, which a second huge
  // entry could wrap past).
  {
    std::string Bytes = header(2, 4, 256, 1);
    shapes(Bytes, 2);
    counters(Bytes, 5, 0); // block 0: Use > NumEvents
    counters(Bytes, 0, 0);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
    EXPECT_NE(Error.find("counter table"), std::string::npos);
  }
  // Taken > Use within one entry.
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 5);
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, nullptr));
  }
  // Taken uses on a block whose shape has no conditional branch.
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 1);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
    EXPECT_EQ(Error, "taken count on a block without a conditional branch");
  }
  // A zero-length directory entry.
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 0);
    putVarint(Bytes, 0); // Events = 0
    putVarint(Bytes, 8); // PayloadBytes
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 8, H, &Error));
    EXPECT_NE(Error.find("outside budget"), std::string::npos);
  }
  // An entry whose event count overflows its segment budget (and would
  // otherwise be narrowed to uint32).
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 0);
    putVarint(Bytes, (uint64_t(1) << 32) + 4); // Events >> budget
    putVarint(Bytes, 8);
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 8, H, nullptr));
  }
  // A zero-byte payload (segments always hold >= 1 event, so their
  // compressed payload can never be empty).
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 0);
    putVarint(Bytes, 4);
    putVarint(Bytes, 0); // PayloadBytes = 0
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 8, H, &Error));
    EXPECT_NE(Error.find("payload size"), std::string::npos);
  }
  // A payload claiming more bytes than the whole file.
  {
    std::string Bytes = header(1, 4, 256, 1);
    shapes(Bytes, 1);
    counters(Bytes, 4, 0);
    putVarint(Bytes, 4);
    putVarint(Bytes, uint64_t(1) << 40);
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 8, H, nullptr));
  }
}

/// A partial tail's header fields around a one-block trace: every
/// malformed placement fails in the header, before any payload is read.
TEST(TraceSegmentsTest, HeaderRejectsMisplacedPartialTails) {
  auto withTail = [](uint64_t Events, uint64_t TailInsts, uint64_t TailBlock,
                     uint64_t Len, uint64_t Use, uint64_t Taken) {
    std::string Out("TPDT", 4);
    Out.push_back(4);
    putVarint(Out, 1); // blocks
    putVarint(Out, Events);
    putVarint(Out, TailInsts);
    putVarint(Out, TailBlock);
    putVarint(Out, 256);           // budget
    putVarint(Out, Events ? 1 : 0); // segments
    putVarint(Out, Len << 1 | 1);  // conditional block
    putVarint(Out, Use);
    putVarint(Out, Taken);
    return Out;
  };
  SegmentedTraceHeader H;
  std::string Error;
  std::string Bytes = withTail(2, 3, 0, 3, 2, 0);
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
  EXPECT_EQ(Error, "partial tail as long as its block");
  Bytes = withTail(2, 4, 0, 3, 2, 0);
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
  EXPECT_EQ(Error, "partial tail as long as its block");
  Bytes = withTail(2, 2, 1, 3, 2, 0); // names a block the trace lacks
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
  EXPECT_EQ(Error, "partial tail outside the trace");
  Bytes = withTail(0, 2, 0, 3, 0, 0); // no event to be partial
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
  EXPECT_EQ(Error, "partial tail outside the trace");
  Bytes = withTail(2, 2, 0, 3, 2, 2); // every use taken: none is the tail
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
  EXPECT_EQ(Error, "counter table disagrees with partial tail");
}

TEST(TraceSegmentsTest, CraftedEventCountIsRejectedWithoutAllocating) {
  // 2^32 - 1 events behind a 4-byte payload: the header sums all agree,
  // so before the payload bound the parser handed that count to a
  // reservation and the process died of std::bad_alloc. Every reader
  // must now reject the file as corrupt, and the cache must re-record.
  const uint64_t Huge = (uint64_t(1) << 32) - 1;
  std::string Bytes("TPDT", 4);
  Bytes.push_back(4);
  putVarint(Bytes, 1);    // blocks
  putVarint(Bytes, Huge); // events
  putVarint(Bytes, 0);    // whole final event
  putVarint(Bytes, Huge); // budget
  putVarint(Bytes, 1);    // segments
  putVarint(Bytes, 1 << 1); // block 0: one instruction, no branch
  putVarint(Bytes, Huge);   // block 0: use
  putVarint(Bytes, 0);      //          taken
  putVarint(Bytes, Huge);   // segment 0: events
  putVarint(Bytes, 4);      //            payload bytes
  putVarint(Bytes, 0);      //            base insts
  putVarint(Bytes, 0);      //            base taken
  Bytes += std::string(4, '\0');

  SegmentedTraceHeader H;
  std::string Error;
  EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, &Error));
  EXPECT_EQ(Error, "segment event count exceeds its payload");
  BlockTrace Q;
  EXPECT_FALSE(BlockTrace::parse(Bytes, Q, &Error));

  const std::string Dir = tempDir("crafted_count");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("mcf");
  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("mcf", "ref", 0x7c);
  ASSERT_TRUE(writeTextFile(Path, Bytes));
  // The streamed reader stops at open(), before verifyAll() could read.
  SegmentedTraceReader R;
  EXPECT_FALSE(SegmentedTraceReader::open(Path, R, &Error));
  const std::string Fresh =
      BlockTrace::record(B.Ref, 20000).serializeSegmented(segmentEventBudget());
  auto T = Cache.get("mcf", "ref", 0x7c, B.Ref, 20000);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Cache.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(readTextFile(Path).value_or(""), Fresh);

  // The totals() lookup (train traces) streams through verifyAll(): the
  // same file is rejected there too, once, and rewritten.
  ASSERT_TRUE(writeTextFile(Path, Bytes));
  TraceCache Streamed(Dir);
  Streamed.totals("mcf", "ref", 0x7c, B.Ref, 20000);
  EXPECT_EQ(Streamed.stats().CorruptEntries.load(), 1u);
  EXPECT_EQ(Streamed.stats().Misses.load(), 1u);
  EXPECT_EQ(readTextFile(Path).value_or(""), Fresh);
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, StreamedTotalsAcceptExactlyWhatParseAccepts) {
  // TraceCache::totals() verifies a disk entry one segment at a time and
  // keeps no event; TraceCache::get() decodes it whole through the
  // file-backed reader; BlockTrace::parse() decodes it whole through a
  // bytes-backed one, and a bytes-backed verifyAll() streams the same
  // bytes. Over every single-byte flip of a small multi-segment
  // container, and a truncation at every segment boundary, all four must
  // accept the same files and report the same events, totals and final
  // table when they do: no reader dropped a check.
  const std::string Dir = tempDir("streamed_totals");
  std::filesystem::remove_all(Dir);
  ASSERT_TRUE(ensureDirectory(Dir));
  auto B = smallBench("eon");
  const uint64_t MaxBlocks = 1000;
  const std::string Good =
      BlockTrace::record(B.Ref, MaxBlocks).serializeSegmented(256);
  SegmentedTraceHeader H;
  ASSERT_TRUE(parseSegmentedHeader(Good, Good.size(), H, nullptr));
  ASSERT_GT(H.Directory.size(), 2u);

  TraceCache Cache(Dir);
  const std::string Path = Cache.entryPath("eon", "ref", 0x7a);
  size_t Accepted = 0, Rejected = 0;
  auto expectSameTotals = [](const TraceTotals &Got, const TraceTotals &Want,
                             const std::string &Label) {
    ASSERT_EQ(Got.NumEvents, Want.NumEvents) << Label;
    ASSERT_EQ(Got.TakenEvents, Want.TakenEvents) << Label;
    ASSERT_EQ(Got.TotalInsts, Want.TotalInsts) << Label;
    ASSERT_EQ(Got.Final.size(), Want.Final.size()) << Label;
    for (size_t Blk = 0; Blk < Want.Final.size(); ++Blk) {
      ASSERT_EQ(Got.Final[Blk].Use, Want.Final[Blk].Use) << Label;
      ASSERT_EQ(Got.Final[Blk].Taken, Want.Final[Blk].Taken) << Label;
    }
  };
  // One lookup through the cache: a hit counts one disk hit (never a
  // memory hit: no earlier lookup left a trace held), a rejection one
  // corrupt entry and one miss.
  auto expectCounted = [&](bool Hit, uint64_t Hits, uint64_t Corrupt,
                           uint64_t Misses, const std::string &Label) {
    ASSERT_EQ(Cache.stats().MemoryHits.load(), 0u) << Label;
    ASSERT_EQ(Cache.stats().DiskHits.load(), Hits + Hit) << Label;
    ASSERT_EQ(Cache.stats().CorruptEntries.load(), Corrupt + !Hit) << Label;
    ASSERT_EQ(Cache.stats().Misses.load(), Misses + !Hit) << Label;
  };
  auto check = [&](const std::string &Bytes, const std::string &Label) {
    BlockTrace Q;
    const bool Parsed = BlockTrace::parse(Bytes, Q, nullptr) &&
                        Q.shapes() == blockShapes(B.Ref);
    if (Parsed)
      ++Accepted;
    else
      ++Rejected;

    SegmentedTraceReader Mem;
    const bool Verified =
        SegmentedTraceReader::openBytes(Bytes, Mem, nullptr) &&
        Mem.header().Shapes == blockShapes(B.Ref) && Mem.verifyAll(nullptr);
    ASSERT_EQ(Verified, Parsed) << Label;
    if (Verified)
      expectSameTotals(Mem.header().totals(), Q.totals(), Label + " bytes");

    ASSERT_TRUE(writeTextFile(Path, Bytes));
    uint64_t Hits = Cache.stats().DiskHits.load();
    uint64_t Corrupt = Cache.stats().CorruptEntries.load();
    uint64_t Misses = Cache.stats().Misses.load();
    const TraceTotals Got =
        Cache.totals("eon", "ref", 0x7a, B.Ref, MaxBlocks);
    expectCounted(Parsed, Hits, Corrupt, Misses, Label + " totals");
    if (Parsed)
      expectSameTotals(Got, Q.totals(), Label + " totals");

    ASSERT_TRUE(writeTextFile(Path, Bytes));
    Hits = Cache.stats().DiskHits.load();
    Corrupt = Cache.stats().CorruptEntries.load();
    Misses = Cache.stats().Misses.load();
    const std::shared_ptr<const BlockTrace> Loaded =
        Cache.get("eon", "ref", 0x7a, B.Ref, MaxBlocks);
    ASSERT_NE(Loaded, nullptr) << Label;
    expectCounted(Parsed, Hits, Corrupt, Misses, Label + " get");
    if (Parsed) {
      expectSameTotals(Loaded->totals(), Q.totals(), Label + " get");
      ASSERT_EQ(Loaded->tailInsts(), Q.tailInsts()) << Label;
      ASSERT_EQ(Loaded->words(), Q.words()) << Label;
    }
  };

  check(Good, "intact");
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(Cache.stats().DiskHits.load(), 2u);

  for (uint8_t Mask : {uint8_t(0x01), uint8_t(0xff)})
    for (size_t I = 0; I < Good.size(); ++I) {
      std::string Flipped = Good;
      Flipped[I] = static_cast<char>(Flipped[I] ^ Mask);
      check(Flipped, "byte " + std::to_string(I) + " ^ " +
                         std::to_string(Mask));
      ASSERT_FALSE(HasFatalFailure());
    }
  for (size_t S = 0; S < H.Directory.size(); ++S) {
    check(Good.substr(0, H.Directory[S].PayloadOffset),
          "truncated before segment " + std::to_string(S));
    ASSERT_FALSE(HasFatalFailure());
  }
  // Both outcomes occur: some flips land in fields no check covers (the
  // segment budget, say), the rest are caught.
  EXPECT_GT(Accepted, 1u);
  EXPECT_GT(Rejected, Good.size());
  std::filesystem::remove_all(Dir);
}
