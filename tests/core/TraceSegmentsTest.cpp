//===- tests/core/TraceSegmentsTest.cpp - Segmented trace tests -*- C++ -*-===//

#include "core/TraceSegments.h"

#include "core/TraceCache.h"
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
  std::string Raw = encodeSegmentEvents(&T.event(At), N);
  std::vector<TraceEvent> Out;
  std::string Error;
  ASSERT_TRUE(decodeSegmentEvents(Raw, N, T.numBlocks(), Out, &Error))
      << Error;
  ASSERT_EQ(Out.size(), N);
  for (size_t I = 0; I < N; ++I) {
    EXPECT_EQ(Out[I].Block, T.event(At + I).Block);
    EXPECT_EQ(Out[I].Branch, T.event(At + I).Branch);
    EXPECT_EQ(Out[I].Insts, T.event(At + I).Insts);
  }
  // Wrong expectations are rejected.
  Out.clear();
  EXPECT_FALSE(decodeSegmentEvents(Raw, N + 1, T.numBlocks(), Out, nullptr));
  Out.clear();
  EXPECT_FALSE(decodeSegmentEvents(Raw, N - 1, T.numBlocks(), Out, nullptr));
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
  T.setNumBlocks(4);
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

  // Unknown version byte.
  std::string BadVersion = Bytes;
  BadVersion[4] = 4;
  EXPECT_FALSE(BlockTrace::parse(BadVersion, Q, nullptr));

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

TEST(TraceSegmentsTest, StaleMonolithicEntryIsReRecorded) {
  // A TPDZ(TPDT v2) entry a retired writer left under a live key: the
  // same recording, only in the old format. It must read as corrupt, be
  // re-recorded, and be overwritten in place with the v3 container.
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

TEST(TraceSegmentsTest, SegmentSumsMustMeetDirectoryBases) {
  // A directory row whose bases are off by one instruction: the header
  // alone cannot tell, but decoding either neighbouring segment does —
  // through parse() and through the streaming reader alike.
  auto B = smallBench("gzip");
  BlockTrace T = BlockTrace::record(B.Ref, 2000);
  const uint64_t Budget = 256;
  std::vector<TraceSegmentRecord> Segments;
  uint64_t Insts = 0, Taken = 0;
  for (size_t At = 0; At < T.numEvents(); At += Budget) {
    const size_t N = std::min<size_t>(Budget, T.numEvents() - At);
    TraceSegmentRecord Rec;
    Rec.Events = static_cast<uint32_t>(N);
    Rec.BaseInsts = Insts + (Segments.size() == 1 ? 1 : 0);
    Rec.BaseTaken = Taken;
    Rec.Payload = compressBytes(encodeSegmentEvents(&T.event(At), N));
    for (size_t I = At; I < At + N; ++I) {
      Insts += T.event(I).Insts;
      Taken += T.event(I).Branch == 2 ? 1 : 0;
    }
    Segments.push_back(std::move(Rec));
  }
  ASSERT_GT(Segments.size(), 2u);
  const std::string Bytes =
      assembleSegmentedTrace(T.numBlocks(), T.numEvents(), T.totalInsts(),
                             Budget, T.finalCounts(), Segments);
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
  std::vector<TraceEvent> Events;
  EXPECT_FALSE(R.readSegment(0, Events, &Error));
  EXPECT_EQ(Error, "segment events disagree with directory bases");
  EXPECT_FALSE(R.readSegment(1, Events, &Error));
  EXPECT_TRUE(R.readSegment(2, Events, &Error)) << Error;
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
  std::vector<TraceEvent> Events;
  ASSERT_TRUE(R.readSegment(0, Events, &Error)) << Error;
  EXPECT_EQ(Events.size(), R.header().Directory[0].Events);

  // Flipping the first payload's TPDZ magic byte: the header (untouched)
  // still opens, but reading that segment fails cleanly.
  std::string Flipped = Bytes;
  Flipped[R.header().Directory[0].PayloadOffset] ^= 0x3c;
  ASSERT_TRUE(writeTextFile(Good, Flipped));
  SegmentedTraceReader R2;
  ASSERT_TRUE(SegmentedTraceReader::open(Good, R2, &Error)) << Error;
  EXPECT_FALSE(R2.readSegment(0, Events, &Error));
  std::filesystem::remove_all(Dir);
}

TEST(TraceSegmentsTest, HeaderRejectsHostileDirectoryEntries) {
  // Hand-built v3 containers exercising the parser's per-entry bounds:
  // none of these may size an allocation from the attacker's field, and
  // all must fail cleanly rather than truncate through a uint32 cast.
  auto header = [](uint64_t Blocks, uint64_t Events, uint64_t Insts,
                   uint64_t Budget, uint64_t Segments) {
    std::string Out("TPDT", 4);
    Out.push_back(3); // segmented version
    putVarint(Out, Blocks);
    putVarint(Out, Events);
    putVarint(Out, Insts);
    putVarint(Out, Budget);
    putVarint(Out, Segments);
    return Out;
  };
  auto counters = [](std::string &Out, uint64_t Use, uint64_t Taken) {
    putVarint(Out, Use);
    putVarint(Out, Taken);
  };
  SegmentedTraceHeader H;

  // Segment count far beyond what the file could hold: rejected before
  // the directory vector is sized.
  {
    std::string Bytes = header(1, 4, 10, 256, uint64_t(1) << 40);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // Block count beyond the file size.
  {
    std::string Bytes = header(uint64_t(1) << 40, 4, 10, 256, 1);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // No events, so no segment, yet a nonzero instruction total.
  {
    std::string Bytes = header(1, 0, 10, 256, 0);
    counters(Bytes, 0, 0);
    std::string Error;
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, &Error));
    EXPECT_EQ(Error, "empty trace with nonzero instruction total");
  }
  // Zero segment budget.
  {
    std::string Bytes = header(1, 4, 10, 0, 1);
    EXPECT_FALSE(parseSegmentedHeader(Bytes, Bytes.size(), H, nullptr));
  }
  // A counter-table entry claiming more uses than the trace has events
  // (would previously rely on the final sum check, which a second huge
  // entry could wrap past).
  {
    std::string Bytes = header(2, 4, 10, 256, 1);
    putVarint(Bytes, 5); // block 0: Use > NumEvents
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    std::string Error;
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, &Error));
    EXPECT_NE(Error.find("counter table"), std::string::npos);
  }
  // Taken > Use within one entry.
  {
    std::string Bytes = header(1, 4, 10, 256, 1);
    putVarint(Bytes, 4);
    putVarint(Bytes, 5);
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 64, H, nullptr));
  }
  // A zero-length directory entry.
  {
    std::string Bytes = header(1, 4, 10, 256, 1);
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
    std::string Bytes = header(1, 4, 10, 256, 1);
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
    std::string Bytes = header(1, 4, 10, 256, 1);
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
    std::string Bytes = header(1, 4, 10, 256, 1);
    counters(Bytes, 4, 0);
    putVarint(Bytes, 4);
    putVarint(Bytes, uint64_t(1) << 40);
    putVarint(Bytes, 0);
    putVarint(Bytes, 0);
    EXPECT_FALSE(
        parseSegmentedHeader(Bytes, Bytes.size() + 8, H, nullptr));
  }
}

TEST(TraceSegmentsTest, StreamedTotalsAcceptExactlyWhatParseAccepts) {
  // TraceCache::totals() verifies a disk entry one segment at a time and
  // keeps no event; BlockTrace::parse() decodes it whole. Over every
  // single-byte flip of a small multi-segment container, and a truncation
  // at every segment boundary, the two must accept the same files and
  // report the same totals when they do: streaming dropped no check.
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
  auto check = [&](const std::string &Bytes, const std::string &Label) {
    ASSERT_TRUE(writeTextFile(Path, Bytes));
    const uint64_t Hits = Cache.stats().DiskHits.load();
    const uint64_t Corrupt = Cache.stats().CorruptEntries.load();
    const uint64_t Misses = Cache.stats().Misses.load();
    const TraceTotals Got =
        Cache.totals("eon", "ref", 0x7a, B.Ref, MaxBlocks);
    BlockTrace Q;
    const bool Parsed = BlockTrace::parse(Bytes, Q, nullptr) &&
                        Q.numBlocks() == B.Ref.numBlocks();
    if (!Parsed) {
      ++Rejected;
      ASSERT_EQ(Cache.stats().DiskHits.load(), Hits) << Label;
      ASSERT_EQ(Cache.stats().CorruptEntries.load(), Corrupt + 1) << Label;
      ASSERT_EQ(Cache.stats().Misses.load(), Misses + 1) << Label;
      return;
    }
    ++Accepted;
    ASSERT_EQ(Cache.stats().DiskHits.load(), Hits + 1) << Label;
    ASSERT_EQ(Cache.stats().CorruptEntries.load(), Corrupt) << Label;
    const TraceTotals Want = Q.totals();
    ASSERT_EQ(Got.NumEvents, Want.NumEvents) << Label;
    ASSERT_EQ(Got.TakenEvents, Want.TakenEvents) << Label;
    ASSERT_EQ(Got.TotalInsts, Want.TotalInsts) << Label;
    ASSERT_EQ(Got.Final.size(), Want.Final.size()) << Label;
    for (size_t Blk = 0; Blk < Want.Final.size(); ++Blk) {
      ASSERT_EQ(Got.Final[Blk].Use, Want.Final[Blk].Use) << Label;
      ASSERT_EQ(Got.Final[Blk].Taken, Want.Final[Blk].Taken) << Label;
    }
  };

  check(Good, "intact");
  ASSERT_FALSE(HasFatalFailure());
  // A verified disk hit builds no trace: the memory layer stays empty.
  ASSERT_NE(Cache.get("eon", "ref", 0x7a, B.Ref, MaxBlocks), nullptr);
  EXPECT_EQ(Cache.stats().MemoryHits.load(), 0u);
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
