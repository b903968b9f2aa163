//===- tests/core/TraceIndexTest.cpp - Analytic index tests -----*- C++ -*-===//

#include "core/TraceIndex.h"

#include "core/Experiment.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "support/Compression.h"
#include "support/TextFile.h"
#include "support/Varint.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

workloads::GeneratedBenchmark smallBench(const char *Name) {
  return workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.01));
}

BlockTrace recordedTrace(const char *Name, uint64_t MaxBlocks = ~0ull) {
  auto B = smallBench(Name);
  return BlockTrace::record(B.Ref, MaxBlocks);
}

} // namespace

TEST(TraceIndexTest, InvariantsMatchBruteForce) {
  BlockTrace T = recordedTrace("gzip", 20000);
  const TraceIndex Idx = TraceIndex::build(T);
  ASSERT_EQ(Idx.numBlocks(), T.numBlocks());
  ASSERT_EQ(Idx.numEvents(), T.numEvents());
  EXPECT_EQ(Idx.totalInsts(), T.totalInsts());
  EXPECT_EQ(Idx.takenEvents(), T.takenEvents());

  // Recompute every per-block series by scanning the events directly.
  const size_t N = T.numBlocks();
  std::vector<std::vector<uint32_t>> Pos(N);
  std::vector<std::vector<uint32_t>> Taken(N, {0u});
  std::vector<std::vector<uint64_t>> Insts(N, {0ull});
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent &E = T.event(I);
    Pos[E.Block].push_back(static_cast<uint32_t>(I));
    Taken[E.Block].push_back(Taken[E.Block].back() + (E.Branch == 2));
    Insts[E.Block].push_back(Insts[E.Block].back() + E.Insts);
  }

  for (size_t B = 0; B < N; ++B) {
    const auto Id = static_cast<guest::BlockId>(B);
    ASSERT_EQ(Idx.occurrences(Id), Pos[B].size()) << "block " << B;
    for (uint32_t K = 0; K < Pos[B].size(); ++K) {
      EXPECT_EQ(Idx.position(Id, K), Pos[B][K]);
      EXPECT_EQ(Idx.occurrenceAt(Id, Pos[B][K]), K);
    }
    for (uint32_t K = 0; K <= Pos[B].size(); ++K) {
      EXPECT_EQ(Idx.takenOfFirst(Id, K), Taken[B][K]);
      EXPECT_EQ(Idx.instsOfFirst(Id, K), Insts[B][K]);
    }
  }
}

TEST(TraceIndexTest, UsesThroughMatchesBruteForce) {
  BlockTrace T = recordedTrace("eon", 3000);
  const TraceIndex Idx = TraceIndex::build(T);
  std::vector<uint32_t> Running(T.numBlocks(), 0);
  for (size_t I = 0; I < T.numEvents(); ++I) {
    ++Running[T.event(I).Block];
    // Spot-check all blocks at a stride, and the executing block always.
    for (size_t B = 0; B < T.numBlocks(); B += (I % 7) + 1) {
      const auto Id = static_cast<guest::BlockId>(B);
      EXPECT_EQ(Idx.usesThrough(Id, static_cast<uint32_t>(I)), Running[B])
          << "block " << B << " pos " << I;
      profile::BlockCounters C =
          Idx.countersThrough(Id, static_cast<uint32_t>(I));
      EXPECT_EQ(C.Use, Running[B]);
    }
  }
}

TEST(TraceIndexTest, FirstOutcomeChangeMatchesBruteForce) {
  BlockTrace T = recordedTrace("swim", 10000);
  const TraceIndex Idx = TraceIndex::build(T);
  for (size_t B = 0; B < T.numBlocks(); ++B) {
    const auto Id = static_cast<guest::BlockId>(B);
    const uint32_t Cnt = Idx.occurrences(Id);
    if (!Cnt)
      continue;
    // Collect the block's outcome sequence once.
    std::vector<bool> TakenSeq;
    for (uint32_t K = 0; K < Cnt; ++K)
      TakenSeq.push_back(Idx.takenOfFirst(Id, K + 1) >
                         Idx.takenOfFirst(Id, K));
    for (uint32_t K = 0; K < Cnt; K += 3) {
      for (bool Want : {false, true}) {
        uint32_t Expected = K;
        while (Expected < Cnt && TakenSeq[Expected] == Want)
          ++Expected;
        EXPECT_EQ(Idx.firstOutcomeChange(Id, K, Want), Expected)
            << "block " << B << " K=" << K << " taken=" << Want;
      }
    }
  }
}

TEST(TraceIndexTest, MatchesRejectsOtherTrace) {
  BlockTrace A = recordedTrace("gzip", 1000);
  BlockTrace B = recordedTrace("gzip", 1001);
  EXPECT_TRUE(A.index().matches(A));
  EXPECT_FALSE(A.index().matches(B));
}

TEST(TraceIndexTest, AdoptIndexRejectsMismatch) {
  BlockTrace A = recordedTrace("art", 800);
  BlockTrace B = recordedTrace("art", 900);
  auto Foreign = std::make_shared<TraceIndex>(TraceIndex::build(B));
  EXPECT_FALSE(A.adoptIndex(Foreign));
  EXPECT_EQ(A.sharedIndex(), nullptr);
  auto Own = std::make_shared<TraceIndex>(TraceIndex::build(A));
  EXPECT_TRUE(A.adoptIndex(Own));
  EXPECT_EQ(A.sharedIndex(), Own);
}

TEST(TraceIndexTest, CacheWritesAndAdoptsSidecar) {
  // The trace store persists traces only: a cold miss keeps the
  // pipeline's stitched index in memory and writes no sidecar, and a warm
  // hit leaves the index to be rebuilt by the first analytic replay.
  const std::string Dir = "/tmp/tpdbt_trace_index_test";
  std::filesystem::remove_all(Dir);
  auto B = smallBench("gzip");

  {
    TraceCache Cache(Dir);
    auto T = Cache.get("gzip", "ref", 0x1234, B.Ref, 5000);
    ASSERT_NE(T, nullptr);
    // The default miss path streams through the segment pipeline, which
    // stitches the index from per-segment parts instead of a counted
    // monolithic build.
    EXPECT_EQ(Cache.stats().StreamedRecords.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexBuilds.load(), 0u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    EXPECT_NE(T->sharedIndex(), nullptr);
    const std::string Entry = Cache.entryPath("gzip", "ref", 0x1234);
    EXPECT_TRUE(std::filesystem::exists(Entry));
    EXPECT_FALSE(std::filesystem::exists(Entry + ".idx"));
  }

  {
    // A fresh cache serves the trace bare.
    TraceCache Cache(Dir);
    auto T = Cache.get("gzip", "ref", 0x1234, B.Ref, 5000);
    ASSERT_NE(T, nullptr);
    EXPECT_EQ(Cache.stats().DiskHits.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    EXPECT_EQ(Cache.stats().IndexBuilds.load(), 0u);
    EXPECT_EQ(T->sharedIndex(), nullptr);
  }
  std::filesystem::remove_all(Dir);

  {
    // Through the experiment driver, the warm ref trace's first
    // threshold replay builds its index once under the index timer;
    // nothing is adopted. The train replay asks only for the
    // profiling-only average, a closed form that needs no index.
    ExperimentConfig C;
    C.Scale = 0.01;
    C.Thresholds = {100};
    C.CacheDir = Dir;
    auto Cache = std::make_shared<TraceCache>(Dir);
    ExperimentContext Cold(C, Cache);
    Cold.inip("gzip", 100);
    EXPECT_EQ(Cache->stats().Misses.load(), 2u);
    EXPECT_EQ(Cache->stats().IndexBuilds.load(), 0u);
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      if (E.path().extension() == ".prof")
        std::filesystem::remove(E.path());

    auto Fresh = std::make_shared<TraceCache>(Dir);
    ExperimentContext Warm(C, Fresh);
    Warm.inip("gzip", 100);
    EXPECT_EQ(Fresh->stats().DiskHits.load(), 2u);
    EXPECT_EQ(Fresh->stats().IndexHits.load(), 0u);
    // One build, for ref; the AVEP-only train replay builds none.
    EXPECT_EQ(Fresh->stats().IndexBuilds.load(), 1u);
  }
  std::filesystem::remove_all(Dir);
}

TEST(TraceIndexTest, PlantedSidecarIsIgnored) {
  // An index sidecar in the old TPDX v1 layout that decompresses and
  // parses, and whose four totals match the trace, but whose occurrence
  // positions all point past the end of the stream. Adopting it would
  // send the analytic replay out of bounds.
  const std::string Dir = "/tmp/tpdbt_planted_sidecar_test";
  std::filesystem::remove_all(Dir);
  auto B = smallBench("gzip");
  const uint64_t MaxBlocks = 5000;
  std::string Entry;
  {
    TraceCache Cache(Dir);
    auto T = Cache.get("gzip", "ref", 0x99, B.Ref, MaxBlocks);
    ASSERT_NE(T, nullptr);
    Entry = Cache.entryPath("gzip", "ref", 0x99);
  }
  BlockTrace Direct = BlockTrace::record(B.Ref, MaxBlocks);
  const size_t N = Direct.numBlocks(), E = Direct.numEvents();

  std::string Bytes("TPDX", 4);
  Bytes.push_back(1);
  putVarint(Bytes, N);
  putVarint(Bytes, E);
  putVarint(Bytes, Direct.totalInsts());
  putVarint(Bytes, Direct.takenEvents());
  auto put = [&Bytes](const auto &V) {
    Bytes.append(reinterpret_cast<const char *>(V.data()),
                 V.size() * sizeof(V[0]));
  };
  std::vector<uint32_t> BlockBegin(N + 1, 0);
  for (size_t Bl = 0; Bl < N; ++Bl)
    BlockBegin[Bl + 1] =
        BlockBegin[Bl] + static_cast<uint32_t>(Direct.finalCounts()[Bl].Use);
  // The layout's trailing whole-stream instruction and taken prefix
  // arrays.
  std::vector<uint64_t> StreamInsts(E + 1, 0);
  StreamInsts[E] = Direct.totalInsts();
  std::vector<uint32_t> StreamTaken(E + 1, 0);
  StreamTaken[E] = static_cast<uint32_t>(Direct.takenEvents());
  put(BlockBegin);
  put(std::vector<uint32_t>(E, 0xfffffff0u)); // OccPos, all out of range
  put(std::vector<uint32_t>(E + N, 0));       // TakenPre
  put(std::vector<uint64_t>(E + N, 0));       // InstsPre
  put(StreamInsts);
  put(StreamTaken);
  ASSERT_TRUE(writeTextFileAtomic(Entry + ".idx", compressBytes(Bytes)));

  TraceCache Cache(Dir);
  auto T = Cache.get("gzip", "ref", 0x99, B.Ref, MaxBlocks);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Cache.stats().DiskHits.load(), 1u);
  EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
  EXPECT_EQ(T->sharedIndex(), nullptr);

  dbt::DbtOptions Opts;
  const std::vector<uint64_t> Thresholds = {10, 100, 1000};
  SweepResult Analytic = replaySweep(*T, B.Ref, Thresholds, Opts);
  SweepResult Pumped = replaySweepEvents(Direct, B.Ref, Thresholds, Opts);
  ASSERT_EQ(Analytic.PerThreshold.size(), Thresholds.size());
  ASSERT_EQ(Pumped.PerThreshold.size(), Thresholds.size());
  for (size_t I = 0; I < Thresholds.size(); ++I)
    EXPECT_EQ(profile::printSnapshot(Analytic.PerThreshold[I]),
              profile::printSnapshot(Pumped.PerThreshold[I]))
        << "T=" << Thresholds[I];
  EXPECT_EQ(profile::printSnapshot(Analytic.Average),
            profile::printSnapshot(Pumped.Average));
  std::filesystem::remove_all(Dir);
}
