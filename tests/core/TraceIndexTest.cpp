//===- tests/core/TraceIndexTest.cpp - Analytic index tests -----*- C++ -*-===//

#include "core/TraceIndex.h"

#include "core/Experiment.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "support/Compression.h"
#include "support/Rng.h"
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
    for (uint32_t K = 0; K < Pos[B].size(); ++K)
      EXPECT_EQ(Idx.position(Id, K), Pos[B][K]);
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

namespace {

/// The (0-based) occurrence outcomes of every block, read straight from
/// the trace's events: the reference the index's bit rows are checked
/// against.
std::vector<std::vector<bool>> outcomesOf(const BlockTrace &T) {
  std::vector<std::vector<bool>> Outcomes(T.numBlocks());
  for (size_t I = 0; I < T.numEvents(); ++I) {
    const TraceEvent E = T.event(I);
    Outcomes[E.Block].push_back(E.Branch == 2);
  }
  return Outcomes;
}

/// Checks takenOfFirst() of \p Idx at every rank 0..occurrences (so at
/// every word boundary and at the row end) against \p Outcomes.
void expectRowQueries(const TraceIndex &Idx,
                      const std::vector<std::vector<bool>> &Outcomes,
                      const std::string &Label) {
  for (size_t B = 0; B < Outcomes.size(); ++B) {
    const auto Id = static_cast<guest::BlockId>(B);
    const std::vector<bool> &Seq = Outcomes[B];
    const auto Cnt = static_cast<uint32_t>(Seq.size());
    ASSERT_EQ(Idx.occurrences(Id), Cnt) << Label << " block " << B;
    uint32_t Taken = 0;
    for (uint32_t K = 0; K <= Cnt; ++K) {
      EXPECT_EQ(Idx.takenOfFirst(Id, K), Taken)
          << Label << " block " << B << " K=" << K;
      if (K < Cnt)
        Taken += Seq[K];
    }
  }
}

} // namespace

TEST(TraceIndexTest, TakenBitRowsAtWordBoundaries) {
  // Block 0 carries the row under test, its occurrences interleaved with
  // an unconditional block 1 so positions and ranks differ; block 2 is a
  // conditional block that never runs (an empty row).
  const uint32_t Counts[] = {1, 63, 64, 65, 127, 128, 129, 192, 200};
  enum Pattern { AllTaken, AllUntaken, Alternating, RunsOf70 };
  for (uint32_t Cnt : Counts)
    for (Pattern P : {AllTaken, AllUntaken, Alternating, RunsOf70}) {
      BlockTrace T;
      T.setShapes({BlockShape{2, true}, BlockShape{1, false},
                   BlockShape{4, true}});
      for (uint32_t K = 0; K < Cnt; ++K) {
        const bool Taken = P == AllTaken     ? true
                           : P == AllUntaken ? false
                           : P == Alternating ? K % 2 == 0
                                              : (K / 70) % 2 == 0;
        T.append(TraceEvent{0, static_cast<uint8_t>(Taken ? 2 : 1), 2});
        if (K % 3 == 0)
          T.append(TraceEvent{1, 0, 1});
      }
      const std::string Label =
          "count " + std::to_string(Cnt) + " pattern " + std::to_string(P);
      expectRowQueries(TraceIndex::build(T), outcomesOf(T), Label);
    }

  // Long rows of random-length runs (1 to 700 occurrences, so a run spans
  // from inside one word to over ten), two conditional blocks taking
  // turns.
  Rng R(0x6a11);
  BlockTrace T;
  T.setShapes({BlockShape{3, true}, BlockShape{5, true}});
  for (int Run = 0; Run < 60; ++Run) {
    const guest::BlockId B = static_cast<guest::BlockId>(Run % 2);
    const uint64_t Len = 1 + R.nextBelow(Run % 3 ? 700 : 40);
    const bool Taken = R.nextBelow(2);
    for (uint64_t I = 0; I < Len; ++I)
      T.append(TraceEvent{B, static_cast<uint8_t>(Taken ? 2 : 1),
                          B ? 5u : 3u});
  }
  expectRowQueries(TraceIndex::build(T), outcomesOf(T), "runs");
}

TEST(TraceIndexTest, CacheServesBareTraces) {
  // The trace store persists traces only and builds no index: a cold
  // miss and a warm hit both return the bare trace, and the first
  // analytic replay builds the index.
  const std::string Dir = "/tmp/tpdbt_trace_index_test";
  std::filesystem::remove_all(Dir);
  auto B = smallBench("gzip");

  {
    TraceCache Cache(Dir);
    auto T = Cache.get("gzip", "ref", 0x1234, B.Ref, 5000);
    ASSERT_NE(T, nullptr);
    // The miss streams through the segment pipeline, which compresses
    // and writes the trace but indexes nothing.
    EXPECT_EQ(Cache.stats().StreamedRecords.load(), 1u);
    EXPECT_EQ(Cache.stats().IndexBuilds.load(), 0u);
    EXPECT_EQ(Cache.stats().IndexHits.load(), 0u);
    EXPECT_EQ(T->sharedIndex(), nullptr);
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
    // Through the experiment driver, cold and warm alike, the ref
    // trace's first threshold replay builds its index once under the
    // index timer. The train lookup asks only for stream totals
    // (TraceCache::totals), so it neither replays nor indexes.
    ExperimentConfig C;
    C.Scale = 0.01;
    C.Thresholds = {100};
    C.CacheDir = Dir;
    auto Cache = std::make_shared<TraceCache>(Dir);
    ExperimentContext Cold(C, Cache);
    Cold.inip("gzip", 100);
    EXPECT_EQ(Cache->stats().Misses.load(), 2u);
    EXPECT_EQ(Cache->stats().IndexHits.load(), 0u);
    EXPECT_EQ(Cache->stats().IndexBuilds.load(), 1u);
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      if (E.path().extension() == ".prof")
        std::filesystem::remove(E.path());

    auto Fresh = std::make_shared<TraceCache>(Dir);
    ExperimentContext Warm(C, Fresh);
    Warm.inip("gzip", 100);
    EXPECT_EQ(Fresh->stats().DiskHits.load(), 2u);
    EXPECT_EQ(Fresh->stats().IndexHits.load(), 0u);
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
  put(std::vector<uint32_t>(E + N, 0));       // taken prefix sums
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
