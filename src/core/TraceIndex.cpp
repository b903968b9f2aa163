//===- core/TraceIndex.cpp - Analytic replay index over a trace ------------===//

#include "core/TraceIndex.h"

#include "core/Trace.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

TraceIndex TraceIndex::shaped(const BlockTrace &Trace) {
  const size_t N = Trace.numBlocks();
  const size_t E = Trace.numEvents();
  assert(E < (1ull << 32) && "trace too large for a 32-bit position index");

  TraceIndex Idx;
  Idx.TotalInsts = Trace.totalInsts();
  Idx.TakenEvents = Trace.takenEvents();
  // The trace already maintains final per-block use counts, which are
  // exactly the CSR row sizes: no counting pass over the events.
  const std::vector<profile::BlockCounters> &Final = Trace.finalCounts();
  Idx.BlockBegin.resize(N + 1);
  uint32_t Offset = 0;
  for (size_t B = 0; B < N; ++B) {
    Idx.BlockBegin[B] = Offset;
    Offset += static_cast<uint32_t>(Final[B].Use);
  }
  Idx.BlockBegin[N] = Offset;
  assert(Offset == E && "final counts disagree with the event stream");

  // One bit row per block, with a word for rank occurrences itself (so
  // takenOfFirst(B, occurrences(B)) reads inside the row): zero-filled,
  // so bits past a row's last occurrence read as untaken.
  Idx.WordBegin.resize(N + 1);
  uint32_t Words = 0;
  for (size_t B = 0; B < N; ++B) {
    Idx.WordBegin[B] = Words;
    Words += static_cast<uint32_t>(Final[B].Use / 64 + 1);
  }
  Idx.WordBegin[N] = Words;
  Idx.OccPos.resize(E);
  Idx.TakenBits.resize(Words);
  Idx.Checkpoint.resize(Words);
  Idx.Len.resize(N);
  for (size_t B = 0; B < N; ++B)
    Idx.Len[B] = Trace.shapes()[B].Len;
  if (Trace.tailInsts()) {
    Idx.TailBlock = eventBlock(Trace.words().back());
    Idx.TailShort = Idx.Len[Idx.TailBlock] - Trace.tailInsts();
  }
  return Idx;
}

TraceIndex TraceIndex::build(const BlockTrace &Trace) {
  TraceIndex Idx = shaped(Trace);
  // Scatter positions and taken bits. Rank[B] is the occurrence rank of
  // block B's next event.
  std::vector<uint32_t> Rank(Idx.numBlocks(), 0);
  const std::vector<EventWord> &Words = Trace.words();
  for (size_t I = 0; I < Words.size(); ++I) {
    const BlockId B = eventBlock(Words[I]);
    const uint32_t K = Rank[B]++;
    Idx.OccPos[Idx.BlockBegin[B] + K] = static_cast<uint32_t>(I);
    Idx.TakenBits[Idx.WordBegin[B] + K / 64] |=
        static_cast<uint64_t>(eventTaken(Words[I])) << (K % 64);
  }
  // Each row's checkpoints: its taken count before every word.
  for (size_t B = 0; B < Idx.numBlocks(); ++B) {
    uint32_t Taken = 0;
    for (uint32_t W = Idx.WordBegin[B]; W < Idx.WordBegin[B + 1]; ++W) {
      Idx.Checkpoint[W] = Taken;
      Taken += static_cast<uint32_t>(std::popcount(Idx.TakenBits[W]));
    }
  }
  return Idx;
}

uint32_t TraceIndex::usesThrough(BlockId B, uint32_t Pos) const {
  const uint32_t *Begin = OccPos.data() + BlockBegin[B];
  const uint32_t *End = OccPos.data() + BlockBegin[B + 1];
  return static_cast<uint32_t>(std::upper_bound(Begin, End, Pos) - Begin);
}
