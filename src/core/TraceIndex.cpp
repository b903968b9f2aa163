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

uint32_t TraceIndex::firstOutcomeChange(BlockId B, uint32_t K,
                                        bool Taken) const {
  const uint32_t Cnt = occurrences(B);
  const uint64_t *Row = TakenBits.data() + WordBegin[B];
  const uint32_t *Ckpt = Checkpoint.data() + WordBegin[B];
  const uint32_t LastWord = Cnt / 64;
  // Word J's outcomes that differ from Taken. Bits past the last
  // occurrence read as untaken and the row has a word holding rank Cnt,
  // so for Taken the row end shows up as a difference at rank Cnt
  // itself; for untaken, a last word with no difference left means the
  // run reaches the row end.
  auto Differ = [&](uint32_t J) { return Taken ? ~Row[J] : Row[J]; };
  auto At = [&](uint32_t J, uint64_t Bits) {
    return Bits ? J * 64 + static_cast<uint32_t>(std::countr_zero(Bits))
                : Cnt;
  };
  const uint32_t W = K / 64;
  const uint64_t Here = Differ(W) & (~uint64_t(0) << (K % 64));
  if (Here || W == LastWord)
    return At(W, Here);
  // The rest of word W matches. A later word matches whole exactly when
  // it adds 64 (Taken) or 0 taken outcomes, so the key below is constant
  // along a run of matching words and moves at the first word that
  // differs: words [W+1, J) all match iff RunKey(J) == RunKey(W+1). Find
  // the last such J — the boundary word — galloping out from W+1 (runs
  // are short relative to the row) before bisecting the last doubling
  // interval.
  auto RunKey = [&](uint32_t J) -> int64_t {
    return Taken ? static_cast<int64_t>(Ckpt[J]) - int64_t(64) * J
                 : static_cast<int64_t>(Ckpt[J]);
  };
  const uint32_t First = W + 1;
  const int64_t Key = RunKey(First);
  uint32_t Base = First, Step = 1;
  while (Base + Step <= LastWord && RunKey(Base + Step) == Key) {
    Base += Step;
    Step *= 2;
  }
  // RunKey holds at Base; the first word where it fails, if any, lies in
  // (Base, Base + Step] — clipped to the row when the gallop ran off it.
  uint32_t Lo = Base + 1, Hi = std::min(Base + Step, LastWord + 1);
  while (Lo < Hi) {
    const uint32_t Mid = Lo + (Hi - Lo) / 2;
    if (RunKey(Mid) == Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return At(Lo - 1, Differ(Lo - 1));
}
