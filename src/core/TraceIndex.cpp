//===- core/TraceIndex.cpp - Analytic replay index over a trace ------------===//

#include "core/TraceIndex.h"

#include "core/Trace.h"

#include <algorithm>
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

  Idx.OccPos.resize(E);
  // Zero-filled, which sets every prefix row's leading zero.
  Idx.TakenPre.resize(E + N);
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
  // Scatter positions and accumulate prefix rows. Cursor[B] is the next
  // free OccPos slot of block B.
  std::vector<uint32_t> Cursor(Idx.BlockBegin.begin(),
                               Idx.BlockBegin.end() - 1);
  const std::vector<EventWord> &Words = Trace.words();
  for (size_t I = 0; I < Words.size(); ++I) {
    const BlockId B = eventBlock(Words[I]);
    uint32_t Slot = Cursor[B]++;
    Idx.OccPos[Slot] = static_cast<uint32_t>(I);
    size_t Row = Slot + B; // prefBegin(B) + occurrence rank
    Idx.TakenPre[Row + 1] = Idx.TakenPre[Row] + eventTaken(Words[I]);
  }
  return Idx;
}

uint32_t TraceIndex::usesThrough(BlockId B, uint32_t Pos) const {
  const uint32_t *Begin = OccPos.data() + BlockBegin[B];
  const uint32_t *End = OccPos.data() + BlockBegin[B + 1];
  return static_cast<uint32_t>(std::upper_bound(Begin, End, Pos) - Begin);
}

uint32_t TraceIndex::occurrenceAt(BlockId B, uint32_t Pos) const {
  const uint32_t *Begin = OccPos.data() + BlockBegin[B];
  const uint32_t *End = OccPos.data() + BlockBegin[B + 1];
  const uint32_t *It = std::lower_bound(Begin, End, Pos);
  assert(It != End && *It == Pos && "position is not an occurrence of B");
  return static_cast<uint32_t>(It - Begin);
}

uint32_t TraceIndex::firstOutcomeChange(BlockId B, uint32_t K,
                                        bool Taken) const {
  const size_t Row = prefBegin(B);
  const uint32_t Cnt = occurrences(B);
  // Along a run of occurrences whose outcome equals Taken, the quantity
  // below is constant, and it is strictly monotone across a differing
  // outcome — so the run end is a partition point.
  auto RunKey = [&](uint32_t J) -> int64_t {
    return Taken ? static_cast<int64_t>(TakenPre[Row + J]) - J
                 : static_cast<int64_t>(TakenPre[Row + J]);
  };
  // Outcomes [K, J) all equal Taken iff RunKey(J) == RunKey(K); find the
  // first J in (K, Cnt] where that fails. The answer is J - 1 (the first
  // differing occurrence), or Cnt when the whole tail matches. Runs are
  // typically short relative to the row, so gallop out from K before
  // bisecting the last doubling interval.
  const int64_t Key = RunKey(K);
  uint32_t Base = K, Step = 1;
  while (Base + Step <= Cnt && RunKey(Base + Step) == Key) {
    Base += Step;
    Step *= 2;
  }
  // [K, Base] all match; the first mismatch, if any, lies in
  // (Base, Base + Step] — clipped to the row when the gallop ran off it.
  uint32_t Lo = Base + 1, Hi = std::min(Base + Step, Cnt + 1);
  while (Lo < Hi) {
    uint32_t Mid = Lo + (Hi - Lo) / 2;
    if (RunKey(Mid) == Key)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo - 1;
}
