//===- core/TraceSegments.cpp - Sharded TPDT v4 trace container ------------===//

#include "core/TraceSegments.h"

#include "support/Compression.h"
#include "support/Varint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

uint64_t tpdbt::core::segmentEventBudget() {
  const char *Env = std::getenv("TPDBT_SEGMENT_EVENTS");
  if (!Env || !*Env)
    return DefaultSegmentEvents;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0' || V == 0)
    return DefaultSegmentEvents;
  return std::max<uint64_t>(V, MinSegmentEvents);
}

std::string tpdbt::core::encodeSegmentEvents(const EventWord *W, size_t N) {
  std::string Out;
  Out.reserve(N + N / 4); // typical traces take about one byte per event
  int64_t PrevBlock = 0;
  for (size_t I = 0; I < N; ++I) {
    const int64_t Block = eventBlock(W[I]);
    putVarint(Out, zigzagEncode(Block - PrevBlock) << 1 | eventTaken(W[I]));
    PrevBlock = Block;
  }
  return Out;
}

namespace {

/// How many of the 8 bytes at \p P equal the byte that \p Pattern
/// repeats, counted from \p P up to the first that differs.
unsigned equalPrefix(const uint8_t *P, uint64_t Pattern) {
  uint64_t Word;
  std::memcpy(&Word, P, 8);
  Word ^= Pattern;
  const int Bits = std::endian::native == std::endian::little
                       ? std::countr_zero(Word)
                       : std::countl_zero(Word);
  return static_cast<unsigned>(Bits) / 8;
}

} // namespace

bool tpdbt::core::decodeSegmentEvents(
    std::string_view Raw, uint64_t ExpectEvents,
    const std::vector<BlockShape> &Shapes, std::vector<EventWord> *Out,
    std::vector<profile::BlockCounters> *Table, SegmentDecode &Result,
    std::string *Error) {
  const size_t From = Out ? Out->size() : 0;
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    if (Out)
      Out->resize(From);
    return false;
  };
  // Every event takes at least one raw byte, so a short payload is
  // rejected before the output is sized from the caller's count.
  if (ExpectEvents > Raw.size())
    return Fail("truncated segment event");
  EventWord *Dst = nullptr;
  if (Out) {
    Out->resize(From + ExpectEvents);
    Dst = Out->data() + From;
  }
  profile::BlockCounters *Fold = Table ? Table->data() : nullptr;
  assert((!Table || Table->size() == Shapes.size()) &&
         "counter table sized to the shape table");
  const auto *Bytes = reinterpret_cast<const uint8_t *>(Raw.data());
  const size_t Size = Raw.size();
  const BlockShape *Shape = Shapes.data();
  const auto NumBlocks = static_cast<int64_t>(Shapes.size());
  SegmentDecode D;
  size_t Pos = 0;
  int64_t Block = 0;
  for (uint64_t I = 0; I < ExpectEvents;) {
    if (Pos == Size)
      return Fail("truncated segment event");
    uint64_t Packed = Bytes[Pos++];
    uint64_t Run = 1;
    if (Packed <= 1) {
      // A zero delta (0x00, or 0x01 when taken) repeats the previous
      // event, as every iteration of a self-loop does. The whole run of
      // equal bytes is one step, capped at the events still expected and
      // the bytes left, so each check below and each error fires exactly
      // where an event-at-a-time walk would stop.
      const size_t Limit =
          Pos + static_cast<size_t>(std::min<uint64_t>(ExpectEvents - I - 1,
                                                       Size - Pos));
      const uint64_t Pattern = Packed * 0x0101010101010101ull;
      size_t End = Pos;
      for (unsigned Same = 8; Same == 8 && End + 8 <= Limit; End += Same)
        Same = equalPrefix(Bytes + End, Pattern);
      while (End < Limit && Bytes[End] == Packed)
        ++End;
      Run += End - Pos;
      Pos = End;
    } else if (Packed >= 0x80) {
      // The LEB128 continuation path, which real traces (a few dozen
      // blocks, small deltas) almost never take.
      Packed &= 0x7f;
      for (unsigned Shift = 7;; Shift += 7) {
        if (Shift > 63)
          return Fail("segment event varint wider than 64 bits");
        if (Pos == Size)
          return Fail("truncated segment event");
        const uint8_t Byte = Bytes[Pos++];
        Packed |= static_cast<uint64_t>(Byte & 0x7f) << Shift;
        if (!(Byte & 0x80))
          break;
      }
    }
    // |delta| < 2^62 and 0 <= Block < 2^31: the sum cannot wrap.
    Block += zigzagDecode(Packed >> 1);
    if (Block < 0)
      return Fail("block delta below block 0");
    if (Block >= NumBlocks)
      return Fail("block id out of range");
    const BlockShape &S = Shape[Block];
    const bool Taken = Packed & 1;
    if (Taken && !S.Cond)
      return Fail("taken bit on a block without a conditional branch");
    D.Sums.Insts += Run * S.Len;
    D.Sums.Taken += Taken ? Run : 0;
    D.Last = packEvent(static_cast<BlockId>(Block), Taken);
    if (Fold) {
      Fold[Block].Use += Run;
      Fold[Block].Taken += Taken ? Run : 0;
    }
    if (Dst) {
      // Eight stores without a loop cover any short run; the slots past
      // it belong to later events, which overwrite them.
      if (Run <= 8 && ExpectEvents - I >= 8)
        for (unsigned K = 0; K < 8; ++K)
          Dst[I + K] = D.Last;
      else
        std::fill(Dst + I, Dst + I + Run, D.Last);
    }
    I += Run;
  }
  if (Pos != Size)
    return Fail("trailing bytes after segment events");
  Result = D;
  return true;
}

EventSums tpdbt::core::sumEvents(const EventWord *W, size_t N,
                                 const std::vector<BlockShape> &Shapes) {
  EventSums S;
  for (size_t I = 0; I < N; ++I) {
    S.Insts += Shapes[eventBlock(W[I])].Len;
    S.Taken += eventTaken(W[I]);
  }
  return S;
}

namespace {

constexpr char Magic[4] = {'T', 'P', 'D', 'T'};
constexpr uint8_t SegmentedVersion = 4;

} // namespace

SegmentedTraceHeader tpdbt::core::segmentedHeaderOf(const BlockTrace &T,
                                                    uint64_t Budget) {
  SegmentedTraceHeader H;
  H.NumBlocks = T.numBlocks();
  H.NumEvents = T.numEvents();
  H.TailInsts = T.tailInsts();
  if (H.TailInsts)
    H.TailBlock = eventBlock(T.words().back());
  H.SegmentBudget = Budget;
  H.Shapes = T.shapes();
  H.Final = T.finalCounts();
  H.TotalInsts = T.totalInsts();
  return H;
}

std::string tpdbt::core::assembleSegmentedTrace(
    const SegmentedTraceHeader &H,
    const std::vector<TraceSegmentRecord> &Segments) {
  std::string Out(Magic, 4);
  Out.push_back(static_cast<char>(SegmentedVersion));
  putVarint(Out, H.NumBlocks);
  putVarint(Out, H.NumEvents);
  putVarint(Out, H.TailInsts);
  if (H.TailInsts)
    putVarint(Out, H.TailBlock);
  putVarint(Out, H.SegmentBudget);
  putVarint(Out, Segments.size());
  for (const BlockShape &S : H.Shapes)
    putVarint(Out, uint64_t(S.Len) << 1 | (S.Cond ? 1 : 0));
  for (const profile::BlockCounters &C : H.Final) {
    putVarint(Out, C.Use);
    putVarint(Out, C.Taken);
  }
  for (const TraceSegmentRecord &S : Segments) {
    putVarint(Out, S.Events);
    putVarint(Out, S.Payload.size());
    putVarint(Out, S.BaseInsts);
    putVarint(Out, S.BaseTaken);
  }
  for (const TraceSegmentRecord &S : Segments)
    Out += S.Payload;
  return Out;
}

uint64_t SegmentedTraceHeader::takenEvents() const {
  uint64_t Taken = 0;
  for (const profile::BlockCounters &C : Final)
    Taken += C.Taken;
  return Taken;
}

TraceTotals SegmentedTraceHeader::totals() const {
  TraceTotals T;
  T.Final = Final;
  T.NumEvents = NumEvents;
  T.TakenEvents = takenEvents();
  T.TotalInsts = TotalInsts;
  return T;
}

bool tpdbt::core::parseSegmentedHeader(const std::string &Bytes,
                                       uint64_t FileSize,
                                       SegmentedTraceHeader &Out,
                                       std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  if (Bytes.size() < 5 || Bytes.compare(0, 4, Magic, 4) != 0)
    return Fail("bad trace magic");
  if (static_cast<uint8_t>(Bytes[4]) != SegmentedVersion)
    return Fail("unsupported trace version");
  size_t Pos = 5;
  SegmentedTraceHeader H;
  uint64_t NumSegments = 0, TailInsts = 0, TailBlock = 0;
  if (!getVarint(Bytes, Pos, H.NumBlocks) ||
      !getVarint(Bytes, Pos, H.NumEvents) ||
      !getVarint(Bytes, Pos, TailInsts) ||
      (TailInsts && !getVarint(Bytes, Pos, TailBlock)) ||
      !getVarint(Bytes, Pos, H.SegmentBudget) ||
      !getVarint(Bytes, Pos, NumSegments))
    return Fail("truncated segmented trace header");
  // Each block costs >= 3 shape and counter-table bytes and each segment
  // >= 4 directory bytes plus a payload frame, so counts exceeding those
  // budgets against the file size mark corruption before any allocation
  // is sized from an attacker-controlled field. Segments hold at least
  // one event each, and an event word keeps 31 bits for its block id.
  if (H.NumBlocks > FileSize / 3 || H.NumBlocks > (uint64_t(1) << 31) ||
      H.NumEvents >= (uint64_t(1) << 32) || NumSegments > H.NumEvents ||
      NumSegments > FileSize / 4)
    return Fail("implausible segmented trace header");
  if (H.SegmentBudget == 0)
    return Fail("segmented trace with zero budget");
  if (TailInsts && (H.NumEvents == 0 || TailBlock >= H.NumBlocks))
    return Fail("partial tail outside the trace");

  H.Shapes.resize(H.NumBlocks);
  for (BlockShape &S : H.Shapes) {
    uint64_t Packed = 0;
    if (!getVarint(Bytes, Pos, Packed))
      return Fail("truncated trace shape table");
    if ((Packed >> 1) == 0 || (Packed >> 1) >= (uint64_t(1) << 32))
      return Fail("block length outside the shape table's range");
    S.Len = static_cast<uint32_t>(Packed >> 1);
    S.Cond = Packed & 1;
  }
  // A partial tail stops before its terminator: it is shorter than its
  // block, and executed at least the instruction that faulted.
  if (TailInsts && TailInsts >= H.Shapes[TailBlock].Len)
    return Fail("partial tail as long as its block");
  H.TailInsts = static_cast<uint32_t>(TailInsts);
  H.TailBlock = static_cast<BlockId>(TailBlock);

  H.Final.resize(H.NumBlocks);
  uint64_t SumUse = 0, Insts = 0;
  for (uint64_t B = 0; B < H.NumBlocks; ++B) {
    profile::BlockCounters &C = H.Final[B];
    if (!getVarint(Bytes, Pos, C.Use) || !getVarint(Bytes, Pos, C.Taken))
      return Fail("truncated trace counter table");
    // Per-entry bounds before accumulating, so a crafted huge counter can
    // never wrap SumUse back onto the expected total.
    if (C.Use > H.NumEvents || C.Taken > C.Use)
      return Fail("counter table entry exceeds event count");
    if (C.Taken && !H.Shapes[B].Cond)
      return Fail("taken count on a block without a conditional branch");
    SumUse += C.Use;
    if (SumUse > H.NumEvents)
      return Fail("counter table disagrees with event count");
    // Uses < 2^32 and lengths < 2^32, summed over < 2^32 events: no wrap.
    Insts += C.Use * H.Shapes[B].Len;
  }
  if (SumUse != H.NumEvents)
    return Fail("counter table disagrees with event count");
  if (TailInsts) {
    // The tail is one of its block's uses and never a taken branch.
    const profile::BlockCounters &C = H.Final[TailBlock];
    if (C.Use == C.Taken)
      return Fail("counter table disagrees with partial tail");
    Insts -= H.Shapes[TailBlock].Len - TailInsts;
  }
  H.TotalInsts = Insts;

  H.Directory.resize(NumSegments);
  uint64_t SumEvents = 0, SumPayload = 0, RunInsts = 0, RunTaken = 0;
  for (uint64_t S = 0; S < NumSegments; ++S) {
    SegmentedTraceHeader::Entry &Ent = H.Directory[S];
    uint64_t Events = 0;
    if (!getVarint(Bytes, Pos, Events) ||
        !getVarint(Bytes, Pos, Ent.PayloadBytes) ||
        !getVarint(Bytes, Pos, Ent.BaseInsts) ||
        !getVarint(Bytes, Pos, Ent.BaseTaken))
      return Fail("truncated segment directory");
    if (Events == 0 || Events > H.SegmentBudget || Events > H.NumEvents)
      return Fail("segment event count outside budget");
    // A segment holds >= 1 event, so its compressed payload is never
    // empty; and no payload can exceed the file that contains it. Both
    // checks keep readSegment's payload buffer (sized from this field)
    // bounded by the real file size.
    if (Ent.PayloadBytes == 0 || Ent.PayloadBytes > FileSize)
      return Fail("segment payload size implausible");
    // Every event is at least one raw byte, so a segment holds no more
    // events than its frame can inflate to: the event counts readers
    // reserve for stay bounded by the file size.
    if (Events > maxDecompressedSize(Ent.PayloadBytes))
      return Fail("segment event count exceeds its payload");
    if (Ent.BaseInsts < RunInsts || Ent.BaseTaken < RunTaken)
      return Fail("segment bases not monotone");
    if (S == 0 && (Ent.BaseInsts != 0 || Ent.BaseTaken != 0))
      return Fail("first segment bases nonzero");
    Ent.Events = static_cast<uint32_t>(Events);
    SumEvents += Events;
    SumPayload += Ent.PayloadBytes;
    if (SumEvents > H.NumEvents || SumPayload > FileSize)
      return Fail("segment directory sums exceed file");
    RunInsts = Ent.BaseInsts;
    RunTaken = Ent.BaseTaken;
  }
  if (SumEvents != H.NumEvents)
    return Fail("segment directory disagrees with event count");
  if (RunInsts > H.TotalInsts || RunTaken > H.takenEvents())
    return Fail("segment bases exceed trace totals");

  H.PayloadStart = Pos;
  uint64_t Offset = Pos;
  for (SegmentedTraceHeader::Entry &Ent : H.Directory) {
    Ent.PayloadOffset = Offset;
    Offset += Ent.PayloadBytes;
  }
  // The payload frames must tile the rest of the file exactly; a short
  // file is torn, a long one has trailing bytes.
  if (Offset != FileSize)
    return Fail("segment payloads disagree with file size");
  Out = std::move(H);
  return true;
}

bool SegmentedTraceReader::open(const std::string &Path,
                                SegmentedTraceReader &Out,
                                std::string *Error) {
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  SegmentedTraceReader R;
  R.File.open(Path, std::ios::binary);
  if (!R.File)
    return Fail("cannot open trace file");
  R.File.seekg(0, std::ios::end);
  const uint64_t FileSize = static_cast<uint64_t>(R.File.tellg());
  // Grow-and-retry header read: varints make the header length
  // data-dependent, so read a prefix, try to parse, and double until the
  // parse stops failing or the prefix is the whole file (then the
  // failure is real corruption, not truncation).
  std::string Prefix;
  for (uint64_t Want = std::min<uint64_t>(FileSize, 64 * 1024);;
       Want = std::min<uint64_t>(FileSize, Want * 2)) {
    Prefix.resize(Want);
    R.File.seekg(0);
    if (Want && !R.File.read(Prefix.data(), static_cast<std::streamsize>(Want)))
      return Fail("cannot read trace file");
    std::string ParseError;
    if (parseSegmentedHeader(Prefix, FileSize, R.Header, &ParseError)) {
      R.File.clear();
      Out = std::move(R);
      return true;
    }
    if (Want == FileSize) {
      if (Error)
        *Error = ParseError;
      return false;
    }
  }
}

bool SegmentedTraceReader::openBytes(std::string Bytes,
                                     SegmentedTraceReader &Out,
                                     std::string *Error) {
  SegmentedTraceReader R;
  if (!parseSegmentedHeader(Bytes, Bytes.size(), R.Header, Error))
    return false;
  R.Bytes = std::move(Bytes);
  Out = std::move(R);
  return true;
}

namespace {

/// Inflates segment \p I's TPDZ payload \p Frame into \p Raw, runs
/// decodeSegmentEvents() over it and checks its sums against the
/// directory (see SegmentedTraceReader::readSegment()).
bool decodeSegment(const SegmentedTraceHeader &H, size_t I,
                   std::string_view Frame, std::string &Raw,
                   std::vector<EventWord> *Out,
                   std::vector<profile::BlockCounters> *Table,
                   std::string *Error) {
  assert(I < H.Directory.size() && "segment index out of range");
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  const SegmentedTraceHeader::Entry &Ent = H.Directory[I];
  if (!decompressBytes(Frame, Raw, Error))
    return false;
  SegmentDecode D;
  if (!decodeSegmentEvents(Raw, Ent.Events, H.Shapes, Out, Table, D, Error))
    return false;
  // The segment's own sums must land exactly on the next directory row's
  // bases (or the trace totals for the last segment) — a purely local
  // check, so random-access reads stay O(segment). Since the first row's
  // bases are zero, checking every segment pins the whole prefix chain.
  const bool Last = I + 1 == H.Directory.size();
  if (Last && H.TailInsts) {
    // The header's partial tail is this segment's (the stream's) final
    // event: of the block it names, and stopped before its branch.
    if (eventBlock(D.Last) != H.TailBlock)
      return Fail("partial tail disagrees with the final event");
    if (eventTaken(D.Last))
      return Fail("taken bit on the partial tail");
    D.Sums.Insts -= H.Shapes[H.TailBlock].Len - H.TailInsts;
  }
  const uint64_t WantInsts =
      (Last ? H.TotalInsts : H.Directory[I + 1].BaseInsts) - Ent.BaseInsts;
  const uint64_t WantTaken =
      (Last ? H.takenEvents() : H.Directory[I + 1].BaseTaken) - Ent.BaseTaken;
  if (D.Sums.Insts != WantInsts || D.Sums.Taken != WantTaken)
    return Fail("segment events disagree with directory bases");
  return true;
}

} // namespace

bool SegmentedTraceReader::frame(size_t I, std::string_view &Frame,
                                 std::string *Error) {
  assert(I < Header.Directory.size() && "segment index out of range");
  const SegmentedTraceHeader::Entry &Ent = Header.Directory[I];
  const auto Offset = static_cast<size_t>(Ent.PayloadOffset);
  const auto Size = static_cast<size_t>(Ent.PayloadBytes);
  if (!File.is_open()) {
    // The header check tiled the frames over exactly these bytes.
    Frame = std::string_view(Bytes).substr(Offset, Size);
    return true;
  }
  Compressed.resize(Size);
  File.clear();
  File.seekg(static_cast<std::streamoff>(Offset));
  if (Size && !File.read(Compressed.data(), static_cast<std::streamsize>(Size))) {
    if (Error)
      *Error = "cannot read segment payload";
    return false;
  }
  Frame = Compressed;
  return true;
}

bool SegmentedTraceReader::readSegment(
    size_t I, std::vector<EventWord> *Out,
    std::vector<profile::BlockCounters> *Table, std::string *Error) {
  std::string_view Frame;
  return frame(I, Frame, Error) &&
         decodeSegment(Header, I, Frame, Raw, Out, Table, Error);
}

bool SegmentedTraceReader::readAll(std::vector<EventWord> *Out,
                                   std::vector<profile::BlockCounters> &Table,
                                   std::string *Error) {
  assert(Table.size() == Header.NumBlocks && "table sized to the header");
  for (size_t I = 0; I < numSegments(); ++I)
    if (!readSegment(I, Out, &Table, Error))
      return false;
  for (size_t B = 0; B < Table.size(); ++B)
    if (Table[B].Use != Header.Final[B].Use ||
        Table[B].Taken != Header.Final[B].Taken) {
      if (Error)
        *Error = "trace counter table disagrees with events";
      return false;
    }
  return true;
}

bool SegmentedTraceReader::verifyAll(std::string *Error) {
  std::vector<profile::BlockCounters> Folded(Header.NumBlocks);
  return readAll(nullptr, Folded, Error);
}

SegmentProfileMemo::Tag
SegmentProfileMemo::tagOf(const SegmentedTraceHeader &H, size_t I) {
  const SegmentedTraceHeader::Entry &Ent = H.Directory[I];
  Tag T;
  T.NumBlocks = H.NumBlocks;
  T.SegmentBudget = H.SegmentBudget;
  T.Events = Ent.Events;
  T.PayloadBytes = Ent.PayloadBytes;
  T.BaseInsts = Ent.BaseInsts;
  T.BaseTaken = Ent.BaseTaken;
  T.PayloadOffset = Ent.PayloadOffset;
  return T;
}

bool SegmentProfileMemo::lookup(const SegmentedTraceHeader &H, size_t I,
                                SegmentProfile &Out) const {
  const Tag Want = tagOf(H, I);
  std::lock_guard<std::mutex> Guard(Lock);
  if (I >= Segments.size() || !Segments[I].Filled || Segments[I].Key != Want)
    return false;
  Out.Entries = Segments[I].Profile.Entries;
  return true;
}

void SegmentProfileMemo::store(const SegmentedTraceHeader &H, size_t I,
                               const SegmentProfile &P) {
  const Tag Key = tagOf(H, I);
  std::lock_guard<std::mutex> Guard(Lock);
  if (I >= Segments.size())
    Segments.resize(I + 1);
  Segments[I].Filled = true;
  Segments[I].Key = Key;
  Segments[I].Profile = P;
}

size_t SegmentProfileMemo::size() const {
  std::lock_guard<std::mutex> Guard(Lock);
  size_t N = 0;
  for (const Memoized &M : Segments)
    N += M.Filled;
  return N;
}
