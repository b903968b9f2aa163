//===- support/Compression.cpp - Byte-oriented LZ compression --------------===//

#include "support/Compression.h"

#include "support/Varint.h"

#include <cstdint>
#include <cstring>
#include <vector>

using namespace tpdbt;

namespace {

constexpr char Magic[4] = {'T', 'P', 'D', 'Z'};
constexpr uint8_t Version = 1;

/// Minimum back-reference length; shorter matches are emitted as literals.
constexpr size_t MinMatch = 4;
/// Offsets are 16-bit, so matches reach at most this far back.
constexpr size_t MaxOffset = 65535;
/// Hash table size (power of two) for the greedy matcher.
constexpr size_t HashBits = 15;

uint32_t hash4(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, 4);
  return (V * 2654435761u) >> (32 - HashBits);
}

/// Writes an LZ4-style extended length: lengths below 15 live in the
/// token nibble; 15 means "continuation bytes follow".
void putLength(std::string &Out, size_t Len) {
  if (Len < 15)
    return;
  Len -= 15;
  while (Len >= 255) {
    Out.push_back(static_cast<char>(0xff));
    Len -= 255;
  }
  Out.push_back(static_cast<char>(Len));
}

bool getLength(std::string_view In, size_t &Pos, size_t Nibble,
               size_t &Len) {
  Len = Nibble;
  if (Nibble != 15)
    return true;
  while (true) {
    if (Pos >= In.size())
      return false;
    uint8_t B = static_cast<uint8_t>(In[Pos++]);
    Len += B;
    if (B != 255)
      return true;
  }
}

void emitSequence(std::string &Out, const uint8_t *Lit, size_t LitLen,
                  size_t MatchLen, size_t Offset) {
  // MatchLen == 0 encodes a trailing literal-only sequence.
  size_t MatchCode = MatchLen == 0 ? 0 : MatchLen - MinMatch + 1;
  uint8_t Token = static_cast<uint8_t>((LitLen < 15 ? LitLen : 15) << 4 |
                                       (MatchCode < 15 ? MatchCode : 15));
  Out.push_back(static_cast<char>(Token));
  putLength(Out, LitLen);
  Out.append(reinterpret_cast<const char *>(Lit), LitLen);
  if (MatchCode == 0)
    return;
  putLength(Out, MatchCode);
  Out.push_back(static_cast<char>(Offset & 0xff));
  Out.push_back(static_cast<char>(Offset >> 8));
}

} // namespace

std::string tpdbt::compressBytes(const std::string &Raw) {
  std::string Out(Magic, 4);
  Out.push_back(static_cast<char>(Version));
  putVarint(Out, Raw.size());
  const uint8_t *Src = reinterpret_cast<const uint8_t *>(Raw.data());
  const size_t N = Raw.size();

  std::vector<uint32_t> Head(size_t(1) << HashBits, UINT32_MAX);
  size_t Pos = 0;
  size_t LitStart = 0;
  while (N >= MinMatch && Pos + MinMatch <= N) {
    uint32_t H = hash4(Src + Pos);
    uint32_t Cand = Head[H];
    Head[H] = static_cast<uint32_t>(Pos);
    if (Cand != UINT32_MAX && Pos - Cand <= MaxOffset &&
        std::memcmp(Src + Cand, Src + Pos, MinMatch) == 0) {
      size_t Len = MinMatch;
      while (Pos + Len < N && Src[Cand + Len] == Src[Pos + Len])
        ++Len;
      emitSequence(Out, Src + LitStart, Pos - LitStart, Len, Pos - Cand);
      // Seed the table sparsely inside the match so long runs stay fast
      // but future matches can still land mid-run.
      size_t End = Pos + Len;
      for (Pos += 1; Pos + MinMatch <= End && Pos + MinMatch <= N; Pos += 13)
        Head[hash4(Src + Pos)] = static_cast<uint32_t>(Pos);
      Pos = End;
      LitStart = Pos;
    } else {
      ++Pos;
    }
  }
  if (LitStart < N || N == 0)
    emitSequence(Out, Src + LitStart, N - LitStart, 0, 0);
  return Out;
}

uint64_t tpdbt::maxDecompressedSize(uint64_t FrameBytes) {
  return (FrameBytes + 1) * 270 + 64;
}

bool tpdbt::decompressBytes(std::string_view Compressed, std::string &Out,
                            std::string *Error) {
  Out.clear();
  auto Fail = [&](const char *Msg) {
    if (Error)
      *Error = Msg;
    Out.clear();
    return false;
  };
  if (Compressed.size() < 5 ||
      Compressed.substr(0, 4) != std::string_view(Magic, 4))
    return Fail("bad compression magic");
  if (static_cast<uint8_t>(Compressed[4]) != Version)
    return Fail("unsupported compression version");
  size_t Pos = 5;
  uint64_t RawSize = 0;
  if (!getVarint(Compressed, Pos, RawSize))
    return Fail("truncated compression header");
  // Guard against absurd declared sizes before reserving memory.
  if (RawSize > maxDecompressedSize(Compressed.size() - Pos))
    return Fail("declared raw size implausibly large");
  // Size the output once and fill it through a cursor; the checks below
  // keep every write inside [0, RawSize).
  Out.resize(RawSize);
  char *Dst = Out.data();
  size_t At = 0;

  while (Pos < Compressed.size()) {
    uint8_t Token = static_cast<uint8_t>(Compressed[Pos++]);
    size_t LitLen = 0, MatchCode = 0;
    if (!getLength(Compressed, Pos, Token >> 4, LitLen))
      return Fail("truncated literal length");
    if (LitLen > Compressed.size() - Pos)
      return Fail("literal run past end of stream");
    if (LitLen > RawSize - At)
      return Fail("output exceeds declared raw size");
    std::memcpy(Dst + At, Compressed.data() + Pos, LitLen);
    At += LitLen;
    Pos += LitLen;
    if (!getLength(Compressed, Pos, Token & 0xf, MatchCode))
      return Fail("truncated match length");
    if (MatchCode == 0)
      continue; // literal-only sequence (stream tail)
    if (Pos + 2 > Compressed.size())
      return Fail("truncated match offset");
    size_t Offset = static_cast<uint8_t>(Compressed[Pos]) |
                    static_cast<size_t>(
                        static_cast<uint8_t>(Compressed[Pos + 1]))
                        << 8;
    Pos += 2;
    size_t MatchLen = MatchCode + MinMatch - 1;
    if (Offset == 0 || Offset > At)
      return Fail("match offset before start of output");
    if (MatchLen > RawSize - At)
      return Fail("output exceeds declared raw size");
    const char *From = Dst + At - Offset;
    if (Offset >= MatchLen) {
      std::memcpy(Dst + At, From, MatchLen);
    } else {
      // Overlapping copies are legal (offset < length replicates runs):
      // copy forward so each byte reads one already written.
      char *To = Dst + At;
      for (size_t I = 0; I < MatchLen; ++I)
        To[I] = From[I];
    }
    At += MatchLen;
  }
  if (At != RawSize)
    return Fail("output shorter than declared raw size");
  return true;
}
