//===- tests/support/CompressionTest.cpp - LZ compression tests -*- C++ -*-===//

#include "support/Compression.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace tpdbt;

namespace {

std::string roundTrip(const std::string &Raw) {
  std::string Packed = compressBytes(Raw);
  std::string Out;
  std::string Error;
  EXPECT_TRUE(decompressBytes(Packed, Out, &Error)) << Error;
  return Out;
}

std::string randomBytes(Rng &R, size_t N) {
  std::string Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(static_cast<char>(R.nextBelow(256)));
  return Out;
}

} // namespace

TEST(CompressionTest, RoundTripsEdgeCases) {
  EXPECT_EQ(roundTrip(""), "");
  EXPECT_EQ(roundTrip("a"), "a");
  EXPECT_EQ(roundTrip("abc"), "abc");
  std::string Zeros(100000, '\0');
  EXPECT_EQ(roundTrip(Zeros), Zeros);
  std::string Binary;
  for (int I = 0; I < 4096; ++I)
    Binary.push_back(static_cast<char>(I * 7));
  EXPECT_EQ(roundTrip(Binary), Binary);
}

TEST(CompressionTest, CompressesRepetitiveTraceLikeData) {
  // Model of a varint trace: a handful of short event encodings repeated
  // in loop patterns.
  std::string Raw;
  const char *Patterns[] = {"\x12\x07", "\x31\x0b", "\x05\x22\x01"};
  Rng R(42);
  for (int I = 0; I < 200000; ++I) {
    const char *P = Patterns[R.nextBelow(3)];
    for (int Rep = 0; Rep < 20; ++Rep)
      Raw += P;
  }
  std::string Packed = compressBytes(Raw);
  EXPECT_LT(Packed.size(), Raw.size() / 8);
  EXPECT_EQ(roundTrip(Raw), Raw);
}

TEST(CompressionTest, RandomDataRoundTrips) {
  Rng R(7);
  std::string Raw;
  for (int I = 0; I < 50000; ++I)
    Raw.push_back(static_cast<char>(R.nextBelow(256)));
  // Random bytes are incompressible; correctness still required, and the
  // overhead must stay small.
  std::string Packed = compressBytes(Raw);
  EXPECT_LT(Packed.size(), Raw.size() + Raw.size() / 100 + 64);
  EXPECT_EQ(roundTrip(Raw), Raw);
}

TEST(CompressionTest, RoundTripsMatchOffsets) {
  Rng R(11);
  // Offset 1: a byte run, every match byte copied from the one before.
  std::string Run = "x" + std::string(1000, 'a') + "y";
  EXPECT_EQ(roundTrip(Run), Run);
  // Offset == length: a block repeated once, then a different byte.
  std::string Block = randomBytes(R, 64);
  std::string Twice = Block + Block + static_cast<char>(Block[0] ^ 1);
  EXPECT_EQ(roundTrip(Twice), Twice);
  // Offset < length: a short period repeated many times (overlapping).
  std::string Period = randomBytes(R, 10), Periodic;
  for (int I = 0; I < 50; ++I)
    Periodic += Period;
  EXPECT_EQ(roundTrip(Periodic), Periodic);
  // Offsets near the 16-bit limit: a block recurring just inside, exactly
  // at, and just past the farthest reachable distance.
  for (size_t Gap : {65534u, 65535u, 65536u}) {
    std::string Far = randomBytes(R, 200);
    std::string Raw = Far + randomBytes(R, Gap - Far.size()) + Far;
    EXPECT_EQ(roundTrip(Raw), Raw) << "gap " << Gap;
  }
}

TEST(CompressionTest, DecodesOverlappingMatchFrames) {
  // Hand-built frames, independent of the encoder's match choices:
  // literals "abc" then one match of 10 bytes at offset 3 (overlapping),
  // and literal "z" then 6 bytes at offset 1.
  auto frame = [](size_t RawSize, const std::string &Seq) {
    std::string F("TPDZ\x01", 5);
    F.push_back(static_cast<char>(RawSize)); // one-byte varint
    return F + Seq;
  };
  // Token: literal length << 4 | (match length - 3).
  std::string Out, Error;
  ASSERT_TRUE(decompressBytes(
      frame(13, std::string("\x37" "abc" "\x03\x00", 6)), Out, &Error))
      << Error;
  EXPECT_EQ(Out, "abcabcabcabca");
  ASSERT_TRUE(decompressBytes(
      frame(7, std::string("\x13" "z" "\x01\x00", 4)), Out, &Error))
      << Error;
  EXPECT_EQ(Out, "zzzzzzz");
  // The same overlap one byte past the declared size is rejected.
  EXPECT_FALSE(decompressBytes(
      frame(6, std::string("\x13" "z" "\x01\x00", 4)), Out, &Error));
  EXPECT_EQ(Error, "output exceeds declared raw size");
  EXPECT_TRUE(Out.empty());
}

TEST(CompressionTest, RejectsCorruption) {
  std::string Raw = "the quick brown fox jumps over the lazy dog ";
  for (int I = 0; I < 8; ++I)
    Raw += Raw;
  std::string Packed = compressBytes(Raw);
  std::string Out;

  EXPECT_FALSE(decompressBytes("", Out, nullptr));
  EXPECT_FALSE(decompressBytes("garbage", Out, nullptr));

  std::string BadMagic = Packed;
  BadMagic[0] = 'X';
  EXPECT_FALSE(decompressBytes(BadMagic, Out, nullptr));

  std::string BadVersion = Packed;
  BadVersion[4] = 9;
  EXPECT_FALSE(decompressBytes(BadVersion, Out, nullptr));

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t Len = 5; Len < Packed.size(); Len += 7) {
    std::string Err;
    EXPECT_FALSE(decompressBytes(Packed.substr(0, Len), Out, &Err))
        << "prefix " << Len << " unexpectedly parsed";
  }

  // Flipping bytes may still decode by luck, but must never produce a
  // buffer overrun or a wrong-size result reported as success.
  for (size_t I = 5; I < Packed.size(); I += 11) {
    std::string Mangled = Packed;
    Mangled[I] = static_cast<char>(Mangled[I] ^ 0x5a);
    std::string Decoded;
    if (decompressBytes(Mangled, Decoded, nullptr)) {
      EXPECT_EQ(Decoded.size(), Raw.size());
    }
  }
}
