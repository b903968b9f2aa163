//===- support/Compression.h - Byte-oriented LZ compression -----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free LZ compressor for the on-disk trace cache.
///
/// Block-event traces are highly repetitive (loops replay the same few
/// varint-encoded event pairs millions of times), so even a greedy
/// byte-oriented LZ with a hash-table matcher shrinks them several-fold
/// on top of the varint encoding. The format is LZ4-flavoured: a token
/// byte holding a literal-run length and a match length (each extended by
/// 255-continuation bytes), the literal bytes, then a 16-bit
/// little-endian back-reference offset. A short header carries a magic,
/// a version, and the raw size, so decompression can pre-size its output
/// and reject foreign files early.
///
/// Decompression validates every length and offset against the declared
/// raw size; truncated or mangled input fails cleanly instead of reading
/// or writing out of bounds — the trace cache treats any failure as a
/// cache miss.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SUPPORT_COMPRESSION_H
#define TPDBT_SUPPORT_COMPRESSION_H

#include <cstdint>
#include <string>
#include <string_view>

namespace tpdbt {

/// Compresses \p Raw into the tpdbt LZ frame format. Never fails; the
/// output of incompressible input is slightly larger than the input
/// (header plus one literal-run token per 15+ literals).
std::string compressBytes(const std::string &Raw);

/// Inflates a frame produced by compressBytes. Returns false (and fills
/// \p Error if non-null) on any malformed input: bad magic or version,
/// truncated stream, offsets or lengths escaping the declared raw size,
/// or trailing bytes. On failure \p Out is left empty. \p Out's capacity
/// is kept, so a caller inflating many frames through one string
/// allocates once.
bool decompressBytes(std::string_view Compressed, std::string &Out,
                     std::string *Error);

/// The most raw bytes a frame of \p FrameBytes compressed bytes can
/// legally inflate to (the stream cannot expand by more than ~256x per
/// byte). decompressBytes() rejects any declared raw size above it for the
/// bytes after the frame header; a reader holding only a frame's total
/// size gets a valid, slightly looser bound from the same call.
uint64_t maxDecompressedSize(uint64_t FrameBytes);

} // namespace tpdbt

#endif // TPDBT_SUPPORT_COMPRESSION_H
