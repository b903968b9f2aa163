//===- jit/CodeBuffer.h - W^X executable code cache -------------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, page-aligned executable code cache with a strict W^X
/// lifecycle.
///
/// The mapping is created lazily on the first install() as PROT_NONE and
/// is only ever in one of two states afterwards: read+write while code is
/// being copied in, read+execute the rest of the time. The flip covers
/// the whole mapping — installs happen on the single dispatch thread and
/// never while jitted code is on the stack, so there is no window where
/// translated code must stay executable during a write, and memory is
/// never writable and executable at once.
///
/// Capacity is fixed at construction (TPDBT_JIT_CACHE_BYTES, resolved by
/// the host tier). install() returns nullptr when the remaining space is
/// too small; the owner then flushes the *whole* cache — dropping every
/// translation and re-deriving them from heat, the classic DBT
/// flush-on-full policy — and retries once.
///
/// On hosts without the x86-64 + mmap combination the buffer reports
/// supported() == false and every install() fails; HostTier::enabled()
/// is then false and the plain interpreter covers the run.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_JIT_CODEBUFFER_H
#define TPDBT_JIT_CODEBUFFER_H

#include <cstddef>
#include <cstdint>

namespace tpdbt {
namespace jit {

class CodeBuffer {
public:
  /// \p MaxBytes bounds the cache; it is rounded up to whole pages at
  /// mapping time. No memory is reserved until the first install().
  explicit CodeBuffer(size_t MaxBytes);
  ~CodeBuffer();

  CodeBuffer(const CodeBuffer &) = delete;
  CodeBuffer &operator=(const CodeBuffer &) = delete;

  /// True when this build can execute emitted code at all (x86-64 host
  /// with working executable mappings).
  static bool supported();

  /// Copies \p Size bytes of finished machine code into the cache and
  /// returns the executable entry point, or nullptr when the cache is
  /// full (or unsupported). Entry points are 16-byte aligned and stay
  /// valid until flush().
  const void *install(const uint8_t *Code, size_t Size);

  /// Invalidates every installed translation and resets the cursor. All
  /// previously returned entry points become dangling; the owner must
  /// drop its pointers before the next install().
  void flush() { Cursor = 0; }

  size_t capacity() const { return Cap; }
  size_t used() const { return Cursor; }

private:
  bool ensureMapped();

  uint8_t *Base = nullptr;
  size_t Cap = 0;
  size_t Cursor = 0;
  bool MapFailed = false;
};

} // namespace jit
} // namespace tpdbt

#endif // TPDBT_JIT_CODEBUFFER_H
