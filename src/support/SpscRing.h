//===- support/SpscRing.h - Lock-free single-producer ring ------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded lock-free single-producer / single-consumer ring buffer, the
/// coupling between the trace recorder and the segment compressor
/// (core/TracePipeline.h). Modeled on the QEMU-to-simulator stream rings
/// in qemu-vpmu's stream_impl/: one thread owns the tail (push side), one
/// owns the head (pop side), and the only shared state is two atomic
/// counters — no mutex on the hot path, so the recorder never takes a
/// lock to hand off a finished segment.
///
/// Monotonic head/tail counters (masked on access) distinguish full from
/// empty without wasting a slot. Capacity is rounded up to a power of
/// two. The bounded capacity doubles as backpressure: a recorder that
/// outruns the compressor blocks in push() with at most `capacity`
/// segments in flight, keeping pipeline memory O(capacity * segment)
/// instead of O(trace).
///
/// close() is the producer's end-of-stream signal: pop() drains whatever
/// remains and then returns false forever. Blocking calls spin briefly,
/// then yield, then sleep — the expected wait here is milliseconds of
/// compression work, not nanoseconds, so burning a core would only steal
/// cycles from the stage being waited on.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SUPPORT_SPSCRING_H
#define TPDBT_SUPPORT_SPSCRING_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace tpdbt {

template <typename T> class SpscRing {
public:
  /// Creates a ring holding up to \p Capacity items (rounded up to a
  /// power of two, minimum 2).
  explicit SpscRing(size_t Capacity) {
    size_t Cap = 2;
    while (Cap < Capacity)
      Cap *= 2;
    Buf.resize(Cap);
    Mask = Cap - 1;
  }

  size_t capacity() const { return Buf.size(); }

  /// Producer side. Returns false when the ring is full; \p V is left
  /// untouched in that case.
  bool tryPush(T &V) {
    const size_t T0 = Tail.load(std::memory_order_relaxed);
    if (T0 - Head.load(std::memory_order_acquire) == Buf.size())
      return false;
    Buf[T0 & Mask] = std::move(V);
    Tail.store(T0 + 1, std::memory_order_release);
    return true;
  }

  /// Producer side. Blocks (backpressure) until a slot frees up.
  void push(T V) {
    for (Backoff B; !tryPush(V);)
      B.pause();
  }

  /// Consumer side. Returns false when the ring is empty.
  bool tryPop(T &Out) {
    const size_t H = Head.load(std::memory_order_relaxed);
    if (H == Tail.load(std::memory_order_acquire))
      return false;
    Out = std::move(Buf[H & Mask]);
    Head.store(H + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Blocks until an item arrives or the producer has
  /// closed the ring and it is drained; false means end of stream.
  bool pop(T &Out) {
    for (Backoff B;;) {
      if (tryPop(Out))
        return true;
      if (Closed.load(std::memory_order_acquire))
        // Re-check after observing the close: items pushed before close()
        // must still drain.
        return tryPop(Out);
      B.pause();
    }
  }

  /// Producer side: no more pushes will follow. Idempotent.
  void close() { Closed.store(true, std::memory_order_release); }

  bool closed() const { return Closed.load(std::memory_order_acquire); }

  /// Items currently queued (racy snapshot; exact only from a quiescent
  /// side).
  size_t size() const {
    return Tail.load(std::memory_order_acquire) -
           Head.load(std::memory_order_acquire);
  }

private:
  /// Spin briefly, then yield, then sleep: waits here last as long as a
  /// segment compression, so sleeping frees the core for the other stage
  /// (essential on small machines where both stages share one core).
  struct Backoff {
    unsigned Spins = 0;
    void pause() {
      if (Spins < 64) {
        ++Spins;
      } else if (Spins < 96) {
        ++Spins;
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  };

  std::vector<T> Buf;
  size_t Mask = 0;
  /// Consumer-owned and producer-owned counters on separate cache lines
  /// so the two sides never false-share.
  alignas(64) std::atomic<size_t> Head{0};
  alignas(64) std::atomic<size_t> Tail{0};
  alignas(64) std::atomic<bool> Closed{false};
};

} // namespace tpdbt

#endif // TPDBT_SUPPORT_SPSCRING_H
