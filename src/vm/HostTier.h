//===- vm/HostTier.h - Host-side superblock translation tier ----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-phase execution tier for the *host* harness itself, mirroring the
/// IA32EL structure the repo studies: interpretation profiles block
/// successors, hot code is compiled to real x86-64 machine code (src/jit),
/// and a compiled unit whose guard fails falls back to interpretation.
///
/// Dispatch per arrival at a block:
///
///  1. Compiled self-loop — a block that branches back to itself (half to
///     ninety-five percent of all events in the synthetic suite) runs its
///     consecutive iterations natively and delivers them as one
///     Sink::onRun batch, then the exit execution as one event.
///  2. Compiled chain — a head promoted by the successor profile runs its
///     whole superblock as one native call and delivers the matched
///     prefix with one Sink::onChain call. Each segment's terminator is a
///     guard: a deviation (MemFault, or a branch leaving the chain) exits
///     through a deopt stub, is delivered as a plain block event, and
///     resumes dispatch — so the event stream is byte-identical to the
///     plain interpreter's by construction.
///  3. Cold — one Interpreter::executeBlock event. A self-loop execution
///     bumps the loop's heat; any other execution feeds the successor
///     profile. A block that reaches PromoteHeat executions (conditional
///     members also need StableMin consecutive identical outcomes)
///     becomes a chain head; chains whose guards keep failing (a phase
///     change) are demoted back to cold, and deviating executions feed
///     the successor profile so re-promotion learns the new direction.
///
/// A promoted chain compiles when its head has been reached
/// TPDBT_JIT_HEAT times, a self-loop when it has executed that many
/// iterations; until then both run cold, event by event, so a loop that
/// spins through a long first arrival switches to native code in its
/// middle. Units run from an mmap'd W^X code cache (TPDBT_JIT_CACHE_BYTES,
/// whole-cache flush on overflow). A deopt exit materializes interpreter
/// state (host-allocated guest registers are flushed back to the register
/// array) and returns a packed exit record from which the dispatch loop
/// rebuilds the exact deviating BlockResult.
///
/// The tier holds mutable per-run state (heat, successor history,
/// superblocks, the code cache), so unlike Interpreter one HostTier
/// serves one run. The knobs are re-read per construction (TPDBT_TIER per
/// enabled() call), so tests and benches can flip them without a process
/// restart. When the jit is unavailable — TPDBT_TIER=plain, or a host
/// without x86-64 executable mappings — enabled() is false and every pump
/// site (BlockTrace::record, DbtEngine) uses plain Interpreter::run.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_VM_HOSTTIER_H
#define TPDBT_VM_HOSTTIER_H

#include "jit/ChainCompiler.h"
#include "jit/CodeBuffer.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tpdbt {
namespace vm {

/// Coverage counters of one tiered run (aggregated into TraceCache stats
/// and the experiment banner).
struct HostTierStats {
  uint64_t Superblocks = 0;      ///< chains promoted
  uint64_t JitUnits = 0;         ///< chains + self-loops compiled
  uint64_t JitBlocks = 0;        ///< chain block events executed natively
  uint64_t JitLoopIters = 0;     ///< self-loop iterations executed natively
  uint64_t JitDeopts = 0;        ///< guard/fault exits from compiled code
  uint64_t JitFlushes = 0;       ///< whole-code-cache flushes (cache full)
  uint64_t JitCompileMicros = 0; ///< wall time spent compiling + installing

  HostTierStats &operator+=(const HostTierStats &O) {
    Superblocks += O.Superblocks;
    JitUnits += O.JitUnits;
    JitBlocks += O.JitBlocks;
    JitLoopIters += O.JitLoopIters;
    JitDeopts += O.JitDeopts;
    JitFlushes += O.JitFlushes;
    JitCompileMicros += O.JitCompileMicros;
    return *this;
  }
};

/// One pre-computed block event of a superblock chain (same meaning as a
/// trace event: Branch is 0 = no cond branch, 1 = not taken, 2 = taken).
struct SbEvent {
  guest::BlockId Block = 0;
  uint8_t Branch = 0;
  uint32_t Insts = 0;
};

/// The tiered dispatch loop. A Sink receives the event stream in batched
/// form; expanding every batch in order reproduces exactly the sequence
/// plain Interpreter::run would deliver:
///
///   void onEvent(guest::BlockId B, const BlockResult &R);
///   void onRun(guest::BlockId B, const BlockResult &R, uint64_t Count);
///   void onChain(const SbEvent *Events, size_t Count);
class HostTier {
public:
  explicit HostTier(const Interpreter &I);

  /// True unless TPDBT_TIER=plain or the host cannot execute emitted code
  /// (jit::CodeBuffer::supported()): the pump sites use the tier at all.
  /// TPDBT_TIER is parsed on every call, so tests and benches can flip it
  /// in-process; unset or any value but "plain" leaves the tier on.
  static bool enabled();

  /// TPDBT_JIT_HEAT: arrivals at a promoted chain head (or iterations of a
  /// self-loop) before it is compiled. Defaults to DefaultJitHeat, which
  /// sits above PromoteHeat so only chains that survive promotion pay
  /// compile cost. Clamped to >= 1.
  static uint32_t jitHeat();

  /// TPDBT_JIT_CACHE_BYTES: code cache capacity (default 1 MiB, rounded
  /// up to whole pages, clamped to >= 4096).
  static size_t jitCacheBytes();

  const HostTierStats &stats() const { return St; }

  /// Tiered twin of Interpreter::run: same RunOutcome, same event stream
  /// (modulo batching), same final machine state.
  template <typename SinkT>
  RunOutcome run(Machine &M, uint64_t MaxBlocks, SinkT &&Sink) {
    RunOutcome Out;
    guest::BlockId Cur = I.program().Entry;
    while (Out.BlocksExecuted < MaxBlocks) {
      if (LoopFn[Cur]) {
        if (!runLoop(Cur, M, MaxBlocks, Out, Sink))
          return Out;
        continue;
      }
      const int32_t Sb = SbOf[Cur];
      if (Sb >= 0 && jitChainReady(Sbs[Sb])) {
        if (!runChain(Sb, Cur, M, MaxBlocks, Out, Sink))
          return Out;
        continue;
      }
      // Cold: one interpreted block event plus profiling.
      BlockResult R = I.executeBlock(Cur, M);
      ++Out.BlocksExecuted;
      Out.InstsExecuted += R.InstsExecuted;
      Out.LastBlock = Cur;
      Sink.onEvent(Cur, R);
      if (R.Reason != StopReason::Running) {
        Out.Reason = R.Reason;
        return Out;
      }
      if (I.selfLoop(Cur).IsLoop)
        heatLoop(Cur);
      else
        observe(Cur, R);
      Cur = R.Next;
    }
    Out.Reason = StopReason::BlockLimit;
    return Out;
  }

  /// Adapts a per-event callback (the plain Interpreter::run contract) to
  /// the Sink interface by expanding every batch. Chain events carry no
  /// successor (policies never read BlockResult::Next; replay events do
  /// not either).
  template <typename CallbackT> struct ExpandingSink {
    CallbackT &Cb;
    void onEvent(guest::BlockId B, const BlockResult &R) { Cb(B, R); }
    void onRun(guest::BlockId B, const BlockResult &R, uint64_t Count) {
      for (uint64_t It = 0; It < Count; ++It)
        Cb(B, R);
    }
    void onChain(const SbEvent *Events, size_t Count) {
      for (size_t It = 0; It < Count; ++It) {
        BlockResult R;
        R.IsCondBranch = Events[It].Branch != 0;
        R.Taken = Events[It].Branch == 2;
        R.InstsExecuted = Events[It].Insts;
        Cb(Events[It].Block, R);
      }
    }
  };

  template <typename CallbackT>
  static ExpandingSink<CallbackT> expanding(CallbackT &Cb) {
    return ExpandingSink<CallbackT>{Cb};
  }

  /// Promotion/demotion thresholds (exposed for tests and docs).
  static constexpr uint16_t PromoteHeat = 8;  ///< executions to promote
  static constexpr uint16_t StableMin = 4;    ///< same-successor streak
  static constexpr size_t MaxChainLen = 16;    ///< segments per superblock
  static constexpr uint32_t DemoteStreak = 32; ///< chain misses to demote
  static constexpr size_t MaxSuperblocks = 4096;
  static constexpr uint32_t DefaultJitHeat = 16; ///< above PromoteHeat
  static constexpr size_t DefaultJitCacheBytes = 1u << 20;

private:
  /// A promoted chain: its blocks' events in order (each block's ops and
  /// terminator stay in the interpreter's decoded stream) and the
  /// successor the chain expects after its last block.
  struct Superblock {
    std::vector<SbEvent> Events;
    guest::BlockId Next = guest::InvalidBlock;
    uint32_t MissStreak = 0; ///< consecutive deviating executions
    jit::JitFn Fn = nullptr; ///< compiled entry, or null
    /// Arrivals at the head while not compiled; stops at JitHeatVal, so a
    /// chain that failed to compile (Fn still null) is never retried.
    uint32_t Uses = 0;
  };

  /// Runs the compiled self-loop at \p Cur: its staying iterations as one
  /// onRun batch, then the exit execution (if the budget allowed one) as
  /// one event. Returns false when the run is over (Out.Reason set).
  template <typename SinkT>
  bool runLoop(guest::BlockId &Cur, Machine &M, uint64_t MaxBlocks,
               RunOutcome &Out, SinkT &Sink) {
    const Interpreter::SelfLoop &SL = I.selfLoop(Cur);
    const jit::JitExit R = LoopFn[Cur](M.Regs.data(), M.Mem.data(),
                                       M.Mem.size(),
                                       MaxBlocks - Out.BlocksExecuted);
    const uint64_t Stays = R.Done;
    if (Stays) {
      BlockResult Stay;
      Stay.Next = Cur;
      Stay.Reason = StopReason::Running;
      Stay.IsCondBranch = SL.StayBranch != 0;
      Stay.Taken = SL.StayBranch == 2;
      Stay.InstsExecuted = SL.FullInsts;
      Sink.onRun(Cur, Stay, Stays);
      Out.BlocksExecuted += Stays;
      Out.InstsExecuted += Stays * static_cast<uint64_t>(SL.FullInsts);
      Out.LastBlock = Cur;
      St.JitLoopIters += Stays;
    }
    const jit::ExitKind Kind = jit::exitKind(R.Info);
    if (Kind == jit::ExitKind::Ok) {
      // The iteration budget ran out with the loop still spinning; there
      // is no exit execution.
      Out.Reason = StopReason::BlockLimit;
      return false;
    }
    BlockResult Exit;
    if (Kind == jit::ExitKind::OffChain) {
      // The latch finally left the loop: a normal exit execution, not a
      // deopt.
      const Interpreter::DecodedTerm &T = I.Terms[Cur];
      Exit.IsCondBranch = true;
      Exit.Taken = jit::exitTaken(R.Info);
      Exit.Next = Exit.Taken ? T.Taken : T.Fall;
      Exit.InstsExecuted = SL.FullInsts;
    } else {
      Exit.Reason = StopReason::MemFault;
      Exit.InstsExecuted = jit::exitFaultOp(R.Info) + 1;
      ++St.JitDeopts;
    }
    ++Out.BlocksExecuted;
    Out.InstsExecuted += Exit.InstsExecuted;
    Out.LastBlock = Cur;
    Sink.onEvent(Cur, Exit);
    if (Exit.Reason != StopReason::Running) {
      Out.Reason = Exit.Reason;
      return false;
    }
    Cur = Exit.Next;
    return true;
  }

  /// Runs compiled superblock \p Sb as one native call. The matched
  /// prefix is delivered as one onChain batch; a deviating execution
  /// (fault or off-chain branch), rebuilt from the packed exit record and
  /// the chain's static events, is a legitimate plain block event and is
  /// delivered through onEvent. Returns false when the run is over.
  template <typename SinkT>
  bool runChain(int32_t Sb, guest::BlockId &Cur, Machine &M,
                uint64_t MaxBlocks, RunOutcome &Out, SinkT &Sink) {
    Superblock &S = Sbs[Sb];
    const size_t NSegs = S.Events.size();
    const jit::JitExit R =
        S.Fn(M.Regs.data(), M.Mem.data(), M.Mem.size(),
             std::min<uint64_t>(NSegs, MaxBlocks - Out.BlocksExecuted));
    const size_t Done = static_cast<size_t>(R.Done);
    if (Done) {
      uint64_t Insts = 0;
      for (size_t K = 0; K < Done; ++K)
        Insts += S.Events[K].Insts;
      Sink.onChain(S.Events.data(), Done);
      Out.BlocksExecuted += Done;
      Out.InstsExecuted += Insts;
      Out.LastBlock = S.Events[Done - 1].Block;
      St.JitBlocks += Done;
    }
    const jit::ExitKind Kind = jit::exitKind(R.Info);
    if (Kind == jit::ExitKind::Ok) {
      S.MissStreak = 0;
      // Full match, or the block budget ran out mid-chain (the caller's
      // loop condition then stops with BlockLimit, as the plain pump
      // would after the same number of events).
      Cur = Done == NSegs ? S.Next : S.Events[Done].Block;
      return true;
    }
    const guest::BlockId DevBlock = S.Events[Done].Block;
    BlockResult Dev;
    if (Kind == jit::ExitKind::OffChain) {
      const Interpreter::DecodedTerm &T = I.Terms[DevBlock];
      Dev.IsCondBranch = true;
      Dev.Taken = jit::exitTaken(R.Info);
      Dev.Next = Dev.Taken ? T.Taken : T.Fall;
      Dev.InstsExecuted = S.Events[Done].Insts;
    } else {
      Dev.Reason = StopReason::MemFault;
      Dev.InstsExecuted = jit::exitFaultOp(R.Info) + 1;
    }
    ++St.JitDeopts;
    // Any deviating execution counts toward demotion (a full match resets
    // the streak): a chain that keeps missing — at the head or mid-chain
    // against a stale successor profile — goes back to cold so fresh
    // profiling can build the right chain.
    if (++S.MissStreak >= DemoteStreak)
      demote(Sb);
    ++Out.BlocksExecuted;
    Out.InstsExecuted += Dev.InstsExecuted;
    Out.LastBlock = DevBlock;
    Sink.onEvent(DevBlock, Dev);
    if (Dev.Reason != StopReason::Running) {
      Out.Reason = Dev.Reason;
      return false;
    }
    // The deviation is a real execution the cold tier never saw: feed it
    // to the successor profile so a phase change re-learns the new
    // direction instead of replaying the stale one forever.
    observe(DevBlock, Dev);
    Cur = Dev.Next;
    return true;
  }

  void observe(guest::BlockId B, const BlockResult &R);
  void tryPromote(guest::BlockId Head);
  void demote(int32_t Sb);

  /// True when chain \p S should run compiled this arrival. Counts a use,
  /// and compiles (once) when the chain reaches JitHeatVal uses.
  bool jitChainReady(Superblock &S);
  /// Counts one cold iteration of the self-loop at \p B, and compiles it
  /// (once) when it reaches JitHeatVal iterations.
  void heatLoop(guest::BlockId B);
  /// Block \p B's decoded body and terminator, straight from the
  /// interpreter's stream.
  jit::JitSegment segment(guest::BlockId B) const;
  jit::JitFn compileChainFn(Superblock &S);
  jit::JitFn compileLoopFn(guest::BlockId B);
  /// Installs \p Code into the cache; on overflow flushes everything once
  /// and retries. Null means the unit is bigger than the whole cache.
  const void *installCode(const std::vector<uint8_t> &Code);
  void flushJit();

  const Interpreter &I;
  std::vector<Superblock> Sbs;
  std::vector<int32_t> SbOf;          ///< head block -> superblock, or -1
  std::vector<uint16_t> Heat;         ///< cold executions per block
  std::vector<guest::BlockId> LastNext; ///< last successor (cond blocks)
  std::vector<uint16_t> SameCount;    ///< consecutive identical successors
  HostTierStats St;

  // Code cache state. LoopFn/LoopHeat are per guest block (only self-loop
  // blocks ever use their slots); chain state lives on the Superblock.
  jit::CodeBuffer Cache;
  uint32_t JitHeatVal = DefaultJitHeat;
  std::vector<jit::JitFn> LoopFn; ///< compiled self-loop entry, or null
  /// Cold iterations; stops at JitHeatVal, so a loop that failed to
  /// compile (LoopFn still null) is never retried.
  std::vector<uint32_t> LoopHeat;
};

} // namespace vm
} // namespace tpdbt

#endif // TPDBT_VM_HOSTTIER_H
