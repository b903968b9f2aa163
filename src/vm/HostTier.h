//===- vm/HostTier.h - Host-side superblock translation tier ----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A two-phase execution tier for the *host* harness itself, mirroring the
/// IA32EL structure the repo studies: interpretation profiles block
/// successors, hot heads are promoted to host superblocks (pre-decoded
/// multi-block chains executed with a single dispatch), and self-loops
/// run back to back, emitting their iterations as run-length deliveries
/// instead of per-event callbacks.
///
/// Dispatch is tiered per arrival at a block:
///
///  1. Self-loop tier — blocks that branch back to themselves (half to
///     ninety-five percent of all events in the synthetic suite) batch all
///     consecutive iterations into one Interpreter::runSelfLoop call and
///     one Sink::onRun delivery.
///  2. Superblock tier — a head promoted by the successor profile executes
///     its whole chain from one concatenated op stream, delivering the
///     matched prefix with one Sink::onChain call. Each segment's
///     terminator is a guard: any deviation (MemFault, budget, or a branch
///     leaving the chain) delivers the prefix, falls back to a plain block
///     event for the deviating execution, and resumes cold dispatch — so
///     the produced event stream is byte-identical to the plain
///     interpreter's by construction.
///  3. Cold tier — plain executeBlock with successor profiling. A block
///     that reaches PromoteHeat executions (conditional members also need
///     StableMin consecutive identical outcomes) becomes a chain head;
///     chains whose guards keep failing (a phase change) are demoted
///     back to cold, and deviating executions feed the successor profile
///     so re-promotion learns the new direction.
///
/// On top of the ladder sits the *jit tier* (src/jit): superblock chains
/// and self-loops that stay hot past TPDBT_JIT_HEAT uses are compiled to
/// real x86-64 machine code and executed from an mmap'd W^X code cache
/// (TPDBT_JIT_CACHE_BYTES, whole-cache flush on overflow). Compiled units
/// carry the same per-terminator guards as deopt exits: a branch leaving
/// the chain or a memory fault materializes interpreter state
/// (host-allocated guest registers are flushed back to the register
/// array) and returns a packed exit record from which the dispatch loop
/// rebuilds the exact deviating BlockResult — the event stream stays
/// byte-identical to plain interpretation, jit or not.
/// TPDBT_TIER=predecoded disables only the jit tier (pre-decoded
/// dispatch remains); non-x86-64 builds degrade the same way
/// automatically. The tier knobs are re-read per HostTier construction,
/// so tests and benches can flip them without a process restart.
///
/// Fallback accounting: a deviating chain execution bumps exactly one
/// counter — Fallbacks when the guard fired in the pre-decoded tier,
/// JitDeopts when it fired in compiled code — so a head that is demoted
/// and later re-promoted never double-counts its guard mismatches across
/// promotions or across tiers.
///
/// The tier holds mutable per-run state (heat, successor history,
/// superblocks, the code cache), so unlike Interpreter one HostTier
/// serves one run. TPDBT_TIER=plain disables the whole tier; every pump
/// site (BlockTrace::record, DbtEngine) then uses plain
/// Interpreter::run — the A/B switch for debugging and benchmarking.
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
  uint64_t Superblocks = 0;     ///< chains promoted
  uint64_t ChainedBlocks = 0;   ///< block events delivered via onChain
  uint64_t RunFoldedIters = 0;  ///< self-loop iterations delivered via onRun
  uint64_t Fallbacks = 0;       ///< guard mismatches in the pre-decoded tier
  // Jit tier coverage. A deviating execution increments either Fallbacks
  // or JitDeopts, never both — the tiers are disjoint counter families.
  uint64_t JitUnits = 0;         ///< chains + self-loops compiled
  uint64_t JitBlocks = 0;        ///< chain block events executed natively
  uint64_t JitLoopIters = 0;     ///< self-loop iterations executed natively
  uint64_t JitDeopts = 0;        ///< guard/fault exits from compiled code
  uint64_t JitFlushes = 0;       ///< whole-code-cache flushes (cache full)
  uint64_t JitCompileMicros = 0; ///< wall time spent compiling + installing

  HostTierStats &operator+=(const HostTierStats &O) {
    Superblocks += O.Superblocks;
    ChainedBlocks += O.ChainedBlocks;
    RunFoldedIters += O.RunFoldedIters;
    Fallbacks += O.Fallbacks;
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

  /// The highest tier a run may use (the TPDBT_TIER ceiling).
  enum class Tier : uint8_t {
    Plain,      ///< plain Interpreter::run, no HostTier at all
    Predecoded, ///< the ladder above without the jit tier
    Jit,        ///< the full ladder plus compiled units
  };

  /// Parses TPDBT_TIER=plain|predecoded|jit on every call, so tests and
  /// benches can flip it in-process. Unset or any other value gives Jit.
  static Tier tier();

  /// True unless TPDBT_TIER=plain: the pump sites use the tier at all.
  static bool enabled();

  /// True when TPDBT_TIER allows the jit and CodeBuffer::supported().
  static bool jitEnabled();

  /// TPDBT_JIT_HEAT: executions of a promoted chain (or iterations of a
  /// self-loop) before it is compiled. Defaults to DefaultJitHeat, which
  /// sits above PromoteHeat so only chains that survive promotion pay
  /// compile cost. Clamped to >= 1.
  static uint32_t jitHeat();

  /// TPDBT_JIT_CACHE_BYTES: code cache capacity (default 1 MiB, rounded
  /// up to whole pages, clamped to >= 4096).
  static size_t jitCacheBytes();

  /// True when this run's jit tier is active (knob + host support).
  bool jitActive() const { return JitOn; }

  const HostTierStats &stats() const { return St; }

  /// Tiered twin of Interpreter::run: same RunOutcome, same event stream
  /// (modulo batching), same final machine state.
  template <typename SinkT>
  RunOutcome run(Machine &M, uint64_t MaxBlocks, SinkT &&Sink) {
    RunOutcome Out;
    guest::BlockId Cur = I.program().Entry;
    while (Out.BlocksExecuted < MaxBlocks) {
      if (I.selfLoop(Cur).IsLoop) {
        if (!runSelfLoopTier(Cur, M, MaxBlocks, Out, Sink))
          return Out;
        continue;
      }
      const int32_t Sb = SbOf[Cur];
      if (Sb >= 0) {
        if (!runSuperblockTier(Sb, Cur, M, MaxBlocks, Out, Sink))
          return Out;
        continue;
      }
      // Cold tier: plain execution plus successor profiling.
      BlockResult R = I.executeBlock(Cur, M);
      ++Out.BlocksExecuted;
      Out.InstsExecuted += R.InstsExecuted;
      Out.LastBlock = Cur;
      Sink.onEvent(Cur, R);
      if (R.Reason != StopReason::Running) {
        Out.Reason = R.Reason;
        return Out;
      }
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
  /// One chained block: its op range in the concatenated stream, its
  /// decoded terminator (the guard), and the successor the chain expects.
  struct Seg {
    uint32_t OpBegin = 0;
    uint32_t OpEnd = 0;
    Interpreter::DecodedTerm Term{};
    guest::BlockId Next = guest::InvalidBlock;
  };

  struct Superblock {
    std::vector<Seg> Segs;
    std::vector<SbEvent> Events; ///< parallel to Segs
    uint32_t MissStreak = 0;     ///< consecutive first-segment deviations
    jit::JitFn Fn = nullptr;     ///< compiled entry, or null
    uint32_t Uses = 0;           ///< executions while not yet compiled
    bool NoJit = false;          ///< compilation failed; do not retry
  };

  /// Batches all consecutive iterations of the self-loop at \p Cur.
  /// Returns false when the run is over (Out.Reason set).
  template <typename SinkT>
  bool runSelfLoopTier(guest::BlockId &Cur, Machine &M, uint64_t MaxBlocks,
                       RunOutcome &Out, SinkT &Sink) {
    const Interpreter::SelfLoop &SL = I.selfLoop(Cur);
    BlockResult Exit;
    bool ExitValid = false;
    uint64_t Stays;
    if (JitOn && jitLoopReady(Cur)) {
      Stays = runJitSelfLoop(Cur, M, MaxBlocks - Out.BlocksExecuted, Exit,
                             ExitValid);
    } else {
      Stays = I.runSelfLoop(Cur, M, MaxBlocks - Out.BlocksExecuted, Exit,
                            ExitValid);
      if (JitOn) {
        // Heat is iterations, not entries: a loop that spins a thousand
        // times on its first arrival is hot immediately.
        const uint64_t H = LoopHeat[Cur] + Stays + 1;
        LoopHeat[Cur] = H > UINT32_MAX ? UINT32_MAX
                                       : static_cast<uint32_t>(H);
      }
    }
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
      St.RunFoldedIters += Stays;
    }
    if (!ExitValid) { // iteration budget exhausted inside the loop
      Out.Reason = StopReason::BlockLimit;
      return false;
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

  /// Executes superblock \p Sb with per-segment guards. The matched
  /// prefix is delivered as one onChain batch; a deviating execution
  /// (fault or off-chain branch) is a legitimate plain block event and is
  /// delivered through onEvent. Returns false when the run is over.
  template <typename SinkT>
  bool runSuperblockTier(int32_t Sb, guest::BlockId &Cur, Machine &M,
                         uint64_t MaxBlocks, RunOutcome &Out, SinkT &Sink) {
    Superblock &S = Sbs[Sb];
    int64_t *Regs = M.Regs.data();
    int64_t *Mem = M.Mem.data();
    const uint64_t MemSize = M.Mem.size();
    const size_t NSegs = S.Segs.size();

    size_t Done = 0;
    uint64_t InstsDone = 0;
    BlockResult Dev;
    bool HasDev = false;
    if (JitOn && jitChainReady(S)) {
      // Jit tier: the whole chain runs as one native call; the packed
      // exit record plus the static chain metadata reconstruct exactly
      // the deviating BlockResult the interpreter would have produced.
      const uint64_t MaxSegs =
          std::min<uint64_t>(NSegs, MaxBlocks - Out.BlocksExecuted);
      const jit::JitExit R = S.Fn(Regs, Mem, MemSize, MaxSegs);
      Done = static_cast<size_t>(R.Done);
      for (size_t K = 0; K < Done; ++K)
        InstsDone += S.Events[K].Insts;
      switch (jit::exitKind(R.Info)) {
      case jit::ExitKind::Ok:
        break;
      case jit::ExitKind::OffChain: {
        const Seg &G = S.Segs[Done];
        Dev.IsCondBranch = true;
        Dev.Taken = jit::exitTaken(R.Info);
        Dev.Next = Dev.Taken ? G.Term.Taken : G.Term.Fall;
        Dev.InstsExecuted = (G.OpEnd - G.OpBegin) + 1;
        HasDev = true;
        break;
      }
      case jit::ExitKind::Fault:
        Dev.Reason = StopReason::MemFault;
        Dev.InstsExecuted = jit::exitFaultOp(R.Info) + 1;
        HasDev = true;
        break;
      }
      St.JitBlocks += Done;
      if (HasDev)
        ++St.JitDeopts;
      return finishChain(S, Sb, Cur, Done, InstsDone, Dev, HasDev, Out,
                         Sink);
    }
    while (Done < NSegs && Out.BlocksExecuted + Done < MaxBlocks) {
      const Seg &G = S.Segs[Done];
      const intptr_t Fault =
          Interpreter::executeOps(SbOps.data() + G.OpBegin,
                                  SbOps.data() + G.OpEnd, Regs, Mem, MemSize);
      if (Fault >= 0) {
        Dev.Reason = StopReason::MemFault;
        Dev.InstsExecuted = static_cast<uint32_t>(Fault) + 1;
        HasDev = true;
        break;
      }
      BlockResult R;
      R.InstsExecuted = G.OpEnd - G.OpBegin;
      switch (G.Term.Code) {
      case Interpreter::TermCode::Jump:
        ++R.InstsExecuted;
        R.Next = G.Term.Taken;
        break;
      case Interpreter::TermCode::Branch: {
        ++R.InstsExecuted;
        const bool Cond = Interpreter::evalBranch(G.Term, Regs);
        R.IsCondBranch = true;
        R.Taken = Cond;
        R.Next = Cond ? G.Term.Taken : G.Term.Fall;
        break;
      }
      case Interpreter::TermCode::Halt:
        assert(false && "halt blocks are never chained");
        break;
      }
      if (R.Next == G.Next) { // guard holds: the event matches Events[Done]
        InstsDone += R.InstsExecuted;
        ++Done;
        continue;
      }
      Dev = R; // a real execution that left the chain — keep it
      HasDev = true;
      break;
    }
    if (HasDev)
      ++St.Fallbacks;
    return finishChain(S, Sb, Cur, Done, InstsDone, Dev, HasDev, Out, Sink);
  }

  /// The tail shared by both chain tiers: deliver the matched prefix,
  /// account the deviation (the caller already bumped its own tier's
  /// mismatch counter), maintain the demotion streak, and pick the next
  /// dispatch block. Returns false when the run is over.
  template <typename SinkT>
  bool finishChain(Superblock &S, int32_t Sb, guest::BlockId &Cur,
                   size_t Done, uint64_t InstsDone, const BlockResult &Dev,
                   bool HasDev, RunOutcome &Out, SinkT &Sink) {
    const size_t NSegs = S.Segs.size();
    if (Done) {
      Sink.onChain(S.Events.data(), Done);
      Out.BlocksExecuted += Done;
      Out.InstsExecuted += InstsDone;
      Out.LastBlock = S.Events[Done - 1].Block;
      St.ChainedBlocks += Done;
    }
    if (HasDev) {
      // Any deviating execution counts toward demotion (a full match
      // resets the streak): a chain that keeps missing — at the head or
      // mid-chain against a stale successor profile — goes back to cold
      // so fresh profiling can build the right chain.
      if (++S.MissStreak >= DemoteStreak)
        demote(Sb);
      const guest::BlockId DevBlock = S.Events[Done].Block;
      ++Out.BlocksExecuted;
      Out.InstsExecuted += Dev.InstsExecuted;
      Out.LastBlock = DevBlock;
      Sink.onEvent(DevBlock, Dev);
      if (Dev.Reason != StopReason::Running) {
        Out.Reason = Dev.Reason;
        return false;
      }
      // The deviation is a real execution the cold tier never saw: feed
      // it to the successor profile so a phase change re-learns the new
      // direction instead of replaying the stale one forever.
      observe(DevBlock, Dev);
      Cur = Dev.Next;
      return true;
    }
    S.MissStreak = 0;
    // Full match, or the block budget ran out mid-chain (the caller's
    // loop condition then stops with BlockLimit, as the plain pump would
    // after the same number of events).
    Cur = Done == NSegs ? S.Segs[NSegs - 1].Next : S.Events[Done].Block;
    return true;
  }

  void observe(guest::BlockId B, const BlockResult &R);
  void tryPromote(guest::BlockId Head);
  void demote(int32_t Sb);

  /// True when chain \p S should run compiled this dispatch. Counts a use,
  /// and compiles (once) when the chain crosses JitHeatVal uses.
  bool jitChainReady(Superblock &S);
  /// Same gate for the self-loop at block \p B, on accumulated iterations.
  bool jitLoopReady(guest::BlockId B);
  /// Runs the compiled self-loop body; mirrors Interpreter::runSelfLoop's
  /// contract (returns Stays; Exit/ExitValid describe the exit execution).
  uint64_t runJitSelfLoop(guest::BlockId B, Machine &M, uint64_t MaxIters,
                          BlockResult &Exit, bool &ExitValid);
  jit::JitFn compileChainFn(Superblock &S);
  jit::JitFn compileLoopFn(guest::BlockId B);
  /// Installs \p Code into the cache; on overflow flushes everything once
  /// and retries. Null means the unit is bigger than the whole cache.
  const void *installCode(const std::vector<uint8_t> &Code);
  void flushJit();

  const Interpreter &I;
  /// Concatenated op streams of all superblocks (segments back to back,
  /// so a chain executes from one contiguous range).
  std::vector<Interpreter::DecodedOp> SbOps;
  std::vector<Superblock> Sbs;
  std::vector<int32_t> SbOf;          ///< head block -> superblock, or -1
  std::vector<uint16_t> Heat;         ///< cold executions per block
  std::vector<guest::BlockId> LastNext; ///< last successor (cond blocks)
  std::vector<uint16_t> SameCount;    ///< consecutive identical successors
  HostTierStats St;

  // Jit tier state. LoopFn/LoopNoJit/LoopHeat are per guest block (only
  // self-loop blocks ever use their slots); chain state lives on the
  // Superblock itself.
  jit::CodeBuffer Cache;
  bool JitOn = false;
  uint32_t JitHeatVal = DefaultJitHeat;
  std::vector<jit::JitFn> LoopFn;  ///< compiled self-loop entry, or null
  std::vector<uint8_t> LoopNoJit;  ///< compilation failed; do not retry
  std::vector<uint32_t> LoopHeat;  ///< accumulated interpreted iterations
};

} // namespace vm
} // namespace tpdbt

#endif // TPDBT_VM_HOSTTIER_H
