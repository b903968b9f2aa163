//===- vm/HostTier.cpp - Host-side superblock translation tier -------------===//

#include "vm/HostTier.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace tpdbt;
using namespace tpdbt::vm;
using namespace tpdbt::guest;

HostTier::Tier HostTier::tier() {
  const char *V = std::getenv("TPDBT_TIER");
  if (V && std::strcmp(V, "plain") == 0)
    return Tier::Plain;
  if (V && std::strcmp(V, "predecoded") == 0)
    return Tier::Predecoded;
  return Tier::Jit;
}

bool HostTier::enabled() { return tier() != Tier::Plain; }

bool HostTier::jitEnabled() {
  return tier() == Tier::Jit && jit::CodeBuffer::supported();
}

uint32_t HostTier::jitHeat() {
  const char *V = std::getenv("TPDBT_JIT_HEAT");
  if (!V || !V[0])
    return DefaultJitHeat;
  const unsigned long long N = std::strtoull(V, nullptr, 10);
  if (N < 1)
    return 1;
  return N > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(N);
}

size_t HostTier::jitCacheBytes() {
  const char *V = std::getenv("TPDBT_JIT_CACHE_BYTES");
  if (!V || !V[0])
    return DefaultJitCacheBytes;
  const unsigned long long N = std::strtoull(V, nullptr, 10);
  return N < 4096 ? 4096 : static_cast<size_t>(N);
}

HostTier::HostTier(const Interpreter &I) : I(I), Cache(jitCacheBytes()) {
  const size_t N = I.program().numBlocks();
  SbOf.assign(N, -1);
  Heat.assign(N, 0);
  LastNext.assign(N, InvalidBlock);
  SameCount.assign(N, 0);
  JitOn = jitEnabled();
  JitHeatVal = jitHeat();
  LoopFn.assign(N, nullptr);
  LoopNoJit.assign(N, 0);
  LoopHeat.assign(N, 0);
}

bool HostTier::jitChainReady(Superblock &S) {
  if (S.Fn)
    return true;
  if (S.NoJit)
    return false;
  if (++S.Uses < JitHeatVal)
    return false;
  return compileChainFn(S) != nullptr;
}

bool HostTier::jitLoopReady(BlockId B) {
  if (LoopFn[B])
    return true;
  if (LoopNoJit[B])
    return false;
  if (LoopHeat[B] < JitHeatVal)
    return false;
  return compileLoopFn(B) != nullptr;
}

jit::JitFn HostTier::compileChainFn(Superblock &S) {
  const auto T0 = std::chrono::steady_clock::now();
  std::vector<jit::JitSegment> Segs(S.Segs.size());
  for (size_t K = 0; K < S.Segs.size(); ++K) {
    const Seg &G = S.Segs[K];
    Segs[K].Begin = SbOps.data() + G.OpBegin;
    Segs[K].End = SbOps.data() + G.OpEnd;
    Segs[K].Term = G.Term;
    Segs[K].ExpectTaken = S.Events[K].Branch == 2;
  }
  const std::vector<uint8_t> Code = jit::compileChain(Segs.data(), Segs.size());
  const void *Entry = installCode(Code);
  St.JitCompileMicros += std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  if (!Entry) {
    S.NoJit = true;
    return nullptr;
  }
  ++St.JitUnits;
  return S.Fn = reinterpret_cast<jit::JitFn>(const_cast<void *>(Entry));
}

jit::JitFn HostTier::compileLoopFn(BlockId B) {
  const auto T0 = std::chrono::steady_clock::now();
  const std::vector<uint8_t> Code = jit::compileSelfLoop(
      I.Ops.data() + I.First[B], I.Ops.data() + I.First[B + 1], I.Terms[B],
      I.selfLoop(B).StayBranch);
  const void *Entry = installCode(Code);
  St.JitCompileMicros += std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  if (!Entry) {
    LoopNoJit[B] = 1;
    return nullptr;
  }
  ++St.JitUnits;
  return LoopFn[B] = reinterpret_cast<jit::JitFn>(const_cast<void *>(Entry));
}

const void *HostTier::installCode(const std::vector<uint8_t> &Code) {
  const void *Entry = Cache.install(Code.data(), Code.size());
  if (Entry)
    return Entry;
  // Cache full: drop every translation and let heat re-derive the hot
  // set — the classic whole-cache flush-on-full policy. A unit that
  // still does not fit is bigger than the entire cache and is marked
  // NoJit by the caller.
  flushJit();
  return Cache.install(Code.data(), Code.size());
}

void HostTier::flushJit() {
  Cache.flush();
  ++St.JitFlushes;
  for (Superblock &S : Sbs) {
    S.Fn = nullptr;
    S.Uses = 0; // re-accumulate heat: rate-limits recompile thrash
  }
  std::fill(LoopFn.begin(), LoopFn.end(), nullptr);
  std::fill(LoopHeat.begin(), LoopHeat.end(), 0u);
}

uint64_t HostTier::runJitSelfLoop(BlockId B, Machine &M, uint64_t MaxIters,
                                  BlockResult &Exit, bool &ExitValid) {
  const jit::JitExit R = LoopFn[B](M.Regs.data(), M.Mem.data(),
                                   M.Mem.size(), MaxIters);
  St.JitLoopIters += R.Done;
  switch (jit::exitKind(R.Info)) {
  case jit::ExitKind::Ok:
    // The iteration budget ran out with the loop still spinning; there
    // is no exit execution (mirrors Interpreter::runSelfLoop).
    ExitValid = false;
    break;
  case jit::ExitKind::OffChain: {
    // The latch finally left the loop: a normal exit execution, not a
    // deopt — the interpreted tier does not count these either.
    const Interpreter::DecodedTerm &T = I.Terms[B];
    Exit.IsCondBranch = true;
    Exit.Taken = jit::exitTaken(R.Info);
    Exit.Next = Exit.Taken ? T.Taken : T.Fall;
    Exit.InstsExecuted = I.selfLoop(B).FullInsts;
    ExitValid = true;
    break;
  }
  case jit::ExitKind::Fault:
    Exit.Reason = StopReason::MemFault;
    Exit.InstsExecuted = jit::exitFaultOp(R.Info) + 1;
    ExitValid = true;
    ++St.JitDeopts;
    break;
  }
  return R.Done;
}

void HostTier::observe(BlockId B, const BlockResult &R) {
  if (R.IsCondBranch) {
    if (LastNext[B] == R.Next) {
      if (SameCount[B] != UINT16_MAX)
        ++SameCount[B];
    } else {
      LastNext[B] = R.Next;
      SameCount[B] = 1;
    }
  }
  if (Heat[B] != UINT16_MAX)
    ++Heat[B];
  if (Heat[B] >= PromoteHeat && SbOf[B] < 0)
    tryPromote(B);
}

void HostTier::tryPromote(BlockId Head) {
  // Failed promotions reset the heat so the head retries only after
  // another PromoteHeat cold executions — by then an unstable successor
  // may have settled.
  if (Sbs.size() >= MaxSuperblocks) {
    Heat[Head] = 0;
    return;
  }

  const size_t SavedOps = SbOps.size();
  Superblock S;
  BlockId InChain[MaxChainLen];
  BlockId Cur = Head;
  while (S.Segs.size() < MaxChainLen) {
    if (std::find(InChain, InChain + S.Segs.size(), Cur) !=
        InChain + S.Segs.size())
      break; // revisits re-enter through normal dispatch
    // Self-loops belong to the run-length tier, never to a chain; the
    // head itself cannot be one (the pump dispatches self-loops first).
    if (I.selfLoop(Cur).IsLoop)
      break;
    const Interpreter::DecodedTerm &T = I.Terms[Cur];
    if (T.Code == Interpreter::TermCode::Halt)
      break;

    BlockId Next;
    uint8_t BranchCode;
    if (T.Code == Interpreter::TermCode::Jump) {
      Next = T.Taken; // static successor: chains unconditionally
      BranchCode = 0;
    } else {
      // Conditional members need a stable observed successor; the guard
      // re-checks the real outcome on every chain execution.
      if (T.Taken == T.Fall)
        break; // no informative outcome to predict
      if (SameCount[Cur] < StableMin)
        break;
      Next = LastNext[Cur];
      if (Next != T.Taken && Next != T.Fall)
        break;
      BranchCode = Next == T.Taken ? 2 : 1;
    }

    Seg G;
    G.OpBegin = static_cast<uint32_t>(SbOps.size());
    SbOps.insert(SbOps.end(), I.Ops.begin() + I.First[Cur],
                 I.Ops.begin() + I.First[Cur + 1]);
    G.OpEnd = static_cast<uint32_t>(SbOps.size());
    G.Term = T;
    G.Next = Next;
    const uint32_t Insts = (G.OpEnd - G.OpBegin) + 1;
    InChain[S.Segs.size()] = Cur;
    S.Segs.push_back(G);
    S.Events.push_back(SbEvent{Cur, BranchCode, Insts});
    Cur = Next;
  }

  if (S.Segs.size() < 2) { // a chain of one block gains nothing
    SbOps.resize(SavedOps);
    Heat[Head] = 0;
    return;
  }
  SbOf[Head] = static_cast<int32_t>(Sbs.size());
  Sbs.push_back(std::move(S));
  ++St.Superblocks;
}

void HostTier::demote(int32_t Sb) {
  // A chain whose guards keep failing has changed phase: return its head
  // to the cold tier and let fresh profiling decide on a new chain. The
  // superblock slot stays allocated (demotion is rare) but unreachable.
  const BlockId Head = Sbs[Sb].Events.front().Block;
  SbOf[Head] = -1;
  Heat[Head] = 0;
  SameCount[Head] = 0;
  LastNext[Head] = InvalidBlock;
}
