//===- vm/HostTier.cpp - Host-side superblock translation tier -------------===//

#include "vm/HostTier.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

using namespace tpdbt;
using namespace tpdbt::vm;
using namespace tpdbt::guest;

bool HostTier::enabled() {
  const char *V = std::getenv("TPDBT_TIER");
  return !(V && std::strcmp(V, "plain") == 0) && jit::CodeBuffer::supported();
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
  JitHeatVal = jitHeat();
  LoopFn.assign(N, nullptr);
  LoopHeat.assign(N, 0);
}

bool HostTier::jitChainReady(Superblock &S) {
  if (S.Fn)
    return true;
  if (S.Uses == JitHeatVal) // reached the heat but did not compile
    return false;
  return ++S.Uses == JitHeatVal && compileChainFn(S);
}

void HostTier::heatLoop(BlockId B) {
  // Heat is iterations, not arrivals: a loop that spins a thousand times
  // on its first arrival compiles after JitHeatVal of them and runs the
  // rest natively.
  if (LoopHeat[B] < JitHeatVal && ++LoopHeat[B] == JitHeatVal)
    compileLoopFn(B);
}

jit::JitSegment HostTier::segment(BlockId B) const {
  jit::JitSegment G;
  G.Begin = I.Ops.data() + I.First[B];
  G.End = I.Ops.data() + I.First[B + 1];
  G.Term = I.Terms[B];
  return G;
}

jit::JitFn HostTier::compileChainFn(Superblock &S) {
  const auto T0 = std::chrono::steady_clock::now();
  std::vector<jit::JitSegment> Segs(S.Events.size());
  for (size_t K = 0; K < S.Events.size(); ++K) {
    Segs[K] = segment(S.Events[K].Block);
    Segs[K].ExpectTaken = S.Events[K].Branch == 2;
  }
  const std::vector<uint8_t> Code = jit::compileChain(Segs.data(), Segs.size());
  const void *Entry = installCode(Code);
  St.JitCompileMicros += std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  if (!Entry)
    return nullptr;
  ++St.JitUnits;
  return S.Fn = reinterpret_cast<jit::JitFn>(const_cast<void *>(Entry));
}

jit::JitFn HostTier::compileLoopFn(BlockId B) {
  const auto T0 = std::chrono::steady_clock::now();
  const jit::JitSegment G = segment(B);
  const std::vector<uint8_t> Code =
      jit::compileSelfLoop(G.Begin, G.End, G.Term, I.selfLoop(B).StayBranch);
  const void *Entry = installCode(Code);
  St.JitCompileMicros += std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - T0)
                             .count();
  if (!Entry)
    return nullptr;
  ++St.JitUnits;
  return LoopFn[B] = reinterpret_cast<jit::JitFn>(const_cast<void *>(Entry));
}

const void *HostTier::installCode(const std::vector<uint8_t> &Code) {
  const void *Entry = Cache.install(Code.data(), Code.size());
  if (Entry)
    return Entry;
  // Cache full: drop every translation and let heat re-derive the hot
  // set — the classic whole-cache flush-on-full policy. A unit that
  // still does not fit is bigger than the entire cache; its heat stays
  // at the jit heat, so it is never retried.
  flushJit();
  return Cache.install(Code.data(), Code.size());
}

void HostTier::flushJit() {
  Cache.flush();
  ++St.JitFlushes;
  // Only dropped translations re-accumulate heat (rate-limiting recompile
  // thrash); a unit that never compiled keeps its heat and its verdict.
  for (Superblock &S : Sbs)
    if (S.Fn) {
      S.Fn = nullptr;
      S.Uses = 0;
    }
  for (size_t B = 0; B < LoopFn.size(); ++B)
    if (LoopFn[B]) {
      LoopFn[B] = nullptr;
      LoopHeat[B] = 0;
    }
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

  Superblock S;
  BlockId InChain[MaxChainLen];
  BlockId Cur = Head;
  while (S.Events.size() < MaxChainLen) {
    if (std::find(InChain, InChain + S.Events.size(), Cur) !=
        InChain + S.Events.size())
      break; // revisits re-enter through normal dispatch
    // Self-loops compile as loops of their own, never into a chain; the
    // head itself cannot be one (observe() never sees a self-loop).
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

    InChain[S.Events.size()] = Cur;
    S.Events.push_back(
        SbEvent{Cur, BranchCode, I.First[Cur + 1] - I.First[Cur] + 1});
    Cur = Next;
  }
  S.Next = Cur;

  if (S.Events.size() < 2) { // a chain of one block gains nothing
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
