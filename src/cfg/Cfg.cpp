//===- cfg/Cfg.cpp - Control-flow graph over a guest program ---------------===//

#include "cfg/Cfg.h"

#include <algorithm>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::cfg;
using namespace tpdbt::guest;

Cfg::Cfg(const Program &P) : Entry(P.Entry) {
  size_t N = P.numBlocks();
  Succs.resize(N);
  Preds.resize(N);
  Taken.assign(N, InvalidBlock);
  Fallthrough.assign(N, InvalidBlock);
  CondBranch.assign(N, false);
  Reachable.assign(N, false);

  for (size_t B = 0; B < N; ++B) {
    const Terminator &T = P.Blocks[B].Term;
    switch (T.Kind) {
    case TermKind::Jump:
      Succs[B].push_back(T.Taken);
      break;
    case TermKind::Branch:
      Succs[B].push_back(T.Taken);
      if (T.Fallthrough != T.Taken)
        Succs[B].push_back(T.Fallthrough);
      CondBranch[B] = T.Fallthrough != T.Taken;
      Taken[B] = T.Taken;
      Fallthrough[B] = T.Fallthrough;
      break;
    case TermKind::Halt:
      break;
    }
    for (BlockId S : Succs[B])
      Preds[S].push_back(static_cast<BlockId>(B));
  }

  // Iterative DFS producing post order; reverse it for RPO.
  std::vector<BlockId> Post;
  Post.reserve(N);
  std::vector<uint8_t> State(N, 0); // 0 unseen, 1 on stack, 2 done
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.emplace_back(Entry, 0);
  State[Entry] = 1;
  Reachable[Entry] = true;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Succs[B].size()) {
      BlockId S = Succs[B][NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Reachable[S] = true;
        Stack.emplace_back(S, 0);
      }
    } else {
      State[B] = 2;
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  Rpo.assign(Post.rbegin(), Post.rend());

  // Natural-loop headers, the same back-edge test findNaturalLoops makes.
  // The dominator tree only reads the fields set above.
  LoopHeader.assign(N, false);
  const DominatorTree DT(*this);
  for (BlockId Tail : Rpo)
    for (BlockId Header : Succs[Tail])
      if (DT.dominates(Header, Tail))
        LoopHeader[Header] = true;
}

DominatorTree::DominatorTree(const Cfg &G) : G(G) {
  size_t N = G.numBlocks();
  Idom.assign(N, InvalidBlock);
  RpoIndex.assign(N, ~0u);
  const auto &Rpo = G.rpo();
  for (size_t I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = static_cast<uint32_t>(I);

  BlockId Entry = G.entry();
  Idom[Entry] = Entry;

  auto Intersect = [this](BlockId A, BlockId B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Rpo) {
      if (B == Entry)
        continue;
      BlockId NewIdom = InvalidBlock;
      for (BlockId Pred : G.predecessors(B)) {
        if (Idom[Pred] == InvalidBlock)
          continue; // not processed yet / unreachable
        NewIdom = NewIdom == InvalidBlock ? Pred : Intersect(Pred, NewIdom);
      }
      if (NewIdom != InvalidBlock && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::dominates(BlockId A, BlockId B) const {
  if (A >= Idom.size() || B >= Idom.size())
    return false;
  if (Idom[B] == InvalidBlock || Idom[A] == InvalidBlock)
    return false;
  BlockId Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    BlockId Up = Idom[Cur];
    if (Up == Cur)
      return false; // reached entry
    Cur = Up;
  }
}

bool NaturalLoop::contains(BlockId B) const {
  return std::binary_search(Body.begin(), Body.end(), B);
}

std::vector<NaturalLoop> tpdbt::cfg::findNaturalLoops(const Cfg &G,
                                                      const DominatorTree &DT) {
  // Gather back edges: Tail -> Header where Header dominates Tail.
  // Merge loops with the same header.
  std::vector<NaturalLoop> Loops;
  auto FindLoop = [&Loops](BlockId Header) -> NaturalLoop * {
    for (auto &L : Loops)
      if (L.Header == Header)
        return &L;
    return nullptr;
  };

  for (BlockId Tail : G.rpo()) {
    for (BlockId Header : G.successors(Tail)) {
      if (!DT.dominates(Header, Tail))
        continue;
      NaturalLoop *L = FindLoop(Header);
      if (!L) {
        Loops.push_back(NaturalLoop{Header, {}, {}});
        L = &Loops.back();
      }
      L->BackTails.push_back(Tail);
    }
  }

  // Compute each loop body: reverse flood fill from the back-edge tails,
  // stopping at the header.
  for (auto &L : Loops) {
    std::vector<bool> InBody(G.numBlocks(), false);
    InBody[L.Header] = true;
    std::vector<BlockId> Work;
    for (BlockId Tail : L.BackTails) {
      if (!InBody[Tail]) {
        InBody[Tail] = true;
        Work.push_back(Tail);
      }
    }
    while (!Work.empty()) {
      BlockId B = Work.back();
      Work.pop_back();
      for (BlockId Pred : G.predecessors(B)) {
        if (!G.isReachable(Pred) || InBody[Pred])
          continue;
        InBody[Pred] = true;
        Work.push_back(Pred);
      }
    }
    for (size_t B = 0; B < G.numBlocks(); ++B)
      if (InBody[B])
        L.Body.push_back(static_cast<BlockId>(B));
    std::sort(L.BackTails.begin(), L.BackTails.end());
  }

  std::sort(Loops.begin(), Loops.end(),
            [](const NaturalLoop &A, const NaturalLoop &B) {
              return A.Header < B.Header;
            });
  return Loops;
}
