//===- region/RegionFormer.cpp - Optimization-phase region formation -------===//

#include "region/RegionFormer.h"

#include <algorithm>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::region;
using namespace tpdbt::guest;

RegionFormer::RegionFormer(const cfg::Cfg &G, FormationOptions Opts)
    : G(G), Opts(Opts) {}

std::vector<Region>
RegionFormer::form(const std::vector<BlockId> &Seeds,
                   const std::vector<double> &TakenProb,
                   const std::vector<bool> &Eligible) const {
  assert(TakenProb.size() == G.numBlocks() && "TakenProb size mismatch");
  assert(Eligible.size() == G.numBlocks() && "Eligible size mismatch");
  std::vector<Region> Regions;
  std::vector<bool> Covered(G.numBlocks(), false);
  for (BlockId Seed : Seeds) {
    if (Covered[Seed])
      continue; // absorbed into an earlier region of this round
    assert(Eligible[Seed] && "seed must be eligible");
    Region R = growFrom(Seed, TakenProb, Eligible, Covered);
    [[maybe_unused]] std::string Err;
    assert(R.verify(&Err) && "formed malformed region");
    Regions.push_back(std::move(R));
  }
  return Regions;
}

namespace {

/// Index of the node duplicating \p B inside \p R, or -1. Regions never
/// duplicate a block twice within themselves, so the first hit is the hit.
int32_t findNode(const Region &R, BlockId B) {
  for (size_t I = 0; I < R.Nodes.size(); ++I)
    if (R.Nodes[I].Orig == B)
      return static_cast<int32_t>(I);
  return -1;
}

} // namespace

Region RegionFormer::growFrom(BlockId Seed,
                              const std::vector<double> &TakenProb,
                              const std::vector<bool> &Eligible,
                              std::vector<bool> &Covered) const {
  Region R;
  R.Kind = RegionKind::NonLoop;

  auto addNode = [&](BlockId B) -> int32_t {
    RegionNode N;
    N.Orig = B;
    N.HasCondBranch = G.hasCondBranch(B);
    if (G.successors(B).empty())
      N.TakenSucc = HaltSucc;
    R.Nodes.push_back(N);
    Covered[B] = true;
    return static_cast<int32_t>(R.Nodes.size() - 1);
  };

  // Wires the likely (or only) outgoing edge of node \p From to successor
  // encoding \p To.
  auto wire = [&](int32_t From, bool TakenEdge, int32_t To) {
    if (TakenEdge)
      R.Nodes[From].TakenSucc = To;
    else
      R.Nodes[From].FallSucc = To;
  };

  int32_t Cur = addNode(Seed);
  while (true) {
    BlockId B = R.Nodes[Cur].Orig;
    const auto &Succs = G.successors(B);
    if (Succs.empty())
      break; // halt block ends the region

    bool Cond = G.hasCondBranch(B);
    double PTaken = Cond ? TakenProb[B] : 1.0;
    bool TakenLikely = !Cond || PTaken >= 0.5;
    double PMax = Cond ? std::max(PTaken, 1.0 - PTaken) : 1.0;
    BlockId Likely = !Cond          ? Succs[0]
                     : TakenLikely ? G.takenTarget(B)
                                   : G.fallthroughTarget(B);

    if (Cond && PMax < Opts.MinBranchProb) {
      // Neither side is likely enough for trace growth. Try to absorb a
      // balanced diamond: both arms single-successor blocks joining at a
      // common merge point (Figure 6), or both jumping back to the entry
      // (the two-back-edge loop of Figure 7).
      if (!Opts.EnableDiamonds)
        break;
      double PMin = 1.0 - PMax;
      if (PMin < Opts.DiamondLowProb)
        break;
      BlockId T1 = G.takenTarget(B);
      BlockId T2 = G.fallthroughTarget(B);
      if (T1 == T2 || T1 == Seed || T2 == Seed)
        break;
      auto ArmOk = [&](BlockId Arm) {
        if (!Eligible[Arm] || findNode(R, Arm) >= 0 || G.isLoopHeader(Arm))
          return false;
        if (!Opts.AllowDuplication && Covered[Arm])
          return false;
        return G.successors(Arm).size() == 1;
      };
      if (!ArmOk(T1) || !ArmOk(T2))
        break;
      BlockId M1 = G.successors(T1)[0];
      BlockId M2 = G.successors(T2)[0];
      if (M1 != M2)
        break;
      BlockId Merge = M1;
      if (Merge == Seed) {
        // Both arms loop back to the entry: a Figure 7-style loop region.
        if (R.Nodes.size() + 2 > Opts.MaxRegionBlocks)
          break;
        int32_t A1 = addNode(T1);
        int32_t A2 = addNode(T2);
        wire(Cur, /*TakenEdge=*/true, A1);
        wire(Cur, /*TakenEdge=*/false, A2);
        wire(A1, /*TakenEdge=*/true, BackEdgeSucc);
        wire(A2, /*TakenEdge=*/true, BackEdgeSucc);
        R.Kind = RegionKind::Loop;
        return R;
      }
      if (!Eligible[Merge] || findNode(R, Merge) >= 0 || G.isLoopHeader(Merge))
        break;
      if (!Opts.AllowDuplication && Covered[Merge])
        break;
      if (R.Nodes.size() + 3 > Opts.MaxRegionBlocks)
        break;
      int32_t A1 = addNode(T1);
      int32_t A2 = addNode(T2);
      int32_t MN = addNode(Merge);
      wire(Cur, /*TakenEdge=*/true, A1);
      wire(Cur, /*TakenEdge=*/false, A2);
      wire(A1, /*TakenEdge=*/true, MN);
      wire(A2, /*TakenEdge=*/true, MN);
      Cur = MN;
      continue;
    }

    if (Likely == Seed) {
      // Likely edge returns to the region entry: loop region.
      wire(Cur, TakenLikely, BackEdgeSucc);
      R.Kind = RegionKind::Loop;
      return R;
    }
    if (findNode(R, Likely) >= 0)
      break; // joining a non-entry member would create an inner cycle
    if (G.isLoopHeader(Likely))
      break; // leave loop headers to seed their own loop regions
    if (!Eligible[Likely])
      break;
    if (!Opts.AllowDuplication && Covered[Likely])
      break;
    if (R.Nodes.size() >= Opts.MaxRegionBlocks)
      break;

    int32_t Next = addNode(Likely);
    wire(Cur, TakenLikely, Next);
    Cur = Next;
  }

  R.LastNode = Cur;
  return R;
}
