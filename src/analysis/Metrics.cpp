//===- analysis/Metrics.cpp - The paper's accuracy metrics -----------------===//

#include "analysis/Metrics.h"

#include "analysis/RegionProb.h"
#include "support/Statistics.h"

#include <cassert>

using namespace tpdbt;
using namespace tpdbt::analysis;
using namespace tpdbt::guest;
using namespace tpdbt::profile;
using namespace tpdbt::region;

BpRange tpdbt::analysis::classifyBp(double P) {
  if (P < 0.3)
    return BpRange::Low;
  if (P <= 0.7)
    return BpRange::Mid;
  return BpRange::High;
}

TripClass tpdbt::analysis::classifyTrip(double Lp) {
  if (Lp < 0.9)
    return TripClass::Low;
  if (Lp <= 0.98)
    return TripClass::Median;
  return TripClass::High;
}

/// Builds the per-block taken-probability vector of a snapshot.
static std::vector<double> takenProbs(const ProfileSnapshot &S) {
  std::vector<double> P(S.Blocks.size(), 0.0);
  for (size_t B = 0; B < S.Blocks.size(); ++B)
    P[B] = S.Blocks[B].takenProb();
  return P;
}

AccuracyMetrics tpdbt::analysis::accuracyMetrics(const ProfileSnapshot &Pred,
                                                 const ProfileSnapshot &Avep,
                                                 const cfg::Cfg &G) {
  assert(Pred.Blocks.size() == Avep.Blocks.size() &&
         "snapshots from different programs");
  // Branch metrics: every block that ends in a two-target conditional
  // branch and executed in both snapshots (the paper compares the blocks
  // present in both profiles), weighted by its AVEP use.
  WeightedDeviation SdBp;
  WeightedMismatch BpMis;
  for (size_t B = 0; B < Pred.Blocks.size(); ++B) {
    if (!G.hasCondBranch(static_cast<BlockId>(B)))
      continue;
    const uint64_t PredUse = Pred.Blocks[B].Use;
    const uint64_t AvepUse = Avep.Blocks[B].Use;
    if (PredUse == 0 || AvepUse == 0)
      continue;
    const double BT = Pred.Blocks[B].takenProb();
    const double BM = Avep.Blocks[B].takenProb();
    const double W = static_cast<double>(AvepUse);
    SdBp.add(BT, BM, W);
    BpMis.add(classifyBp(BT) != classifyBp(BM), W);
  }

  AccuracyMetrics M;
  M.SdBp = SdBp.deviation();
  M.BpMismatch = BpMis.rate();
  if (Pred.Regions.empty())
    return M;

  // Region metrics: each of Pred's regions under Pred's and under AVEP's
  // probabilities, weighted by its entry block's AVEP use.
  const std::vector<double> PT = takenProbs(Pred);
  const std::vector<double> PM = takenProbs(Avep);
  WeightedDeviation SdCp, SdLp;
  WeightedMismatch LpMis;
  for (const Region &R : Pred.Regions) {
    const double W = static_cast<double>(Avep.Blocks[R.entryBlock()].Use);
    if (R.Kind == RegionKind::NonLoop) {
      SdCp.add(completionProb(R, PT), completionProb(R, PM), W);
    } else {
      const double LT = loopBackProb(R, PT);
      const double LM = loopBackProb(R, PM);
      SdLp.add(LT, LM, W);
      LpMis.add(classifyTrip(LT) != classifyTrip(LM), W);
    }
  }
  M.SdCp = SdCp.deviation();
  M.SdLp = SdLp.deviation();
  M.LpMismatch = LpMis.rate();
  return M;
}

double tpdbt::analysis::sdBranchProb(const ProfileSnapshot &Pred,
                                     const ProfileSnapshot &Avep,
                                     const cfg::Cfg &G) {
  return accuracyMetrics(Pred, Avep, G).SdBp;
}

double tpdbt::analysis::sdBranchProbNavep(const ProfileSnapshot &Inip,
                                          const ProfileSnapshot &Avep,
                                          const cfg::Cfg &G, const Navep &N) {
  WeightedDeviation Dev;
  for (const NavepCopy &C : N.Copies) {
    if (!G.hasCondBranch(C.Orig))
      continue;
    if (Inip.Blocks[C.Orig].Use == 0 || Avep.Blocks[C.Orig].Use == 0)
      continue;
    Dev.add(Inip.takenProb(C.Orig), Avep.takenProb(C.Orig), C.Freq);
  }
  return Dev.deviation();
}

double tpdbt::analysis::bpMismatchRate(const ProfileSnapshot &Pred,
                                       const ProfileSnapshot &Avep,
                                       const cfg::Cfg &G) {
  return accuracyMetrics(Pred, Avep, G).BpMismatch;
}

double tpdbt::analysis::sdCompletionProb(const ProfileSnapshot &Inip,
                                         const ProfileSnapshot &Avep,
                                         const cfg::Cfg &G) {
  return accuracyMetrics(Inip, Avep, G).SdCp;
}

double tpdbt::analysis::sdLoopBackProb(const ProfileSnapshot &Inip,
                                       const ProfileSnapshot &Avep,
                                       const cfg::Cfg &G) {
  return accuracyMetrics(Inip, Avep, G).SdLp;
}

double tpdbt::analysis::lpMismatchRate(const ProfileSnapshot &Inip,
                                       const ProfileSnapshot &Avep,
                                       const cfg::Cfg &G) {
  return accuracyMetrics(Inip, Avep, G).LpMismatch;
}

size_t tpdbt::analysis::countRegions(const ProfileSnapshot &S,
                                     RegionKind Kind) {
  size_t N = 0;
  for (const Region &R : S.Regions)
    if (R.Kind == Kind)
      ++N;
  return N;
}
