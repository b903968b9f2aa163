//===- sample/PhaseDetector.cpp - Segment phase clustering -----------------===//

#include "sample/PhaseDetector.h"

#include <algorithm>
#include <cmath>

using namespace tpdbt;
using namespace tpdbt::sample;

static double l1Distance(const std::vector<double> &A,
                         const std::vector<double> &B) {
  double D = 0.0;
  const size_t N = std::min(A.size(), B.size());
  for (size_t I = 0; I < N; ++I)
    D += std::fabs(A[I] - B[I]);
  for (size_t I = N; I < A.size(); ++I)
    D += std::fabs(A[I]);
  for (size_t I = N; I < B.size(); ++I)
    D += std::fabs(B[I]);
  return D;
}

PhaseAssignment
tpdbt::sample::leaderCluster(const std::vector<std::vector<double>> &Features,
                             unsigned MaxPhases, double Threshold) {
  PhaseAssignment Out;
  Out.StratumOf.resize(Features.size());
  if (MaxPhases == 0)
    MaxPhases = 1;
  std::vector<const std::vector<double> *> Leaders;
  for (size_t I = 0; I < Features.size(); ++I) {
    size_t Best = 0;
    double BestDist = 0.0;
    for (size_t L = 0; L < Leaders.size(); ++L) {
      double D = l1Distance(Features[I], *Leaders[L]);
      if (L == 0 || D < BestDist) {
        Best = L;
        BestDist = D;
      }
    }
    if (Leaders.empty() ||
        (BestDist > Threshold && Leaders.size() < MaxPhases)) {
      Out.StratumOf[I] = static_cast<uint32_t>(Leaders.size());
      Leaders.push_back(&Features[I]);
    } else {
      Out.StratumOf[I] = static_cast<uint32_t>(Best);
    }
  }
  Out.NumStrata = static_cast<uint32_t>(std::max<size_t>(Leaders.size(), 1));
  return Out;
}

PhaseAssignment
tpdbt::sample::detectSegmentPhases(const std::vector<SegmentStats> &Segments,
                                   unsigned MaxPhases, double Threshold) {
  // Scale each feature into [0, 1] so the L1 threshold is unit-free: the
  // instruction rate by its maximum over the trace, the length by the
  // budget-sized maximum (only the trailing remainder segment differs).
  double MaxEvents = 0.0, MaxInstRate = 0.0;
  for (const SegmentStats &S : Segments) {
    MaxEvents = std::max(MaxEvents, static_cast<double>(S.Events));
    if (S.Events)
      MaxInstRate = std::max(MaxInstRate, static_cast<double>(S.Insts) /
                                              static_cast<double>(S.Events));
  }
  std::vector<std::vector<double>> Features(Segments.size());
  for (size_t I = 0; I < Segments.size(); ++I) {
    const SegmentStats &S = Segments[I];
    const double Ev = static_cast<double>(S.Events);
    Features[I] = {
        MaxEvents > 0.0 ? Ev / MaxEvents : 0.0,
        S.Events && MaxInstRate > 0.0
            ? (static_cast<double>(S.Insts) / Ev) / MaxInstRate
            : 0.0,
        S.Events ? static_cast<double>(S.Taken) / Ev : 0.0,
    };
  }
  return leaderCluster(Features, MaxPhases, Threshold);
}
