//===- sample/Estimator.cpp - Sampled analytic replay ----------------------===//

#include "sample/Estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace tpdbt;
using namespace tpdbt::sample;
using guest::BlockId;

Estimator::Estimator(const guest::Program &P, const cfg::Cfg &G,
                     std::vector<SegmentStats> Segments,
                     std::vector<profile::BlockCounters> Final,
                     uint64_t NumEvents, uint64_t TotalInsts,
                     uint64_t TakenTotal, SamplePlan Plan,
                     std::vector<SegmentProfile> Decoded)
    : P(P), G(G), Segments(std::move(Segments)), Final(std::move(Final)),
      NumEvents(NumEvents), TotalInsts(TotalInsts), TakenTotal(TakenTotal),
      Plan(std::move(Plan)) {
  const size_t N = P.numBlocks();
  this->Final.resize(N);
  const size_t S = this->Segments.size();
  EventsBefore.resize(S + 1, 0.0);
  for (size_t K = 0; K < S; ++K)
    EventsBefore[K + 1] =
        EventsBefore[K] + static_cast<double>(this->Segments[K].Events);

  SampledOf.resize(N);
  assert(Decoded.size() == this->Plan.Chosen.size() &&
         "one decoded profile per chosen segment");
  for (size_t C = 0; C < Decoded.size(); ++C) {
    const uint32_t Seg = this->Plan.Chosen[C];
    for (const SegmentProfile::Entry &E : Decoded[C].Entries)
      if (E.Block < N)
        SampledOf[E.Block].push_back({Seg, E.Use, E.Taken});
  }

  // Per-occurrence instruction length: the block's shape, constant for
  // every whole execution. A single global scale pins the weighted total
  // to the stream's exact instruction count, absorbing a partial final
  // event.
  const std::vector<core::BlockShape> Shapes = core::blockShapes(P);
  EffLen.assign(N, 0.0);
  double WeightedTotal = 0.0;
  for (size_t B = 0; B < N; ++B) {
    EffLen[B] = static_cast<double>(Shapes[B].Len);
    WeightedTotal += static_cast<double>(this->Final[B].Use) * EffLen[B];
  }
  if (WeightedTotal > 0.0) {
    const double Scale = static_cast<double>(TotalInsts) / WeightedTotal;
    for (double &L : EffLen)
      L *= Scale;
  }
}

Estimator::Curves::Curves(const Estimator &E, int ExcludeGroup)
    : E(&E), ExcludeGroup(ExcludeGroup) {
  const size_t N = E.P.numBlocks();
  const size_t S = E.Segments.size();
  const size_t H = E.Plan.NumStrata;

  // The view: which chosen segments count as decoded, and the per-stratum
  // unsampled-event prefix sums the imputation spreads mass over.
  InView.assign(S, 0);
  SampledEvents.assign(H, 0.0);
  StratumUnsampled.assign(H * (S + 1), 0.0);
  UnsampledBefore.assign(S + 1, 0.0);
  for (size_t K = 0; K < S; ++K) {
    const size_t Ph = E.Plan.StratumOf[K];
    const bool Sampled =
        E.Plan.IsChosen[K] &&
        (ExcludeGroup < 0 || E.Plan.GroupOf[K] != ExcludeGroup);
    InView[K] = Sampled;
    const double Ev = static_cast<double>(E.Segments[K].Events);
    for (size_t Ph2 = 0; Ph2 < H; ++Ph2)
      StratumUnsampled[Ph2 * (S + 1) + K + 1] =
          StratumUnsampled[Ph2 * (S + 1) + K];
    UnsampledBefore[K + 1] = UnsampledBefore[K];
    if (Sampled) {
      SampledEvents[Ph] += Ev;
    } else {
      StratumUnsampled[Ph * (S + 1) + K + 1] += Ev;
      UnsampledBefore[K + 1] += Ev;
    }
  }

  // The calibrated rates over that view.
  RateU.assign(N * H, 0.0);
  RateT.assign(N * H, 0.0);
  AlphaU.assign(N, 0.0);
  AlphaT.assign(N, 0.0);
  FbU.assign(N, 0.0);
  FbT.assign(N, 0.0);
  const double TotalUnsampled = S ? UnsampledBefore[S] : 0.0;
  for (size_t B = 0; B < N; ++B) {
    double SeenU = 0.0, SeenT = 0.0;
    for (const SampledSeg &Sg : E.SampledOf[B]) {
      if (!InView[Sg.Seg])
        continue;
      const size_t Ph = E.Plan.StratumOf[Sg.Seg];
      RateU[B * H + Ph] += static_cast<double>(Sg.Use);
      RateT[B * H + Ph] += static_cast<double>(Sg.Taken);
      SeenU += static_cast<double>(Sg.Use);
      SeenT += static_cast<double>(Sg.Taken);
    }
    double RawU = 0.0, RawT = 0.0;
    for (size_t Ph = 0; Ph < H; ++Ph) {
      if (SampledEvents[Ph] > 0.0) {
        RateU[B * H + Ph] /= SampledEvents[Ph];
        RateT[B * H + Ph] /= SampledEvents[Ph];
      }
      const double Un = StratumUnsampled[Ph * (S + 1) + S];
      RawU += RateU[B * H + Ph] * Un;
      RawT += RateT[B * H + Ph] * Un;
    }
    const double RemU = static_cast<double>(E.Final[B].Use) - SeenU;
    const double RemT = static_cast<double>(E.Final[B].Taken) - SeenT;
    if (RawU > 1e-12)
      AlphaU[B] = RemU / RawU;
    else if (TotalUnsampled > 0.0)
      FbU[B] = RemU / TotalUnsampled;
    if (RawT > 1e-12)
      AlphaT[B] = RemT / RawT;
    else if (TotalUnsampled > 0.0)
      FbT[B] = RemT / TotalUnsampled;
  }
}

Estimator::Curves Estimator::curves(int ExcludeGroup) const {
  return Curves(*this, ExcludeGroup);
}

/// Exact over in-view sampled segments, imputed elsewhere; ends at the
/// final counter by construction.
double Estimator::Curves::cum(size_t B, size_t K, bool Taken) const {
  const size_t S = E->Segments.size();
  const size_t H = E->Plan.NumStrata;
  double C = 0.0;
  for (const SampledSeg &Sg : E->SampledOf[B])
    if (Sg.Seg < K && InView[Sg.Seg])
      C += static_cast<double>(Taken ? Sg.Taken : Sg.Use);
  const std::vector<double> &Rate = Taken ? RateT : RateU;
  double Raw = 0.0;
  for (size_t Ph = 0; Ph < H; ++Ph)
    Raw += Rate[B * H + Ph] * StratumUnsampled[Ph * (S + 1) + K];
  return C + (Taken ? AlphaT : AlphaU)[B] * Raw +
         (Taken ? FbT : FbU)[B] * UnsampledBefore[K];
}

/// Linear interpolation within a segment turns the boundary sums into a
/// continuous, monotone per-block counter curve over event positions.
double Estimator::Curves::valueAt(size_t B, double Pos, bool Taken) const {
  const size_t S = E->Segments.size();
  if (S == 0)
    return 0.0;
  const std::vector<double> &Before = E->EventsBefore;
  size_t K = static_cast<size_t>(
      std::upper_bound(Before.begin(), Before.end(), Pos) - Before.begin());
  K = std::min(K > 0 ? K - 1 : 0, S - 1);
  const double C0 = cum(B, K, Taken);
  const double C1 = cum(B, K + 1, Taken);
  const double Width = Before[K + 1] - Before[K];
  const double F =
      Width > 0.0 ? std::clamp((Pos - Before[K]) / Width, 0.0, 1.0) : 1.0;
  return C0 + F * (C1 - C0);
}

/// Binary search over segment boundaries, interpolation inside.
double Estimator::Curves::crossingPos(size_t B, uint64_t J) const {
  const size_t S = E->Segments.size();
  const double Target = static_cast<double>(J);
  const double Eps = 1e-7 * Target + 1e-9;
  size_t Lo = 0, Hi = S;
  while (Lo < Hi) {
    const size_t Mid = (Lo + Hi) / 2;
    if (cum(B, Mid, /*Taken=*/false) >= Target - Eps)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  if (Lo == 0)
    return 0.0;
  const double C0 = cum(B, Lo - 1, false);
  const double C1 = cum(B, Lo, false);
  const double F =
      C1 > C0 ? std::clamp((Target - C0) / (C1 - C0), 0.0, 1.0) : 1.0;
  const std::vector<double> &Before = E->EventsBefore;
  return Before[Lo - 1] + F * (Before[Lo] - Before[Lo - 1]);
}

profile::ProfileSnapshot Estimator::estimate(const dbt::DbtOptions &Base,
                                             uint64_t Threshold,
                                             const Curves &C,
                                             FreezeInfo *Info) const {
  assert(!Base.Adaptive.Enabled &&
         "sampled estimation requires a static freeze timeline");
  assert(C.E == this && C.ExcludeGroup < 0 &&
         "point estimates read this estimator's full-sample curves");
  const size_t N = P.numBlocks();
  const size_t S = Segments.size();
  const uint64_t T = Threshold;

  dbt::DbtOptions Opts = Base;
  Opts.Threshold = T;
  dbt::TranslationPolicy Policy(P, G, Opts);

  // Freeze timeline, exactly as core/Trace.cpp evaluateIndexed builds it,
  // with estimated crossing positions. Positions can tie after
  // estimation, so the order is pinned: position, then block, with a
  // block's registration strictly before its own trigger.
  std::vector<profile::BlockCounters> FrozenAt(N);
  std::vector<uint8_t> IsFrozenHere(N, 0);
  std::vector<FreezeInfo::FrozenBlock> FrozenList;
  if (T > 0 && S > 0) {
    struct Crossing {
      double Pos;
      BlockId Block;
      bool Registration;
    };
    std::vector<Crossing> Timeline;
    for (size_t B = 0; B < N; ++B) {
      const uint64_t Use = Final[B].Use;
      if (Use < T)
        continue;
      const auto Id = static_cast<BlockId>(B);
      Timeline.push_back({C.crossingPos(B, T), Id, true});
      if (Use >= 2 * T)
        Timeline.push_back({C.crossingPos(B, 2 * T), Id, false});
    }
    std::sort(Timeline.begin(), Timeline.end(),
              [](const Crossing &A, const Crossing &B) {
                if (A.Pos != B.Pos)
                  return A.Pos < B.Pos;
                if (A.Block != B.Block)
                  return A.Block < B.Block;
                return A.Registration && !B.Registration;
              });

    std::vector<profile::BlockCounters> SharedAt(N);
    auto fireTrigger = [&](double Pos, BlockId CrossBlock,
                           uint64_t CrossUse) {
      for (size_t B = 0; B < N; ++B) {
        uint64_t U = static_cast<uint64_t>(std::llround(
            std::max(0.0, C.valueAt(B, Pos, /*Taken=*/false))));
        uint64_t Tk = static_cast<uint64_t>(std::llround(
            std::max(0.0, C.valueAt(B, Pos, /*Taken=*/true))));
        U = std::min(U, Final[B].Use);
        if (B == CrossBlock)
          U = CrossUse;
        else if (Policy.isInPool(static_cast<BlockId>(B)))
          U = std::max(U, T); // registered: it crossed T before this
        Tk = std::min({Tk, U, Final[B].Taken});
        SharedAt[B] = {U, Tk};
      }
      Policy.analyticTrigger(SharedAt);
      for (BlockId F : Policy.lastFrozen()) {
        FrozenAt[F] = SharedAt[F];
        IsFrozenHere[F] = 1;
        FrozenList.push_back(
            {F, Pos, F == CrossBlock ? CrossUse : 0, false});
      }
    };
    for (const Crossing &X : Timeline) {
      if (Policy.isFrozen(X.Block))
        continue; // froze at an earlier crossing: no further triggers
      if (X.Registration) {
        if (Policy.analyticRegister(X.Block))
          fireTrigger(X.Pos, X.Block, T); // pool reached PoolLimit
      } else if (Policy.isInPool(X.Block)) {
        fireTrigger(X.Pos, X.Block, 2 * T); // registered twice
      }
    }
  }

  // Profiling phase in closed form over the estimated pre-freeze
  // prefixes; with nothing frozen the totals are the exact stream totals.
  uint64_t ProfEvents = 0, ProfTaken = 0;
  double ProfInstsD = 0.0;
  for (size_t B = 0; B < N; ++B) {
    const profile::BlockCounters &Pre =
        IsFrozenHere[B] ? FrozenAt[B] : Final[B];
    ProfEvents += Pre.Use;
    ProfTaken += Pre.Taken;
    ProfInstsD += static_cast<double>(Pre.Use) * EffLen[B];
  }
  const uint64_t ProfInsts =
      FrozenList.empty() ? TotalInsts
                         : static_cast<uint64_t>(std::llround(ProfInstsD));
  Policy.analyticAddProfiling(ProfEvents, ProfTaken, ProfInsts);

  // Post-freeze accounting (the walkOptimized stand-in): occurrences of a
  // frozen block after its freeze run optimized. Blocks outside every
  // region take the off-trace rate through the policy; region members are
  // charged the on-trace rate with no exit penalties — the estimated
  // cycles column is approximate and carries a wide guard in the figures.
  const std::vector<region::Region> &Regions = Policy.regions();
  std::vector<uint8_t> InRegion(N, 0);
  for (const region::Region &R : Regions)
    for (const region::RegionNode &Node : R.Nodes)
      InRegion[Node.Orig] = 1;
  uint64_t OffTraceInsts = 0;
  double MemberInstsD = 0.0;
  for (FreezeInfo::FrozenBlock &FB : FrozenList) {
    FB.InRegion = InRegion[FB.Block] != 0;
    const uint64_t Remain = Final[FB.Block].Use - FrozenAt[FB.Block].Use;
    if (!Remain)
      continue;
    const double RemInsts = static_cast<double>(Remain) * EffLen[FB.Block];
    if (FB.InRegion)
      MemberInstsD += RemInsts;
    else
      OffTraceInsts += static_cast<uint64_t>(std::llround(RemInsts));
  }
  if (OffTraceInsts)
    Policy.analyticOffTraceBlock(OffTraceInsts);
  const uint64_t MemberInsts =
      static_cast<uint64_t>(std::llround(MemberInstsD));

  profile::ProfileSnapshot Snap = Policy.finish(Final, NumEvents, TotalInsts);
  Snap.Cycles += MemberInsts * Opts.Cost.OptPerInst;
  if (Info) {
    Info->Frozen = std::move(FrozenList);
    Info->ProfEvents = ProfEvents;
    Info->ProfTaken = ProfTaken;
    Info->ProfInsts = ProfInsts;
    Info->OffTraceInsts = OffTraceInsts;
    Info->MemberInsts = MemberInsts;
    Info->Point = Snap;
  }
  return Snap;
}

profile::ProfileSnapshot Estimator::replicate(const dbt::DbtOptions &Base,
                                              uint64_t Threshold,
                                              const FreezeInfo &Info,
                                              const Curves &C) const {
  assert(C.E == this && "replicates read this estimator's curves");
  profile::ProfileSnapshot Snap = Info.Point;
  if (Info.Frozen.empty())
    return Snap; // nothing was estimated: the snapshot is exact

  const uint64_t T = Threshold;

  uint64_t ProfEvents = NumEvents, ProfTaken = TakenTotal;
  double ProfInstsD = static_cast<double>(TotalInsts);
  uint64_t OffTraceInsts = 0;
  double MemberInstsD = 0.0;
  for (const FreezeInfo::FrozenBlock &FB : Info.Frozen) {
    const size_t B = FB.Block;
    uint64_t U = FB.Forced
                     ? FB.Forced
                     : static_cast<uint64_t>(std::llround(std::max(
                           0.0, C.valueAt(B, FB.Pos, /*Taken=*/false))));
    if (!FB.Forced)
      U = std::min(std::max(U, T), Final[B].Use); // it was in the pool
    uint64_t Tk = static_cast<uint64_t>(std::llround(
        std::max(0.0, C.valueAt(B, FB.Pos, /*Taken=*/true))));
    Tk = std::min({Tk, U, Final[B].Taken});
    Snap.Blocks[B] = {U, Tk};

    const uint64_t Remain = Final[B].Use - U;
    ProfEvents -= Remain;
    ProfTaken -= Final[B].Taken - Tk;
    const double RemInsts = static_cast<double>(Remain) * EffLen[B];
    ProfInstsD -= RemInsts;
    if (FB.InRegion)
      MemberInstsD += RemInsts;
    else
      OffTraceInsts += static_cast<uint64_t>(std::llround(RemInsts));
  }
  const uint64_t ProfInsts =
      static_cast<uint64_t>(std::llround(std::max(0.0, ProfInstsD)));
  const uint64_t MemberInsts =
      static_cast<uint64_t>(std::llround(MemberInstsD));

  // Swap the point estimate's counter-dependent components for the
  // replicate's; everything structure-dependent (region optimize cost,
  // singleton closed forms, the frozen set itself) carries over inside
  // Point unchanged.
  const dbt::CostParams &Cost = Base.Cost;
  const auto Signed = [](uint64_t A) { return static_cast<int64_t>(A); };
  int64_t Cycles = Signed(Info.Point.Cycles);
  Cycles += (Signed(ProfInsts) - Signed(Info.ProfInsts)) *
            Signed(Cost.ColdPerInst);
  Cycles += (Signed(ProfEvents) - Signed(Info.ProfEvents)) *
            Signed(Cost.ProfilePerBlock);
  Cycles += (Signed(OffTraceInsts) - Signed(Info.OffTraceInsts)) *
            Signed(Cost.OptOffTracePerInst);
  Cycles += (Signed(MemberInsts) - Signed(Info.MemberInsts)) *
            Signed(Cost.OptPerInst);
  Snap.Cycles = static_cast<uint64_t>(std::max<int64_t>(Cycles, 0));
  Snap.ProfilingOps = ProfEvents + ProfTaken;
  return Snap;
}

profile::ProfileSnapshot
Estimator::average(const dbt::DbtOptions &Base) const {
  return dbt::profilingAverage(P, G, Base, Final, NumEvents, TakenTotal,
                               TotalInsts);
}
