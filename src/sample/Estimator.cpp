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
  assert(std::is_sorted(this->Plan.Chosen.begin(), this->Plan.Chosen.end()) &&
         "the curve tables sum each block's segments in ascending order");
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
    : E(&E), ExcludeGroup(ExcludeGroup), Stride(E.Segments.size() + 1) {
  const size_t N = E.P.numBlocks();
  const size_t S = E.Segments.size();
  const size_t H = E.Plan.NumStrata;

  // The view: which chosen segments count as decoded, and the per-stratum
  // unsampled-event prefix sums the imputation spreads mass over.
  std::vector<uint8_t> InView(S, 0);
  std::vector<double> SampledEvents(H, 0.0);
  // StratumUnsampled[h * (S + 1) + k]: events of stratum h's unsampled
  // (in this view) segments before segment k.
  std::vector<double> StratumUnsampled(H * (S + 1), 0.0);
  // All unsampled events before segment k.
  std::vector<double> UnsampledBefore(S + 1, 0.0);
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

  // Per block: the calibrated rates over that view, then the curve at
  // every boundary. Each cell sums exactly as a per-query walk would — the
  // in-view sampled prefix in ascending segment order (SampledOf is), the
  // stratum terms in stratum order, then C + alpha * Raw + fb * U — so a
  // table load is bit-identical to recomputing the cell.
  const double TotalUnsampled = S ? UnsampledBefore[S] : 0.0;
  CumU.assign(N * Stride, 0.0);
  CumT.assign(N * Stride, 0.0);
  std::vector<double> RateU(H), RateT(H);
  for (size_t B = 0; B < N; ++B) {
    std::fill(RateU.begin(), RateU.end(), 0.0);
    std::fill(RateT.begin(), RateT.end(), 0.0);
    double SeenU = 0.0, SeenT = 0.0;
    for (const SampledSeg &Sg : E.SampledOf[B]) {
      if (!InView[Sg.Seg])
        continue;
      const size_t Ph = E.Plan.StratumOf[Sg.Seg];
      RateU[Ph] += static_cast<double>(Sg.Use);
      RateT[Ph] += static_cast<double>(Sg.Taken);
      SeenU += static_cast<double>(Sg.Use);
      SeenT += static_cast<double>(Sg.Taken);
    }
    double RawU = 0.0, RawT = 0.0;
    for (size_t Ph = 0; Ph < H; ++Ph) {
      if (SampledEvents[Ph] > 0.0) {
        RateU[Ph] /= SampledEvents[Ph];
        RateT[Ph] /= SampledEvents[Ph];
      }
      const double Un = StratumUnsampled[Ph * (S + 1) + S];
      RawU += RateU[Ph] * Un;
      RawT += RateT[Ph] * Un;
    }
    const double RemU = static_cast<double>(E.Final[B].Use) - SeenU;
    const double RemT = static_cast<double>(E.Final[B].Taken) - SeenT;
    double AlphaU = 0.0, AlphaT = 0.0, FbU = 0.0, FbT = 0.0;
    if (RawU > 1e-12)
      AlphaU = RemU / RawU;
    else if (TotalUnsampled > 0.0)
      FbU = RemU / TotalUnsampled;
    if (RawT > 1e-12)
      AlphaT = RemT / RawT;
    else if (TotalUnsampled > 0.0)
      FbT = RemT / TotalUnsampled;

    double *RowU = CumU.data() + B * Stride;
    double *RowT = CumT.data() + B * Stride;
    const std::vector<SampledSeg> &Own = E.SampledOf[B];
    size_t Next = 0;
    double CU = 0.0, CT = 0.0;
    for (size_t K = 0; K <= S; ++K) {
      // Fold in the in-view segments before boundary K.
      for (; Next < Own.size() && Own[Next].Seg < K; ++Next)
        if (InView[Own[Next].Seg]) {
          CU += static_cast<double>(Own[Next].Use);
          CT += static_cast<double>(Own[Next].Taken);
        }
      double ImpU = 0.0, ImpT = 0.0;
      for (size_t Ph = 0; Ph < H; ++Ph) {
        ImpU += RateU[Ph] * StratumUnsampled[Ph * (S + 1) + K];
        ImpT += RateT[Ph] * StratumUnsampled[Ph * (S + 1) + K];
      }
      RowU[K] = CU + AlphaU * ImpU + FbU * UnsampledBefore[K];
      RowT[K] = CT + AlphaT * ImpT + FbT * UnsampledBefore[K];
    }
  }
}

Estimator::Curves Estimator::curves(int ExcludeGroup) const {
  return Curves(*this, ExcludeGroup);
}

Estimator::Curves::At Estimator::Curves::locate(double Pos) const {
  const size_t S = Stride - 1;
  assert(S > 0 && "a position lies inside some segment");
  const std::vector<double> &Before = E->EventsBefore;
  size_t K = static_cast<size_t>(
      std::upper_bound(Before.begin(), Before.end(), Pos) - Before.begin());
  K = std::min(K > 0 ? K - 1 : 0, S - 1);
  const double Width = Before[K + 1] - Before[K];
  const double F =
      Width > 0.0 ? std::clamp((Pos - Before[K]) / Width, 0.0, 1.0) : 1.0;
  return {K, F};
}

/// Linear interpolation within a segment turns the boundary values into a
/// continuous, monotone per-block counter curve over event positions.
double Estimator::Curves::valueAt(size_t B, At A, bool Taken) const {
  const double *Row = (Taken ? CumT : CumU).data() + B * Stride + A.K;
  const double C0 = Row[0];
  const double C1 = Row[1];
  return C0 + A.F * (C1 - C0);
}

/// Binary search over segment boundaries, interpolation inside.
double Estimator::Curves::crossingPos(size_t B, uint64_t J) const {
  const size_t S = Stride - 1;
  const double *Row = CumU.data() + B * Stride;
  const double Target = static_cast<double>(J);
  const double Eps = 1e-7 * Target + 1e-9;
  size_t Lo = 0, Hi = S;
  while (Lo < Hi) {
    const size_t Mid = (Lo + Hi) / 2;
    if (Row[Mid] >= Target - Eps)
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  if (Lo == 0)
    return 0.0;
  const double C0 = Row[Lo - 1];
  const double C1 = Row[Lo];
  const double F =
      C1 > C0 ? std::clamp((Target - C0) / (C1 - C0), 0.0, 1.0) : 1.0;
  const std::vector<double> &Before = E->EventsBefore;
  return Before[Lo - 1] + F * (Before[Lo] - Before[Lo - 1]);
}

profile::ProfileSnapshot Estimator::estimate(const dbt::DbtOptions &Base,
                                             uint64_t Threshold,
                                             const Curves &C,
                                             FreezeInfo *Info) const {
  assert(C.E == this && C.ExcludeGroup < 0 &&
         "point estimates read this estimator's full-sample curves");
  const size_t N = P.numBlocks();

  dbt::DbtOptions Opts = Base;
  Opts.Threshold = Threshold;
  dbt::TranslationPolicy Policy(P, G, Opts);

  // The policy's freeze timeline over estimated sources: a crossing is
  // the use curve's inverse, and a trigger's counters are both curves at
  // its position (located once for every block), rounded. The timeline's
  // clamps pin what the estimate cannot know.
  std::vector<dbt::FrozenBlock> Frozen = Policy.freezeTimeline(
      Final, [&](BlockId B, uint64_t J) { return C.crossingPos(B, J); },
      [&](double Pos, std::vector<profile::BlockCounters> &Out) {
        const Curves::At At = C.locate(Pos);
        auto value = [&](size_t B, bool Taken) {
          return static_cast<uint64_t>(
              std::llround(std::max(0.0, C.valueAt(B, At, Taken))));
        };
        for (size_t B = 0; B < N; ++B)
          Out[B] = {value(B, /*Taken=*/false), value(B, /*Taken=*/true)};
      });

  // Profiling phase in closed form over the estimated pre-freeze
  // prefixes; with nothing frozen the totals are the exact stream totals.
  std::vector<profile::BlockCounters> Pre = Final;
  for (const dbt::FrozenBlock &F : Frozen)
    Pre[F.Block] = F.At;
  uint64_t ProfEvents = 0, ProfTaken = 0;
  double ProfInstsD = 0.0;
  for (size_t B = 0; B < N; ++B) {
    ProfEvents += Pre[B].Use;
    ProfTaken += Pre[B].Taken;
    ProfInstsD += static_cast<double>(Pre[B].Use) * EffLen[B];
  }
  const uint64_t ProfInsts =
      Frozen.empty() ? TotalInsts
                     : static_cast<uint64_t>(std::llround(ProfInstsD));
  Policy.analyticAddProfiling(ProfEvents, ProfTaken, ProfInsts);

  // Post-freeze accounting (the walkOptimized stand-in): occurrences of a
  // frozen block after its freeze run optimized. Every frozen block is a
  // region member (Policy.h analytic section), charged the on-trace rate
  // with no exit penalties — the estimated cycles column is approximate
  // and carries a wide guard in the figures.
  double MemberInstsD = 0.0;
  for (const dbt::FrozenBlock &F : Frozen)
    MemberInstsD += static_cast<double>(Final[F.Block].Use - F.At.Use) *
                    EffLen[F.Block];
  const uint64_t MemberInsts =
      static_cast<uint64_t>(std::llround(MemberInstsD));

  profile::ProfileSnapshot Snap = Policy.finish(Final, NumEvents, TotalInsts);
  Snap.Cycles += MemberInsts * Opts.Cost.OptPerInst;
  if (Info) {
    Info->Frozen = std::move(Frozen);
    Info->ProfEvents = ProfEvents;
    Info->ProfTaken = ProfTaken;
    Info->ProfInsts = ProfInsts;
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
  double MemberInstsD = 0.0;
  for (const dbt::FrozenBlock &FB : Info.Frozen) {
    const size_t B = FB.Block;
    // A frozen block froze at a trigger, and triggers need a segment.
    const Curves::At At = C.locate(FB.Pos);
    uint64_t U = FB.At.Use; // the crossing block's forced T or 2T
    if (!FB.Crossing) {
      U = static_cast<uint64_t>(std::llround(
          std::max(0.0, C.valueAt(B, At, /*Taken=*/false))));
      U = std::min(std::max(U, T), Final[B].Use); // it was in the pool
    }
    uint64_t Tk = static_cast<uint64_t>(std::llround(
        std::max(0.0, C.valueAt(B, At, /*Taken=*/true))));
    Tk = std::min({Tk, U, Final[B].Taken});
    Snap.Blocks[B] = {U, Tk};

    const uint64_t Remain = Final[B].Use - U;
    ProfEvents -= Remain;
    ProfTaken -= Final[B].Taken - Tk;
    const double RemInsts = static_cast<double>(Remain) * EffLen[B];
    ProfInstsD -= RemInsts;
    MemberInstsD += RemInsts;
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
  Cycles += (Signed(MemberInsts) - Signed(Info.MemberInsts)) *
            Signed(Cost.OptPerInst);
  Snap.Cycles = static_cast<uint64_t>(std::max<int64_t>(Cycles, 0));
  Snap.ProfilingOps = ProfEvents + ProfTaken;
  return Snap;
}
