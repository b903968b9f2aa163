//===- sample/SampledReplay.cpp - Stratified sampled sweep -----------------===//

#include "sample/SampledReplay.h"

#include "cfg/Cfg.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace tpdbt;
using namespace tpdbt::sample;
using core::SegmentedTraceHeader;

double tpdbt::sample::tQuantile95(unsigned Df) {
  static const double Table[30] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (Df == 0)
    return Table[0];
  return Df <= 30 ? Table[Df - 1] : 1.96;
}

double tpdbt::sample::jackknife95(const std::vector<double> &Replicates,
                                  double SampledFrac) {
  const size_t G = Replicates.size();
  if (G < 2)
    return 0.0;
  double Mean = 0.0;
  for (double V : Replicates)
    Mean += V;
  Mean /= static_cast<double>(G);
  double Sq = 0.0;
  for (double V : Replicates)
    Sq += (V - Mean) * (V - Mean);
  const double Var = Sq * static_cast<double>(G - 1) / static_cast<double>(G);
  const double F = std::min(std::max(SampledFrac, 0.05), 1.0);
  const double Fpc = std::sqrt(std::max(0.0, 1.0 - F)) / F;
  return tQuantile95(static_cast<unsigned>(G - 1)) * std::sqrt(Var) * Fpc;
}

namespace {

/// Segment \p I's directory statistics: its event count, and its
/// instruction and taken-branch sums as the difference of neighbouring
/// bases (the last segment ends on the header's totals).
SegmentStats segmentStats(const SegmentedTraceHeader &H, size_t I,
                          uint64_t TakenTotal) {
  const SegmentedTraceHeader::Entry &E = H.Directory[I];
  const bool Last = I + 1 == H.Directory.size();
  SegmentStats S;
  S.Events = E.Events;
  S.Insts = (Last ? H.TotalInsts : H.Directory[I + 1].BaseInsts) - E.BaseInsts;
  S.Taken = (Last ? TakenTotal : H.Directory[I + 1].BaseTaken) - E.BaseTaken;
  return S;
}

/// Draws segment \p I as per-block totals: from the reader's memo when it
/// holds the segment, otherwise folded into \p Table (scratch sized to
/// the block count) in the decode pass and memoized.
bool drawSegment(core::SegmentedTraceReader &Reader, size_t I,
                 std::vector<profile::BlockCounters> &Table,
                 SegmentProfile &Out, std::string *Error) {
  core::SegmentProfileMemo *Memo = Reader.memo();
  if (Memo && Memo->lookup(Reader.header(), I, Out))
    return true;
  std::fill(Table.begin(), Table.end(), profile::BlockCounters());
  if (!Reader.readSegment(I, nullptr, &Table, Error))
    return false;
  Out.Entries.clear();
  for (size_t B = 0; B < Table.size(); ++B)
    if (Table[B].Use)
      Out.Entries.push_back(
          {static_cast<guest::BlockId>(B), Table[B].Use, Table[B].Taken});
  if (Memo)
    Memo->store(Reader.header(), I, Out);
  return true;
}

} // namespace

bool tpdbt::sample::sampledSweep(core::SegmentedTraceReader &Reader,
                                 const guest::Program &P,
                                 const std::vector<uint64_t> &Thresholds,
                                 const dbt::DbtOptions &Base,
                                 const SampleConfig &Cfg, uint64_t Seed,
                                 unsigned Jobs, SampledSweep &Out,
                                 std::string *Error) {
  if (Base.Adaptive.Enabled) {
    if (Error)
      *Error = "sampled replay does not support adaptive policies";
    return false;
  }
  const SegmentedTraceHeader &H = Reader.header();
  const uint64_t TakenTotal = H.takenEvents();
  const size_t S = Reader.numSegments();
  std::vector<SegmentStats> Stats(S);
  for (size_t I = 0; I < S; ++I)
    Stats[I] = segmentStats(H, I, TakenTotal);

  const PhaseAssignment Phases = detectSegmentPhases(Stats, Cfg.MaxPhases);
  SamplePlan Plan =
      planSample(Stats, Phases, Cfg.BudgetFrac, Seed, Cfg.Groups);

  std::vector<SegmentProfile> Decoded(Plan.Chosen.size());
  std::vector<profile::BlockCounters> Table(H.NumBlocks);
  for (size_t C = 0; C < Plan.Chosen.size(); ++C)
    if (!drawSegment(Reader, Plan.Chosen[C], Table, Decoded[C], Error))
      return false;

  Out.Stats.Segments = S;
  Out.Stats.Decoded = Plan.Chosen.size();
  Out.Stats.Strata = Plan.NumStrata;
  Out.Stats.Groups = Plan.NumGroups;
  Out.Stats.TotalEvents = H.NumEvents;
  Out.Stats.DecodedEvents = 0;
  for (uint32_t I : Plan.Chosen)
    Out.Stats.DecodedEvents += Stats[I].Events;

  const cfg::Cfg G(P); // Estimator keeps a reference; must outlive it
  const Estimator Est(P, G, std::move(Stats), H.Final, H.NumEvents,
                      H.TotalInsts, TakenTotal, std::move(Plan),
                      std::move(Decoded));

  // Duplicate thresholds share one estimation unit, as in replaySweep.
  std::vector<uint64_t> Unique;
  std::vector<size_t> SlotOf(Thresholds.size());
  {
    std::map<uint64_t, size_t> Seen;
    for (size_t I = 0; I < Thresholds.size(); ++I) {
      auto It = Seen.find(Thresholds[I]);
      if (It == Seen.end()) {
        It = Seen.emplace(Thresholds[I], Unique.size()).first;
        Unique.push_back(Thresholds[I]);
      }
      SlotOf[I] = It->second;
    }
  }

  // Point estimates first (each captures its freeze structure), then one
  // replicate unit per (group, unique threshold) re-estimating only the
  // freeze-time counters against that structure. All units are pure const
  // calls written by index, so results are identical at any job count.
  const uint32_t Groups = Est.numGroups() >= 2 ? Est.numGroups() : 0;
  const size_t U = Unique.size();
  std::vector<profile::ProfileSnapshot> Points(U);
  std::vector<FreezeInfo> Infos(U);
  parallelFor(U, Jobs, [&](size_t I) {
    Points[I] = Est.estimate(Base, Unique[I], &Infos[I]);
  });
  std::vector<profile::ProfileSnapshot> Reps(Groups * U);
  parallelFor(Reps.size(), Jobs, [&](size_t Unit) {
    const int Group = static_cast<int>(Unit / U);
    const size_t I = Unit % U;
    Reps[Unit] = Est.replicate(Base, Unique[I], Infos[I], Group);
  });

  Out.PerThreshold.resize(Thresholds.size());
  for (size_t I = 0; I < Thresholds.size(); ++I)
    Out.PerThreshold[I] = Points[SlotOf[I]];
  Out.Average = Est.average(Base);
  Out.Replicates.assign(Groups, {});
  for (uint32_t Gr = 0; Gr < Groups; ++Gr) {
    Out.Replicates[Gr].resize(Thresholds.size());
    for (size_t I = 0; I < Thresholds.size(); ++I)
      Out.Replicates[Gr][I] = Reps[Gr * U + SlotOf[I]];
  }
  return true;
}
