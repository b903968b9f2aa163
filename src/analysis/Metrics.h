//===- analysis/Metrics.h - The paper's accuracy metrics --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The accuracy metrics of Sections 2 and 4:
///
///  - Sd.BP: frequency-weighted standard deviation of branch probabilities
///    between a prediction (INIP(T) or INIP(train)) and AVEP (Section 2.1)
///  - Sd.CP: weighted SD of non-loop region completion probabilities
///    (Section 2.2)
///  - Sd.LP: weighted SD of loop-back probabilities (Section 2.3)
///  - range-based branch-probability mismatch over [0,.3) [.3,.7] (.7,1]
///    (Section 4.1)
///  - trip-count-class mismatch over LP ranges [0,.9) [.9,.98] (.98,1],
///    i.e. trip counts <10, 10..50, >50 (Section 4.3)
///
/// All weights come from AVEP block frequencies, as in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_ANALYSIS_METRICS_H
#define TPDBT_ANALYSIS_METRICS_H

#include "analysis/Navep.h"
#include "cfg/Cfg.h"
#include "profile/Profile.h"

namespace tpdbt {
namespace analysis {

/// The Section 4.1 branch-probability ranges used for the "match"
/// classification.
enum class BpRange : uint8_t { Low, Mid, High };

/// Classifies a branch probability: [0,.3) -> Low, [.3,.7] -> Mid,
/// (.7,1] -> High.
BpRange classifyBp(double P);

/// The Section 4.3 trip-count classes derived from loop-back probability.
enum class TripClass : uint8_t { Low, Median, High };

/// Classifies a loop-back probability: [0,.9) -> Low (trip count < 10),
/// [.9,.98] -> Median (10..50), (.98,1] -> High (> 50).
TripClass classifyTrip(double Lp);

/// The five Section 2 / Section 4 metrics of one prediction against
/// AVEP.
struct AccuracyMetrics {
  double SdBp = 0.0;
  double BpMismatch = 0.0;
  double SdCp = 0.0;
  double SdLp = 0.0;
  double LpMismatch = 0.0;
};

/// Every metric of \p Pred against \p Avep in one pass: one walk over the
/// comparable branches feeds Sd.BP and the BP mismatch, and one walk over
/// \p Pred's regions feeds Sd.CP, and, from one loop-back probability per
/// side and loop region, Sd.LP and the LP mismatch. The single-metric
/// functions below return one field of it.
AccuracyMetrics accuracyMetrics(const profile::ProfileSnapshot &Pred,
                                const profile::ProfileSnapshot &Avep,
                                const cfg::Cfg &G);

/// Sd.BP between \p Pred and \p Avep over blocks ending in conditional
/// branches that executed in both runs; weights are AVEP use counts.
double sdBranchProb(const profile::ProfileSnapshot &Pred,
                    const profile::ProfileSnapshot &Avep, const cfg::Cfg &G);

/// Sd.BP computed the fully-normalized way: over NAVEP copies with solved
/// copy frequencies as weights (Section 3.1 / Figure 5). Mathematically
/// this equals sdBranchProb whenever the copy frequencies of each block
/// sum to its AVEP frequency; the unit tests assert that property.
double sdBranchProbNavep(const profile::ProfileSnapshot &Inip,
                         const profile::ProfileSnapshot &Avep,
                         const cfg::Cfg &G, const Navep &N);

/// Weighted rate of branch probabilities classified into different
/// Section 4.1 ranges by \p Pred and \p Avep.
double bpMismatchRate(const profile::ProfileSnapshot &Pred,
                      const profile::ProfileSnapshot &Avep,
                      const cfg::Cfg &G);

/// Sd.CP between the INIP regions' completion probabilities under INIP
/// probabilities (CT) and under AVEP probabilities (CM); weights are AVEP
/// use counts of the region entry blocks. Returns 0 when the snapshot has
/// no non-loop regions.
double sdCompletionProb(const profile::ProfileSnapshot &Inip,
                        const profile::ProfileSnapshot &Avep,
                        const cfg::Cfg &G);

/// Sd.LP between loop regions' loop-back probabilities (LT vs LM),
/// entry-frequency weighted. Returns 0 when the snapshot has no loop
/// regions.
double sdLoopBackProb(const profile::ProfileSnapshot &Inip,
                      const profile::ProfileSnapshot &Avep,
                      const cfg::Cfg &G);

/// Weighted rate of loop regions whose LT and LM fall into different trip
/// count classes.
double lpMismatchRate(const profile::ProfileSnapshot &Inip,
                      const profile::ProfileSnapshot &Avep,
                      const cfg::Cfg &G);

/// Number of non-loop / loop regions in a snapshot.
size_t countRegions(const profile::ProfileSnapshot &S,
                    region::RegionKind Kind);

} // namespace analysis
} // namespace tpdbt

#endif // TPDBT_ANALYSIS_METRICS_H
