//===- region/RegionFormer.h - Optimization-phase region formation -*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region formation for the optimization phase.
///
/// Mirrors the strategy the paper attributes to IA32EL: the optimization
/// phase uses taken/use branch probabilities of the candidate blocks to
/// grow regions (hyperblock-like regions and hyperblock loops [15], trace
/// selection with a minimum branch probability [5]). Growth follows the
/// most likely successor while its probability is at least MinBranchProb;
/// balanced diamonds (both sides likely) are absorbed whole, which creates
/// the Figure 6/7 shapes; a likely edge returning to the region entry
/// turns the region into a loop region. The same original block may be
/// included in multiple regions (tail duplication) — the behaviour that
/// forces NAVEP normalization in Section 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_REGION_REGIONFORMER_H
#define TPDBT_REGION_REGIONFORMER_H

#include "cfg/Cfg.h"
#include "region/Region.h"

#include <vector>

namespace tpdbt {
namespace region {

/// Tuning knobs for region formation (ablated in bench/ablation_*).
struct FormationOptions {
  /// Minimum probability for following an edge during trace growth
  /// (the 70% "minimum branch probability" of [5]).
  double MinBranchProb = 0.7;
  /// Diamonds are absorbed when the likelier side is below MinBranchProb
  /// but at least this probable (i.e. genuinely two-sided branches).
  double DiamondLowProb = 0.3;
  /// Upper bound on nodes per region.
  size_t MaxRegionBlocks = 24;
  /// Absorb balanced diamonds (hyperblock-style if-conversion shapes).
  bool EnableDiamonds = true;
  /// Allow an original block to be duplicated into multiple regions. When
  /// false, growth stops at blocks that already belong to some region of
  /// this round.
  bool AllowDuplication = true;
};

/// Forms regions from candidate-pool seeds.
///
/// Growth never continues *into* a natural-loop header (other than back to
/// the seed itself): loop headers are left to seed their own hyperblock
/// loops, the way IA32EL forms loop regions separately from traces. This
/// matters most at tiny thresholds, where a single-sample profile would
/// otherwise bury hot loop bodies in the middle of bogus trace regions.
class RegionFormer {
public:
  RegionFormer(const cfg::Cfg &G, FormationOptions Opts);

  /// Forms one region per seed (seeds already absorbed into an earlier
  /// region of this call are skipped, so the result may be shorter than
  /// \p Seeds).
  ///
  /// \param Seeds candidate blocks in registration order.
  /// \param TakenProb per-block taken probability (index = BlockId); only
  ///        read for blocks ending in conditional branches.
  /// \param Eligible per-block flag: true when the block may be placed in
  ///        a region (it is a candidate and not yet optimized).
  std::vector<Region> form(const std::vector<guest::BlockId> &Seeds,
                           const std::vector<double> &TakenProb,
                           const std::vector<bool> &Eligible) const;

  /// Grows the single region seeded at \p Seed. \p Covered is updated with
  /// the original blocks placed into the region.
  Region growFrom(guest::BlockId Seed, const std::vector<double> &TakenProb,
                  const std::vector<bool> &Eligible,
                  std::vector<bool> &Covered) const;

  /// True when \p B is the header of a natural loop of the program CFG.
  bool isLoopHeader(guest::BlockId B) const { return G.isLoopHeader(B); }

private:
  const cfg::Cfg &G;
  FormationOptions Opts;
};

} // namespace region
} // namespace tpdbt

#endif // TPDBT_REGION_REGIONFORMER_H
