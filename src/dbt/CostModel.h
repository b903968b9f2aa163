//===- dbt/CostModel.h - Cycle accounting for the translator ----*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle-accounting model standing in for the paper's 900 MHz Itanium2
/// measurements (Figure 17). The model captures exactly the effects the
/// paper names: cold (instrumented) execution is slow; optimized region
/// execution is fast while control stays on the region's expected paths;
/// side exits of mis-predicted regions are expensive; and optimization
/// itself costs time proportional to the amount of retranslated code.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_DBT_COSTMODEL_H
#define TPDBT_DBT_COSTMODEL_H

#include <cstdint>

namespace tpdbt {
namespace dbt {

/// Cost parameters, in cycles. Defaults are calibrated so that the
/// Figure 17 reproduction peaks at thresholds around 1k-5k (see
/// EXPERIMENTS.md).
struct CostParams {
  /// Per guest instruction when executed by the profiling-phase (cold,
  /// instrumented) translation.
  uint64_t ColdPerInst = 10;
  /// Per block execution while the block is still instrumented (counter
  /// updates).
  uint64_t ProfilePerBlock = 6;
  /// Per guest instruction when executed inside an optimized region along
  /// expected paths.
  uint64_t OptPerInst = 4;
  /// Per guest instruction when executing an optimized block outside any
  /// region context (e.g. after a side exit landed in the middle of
  /// another region's code).
  uint64_t OptOffTracePerInst = 6;
  /// Charged when a non-loop region is left before reaching its last node.
  uint64_t SideExitPenalty = 400;
  /// Charged when a loop region is left (loops must exit eventually; the
  /// cost is amortized over iterations).
  uint64_t LoopExitPenalty = 40;
  /// One-time retranslation cost per static guest instruction placed in a
  /// region.
  uint64_t OptimizePerInst = 15000;
};

/// Running cycle account for one execution.
struct CostAccount {
  uint64_t Cycles = 0;
  uint64_t ColdInsts = 0;
  uint64_t OptInsts = 0;
  uint64_t OffTraceInsts = 0;
  uint64_t SideExits = 0;
  uint64_t LoopExits = 0;
  uint64_t RegionsOptimized = 0;
  uint64_t OptimizeCycles = 0;
};

} // namespace dbt
} // namespace tpdbt

#endif // TPDBT_DBT_COSTMODEL_H
