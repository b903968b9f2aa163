//===- sched/MachineModel.h - VLIW-ish machine description ------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small in-order machine model for region scheduling, flavoured after
/// the paper's 900 MHz Itanium2 testbed: an issue width, a handful of
/// functional-unit classes, and per-opcode latencies. The paper's
/// Section 4.4 notes that prediction accuracy alone does not determine
/// performance — "other factors, such as the ILP available in the code" —
/// and this model is what makes that factor measurable (sched/RegionIlp.h,
/// bench/ext_ilp).
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_SCHED_MACHINEMODEL_H
#define TPDBT_SCHED_MACHINEMODEL_H

#include "guest/Isa.h"

#include <array>
#include <cstdint>

namespace tpdbt {
namespace sched {

/// Functional-unit classes.
enum class UnitKind : uint8_t { Int, Mem, Fp, Branch };
constexpr size_t NumUnitKinds = 4;

/// In-order issue machine: total issue width plus per-class unit counts.
struct MachineModel {
  unsigned IssueWidth = 6;
  /// Units available per UnitKind (Int, Mem, Fp, Branch).
  std::array<unsigned, NumUnitKinds> Units = {6, 4, 2, 3};

  /// Itanium2-flavoured defaults (6-issue, 4 memory ports modelled
  /// generously, 2 FP units).
  static MachineModel itanium2Like() { return MachineModel(); }

  /// Single-issue in-order machine: the scheduling baseline (ILP = 1).
  static MachineModel scalar() {
    MachineModel M;
    M.IssueWidth = 1;
    M.Units = {1, 1, 1, 1};
    return M;
  }

  unsigned unitsFor(UnitKind K) const {
    return Units[static_cast<size_t>(K)];
  }
};

/// Functional-unit class of an opcode.
UnitKind unitFor(guest::Opcode Op);

/// Result latency of an opcode in cycles (>= 1).
unsigned latencyOf(guest::Opcode Op);

/// Unit class / latency of a block terminator (branches).
inline UnitKind terminatorUnit() { return UnitKind::Branch; }
inline unsigned terminatorLatency() { return 1; }

} // namespace sched
} // namespace tpdbt

#endif // TPDBT_SCHED_MACHINEMODEL_H
