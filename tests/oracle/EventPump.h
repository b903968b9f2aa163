//===- tests/oracle/EventPump.h - Plain event-pump replay oracle -*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing oracle for core::replaySweep: a replay that
/// feeds every recorded event to every policy, the way a live
/// dbt::DbtEngine does. It shares none of the analytic replay's code (no
/// crossing table, freeze timeline or closed form), and it also runs
/// adaptive policies, which the analytic replay refuses, so tests can pin
/// it against live adaptive engines.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_TESTS_ORACLE_EVENTPUMP_H
#define TPDBT_TESTS_ORACLE_EVENTPUMP_H

#include "core/Trace.h"

namespace tpdbt {
namespace core {

/// The plain reference pump: bumps the shared counters for each trace
/// event, then feeds the event to every policy — one per threshold and
/// the threshold-0 policy for Average, all pumped alike.
SweepResult replaySweepEvents(const BlockTrace &Trace,
                              const guest::Program &P,
                              const std::vector<uint64_t> &Thresholds,
                              const dbt::DbtOptions &Base);

} // namespace core
} // namespace tpdbt

#endif // TPDBT_TESTS_ORACLE_EVENTPUMP_H
