//===- core/Runner.cpp - Multi-threshold sweep execution -------------------===//

#include "core/Runner.h"

#include "core/Trace.h"
#include "vm/HostTier.h"
#include "vm/Interpreter.h"

#include <cassert>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::guest;

namespace {

/// Fused record+replay for sweeps needing at most one policy: interpret
/// once and pump the (at most one) policy directly from the live event
/// stream, with the profiling-only snapshot folded into closed form from
/// the run totals. Skipping the trace materialization restores the
/// single-pass cost for cache-off single-threshold runs; the result is
/// byte-identical to record-then-replay of the same execution.
SweepResult runFused(const Program &P, const std::vector<uint64_t> &Thresholds,
                     const dbt::DbtOptions &Base, uint64_t MaxBlocks) {
  cfg::Cfg G(P);
  std::unique_ptr<dbt::TranslationPolicy> Policy;
  if (!Thresholds.empty()) {
    dbt::DbtOptions Opts = Base;
    Opts.Threshold = Thresholds.front();
    Policy = std::make_unique<dbt::TranslationPolicy>(P, G, Opts);
  }

  std::vector<profile::BlockCounters> Shared(P.numBlocks());
  uint64_t TakenEvents = 0;
  vm::Interpreter Interp(P);
  vm::Machine M;
  M.reset(P);
  auto OnEvent = [&](BlockId B, const vm::BlockResult &R) {
    profile::BlockCounters &Cnt = Shared[B];
    ++Cnt.Use;
    if (R.IsCondBranch && R.Taken) {
      ++Cnt.Taken;
      ++TakenEvents;
    }
    if (Policy)
      Policy->onBlockEvent(B, R, Shared);
  };
  // The host tier batches interpretation (the policy still sees every
  // event, in order, through the expanding sink); TPDBT_TIER=plain
  // falls back to the plain pump.
  vm::RunOutcome Out;
  if (vm::HostTier::enabled()) {
    vm::HostTier Tier(Interp);
    Out = Tier.run(M, MaxBlocks, vm::HostTier::expanding(OnEvent));
  } else {
    Out = Interp.run(M, MaxBlocks, OnEvent);
  }

  SweepResult Res;
  if (Policy) {
    profile::ProfileSnapshot S =
        Policy->finish(Shared, Out.BlocksExecuted, Out.InstsExecuted);
    // Duplicate thresholds all receive the shared evaluation.
    Res.PerThreshold.assign(Thresholds.size(), S);
  }
  Res.Average = dbt::profilingAverage(P, G, Base, Shared, Out.BlocksExecuted,
                                      TakenEvents, Out.InstsExecuted);
  return Res;
}

} // namespace

SweepResult tpdbt::core::runSweep(const Program &P,
                                  const std::vector<uint64_t> &Thresholds,
                                  const dbt::DbtOptions &Base,
                                  uint64_t MaxBlocks) {
#ifndef NDEBUG
  for (uint64_t T : Thresholds)
    assert(T > 0 && "sweep thresholds must be positive; the average run is "
                    "always produced");
#endif
  size_t UniqueThresholds = 0;
  for (size_t I = 0; I < Thresholds.size(); ++I) {
    size_t J = 0;
    while (J < I && Thresholds[J] != Thresholds[I])
      ++J;
    if (J == I)
      ++UniqueThresholds;
  }
  // One policy (or none) needs no trace to share across policies: fuse
  // record and replay into a single streaming pass.
  if (UniqueThresholds <= 1)
    return runFused(P, Thresholds, Base, MaxBlocks);

  // Trace-first execution: interpret once into a block-event trace (the
  // single expensive pass), then derive every policy from the trace
  // analytically. The split keeps one interpretation loop in the
  // codebase, lets replaySweep evaluate each threshold from the trace
  // index, and makes the recorded trace reusable by the experiment-level
  // trace cache.
  BlockTrace Trace = BlockTrace::record(P, MaxBlocks);
  return replaySweep(Trace, P, Thresholds, Base);
}
