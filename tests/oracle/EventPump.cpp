//===- tests/oracle/EventPump.cpp - Plain event-pump replay oracle ---------===//

#include "oracle/EventPump.h"

#include "cfg/Cfg.h"

#include <cassert>
#include <memory>

using namespace tpdbt;
using namespace tpdbt::core;

namespace {

vm::BlockResult resultOf(const TraceEvent &E) {
  vm::BlockResult R;
  R.IsCondBranch = E.Branch != 0;
  R.Taken = E.Branch == 2;
  R.InstsExecuted = E.Insts;
  return R;
}

} // namespace

SweepResult tpdbt::core::replaySweepEvents(
    const BlockTrace &Trace, const guest::Program &P,
    const std::vector<uint64_t> &Thresholds, const dbt::DbtOptions &Base) {
  assert(Trace.numBlocks() == P.numBlocks() &&
         "trace does not match the program");
  const uint64_t NumEvents = Trace.numEvents();
  const uint64_t TotalInsts = Trace.totalInsts();
  cfg::Cfg G(P);

  std::vector<std::unique_ptr<dbt::TranslationPolicy>> Policies;
  for (uint64_t T : Thresholds) {
    dbt::DbtOptions Opts = Base;
    Opts.Threshold = T;
    Policies.push_back(
        std::make_unique<dbt::TranslationPolicy>(P, G, Opts));
  }
  dbt::DbtOptions AvgOpts = Base;
  AvgOpts.Threshold = 0;
  dbt::TranslationPolicy AvgPolicy(P, G, AvgOpts);

  std::vector<profile::BlockCounters> Shared(P.numBlocks());
  for (uint64_t I = 0; I < NumEvents; ++I) {
    const TraceEvent &E = Trace.event(I);
    const vm::BlockResult R = resultOf(E);
    profile::BlockCounters &Cnt = Shared[E.Block];
    ++Cnt.Use;
    if (R.IsCondBranch && R.Taken)
      ++Cnt.Taken;
    for (auto &Policy : Policies)
      Policy->onBlockEvent(E.Block, R, Shared);
    AvgPolicy.onBlockEvent(E.Block, R, Shared);
  }

  SweepResult Out;
  for (auto &Policy : Policies)
    Out.PerThreshold.push_back(Policy->finish(Shared, NumEvents, TotalInsts));
  Out.Average = AvgPolicy.finish(Shared, NumEvents, TotalInsts);
  return Out;
}
