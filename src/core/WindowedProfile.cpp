//===- core/WindowedProfile.cpp - Per-window profile collection ------------===//

#include "core/WindowedProfile.h"

#include <algorithm>
#include <cassert>

using namespace tpdbt;
using namespace tpdbt::core;

WindowedProfile tpdbt::core::collectWindowedProfile(const guest::Program &P,
                                                    size_t NumWindows,
                                                    const BlockTrace &Trace) {
  assert(NumWindows > 0 && "need at least one window");
  const uint64_t Total = Trace.numEvents();
  WindowedProfile Out;
  Out.TotalBlockEvents = Total;
  Out.Windows.assign(NumWindows,
                     std::vector<profile::BlockCounters>(P.numBlocks()));
  const uint64_t WindowLen = Total / NumWindows + 1;
  for (uint64_t Event = 0; Event < Total; ++Event) {
    const TraceEvent &E = Trace.event(Event);
    size_t W = std::min<size_t>(Event / WindowLen, NumWindows - 1);
    assert(E.Block < Out.Windows[W].size() && "trace/program mismatch");
    ++Out.Windows[W][E.Block].Use;
    if (E.Branch == 2)
      ++Out.Windows[W][E.Block].Taken;
  }
  return Out;
}
