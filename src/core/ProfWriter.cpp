//===- core/ProfWriter.cpp - Write-behind for .prof stores -----------------===//

#include "core/ProfWriter.h"

#include "support/TextFile.h"

using namespace tpdbt;
using namespace tpdbt::core;

void ProfWriter::submit(Batch Files) {
  if (!Slots.try_acquire()) {
    Stats.Waits.fetch_add(1, std::memory_order_relaxed);
    Slots.acquire();
  }
  Stats.Pending.fetch_add(1, std::memory_order_relaxed);
  Pool.submit([this, Files = std::move(Files)] {
    struct Release {
      ProfWriter &W;
      ~Release() {
        W.Stats.Pending.fetch_sub(1, std::memory_order_relaxed);
        W.Stats.Written.fetch_add(1, std::memory_order_relaxed);
        W.Slots.release();
      }
    } Guard{*this};
    if (BeforeWrite)
      BeforeWrite();
    for (const auto &[Path, Contents] : Files)
      writeTextFileAtomic(Path, Contents);
  });
}
