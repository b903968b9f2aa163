//===- core/TraceCache.cpp - Keyed block-trace record store ----------------===//

#include "core/TraceCache.h"

#include "core/TracePipeline.h"
#include "core/TraceSegments.h"
#include "support/Format.h"
#include "support/TextFile.h"
#include "vm/HostTier.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <system_error>

using namespace tpdbt;
using namespace tpdbt::core;

uint64_t tpdbt::core::cacheMaxBytes() {
  const char *Env = std::getenv("TPDBT_CACHE_MAX_BYTES");
  if (!Env || !*Env)
    return 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 10);
  if (End == Env || *End != '\0')
    return 0;
  return V;
}

void TraceCache::touchEntry(const std::string &Path) {
  std::error_code Ec;
  const auto Now = std::filesystem::file_time_type::clock::now();
  std::filesystem::last_write_time(Path, Now, Ec);
}

void TraceCache::enforceBudget() {
  const uint64_t Budget = cacheMaxBytes();
  if (Budget == 0 || Dir.empty())
    return;
  std::lock_guard<std::mutex> Guard(EvictLock);
  struct Entry {
    std::string TracePath;
    uint64_t Bytes = 0;
    std::filesystem::file_time_type Used;
  };
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec)) {
    if (E.path().extension() != ".trace")
      continue;
    Entry Ent;
    Ent.TracePath = E.path().string();
    Ent.Bytes = std::filesystem::file_size(E.path(), Ec);
    if (Ec)
      continue; // raced with a concurrent eviction or rewrite
    Ent.Used = std::filesystem::last_write_time(E.path(), Ec);
    Total += Ent.Bytes;
    Entries.push_back(std::move(Ent));
  }
  if (Total <= Budget)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.Used < B.Used; });
  for (const Entry &Ent : Entries) {
    if (Total <= Budget)
      break;
    // Removing a disk entry never invalidates live users: the in-memory
    // layer holds its own reference, and the next cold lookup simply
    // re-records (stampede-protected by the per-slot lock as usual).
    std::filesystem::remove(Ent.TracePath, Ec);
    dropMemo(std::filesystem::path(Ent.TracePath).stem().string());
    Total -= std::min(Total, Ent.Bytes);
    Stats.Evictions.fetch_add(1, std::memory_order_relaxed);
    Stats.EvictedBytes.fetch_add(Ent.Bytes, std::memory_order_relaxed);
  }
}

namespace {

/// Opens the entry at \p Path and checks its shape table against
/// \p Program's: the one open behind get(), totals() and openSegmented().
bool openEntry(const std::string &Path, const guest::Program &Program,
               SegmentedTraceReader &Reader, std::string *Error) {
  if (!SegmentedTraceReader::open(Path, Reader, Error))
    return false;
  if (Reader.header().Shapes == blockShapes(Program))
    return true;
  if (Error)
    *Error = "trace shape table disagrees with the program";
  return false;
}

} // namespace

bool TraceCache::openSegmented(const std::string &Name,
                               const std::string &Input, uint64_t ExecFp,
                               const guest::Program &Program,
                               SegmentedTraceReader &Reader,
                               std::string *Error) {
  if (Dir.empty()) {
    if (Error)
      *Error = "trace cache disk layer is disabled";
    return false;
  }
  // Take the memo before reading the header: a rewrite or eviction drops
  // the memo only after the file changed, so a memo fetched first is
  // either current for the file opened below or already detached.
  std::shared_ptr<SegmentProfileMemo> Memo;
  {
    std::lock_guard<std::mutex> Guard(SlotsLock);
    std::shared_ptr<SegmentProfileMemo> &M =
        Slots[slotKey(Name, Input, ExecFp)].Memo;
    if (!M)
      M = std::make_shared<SegmentProfileMemo>();
    Memo = M;
  }
  const std::string Path = entryPath(Name, Input, ExecFp);
  if (!openEntry(Path, Program, Reader, Error))
    return false;
  Reader.attachMemo(std::move(Memo));
  Stats.SampleDiskOpens.fetch_add(1, std::memory_order_relaxed);
  touchEntry(Path);
  return true;
}

bool TraceCache::readEntry(
    const std::string &Path, const guest::Program &Program,
    const std::function<bool(SegmentedTraceReader &)> &Decode) {
  std::error_code Ec;
  if (!std::filesystem::exists(Path, Ec))
    return false;
  SegmentedTraceReader Reader;
  if (openEntry(Path, Program, Reader, nullptr) && Decode(Reader)) {
    Stats.DiskHits.fetch_add(1, std::memory_order_relaxed);
    touchEntry(Path); // refresh LRU recency for the bounded store
    return true;
  }
  // Torn, corrupt, a retired format, or recorded for a different program
  // shape (a stale key collision): treat as a miss and re-record over it.
  Stats.CorruptEntries.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::string TraceCache::slotKey(const std::string &Name,
                                const std::string &Input, uint64_t ExecFp) {
  return formatString("%s.%s.%016llx", Name.c_str(), Input.c_str(),
                      static_cast<unsigned long long>(ExecFp));
}

void TraceCache::dropMemo(const std::string &Key) {
  std::lock_guard<std::mutex> Guard(SlotsLock);
  auto It = Slots.find(Key);
  if (It != Slots.end())
    It->second.Memo.reset();
}

size_t TraceCache::memoizedSegments() {
  std::lock_guard<std::mutex> Guard(SlotsLock);
  size_t N = 0;
  for (const auto &[Key, S] : Slots)
    if (S.Memo)
      N += S.Memo->size();
  return N;
}

std::string TraceCache::entryPath(const std::string &Name,
                                  const std::string &Input,
                                  uint64_t ExecFp) const {
  return Dir + "/" + slotKey(Name, Input, ExecFp) + ".trace";
}

TraceCache::Slot &TraceCache::slot(const std::string &Key) {
  std::lock_guard<std::mutex> Guard(SlotsLock);
  return Slots[Key];
}

std::shared_ptr<const BlockTrace>
TraceCache::get(const std::string &Name, const std::string &Input,
                uint64_t ExecFp, const guest::Program &Program,
                uint64_t MaxBlocks) {
  const std::string Key = slotKey(Name, Input, ExecFp);
  Slot &S = slot(Key);
  // Per-slot lock: lookups of different inputs record concurrently, while
  // racing lookups of the same input serialize and share one recording.
  std::lock_guard<std::mutex> Guard(S.Lock);
  if (auto Held = S.Trace.lock()) {
    Stats.MemoryHits.fetch_add(1, std::memory_order_relaxed);
    return Held;
  }

  std::string Path;
  if (!Dir.empty()) {
    Path = entryPath(Name, Input, ExecFp);
    auto FromDisk = std::make_shared<BlockTrace>();
    if (readEntry(Path, Program, [&](SegmentedTraceReader &Reader) {
          return BlockTrace::decode(Reader, *FromDisk, nullptr);
        })) {
      S.Trace = FromDisk;
      return FromDisk;
    }
  }
  return recordMiss(S, Key, Path, Program, MaxBlocks);
}

TraceTotals TraceCache::totals(const std::string &Name,
                               const std::string &Input, uint64_t ExecFp,
                               const guest::Program &Program,
                               uint64_t MaxBlocks) {
  const std::string Key = slotKey(Name, Input, ExecFp);
  Slot &S = slot(Key);
  std::lock_guard<std::mutex> Guard(S.Lock);
  if (auto Held = S.Trace.lock()) {
    Stats.MemoryHits.fetch_add(1, std::memory_order_relaxed);
    return Held->totals();
  }

  std::string Path;
  if (!Dir.empty()) {
    Path = entryPath(Name, Input, ExecFp);
    // Every segment is decoded and sum-checked, and the folded table must
    // equal the header's, before the header's totals are trusted.
    TraceTotals Totals;
    if (readEntry(Path, Program, [&](SegmentedTraceReader &Reader) {
          if (!Reader.verifyAll(nullptr))
            return false;
          Totals = Reader.header().totals();
          return true;
        }))
      return Totals;
  }
  return recordMiss(S, Key, Path, Program, MaxBlocks)->totals();
}

std::shared_ptr<const BlockTrace>
TraceCache::recordMiss(Slot &S, const std::string &Key,
                       const std::string &Path, const guest::Program &Program,
                       uint64_t MaxBlocks) {
  Stats.Misses.fetch_add(1, std::memory_order_relaxed);
  auto Start = std::chrono::steady_clock::now();
  vm::HostTierStats Tier;
  // Only the disk layer wants the container; without one the recording
  // alone is the product, so no pipeline runs.
  std::optional<TracePipeline> Pipe;
  BlockTrace::SegmentProgressFn OnSegment;
  uint64_t SegmentBudget = 0;
  if (!Dir.empty()) {
    SegmentBudget = segmentEventBudget();
    Pipe.emplace(SegmentBudget, blockShapes(Program));
    OnSegment = [&Pipe](const BlockTrace &T) { return Pipe->onProgress(T); };
  }
  auto Recorded = std::make_shared<BlockTrace>(BlockTrace::record(
      Program, MaxBlocks, &Tier, OnSegment, SegmentBudget));
  auto End = std::chrono::steady_clock::now();
  Stats.RecordMicros.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(End - Start)
          .count(),
      std::memory_order_relaxed);
  Stats.HostChainedBlocks.fetch_add(Tier.JitBlocks,
                                    std::memory_order_relaxed);
  Stats.HostFoldedIters.fetch_add(Tier.JitLoopIters,
                                  std::memory_order_relaxed);
  Stats.JitUnits.fetch_add(Tier.JitUnits, std::memory_order_relaxed);
  Stats.JitBlocks.fetch_add(Tier.JitBlocks, std::memory_order_relaxed);
  Stats.JitLoopIters.fetch_add(Tier.JitLoopIters, std::memory_order_relaxed);
  Stats.JitDeopts.fetch_add(Tier.JitDeopts, std::memory_order_relaxed);
  Stats.JitFlushes.fetch_add(Tier.JitFlushes, std::memory_order_relaxed);
  Stats.JitCompileMicros.fetch_add(Tier.JitCompileMicros,
                                   std::memory_order_relaxed);
  if (Pipe) {
    // The pipeline already compressed every segment behind the recording;
    // finish() drains the tail and assembles the v4 container.
    TracePipeline::Result R = Pipe->finish(*Recorded);
    Stats.StreamedRecords.fetch_add(1, std::memory_order_relaxed);
    Stats.SegmentsPiped.fetch_add(R.Segments, std::memory_order_relaxed);
    Stats.PipelineMicros.fetch_add(R.WorkMicros, std::memory_order_relaxed);
    Stats.FlushMicros.fetch_add(R.FlushMicros, std::memory_order_relaxed);
    if (ensureDirectory(Dir))
      writeTextFileAtomic(Path, R.FileBytes);
    dropMemo(Key);
    enforceBudget();
  }
  S.Trace = Recorded;
  return Recorded;
}
