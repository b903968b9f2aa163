//===- bench/micro_interp.cpp - Interpreter microbenchmarks -----*- C++ -*-===//
//
// google-benchmark timings of the execution substrate: block dispatch,
// full benchmark interpretation, and the multi-policy sweep overhead.
// These are the pieces whose speed determines how long the figure
// reproductions take.
//
//===----------------------------------------------------------------------===//

#include "core/Runner.h"
#include "core/Trace.h"
#include "core/TraceCache.h"
#include "core/TraceIndex.h"
#include "guest/ProgramBuilder.h"
#include "vm/Interpreter.h"
#include "workloads/BenchSpec.h"
#include "workloads/Generator.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

using namespace tpdbt;

namespace {

/// Tight counted loop: the block-dispatch fast path.
guest::Program makeHotLoop() {
  guest::ProgramBuilder PB("hot");
  auto Entry = PB.createBlock();
  auto Head = PB.createBlock();
  auto Exit = PB.createBlock();
  PB.setEntry(Entry);
  PB.switchTo(Entry);
  PB.movI(1, 0);
  PB.jump(Head);
  PB.switchTo(Head);
  PB.addI(1, 1, 1);
  PB.xorI(2, 1, 0x5a5a);
  PB.branchImm(guest::CondKind::LtI, 1, 1 << 20, Head, Exit);
  PB.switchTo(Exit);
  PB.halt();
  return PB.build();
}

void BM_InterpreterHotLoop(benchmark::State &State) {
  guest::Program P = makeHotLoop();
  vm::Interpreter I(P);
  uint64_t Insts = 0;
  for (auto _ : State) {
    vm::Machine M;
    M.reset(P);
    vm::RunOutcome Out = I.run(M, ~0ull);
    Insts += Out.InstsExecuted;
    benchmark::DoNotOptimize(Out.BlocksExecuted);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpreterHotLoop)->Unit(benchmark::kMillisecond);

void BM_InterpretBenchmark(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("swim"), 0.02));
  vm::Interpreter I(B.Ref);
  uint64_t Insts = 0;
  for (auto _ : State) {
    vm::Machine M;
    M.reset(B.Ref);
    Insts += I.run(M, ~0ull).InstsExecuted;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Insts));
}
BENCHMARK(BM_InterpretBenchmark)->Unit(benchmark::kMillisecond);

/// Cost of simulating N thresholds from one execution with runSweep:
/// record the trace, then replay it analytically (index build included;
/// items = block events).
void BM_SweepPolicies(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::runSweep(B.Ref, Thresholds, dbt::DbtOptions(), ~0ull);
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_SweepPolicies)->Arg(1)->Arg(4)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// The unavoidable cold-path pass: interpret once while appending to a
/// BlockTrace. runSweep's cost is this (gzip) plus one BM_BuildTraceIndex
/// and one BM_ReplaySweep: BM_SweepPolicies measures the sum. Measured
/// per benchmark (self-loop density differs wildly: gzip stays in its
/// loops for ~half of all events, swim for ~95%), so the host translation
/// tier's coverage is visible in isolation — the BENCH_record.json
/// baseline at the repo root tracks this family.
void BM_RecordBenchmark(benchmark::State &State, const char *Name) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.02));
  uint64_t Events = 0;
  for (auto _ : State) {
    core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
    Events += T.numEvents();
    benchmark::DoNotOptimize(T.totalInsts());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordBenchmark, gzip, "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmark, swim, "swim")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmark, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// The same record pass with the jit tier switched off
/// (TPDBT_TIER=predecoded, pre-decoded dispatch only): the gap to the
/// plain BM_RecordBenchmark row is the native-code speedup of the hottest
/// chains and self-loops. The knob is read on every record, so flipping
/// it around the timed region (and restoring the caller's value) is
/// enough.
void BM_RecordBenchmarkNoJit(benchmark::State &State, const char *Name) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec(Name), 0.02));
  const char *Prev = std::getenv("TPDBT_TIER");
  const bool Had = Prev != nullptr;
  const std::string Saved = Had ? Prev : "";
  setenv("TPDBT_TIER", "predecoded", 1);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
    Events += T.numEvents();
    benchmark::DoNotOptimize(T.totalInsts());
  }
  if (Had)
    setenv("TPDBT_TIER", Saved.c_str(), 1);
  else
    unsetenv("TPDBT_TIER");
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, gzip, "gzip")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, swim, "swim")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RecordBenchmarkNoJit, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// The full cold-record cache miss — interpret, then per-segment encode +
/// compress behind the recording, assemble the TPDT v4 container, write
/// the .trace entry; no index — through the segment pipeline at its
/// default budget. On multi-core hosts the segment work overlaps with
/// recording, so this row should sit close to BM_RecordBenchmark/mcf.
void BM_RecordStreamed(benchmark::State &State, const char *) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("mcf"), 0.02));
  const std::string Dir =
      (std::filesystem::temp_directory_path() /
       ("tpdbt_bench_record_" + std::to_string(getpid())))
          .string();
  setenv("TPDBT_SEGMENT_EVENTS", "65536", 1);
  uint64_t Events = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::filesystem::remove_all(Dir);
    State.ResumeTiming();
    core::TraceCache Cache(Dir);
    auto T = Cache.get("mcf", "ref", 1, B.Ref, ~0ull);
    Events += T->numEvents();
    benchmark::DoNotOptimize(T->totalInsts());
  }
  unsetenv("TPDBT_SEGMENT_EVENTS");
  std::filesystem::remove_all(Dir);
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_RecordStreamed, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

/// A warm mcf train entry (scale 0.02, 64Ki-event segments) in a fresh
/// temp dir, for the two train-lookup rows below.
struct WarmTrainEntry {
  workloads::GeneratedBenchmark B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("mcf"), 0.02));
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("tpdbt_bench_train_" + std::to_string(getpid())))
                        .string();
  WarmTrainEntry() {
    std::filesystem::remove_all(Dir);
    setenv("TPDBT_SEGMENT_EVENTS", "65536", 1);
    core::TraceCache(Dir).get("mcf", "train", 1, B.Train, ~0ull);
    unsetenv("TPDBT_SEGMENT_EVENTS");
  }
  ~WarmTrainEntry() { std::filesystem::remove_all(Dir); }
};

/// What a warm train lookup cost before it streamed, and what a warm
/// TraceCache::get() still pays: open the entry and decode every segment,
/// one frame read from the file at a time, into a full event vector.
void BM_TraceParse(benchmark::State &State) {
  WarmTrainEntry W;
  uint64_t Events = 0;
  for (auto _ : State) {
    core::TraceCache Cache(W.Dir);
    auto T = Cache.get("mcf", "train", 1, W.B.Train, ~0ull);
    if (Cache.stats().DiskHits.load() != 1)
      State.SkipWithError("train entry is not a verified disk hit");
    Events += T->numEvents();
    benchmark::DoNotOptimize(T->totalInsts());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_TraceParse)->Unit(benchmark::kMillisecond);

/// The same entry through TraceCache::totals(): every segment streamed,
/// decoded straight into a counter table and checked, no event stored.
/// Same checks as BM_TraceParse, at O(segment) memory.
void BM_TraceTotalsStreamed(benchmark::State &State) {
  WarmTrainEntry W;
  uint64_t Events = 0;
  for (auto _ : State) {
    core::TraceCache Cache(W.Dir);
    core::TraceTotals T = Cache.totals("mcf", "train", 1, W.B.Train, ~0ull);
    if (Cache.stats().DiskHits.load() != 1)
      State.SkipWithError("train entry is not a verified disk hit");
    Events += T.NumEvents;
    benchmark::DoNotOptimize(T.TotalInsts);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_TraceTotalsStreamed)->Unit(benchmark::kMillisecond);

/// The trace-cache hit path: drive N thresholds from an indexed trace
/// with no interpretation at all. Compare against BM_SweepPolicies at the
/// same argument — the warm-cache speedup of the experiment driver. The
/// index is prebuilt outside the loop, matching a trace whose index an
/// earlier replay already built.
void BM_ReplaySweep(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  T.index();
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::replaySweep(T, B.Ref, Thresholds, dbt::DbtOptions());
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_ReplaySweep)->Arg(1)->Arg(4)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// The plain reference pump (the adaptive-mode path and the differential
/// oracle): every trace event through every policy, the threshold-0
/// average included. The gap to BM_ReplaySweep is the analytic index's
/// speedup.
void BM_ReplaySweepEventPump(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  std::vector<uint64_t> Thresholds;
  for (int I = 0; I < State.range(0); ++I)
    Thresholds.push_back(100ull << I);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::SweepResult R =
        core::replaySweepEvents(T, B.Ref, Thresholds, dbt::DbtOptions());
    Events += R.Average.BlockEvents;
    benchmark::DoNotOptimize(R.Average.ProfilingOps);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_ReplaySweepEventPump)->Arg(1)->Arg(15)
    ->Unit(benchmark::kMillisecond);

/// One-time cost of building the analytic index — the only index build,
/// paid once per trace (cold miss or disk hit alike) before its first
/// threshold replay, amortized across every replay of that trace.
void BM_BuildTraceIndex(benchmark::State &State) {
  auto B = workloads::generateBenchmark(
      workloads::scaledSpec(*workloads::findSpec("gzip"), 0.02));
  core::BlockTrace T = core::BlockTrace::record(B.Ref, ~0ull);
  uint64_t Events = 0;
  for (auto _ : State) {
    core::TraceIndex Idx = core::TraceIndex::build(T);
    Events += Idx.numEvents();
    benchmark::DoNotOptimize(Idx.totalInsts());
  }
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_BuildTraceIndex)->Unit(benchmark::kMillisecond);

void BM_GenerateBenchmark(benchmark::State &State) {
  const auto &Spec = *workloads::findSpec("gcc");
  for (auto _ : State) {
    auto B = workloads::generateBenchmark(Spec);
    benchmark::DoNotOptimize(B.Ref.numBlocks());
  }
}
BENCHMARK(BM_GenerateBenchmark);

} // namespace

BENCHMARK_MAIN();
