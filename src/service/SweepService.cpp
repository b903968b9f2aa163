//===- service/SweepService.cpp - Dedup/dispatch sweep engine --------------===//

#include "service/SweepService.h"

#include "core/Figures.h"
#include "support/Rng.h"
#include "workloads/BenchSpec.h"

#include <cstdlib>
#include <exception>
#include <thread>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::service;

ServiceLimits ServiceLimits::fromEnv() {
  ServiceLimits L;
  if (const char *Env = std::getenv("TPDBT_SWEEPD_MAX_ACTIVE")) {
    long V = std::strtol(Env, nullptr, 10);
    if (V > 0)
      L.MaxActive = static_cast<unsigned>(V);
  }
  if (const char *Env = std::getenv("TPDBT_SWEEPD_CLIENT_DEPTH")) {
    long V = std::strtol(Env, nullptr, 10);
    if (V > 0)
      L.ClientDepth = static_cast<unsigned>(V);
  }
  return L;
}

unsigned ServiceLimits::effectiveMaxActive() const {
  if (MaxActive > 0)
    return MaxActive;
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 2;
}

SweepService::SweepService(core::ExperimentConfig BaseConfig,
                           ServiceLimits Limits)
    : Base(std::move(BaseConfig)), Limits(Limits),
      SharedTraces(std::make_shared<TraceCache>(Base.CacheDir)) {}

Status SweepService::resolveConfig(const core::ExperimentConfig &BaseCfg,
                                   const SweepRequest &R,
                                   core::ExperimentConfig &Out,
                                   std::string *Error) {
  auto Bad = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return Status::BadRequest;
  };
  if (!(R.Scale > 0.0) || !(R.Scale <= 100.0))
    return Bad("scale must be in (0, 100]");
  Out = BaseCfg;
  Out.Scale = R.Scale;
  // Sampling is request-scoped: only the wire fields enable it, never the
  // daemon's own TPDBT_SAMPLE_* environment — a client asking for an
  // exact table must get one whatever the server was started with.
  Out.Sample = sample::SampleConfig();
  if (R.sampled()) {
    if (R.SampleMode != 1)
      return Bad("unknown sample mode");
    if (R.SampleBudgetPpm == 0 || R.SampleBudgetPpm > 1000000)
      return Bad("sample budget must be in (0, 1000000] ppm");
    Out.Sample.Kind = sample::SampleConfig::Mode::Stratified;
    Out.Sample.BudgetFrac = static_cast<double>(R.SampleBudgetPpm) / 1e6;
    Out.Sample.Seed = R.SampleSeed;
  }
  if (R.RequestKind == SweepRequest::Figure) {
    if (!core::findFigure(R.Name))
      return Bad("unknown figure: " + R.Name +
                 " (tpdbt-sweep --list names them)");
    // Figures iterate the paper's threshold sweep internally; a custom
    // threshold list cannot apply, so reject it rather than ignore it.
    if (!R.Thresholds.empty())
      return Bad("figure requests take no thresholds");
    Out.Thresholds = performanceThresholds();
    return Status::Ok;
  }
  if (!workloads::findSpec(R.Name))
    return Bad("unknown benchmark: " + R.Name);
  if (R.Thresholds.empty()) {
    Out.Thresholds = paperThresholds();
  } else {
    if (R.Thresholds.size() > 64)
      return Bad("too many thresholds (max 64)");
    for (uint64_t T : R.Thresholds)
      if (T == 0)
        return Bad("thresholds must be positive");
    Out.Thresholds = R.Thresholds;
  }
  return Status::Ok;
}

Table SweepService::buildTable(core::ExperimentContext &Ctx,
                               const SweepRequest &R) {
  if (R.RequestKind == SweepRequest::Figure) {
    const FigureSpec *Spec = core::findFigure(R.Name);
    return Spec->Build(Ctx);
  }
  return core::sweepTable(Ctx, R.Name);
}

core::ExperimentContext &
SweepService::contextFor(const core::ExperimentConfig &C) {
  // The config fingerprint deliberately omits the sample knobs (they are
  // .prof-cache keys), but a sampled and an exact request must not share
  // a context: its snapshots are estimates in one and exact in the other.
  uint64_t Fp = C.fingerprint();
  if (C.Sample.enabled())
    Fp = combineSeeds(Fp, C.Sample.fingerprint());
  std::lock_guard<std::mutex> Guard(CtxLock);
  auto It = Contexts.find(Fp);
  if (It == Contexts.end())
    It = Contexts
             .emplace(Fp, std::make_unique<ExperimentContext>(
                              C, SharedTraces, &Writer))
             .first;
  // Map nodes are address-stable; the reference outlives the lock.
  return *It->second;
}

uint64_t SweepService::requestKey(const SweepRequest &R,
                                  const core::ExperimentConfig &C) const {
  // The dedup key is exactly what determines the result bytes: the
  // request kind and name plus the split fingerprints of the resolved
  // configuration. Two clients differing only in request Id coalesce;
  // two differing in any policy knob never do.
  uint64_t H = combineSeeds(0x53e9, R.RequestKind);
  for (char Ch : R.Name)
    H = combineSeeds(H, static_cast<uint8_t>(Ch));
  H = combineSeeds(H, C.executionFingerprint());
  H = combineSeeds(H, C.policyFingerprint());
  // Sampled and exact requests for the same figure must never coalesce
  // (their result bytes differ); mixed only when sampling is on so every
  // pre-v2 exact key is preserved.
  if (C.Sample.enabled())
    H = combineSeeds(H, C.Sample.fingerprint());
  return H;
}

SweepService::Outcome SweepService::run(const SweepRequest &R,
                                        const ProgressFn &Progress) {
  Outcome Out;
  auto Finish = [&]() -> Outcome {
    Counters.Served.fetch_add(1, std::memory_order_relaxed);
    return std::move(Out);
  };

  ExperimentConfig C;
  std::string Error;
  const Status Resolved = resolveConfig(Base, R, C, &Error);
  if (Resolved != Status::Ok) {
    Counters.Rejected.fetch_add(1, std::memory_order_relaxed);
    Out.ResultStatus = Resolved;
    Out.Payload = Error;
    return Finish();
  }

  const uint64_t Key = requestKey(R, C);
  std::shared_ptr<Flight> F;
  bool Leader = false;
  {
    std::lock_guard<std::mutex> Guard(FlightsLock);
    auto It = Flights.find(Key);
    if (It != Flights.end()) {
      F = It->second;
    } else {
      F = std::make_shared<Flight>();
      Flights.emplace(Key, F);
      Leader = true;
    }
  }

  if (!Leader) {
    // Coalesce: wait for the leader's result and fan it out.
    if (Progress)
      Progress("coalesced");
    Counters.FlightWaiters.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> Guard(F->Lock);
      F->DoneCv.wait(Guard, [&] { return F->Done; });
      Out.ResultStatus = F->ResultStatus;
      Out.Payload = F->Payload;
    }
    Counters.FlightWaiters.fetch_sub(1, std::memory_order_relaxed);
    Counters.Coalesced.fetch_add(1, std::memory_order_relaxed);
    Out.Coalesced = true;
    return Finish();
  }

  // Leader: take an admission slot (bounds concurrent computations and
  // therefore concurrent recordings), compute, publish, retire the key.
  {
    std::unique_lock<std::mutex> Guard(AdmitLock);
    const unsigned MaxActive = Limits.effectiveMaxActive();
    if (ActiveLeaders >= MaxActive) {
      Counters.Queued.fetch_add(1, std::memory_order_relaxed);
      Out.WasQueued = true;
      if (Progress)
        Progress("queued");
      SlotFree.wait(Guard, [&] { return ActiveLeaders < MaxActive; });
    }
    ++ActiveLeaders;
  }
  Counters.Active.fetch_add(1, std::memory_order_relaxed);

  if (Progress)
    Progress("building");
  if (BeforeBuild)
    BeforeBuild();

  Status St = Status::Ok;
  std::string Payload;
  try {
    ExperimentContext &Ctx = contextFor(C);
    Payload = buildTable(Ctx, R).toCsv();
  } catch (const std::exception &E) {
    St = Status::Internal;
    Payload = std::string("computation failed: ") + E.what();
  } catch (...) {
    St = Status::Internal;
    Payload = "computation failed";
  }
  Counters.Computed.fetch_add(1, std::memory_order_relaxed);

  Counters.Active.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Guard(AdmitLock);
    --ActiveLeaders;
  }
  SlotFree.notify_one();

  // Retire the key first: requests arriving after this point start a new
  // flight (and hit the now-warm profile caches) instead of attaching to
  // a finished one.
  {
    std::lock_guard<std::mutex> Guard(FlightsLock);
    Flights.erase(Key);
  }
  {
    std::lock_guard<std::mutex> Guard(F->Lock);
    F->ResultStatus = St;
    F->Payload = Payload;
    F->Done = true;
  }
  F->DoneCv.notify_all();

  Out.ResultStatus = St;
  Out.Payload = std::move(Payload);
  return Finish();
}

StatsMsg SweepService::statsCounters() const {
  StatsMsg M;
  auto Add = [&](const char *Name, uint64_t Value) {
    M.Counters.emplace_back(Name, Value);
  };
  Add("served", Counters.Served.load(std::memory_order_relaxed));
  Add("computed", Counters.Computed.load(std::memory_order_relaxed));
  Add("coalesced", Counters.Coalesced.load(std::memory_order_relaxed));
  Add("queued", Counters.Queued.load(std::memory_order_relaxed));
  Add("rejected", Counters.Rejected.load(std::memory_order_relaxed));
  Add("active", Counters.Active.load(std::memory_order_relaxed));
  Add("flight_waiters",
      Counters.FlightWaiters.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> Guard(CtxLock);
    Add("contexts", Contexts.size());
  }
  const TraceCache::Counters &T = SharedTraces->stats();
  Add("trace_mem_hits", T.MemoryHits.load(std::memory_order_relaxed));
  Add("trace_disk_hits", T.DiskHits.load(std::memory_order_relaxed));
  Add("trace_misses", T.Misses.load(std::memory_order_relaxed));
  Add("trace_evictions", T.Evictions.load(std::memory_order_relaxed));
  Add("trace_evicted_bytes",
      T.EvictedBytes.load(std::memory_order_relaxed));
  Add("cache_max_bytes", core::cacheMaxBytes());
  const ProfWriter::Counters &P = Writer.stats();
  Add("prof_pending", P.Pending.load(std::memory_order_relaxed));
  Add("prof_written", P.Written.load(std::memory_order_relaxed));
  Add("prof_waits", P.Waits.load(std::memory_order_relaxed));
  return M;
}
