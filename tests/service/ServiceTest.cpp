//===- tests/service/ServiceTest.cpp - Dispatch-layer tests -----*- C++ -*-===//

#include "service/Daemon.h"
#include "service/SweepService.h"

#include "core/Figures.h"
#include "support/TextFile.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::core;
using namespace tpdbt::service;

namespace {

ExperimentConfig tinyBase() {
  ExperimentConfig C;
  C.Scale = 0.01;
  C.CacheDir.clear(); // memory-only; tests never touch the working dir
  C.Jobs = 2;
  return C;
}

SweepRequest tinySweep(const std::string &Bench = "gzip") {
  SweepRequest R;
  R.RequestKind = SweepRequest::Sweep;
  R.Name = Bench;
  R.Scale = 0.01;
  R.Thresholds = {100, 2000};
  return R;
}

ServiceLimits testLimits() {
  ServiceLimits L;
  L.MaxActive = 4;
  L.ClientDepth = 16;
  return L;
}

/// A fresh temp directory, removed with the test.
struct TempDir {
  std::filesystem::path Path;
  explicit TempDir(const std::string &Tag)
      : Path(std::filesystem::temp_directory_path() /
             ("tpdbt_svc_" + Tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

/// Every .prof file in \p Dir: name -> bytes.
std::map<std::string, std::string> profFiles(const std::filesystem::path &Dir) {
  std::map<std::string, std::string> Out;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".prof")
      Out[E.path().filename().string()] =
          readTextFile(E.path().string()).value_or("");
  return Out;
}

/// Requests that store .prof snapshots: two programs under one policy,
/// and one of them again under another.
std::vector<SweepRequest> storingRequests() {
  SweepRequest Other = tinySweep("gzip");
  Other.Thresholds = {100, 500};
  return {tinySweep("gzip"), tinySweep("mcf"), Other};
}

/// Checks that a fresh in-process context over \p Dir loads gzip's and
/// mcf's tinySweep() profiles from .prof files alone.
void expectProfHits(const std::filesystem::path &Dir) {
  ExperimentConfig Base = tinyBase();
  Base.CacheDir = Dir.string();
  ExperimentConfig C;
  ASSERT_EQ(SweepService::resolveConfig(Base, tinySweep(), C, nullptr),
            Status::Ok);
  ExperimentContext Ctx(C);
  Ctx.metrics("gzip");
  Ctx.metrics("mcf");
  EXPECT_EQ(Ctx.stats().CacheHits.load(), 2u);
  EXPECT_EQ(Ctx.stats().CacheMisses.load(), 0u);
  EXPECT_EQ(Ctx.stats().CorruptEntries.load(), 0u);
}

} // namespace

TEST(SweepServiceTest, RejectsInvalidRequests) {
  SweepService S(tinyBase(), testLimits());
  SweepRequest R = tinySweep("no_such_benchmark");
  auto Out = S.run(R);
  EXPECT_EQ(Out.ResultStatus, Status::BadRequest);

  R = tinySweep();
  R.Scale = -1.0;
  EXPECT_EQ(S.run(R).ResultStatus, Status::BadRequest);

  R = tinySweep();
  R.Thresholds = {100, 0};
  EXPECT_EQ(S.run(R).ResultStatus, Status::BadRequest);

  SweepRequest F;
  F.RequestKind = SweepRequest::Figure;
  F.Name = "not_a_figure";
  F.Scale = 0.01;
  EXPECT_EQ(S.run(F).ResultStatus, Status::BadRequest);

  // Figures run the paper's own threshold sweep; a custom list would be
  // silently meaningless, so it is refused instead.
  F.Name = "fig08_sd_bp";
  F.Thresholds = {100};
  EXPECT_EQ(S.run(F).ResultStatus, Status::BadRequest);

  EXPECT_EQ(S.stats().Rejected.load(), 5u);
  EXPECT_EQ(S.stats().Computed.load(), 0u);
}

TEST(SweepServiceTest, ComputesASweepTable) {
  SweepService S(tinyBase(), testLimits());
  auto Out = S.run(tinySweep());
  ASSERT_EQ(Out.ResultStatus, Status::Ok);
  EXPECT_FALSE(Out.Coalesced);
  // CSV header plus one row per requested threshold.
  EXPECT_NE(Out.Payload.find("threshold,sd_bp"), std::string::npos);
  EXPECT_NE(Out.Payload.find("\n100,"), std::string::npos);
  EXPECT_NE(Out.Payload.find("\n2k,"), std::string::npos);
  EXPECT_EQ(S.stats().Computed.load(), 1u);
}

TEST(SweepServiceTest, SampledRequestsEstimateWithIntervals) {
  SweepService S(tinyBase(), testLimits());
  SweepRequest Approx = tinySweep();
  Approx.SampleMode = 1;
  Approx.SampleBudgetPpm = 250000;
  Approx.SampleSeed = 0x5eed;
  auto A = S.run(Approx);
  ASSERT_EQ(A.ResultStatus, Status::Ok);
  EXPECT_NE(A.Payload.find("ci95"), std::string::npos) << A.Payload;

  // The exact table for the same sweep carries no interval columns, and
  // the two requests never share a context or a flight.
  auto E = S.run(tinySweep());
  ASSERT_EQ(E.ResultStatus, Status::Ok);
  EXPECT_EQ(E.Payload.find("ci95"), std::string::npos) << E.Payload;

  // Budget bounds are validated before any work happens.
  Approx.SampleBudgetPpm = 0;
  EXPECT_EQ(S.run(Approx).ResultStatus, Status::BadRequest);
  Approx.SampleBudgetPpm = 1000001;
  EXPECT_EQ(S.run(Approx).ResultStatus, Status::BadRequest);
}

TEST(SweepServiceTest, ResolveConfigScopesSamplingToTheRequest) {
  // A daemon started under TPDBT_SAMPLE_MODE=stratified must still serve
  // exact tables to plain requests: only the wire fields enable sampling.
  ExperimentConfig Base = tinyBase();
  Base.Sample.Kind = sample::SampleConfig::Mode::Stratified;
  ExperimentConfig C;
  ASSERT_EQ(SweepService::resolveConfig(Base, tinySweep(), C, nullptr),
            Status::Ok);
  EXPECT_FALSE(C.Sample.enabled());

  SweepRequest Approx = tinySweep();
  Approx.SampleMode = 1;
  Approx.SampleBudgetPpm = 500000;
  Approx.SampleSeed = 0xabc;
  ASSERT_EQ(SweepService::resolveConfig(tinyBase(), Approx, C, nullptr),
            Status::Ok);
  EXPECT_TRUE(C.Sample.enabled());
  EXPECT_DOUBLE_EQ(C.Sample.BudgetFrac, 0.5);
  EXPECT_EQ(C.Sample.Seed, 0xabcu);
}

TEST(SweepServiceTest, IdenticalInFlightRequestsCoalesce) {
  SweepService S(tinyBase(), testLimits());
  constexpr unsigned N = 6;

  // Park the leader until every other request has attached to its
  // flight, so the dedup assertion is deterministic, not timing-luck.
  S.BeforeBuild = [&S] {
    for (int Spins = 0; Spins < 10000; ++Spins) {
      if (S.stats().FlightWaiters.load() >= N - 1)
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  std::vector<SweepService::Outcome> Outs(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&S, &Outs, I] { Outs[I] = S.run(tinySweep()); });
  for (auto &T : Threads)
    T.join();

  unsigned Coalesced = 0;
  for (const auto &Out : Outs) {
    ASSERT_EQ(Out.ResultStatus, Status::Ok);
    EXPECT_EQ(Out.Payload, Outs[0].Payload);
    if (Out.Coalesced)
      ++Coalesced;
  }
  // One computation, N-1 fan-outs — the tentpole's dedup guarantee.
  EXPECT_EQ(S.stats().Computed.load(), 1u);
  EXPECT_EQ(Coalesced, N - 1);
  EXPECT_EQ(S.stats().Coalesced.load(), N - 1);
  EXPECT_EQ(S.stats().Served.load(), N);
  EXPECT_EQ(S.stats().FlightWaiters.load(), 0u);
}

TEST(SweepServiceTest, DistinctRequestsNeverCoalesce) {
  // Disk-backed cache: the in-memory layer holds weak references, so the
  // cross-policy sharing below is only observable through the disk layer
  // once the first run's trace has been released. The directory is
  // declared before the service, so the service (and its .prof writer)
  // drains before the directory goes.
  TempDir Dir("share");
  ExperimentConfig Base = tinyBase();
  Base.CacheDir = Dir.Path.string();

  SweepService S(Base, testLimits());
  SweepRequest A = tinySweep("gzip");
  SweepRequest B = tinySweep("gzip");
  B.Thresholds = {100, 500}; // policy differs -> different key
  auto OutA = S.run(A);
  auto OutB = S.run(B);
  ASSERT_EQ(OutA.ResultStatus, Status::Ok);
  ASSERT_EQ(OutB.ResultStatus, Status::Ok);
  EXPECT_EQ(S.stats().Computed.load(), 2u);
  EXPECT_EQ(S.stats().Coalesced.load(), 0u);
  // Same execution fingerprint, though: the first policy recorded gzip's
  // inputs into the shared store and the second replayed them warm.
  EXPECT_EQ(S.traceStats().Misses.load(), 2u); // ref + train, once
  EXPECT_GT(S.traceStats().hits(), 0u);
}

TEST(SweepServiceTest, RepeatAfterCompletionRecomputesIdentically) {
  SweepService S(tinyBase(), testLimits());
  auto First = S.run(tinySweep());
  auto Second = S.run(tinySweep());
  ASSERT_EQ(First.ResultStatus, Status::Ok);
  ASSERT_EQ(Second.ResultStatus, Status::Ok);
  // The flight retired with the first computation; the repeat recomputes
  // (against warm caches) rather than serving a stale handle...
  EXPECT_EQ(S.stats().Computed.load(), 2u);
  EXPECT_FALSE(Second.Coalesced);
  // ...and determinism makes the recomputation byte-identical.
  EXPECT_EQ(First.Payload, Second.Payload);
}

TEST(SweepServiceTest, ResolveConfigFillsDefaults) {
  ExperimentConfig Base = tinyBase();
  ExperimentConfig C;
  std::string Error;

  SweepRequest R = tinySweep();
  R.Thresholds.clear();
  ASSERT_EQ(SweepService::resolveConfig(Base, R, C, &Error), Status::Ok);
  EXPECT_EQ(C.Thresholds, paperThresholds());
  EXPECT_DOUBLE_EQ(C.Scale, 0.01);

  SweepRequest F;
  F.RequestKind = SweepRequest::Figure;
  F.Name = "fig08_sd_bp";
  F.Scale = 0.5;
  ASSERT_EQ(SweepService::resolveConfig(Base, F, C, &Error), Status::Ok);
  // Figures need the full performance sweep available (fig17 reads T=1).
  EXPECT_EQ(C.Thresholds, performanceThresholds());
}

TEST(SweepServiceTest, StatsCountersNameEveryDispatchCounter) {
  SweepService S(tinyBase(), testLimits());
  StatsMsg M = S.statsCounters();
  auto Has = [&](const std::string &Name) {
    for (const auto &[N, V] : M.Counters)
      if (N == Name)
        return true;
    return false;
  };
  for (const char *Name :
       {"served", "computed", "coalesced", "queued", "rejected",
        "contexts", "trace_mem_hits", "trace_evictions", "cache_max_bytes",
        "prof_pending", "prof_written", "prof_waits"})
    EXPECT_TRUE(Has(Name)) << Name;
}

TEST(SweepServiceTest, WriteBehindStoresTheInlineProfBytes) {
  TempDir Behind("behind"), Inline("inline");
  std::vector<std::string> Served, Local;
  {
    ExperimentConfig Base = tinyBase();
    Base.CacheDir = Behind.Path.string();
    SweepService S(Base, testLimits());
    for (const SweepRequest &R : storingRequests()) {
      SweepService::Outcome Out = S.run(R);
      ASSERT_EQ(Out.ResultStatus, Status::Ok) << Out.Payload;
      Served.push_back(Out.Payload);
    }
  } // destruction drains the writer
  // Batch contexts write inline, on the computing thread.
  for (const SweepRequest &R : storingRequests()) {
    ExperimentConfig Base = tinyBase(), C;
    Base.CacheDir = Inline.Path.string();
    ASSERT_EQ(SweepService::resolveConfig(Base, R, C, nullptr), Status::Ok);
    ExperimentContext Ctx(C);
    Local.push_back(SweepService::buildTable(Ctx, R).toCsv());
  }
  EXPECT_EQ(Served, Local);

  const auto A = profFiles(Behind.Path), B = profFiles(Inline.Path);
  EXPECT_EQ(A.size(), 3u * (2 + 2)); // two thresholds + AVEP + train each
  ASSERT_EQ(A.size(), B.size());
  for (const auto &[Name, Bytes] : B) {
    auto It = A.find(Name);
    ASSERT_NE(It, A.end()) << Name;
    EXPECT_TRUE(It->second == Bytes) << Name;
  }
}

TEST(SweepServiceTest, DestructionLeavesEveryStoreOnDisk) {
  TempDir Dir("drain");
  {
    ExperimentConfig Base = tinyBase();
    Base.CacheDir = Dir.Path.string();
    SweepService S(Base, testLimits());
    ASSERT_EQ(S.run(tinySweep("gzip")).ResultStatus, Status::Ok);
    ASSERT_EQ(S.run(tinySweep("mcf")).ResultStatus, Status::Ok);
  }
  EXPECT_EQ(profFiles(Dir.Path).size(), 2u * (2 + 2));
  expectProfHits(Dir.Path);
}

TEST(SweepServiceTest, ProfWriterSubmitBlocksAtItsBound) {
  TempDir Dir("bound");
  constexpr ptrdiff_t Bound = ProfWriter::MaxPending;
  auto Batch = [&](ptrdiff_t I) {
    return ProfWriter::Batch{
        {(Dir.Path / ("b" + std::to_string(I) + ".prof")).string(), "x"}};
  };
  std::latch Open(1);
  {
    ProfWriter W;
    W.BeforeWrite = [&Open] { Open.wait(); };
    // The worker takes the first batch and parks on the latch; the bound
    // counts it, so exactly Bound submits fit.
    for (ptrdiff_t I = 0; I < Bound; ++I)
      W.submit(Batch(I));
    EXPECT_EQ(W.stats().Waits.load(), 0u);
    EXPECT_EQ(W.stats().Pending.load(), static_cast<uint64_t>(Bound));

    std::atomic<bool> Returned{false};
    std::thread Submitter([&] {
      W.submit(Batch(Bound));
      Returned.store(true);
    });
    for (int Spins = 0; Spins < 10000 && W.stats().Waits.load() == 0;
         ++Spins)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(W.stats().Waits.load(), 1u);
    // No slot can free while the worker is held, so the submitter is
    // still blocked however long this takes.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(Returned.load());
    EXPECT_EQ(W.stats().Written.load(), 0u);

    Open.count_down();
    Submitter.join();
    EXPECT_TRUE(Returned.load());
    EXPECT_EQ(W.stats().Waits.load(), 1u);
  } // destruction drains the rest
  EXPECT_EQ(profFiles(Dir.Path).size(), static_cast<size_t>(Bound + 1));
}

namespace {

/// A daemon on a socket in a fresh temp directory, torn down with the
/// test. run() executes on a background thread like production.
struct DaemonFixture {
  std::filesystem::path Dir;
  DaemonOptions Opts;
  std::unique_ptr<Daemon> D;
  std::thread Runner;

  /// With \p DiskCache the daemon stores into Dir/cache.
  explicit DaemonFixture(bool DiskCache = false) {
    Dir = std::filesystem::temp_directory_path() /
          ("tpdbt_svc_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(Dir);
    Opts.SocketPath = (Dir / "d.sock").string();
    Opts.Base = tinyBase();
    if (DiskCache)
      Opts.Base.CacheDir = (Dir / "cache").string();
    Opts.Limits = testLimits();
    Opts.Quiet = true;
    D = std::make_unique<Daemon>(Opts);
    std::string Error;
    if (!D->start(&Error)) {
      ADD_FAILURE() << Error;
      return;
    }
    Runner = std::thread([this] { D->run(); });
  }

  ~DaemonFixture() {
    if (D)
      D->requestStop();
    if (Runner.joinable())
      Runner.join();
    D.reset();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  UnixSocket connect() {
    std::string Error;
    UnixSocket S = UnixSocket::connectTo(Opts.SocketPath, &Error);
    EXPECT_TRUE(S.valid()) << Error;
    return S;
  }
};

/// Reads frames until the RESULT (progress notes may precede it).
bool readResult(UnixSocket &Sock, service::SweepResult &Res) {
  for (;;) {
    MsgType Type;
    std::string Body, Error;
    if (!readFrame(Sock, Type, Body, &Error))
      return false;
    if (Type != MsgType::Progress)
      return Type == MsgType::Result && decodeResult(Body, Res);
  }
}

} // namespace

TEST(DaemonTest, ServesARequestOverTheSocket) {
  DaemonFixture F;
  UnixSocket Sock = F.connect();
  SweepRequest R = tinySweep();
  R.Id = 5;
  ASSERT_TRUE(writeFrame(Sock, MsgType::Request, encodeRequest(R)));
  // Read frames until the RESULT (progress notes may precede it).
  for (;;) {
    MsgType Type;
    std::string Body, Error;
    ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
    if (Type == MsgType::Progress)
      continue;
    ASSERT_EQ(Type, MsgType::Result);
    service::SweepResult Res;
    ASSERT_TRUE(decodeResult(Body, Res));
    EXPECT_EQ(Res.Id, 5u);
    EXPECT_EQ(Res.ResultStatus, Status::Ok);
    EXPECT_NE(Res.Payload.find("threshold,"), std::string::npos);
    break;
  }
}

TEST(DaemonTest, AnswersStatsAndAcknowledgesShutdown) {
  DaemonFixture F;
  {
    UnixSocket Sock = F.connect();
    ASSERT_TRUE(writeFrame(Sock, MsgType::Stats, encodeStats(StatsMsg())));
    MsgType Type;
    std::string Body, Error;
    ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
    ASSERT_EQ(Type, MsgType::Stats);
    StatsMsg M;
    ASSERT_TRUE(decodeStats(Body, M));
    // Global counters plus the per-client session counters.
    bool SawClient = false;
    for (const auto &[Name, Value] : M.Counters)
      if (Name == "client_served")
        SawClient = true;
    EXPECT_TRUE(SawClient);
  }
  UnixSocket Sock = F.connect();
  ASSERT_TRUE(writeFrame(Sock, MsgType::Shutdown, std::string()));
  MsgType Type;
  std::string Body, Error;
  ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
  ASSERT_EQ(Type, MsgType::Result);
  service::SweepResult Ack;
  ASSERT_TRUE(decodeResult(Body, Ack));
  EXPECT_EQ(Ack.ResultStatus, Status::Ok);
  // run() must return on its own after the ack.
  F.Runner.join();
}

TEST(DaemonTest, StopsWhileClientsConnectAndDisconnect) {
  // Connection threads close their sockets while requestStop() shuts
  // every live one down; both must hold the connection lock, or the two
  // race on the descriptor (a data race that ThreadSanitizer reports).
  DaemonFixture F;
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> Connected{0};
  std::vector<std::thread> Clients;
  for (int C = 0; C < 3; ++C)
    Clients.emplace_back([&] {
      for (uint64_t I = 0; !Done.load(); ++I) {
        std::string Error;
        UnixSocket S = UnixSocket::connectTo(F.Opts.SocketPath, &Error);
        if (!S.valid())
          continue; // the listener is already down
        Connected.fetch_add(1);
        // Never read: a connection still in the backlog when the
        // listener stops is never served, and a read would block.
        if (I % 2)
          writeFrame(S, MsgType::Stats, encodeStats(StatsMsg()));
      }
    });
  while (Connected.load() < 20)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  F.D->requestStop();
  F.Runner.join(); // run() drains every connection thread and returns
  Done.store(true);
  // A connect() parked on the full backlog of the stopped listener wakes
  // only once the listener is closed.
  F.D.reset();
  for (std::thread &T : Clients)
    T.join();
  EXPECT_GE(Connected.load(), 20u);
}

TEST(DaemonTest, MalformedFrameEarnsErrorAndClose) {
  DaemonFixture F;
  UnixSocket Sock = F.connect();
  // A REQUEST frame whose body is garbage.
  ASSERT_TRUE(writeFrame(Sock, MsgType::Request, "\x01garbage"));
  MsgType Type;
  std::string Body, Error;
  ASSERT_TRUE(readFrame(Sock, Type, Body, &Error)) << Error;
  EXPECT_EQ(Type, MsgType::Error);
  // The daemon closes the connection afterwards.
  EXPECT_FALSE(readFrame(Sock, Type, Body, &Error));
}

TEST(DaemonTest, ShutdownDrainsPendingStores) {
  DaemonFixture F(/*DiskCache=*/true);
  UnixSocket Sock = F.connect();
  for (const char *Bench : {"gzip", "mcf"}) {
    ASSERT_TRUE(
        writeFrame(Sock, MsgType::Request, encodeRequest(tinySweep(Bench))));
    service::SweepResult Res;
    ASSERT_TRUE(readResult(Sock, Res));
    EXPECT_EQ(Res.ResultStatus, Status::Ok) << Res.Payload;
  }
  ASSERT_TRUE(writeFrame(Sock, MsgType::Shutdown, std::string()));
  service::SweepResult Ack;
  ASSERT_TRUE(readResult(Sock, Ack));
  EXPECT_EQ(Ack.ResultStatus, Status::Ok);
  F.Runner.join();
  F.D.reset(); // the process exit: the service drains its writer
  const std::filesystem::path Cache = F.Dir / "cache";
  EXPECT_EQ(profFiles(Cache).size(), 2u * (2 + 2));
  expectProfHits(Cache);
}
