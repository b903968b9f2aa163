//===- bench/e2e/src/DaemonLoad.cpp - Mixed load on tpdbt-sweepd -----------===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
// One round of the daemon-mixed workload. run.py starts tpdbt-sweepd over
// a freshly recorded trace cache; this client plans a seeded request
// sequence, drives it closed-loop (no think time) from several persistent
// connections, reads the daemon's STATS, shuts it down, and then checks
// every payload: figures against the golden CSVs, identical requests
// against each other, and a seeded tenth of the rest recomputed in-process
// through SweepService::resolveConfig + buildTable.
//
//===-----------------------------------------------------------------------===//

#include "E2e.h"
#include "Spans.h"

#include "core/Experiment.h"
#include "core/Figures.h"
#include "service/Protocol.h"
#include "service/SweepService.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

using namespace tpdbt;
using namespace tpdbt::e2e;
using namespace tpdbt::service;

namespace {

/// Closed-loop client connections, and the share of requests whose replies
/// are recomputed in-process.
constexpr unsigned Clients = 4;
constexpr double RecheckFrac = 0.1;

enum class Kind { Exact, Approx, Figure, NewScale, Repeat };

struct Planned {
  SweepRequest R;
  Kind K = Kind::Exact;
  std::string Key; ///< everything that determines the payload bytes
};

std::vector<std::string> seededOrder(uint64_t Seed) {
  std::vector<std::string> Names = suiteNames();
  Rng R(Seed);
  for (size_t I = Names.size(); I > 1; --I)
    std::swap(Names[I - 1], Names[R.nextBelow(I)]);
  return Names;
}

std::string requestKey(const SweepRequest &R) {
  std::string Key = formatString("%d|%s|%g|%d|%llu|%llu|", R.RequestKind,
                                 R.Name.c_str(), R.Scale, R.SampleMode,
                                 static_cast<unsigned long long>(
                                     R.SampleBudgetPpm),
                                 static_cast<unsigned long long>(R.SampleSeed));
  for (uint64_t T : R.Thresholds)
    Key += std::to_string(T) + ",";
  return Key;
}

/// The request mix: exact sweeps (50%), 25%-budget sampled sweeps (15%),
/// figures (10%), sweeps at a scale that is not pre-recorded (15%) and
/// exact repeats of earlier requests (10%), in seeded order.
///
/// The mix is synthetic. tpdbt-sweep can send every one of these request
/// kinds (--sweep with --thresholds or --scale, --approx, --figure, and
/// repeats with --count), but no recorded traffic gives their proportions,
/// the skew or the client count.
///
/// Popularity is skewed over policy knobs, not programs: an exact sweep
/// takes one of twelve fixed threshold sets with Zipf(1) probability,
/// while each sweep kind walks its own seeded permutation of the suite so
/// every program is asked for about equally often. Program costs differ
/// tenfold, so a seeded Zipf over programs let the seed decide a round's
/// cost (p95 ranged 93-345 ms across seeds). The unrecorded-scale walk
/// records every program exactly once in a round of 26 or more of them.
std::vector<Planned> planRequests(uint64_t Seed, size_t N, double Scale,
                                  double NewScale) {
  Rng Rand(Seed);
  const auto &Figures = core::figureRegistry();
  constexpr size_t ThresholdSets = 12;
  std::vector<double> Cum;
  double Total = 0.0;
  for (size_t R = 0; R < ThresholdSets; ++R)
    Cum.push_back(Total += 1.0 / static_cast<double>(R + 1));
  auto Zipf = [&] {
    const double U = Rand.nextDouble() * Total;
    return static_cast<size_t>(std::lower_bound(Cum.begin(), Cum.end(), U) -
                               Cum.begin());
  };
  struct Walk {
    std::vector<std::string> Order;
    size_t Next = 0;
    const std::string &next() { return Order[Next++ % Order.size()]; }
  };
  Walk ExactWalk{seededOrder(Rand.next())};
  Walk ApproxWalk{seededOrder(Rand.next())};
  Walk NewWalk{seededOrder(Rand.next())};
  // The sets themselves are the same for every seed: their sizes set the
  // replay cost, and the most popular one carries a third of the sweeps.
  std::vector<std::vector<uint64_t>> Sets;
  Rng SetRand(0x5e75);
  for (size_t S = 0; S < ThresholdSets; ++S) {
    std::vector<uint64_t> P = core::paperThresholds();
    for (size_t I = P.size(); I > 1; --I)
      std::swap(P[I - 1], P[SetRand.nextBelow(I)]);
    P.resize(3 + SetRand.nextBelow(4));
    std::sort(P.begin(), P.end());
    Sets.push_back(P);
  }

  std::vector<Kind> Kinds;
  auto AddKind = [&](Kind K, double Share) {
    for (size_t I = 0, E = static_cast<size_t>(std::lround(Share * N));
         I < E && Kinds.size() < N; ++I)
      Kinds.push_back(K);
  };
  AddKind(Kind::Exact, 0.50);
  AddKind(Kind::Approx, 0.15);
  AddKind(Kind::Figure, 0.10);
  AddKind(Kind::NewScale, 0.15);
  Kinds.resize(N, Kind::Repeat);
  for (size_t I = Kinds.size(); I > 1; --I)
    std::swap(Kinds[I - 1], Kinds[Rand.nextBelow(I)]);
  auto First = std::find_if(Kinds.begin(), Kinds.end(),
                            [](Kind K) { return K != Kind::Repeat; });
  if (First != Kinds.end())
    std::iter_swap(Kinds.begin(), First);

  std::vector<Planned> Plan(N);
  for (size_t I = 0; I < N; ++I) {
    Planned &P = Plan[I];
    SweepRequest &R = P.R;
    P.K = Kinds[I];
    R.Scale = Scale;
    R.RequestKind = SweepRequest::Sweep;
    switch (P.K) {
    case Kind::Exact:
      R.Name = ExactWalk.next();
      R.Thresholds = Sets[Zipf()];
      break;
    case Kind::Approx:
      R.Name = ApproxWalk.next();
      R.SampleMode = 1;
      R.SampleBudgetPpm = 250000;
      R.SampleSeed = 1 + Rand.nextBelow(3);
      break;
    case Kind::Figure:
      R.RequestKind = SweepRequest::Figure;
      R.Name = Figures[Rand.nextBelow(Figures.size())].Name;
      break;
    case Kind::NewScale:
      R.Name = NewWalk.next();
      R.Scale = NewScale;
      break;
    case Kind::Repeat: {
      size_t J = Rand.nextBelow(I);
      while (Plan[J].K == Kind::Repeat)
        J = Rand.nextBelow(I);
      R = Plan[J].R;
      break;
    }
    }
    R.Id = I;
    P.Key = requestKey(R);
  }
  return Plan;
}

struct Outcome {
  bool Ok = false; ///< a RESULT frame arrived
  std::string Error;
  SweepResult Reply;
  unsigned Client = 0;
  Clock::time_point Send, Stage, Done; ///< Stage: "building"/"coalesced"
};

/// One closed-loop client: takes the next planned request, sends it on
/// its persistent connection and waits for the RESULT before taking more.
void clientLoop(const std::string &Socket, const std::vector<Planned> &Plan,
                std::atomic<size_t> &Next, std::vector<Outcome> &Out,
                unsigned Client) {
  std::string ConnectError;
  UnixSocket Sock = UnixSocket::connectTo(Socket, &ConnectError);
  for (size_t I; (I = Next.fetch_add(1)) < Plan.size();) {
    Outcome &O = Out[I];
    O.Client = Client;
    if (!Sock.valid()) {
      O.Error = "connect: " + ConnectError;
      continue;
    }
    O.Send = O.Stage = Clock::now();
    const SweepRequest &R = Plan[I].R;
    if (!writeFrame(Sock, MsgType::Request, encodeRequest(R),
                    requestFrameVersion(R))) {
      O.Error = "send failed";
      Sock.close();
      continue;
    }
    for (;;) {
      MsgType Type;
      std::string Body;
      if (!readFrame(Sock, Type, Body, &O.Error))
        break;
      if (Type == MsgType::Progress) {
        ProgressMsg P;
        if (decodeProgress(Body, P) &&
            (P.Stage == "building" || P.Stage == "coalesced"))
          O.Stage = Clock::now();
        continue;
      }
      O.Done = Clock::now();
      O.Ok = Type == MsgType::Result && decodeResult(Body, O.Reply);
      if (!O.Ok)
        O.Error = "unexpected reply frame";
      break;
    }
    if (!O.Ok)
      Sock.close();
  }
}

/// Asks for STATS, then shuts the daemon down; empty map on failure.
std::map<std::string, uint64_t> statsThenShutdown(const std::string &Socket) {
  std::map<std::string, uint64_t> Stats;
  std::string Error;
  UnixSocket Sock = UnixSocket::connectTo(Socket, &Error);
  MsgType Type;
  std::string Body;
  StatsMsg M;
  if (Sock.valid() && writeFrame(Sock, MsgType::Stats, encodeStats(M)) &&
      readFrame(Sock, Type, Body, &Error) && Type == MsgType::Stats &&
      decodeStats(Body, M))
    for (const auto &[Name, Value] : M.Counters)
      Stats[Name] = Value;
  SweepResult Ack;
  if (!Sock.valid() || !writeFrame(Sock, MsgType::Shutdown, std::string()) ||
      !readFrame(Sock, Type, Body, &Error) || Type != MsgType::Result ||
      !decodeResult(Body, Ack) || Ack.ResultStatus != Status::Ok) {
    std::fprintf(stderr, "tpdbt-e2e: daemon shutdown failed: %s\n",
                 Error.c_str());
    Stats.clear();
  }
  return Stats;
}

} // namespace

int tpdbt::e2e::runDaemonClient(const Args &A) {
  const std::string Socket = A.str("socket");
  const std::string Cache = A.str("cache");
  const std::string Golden = A.str("golden");
  const uint64_t Seed = static_cast<uint64_t>(A.num("seed"));
  const size_t N = static_cast<size_t>(A.num("requests"));
  const bool Traced = A.has("trace");
  const std::vector<Planned> Plan =
      planRequests(Seed, N, A.num("scale"), A.num("new-scale"));

  std::vector<Outcome> Out(N);
  std::atomic<size_t> Next{0};
  {
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back(clientLoop, std::cref(Socket), std::cref(Plan),
                           std::ref(Next), std::ref(Out), C);
    for (std::thread &T : Threads)
      T.join();
  }
  std::map<std::string, uint64_t> Stats = statsThenShutdown(Socket);

  // Checks run after the daemon has stopped, so they never compete with
  // the measured requests.
  std::vector<char> Bad(N, 0); // written by the recheck workers
  uint64_t Busy = 0;
  std::map<std::string, size_t> FirstOfKey;
  std::vector<size_t> Recheckable;
  for (size_t I = 0; I < N; ++I) {
    const Outcome &O = Out[I];
    const Planned &P = Plan[I];
    if (!O.Ok || O.Reply.ResultStatus != Status::Ok) {
      Busy += O.Ok && O.Reply.ResultStatus == Status::Busy;
      std::fprintf(stderr, "tpdbt-e2e: request %zu (%s) failed: %s\n", I,
                   P.Key.c_str(),
                   O.Ok ? O.Reply.Payload.c_str() : O.Error.c_str());
      Bad[I] = true;
      continue;
    }
    auto [It, Fresh] = FirstOfKey.emplace(P.Key, I);
    if (!Fresh && Out[It->second].Reply.Payload != O.Reply.Payload) {
      std::fprintf(stderr, "tpdbt-e2e: request %zu differs from identical "
                           "request %zu\n", I, It->second);
      Bad[I] = true;
    }
    if (P.K == Kind::Figure)
      Bad[I] |= !matchesGolden(O.Reply.Payload,
                               Golden + "/" + P.R.Name + ".csv",
                               "daemon " + P.R.Name);
    else if (Fresh)
      Recheckable.push_back(I);
  }
  Rng Rand(combineSeeds(Seed, 0x7ec8));
  for (size_t I = Recheckable.size(); I > 1; --I)
    std::swap(Recheckable[I - 1], Recheckable[Rand.nextBelow(I)]);
  Recheckable.resize(std::min(Recheckable.size(),
                              static_cast<size_t>(std::ceil(RecheckFrac * N))));
  auto Shared = std::make_shared<core::TraceCache>(Cache);
  parallelFor(Recheckable.size(), Jobs, [&](size_t K) {
    const size_t I = Recheckable[K];
    core::ExperimentConfig Base, C;
    Base.CacheDir.clear(); // recompute, never read .prof
    Base.Jobs = 1;
    std::string Error;
    bool Same =
        SweepService::resolveConfig(Base, Plan[I].R, C, &Error) == Status::Ok;
    if (Same) {
      core::ExperimentContext Ctx(C, Shared);
      Same = SweepService::buildTable(Ctx, Plan[I].R).toCsv() ==
             Out[I].Reply.Payload;
    }
    if (!Same) {
      std::fprintf(stderr, "tpdbt-e2e: request %zu (%s) differs from its "
                           "in-process recomputation\n", I,
                   Plan[I].Key.c_str());
      Bad[I] = true;
    }
  });

  uint64_t Failed = 0, RepeatKeys = 0;
  std::set<std::string> Keys;
  for (const Planned &P : Plan)
    RepeatKeys += !Keys.insert(P.Key).second;
  Clock::time_point First = Clock::time_point::max(), Last;
  std::vector<double> LatMs;
  Tracer Tr;
  double BusyS = 0.0, QueueS = 0.0, ComputeS = 0.0;
  for (size_t I = 0; I < N; ++I) {
    Failed += Bad[I];
    const Outcome &O = Out[I];
    if (!O.Ok)
      continue;
    First = std::min(First, O.Send);
    Last = std::max(Last, O.Done);
    LatMs.push_back(secondsBetween(O.Send, O.Done) * 1e3);
    BusyS += secondsBetween(O.Send, O.Done);
    QueueS += secondsBetween(O.Send, O.Stage);
    ComputeS += secondsBetween(O.Stage, O.Done);
    if (Traced) {
      const uint64_t Id =
          Tr.add("service.request", O.Send, O.Done, 0, I, O.Client);
      Tr.add("service.queue_wait", O.Send, O.Stage, Id, I, O.Client);
      Tr.add("service.compute", O.Stage, O.Done, Id, I, O.Client);
    }
  }
  Failed += !expect(!Stats.empty(), "daemon answered STATS and SHUTDOWN");

  Json J;
  J.add("ok", Failed == 0)
      .add("attempted", static_cast<uint64_t>(N))
      .add("failed", Failed)
      .add("wall_s", LatMs.empty() ? 0.0 : secondsBetween(First, Last))
      .add("trace_bytes", traceStoreBytes(Cache))
      .add("lat_ms", LatMs);
  if (Traced) {
    Json L;
    L.add("harness.busy_s", BusyS)
        .add("harness.unattributed_frac", 1.0 - (QueueS + ComputeS) / BusyS)
        .add("service.queue_wait_frac", QueueS / BusyS)
        .add("service.compute_frac", ComputeS / BusyS)
        .add("service.repeat_key_frac", static_cast<double>(RepeatKeys) / N)
        .add("service.busy", Busy);
    const std::pair<const char *, const char *> FromStats[] = {
        {"service.computed", "computed"},
        {"service.coalesced", "coalesced"},
        {"service.queued", "queued"},
        {"core.trace_disk_hits", "trace_disk_hits"},
        {"core.trace_mem_hits", "trace_mem_hits"},
        {"core.trace_misses", "trace_misses"}};
    for (const auto &[Metric, Counter] : FromStats)
      L.add(Metric, Stats[Counter]);
    J.add("layers", L);
    Tr.writeChrome(A.str("trace"));
    printLayerTable(Tr, BusyS, "daemon-mixed");
  }
  std::printf("%s\n", J.str().c_str());
  return 0;
}
