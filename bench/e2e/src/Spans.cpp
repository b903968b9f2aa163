//===- bench/e2e/src/Spans.cpp - In-memory span recorder -------------------===//

#include "Spans.h"

#include "support/TextFile.h"

#include <atomic>
#include <cstdio>

using namespace tpdbt;
using namespace tpdbt::e2e;

namespace {

// One tracer per process, so the open-scope stack and the thread index
// can be plain thread-locals.
thread_local std::vector<uint64_t> OpenScopes;

unsigned threadIndex() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Index = Next.fetch_add(1);
  return Index;
}

double micros(Clock::time_point Origin, Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - Origin).count();
}

} // namespace

Tracer::Scope::Scope(Tracer &T, std::string Name, uint64_t Request)
    : Owner(T) {
  S.Name = std::move(Name);
  S.Request = Request;
  S.Thread = threadIndex();
  S.Parent = OpenScopes.empty() ? 0 : OpenScopes.back();
  {
    std::lock_guard<std::mutex> Guard(Owner.Lock);
    S.Id = Owner.NextId++;
  }
  OpenScopes.push_back(S.Id);
  S.Start = Clock::now();
}

Tracer::Scope::~Scope() {
  S.End = Clock::now();
  OpenScopes.pop_back();
  std::lock_guard<std::mutex> Guard(Owner.Lock);
  Owner.Spans.push_back(std::move(S));
}

uint64_t Tracer::add(std::string Name, Clock::time_point Start,
                     Clock::time_point End, uint64_t Parent,
                     uint64_t Request, unsigned Thread) {
  std::lock_guard<std::mutex> Guard(Lock);
  Span S;
  S.Name = std::move(Name);
  S.Id = NextId++;
  S.Parent = Parent;
  S.Request = Request;
  S.Thread = Thread;
  S.Start = Start;
  S.End = End;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

std::map<std::string, Tracer::LayerTotals> Tracer::layers() const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::map<uint64_t, double> ChildS;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildS[S.Parent] += secondsBetween(S.Start, S.End);
  std::map<std::string, LayerTotals> Out;
  for (const Span &S : Spans) {
    LayerTotals &L = Out[S.Name];
    const double D = secondsBetween(S.Start, S.End);
    ++L.Count;
    L.TotalS += D;
    auto It = ChildS.find(S.Id);
    L.SelfS += D - (It == ChildS.end() ? 0.0 : It->second);
  }
  return Out;
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"request\":%llu}}",
                  S.Thread, micros(Origin, S.Start),
                  micros(S.Start, S.End),
                  static_cast<unsigned long long>(S.Id),
                  static_cast<unsigned long long>(S.Parent),
                  static_cast<unsigned long long>(S.Request));
    Out += I ? ",\n{\"name\":" : "\n{\"name\":";
    Out += jsonQuote(S.Name) + "," + Buf;
  }
  Out += "\n]}\n";
  return writeTextFileAtomic(Path, Out);
}

void tpdbt::e2e::printLayerTable(const Tracer &T, double BusyS,
                                 const std::string &Title) {
  std::fprintf(stderr, "%s: per-layer self time (busy %.3fs)\n",
               Title.c_str(), BusyS);
  std::fprintf(stderr, "  %-26s %8s %10s %10s %7s\n", "layer", "calls",
               "total_s", "self_s", "share");
  for (const auto &[Name, L] : T.layers())
    std::fprintf(stderr, "  %-26s %8llu %10.4f %10.4f %6.1f%%\n",
                 Name.c_str(), static_cast<unsigned long long>(L.Count),
                 L.TotalS, L.SelfS, BusyS > 0 ? 100.0 * L.SelfS / BusyS : 0.0);
}
