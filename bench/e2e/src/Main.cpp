//===- bench/e2e/src/Main.cpp - tpdbt-e2e entry point ----------------------===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
// Subcommands (each prints one JSON object as its last stdout line):
//   context   build type, compiler and hardware-counter availability
//   oracle    .prof-warm figures from a copy of the committed cache
//   record    builds a workload's trace cache (set-up)
//   suite     one cold or trace-warm figure-suite repetition
//   sampled   one sampled figure-suite repetition (many sample seeds)
//   daemon    drives one mixed request round against tpdbt-sweepd
// bench/e2e/run.py is the user-facing command; see bench/e2e/README.md.
//
//===-----------------------------------------------------------------------===//

#include "E2e.h"

#include "support/TextFile.h"
#include "workloads/BenchSpec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

using namespace tpdbt;
using namespace tpdbt::e2e;

bool Args::parse(int Argc, char **Argv) {
  for (int I = 0; I < Argc; ++I) {
    const std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc) {
      std::fprintf(stderr, "tpdbt-e2e: expected '--key value', got '%s'\n",
                   Key.c_str());
      return false;
    }
    Values[Key.substr(2)] = Argv[++I];
  }
  return true;
}

std::string Args::str(const std::string &Key) const {
  auto It = Values.find(Key);
  if (It == Values.end()) {
    std::fprintf(stderr, "tpdbt-e2e: missing --%s\n", Key.c_str());
    std::exit(2);
  }
  return It->second;
}

double Args::num(const std::string &Key) const {
  return std::strtod(str(Key).c_str(), nullptr);
}

std::string tpdbt::e2e::jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void Json::key(const std::string &K) {
  if (!Body.empty())
    Body += ",";
  Body += jsonQuote(K) + ":";
}

Json &Json::add(const std::string &K, double V) {
  key(K);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Body += Buf;
  return *this;
}

Json &Json::add(const std::string &K, uint64_t V) {
  key(K);
  Body += std::to_string(V);
  return *this;
}

Json &Json::add(const std::string &K, bool V) {
  key(K);
  Body += V ? "true" : "false";
  return *this;
}

Json &Json::add(const std::string &K, const std::string &V) {
  key(K);
  Body += jsonQuote(V);
  return *this;
}

Json &Json::add(const std::string &K, const std::vector<double> &V) {
  key(K);
  Body += "[";
  for (size_t I = 0; I < V.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%.9g", I ? "," : "", V[I]);
    Body += Buf;
  }
  Body += "]";
  return *this;
}

Json &Json::add(const std::string &K, const std::vector<std::string> &V) {
  key(K);
  Body += "[";
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Body += ",";
    Body += jsonQuote(V[I]);
  }
  Body += "]";
  return *this;
}

Json &Json::add(const std::string &K, const Json &V) {
  key(K);
  Body += V.str();
  return *this;
}

double tpdbt::e2e::processCpuSeconds() {
  struct rusage R;
  getrusage(RUSAGE_SELF, &R);
  return static_cast<double>(R.ru_utime.tv_sec + R.ru_stime.tv_sec) +
         static_cast<double>(R.ru_utime.tv_usec + R.ru_stime.tv_usec) / 1e6;
}

double tpdbt::e2e::peakRssMb() {
  struct rusage R;
  getrusage(RUSAGE_SELF, &R);
  return static_cast<double>(R.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::vector<std::string> tpdbt::e2e::suiteNames() {
  std::vector<std::string> All = workloads::intBenchmarkNames();
  for (const std::string &N : workloads::fpBenchmarkNames())
    All.push_back(N);
  return All;
}

uint64_t tpdbt::e2e::traceStoreBytes(const std::string &Dir) {
  namespace fs = std::filesystem;
  uint64_t Bytes = 0;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    const std::string Name = E.path().filename().string();
    auto EndsWith = [&](const std::string &Suffix) {
      return Name.size() >= Suffix.size() &&
             Name.compare(Name.size() - Suffix.size(), Suffix.size(),
                          Suffix) == 0;
    };
    if (E.is_regular_file(EC) && (EndsWith(".trace") || EndsWith(".trace.idx")))
      Bytes += E.file_size(EC);
  }
  return Bytes;
}

bool tpdbt::e2e::matchesGolden(const std::string &Csv, const std::string &Path,
                               const std::string &What) {
  std::optional<std::string> Golden = readTextFile(Path);
  if (!Golden) {
    std::fprintf(stderr, "tpdbt-e2e: %s: golden %s is missing\n",
                 What.c_str(), Path.c_str());
    return false;
  }
  if (*Golden != Csv) {
    std::fprintf(stderr, "tpdbt-e2e: %s differs from %s\n", What.c_str(),
                 Path.c_str());
    return false;
  }
  return true;
}

std::string tpdbt::e2e::hashHex(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool tpdbt::e2e::expect(bool Cond, const char *What) {
  if (!Cond)
    std::fprintf(stderr, "tpdbt-e2e: check failed: %s\n", What);
  return Cond;
}

namespace {

/// Whether this process may count its own user-space retired
/// instructions; "available" or the errno text of perf_event_open.
std::string pmuAvailability() {
  perf_event_attr Attr;
  std::memset(&Attr, 0, sizeof(Attr));
  Attr.size = sizeof(Attr);
  Attr.type = PERF_TYPE_HARDWARE;
  Attr.config = PERF_COUNT_HW_INSTRUCTIONS;
  Attr.disabled = 1;
  Attr.exclude_kernel = 1;
  Attr.exclude_hv = 1;
  long Fd = syscall(SYS_perf_event_open, &Attr, 0, -1, -1, 0);
  if (Fd < 0)
    return std::string("unavailable: ") + std::strerror(errno);
  close(static_cast<int>(Fd));
  return "available";
}

int runContext() {
  Json J;
  J.add("build_type", std::string(TPDBT_E2E_BUILD_TYPE))
      .add("compiler", std::string(__VERSION__))
      .add("pmu", pmuAvailability())
      .add("ok", true);
  std::printf("%s\n", J.str().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tpdbt-e2e (context | oracle | record | suite | "
               "sampled | daemon) [--key value]...\n"
               "Normally run through bench/e2e/run.py; see "
               "bench/e2e/README.md.\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();
  const std::string Cmd = argv[1];
  Args A;
  if (!A.parse(argc - 2, argv + 2))
    return usage();
  if (Cmd == "context")
    return runContext();
  if (Cmd == "oracle")
    return runOracle(A);
  if (Cmd == "record")
    return runRecord(A);
  if (Cmd == "suite")
    return runSuite(A);
  if (Cmd == "sampled")
    return runSampled(A);
  if (Cmd == "daemon")
    return runDaemonClient(A);
  return usage();
}
