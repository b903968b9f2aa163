//===- bench/e2e/src/E2e.h - End-to-end benchmark worker --------*- C++ -*-===//
//
// Part of the tpdbt project (CGO 2004 initial-prediction reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of tpdbt-e2e, the per-process worker behind
/// bench/e2e/run.py. Every subcommand does one unit of a workload (a
/// set-up step, one suite repetition, one daemon round) against the
/// libraries' public entry points and prints one JSON object as the last
/// line of its standard output; run.py repeats units, takes medians and
/// owns the process lifecycle.
///
//===----------------------------------------------------------------------===//

#ifndef TPDBT_BENCH_E2E_E2E_H
#define TPDBT_BENCH_E2E_E2E_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tpdbt {
namespace e2e {

/// "--key value" arguments after the subcommand name. A setting is either
/// passed by run.py, which then always passes it, or a constant of this
/// worker; nothing has a default on both sides.
class Args {
public:
  /// False (with a message on stderr) on a malformed argument list.
  bool parse(int Argc, char **Argv);
  bool has(const std::string &Key) const { return Values.count(Key) != 0; }
  /// The value of \p Key; a missing key ends the process with exit code 2.
  std::string str(const std::string &Key) const;
  double num(const std::string &Key) const;

private:
  std::map<std::string, std::string> Values;
};

/// Worker threads of every suite context, set-up and daemon-reply recheck.
constexpr unsigned Jobs = 2;

/// An ordered JSON object, written on one line.
class Json {
public:
  Json &add(const std::string &Key, double V);
  Json &add(const std::string &Key, uint64_t V);
  Json &add(const std::string &Key, bool V);
  Json &add(const std::string &Key, const std::string &V);
  Json &add(const std::string &Key, const std::vector<double> &V);
  Json &add(const std::string &Key, const std::vector<std::string> &V);
  Json &add(const std::string &Key, const Json &V);
  std::string str() const { return "{" + Body + "}"; }

private:
  void key(const std::string &K);
  std::string Body;
};

std::string jsonQuote(const std::string &S);

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// User+system CPU seconds of this process so far (all threads).
double processCpuSeconds();
/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// The 26 suite programs, INT then FP (the figure binaries' order).
std::vector<std::string> suiteNames();

/// Bytes held by the trace store in \p Dir (.trace and .trace.idx files);
/// the .prof snapshots beside them are excluded.
uint64_t traceStoreBytes(const std::string &Dir);

/// Compares \p Csv with the golden file \p Path; prints a note on stderr
/// and returns false on a mismatch or a missing golden.
bool matchesGolden(const std::string &Csv, const std::string &Path,
                   const std::string &What);

/// FNV-1a 64 of \p S, as 16 hex digits (determinism fingerprints).
std::string hashHex(const std::string &S);

/// One invariant of a workload's measured state: prints \p What on stderr
/// when \p Cond is false, and returns \p Cond.
bool expect(bool Cond, const char *What);

int runOracle(const Args &A);
int runRecord(const Args &A);
int runSuite(const Args &A);
int runSampled(const Args &A);
int runDaemonClient(const Args &A);

} // namespace e2e
} // namespace tpdbt

#endif // TPDBT_BENCH_E2E_E2E_H
